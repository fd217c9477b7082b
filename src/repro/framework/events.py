"""Event types flowing between Node Agents, the scheduler, and SAPs.

These mirror the up-call payloads of §4.2: application statistics
(``ApplicationStat``) and iteration-finish notifications
(``OnIterationFinish``), plus lifecycle records used by the framework
internally and by analysis code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["AppStat", "IterationFinished", "Decision", "LifecycleKind", "LifecycleEvent"]


@dataclass(frozen=True, slots=True)
class AppStat:
    """One application statistic reported by a training job.

    Attributes:
        job_id: the reporting job.
        epoch: 1-based epoch the stat describes.
        metric: raw-scale model performance after that epoch.
        duration: seconds the epoch took.
        timestamp: experiment-clock time the stat was received.
        machine_id: machine the job was running on.
        extras: additional model-owner metrics (§9 Ongoing Work), e.g.
            sparsity next to the primary perplexity-derived metric.
    """

    job_id: str
    epoch: int
    metric: float
    duration: float
    timestamp: float
    machine_id: str
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class IterationFinished:
    """Payload of the ``OnIterationFinish`` up-call."""

    job_id: str
    epoch: int
    metric: float
    timestamp: float
    machine_id: str
    job_finished: bool


class Decision(enum.Enum):
    """What a SAP wants done with a job after an iteration."""

    CONTINUE = "continue"
    SUSPEND = "suspend"
    TERMINATE = "terminate"


class LifecycleKind(enum.Enum):
    """Job lifecycle transitions recorded for analysis."""

    CREATED = "created"
    STARTED = "started"
    SUSPENDED = "suspended"
    RESUMED = "resumed"
    TERMINATED = "terminated"
    COMPLETED = "completed"
    MACHINE_FAILED = "machine_failed"
    MACHINE_RECOVERED = "machine_recovered"
    MACHINE_DRAINED = "machine_drained"
    MACHINE_RETURNED = "machine_returned"


@dataclass(frozen=True)
class LifecycleEvent:
    """A timestamped lifecycle transition."""

    kind: LifecycleKind
    job_id: str
    timestamp: float
    machine_id: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)
