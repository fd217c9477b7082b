"""The experiment submission record.

A :class:`Submission` is what a client POSTs to the daemon (or hands to
``repro submit``): component *names* resolved through
:mod:`repro.registry` plus the experiment parameters.  It is the
durable, JSON-round-trippable description from which the executor can
rebuild the run — including after a daemon crash, which is what makes
``repro resume`` possible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional

from .. import registry
from ..framework.experiment import ExperimentSpec
from ..generators.base import HyperparameterGenerator
from ..policies.base import SchedulingPolicy
from ..workloads.base import Workload

__all__ = ["Submission"]

#: Fields a pre-1.6 client or run-store journal may still carry.  They
#: are dropped on load (the prediction pool they sized is gone) so old
#: journals resume; every other unknown key is still an error.
_RETIRED = ("predict_workers",)


@dataclass
class Submission:
    """One experiment request, as stored by the run store.

    Attributes:
        workload: registered workload name (``repro.registry.WORKLOADS``).
        policy: registered SAP name.
        generator: registered hyperparameter-generator name.
        machines: slot count; None picks the workload's paper default.
        configs: how many configurations the generator should mint.
        seed: experiment seed (training noise, snapshot costs).
        gen_seed: generator seed; None picks the published default.
        target: raw-scale target metric; None uses the domain target.
        tmax_hours: experiment horizon ``Tmax`` in hours.
        stop_on_target: end the run at first target hit.
        live: execute on the live threaded runtime instead of the
            simulator.
        time_scale: wall seconds per simulated second (live runtime).
        checkpoint_every: epochs between service checkpoints written to
            the run store (progress visibility + resume bookkeeping).
        tenant: broker tenant this submission bills to (quotas, rate
            limits, budget accounting).
        priority: admission priority — higher claims first; a strictly
            higher priority may preempt running lower-priority work
            when the slot pool is bounded.
        deadline_hours: soft deadline from admission; approaching it
            raises the experiment's reclaim value (deadline pressure).
        budget_slot_hours: slot-hour budget; once spent, the broker
            shrinks the experiment to its one-slot guarantee.
    """

    workload: str = "cifar10"
    policy: str = "pop"
    generator: str = "random"
    machines: Optional[int] = None
    configs: int = 100
    seed: int = 0
    gen_seed: Optional[int] = None
    target: Optional[float] = None
    tmax_hours: float = 48.0
    stop_on_target: bool = True
    live: bool = False
    time_scale: float = 1e-3
    checkpoint_every: int = 25
    tenant: str = "default"
    priority: int = 0
    deadline_hours: Optional[float] = None
    budget_slot_hours: Optional[float] = None

    def __post_init__(self) -> None:
        for kind, reg, name in (
            ("workload", registry.WORKLOADS, self.workload),
            ("policy", registry.POLICIES, self.policy),
            ("generator", registry.GENERATORS, self.generator),
        ):
            if name not in reg:
                choices = ", ".join(sorted(reg))
                raise ValueError(
                    f"unknown {kind} {name!r} (choices: {choices})"
                )
        if self.configs < 1:
            raise ValueError("configs must be >= 1")
        if self.machines is not None and self.machines < 1:
            raise ValueError("machines must be >= 1 when given")
        if self.tmax_hours <= 0:
            raise ValueError("tmax_hours must be positive")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise ValueError("priority must be an integer")
        if self.deadline_hours is not None and self.deadline_hours <= 0:
            raise ValueError("deadline_hours must be positive when given")
        if self.budget_slot_hours is not None and self.budget_slot_hours <= 0:
            raise ValueError("budget_slot_hours must be positive when given")

    # -------------------------------------------------------- serialisation

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Submission":
        """Build a validated submission from a JSON payload.

        Unknown keys are rejected so a typoed field fails the request
        instead of silently running with defaults; :data:`_RETIRED`
        keys are accepted and ignored.
        """
        if not isinstance(data, dict):
            raise ValueError("submission must be a JSON object")
        data = {k: v for k, v in data.items() if k not in _RETIRED}
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ValueError(f"unknown submission fields: {', '.join(unknown)}")
        return cls(**data)

    # ------------------------------------------------------------- builders

    @property
    def resolved_machines(self) -> int:
        if self.machines is not None:
            return self.machines
        return registry.default_machines(self.workload)

    @property
    def resolved_gen_seed(self) -> int:
        if self.gen_seed is not None:
            return self.gen_seed
        return registry.default_gen_seed(self.workload)

    def build_workload(self) -> Workload:
        return registry.build_workload(self.workload)

    def build_policy(self) -> SchedulingPolicy:
        policy = registry.build_policy(self.policy)
        if hasattr(policy, "configure_budget"):
            # Budget-aware policies (pop-budget) spend against the
            # slot-hour budget; without one they fall back to their own
            # default at begin().
            policy.configure_budget(self.budget_slot_hours)
        return policy

    def build_generator(self, workload: Workload) -> HyperparameterGenerator:
        return registry.build_generator(
            self.generator,
            workload,
            max_configs=self.configs,
            gen_seed=self.resolved_gen_seed,
        )

    def build_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            num_machines=self.resolved_machines,
            num_configs=self.configs,
            seed=self.seed,
            target=self.target,
            tmax=self.tmax_hours * 3600.0,
            stop_on_target=self.stop_on_target,
        )
