"""The scheduler decision audit trail.

Every consequential scheduling event — a SAP decision
(CONTINUE/SUSPEND/TERMINATE) with the inputs that produced it
(confidence ``p``, ERT, the dynamic threshold ``p*``, promising-slot
count), a POP pool reclassification round, a lifecycle transition, a
change in the pool's split — is recorded as one :class:`AuditRecord`
and, if an exporter is attached, streamed out as a JSONL document
immediately.  It is a trail of decisions, not of epochs: a record that
would only repeat the one before is not written.

Record kinds emitted by the instrumented framework:

``sap_decision``
    One per ``on_iteration_finish`` up-call that consulted something;
    ``data`` carries the decision, epoch, metric, confidence, ERT,
    threshold, pool sizes, and the policy's own rationale (``reason``
    plus reason-specific inputs such as the kill bound that fired).
    A CONTINUE with no rationale, or only ``between_boundaries``, is
    not written, so a job's epochs without a record are continues.
``pop_classification``
    One per POP reclassification round: the dynamic threshold, slot
    allocation, and the per-job category map.
``lifecycle``
    Mirror of the scheduler's lifecycle log (started / suspended /
    resumed / terminated / completed / machine events).
``pool_snapshot``
    The promising/running/active split and the promising-slot count,
    written when they differ from the last record written (every
    per-epoch sample stays in ``ExperimentResult.pool_timeline``).
``prediction``
    One per curve prediction consumed by POP: confidence and ERT
    before smoothing, horizon, and prediction accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .exporters import EventExporter

__all__ = ["AuditRecord", "AuditTrail", "NullAuditTrail", "NULL_AUDIT"]


@dataclass(frozen=True)
class AuditRecord:
    """One timestamped, structured audit event."""

    kind: str
    timestamp: float
    job_id: Optional[str] = None
    machine_id: Optional[str] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "timestamp": self.timestamp,
            "job_id": self.job_id,
            "machine_id": self.machine_id,
            "data": dict(self.data),
        }


class AuditTrail:
    """Ordered audit log on the experiment clock."""

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        exporter: Optional[EventExporter] = None,
    ) -> None:
        self._clock = clock
        self._exporter = exporter
        self.records: List[AuditRecord] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def record(
        self,
        kind: str,
        job_id: Optional[str] = None,
        machine_id: Optional[str] = None,
        **data: Any,
    ) -> AuditRecord:
        """Append one record and stream it to the exporter (if any)."""
        record = AuditRecord(
            kind=kind,
            timestamp=self._clock() if self._clock is not None else 0.0,
            job_id=job_id,
            machine_id=machine_id,
            data=data,
        )
        self.records.append(record)
        if self._exporter is not None:
            self._exporter.export(record.to_dict())
        return record

    def query(
        self,
        kind: Optional[str] = None,
        job_id: Optional[str] = None,
        **data_filters: Any,
    ) -> List[AuditRecord]:
        """Records matching ``kind``, ``job_id``, and data equality."""
        out = []
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if job_id is not None and record.job_id != job_id:
                continue
            if any(
                record.data.get(key) != value
                for key, value in data_filters.items()
            ):
                continue
            out.append(record)
        return out


class NullAuditTrail:
    """Audit sink used when observability is disabled."""

    enabled = False
    records: List[AuditRecord] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def record(
        self,
        kind: str,
        job_id: Optional[str] = None,
        machine_id: Optional[str] = None,
        **data: Any,
    ) -> None:
        pass

    def query(self, *args: Any, **kwargs: Any) -> List[AuditRecord]:
        return []


NULL_AUDIT = NullAuditTrail()
