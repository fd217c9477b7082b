"""Cost metering: machine-seconds in, dollars and gauges out.

Every up machine burns money whether or not its epochs help the
experiment — that asymmetry is the whole reason a budget-aware policy
can beat vanilla POP.  :class:`CostMeter` keeps one meter per machine
class (on-demand vs spot), charges the hosting experiment's
``budget_slot_hours``, and leaves two audit surfaces:

* ``cost_*`` gauges on the experiment's metrics registry (shipped via
  telemetry, rendered by ``repro top``'s cost panel), and
* a ``cost.jsonl`` trail of tick/summary records that the CI smoke job
  reconciles against raw machine-seconds.

Rates are expressed in dollars per machine-**hour**, normalised so one
on-demand machine-hour costs exactly one dollar by default — which
makes ``budget_slot_hours`` directly comparable to spend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..observability import NULL_RECORDER, Journal

__all__ = ["ON_DEMAND", "SPOT", "CostModel", "CostMeter", "machine_classes"]

ON_DEMAND = "on_demand"
SPOT = "spot"


@dataclass(frozen=True)
class CostModel:
    """Dollar rates per machine-hour, by machine class."""

    on_demand_rate: float = 1.0
    spot_rate: float = 0.3

    def __post_init__(self) -> None:
        if self.on_demand_rate < 0 or self.spot_rate < 0:
            raise ValueError("rates must be >= 0")

    def rate(self, machine_class: str) -> float:
        if machine_class == SPOT:
            return self.spot_rate
        return self.on_demand_rate

    def to_dict(self) -> Dict[str, float]:
        return {
            "on_demand_rate": self.on_demand_rate,
            "spot_rate": self.spot_rate,
        }


def machine_classes(
    machine_ids: List[str], spot_fraction: float
) -> Dict[str, str]:
    """Assign classes: the newest ``spot_fraction`` of the fleet is spot.

    Oldest machines stay on-demand so the stable core of the fleet is
    the reliable part — the same shape a real mixed fleet converges to,
    and it keeps machine-id -> class deterministic for tests.
    """
    if not 0.0 <= spot_fraction <= 1.0:
        raise ValueError("spot_fraction must be in [0, 1]")
    ordered = sorted(machine_ids)
    num_spot = int(round(len(ordered) * spot_fraction))
    classes = {machine_id: ON_DEMAND for machine_id in ordered}
    for machine_id in ordered[len(ordered) - num_spot:]:
        classes[machine_id] = SPOT
    return classes


class CostMeter:
    """Per-experiment machine-second meters with class-distinct rates.

    Args:
        exp_id: experiment the spend is charged to.
        model: dollar rates by machine class.
        budget_slot_hours: the submission's budget; ``None`` means
            unmetered (spend is still recorded, never exhausted).
        recorder: carries the ``cost_*`` gauges.
        cost_path: the ``cost.jsonl`` trail to append to; ``None``
            keeps the meter in-memory only.
        exporter: an already-open exporter to append to instead — the
            daemon hands every experiment's meter the same
            ``cost.jsonl`` sink (the meter then never closes it).
    """

    def __init__(
        self,
        exp_id: str,
        model: Optional[CostModel] = None,
        budget_slot_hours: Optional[float] = None,
        recorder=NULL_RECORDER,
        cost_path=None,
        exporter=None,
    ) -> None:
        self.exp_id = exp_id
        self.model = model if model is not None else CostModel()
        self.budget_slot_hours = budget_slot_hours
        self._lock = threading.Lock()
        self._seconds: Dict[str, float] = {}  # machine class -> seconds
        self._spent: float = 0.0  # dollars
        self._owns_exporter = exporter is None and cost_path is not None
        if exporter is not None:
            self._exporter = exporter
        elif cost_path is not None:
            self._exporter = Journal(cost_path)
        else:
            self._exporter = None
        metrics = recorder.metrics
        self._m_seconds = metrics.gauge(
            "cost_machine_seconds",
            help="Metered machine-seconds, by machine class",
        )
        self._m_spent = metrics.gauge(
            "cost_spent_dollars", help="Dollars spent, per experiment"
        )
        self._m_budget = metrics.gauge(
            "cost_budget_dollars",
            help="Dollar budget (budget_slot_hours at the on-demand rate)",
        )
        self._m_remaining = metrics.gauge(
            "cost_budget_remaining_dollars",
            help="Budget dollars left, per experiment",
        )
        if budget_slot_hours is not None:
            budget = budget_slot_hours * self.model.on_demand_rate
            self._m_budget.set(budget, experiment=exp_id)
            self._m_remaining.set(budget, experiment=exp_id)
        self._m_spent.set(0.0, experiment=exp_id)

    # -------------------------------------------------------------- queries

    @property
    def spent_dollars(self) -> float:
        with self._lock:
            return self._spent

    @property
    def budget_dollars(self) -> Optional[float]:
        if self.budget_slot_hours is None:
            return None
        return self.budget_slot_hours * self.model.on_demand_rate

    @property
    def remaining_dollars(self) -> Optional[float]:
        budget = self.budget_dollars
        if budget is None:
            return None
        return max(0.0, budget - self.spent_dollars)

    @property
    def exhausted(self) -> bool:
        remaining = self.remaining_dollars
        return remaining is not None and remaining <= 0.0

    def machine_seconds(self, machine_class: Optional[str] = None) -> float:
        with self._lock:
            if machine_class is not None:
                return self._seconds.get(machine_class, 0.0)
            return sum(self._seconds.values())

    # ------------------------------------------------------------- commands

    def charge(
        self, machine_class: str, seconds: float, machine_id: str = ""
    ) -> float:
        """Meter ``seconds`` of one machine's time; returns its cost."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        cost = self.model.rate(machine_class) * seconds / 3600.0
        with self._lock:
            self._seconds[machine_class] = (
                self._seconds.get(machine_class, 0.0) + seconds
            )
            self._spent += cost
            self._update_gauges()
        return cost

    def record(self, event: str, **fields) -> None:
        """Append one record to the ``cost.jsonl`` trail."""
        if self._exporter is None:
            return
        record = {"event": event, "experiment": self.exp_id}
        record.update(fields)
        self._exporter.export(record)

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return {
                "experiment": self.exp_id,
                "machine_seconds": dict(self._seconds),
                "spent_dollars": round(self._spent, 6),
                "budget_dollars": self.budget_dollars,
                "rates": self.model.to_dict(),
            }

    def close(self) -> None:
        """Write the final summary record and flush an owned trail."""
        if self._exporter is not None:
            self.record("cost_summary", **{
                key: value for key, value in self.summary().items()
                if key != "experiment"
            })
            if self._owns_exporter:
                self._exporter.close()

    # ------------------------------------------------------------- internal

    def _update_gauges(self) -> None:
        # Caller holds the lock.
        for machine_class, seconds in self._seconds.items():
            self._m_seconds.set(seconds, **{"class": machine_class})
        self._m_spent.set(self._spent, experiment=self.exp_id)
        budget = self.budget_dollars
        if budget is not None:
            self._m_remaining.set(
                max(0.0, budget - self._spent), experiment=self.exp_id
            )
