"""Declarative study specifications (the Sweep Lab grid language).

A :class:`StudySpec` describes one comparative study as a cell grid —
the cross product of ``{workload × policy × generator × seed ×
machines × config_order}`` plus shared experiment knobs — with one
axis designated the *comparison* axis and one of its levels the
*baseline*.  Every cell is an independent simulated experiment
(:func:`repro.sim.runner.run_simulation`); the paired analysis in
:mod:`repro.lab.analysis` then compares each comparison-axis level
against the baseline replicate-by-replicate, which is exactly the
protocol behind the paper's §6 policy comparisons and §7 sensitivity
tables.

Specs are plain data: JSON-round-trippable (:meth:`StudySpec.to_dict`
/ :meth:`StudySpec.from_dict` / :meth:`StudySpec.from_json_file`) and
fully validated against :mod:`repro.registry` at construction, so a
bad study fails before any cell runs.

Each expanded :class:`Cell` resolves its defaults (machines, generator
seed) into a canonical dict whose blake2b digest is the cell's
content-addressed key — the unit of resumability in
:mod:`repro.lab.store`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import registry
from ..service.submission import Submission

__all__ = [
    "COMPARE_AXES",
    "REPLICATE_AXES",
    "FIXED_GENERATOR",
    "Cell",
    "StudySpec",
]

#: Axes whose levels may be compared against a designated baseline.
COMPARE_AXES = ("policy", "workload", "generator", "machines")

#: Axes that produce paired replicates rather than comparison groups.
REPLICATE_AXES = ("seed", "config_order")

#: The StudySpec fields holding axis levels.
_AXIS_FIELDS = (
    "policies", "workloads", "generators", "seeds", "machines",
    "config_orders",
)

#: Pseudo-generator name: the standard fixed configuration set, i.e.
#: the registry's ``random`` generator at the workload's published
#: generator seed.  This is the paper's §6.1 protocol — one frozen
#: configuration list reused across policies.
FIXED_GENERATOR = "fixed"

_METRICS = {
    # metric name -> True when lower values are better
    "time_to_target": True,
    "best_metric": False,
}


#: The fields of a resolved cell.  Their canonical JSON is the cell
#: key, so this list must not change.
_KEY_FIELDS = (
    "study", "workload", "policy", "generator", "seed", "machines",
    "config_order", "num_configs", "gen_seed", "target", "tmax_hours",
    "stop_on_target", "budget_slot_hours", "gen_seed_mode",
)


@dataclass(frozen=True, kw_only=True)
class Cell(Submission):
    """One fully-specified experiment in a study grid.

    A cell is a run description (:class:`Submission`) plus three
    lab-only fields.  Its ``generator`` may also be
    :data:`FIXED_GENERATOR`: the registry's ``random`` generator at the
    resolved generator seed.  ``machines`` and ``gen_seed`` may be
    ``None`` (the workload's published default); :meth:`resolved` pins
    them so the cell key never depends on defaults changing between
    axes.  The submission's service-only fields stay out of the key.
    """

    study: str
    #: Shuffle seed applied to the minted configuration list (§7.2.2
    #: order sensitivity); None keeps the generator's order.
    config_order: Optional[int] = None
    #: How the generator seed relates to the replicate seed: "fixed"
    #: reuses one configuration set across replicates (the §6.1
    #: protocol); "per-seed" offsets the generator seed by the
    #: replicate seed so each replicate is a *held-out* configuration
    #: set — the evaluation protocol for learned policies, whose
    #: training must never have seen the evaluation sets.
    gen_seed_mode: str = "fixed"

    @property
    def registry_generator(self) -> str:
        return "random" if self.generator == FIXED_GENERATOR else self.generator

    @property
    def resolved_gen_seed(self) -> int:
        offset = self.seed if self.gen_seed_mode == "per-seed" else 0
        return super().resolved_gen_seed + offset

    @property
    def num_configs(self) -> int:
        """The cell key's name for :attr:`configs`."""
        return self.configs

    def resolved(self) -> Dict[str, Any]:
        """The cell with every default pinned (canonical, hashable)."""
        out = {name: getattr(self, name) for name in _KEY_FIELDS}
        out["machines"] = self.resolved_machines
        out["gen_seed"] = self.resolved_gen_seed
        return out

    def key(self) -> str:
        """Content address: blake2b of the resolved cell config.

        Stable across processes and sessions — the resolved dict is
        serialised with sorted keys and no whitespace variance, so the
        same logical cell always lands on the same store entry.
        """
        canonical = json.dumps(
            self.resolved(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.blake2b(
            canonical.encode("utf-8"), digest_size=10
        ).hexdigest()

    def label(self) -> str:
        """A short human-readable handle for logs and audit events."""
        parts = [self.workload, self.policy]
        if self.generator != FIXED_GENERATOR:
            parts.append(self.generator)
        if self.machines is not None:
            parts.append(f"{self.machines}m")
        parts.append(f"s{self.seed}")
        if self.config_order is not None:
            parts.append(f"o{self.config_order}")
        return "/".join(parts)


def _as_tuple(value: Any) -> Tuple[Any, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class StudySpec:
    """A declarative comparative study over a cell grid.

    Attributes:
        name: study identifier (used in reports and store labels).
        policies: SAP names (``repro.registry.POLICIES``).
        workloads: workload names (``repro.registry.WORKLOADS``).
        generators: per-cell configuration sources — registry
            generator names, or :data:`FIXED_GENERATOR` for the §6.1
            frozen configuration set.
        seeds: experiment seeds; each seed is one paired replicate.
        machines: slot counts; ``None`` entries use the workload's
            published default cluster size.
        config_orders: shuffle seeds applied to the fixed
            configuration set (§7.2.2 order sensitivity); ``None``
            keeps the natural order.  Only meaningful with the fixed
            generator.
        num_configs: configurations per cell.
        gen_seed: generator / fixed-set seed; ``None`` uses the
            published per-workload default.
        target: raw-scale target metric; ``None`` = domain default.
        tmax_hours: per-cell experiment horizon.
        stop_on_target: end each cell at first target hit.
        compare_axis: which axis's levels are compared
            (:data:`COMPARE_AXES`).
        baseline: ``{compare_axis: level}`` naming the baseline level;
            the level must appear in the axis.
        metric: ``"time_to_target"`` (lower is better; unreached
            targets score the experiment's finish time, the paper's
            convention) or ``"best_metric"`` (higher is better).
        tenant: broker tenant a daemon-hosted study bills to (rate
            limits and the tenants panel; docs/service.md).
        priority: recorded in ``study.json``; no code reads it (hosted
            studies run in the daemon's process, outside the broker's
            queue and slot pool).
        deadline_hours: recorded in ``study.json``; no code reads it.
        budget_slot_hours: every cell's slot-hour budget.  Budget-aware
            policies spend against it (``configure_budget``); the lab
            stops a budget-blind policy's cell once it is spent, so a
            fixed-budget study compares policies at equal spend.
        gen_seed_mode: ``"fixed"`` reuses one generator seed across
            replicates; ``"per-seed"`` offsets it by each replicate
            seed, giving every replicate a held-out configuration set
            (the learned-policy evaluation protocol).
    """

    name: str
    policies: Tuple[str, ...]
    workloads: Tuple[str, ...] = ("cifar10",)
    generators: Tuple[str, ...] = (FIXED_GENERATOR,)
    seeds: Tuple[int, ...] = (0,)
    machines: Tuple[Optional[int], ...] = (None,)
    config_orders: Tuple[Optional[int], ...] = (None,)
    num_configs: int = 100
    gen_seed: Optional[int] = None
    target: Optional[float] = None
    tmax_hours: float = 48.0
    stop_on_target: bool = True
    compare_axis: str = "policy"
    baseline: Dict[str, Any] = field(default_factory=lambda: {"policy": "pop"})
    metric: str = "time_to_target"
    tenant: str = "default"
    priority: int = 0
    deadline_hours: Optional[float] = None
    budget_slot_hours: Optional[float] = None
    gen_seed_mode: str = "fixed"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("study name must be non-empty")
        for axis in _AXIS_FIELDS:
            # Coerce JSON-borne lists into tuples so the spec stays
            # hashable and comparable regardless of how it was built.
            levels = _as_tuple(getattr(self, axis))
            object.__setattr__(self, axis, levels)
            if not levels:
                raise ValueError(f"{axis} must be non-empty")
            if len(set(levels)) != len(levels):
                raise ValueError(f"duplicate levels in {axis}")
        for generator in self.generators:
            if generator != FIXED_GENERATOR and generator not in registry.GENERATORS:
                choices = ", ".join(
                    sorted((*registry.GENERATORS, FIXED_GENERATOR))
                )
                raise ValueError(
                    f"unknown generator {generator!r} (choices: {choices})"
                )
        for seed in self.seeds:
            if not isinstance(seed, int):
                raise ValueError("seeds must be integers")
        if self.num_configs < 1:
            raise ValueError("num_configs must be >= 1")
        if self.compare_axis not in COMPARE_AXES:
            raise ValueError(
                f"compare_axis must be one of {COMPARE_AXES}, "
                f"not {self.compare_axis!r}"
            )
        if self.metric not in _METRICS:
            raise ValueError(
                f"metric must be one of {tuple(_METRICS)}, not {self.metric!r}"
            )
        if set(self.baseline) != {self.compare_axis}:
            raise ValueError(
                "baseline must designate exactly the compare axis, e.g. "
                f"{{{self.compare_axis!r}: <level>}} (got {self.baseline!r})"
            )
        if self.baseline[self.compare_axis] not in self._axis_levels(
            self.compare_axis
        ):
            raise ValueError(
                f"baseline {self.baseline!r} is not in the study grid "
                f"({self.compare_axis} levels: "
                f"{self._axis_levels(self.compare_axis)})"
            )
        if any(order is not None for order in self.config_orders) and any(
            generator != FIXED_GENERATOR for generator in self.generators
        ):
            raise ValueError(
                "config_orders shuffle the fixed configuration set; they "
                "cannot be combined with registry generators"
            )
        if self.gen_seed_mode not in ("fixed", "per-seed"):
            raise ValueError(
                "gen_seed_mode must be 'fixed' or 'per-seed', "
                f"not {self.gen_seed_mode!r}"
            )
        # Every cell validates as a Submission: policy and workload
        # names, machines, horizon, tenant, priority, deadline, budget.
        self.cells()

    # ------------------------------------------------------------ helpers

    def _axis_levels(self, axis: str) -> Tuple[Any, ...]:
        return {
            "policy": self.policies,
            "workload": self.workloads,
            "generator": self.generators,
            "machines": self.machines,
            "seed": self.seeds,
            "config_order": self.config_orders,
        }[axis]

    @property
    def lower_is_better(self) -> bool:
        return _METRICS[self.metric]

    @property
    def baseline_level(self) -> Any:
        return self.baseline[self.compare_axis]

    def with_overrides(self, **overrides: Any) -> "StudySpec":
        """A copy with fields replaced (revalidated)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------ expansion

    def cells(self) -> List[Cell]:
        """Expand the grid into cells, in deterministic axis order."""
        shared = dict(
            study=self.name,
            configs=self.num_configs,
            gen_seed=self.gen_seed,
            target=self.target,
            tmax_hours=self.tmax_hours,
            stop_on_target=self.stop_on_target,
            tenant=self.tenant,
            priority=self.priority,
            deadline_hours=self.deadline_hours,
            budget_slot_hours=self.budget_slot_hours,
            gen_seed_mode=self.gen_seed_mode,
        )
        return [
            Cell(
                workload=workload, policy=policy, generator=generator,
                machines=machine_count, config_order=order, seed=seed,
                **shared,
            )
            for workload, policy, generator, machine_count, order, seed in (
                product(
                    self.workloads, self.policies, self.generators,
                    self.machines, self.config_orders, self.seeds,
                )
            )
        ]

    # ------------------------------------------------------------ JSON

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable description (tuples become lists)."""
        out = asdict(self)
        for axis in _AXIS_FIELDS:
            out[axis] = list(out[axis])
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StudySpec":
        """Build (and validate) a spec from a JSON-decoded dict."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown StudySpec fields: {', '.join(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "StudySpec":
        """Load a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: study spec must be a JSON object")
        return cls.from_dict(payload)

    def replicate_count(self) -> int:
        return len(self.seeds) * len(self.config_orders)
