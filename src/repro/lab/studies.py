"""Built-in named studies (the paper's comparative evidence, canned).

Each entry maps a CLI-facing name onto a ready-to-run
:class:`~repro.lab.spec.StudySpec`.  The defaults are laptop-scale:
they finish in minutes under the parallel fan-out and already show the
paper's qualitative findings; scale ``seeds`` / ``config_orders`` up
via ``StudySpec.with_overrides`` (or ``repro sweep run --seeds ...``)
for tighter confidence intervals.
"""

from __future__ import annotations

from typing import Callable, Dict

from .spec import StudySpec

__all__ = ["BUILTIN_STUDIES", "builtin_study"]


def _policy_tournament() -> StudySpec:
    # §6 / Figs 6-7 flavour: one frozen configuration set, every SAP,
    # repeated over training-noise seeds, paired per seed against POP.
    return StudySpec(
        name="policy-tournament",
        policies=("pop", "hyperband", "bandit", "earlyterm"),
        workloads=("cifar10",),
        seeds=(0, 1, 2),
        baseline={"policy": "pop"},
        metric="time_to_target",
    )


def _capacity_sensitivity() -> StudySpec:
    # §7.2.1 / Fig 12b: sweep the machine count; the report's per-
    # context tables show POP's advantage shrinking once capacity is
    # no longer scarce.
    return StudySpec(
        name="capacity-sensitivity",
        policies=("pop", "bandit", "earlyterm", "default"),
        workloads=("cifar10",),
        machines=(2, 4, 8, 16),
        seeds=(0, 1, 2),
        baseline={"policy": "pop"},
        metric="time_to_target",
    )


def _config_order() -> StudySpec:
    # §7.2.2 / Fig 12c: shuffle the frozen configuration set; every
    # policy sees identical per-configuration learning curves, so the
    # spread across orders isolates scheduling robustness.
    return StudySpec(
        name="config-order",
        policies=("pop", "bandit", "earlyterm", "default"),
        workloads=("cifar10",),
        machines=(5,),
        seeds=(0,),
        config_orders=tuple(range(10)),
        baseline={"policy": "pop"},
        metric="time_to_target",
    )


def _generator_shootout() -> StudySpec:
    # §4.2's orthogonality claim: swap the Hyperparameter Generator
    # under a fixed SAP and compare best-found quality at equal budget.
    return StudySpec(
        name="generator-shootout",
        policies=("default",),
        workloads=("mlp",),
        generators=("random", "grid", "bayesian", "tpe"),
        seeds=(0, 1, 2),
        num_configs=24,
        stop_on_target=False,
        tmax_hours=2.0,
        baseline={"generator": "random"},
        compare_axis="generator",
        metric="best_metric",
    )


def _budget_tournament() -> StudySpec:
    # Elastic-cluster economics: equal machine-hour purse per cell,
    # best model found when the money runs out.  pop-budget narrows
    # its promising pool as the purse drains and prioritises cheap
    # finishers; plain POP and HyperBand spend time-aware but
    # cost-blind.
    return StudySpec(
        name="budget-tournament",
        policies=("pop-budget", "pop", "hyperband"),
        workloads=("cifar10",),
        machines=(4,),
        seeds=(0, 1, 2),
        num_configs=24,
        stop_on_target=False,
        tmax_hours=24.0,
        budget_slot_hours=48.0,
        baseline={"policy": "pop"},
        metric="best_metric",
    )


def _learned_vs_pop() -> StudySpec:
    # Learned scheduling (docs/learned.md): the frozen RL policy (the
    # committed pretrained artifact, unless REPRO_LEARNED_ARTIFACT
    # overrides it) against its untrained-twin control and the
    # hand-tuned SAPs.  Each seed is a *held-out* evaluation context:
    # gen_seed_mode="per-seed" offsets the generator seed by the
    # replicate seed (configuration set 200+s) and the replicate seed
    # itself drives the training-noise streams — both disjoint from the
    # trainer's pool (gen_seed_base=10000, stream seeds 10000+), so the
    # comparison measures generalisation, not memorisation.  The seed
    # block is the scan range 1..30 filtered by one criterion: the
    # replicate's configuration set must contain at least one target
    # achiever (a property of the recorded streams, checkable
    # without running any policy — never by which policy wins on it);
    # seeds 3, 8, 18, 21, 22, 28, 29 have no achiever, so every policy
    # ties at the Tmax fallback there and the cells carry no signal.
    return StudySpec(
        name="learned-vs-pop",
        policies=("learned", "learned-random", "pop", "pop-budget", "hyperband"),
        workloads=("cifar10",),
        generators=("random",),
        machines=(4,),
        seeds=(
            1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17,
            19, 20, 23, 24, 25, 26, 27, 30,
        ),
        num_configs=20,
        gen_seed=200,
        gen_seed_mode="per-seed",
        tmax_hours=8.0,
        baseline={"policy": "pop"},
        metric="time_to_target",
    )


def _sweep_smoke() -> StudySpec:
    # CI-sized: 2 policies x 2 seeds on a clipped grid.  Small enough
    # for a smoke job, slow enough that a kill-and-resume test can
    # interrupt it mid-study.
    return StudySpec(
        name="sweep-smoke",
        policies=("pop", "default"),
        workloads=("cifar10",),
        machines=(2,),
        seeds=(0, 1),
        num_configs=8,
        tmax_hours=24.0,
        baseline={"policy": "pop"},
        metric="time_to_target",
    )


BUILTIN_STUDIES: Dict[str, Callable[[], StudySpec]] = {
    "policy-tournament": _policy_tournament,
    "capacity-sensitivity": _capacity_sensitivity,
    "config-order": _config_order,
    "generator-shootout": _generator_shootout,
    "budget-tournament": _budget_tournament,
    "learned-vs-pop": _learned_vs_pop,
    "sweep-smoke": _sweep_smoke,
}


def builtin_study(name: str) -> StudySpec:
    """The built-in study registered under ``name``."""
    try:
        factory = BUILTIN_STUDIES[name]
    except KeyError:
        choices = ", ".join(sorted(BUILTIN_STUDIES))
        raise ValueError(
            f"unknown study {name!r} (choices: {choices})"
        ) from None
    return factory()
