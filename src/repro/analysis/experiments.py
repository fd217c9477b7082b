"""Standard experiment setups for the paper's evaluation (§6.1).

The paper fixes one hyperparameter set per domain ("the same random
search Hyperparameter Generator with the same initial random seed") and
reuses it across every policy.  These helpers pin this repository's
equivalents:

* supervised: the CIFAR-10 workload, 100 configurations from random
  seed 17, 4 machines (the private-cluster setup);
* reinforcement: the LunarLander workload, 100 configurations from
  random seed 11, 15 machines (the AWS setup).

The per-workload seeds and cluster sizes live in
:data:`repro.registry.PAPER_SETUP`, which the CLI, the service and the
Sweep Lab read too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .. import registry
from ..framework.experiment import ExperimentResult, ExperimentSpec
from ..generators.random_gen import RandomGenerator
from ..policies.base import SchedulingPolicy
from ..sim.runner import run_simulation
from ..workloads.base import Workload
from ..workloads.cifar10 import Cifar10Workload
from ..workloads.lunarlander import LunarLanderWorkload

__all__ = [
    "standard_sl_workload",
    "standard_rl_workload",
    "standard_configs",
    "standard_spec",
    "run_standard_experiment",
]


def standard_sl_workload() -> Cifar10Workload:
    """The paper's supervised workload (synthetic CIFAR-10)."""
    return Cifar10Workload()


def standard_rl_workload() -> LunarLanderWorkload:
    """The paper's RL workload (synthetic LunarLander)."""
    return LunarLanderWorkload()


def standard_configs(
    workload: Workload, num_configs: int = 100, seed: Optional[int] = None
) -> List[Dict[str, Any]]:
    """The fixed configuration set: ``num_configs`` draws of the random
    generator at ``seed`` (default: the workload's published seed)."""
    if seed is None:
        seed = registry.default_gen_seed(workload)
    generator = RandomGenerator(workload.space, seed=seed, max_configs=num_configs)
    return [generator.create_job()[1] for _ in range(num_configs)]


def standard_spec(
    workload: Workload,
    num_machines: Optional[int] = None,
    num_configs: int = 100,
    seed: int = 0,
    **overrides: Any,
) -> ExperimentSpec:
    """The standard :class:`ExperimentSpec` for a workload."""
    if num_machines is None:
        num_machines = registry.default_machines(workload)
    return ExperimentSpec(
        num_machines=num_machines,
        num_configs=num_configs,
        seed=seed,
        **overrides,
    )


def run_standard_experiment(
    workload: Workload,
    policy: SchedulingPolicy,
    seed: int = 0,
    num_machines: Optional[int] = None,
    num_configs: int = 100,
    configs: Optional[Sequence[Dict[str, Any]]] = None,
    predictor: Optional[Any] = None,
    **spec_overrides: Any,
) -> ExperimentResult:
    """One simulated experiment under the standard setup."""
    if configs is None:
        configs = standard_configs(workload, num_configs)
    spec = standard_spec(
        workload,
        num_machines=num_machines,
        num_configs=num_configs,
        seed=seed,
        **spec_overrides,
    )
    return run_simulation(
        workload, policy, spec=spec, configs=configs, predictor=predictor
    )

