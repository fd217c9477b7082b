"""Registry completeness: every published name actually works.

The registry is the shared vocabulary of the CLI, the service, and the
sweep lab.  A name that appears in ``POLICIES`` / ``GENERATORS`` /
``WORKLOADS`` but cannot be constructed with defaults — or that the
StudySpec validator rejects — is a landmine for every one of those
surfaces, so this test constructs all of them and round-trips each
through StudySpec validation and serialization.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.generators.base import HyperparameterGenerator
from repro.lab.spec import StudySpec
from repro.policies.base import SchedulingPolicy
from repro.workloads.base import Workload


def test_every_workload_constructs_and_exposes_domain():
    for name in registry.WORKLOADS:
        workload = registry.build_workload(name)
        assert isinstance(workload, Workload)
        assert workload.domain.max_epochs > 0
        assert workload.space is not None


def test_every_policy_constructs_with_defaults():
    for name in registry.POLICIES:
        policy = registry.build_policy(name)
        assert isinstance(policy, SchedulingPolicy)
        # The SAP contract every scheduler touchpoint relies on.
        assert callable(policy.allocate_jobs)
        assert callable(policy.on_iteration_finish)
        assert callable(policy.application_stat)


@pytest.mark.parametrize("workload_name", sorted(registry.WORKLOADS))
def test_every_generator_constructs_and_mints(workload_name):
    workload = registry.build_workload(workload_name)
    for name in registry.GENERATORS:
        generator = registry.build_generator(
            name, workload, max_configs=2, gen_seed=0
        )
        assert isinstance(generator, HyperparameterGenerator)
        _, config = generator.create_job()
        assert isinstance(config, dict) and config


def test_every_name_round_trips_study_spec_validation():
    """One StudySpec naming everything validates and serializes."""
    spec = StudySpec(
        name="registry-completeness",
        policies=tuple(sorted(registry.POLICIES)),
        workloads=tuple(sorted(registry.WORKLOADS)),
        generators=tuple(sorted(registry.GENERATORS)),
        seeds=(0,),
        num_configs=4,
        baseline={"policy": sorted(registry.POLICIES)[0]},
        metric="time_to_target",
    )
    restored = StudySpec.from_dict(spec.to_dict())
    assert restored == spec
    # Every cell the spec expands to names constructible components.
    cells = spec.cells()
    assert len(cells) == (
        len(registry.POLICIES)
        * len(registry.WORKLOADS)
        * len(registry.GENERATORS)
    )
    for cell in cells:
        assert cell.policy in registry.POLICIES
        assert cell.workload in registry.WORKLOADS
        assert cell.generator in registry.GENERATORS


def test_unknown_names_are_rejected_with_choices():
    with pytest.raises(ValueError, match="choices"):
        registry.build_policy("nope")
    with pytest.raises(ValueError, match="choices"):
        registry.build_workload("nope")
    with pytest.raises(ValueError, match="choices"):
        registry.build_generator(
            "nope", registry.build_workload("cifar10"), max_configs=1
        )


@pytest.mark.parametrize("workload_name", sorted(registry.WORKLOADS))
def test_fixed_cells_mint_the_standard_configs(workload_name):
    """The lab's "fixed" generator is the registry's random generator at
    the workload's published seed: the §6.1 standard configuration set,
    whose seed ``standard_configs`` reads from the same registry."""
    from repro.analysis.experiments import standard_configs, standard_spec
    from repro.lab.spec import FIXED_GENERATOR, Cell

    workload = registry.build_workload(workload_name)
    cell = Cell(study="s", workload=workload_name, generator=FIXED_GENERATOR,
                configs=5)
    assert cell.mint_configs(workload) == standard_configs(workload, 5)
    assert cell.build_spec().num_machines == standard_spec(workload).num_machines
