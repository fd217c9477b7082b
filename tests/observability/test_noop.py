"""Disabled observability must be invisible in results and behaviour."""

from __future__ import annotations

import pytest

from repro import registry
from repro.core.pop import POPPolicy
from repro.framework.experiment import ExperimentSpec
from repro.framework.policy_api import PolicyContext
from repro.generators.random_gen import RandomGenerator
from repro.observability import NULL_RECORDER, NullRecorder, Recorder
from repro.sim.runner import run_simulation


def _run(cifar10_workload, fast_predictor, recorder, policy=None):
    generator = RandomGenerator(cifar10_workload.space, seed=11, max_configs=8)
    spec = ExperimentSpec(num_machines=3, num_configs=8, seed=0, tmax=4 * 3600.0)
    return run_simulation(
        cifar10_workload,
        policy if policy is not None else POPPolicy(),
        generator=generator,
        spec=spec,
        predictor=fast_predictor,
        recorder=recorder,
    )


def _assert_recorder_invisible(cifar10_workload, fast_predictor, policy):
    baseline = _run(
        cifar10_workload, fast_predictor, recorder=None,
        policy=registry.build_policy(policy),
    )
    observed = _run(
        cifar10_workload, fast_predictor, recorder=Recorder(),
        policy=registry.build_policy(policy),
    )
    a = baseline.to_dict()
    b = observed.to_dict()
    assert a.pop("observability") is None
    assert b.pop("observability") is not None
    assert a == b


class TestNoopRecorder:
    def test_result_json_byte_identical_with_and_without_null_recorder(
        self, cifar10_workload, fast_predictor, tmp_path
    ):
        baseline = _run(cifar10_workload, fast_predictor, recorder=None)
        explicit = _run(cifar10_workload, fast_predictor, recorder=NullRecorder())
        path_a = tmp_path / "baseline.json"
        path_b = tmp_path / "explicit.json"
        baseline.save_json(path_a)
        explicit.save_json(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert baseline.observability is None

    def test_live_recorder_changes_only_the_observability_digest(
        self, cifar10_workload, fast_predictor
    ):
        _assert_recorder_invisible(cifar10_workload, fast_predictor, "pop")

    @pytest.mark.parametrize(
        "policy", sorted(set(registry.POLICIES) - {"pop"})
    )
    def test_live_recorder_changes_only_the_digest_of_any_policy(
        self, cifar10_workload, fast_predictor, policy
    ):
        _assert_recorder_invisible(cifar10_workload, fast_predictor, policy)

    def test_null_recorder_is_fully_inert(self):
        NULL_RECORDER.metrics.counter("anything").inc(reason="x")
        NULL_RECORDER.metrics.gauge("g").set(1.0)
        NULL_RECORDER.metrics.histogram("h").observe(2.0)
        with NULL_RECORDER.tracer.span("op") as span:
            span.set(a=1)
        NULL_RECORDER.audit.record("sap_decision", job_id="j", p=0.1)
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.metrics.render_text() == ""
        assert NULL_RECORDER.snapshot() == {}
        assert NULL_RECORDER.audit.records == []
        NULL_RECORDER.close()

    def test_policy_context_defaults_to_null_recorder(self):
        context = PolicyContext.__dataclass_fields__["recorder"]
        assert context.default is NULL_RECORDER
