"""Learned SAP serving: artifact resolution and end-to-end scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import standard_configs
from repro.framework.experiment import ExperimentSpec
from repro.learn.agent import PolicyNetwork
from repro.learn.artifact import (
    ARTIFACT_ENV_VAR,
    PRETRAINED_PATH,
    make_artifact,
    write_artifact,
)
from repro.learn.features import FEATURE_NAMES
from repro.observability.recorder import Recorder
from repro.policies.learned import LearnedPolicy, RandomInitLearnedPolicy
from repro.registry import build_policy
from repro.sim.runner import run_simulation


def _write_tiny_artifact(path, seed=9):
    net = PolicyNetwork(len(FEATURE_NAMES), hidden=4, seed=seed)
    write_artifact(
        str(path),
        make_artifact(
            weights=net.weights_dict(),
            hidden=4,
            provenance={"trainer": {"seed": seed}},
        ),
    )
    return str(path)


class TestArtifactResolution:
    def test_default_is_committed_pretrained(self, monkeypatch):
        monkeypatch.delenv(ARTIFACT_ENV_VAR, raising=False)
        policy = LearnedPolicy()
        assert policy.artifact_path == PRETRAINED_PATH

    def test_env_var_overrides_pretrained(self, monkeypatch, tmp_path):
        path = _write_tiny_artifact(tmp_path / "env.json")
        monkeypatch.setenv(ARTIFACT_ENV_VAR, path)
        policy = LearnedPolicy()
        assert policy.artifact_path == path
        assert policy.net.hidden == 4

    def test_constructor_path_wins(self, monkeypatch, tmp_path):
        env_path = _write_tiny_artifact(tmp_path / "env.json", seed=9)
        ctor_path = _write_tiny_artifact(tmp_path / "ctor.json", seed=10)
        monkeypatch.setenv(ARTIFACT_ENV_VAR, env_path)
        policy = LearnedPolicy(artifact_path=ctor_path)
        assert policy.artifact_path == ctor_path

    def test_bad_env_artifact_raises(self, monkeypatch, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"format\": \"nope\"}")
        monkeypatch.setenv(ARTIFACT_ENV_VAR, str(bad))
        with pytest.raises(ValueError, match="repro-learned-policy"):
            LearnedPolicy()

    def test_random_control_ignores_artifacts(self, monkeypatch, tmp_path):
        path = _write_tiny_artifact(tmp_path / "env.json")
        monkeypatch.setenv(ARTIFACT_ENV_VAR, path)
        policy = RandomInitLearnedPolicy()
        assert policy.artifact_path is None
        reference = PolicyNetwork(len(FEATURE_NAMES), hidden=16, seed=0)
        np.testing.assert_array_equal(
            policy.net.params["W1"], reference.params["W1"]
        )

    def test_registry_builds_both(self, monkeypatch):
        monkeypatch.delenv(ARTIFACT_ENV_VAR, raising=False)
        assert build_policy("learned").name == "learned"
        assert build_policy("learned-random").name == "learned-random"


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def result(self, cifar10_workload):
        recorder = Recorder()
        outcome = run_simulation(
            cifar10_workload,
            LearnedPolicy(),
            configs=standard_configs(cifar10_workload, 8),
            spec=ExperimentSpec(num_machines=3, num_configs=8, seed=0),
            recorder=recorder,
        )
        return outcome, recorder

    def test_simulation_completes(self, result, cifar10_workload):
        outcome, _ = result
        assert outcome.epochs_trained > 0
        if outcome.reached_target:
            assert (
                outcome.best_metric >= cifar10_workload.domain.target
            )

    def test_decisions_audited_with_rationale(self, result, cifar10_workload):
        _, recorder = result
        decisions = [
            record for record in recorder.audit.records
            if record.kind == "sap_decision"
        ]
        assert decisions
        # Only eval-window decisions are audited, each with the
        # policy's rationale; non-boundary CONTINUEs write nothing.
        window = cifar10_workload.domain.eval_boundary
        assert all(record.data["epoch"] % window == 0 for record in decisions)
        noted = [
            record for record in decisions if "action" in record.data
        ]
        assert noted == decisions
        for record in noted:
            assert record.data["action"] in (
                "kill", "suspend", "continue"
            )
            assert record.data["artifact"] == PRETRAINED_PATH
            assert isinstance(record.data["score"], float)

    def test_deterministic_replay(self, cifar10_workload):
        outcomes = [
            run_simulation(
                cifar10_workload,
                LearnedPolicy(),
                configs=standard_configs(cifar10_workload, 6),
                spec=ExperimentSpec(num_machines=2, num_configs=6, seed=1),
            )
            for _ in range(2)
        ]
        assert outcomes[0].time_to_target == outcomes[1].time_to_target
        assert outcomes[0].epochs_trained == outcomes[1].epochs_trained
        assert outcomes[0].best_metric == outcomes[1].best_metric
