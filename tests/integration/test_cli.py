"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_run_simulated(capsys):
    code = main(
        [
            "run",
            "--workload", "cifar10",
            "--policy", "bandit",
            "--configs", "10",
            "--machines", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "policy          : bandit" in out
    assert "epochs trained" in out


def test_run_no_stop_on_target(capsys):
    code = main(
        [
            "run",
            "--workload", "cifar10",
            "--policy", "default",
            "--configs", "4",
            "--machines", "2",
            "--no-stop-on-target",
            "--tmax-hours", "2",
        ]
    )
    assert code == 0
    assert "reached target  : False" in capsys.readouterr().out


def test_run_grid_generator(capsys):
    code = main(
        [
            "run",
            "--workload", "mlp",
            "--policy", "default",
            "--generator", "grid",
            "--configs", "4",
            "--machines", "2",
            "--no-stop-on-target",
            "--tmax-hours", "1",
        ]
    )
    assert code == 0


def test_record_and_replay_roundtrip(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert (
        main(
            [
                "record-trace",
                "--workload", "cifar10",
                "--configs", "6",
                "--out", str(trace_path),
            ]
        )
        == 0
    )
    assert trace_path.exists()
    assert (
        main(
            [
                "replay",
                "--trace", str(trace_path),
                "--policy", "default",
                "--machines", "2",
                "--orders", "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "order 0" in out and "order 1" in out


def test_unknown_policy_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--policy", "nonsense"])


@pytest.mark.parametrize("verb", ["run", "submit"])
def test_retired_predict_workers_flag_is_an_argparse_error(verb, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([verb, "--predict-workers", "2"])
    assert excinfo.value.code == 2
    assert "--predict-workers" in capsys.readouterr().err


def test_run_json_emits_machine_readable_result(capsys):
    code = main(
        [
            "run",
            "--workload", "cifar10",
            "--policy", "bandit",
            "--configs", "6",
            "--machines", "2",
            "--json",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # stdout is exactly one JSON doc
    assert payload["policy"] == "bandit"
    assert payload["epochs_trained"] > 0
    assert "policy          : bandit" in captured.err  # summary on stderr


def test_save_result_and_report_roundtrip(tmp_path, capsys):
    result_path = tmp_path / "result.json"
    code = main(
        [
            "run",
            "--workload", "cifar10",
            "--policy", "default",
            "--configs", "4",
            "--machines", "2",
            "--no-stop-on-target",
            "--tmax-hours", "2",
            "--save-result", str(result_path),
        ]
    )
    assert code == 0
    assert result_path.exists()
    capsys.readouterr()
    assert main(["report", "--result", str(result_path)]) == 0
    assert capsys.readouterr().out.strip()


def test_missing_report_file_exits_3(capsys):
    assert main(["report", "--result", "/nonexistent/result.json"]) == 3
    assert "error:" in capsys.readouterr().err


def test_service_verbs_roundtrip(tmp_path, capsys):
    """submit -> watch -> status through main(argv) against a live
    in-process daemon, then status --root against the store offline."""
    from repro.service.daemon import ExperimentService

    root = tmp_path / "runs"
    service = ExperimentService(root, port=0, workers=1)
    service.start()
    try:
        code = main(
            [
                "submit",
                "--url", service.url,
                "--workload", "cifar10",
                "--policy", "bandit",
                "--configs", "4",
                "--machines", "2",
                "--checkpoint-every", "5",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        exp_id = captured.out.strip()  # bare id on stdout for scripts
        assert exp_id.startswith("exp-")
        assert "submitted" in captured.err

        code = main(
            ["watch", exp_id, "--url", service.url,
             "--poll", "0.1", "--timeout", "300"]
        )
        assert code == 0
        assert "completed" in capsys.readouterr().out

        assert main(["status", "--url", service.url]) == 0
        assert exp_id in capsys.readouterr().out

        assert main(["status", exp_id, "--url", service.url]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "completed"
    finally:
        service.stop()

    # the store outlives the daemon
    assert main(["status", "--root", str(root)]) == 0
    offline = capsys.readouterr().out
    assert exp_id in offline and "completed" in offline


def test_status_requires_exactly_one_source(capsys):
    assert main(["status"]) == 2
    assert main(["status", "--url", "http://x", "--root", "y"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_submit_unreachable_daemon_exits_3(capsys):
    code = main(
        ["submit", "--url", "http://127.0.0.1:1", "--configs", "2"]
    )
    assert code == 3
    assert "cannot reach" in capsys.readouterr().err


def test_cli_resume_completes_interrupted_experiment(tmp_path, capsys):
    from repro.service.store import RunStore
    from repro.service.submission import Submission

    root = tmp_path / "runs"
    store = RunStore(root)
    record = store.submit(
        Submission(
            workload="cifar10", policy="bandit", configs=4,
            machines=2, checkpoint_every=5,
        )
    )
    store.claim_specific(record.id)  # claimed, then the "daemon dies"
    store.close()

    assert main(["resume", record.id, "--root", str(root)]) == 0
    captured = capsys.readouterr()
    assert "completed" in captured.out
    assert record.id in captured.err  # recovery context goes to stderr


def test_cli_resume_unknown_id_exits_3(tmp_path, capsys):
    assert main(["resume", "exp-missing", "--root", str(tmp_path)]) == 3
    assert "unknown experiment" in capsys.readouterr().err


def test_cluster_demo_runs_on_worker_processes(capsys):
    code = main(
        [
            "cluster-demo",
            "--workers", "2",
            "--configs", "2",
            "--time-scale", "2e-5",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["machine_failures"] == 0
    assert payload["epochs_trained"] > 0


@pytest.fixture()
def no_spawn(monkeypatch):
    """Fail the test if anything starts a child process."""
    import multiprocessing.process

    spawned = []
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start",
        lambda self: spawned.append(self.name),
    )
    yield spawned
    assert spawned == []


@pytest.mark.parametrize(
    "extra", [["--workers", "0"], ["--workers", "2", "--autoscale", "1:3"]]
)
def test_cluster_demo_rejects_bad_fleet_before_spawning(extra, no_spawn, capsys):
    assert main(["cluster-demo", "--configs", "2", *extra]) == 2
    assert "error:" in capsys.readouterr().err


#: Each local verb with its smallest valid arguments (output paths added
#: per case).
LOCAL_VERBS = {
    "run": ["run", "--configs", "2", "--machines", "2"],
    "cluster-demo": ["cluster-demo", "--workers", "2", "--configs", "2"],
    "sweep run": ["sweep", "run", "--study", "sweep-smoke", "--out", "{tmp}/study"],
    "train-policy": ["train-policy", "--episodes", "1", "--out", "{tmp}/a.json"],
}


@pytest.mark.parametrize("flag", ["--emit-events", "--metrics-out"])
@pytest.mark.parametrize("verb", sorted(LOCAL_VERBS))
def test_missing_output_directory_exits_2(verb, flag, tmp_path, no_spawn, capsys):
    missing = tmp_path / "missing"
    argv = [arg.format(tmp=tmp_path) for arg in LOCAL_VERBS[verb]]
    assert main([*argv, flag, str(missing / "out.txt")]) == 2
    assert "output directory does not exist" in capsys.readouterr().err
    # Nothing was created: no missing directory, study or artifact.
    assert list(tmp_path.iterdir()) == []


def test_serve_rejects_bad_arguments_before_creating_its_root(tmp_path, capsys):
    root = tmp_path / "runs"
    assert main(["serve", "--root", str(root), "--workers", "0"]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not root.exists()
