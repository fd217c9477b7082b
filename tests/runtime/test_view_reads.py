"""A registry read on another thread, under the scheduler lock, sees the
view-backed instruments of a threaded run in a consistent state.

The scheduler's epoch count and its duration bucket both change inside
``process_epoch``, which driver threads call under the lock; a reader
holding the same lock (as the cluster head's telemetry ingest does) must
never see one without the other, however often the threads switch.
"""

from __future__ import annotations

import sys
import threading

from repro.analysis.experiments import standard_configs
from repro.framework.experiment import ExperimentSpec
from repro.observability import Recorder
from repro.policies import BanditPolicy
from repro.runtime.local import ThreadedExperiment
from repro.sim.runner import initial_jobs


def test_reads_under_the_lock_see_epochs_and_durations_together(
    cifar10_workload,
):
    recorder = Recorder()
    configs = standard_configs(cifar10_workload, 16)
    experiment = ThreadedExperiment(
        workload=cifar10_workload,
        policy=BanditPolicy(),
        spec=ExperimentSpec(num_machines=8, num_configs=16, seed=0),
        time_scale=1e-7,
        recorder=recorder,
    )
    done = threading.Event()
    reads, errors = [], []

    def reader() -> None:
        try:
            while not done.is_set():
                with experiment.lock:
                    families = recorder.metrics.to_dict()
                epochs = families["scheduler_epochs_total"]["samples"]
                durations = families["epoch_duration_seconds"]["samples"]
                counted = epochs[0]["value"] if epochs else 0.0
                observed = durations[0]["count"] if durations else 0
                if counted != observed:
                    errors.append((counted, observed))
                reads.append(counted)
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=reader, name="registry-reader")
    try:
        thread.start()
        result = experiment.run(initial_jobs(None, configs, len(configs)))
    finally:
        done.set()
        thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert errors == []
    assert reads == sorted(reads) and len(reads) > 10
    final = recorder.metrics.get("scheduler_epochs_total").value()
    assert final == result.epochs_trained > 0
