"""A snapshot that ``restore_state`` rejects leaves the run untouched."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.cifar10 import Cifar10Workload
from repro.workloads.lstm_sparsity import LSTMSparsityWorkload
from repro.workloads.lunarlander import LunarLanderWorkload
from repro.workloads.mlp import MLPWorkload

WORKLOADS = {
    "cifar10": Cifar10Workload,
    "lunarlander": LunarLanderWorkload,
    "lstm": LSTMSparsityWorkload,
    "mlp": MLPWorkload,
}


@pytest.mark.parametrize("bad_epoch", [999, -1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_rejected_snapshot_leaves_the_run_untouched(name, bad_epoch):
    workload = WORKLOADS[name]()
    config = workload.space.sample(np.random.default_rng(11))
    run, twin = (workload.create_run(config, seed=1) for _ in range(2))
    for stepped in (run, twin):
        for _ in range(3):
            stepped.step()
    # Every other field comes from another seed at another epoch, so
    # touching any of them before the range check would show below.
    donor = workload.create_run(config, seed=2)
    donor.step()
    state = dict(donor.snapshot_state(), epoch=bad_epoch)

    with pytest.raises(ValueError, match="out of range"):
        run.restore_state(state)

    assert run.epochs_completed == twin.epochs_completed == 3
    assert not run.finished
    assert [run.step() for _ in range(3)] == [twin.step() for _ in range(3)]
