"""A fresh process pays only for what it runs: the product's import graph
holds no scipy, which only the GP generator and the fit oracle call."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.runner import default_predictor
from repro.workloads.cifar10 import Cifar10Workload

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: blake2b-128 of the config keys of 12 GP-EI proposals (cifar10 space,
#: seed 0, warmup 4, each fed back its ``_score``), computed when scipy
#: was still imported at module level.
_GP_EI_DIGEST = "a223e5c00e942715bb465b40d0e78b30"

_CHILD = """
import hashlib, importlib, json, pickle, sys

importlib.import_module(sys.argv[1])
workload, predictor = pickle.loads(sys.stdin.buffer.read())
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))

from repro.generators.bayesian import BayesianGenerator
from repro.workloads.calibration import config_key
from repro.workloads.cifar10 import _score

gen = BayesianGenerator(workload.space, seed=0, warmup=4)
digest = hashlib.blake2b(digest_size=16)
for _ in range(12):
    job_id, config = gen.create_job()
    gen.report_final_performance(job_id, _score(config))
    digest.update(config_key(config).encode())
print(json.dumps({"scipy": loaded, "digest": digest.hexdigest()}))
"""


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.cluster.worker", "repro.service.daemon"]
)
def test_the_product_imports_no_scipy(module):
    """Import an entry point and unpickle what a spawned worker receives,
    in a fresh interpreter: no ``scipy`` module is loaded.  The GP-EI
    proposals, which do load it, are the ones scipy computed at module
    level."""
    payload = pickle.dumps((Cifar10Workload(), default_predictor()))
    pythonpath = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, module],
        input=payload,
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    report = json.loads(out.stdout.decode().strip().splitlines()[-1])
    assert report["scipy"] == []
    assert report["digest"] == _GP_EI_DIGEST
