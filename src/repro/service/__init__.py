"""The experiment service: durable runs, a daemon, and resumable state.

HyperDrive is *middleware* (§4–§5): a long-lived system that accepts
experiments, manages jobs across machines, and survives interruption.
This package is that deployment shape for the reproduction:

* :mod:`~repro.service.store` — a durable run store: experiment specs,
  status transitions, checkpoints, and results in SQLite, paired with
  a per-experiment JSONL write-ahead event journal.
* :mod:`~repro.service.submission` — the validated submission record a
  client hands the service (workload/policy/generator names plus
  experiment parameters).
* :mod:`~repro.service.executor` — runs one stored experiment against
  either runtime, wiring cancellation polls, periodic checkpoints, and
  the audit trail into the journal; ``resume`` reconstructs an
  interrupted experiment from the journal and continues it.
* :mod:`~repro.service.daemon` — ``repro serve``: a concurrent worker
  pool draining the queue plus a JSON HTTP API on stdlib
  ``http.server`` (submit / status / events / metrics / cancel).
* :mod:`~repro.service.client` — a stdlib-``urllib`` client for the
  HTTP API, used by ``repro submit`` / ``status`` / ``watch``.

See ``docs/service.md`` for the API reference, store schema, resume
semantics, and failure modes.
"""

import importlib

#: Public name -> submodule.  Loaded on first access, so importing
#: ``repro.service.submission`` (the lab does) does not pull in the
#: daemon, ``sqlite3`` or ``http.server``.
_EXPORTS = {
    "ServiceClient": "client",
    "ServiceError": "client",
    "ExperimentService": "daemon",
    "execute": "executor",
    "resume": "executor",
    **dict.fromkeys(
        (
            "CANCELLED", "COMPLETED", "FAILED", "INTERRUPTED", "QUEUED",
            "RUNNING", "TERMINAL_STATUSES", "RunRecord", "RunStore",
        ),
        "store",
    ),
    "Submission": "submission",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    return getattr(module, name)
