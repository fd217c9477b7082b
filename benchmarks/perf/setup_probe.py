"""One fresh set-up, for ``setup_s``: started by ``harness.time_fresh_setups``
in a new interpreter, prints ``READY`` the moment the workload's ``setup()``
has returned (imports, workload construction, configuration minting, daemon
boot), then tears down.  The parent times interpreter start to ``READY``."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main() -> int:
    workload, scale = sys.argv[1], sys.argv[2]
    harness.use_source_tree()
    harness.exit_on_sigterm()
    module = importlib.import_module(workload)
    state = module.setup(0, scale)
    try:
        print("READY", flush=True)
    finally:
        module.teardown(state, graceful=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
