"""Start ``repro serve`` with the traced pass's wrappers installed.

    python3 daemon_launcher.py <trace-out.json> <spans-out.jsonl> serve --root ...

The daemon itself is unchanged: this process rebinds the same public entry
points the in-process workloads rebind (plus the HTTP handler, the executor
and the run store), calls ``repro.cli.main`` with the remaining arguments,
and when the daemon has shut down (SIGTERM) writes what it saw: per span
name the call count, busy and self seconds and the median duration.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main() -> int:
    summary_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    harness.use_source_tree()
    from repro.cli import main as repro_main
    from tracing import Tracer, install_experiment_layers, install_service_layers

    tracer = Tracer()
    tracer.cell = "daemon"
    install_experiment_layers(tracer)
    install_service_layers(tracer)
    try:
        code = repro_main(argv)
    finally:
        tracer.restore()
        summary = {name: vars(entry) for name, entry in tracer.summary().items()}
        Path(summary_path).write_text(
            json.dumps({"spans": summary, "counts": tracer.counts})
        )
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
