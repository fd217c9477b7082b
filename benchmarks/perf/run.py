"""The one command that prints the metrics.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric, as the last line of standard output:
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Progress and check failures go to standard error.  ``src/`` is put on
``sys.path`` here; nothing needs installing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("pop_sim", "sched_sim", "service_load", "cluster_run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: the scaled-down cells the harness's own test runs",
    )
    parser.add_argument(
        "--out", help="also append this run, as one JSON line, to this file"
    )
    args = parser.parse_args(argv)

    harness.use_source_tree()
    harness.exit_on_sigterm()
    workload = importlib.import_module(args.workload)
    outcome = harness.Outcome()

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        workload.install(tracer)
        tracer.cell = "setup"
        try:
            state = workload.setup(args.seed, args.scale)
        finally:
            tracer.restore()
        try:
            values = workload.trace(state, tracer, outcome)
        finally:
            workload.teardown(state)
        tracer.dump(
            harness.out_dir() / f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        section = "per_layer"
    else:
        state = workload.setup(args.seed, args.scale)
        try:
            values = workload.measure(state, args.seconds, outcome)
        finally:
            workload.teardown(state)
        # Before the probes: they are reaped children too.
        values["peak_rss_mb"] = harness.peak_rss_mb(workload.PROGRAM_IN_CHILDREN)
        harness.progress("measured; timing fresh set-ups")
        probes = harness.time_fresh_setups(args.workload, args.scale)
        harness.progress(f"set-ups: {[round(p, 2) for p in probes]}")
        values["setup_s"] = harness.median(probes)
        section = "end_to_end"

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = harness.result_record(outcome, values, section)
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
            "result": result,
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
