#!/usr/bin/env python
"""Compare a fresh BENCH_prediction.json against the committed baseline.

Usage:
    python benchmarks/check_prediction_regression.py \
        [--bench BENCH_prediction.json] \
        [--baseline benchmarks/baselines/prediction.json] \
        [--tolerance 0.25]

The comparison is on *speedup ratios* (each mode's throughput divided
by the serial mode's throughput from the same run), which cancels out
absolute machine speed: CI runners of different generations produce
the same ratios to within noise.  The gate fails when any tracked
ratio drops more than ``--tolerance`` (default 25%) below its
committed baseline value, or when the steady-state cache hit rate
falls below the baseline by more than an absolute 0.05.

Exit status: 0 = within tolerance, 1 = regression, 2 = bad inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HIT_RATE_SLACK = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench", default=str(REPO_ROOT / "BENCH_prediction.json"),
        help="fresh benchmark report (written by test_perf_prediction.py)",
    )
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "benchmarks" / "baselines" / "prediction.json"),
        help="committed reference ratios",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional drop in each speedup ratio",
    )
    args = parser.parse_args(argv)

    try:
        bench = json.loads(Path(args.bench).read_text())
        baseline = json.loads(Path(args.baseline).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load inputs: {exc}", file=sys.stderr)
        return 2
    if not 0.0 <= args.tolerance < 1.0:
        print("error: tolerance must be in [0, 1)", file=sys.stderr)
        return 2

    failures = []
    measured_ratios = bench.get("speedups_vs_serial", {})
    for mode, reference in baseline.get("speedups_vs_serial", {}).items():
        measured = measured_ratios.get(mode)
        floor = reference * (1.0 - args.tolerance)
        if measured is None:
            failures.append(f"mode {mode!r} missing from benchmark report")
            continue
        status = "ok" if measured >= floor else "REGRESSION"
        print(
            f"{mode:<8} speedup {measured:6.2f}x  "
            f"(baseline {reference:.2f}x, floor {floor:.2f}x)  {status}"
        )
        if measured < floor:
            failures.append(
                f"{mode} speedup {measured:.2f}x < floor {floor:.2f}x"
            )

    reference_hit_rate = baseline.get("cache_hit_rate")
    if reference_hit_rate is not None:
        measured_hit_rate = (
            bench.get("modes", {}).get("cached", {}).get("cache_hit_rate")
        )
        floor = reference_hit_rate - HIT_RATE_SLACK
        if measured_hit_rate is None:
            failures.append("cached cache_hit_rate missing from report")
        else:
            status = "ok" if measured_hit_rate >= floor else "REGRESSION"
            print(
                f"cached   hit-rate {measured_hit_rate:.3f}   "
                f"(baseline {reference_hit_rate:.3f}, floor {floor:.3f})  "
                f"{status}"
            )
            if measured_hit_rate < floor:
                failures.append(
                    f"cache hit rate {measured_hit_rate:.3f} < {floor:.3f}"
                )

    if failures:
        print(
            "\nperf gate FAILED (commit an updated baseline via the "
            "perf-baseline-update label if this change is intentional):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
