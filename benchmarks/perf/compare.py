"""Compare two sets of runs of the benchmark.

    python3 benchmarks/perf/compare.py A.jsonl B.jsonl
    python3 benchmarks/perf/compare.py --spreads RUNS.jsonl

``A`` is the base (the parent commit), ``B`` the change.  Each file holds
the records ``run.py --out FILE`` appends: one run per line.  Per workload
and user-facing metric this prints both medians with their quartiles, the
ratio B/A, the bound and a verdict:

* ``ok``          B's median is not worse than A's by more than the bound,
                  or every run of B reads better than every run of A;
* ``regressed``   B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread (IQR / median, the wider side) is
                  wider than the bound, so the runs cannot tell.

The bound is the one ``bounds.json`` holds for that metric on that workload
(``BENCHMARK.json`` has room for one bound per metric only; its bound is
the fallback).  The user-facing metrics that only some workloads have
(``target_hours``, ``done_p50_ms``, ``read_p50_ms``, ``read_p99_ms``) are
printed by the traced run and judged here wherever ``bounds.json`` names
them.  The other per-layer metrics are listed with their ratio and no
verdict.  The exit code is 1 if anything regressed, else 0.

``--spreads`` prints, for one file of runs (grouped by its ``set`` field
when it has one), each judged metric's median and IQR / median per workload
and the bound the rule in ``bounds.json`` gives: it is how that file and the
table in README.md were made.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
MANIFEST = HERE.parent.parent / "BENCHMARK.json"
BOUNDS = HERE / "bounds.json"

Samples = Dict[Tuple[str, str], List[float]]  # (workload, metric) -> values


def load(path: str, only_set=None) -> Tuple[Samples, Dict[str, List[int]]]:
    """``(samples, workload -> [attempted, failed, incorrect runs])`` of one
    JSONL file of runs.  A metric name is in one section of
    ``BENCHMARK.json`` only, so both kinds of run share one table."""
    samples: Samples = defaultdict(list)
    tally: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if only_set is not None and record.get("set") != only_set:
                continue
            result = record["result"]
            for name, metric in result["metrics"].items():
                samples[(record["workload"], name)].append(metric["value"])
            counts = tally[record["workload"]]
            counts[0] += result["attempted"]
            counts[1] += result["failed"]
            counts[2] += 0 if result["correct"] else 1
    return samples, tally


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    lower = better == "lower"
    if (max(b) < min(a)) if lower else (min(b) > max(a)):
        return "ok"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, change = statistics.median(a), statistics.median(b)
    worse_by = (change - base) / base if lower else (base - change) / base
    return "regressed" if worse_by > bound else "ok"


def show(values: List[float]) -> str:
    q1, mid, q3 = quartiles(values)
    return f"{mid:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def judged(manifest, bounds) -> List[Tuple[dict, Dict[str, float]]]:
    """``(metric entry, workload -> bound)`` for every metric that gets a
    verdict: the end-to-end ones on every workload, and the per-layer ones
    ``bounds.json`` names, on the workloads it names."""
    workloads = [w["name"] for w in manifest["workloads"]]
    out = []
    for metric in manifest["end_to_end"]:
        named = bounds.get(metric["name"], {})
        out.append((metric, {w: named.get(w, metric["bound"]) for w in workloads}))
    for metric in manifest["per_layer"]:
        if metric["name"] in bounds:
            out.append((metric, bounds[metric["name"]]))
    return out


def compare(path_a: str, path_b: str) -> int:
    manifest = json.loads(MANIFEST.read_text())
    bounds = json.loads(BOUNDS.read_text())["bounds"]
    a_samples, a_tally = load(path_a)
    b_samples, b_tally = load(path_b)
    verdicts = judged(manifest, bounds)
    with_verdict = {metric["name"] for metric, _ in verdicts}
    regressed = False

    print(f"base A = {path_a}\nchange B = {path_b}\nratios are B/A\n")
    for workload in (w["name"] for w in manifest["workloads"]):
        print(f"== {workload}")
        for side, tally in (("A", a_tally), ("B", b_tally)):
            attempted, failed, incorrect = tally.get(workload, (0, 0, 0))
            print(f"   {side}: {failed} failed of {attempted} attempted, "
                  f"{incorrect} runs with a broken output check")
        for metric, per_workload in verdicts:
            if workload not in per_workload:
                continue
            bound = per_workload[workload]
            key = (workload, metric["name"])
            a, b = a_samples.get(key), b_samples.get(key)
            if not a or not b:
                print(f"   {metric['name']:<14} missing on one side")
                continue
            outcome = verdict(a, b, metric["better"], bound)
            regressed |= outcome == "regressed"
            ratio = statistics.median(b) / statistics.median(a)
            print(
                f"   {metric['name']:<14} {metric['unit']:<6} "
                f"A {show(a):<40} B {show(b):<40} "
                f"B/A {ratio:.3f}  bound {bound:.2f} "
                f"({metric['better']} is better)  {outcome}"
            )
        for metric in manifest["per_layer"]:
            key = (workload, metric["name"])
            a, b = a_samples.get(key), b_samples.get(key)
            if metric["name"] in with_verdict or not a or not b:
                continue
            base, change = statistics.median(a), statistics.median(b)
            if base == 0 and change == 0:
                continue
            ratio = f"{change / base:.3f}" if base else "-"
            print(
                f"   . {metric['name']:<44} {metric['unit']:<6} "
                f"A {base:<12.5g} B {change:<12.5g} B/A {ratio}"
            )
        print()
    return 1 if regressed else 0


def spreads(path: str) -> int:
    """The table the bounds were chosen from, and what the rule gives."""
    manifest = json.loads(MANIFEST.read_text())
    rule = json.loads(BOUNDS.read_text())
    floors, default_floor = rule["floors"], rule["default_floor"]
    end_to_end = {metric["name"] for metric in manifest["end_to_end"]}
    scoped = {name: rule["scoped"][name] for name in rule["scoped"]}
    with open(path, encoding="utf-8") as handle:
        sets = sorted({json.loads(line).get("set") for line in handle if line.strip()},
                      key=str)
    by_set = {name: load(path, only_set=name)[0] for name in sets}
    print("| metric | workload | " + " | ".join(
        f"median {name} | IQR/median {name} | n" for name in sets)
        + " | rule gives | bound |")
    print("|---|---|" + "---|---|---|" * len(sets) + "---|---|")
    given: Dict[str, Dict[str, float]] = defaultdict(dict)
    workloads = [w["name"] for w in manifest["workloads"]]
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        name = metric["name"]
        if name not in end_to_end and name not in scoped:
            continue
        for workload in workloads if name in end_to_end else scoped[name]:
            columns, widest = [], 0.0
            for set_name in sets:
                values = by_set[set_name].get((workload, name))
                if not values:
                    columns.append("- | - | 0")
                    continue
                widest = max(widest, spread(values))
                columns.append(f"{statistics.median(values):.4g} | "
                               f"{100 * spread(values):.1f} % | {len(values)}")
            floor = floors.get(f"{name}@{workload}", floors.get(name, default_floor))
            needs = max(floor, 3 * widest)
            if name in end_to_end:  # cannot be demoted: the contract's cap
                bound = min(needs, rule["contract_cap"])
                kept = f"{bound:.2f}"
            elif needs > rule["demote_above"]:
                bound, kept = None, "none: per-layer only"
            else:
                bound, kept = needs, f"{needs:.2f}"
            if bound is not None:
                given[name][workload] = round(bound, 2)
            print(f"| `{name}` | `{workload}` | " + " | ".join(columns)
                  + f" | {needs:.2f} | {kept} |")
    print("\n\"bounds\": " + json.dumps(given, indent=2))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--spreads":
        return spreads(argv[1])
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main())
