"""Command-line interface for running HyperDrive experiments.

Examples::

    python -m repro run --workload cifar10 --policy pop
    python -m repro run --workload lunarlander --policy bandit --machines 15
    python -m repro run --workload mlp --policy pop --live
    python -m repro record-trace --workload cifar10 --configs 40 --out t.json
    python -m repro replay --trace t.json --policy pop --orders 5

Service (see ``docs/service.md``)::

    python -m repro serve --root runs/ --port 8765
    python -m repro submit --url http://127.0.0.1:8765 --workload cifar10
    python -m repro status --url http://127.0.0.1:8765
    python -m repro watch exp-0123abcd --url http://127.0.0.1:8765
    python -m repro resume exp-0123abcd --root runs/

Exit codes:

* ``0`` — success.
* ``2`` — usage error: bad flags (argparse), a value rejected before
  any work starts, or an output path whose directory does not exist.
* ``3`` — runtime failure (the command raised: missing input file,
  unreachable daemon, experiment execution error, ...).
* ``4`` — the awaited experiment ended in a non-completed status
  (``submit --wait``, ``watch``, ``resume``).
* ``130`` — interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import registry
from .framework.experiment import ExperimentSpec
from .generators.random_gen import RandomGenerator
from .sim.runner import run_simulation
from .sim.trace import Trace, TraceWorkload, record_trace

# Backwards-compatible aliases: these registries used to live here.
WORKLOADS = registry.WORKLOADS
POLICIES = registry.POLICIES
GENERATORS = registry.GENERATORS

#: Exit code for an awaited experiment that did not complete.
EXIT_EXPERIMENT_NOT_COMPLETED = 4
#: Exit code for any command that raised a runtime error.
EXIT_RUNTIME_ERROR = 3

DEFAULT_SERVICE_URL = "http://127.0.0.1:8765"


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    """The :class:`~repro.service.submission.Submission` flags shared by
    ``run``, ``cluster-demo`` (local) and ``submit`` (service)."""
    parser.add_argument("--workload", choices=WORKLOADS, default="cifar10")
    parser.add_argument("--policy", choices=POLICIES, default="pop")
    parser.add_argument("--generator", choices=GENERATORS, default="random")
    parser.add_argument("--configs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--gen-seed", type=int, default=None)
    parser.add_argument("--target", type=float, default=None)
    parser.add_argument("--tmax-hours", type=float, default=48.0)
    parser.add_argument(
        "--no-stop-on-target", action="store_true",
        help="run every configuration to completion",
    )
    parser.add_argument("--time-scale", type=float, default=1e-3)


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """``run`` and ``submit`` choose the runtime and its machine count
    (``cluster-demo`` sizes its fleet with ``--workers``)."""
    parser.add_argument("--machines", type=int, default=None)
    parser.add_argument(
        "--live", action="store_true",
        help="use the live threaded runtime instead of simulation",
    )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    """Output flags of the local experiment verbs (``run``,
    ``cluster-demo``)."""
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable result dict as JSON on stdout "
             "(the human summary moves to stderr)",
    )
    parser.add_argument(
        "--save-result", metavar="PATH", default=None,
        help="archive the full result as JSON",
    )
    parser.add_argument(
        "--emit-events", metavar="PATH", default=None,
        help="stream the decision audit trail (SAP decisions with the "
             "confidence/ERT/threshold inputs behind them, POP "
             "classifications, lifecycle; on the cluster also membership "
             "transitions and migrations) as JSONL",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics registry as Prometheus-style text",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="keep spans (curve fits, process_epoch, snapshots) and "
             "print a per-operation timing summary; on the cluster, "
             "trace ids propagate head->worker->head and --emit-events "
             "journals every span for repro diagnose",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HyperDrive / POP reproduction CLI"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="log job lifecycle events (start/suspend/terminate/...)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one exploration experiment")
    _add_experiment_arguments(run_parser)
    _add_runtime_arguments(run_parser)
    _add_output_arguments(run_parser)

    trace_parser = sub.add_parser("record-trace", help="record a replayable trace")
    trace_parser.add_argument("--workload", choices=WORKLOADS, default="cifar10")
    trace_parser.add_argument("--configs", type=int, default=100)
    trace_parser.add_argument("--gen-seed", type=int, default=None)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument("--out", required=True)

    replay_parser = sub.add_parser("replay", help="replay a trace under orders")
    replay_parser.add_argument("--trace", required=True)
    replay_parser.add_argument("--policy", choices=POLICIES, default="pop")
    replay_parser.add_argument("--machines", type=int, default=5)
    replay_parser.add_argument("--orders", type=int, default=1)

    report_parser = sub.add_parser(
        "report", help="render an archived result JSON as markdown"
    )
    report_parser.add_argument("--result", required=True)

    serve_parser = sub.add_parser(
        "serve", help="run the experiment service daemon"
    )
    serve_parser.add_argument(
        "--root", required=True,
        help="run-store directory (SQLite index + event journals)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8765)
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent experiment workers",
    )
    serve_parser.add_argument(
        "--resume-interrupted", action="store_true",
        help="replay experiments a previous daemon left running",
    )
    serve_parser.add_argument(
        "--cluster-workers", type=int, default=None,
        help="execute live submissions on the multi-process cluster "
             "runtime with this many local worker processes per run "
             "(see docs/cluster.md); simulator submissions always run "
             "in-process on the daemon's worker pool",
    )
    serve_parser.add_argument(
        "--slots", type=int, default=None,
        help="bound the broker's shared slot pool: concurrent "
             "experiments lease machines from these N slots and may be "
             "shrunk/preempted as others arrive (default: unlimited)",
    )
    serve_parser.add_argument(
        "--autoscale", default=None, metavar="MIN:MAX",
        help="elastic cluster fleets: each live run starts MIN worker "
             "processes and grows/shrinks between MIN and MAX from "
             "queue pressure and marginal value (requires "
             "--cluster-workers == MAX, which is the default); also "
             "autosizes the broker slot pool from admission-queue depth",
    )
    serve_parser.add_argument(
        "--spot-fraction", type=float, default=0.0, metavar="F",
        help="fraction of each fleet provisioned as revocable spot "
             "machines, metered at the spot rate (default 0)",
    )
    serve_parser.add_argument(
        "--spot-rate", type=float, default=0.3, metavar="DOLLARS",
        help="spot $/machine-hour (on-demand is 1.0, so "
             "budget_slot_hours and dollars share a unit)",
    )
    serve_parser.add_argument(
        "--tenant-quotas", default=None, metavar="SPEC",
        help="per-tenant admission quotas, e.g. 'alice=2,bob=1:4' "
             "(tenant=max_running[:max_queued]; '*' sets the default)",
    )
    serve_parser.add_argument(
        "--max-queue-depth", type=int, default=None,
        help="global queued-experiment bound; a full queue answers "
             "503 + Retry-After",
    )
    serve_parser.add_argument(
        "--rate-limit", type=float, default=None, metavar="PER_MINUTE",
        help="per-tenant submission rate limit (token bucket); a dry "
             "bucket answers 429 + Retry-After",
    )
    serve_parser.add_argument(
        "--rate-burst", type=int, default=None,
        help="token-bucket burst size (default: one minute's rate)",
    )

    cluster_parser = sub.add_parser(
        "cluster-demo",
        help="run one experiment on the multi-process cluster runtime, "
             "optionally injecting deterministic faults",
    )
    _add_experiment_arguments(cluster_parser)
    _add_output_arguments(cluster_parser)
    cluster_parser.set_defaults(configs=12, time_scale=1e-4)
    cluster_parser.add_argument(
        "--workers", type=int, default=3,
        help="worker processes (= cluster machines)",
    )
    cluster_parser.add_argument(
        "--checkpoint-every", type=int, default=3,
        help="epochs between periodic snapshots (bounds work a failure "
             "can destroy)",
    )
    cluster_parser.add_argument(
        "--heartbeat-interval", type=float, default=0.1,
        help="seconds between heartbeat pings",
    )
    cluster_parser.add_argument(
        "--miss-threshold", type=int, default=3,
        help="consecutive missed pings before a silent node is dead",
    )
    cluster_parser.add_argument(
        "--retry-budget", type=int, default=3,
        help="migrations allowed per job before it is terminated",
    )
    cluster_parser.add_argument(
        "--kill", action="append", default=[], metavar="MACHINE@epoch:N",
        help="SIGKILL a worker after it trains its N-th epoch "
             "(e.g. machine-01@epoch:3); repeatable",
    )
    cluster_parser.add_argument(
        "--revoke", action="append", default=[],
        metavar="MACHINE@epoch:N[,grace:S]",
        help="spot-revoke a worker after its N-th epoch: it announces "
             "the revocation, the head drains its job off within the "
             "grace window, then the process dies; repeatable",
    )
    cluster_parser.add_argument(
        "--grace", type=float, default=30.0,
        help="default revocation grace window in experiment seconds",
    )
    cluster_parser.add_argument(
        "--spot-fraction", type=float, default=0.0, metavar="F",
        help="fraction of the fleet provisioned (and metered) as spot "
             "machines, newest first",
    )
    cluster_parser.add_argument(
        "--autoscale", default=None, metavar="MIN:MAX",
        help="elastic fleet: boot MIN worker processes and let the "
             "autoscaler grow/shrink between MIN and MAX "
             "(MAX must equal --workers)",
    )
    cluster_parser.add_argument(
        "--budget-slot-hours", type=float, default=None,
        help="machine-hour budget the cost meter charges against "
             "(and pop-budget optimises for)",
    )
    cluster_parser.add_argument(
        "--cost-out", metavar="PATH", default=None,
        help="write the per-experiment cost audit trail (cost.jsonl)",
    )
    cluster_parser.add_argument(
        "--drop-heartbeats", action="append", default=[],
        metavar="MACHINE@after:N,count:M",
        help="suppress M pongs after N answered pings; repeatable",
    )
    cluster_parser.add_argument(
        "--delay-send", action="append", default=[],
        metavar="MACHINE@seconds:S[,after:N]",
        help="delay every worker->head frame by S seconds; repeatable",
    )
    cluster_parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="write the merged node-labelled telemetry export "
             "(head + every worker registry) as Prometheus-style text",
    )

    sweep_parser = sub.add_parser(
        "sweep",
        help="declarative study orchestration: grids of experiments with "
             "parallel fan-out, resumable artifacts, and paired "
             "statistical reports (see docs/lab.md)",
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)

    def _add_sweep_source_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--study", default=None,
            help="built-in study name (policy-tournament, "
                 "capacity-sensitivity, config-order, generator-shootout, "
                 "sweep-smoke)",
        )
        parser.add_argument(
            "--spec", default=None, metavar="FILE",
            help="JSON StudySpec file (mutually exclusive with --study)",
        )
        parser.add_argument(
            "--seeds", default=None,
            help="comma-separated experiment-seed override, e.g. 0,1,2,3",
        )
        parser.add_argument(
            "--policies", default=None,
            help="comma-separated policy-axis override, e.g. "
                 "learned,learned-random (baseline must stay in the list)",
        )
        parser.add_argument(
            "--max-workers", type=int, default=None,
            help="cell fan-out processes (default: auto; 1 = inline)",
        )

    def _add_sweep_observability_arguments(
        parser: argparse.ArgumentParser,
    ) -> None:
        parser.add_argument(
            "--emit-events", metavar="PATH", default=None,
            help="stream the study audit trail (cells started/completed/"
                 "skipped) as JSONL",
        )
        parser.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write the study metrics registry as Prometheus-style text",
        )

    sweep_run = sweep_sub.add_parser(
        "run", help="run a study (an existing --out directory resumes it)"
    )
    _add_sweep_source_arguments(sweep_run)
    sweep_run.add_argument("--out", required=True, help="study directory")
    _add_sweep_observability_arguments(sweep_run)

    sweep_resume = sweep_sub.add_parser(
        "resume",
        help="finish an interrupted study from its directory's cell store",
    )
    sweep_resume.add_argument("--out", required=True, help="study directory")
    sweep_resume.add_argument("--max-workers", type=int, default=None)
    _add_sweep_observability_arguments(sweep_resume)

    sweep_report = sweep_sub.add_parser(
        "report",
        help="re-render report.md/report.json from a completed study "
             "directory and print the markdown",
    )
    sweep_report.add_argument("--out", required=True, help="study directory")

    sweep_submit = sweep_sub.add_parser(
        "submit", help="submit a study to a running daemon (POST /studies)"
    )
    _add_sweep_source_arguments(sweep_submit)
    sweep_submit.add_argument("--url", default=DEFAULT_SERVICE_URL)
    sweep_submit.add_argument(
        "--wait", action="store_true",
        help="block until the study finishes and print its report",
    )
    sweep_submit.add_argument("--poll", type=float, default=0.5)

    sweep_status = sweep_sub.add_parser(
        "status", help="show studies hosted by a daemon"
    )
    sweep_status.add_argument("id", nargs="?", default=None)
    sweep_status.add_argument("--url", default=DEFAULT_SERVICE_URL)

    train_parser = sub.add_parser(
        "train-policy",
        help="train the learned scheduling policy against the simulator "
             "and freeze it as a deterministic artifact (docs/learned.md)",
    )
    train_parser.add_argument(
        "--out", required=True, metavar="PATH",
        help="frozen-artifact JSON path (written atomically; "
             "byte-identical for identical settings)",
    )
    train_parser.add_argument(
        "--episodes", type=int, default=6400,
        help="training episodes (the default recipe reproduces the "
             "committed pretrained artifact byte for byte)",
    )
    train_parser.add_argument("--seed", type=int, default=0)
    train_parser.add_argument("--workload", choices=WORKLOADS, default="cifar10")
    train_parser.add_argument("--generator", choices=GENERATORS, default="random")
    train_parser.add_argument("--num-configs", type=int, default=12)
    train_parser.add_argument("--slots", type=int, default=4)
    train_parser.add_argument("--tmax-hours", type=float, default=6.0)
    train_parser.add_argument("--hidden", type=int, default=16)
    train_parser.add_argument("--lr", type=float, default=0.1)
    train_parser.add_argument("--entropy-coef", type=float, default=0.01)
    train_parser.add_argument("--group-size", type=int, default=8)
    train_parser.add_argument("--seed-pool", type=int, default=16)
    train_parser.add_argument(
        "--gen-seed-base", type=int, default=10_000,
        help="first training generator seed (keep disjoint from "
             "evaluation seeds; learned-vs-pop holds out 200+)",
    )
    train_parser.add_argument(
        "--emit-events", metavar="PATH", default=None,
        help="stream training checkpoints (audit trail) as JSONL",
    )
    train_parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write learn_* instruments as Prometheus-style text",
    )
    train_parser.add_argument(
        "--json", action="store_true",
        help="print the training summary as JSON on stdout",
    )

    submit_parser = sub.add_parser(
        "submit", help="submit an experiment to a running daemon"
    )
    _add_experiment_arguments(submit_parser)
    _add_runtime_arguments(submit_parser)
    submit_parser.add_argument("--url", default=DEFAULT_SERVICE_URL)
    submit_parser.add_argument(
        "--checkpoint-every", type=int, default=25,
        help="epochs between durable service checkpoints",
    )
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="block until the experiment finishes and print its summary",
    )
    submit_parser.add_argument("--poll", type=float, default=0.5)
    submit_parser.add_argument(
        "--tenant", default="default",
        help="broker tenant this submission bills to (quotas, rate "
             "limits, budget accounting)",
    )
    submit_parser.add_argument(
        "--priority", type=int, default=0,
        help="admission priority: higher claims first and may preempt "
             "running lower-priority work on a bounded pool",
    )
    submit_parser.add_argument(
        "--deadline-hours", type=float, default=None,
        help="soft deadline; approaching it raises the experiment's "
             "claim on shared slots (deadline pressure)",
    )
    submit_parser.add_argument(
        "--budget-slot-hours", type=float, default=None,
        help="slot-hour budget; once spent the broker shrinks the "
             "experiment to its one-slot guarantee",
    )

    status_parser = sub.add_parser(
        "status", help="show experiments known to a daemon or a store"
    )
    status_parser.add_argument("id", nargs="?", default=None)
    status_parser.add_argument("--url", default=None)
    status_parser.add_argument(
        "--root", default=None,
        help="read the run store directly (no daemon required)",
    )

    watch_parser = sub.add_parser(
        "watch", help="follow one experiment until it finishes"
    )
    watch_parser.add_argument("id")
    watch_parser.add_argument("--url", default=DEFAULT_SERVICE_URL)
    watch_parser.add_argument("--poll", type=float, default=0.5)
    watch_parser.add_argument(
        "--timeout", type=float, default=None,
        help="give up after this many seconds (exit 3)",
    )

    resume_parser = sub.add_parser(
        "resume", help="resume an interrupted experiment from its store"
    )
    resume_parser.add_argument("id")
    resume_parser.add_argument("--root", required=True)

    broker_parser = sub.add_parser(
        "broker-status",
        help="show a daemon's resource broker: slot pool, per-"
             "experiment leases/targets, tenants, admission config",
    )
    broker_parser.add_argument("--url", default=DEFAULT_SERVICE_URL)
    broker_parser.add_argument(
        "--json", action="store_true",
        help="print the raw GET /broker document",
    )

    top_parser = sub.add_parser(
        "top",
        help="live terminal dashboard over a daemon's GET /telemetry "
             "(nodes, heartbeat health, per-experiment progress)",
    )
    top_parser.add_argument("--url", default=DEFAULT_SERVICE_URL)
    top_parser.add_argument(
        "--poll", type=float, default=1.0,
        help="seconds between refreshes",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (scripting/tests)",
    )

    diagnose_parser = sub.add_parser(
        "diagnose",
        help="merge observability journals (JSONL) into per-experiment "
             "timelines with a predict/train/migrate/idle phase "
             "breakdown and a critical-path summary",
    )
    diagnose_parser.add_argument(
        "journals", nargs="+", metavar="JOURNAL.jsonl",
        help="journal files (--emit-events output or store journals); "
             "each file is reported as one experiment",
    )
    diagnose_parser.add_argument(
        "--json", action="store_true",
        help="print the report dict as JSON instead of markdown",
    )
    return parser


def _print_result(result, file=None) -> None:
    out = sys.stdout if file is None else file
    summary = result.summary()
    time_to_target = summary["time_to_target_min"]
    best_metric = summary["best_metric"]
    print(f"policy          : {summary['policy']}", file=out)
    print(f"reached target  : {summary['reached_target']}", file=out)
    print(
        "time to target  : "
        + ("n/a" if time_to_target is None else f"{time_to_target:.1f} min"),
        file=out,
    )
    # best_metric is None when no epoch completed (e.g. a tiny --tmax-hours).
    print(
        "best metric     : "
        + ("n/a" if best_metric is None else f"{best_metric:.4f}"),
        file=out,
    )
    print(f"epochs trained  : {summary['epochs_trained']}", file=out)
    print(f"jobs terminated : {summary['terminated']}", file=out)
    print(f"predictions     : {summary['predictions']}", file=out)
    print(f"suspends        : {len(result.snapshots)}", file=out)
    if "kills_by_reason" in summary and summary["kills_by_reason"]:
        breakdown = ", ".join(
            f"{reason}={int(count)}"
            for reason, count in sorted(summary["kills_by_reason"].items())
        )
        print(f"kills by reason : {breakdown}", file=out)


def _print_span_summary(recorder, file=None) -> None:
    out = sys.stdout if file is None else file
    spans = recorder.tracer.summary()
    if not spans:
        return
    print("spans           :", file=out)
    width = max(len(name) for name in spans)
    for name, stats in spans.items():
        print(
            f"  {name:<{width}}  x{int(stats['count']):<6} "
            f"wall {stats['wall_seconds']:.3f}s  "
            f"sim {stats['experiment_seconds']:.1f}s",
            file=out,
        )


class _UsageError(Exception):
    """Bad arguments caught after parsing; ``main`` exits 2 on it."""


#: Every output-file flag of the local verbs.
_OUTPUT_FLAGS = (
    "emit_events", "metrics_out", "telemetry_out", "cost_out", "save_result",
)


@contextmanager
def _recording(args: argparse.Namespace):
    """The Recorder a local verb's output flags ask for (None when none
    does), closed on exit after ``--metrics-out`` is written.

    Every output path's directory must already exist: the exporters open
    their files lazily, which would otherwise fail minutes into a run.
    """
    for flag in _OUTPUT_FLAGS:
        path = getattr(args, flag, None)
        if path and not Path(path).parent.is_dir():
            raise _UsageError(f"output directory does not exist: {path}")
    emit_events = getattr(args, "emit_events", None)
    metrics_out = getattr(args, "metrics_out", None)
    trace = getattr(args, "trace", False)
    if not (emit_events or metrics_out or trace
            or getattr(args, "telemetry_out", None)):
        yield None
        return
    from .observability import JsonlExporter, Recorder

    exporter = JsonlExporter(emit_events) if emit_events else None
    recorder = Recorder(exporter=exporter, trace=trace)
    try:
        yield recorder
    finally:
        if metrics_out:
            Path(metrics_out).write_text(recorder.metrics.render_text())
        recorder.close()


def _run_and_report(args: argparse.Namespace, execute, report=None) -> int:
    """Shared body of ``run`` and ``cluster-demo``: build the experiment
    ``submit`` would send, run it through ``execute`` and report."""
    # In --json mode stdout carries exactly one JSON document (the
    # result dict); everything human-readable goes to stderr.
    info = sys.stderr if args.json else sys.stdout
    submission = _submission_from_args(args)
    with _recording(args) as recorder:
        workload = submission.build_workload()
        result = execute(
            workload,
            submission.build_policy(),
            generator=submission.build_generator(workload),
            spec=submission.build_spec(),
            recorder=recorder,
        )
    _print_result(result, file=info)
    if report is not None:
        report(result, info)
    if args.trace:
        _print_span_summary(recorder, file=info)
    if args.metrics_out:
        print(f"metrics written -> {args.metrics_out}", file=info)
    if args.emit_events:
        print(
            f"audit trail     -> {args.emit_events} "
            f"({recorder.exporter.events_written} events)",
            file=info,
        )
    if args.save_result:
        result.save_json(args.save_result)
        print(f"result archived -> {args.save_result}", file=info)
    if args.json:
        from .observability.exporters import encode_event

        print(encode_event(result.to_dict()))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    def execute(workload, policy, **kwargs):
        if args.live:
            from .runtime.local import run_live

            return run_live(
                workload, policy, time_scale=args.time_scale, **kwargs
            )
        return run_simulation(workload, policy, **kwargs)

    return _run_and_report(args, execute)


def _parse_autoscale(value):
    """Parse ``"MIN:MAX"`` into an ``(int, int)`` bounds tuple."""
    if value is None:
        return None
    try:
        lo_text, hi_text = value.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise _UsageError(
            f"--autoscale expects MIN:MAX (got {value!r})"
        ) from None
    if lo < 1 or hi < lo:
        raise _UsageError("--autoscale bounds must satisfy 1 <= MIN <= MAX")
    return lo, hi


def _cmd_cluster_demo(args: argparse.Namespace) -> int:
    """One experiment on the multi-process cluster runtime.

    Demonstrates (and smoke-tests) heartbeat failure detection and
    snapshot migration: ``--kill machine-01@epoch:3`` SIGKILLs a worker
    mid-run and the experiment still completes on the survivors.
    """
    from .cluster import FaultPlan, run_cluster

    if args.workers < 1:
        raise _UsageError("--workers must be >= 1")
    autoscale = _parse_autoscale(args.autoscale)
    if autoscale is not None and autoscale[1] != args.workers:
        raise _UsageError(
            "--autoscale MAX must equal --workers "
            f"({autoscale[1]} != {args.workers})"
        )
    fault_plan = FaultPlan.parse(
        kill=args.kill,
        drop_heartbeats=args.drop_heartbeats,
        delay_send=args.delay_send,
        revoke=args.revoke,
    )
    fleet = None
    if (autoscale is not None or args.spot_fraction > 0.0
            or args.revoke or args.budget_slot_hours is not None
            or args.cost_out):
        from .autoscale import FleetOptions

        fleet = FleetOptions(
            autoscale=autoscale,
            spot_fraction=args.spot_fraction,
            grace_seconds=args.grace,
            budget_slot_hours=args.budget_slot_hours,
            cost_path=args.cost_out,
        )
    aggregator = None
    if args.telemetry_out:
        from .observability import TelemetryAggregator

        aggregator = TelemetryAggregator()

    def execute(workload, policy, spec, **kwargs):
        return run_cluster(
            workload, policy,
            spec=replace(
                spec,
                num_machines=args.workers,
                checkpoint_interval=args.checkpoint_every,
            ),
            time_scale=args.time_scale,
            fault_plan=fault_plan,
            heartbeat_interval=args.heartbeat_interval,
            miss_threshold=args.miss_threshold,
            retry_budget=args.retry_budget,
            aggregator=aggregator,
            fleet=fleet,
            **kwargs,
        )

    def report(result, info) -> None:
        print(f"machine failures: {result.machine_failures}", file=info)
        print(f"epochs lost     : {result.epochs_lost_to_failures}", file=info)
        if args.telemetry_out:
            Path(args.telemetry_out).write_text(aggregator.render_text())
            print(f"telemetry       -> {args.telemetry_out} "
                  f"({len(aggregator.node_ids)} nodes)", file=info)
        if args.cost_out:
            print(f"cost audit      -> {args.cost_out}", file=info)

    return _run_and_report(args, execute, report)


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import report_from_json

    print(report_from_json(args.result), end="")
    return 0


def _cmd_record_trace(args: argparse.Namespace) -> int:
    workload = registry.build_workload(args.workload)
    gen_seed = args.gen_seed
    if gen_seed is None:
        gen_seed = registry.default_gen_seed(args.workload)
    generator = RandomGenerator(
        workload.space, seed=gen_seed, max_configs=args.configs
    )
    configs = [generator.create_job()[1] for _ in range(args.configs)]
    trace = record_trace(workload, configs, seed=args.seed)
    trace.save(args.out)
    print(f"recorded {len(trace)} configurations x "
          f"{workload.domain.max_epochs} epochs -> {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    for order in range(args.orders):
        shuffled = trace.shuffled(order) if args.orders > 1 else trace
        result = run_simulation(
            TraceWorkload(shuffled),
            POLICIES[args.policy](),
            configs=shuffled.configs,
            spec=ExperimentSpec(
                num_machines=args.machines, num_configs=len(shuffled), seed=0
            ),
        )
        value = (
            result.time_to_target
            if result.reached_target
            else result.finished_at
        )
        print(f"order {order}: time-to-target {value/60:.0f} min "
              f"(reached={result.reached_target})")
    return 0


# ------------------------------------------------------------ train-policy


def _cmd_train_policy(args: argparse.Namespace) -> int:
    from .learn.trainer import TrainerConfig, train_policy

    info = sys.stderr if args.json else sys.stdout
    config = TrainerConfig(
        episodes=args.episodes,
        seed=args.seed,
        hidden=args.hidden,
        lr=args.lr,
        entropy_coef=args.entropy_coef,
        gen_seed_base=args.gen_seed_base,
        seed_pool=args.seed_pool,
        group_size=args.group_size,
        workload=args.workload,
        generator=args.generator,
        num_configs=args.num_configs,
        slots=args.slots,
        tmax_hours=args.tmax_hours,
    )

    def _progress(update):
        if update["episode"] % max(args.group_size * 25, 1) == 0:
            print(
                f"episode {update['episode']}/{update['episodes']}  "
                f"reward {update['reward']:.3f}  "
                f"best {update['best_reward']:.3f}  "
                f"entropy {update['entropy']:.3f}",
                file=info,
            )

    # The artifact writer creates --out's directories itself.
    with _recording(args) as recorder:
        kwargs = {"recorder": recorder} if recorder is not None else {}
        summary = train_policy(
            config, artifact_path=args.out, progress=_progress, **kwargs
        )
    rewards = summary["rewards"]
    tail = rewards[-max(1, len(rewards) // 4):]
    print(
        f"trained {len(rewards)} episodes "
        f"(best reward {summary['best_reward']:.3f}, "
        f"last-quarter mean {sum(tail) / len(tail):.3f}); "
        f"artifact frozen at {args.out}",
        file=info,
    )
    print(
        f"evaluate with: REPRO_LEARNED_ARTIFACT={args.out} "
        "repro sweep run --study learned-vs-pop --out <dir>",
        file=info,
    )
    if args.json:
        document = {
            "artifact_path": args.out,
            "episodes": len(rewards),
            "best_reward": summary["best_reward"],
            "rewards": rewards,
            "provenance": summary["artifact"]["provenance"],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    return 0


# -------------------------------------------------------------------- sweep


def _sweep_spec_from_args(args: argparse.Namespace):
    """Resolve --study/--spec (+ --seeds override) into a StudySpec."""
    from .lab import StudySpec, builtin_study

    if (args.study is None) == (args.spec is None):
        raise ValueError("provide exactly one of --study or --spec")
    if args.study is not None:
        spec = builtin_study(args.study)
    else:
        spec = StudySpec.from_json_file(args.spec)
    if args.seeds is not None:
        try:
            seeds = tuple(int(part) for part in args.seeds.split(","))
        except ValueError:
            raise ValueError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}"
            ) from None
        spec = spec.with_overrides(seeds=seeds)
    if getattr(args, "policies", None) is not None:
        policies = tuple(
            part.strip() for part in args.policies.split(",") if part.strip()
        )
        if not policies:
            raise ValueError("--policies must name at least one policy")
        overrides = {"policies": policies}
        if (
            spec.compare_axis == "policy"
            and spec.baseline_level not in policies
        ):
            # Keep the spec valid: the first listed policy becomes the
            # baseline when the original one was filtered out.
            overrides["baseline"] = {"policy": policies[0]}
        spec = spec.with_overrides(**overrides)
    return spec


def _sweep_execute(args: argparse.Namespace, spec) -> int:
    """Shared body of ``sweep run`` and ``sweep resume``."""
    from .lab import CellStore, StudyRunner

    def on_cell(progress) -> None:
        print(
            f"cells {progress.done}/{progress.total} "
            f"(executed {progress.executed}, skipped {progress.skipped})",
            file=sys.stderr,
        )
        sys.stderr.flush()

    with _recording(args) as recorder:
        store = CellStore(args.out)
        runner = StudyRunner(
            spec, store, recorder=recorder, max_workers=args.max_workers
        )
        runner.run(on_cell=on_cell)
        markdown = runner.write_report()
    print(markdown, end="")
    print(f"report         -> {store.report_md_path}", file=sys.stderr)
    print(f"report (json)  -> {store.report_json_path}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.sweep_command == "run":
        return _sweep_execute(args, _sweep_spec_from_args(args))
    if args.sweep_command == "resume":
        from .lab import CellStore

        return _sweep_execute(args, CellStore(args.out).load_spec())
    if args.sweep_command == "report":
        from .lab import CellStore, StudyRunner

        store = CellStore(args.out)
        runner = StudyRunner(store.load_spec(), store)
        print(runner.write_report(), end="")
        return 0
    if args.sweep_command == "submit":
        return _cmd_sweep_submit(args)
    if args.sweep_command == "status":
        return _cmd_sweep_status(args)
    raise ValueError(f"unknown sweep command {args.sweep_command!r}")


def _study_line(record: dict) -> str:
    done = f"{record['cells_done']}/{record['cells_total']}"
    winner = record.get("winner") or "-"
    return (
        f"{record['id']}  {record['status']:<10} "
        f"{record['name']:<22} cells={done:<9} winner={winner}"
    )


def _cmd_sweep_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    if (args.study is None) == (args.spec is None):
        raise ValueError("provide exactly one of --study or --spec")
    if args.study is not None and args.seeds is None:
        payload: dict = {"study": args.study}
    else:
        # Spec files and seed-overridden built-ins resolve client-side,
        # so the daemon runs exactly what was asked for.
        payload = {"spec": _sweep_spec_from_args(args).to_dict()}
    if args.max_workers is not None:
        payload["max_workers"] = args.max_workers
    client = ServiceClient(args.url)
    record = client.submit_study(payload)
    print(record["id"])
    print(
        f"submitted study {record['id']} ({record['name']}, "
        f"{record['cells_total']} cells) to {args.url}",
        file=sys.stderr,
    )
    if not args.wait:
        return 0

    def on_update(update: dict) -> None:
        print(_study_line(update), file=sys.stderr)
        sys.stderr.flush()

    final = client.watch_study(
        record["id"], poll_seconds=args.poll, on_update=on_update
    )
    if final["status"] != "completed":
        print(f"error: {final.get('error')}", file=sys.stderr)
        return EXIT_EXPERIMENT_NOT_COMPLETED
    print(client.study_report(record["id"]), end="")
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.id is not None:
        print(json.dumps(client.get_study(args.id), indent=2))
        return 0
    records = client.list_studies()
    if not records:
        print("no studies")
        return 0
    for record in records:
        print(_study_line(record))
    return 0


# ------------------------------------------------------------------ service


def _submission_from_args(args: argparse.Namespace):
    from .service.submission import Submission

    return Submission(
        workload=args.workload,
        policy=args.policy,
        generator=args.generator,
        machines=getattr(args, "machines", None),
        configs=args.configs,
        seed=args.seed,
        gen_seed=args.gen_seed,
        target=args.target,
        tmax_hours=args.tmax_hours,
        stop_on_target=not args.no_stop_on_target,
        live=getattr(args, "live", False),
        time_scale=args.time_scale,
        checkpoint_every=getattr(args, "checkpoint_every", 25),
        tenant=getattr(args, "tenant", "default"),
        priority=getattr(args, "priority", 0),
        deadline_hours=getattr(args, "deadline_hours", None),
        budget_slot_hours=getattr(args, "budget_slot_hours", None),
    )


def _record_line(record: dict) -> str:
    checkpoint = record.get("checkpoint") or {}
    epochs = checkpoint.get("epochs_trained", 0)
    best = checkpoint.get("best_metric")
    result = record.get("result")
    if result is not None:
        epochs = result.get("epochs_trained", epochs)
        best = result.get("best_metric", best)
    best_text = "n/a" if best is None else f"{best:.4f}"
    return (
        f"{record['id']}  {record['status']:<11} "
        f"{record['submission']['workload']:<12} "
        f"{record['submission']['policy']:<10} "
        f"epochs={epochs:<6} best={best_text}"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.daemon import ExperimentService

    autoscale = _parse_autoscale(args.autoscale)
    try:
        # Validates its arguments before it creates the run store.
        service = ExperimentService(
            root=args.root,
            host=args.host,
            port=args.port,
            workers=args.workers,
            resume_interrupted=args.resume_interrupted,
            cluster_workers=args.cluster_workers,
            slots=args.slots,
            tenant_quotas=args.tenant_quotas,
            max_queue_depth=args.max_queue_depth,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            autoscale=autoscale,
            spot_fraction=args.spot_fraction,
            spot_rate=args.spot_rate,
        )
    except ValueError as exc:
        raise _UsageError(exc) from None
    service.start()
    service.install_signal_handlers()
    print(f"experiment service listening on {service.url}")
    print(f"run store       : {args.root}")
    print(f"workers         : {args.workers}")
    if args.cluster_workers:
        print(f"cluster workers : {args.cluster_workers} processes per "
              "live run")
    slots_text = "unlimited" if args.slots is None else str(args.slots)
    print(f"broker slots    : {slots_text}")
    if autoscale is not None:
        print(f"autoscale       : {autoscale[0]}:{autoscale[1]} workers "
              "per fleet (broker pool elastic)")
    if args.spot_fraction:
        print(f"spot fraction   : {args.spot_fraction:g} "
              f"(rate {args.spot_rate:g} $/h)")
    if args.tenant_quotas:
        print(f"tenant quotas   : {args.tenant_quotas}")
    if args.rate_limit:
        print(f"rate limit      : {args.rate_limit:g}/min per tenant")
    print("endpoints       : POST /experiments · GET /experiments[/{id}"
          "[/events]] · DELETE /experiments/{id} · GET /broker "
          "· GET /fleet · POST /fleet/revoke · GET /metrics")
    sys.stdout.flush()
    service.serve_until_interrupted()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.url)
    record = client.submit(_submission_from_args(args).to_dict())
    # Bare id on stdout so scripts can capture it; context to stderr.
    print(record["id"])
    print(f"submitted {record['id']} ({record['status']}) to {args.url}",
          file=sys.stderr)
    if not args.wait:
        return 0
    final = client.watch(record["id"], poll_seconds=args.poll)
    print(_record_line(final), file=sys.stderr)
    return 0 if final["status"] == "completed" else EXIT_EXPERIMENT_NOT_COMPLETED


def _cmd_status(args: argparse.Namespace) -> int:
    if (args.url is None) == (args.root is None):
        print("error: provide exactly one of --url or --root",
              file=sys.stderr)
        return 2
    if args.url is not None:
        from .service.client import ServiceClient

        client = ServiceClient(args.url)
        if args.id is not None:
            print(json.dumps(client.get(args.id), indent=2))
            return 0
        records = client.list_experiments()
    else:
        from .service.store import RunStore

        store = RunStore(args.root)
        if args.id is not None:
            record = store.get(args.id)
            if record is None:
                print(f"error: unknown experiment {args.id!r}",
                      file=sys.stderr)
                return EXIT_RUNTIME_ERROR
            print(json.dumps(record.to_dict(), indent=2))
            return 0
        records = [
            record.to_dict(include_result=False)
            for record in store.list_experiments()
        ]
    if not records:
        print("no experiments")
        return 0
    for record in records:
        print(_record_line(record))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.url)

    def on_update(record: dict) -> None:
        print(_record_line(record))
        sys.stdout.flush()

    final = client.watch(
        args.id,
        poll_seconds=args.poll,
        timeout=args.timeout,
        on_update=on_update,
    )
    return 0 if final["status"] == "completed" else EXIT_EXPERIMENT_NOT_COMPLETED


def _cmd_resume(args: argparse.Namespace) -> int:
    from .service import executor
    from .service.store import COMPLETED, RunStore

    store = RunStore(args.root)
    recovered = store.recover_interrupted()
    if recovered:
        print(f"marked interrupted: {', '.join(recovered)}", file=sys.stderr)
    record = store.get(args.id)
    if record is None:
        print(f"error: unknown experiment {args.id!r}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    checkpoint = record.checkpoint or {}
    print(
        f"resuming {args.id} from checkpoint at "
        f"{checkpoint.get('epochs_trained', 0)} epochs",
        file=sys.stderr,
    )
    final = executor.resume(store, args.id)
    print(_record_line(final.to_dict()))
    return 0 if final.status == COMPLETED else EXIT_EXPERIMENT_NOT_COMPLETED


def _cmd_broker_status(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    doc = ServiceClient(args.url).broker_status()
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    pool = doc["pool"]
    total = pool["total_slots"]
    total_text = "unlimited" if total in (None, 0) else str(total)
    print(f"slot pool  : {pool['allocated']} allocated / {total_text}")
    tenants = doc.get("tenants") or {}
    for tenant in sorted(tenants):
        counts = tenants[tenant]
        print(f"tenant {tenant:<12} queued={counts['queued']} "
              f"running={counts['running']}")
    experiments = doc.get("experiments") or []
    if not experiments:
        print("no experiments hold leases")
        return 0
    for exp in experiments:
        deadline = exp.get("deadline_remaining_seconds")
        deadline_text = "-" if deadline is None else f"{deadline:.0f}s"
        print(
            f"{exp['exp_id']}  tenant={exp['tenant']:<10} "
            f"prio={exp['priority']:<3} held={exp['held']}/{exp['want']} "
            f"target={exp['target']} "
            f"spent={exp['spent_slot_hours']:.3f}sh "
            f"deadline={deadline_text}"
            + ("  PREEMPTED" if exp.get("preempted") else "")
        )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from .observability.top import render_top
    from .service.client import ServiceClient

    client = ServiceClient(args.url)
    while True:
        frame = render_top(client.telemetry(), url=args.url)
        if args.once:
            print(frame, end="")
            return 0
        # Clear + home, then the frame: a flicker-free poor-man's top.
        sys.stdout.write("\x1b[2J\x1b[H" + frame)
        sys.stdout.flush()
        _time.sleep(args.poll)


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from .observability.diagnose import diagnose, load_journals, render_markdown

    report = diagnose(load_journals(args.journals))
    if args.json:
        from .observability.exporters import encode_event

        print(encode_event(report))
    else:
        print(render_markdown(report), end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    handlers = {
        "run": _cmd_run,
        "record-trace": _cmd_record_trace,
        "replay": _cmd_replay,
        "report": _cmd_report,
        "cluster-demo": _cmd_cluster_demo,
        "serve": _cmd_serve,
        "sweep": _cmd_sweep,
        "train-policy": _cmd_train_policy,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "watch": _cmd_watch,
        "resume": _cmd_resume,
        "broker-status": _cmd_broker_status,
        "top": _cmd_top,
        "diagnose": _cmd_diagnose,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # Documented exit-code contract: runtime failures are reported
        # on stderr and exit 3 instead of dumping a traceback.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
