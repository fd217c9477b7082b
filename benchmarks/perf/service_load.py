"""``service_load`` — daemon-bound: ``repro serve`` as a subprocess, written
to and then read from, one phase after the other.

**Phase W**, one client: 16 sequential submissions {cifar10, default policy,
20 configurations, 4 machines, experiment seed ``--seed + i``, gen_seed 17},
each followed by ``ServiceClient.watch(poll_seconds=0.05)``; the first is a
warm-up.  **Phase R**, two closed-loop clients over the finished journals
(about 4,900 events each): a fixed list of 1,040 requests — per round
status, events tail (``offset=n-20``), list and ``/metrics``, and a full
events read every tenth round.

Only here do ``service.store``, ``service.executor``, ``service.daemon`` and
the broker's admission path do the work: flush-per-event journal writes and
checkpoints in W; the ``read_events`` rescan, the sqlite connection per
request and the result blob in every record in R.  The phases never overlap
(a submitter and a tailer against one daemon gave 0.57 or 0.68
experiments/s, run to run), so a gain for writes that costs reads shows;
the contended case is a per-layer number.

The untraced run (``--trace 0``) is phase W: ``work_per_s`` is experiments
over their summed submit->terminal time.  The user-facing numbers that only
this workload has — ``done_p50_ms``, ``read_p50_ms``, ``read_p99_ms`` — are
printed by the traced run (``--trace 1``), measured there against the
*untraced* daemon, before the same two phases are replayed against a traced
one.

The Default policy's cost does not depend on the experiment seed (20
configurations hold none that reaches the target: 2,400 epochs every time),
so here the seed does mint the experiments.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

import harness
import layers
from tracing import EMPTY, Tracer, p50

#: The daemon does the work; its peak memory counts.
PROGRAM_IN_CHILDREN = True
SIZES = {
    # counted: experiments after the warm-up (W); reads: phase R requests;
    # contended: experiments whose events are tailed while they run
    # traced_*: the head of the same two lists the traced daemon replays
    "full": dict(configs=20, counted=15, reads=1040, contended=3,
                 traced_counted=5, traced_reads=260),
    "smoke": dict(configs=6, counted=2, reads=82, contended=1,
                  traced_counted=1, traced_reads=42),
}
#: Closed-loop readers in phase R (nproc = 2).
CLIENTS = 2
POLL_SECONDS = 0.05
TAIL_EVENTS = 20
#: Every this many rounds of the read mix end with a whole-journal read.
FULL_READ_EVERY = 10
EXPERIMENT_TIMEOUT = 60.0
DAEMON_BANNER_TIMEOUT = 30.0


@dataclass
class Daemon:
    process: subprocess.Popen
    url: str
    root: Path
    ready_s: float
    trace_path: Optional[Path] = None


@dataclass
class State:
    daemon: Daemon
    seed: int
    rng: random.Random
    scale: str
    next_submission: int = 0
    finished: List[Dict[str, Any]] = field(default_factory=list)
    #: submit->terminal seconds of every experiment of the last write
    #: phase, the warm-up first.
    walls: List[float] = field(default_factory=list)


def install(tracer: Tracer) -> None:
    """The runner holds only the client; the layers are traced inside the
    daemon (``daemon_launcher.py``)."""


def start_daemon(traced: bool = False, label: str = "daemon") -> Daemon:
    """Boot the daemon on a free port and wait for its first ``/healthz``;
    a daemon that says nothing within the deadline is killed and what it
    wrote to standard error is the error message."""
    from repro.service.client import ServiceClient, ServiceError

    root = harness.scratch_dir(label)
    serve = ["serve", "--root", str(root / "runs"), "--port", "0", "--workers", "1"]
    trace_path = None
    if traced:
        trace_path = root / "daemon-trace.json"
        argv = [sys.executable, str(harness.HERE / "daemon_launcher.py"),
                str(trace_path), str(harness.out_dir() / "spans-service-daemon.jsonl")]
    else:
        argv = [sys.executable, "-m", "repro"]
    errors = root / "daemon-stderr.log"
    started = time.perf_counter()
    with open(errors, "wb") as stderr:
        process = harness.spawn(
            argv + serve, env=harness.child_env(),
            stdout=subprocess.PIPE, stderr=stderr, text=True,
        )

    def give_up(why: str) -> RuntimeError:
        harness.reap(process)
        said = errors.read_text(errors="replace").strip()[-2000:]
        return RuntimeError(f"{why}; its standard error: {said or '(empty)'}")

    banner = harness.first_line(process, DAEMON_BANNER_TIMEOUT)
    if "listening on " not in banner:
        raise give_up(f"daemon did not start (first line {banner!r})")
    url = banner.rsplit("listening on ", 1)[1].strip()
    client = ServiceClient(url, max_retries=0)
    deadline = time.monotonic() + DAEMON_BANNER_TIMEOUT
    while True:
        try:
            client.health()
            break
        except ServiceError:
            if time.monotonic() > deadline or process.poll() is not None:
                raise give_up("daemon never answered /healthz")
            time.sleep(0.01)
    return Daemon(process, url, root, time.perf_counter() - started, trace_path)


def stop_daemon(daemon: Daemon, graceful: bool = True) -> None:
    """SIGTERM and wait for the daemon's own shutdown (which a traced
    daemon needs to write its spans), or just kill it."""
    if not graceful:
        daemon.process.kill()
    code = harness.reap(daemon.process, grace=15.0)
    if graceful and code != 0:
        print(f"daemon exited with {code}", file=sys.stderr)


def setup(seed: int, scale: str) -> State:
    return State(start_daemon(), seed, random.Random(seed), scale)


def teardown(state: State, graceful: bool = True) -> None:
    stop_daemon(state.daemon, graceful)


# ------------------------------------------------------------------ phase W


def submission(state: State) -> Dict[str, Any]:
    index = state.next_submission
    state.next_submission += 1
    return {
        "workload": "cifar10",
        "policy": "default",
        "configs": SIZES[state.scale]["configs"],
        "machines": 4,
        "seed": state.seed + index,
        "gen_seed": 17,
    }


def run_experiment(client, payload: Dict[str, Any], outcome: Optional[harness.Outcome]):
    """Submit, watch to a terminal status: ``(record, seconds)``, or
    ``(None, 0)`` for a refused, failed or timed-out experiment."""
    from repro.service.client import ServiceError

    started = time.perf_counter()
    try:
        created = client.submit(payload)
        record = client.watch(
            created["id"], poll_seconds=POLL_SECONDS, timeout=EXPERIMENT_TIMEOUT
        )
    except (ServiceError, TimeoutError) as exc:
        if outcome is not None:
            outcome.attempt(False, f"experiment failed: {type(exc).__name__}: {exc}")
        return None, 0.0
    elapsed = time.perf_counter() - started
    ok = record["status"] == "completed"
    if outcome is not None:
        outcome.attempt(ok, f"experiment {record['id']} ended {record['status']}")
    return (record if ok else None), elapsed


def write_phase(state: State, client, counted: int, outcome: harness.Outcome) -> List[float]:
    """The warm-up, then ``counted`` experiments one after another; returns
    the counted ones' submit->terminal seconds."""
    state.finished = []
    _, warm_up = run_experiment(client, submission(state), None)
    state.walls = [warm_up]
    for _ in range(counted):
        record, elapsed = run_experiment(client, submission(state), outcome)
        if record is not None:
            state.walls.append(elapsed)
            state.finished.append(record)
    return state.walls[1:]


# ------------------------------------------------------------------ phase R


def read_list(client, total: int, first_round: int, rng: random.Random,
              ids: List[str], tails: List[int]):
    """One client's fixed list of ``total`` requests: rounds of status,
    events tail, list and ``/metrics`` against an experiment ``rng`` picks,
    every tenth round (counting from ``first_round``) ending with a full
    events read."""
    requests: List[Any] = []
    turn = first_round
    while len(requests) < total:
        pick = rng.randrange(len(ids))
        exp_id, tail = ids[pick], tails[pick]
        requests += [
            lambda e=exp_id: client.get(e),
            lambda e=exp_id, t=tail: client.events(e, offset=t),
            client.list_experiments,
            client.metrics_text,
        ]
        if turn % FULL_READ_EVERY == FULL_READ_EVERY - 1:
            requests.append(lambda e=exp_id: client.events(e))
        turn += 1
    return requests[:total]


def read_phase(state: State, url: str, total: int, outcome: harness.Outcome) -> List[float]:
    """``total`` reads over the finished journals, split between two
    closed-loop clients (one thread and one connection at a time each);
    returns every successful read's milliseconds.  A read that raises (a
    refused connection, a 5xx, a timeout) is a failed attempt.

    The second client counts its rounds from five, half the ten-round
    cycle: started in step, the two issued their full-journal reads
    together, or not, as they drifted, and p99 read 159 to 279 ms between
    runs of one commit."""
    from repro.service.client import ServiceClient

    if not state.finished:
        return []
    probe = ServiceClient(url, max_retries=0)
    ids = [record["id"] for record in state.finished]
    tails = [max(len(probe.events(exp_id)) - TAIL_EVENTS, 1) for exp_id in ids]
    samples: List[List[float]] = [[] for _ in range(CLIENTS)]
    outcomes = [harness.Outcome() for _ in range(CLIENTS)]
    lists = [
        read_list(
            ServiceClient(url, max_retries=0), total // CLIENTS,
            index * FULL_READ_EVERY // CLIENTS, state.rng, ids, tails,
        )
        for index in range(CLIENTS)
    ]

    def client_loop(index: int) -> None:
        for request in lists[index]:
            started = time.perf_counter()
            try:
                request()
            except Exception as exc:  # counted and reported, not hidden
                outcomes[index].attempt(
                    False, f"read failed: {type(exc).__name__}: {exc}"
                )
                continue
            samples[index].append((time.perf_counter() - started) * 1e3)
            outcomes[index].attempt()

    threads = [
        threading.Thread(target=client_loop, args=(index,), name=f"reader-{index}")
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for mine in outcomes:
        outcome.merge(mine)
    return [sample for per_client in samples for sample in per_client]


# ------------------------------------------------------------------- checks


class DirectRuns:
    """The same submissions through ``run_simulation`` in this process: the
    reference each daemon result must equal, and the bare cost the
    executor's overhead is a multiple of."""

    def __init__(self) -> None:
        self.workload = None
        self.walls: List[float] = []

    def run(self, payload: Dict[str, Any]):
        from repro.generators.base import ExhaustedSpaceError
        from repro.service.submission import Submission
        from repro.sim.runner import run_simulation

        sub = Submission.from_dict(payload)
        if self.workload is None:
            self.workload = sub.build_workload()
        generator = sub.build_generator(self.workload)
        configs = []
        for _ in range(sub.configs):
            try:
                configs.append(generator.create_job()[1])
            except ExhaustedSpaceError:
                break
        started = time.perf_counter()
        result = run_simulation(
            self.workload, sub.build_policy(), configs=configs, spec=sub.build_spec()
        )
        self.walls.append(time.perf_counter() - started)
        return result

    def check(self, records: List[Dict[str, Any]], outcome: harness.Outcome) -> None:
        for record in records:
            direct = self.run(record["submission"])
            served = record["result"]
            same = (
                served["epochs_trained"] == direct.epochs_trained
                and served["time_to_target"] == direct.time_to_target
                and served["best_metric"] == direct.best_metric
            )
            outcome.check(
                same, f"{record['id']}: daemon result differs from run_simulation"
            )


def measure(state: State, seconds: float, outcome: harness.Outcome) -> Dict[str, float]:
    from repro.service.client import ServiceClient

    client = ServiceClient(state.daemon.url, max_retries=0)
    harness.progress(f"daemon ready in {state.daemon.ready_s:.2f}s")
    done = write_phase(state, client, SIZES[state.scale]["counted"], outcome)
    harness.progress(f"phase W: {len(done)} experiments in {sum(done):.2f}s")
    DirectRuns().check(state.finished, outcome)
    harness.progress("results checked against run_simulation")
    if not done:
        return {}
    return {"work_per_s": len(done) / sum(done)}


# -------------------------------------------------------------------- trace


def contended_tail(
    state: State, client, experiments: int, outcome: harness.Outcome
) -> Dict[str, float]:
    """Ten polls a second of the events tail *while* the experiment runs:
    the case the end-to-end phases keep apart.  ``read_events`` racing
    ``append_event`` can return a torn line, which the daemon answers with
    HTTP 500 — counted here, not fixed here.  The number of polls is
    reported beside the failed share: at a torn-line rate of about one poll
    in 200 a single run's few dozen polls cannot resolve it, the sum over
    many runs can."""
    from repro.service.client import ServiceError

    latencies, failed = [], 0
    for _ in range(experiments):
        try:
            exp_id = client.submit(submission(state))["id"]
        except ServiceError as exc:
            outcome.attempt(False, f"contended submission refused: {exc}")
            continue
        offset, deadline = 0, time.monotonic() + EXPERIMENT_TIMEOUT
        while time.monotonic() < deadline:
            started = time.perf_counter()
            try:
                offset += len(client.events(exp_id, offset=offset))
                latencies.append((time.perf_counter() - started) * 1e3)
            except ServiceError:
                failed += 1
            try:
                if client.get(exp_id)["status"] not in ("queued", "running"):
                    break
            except ServiceError:
                pass  # ask again after the next poll
            time.sleep(0.1)
        else:
            outcome.attempt(False, f"contended experiment {exp_id} never ended")
    polls = len(latencies) + failed
    return {
        "service.daemon.tail_during_run_p50_ms": p50(latencies),
        "service.daemon.tail_during_run_polls": polls,
        "service.daemon.tail_during_run_failed_share": failed / polls if polls else 0.0,
    }


def journal_of(daemon: Daemon, exp_id: str) -> Path:
    return daemon.root / "runs" / "journal" / f"{exp_id}.jsonl"


def both_phases(state: State, counted: int, reads: int, outcome: harness.Outcome):
    """W then R against ``state.daemon``: the first ``counted`` experiments
    and the first ``reads`` requests of the fixed lists, from the first
    submission and a fresh seeded stream, so that a second call replays the
    first.  Returns ``(submit->terminal seconds, the warm-up's first; read
    milliseconds)``."""
    from repro.service.client import ServiceClient

    state.next_submission = 0
    state.rng = random.Random(state.seed)
    client = ServiceClient(state.daemon.url, max_retries=0)
    done = write_phase(state, client, counted, outcome)
    harness.progress(f"phase W: {len(done)} experiments in {sum(done):.2f}s")
    samples = read_phase(state, state.daemon.url, reads, outcome)
    harness.progress(f"phase R: {len(samples)} reads")
    return list(state.walls), samples


def trace(state: State, tracer: Tracer, outcome: harness.Outcome) -> Dict[str, float]:
    from repro.service.client import ServiceClient

    size = SIZES[state.scale]
    values = layers.zeros()
    values["service.daemon.ready_s"] = state.daemon.ready_s

    # Tracing off: the numbers a user of the daemon sees.
    walls, reads = both_phases(state, size["counted"], size["reads"], outcome)
    served = list(state.finished)
    done = walls[1:]
    values["done_p50_ms"] = p50(done) * 1e3
    if reads:
        values["read_p50_ms"] = harness.percentile(reads, 50)
        values["read_p99_ms"] = harness.percentile(reads, 99)
    values.update(
        contended_tail(
            state,
            ServiceClient(state.daemon.url, max_retries=0),
            size["contended"],
            outcome,
        )
    )
    journals = [journal_of(state.daemon, record["id"]) for record in served]
    events = [
        [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        for path in journals
    ]
    values["service.store.events_per_exp"] = p50([len(e) for e in events])
    values["service.store.journal_bytes_per_exp"] = p50(
        [path.stat().st_size for path in journals]
    )
    stop_daemon(state.daemon)

    # The head of the same two lists against a daemon with the wrappers
    # installed (the whole of them takes a minute).  The submissions are the
    # same work on both daemons, so the tracing overhead is taken over them;
    # the reads are not (``GET /experiments`` costs what the store holds).
    state.daemon = start_daemon(traced=True, label="traced-daemon")
    traced_walls, _ = both_phases(
        state, size["traced_counted"], size["traced_reads"], outcome
    )
    stop_daemon(state.daemon)
    traced, untraced = sum(traced_walls), sum(walls[: len(traced_walls)])
    seen = json.loads(state.daemon.trace_path.read_text())
    spans = {name: SimpleNamespace(**entry) for name, entry in seen["spans"].items()}
    # The experiment layers as the daemon's worker thread ran them.
    values.update(layers.experiment_layers(spans, seen["counts"]))
    outcome.check(
        values["curves.predict_calls"] == 0,
        f"{values['curves.predict_calls']} curve predictions on service_load",
    )
    for route in ("submit", "status", "events_tail", "events_full", "list", "metrics"):
        values[f"service.daemon.route_{route}_p50_ms"] = (
            spans.get(f"service.daemon.route_{route}", EMPTY).p50_s * 1e3
        )
    values["policies.killed_epoch_share"] = layers.killed_epoch_share(
        job for record in served for job in layers.result_jobs(record["result"])
    )

    if events:
        values.update(layers.replay_journal(events[0]))
    direct = DirectRuns()
    direct.check(served, outcome)
    if done and direct.walls:
        values["service.executor.overhead_ratio"] = p50(done) / p50(direct.walls)
    values["cli.import_s"] = layers.cli_import_s(state.scale)
    values["trace_overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    values["trace.wall_s"] = traced
    # The share of the experiments' submit->terminal wall that lies in the
    # daemon's executor span; the rest is claim polling and watch latency.
    submit_to_terminal = sum(state.walls)
    values["trace.accounted_frac"] = (
        spans.get("service.executor.execute", EMPTY).busy_s / submit_to_terminal
        if submit_to_terminal else 0.0
    )
    return values
