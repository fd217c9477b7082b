"""The multi-experiment daemon behind ``repro serve``.

An :class:`ExperimentService` owns a :class:`~repro.service.store.RunStore`,
a pool of worker threads that claim queued experiments and drive them
through :mod:`~repro.service.executor`, and a JSON HTTP API on stdlib
``http.server``:

========  ==============================  =======================================
method    path                            purpose
========  ==============================  =======================================
GET       ``/healthz``                    liveness + version
POST      ``/experiments``                submit a :class:`Submission` JSON body
                                          (broker admission gates apply: 429
                                          rate-limit/quota, 503 queue-full,
                                          both with ``Retry-After``)
GET       ``/experiments``                list all experiments (no result bodies;
                                          the result column is never read)
GET       ``/experiments/{id}``           one experiment incl. checkpoint/result;
                                          ``?wait=S`` long-polls: answers when
                                          the status changes, or after S
                                          seconds (capped at
                                          ``MAX_WAIT_SECONDS``); a terminal
                                          experiment answers at once
GET       ``/experiments/{id}/events``    the event journal as NDJSON
                                          (``?offset=N`` skips the first N)
DELETE    ``/experiments/{id}``           request cancellation
GET       ``/metrics``                    Prometheus-style exposition: the
                                          service's own metrics merged with
                                          every aggregated node's registry,
                                          node-labelled
GET       ``/telemetry``                  JSON telemetry aggregate: per-node
                                          latest metrics + meta, ring-buffer
                                          history (``repro top`` reads this)
GET       ``/broker``                     resource-broker status: slot pool,
                                          per-experiment leases/targets,
                                          admission config, tenant counts
GET       ``/fleet``                      live per-experiment fleet/cost status
POST      ``/fleet/revoke``               queue a spot revocation against a
                                          live cluster fleet (elastic mode)
POST      ``/studies``                    submit a sweep-lab study
                                          (``{"study": name}`` or
                                          ``{"spec": {...}}``; docs/lab.md)
GET       ``/studies``                    list hosted studies
GET       ``/studies/{id}``               one study's status/progress
GET       ``/studies/{id}/report``        the finished report as markdown
========  ==============================  =======================================

On startup the service marks experiments a dead daemon left RUNNING as
INTERRUPTED; with ``resume_interrupted=True`` the workers replay them
(:func:`~repro.service.executor.resume`) before taking new work.

Workers sleep between claims until a submission arrives or an experiment
finishes; ``CLAIM_TICK_SECONDS`` is only the fallback for what frees
capacity without either (an autoscaled pool, a rate-limit window).
"""

from __future__ import annotations

import json
import logging
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Union
from urllib.parse import parse_qs, urlparse

from ..autoscale import (
    Autoscaler,
    CostModel,
    FleetControl,
    FleetOptions,
    PoolAutoscaler,
)
from ..broker import (
    AdmissionController,
    AdmissionError,
    QueueEntry,
    RateLimited,
    RateLimiter,
    ResourceBroker,
    SlotPool,
    TenantQuota,
    parse_quota_spec,
)
from ..observability import Journal, Recorder
from ..observability.aggregator import TelemetryAggregator
from ..observability.exporters import encode_event
from ..observability.metrics import MetricsRegistry
from . import executor
from .store import INTERRUPTED, QUEUED, TERMINAL_STATUSES, RunStore
from .submission import Submission

__all__ = ["ExperimentService"]

logger = logging.getLogger(__name__)

#: Fallback claim tick of an idle worker: submissions and finished
#: experiments wake it directly.
CLAIM_TICK_SECONDS = 0.05
#: Upper bound on ``GET /experiments/{id}?wait=S``.
MAX_WAIT_SECONDS = 30.0

_EXPERIMENT_ROUTE = re.compile(r"^/experiments/([A-Za-z0-9_-]+)(/events)?$")
_STUDY_ROUTE = re.compile(r"^/studies/([A-Za-z0-9_-]+)(/report)?$")


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: "ExperimentService"


class ExperimentService:
    """Durable experiment daemon: worker pool + HTTP endpoint."""

    def __init__(
        self,
        root: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        resume_interrupted: bool = False,
        cluster_workers: Optional[int] = None,
        slots: Optional[int] = None,
        tenant_quotas: Optional[
            Union[str, Dict[str, TenantQuota]]
        ] = None,
        max_queue_depth: Optional[int] = None,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[int] = None,
        autoscale: Optional[tuple] = None,
        spot_fraction: float = 0.0,
        spot_rate: float = 0.3,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if cluster_workers is not None and cluster_workers < 1:
            raise ValueError("cluster_workers must be >= 1")
        if slots is not None and slots < 1:
            raise ValueError("slots must be >= 1 when given")
        if autoscale is not None:
            lo, hi = int(autoscale[0]), int(autoscale[1])
            if lo < 1 or hi < lo:
                raise ValueError("autoscale bounds must satisfy 1 <= min <= max")
            autoscale = (lo, hi)
            if cluster_workers is None:
                cluster_workers = hi
            elif cluster_workers != hi:
                raise ValueError(
                    "autoscale max must equal cluster_workers "
                    f"({hi} != {cluster_workers})"
                )
            if slots is None:
                # An elastic pool starts at the fleet minimum; the pool
                # autoscaler grows it under pressure.
                slots = lo
        if not 0.0 <= spot_fraction <= 1.0:
            raise ValueError("spot_fraction must be in [0, 1]")
        # When set, *live* submissions execute on the multi-process
        # cluster runtime with this many worker processes per
        # experiment (see docs/cluster.md).  Simulator submissions
        # always run in-process, so `workers` — not this — bounds how
        # many simulated experiments run concurrently.
        self.cluster_workers = cluster_workers
        self.store = RunStore(root)
        self.metrics = MetricsRegistry()
        # The multi-tenant resource broker (docs/service.md): one slot
        # pool shared by every concurrent experiment.  `slots=None`
        # keeps the pool unlimited — every run gets the machines it
        # asked for, pre-broker behaviour.  Admission/lease decisions
        # are audit-journaled to <root>/broker.jsonl and counted into
        # the service registry as broker_* series.
        quotas = tenant_quotas
        if isinstance(quotas, str):
            quotas = parse_quota_spec(quotas)
        quotas = dict(quotas or {})
        default_quota = quotas.pop("*", None)
        self._broker_recorder = Recorder(
            metrics=self.metrics,
            exporter=Journal(self.store.root / "broker.jsonl"),
        )
        self.broker = ResourceBroker(
            pool=SlotPool(
                total_slots=slots, recorder=self._broker_recorder
            ),
            admission=AdmissionController(
                quotas=quotas,
                default_quota=default_quota,
                max_queue_depth=max_queue_depth,
                rate_limiter=RateLimiter(
                    rate_per_minute=rate_limit, burst=rate_burst
                ),
            ),
            recorder=self._broker_recorder,
        )
        # Elastic, cost-aware fleets (docs/cluster.md "Elasticity and
        # cost"): one FleetOptions template stamped per cluster run,
        # one shared cost.jsonl trail, one FleetControl handle per live
        # run (POST /fleet/revoke), and a PoolAutoscaler steering the
        # broker's slot pool from admission-queue pressure.
        self.autoscale = autoscale
        self.spot_fraction = spot_fraction
        self._fleet_template: Optional[FleetOptions] = None
        self._cost_exporter: Optional[Journal] = None
        self._pool_autoscaler: Optional[PoolAutoscaler] = None
        if autoscale is not None or spot_fraction > 0.0:
            self._cost_exporter = Journal(self.store.root / "cost.jsonl")
            self._fleet_template = FleetOptions(
                autoscale=autoscale,
                spot_fraction=spot_fraction,
                cost_model=CostModel(spot_rate=spot_rate),
                cost_exporter=self._cost_exporter,
            )
        if autoscale is not None:
            self._pool_autoscaler = PoolAutoscaler(
                self.broker.pool,
                Autoscaler(autoscale[0], autoscale[1],
                           cooldown_seconds=0.5),
                queue_depth=self._admission_queue_depth,
                interval=0.25,
                recorder=self._broker_recorder,
            )
        self._fleets: Dict[str, FleetControl] = {}
        self._fleets_lock = threading.Lock()
        # Experiment ids the broker fully preempted: their rows sit at
        # INTERRUPTED, and only ids in this set are re-claimed by the
        # worker loop (other interrupted rows need `repro resume` or
        # --resume-interrupted, as before).
        self._requeue: set = set()
        self._requeue_lock = threading.Lock()
        # Telemetry plane: executors ingest each run's registry here
        # (node = experiment id) and cluster runs additionally ship
        # per-worker registries into it; /telemetry and the merged
        # /metrics render from it.
        self.aggregator = TelemetryAggregator()
        self._m_submitted = self.metrics.counter(
            "service_experiments_submitted_total",
            help="Experiments accepted by the service",
        )
        self._m_finished = self.metrics.counter(
            "service_experiments_finished_total",
            help="Experiments that reached a terminal status, by status",
        )
        self._m_running = self.metrics.gauge(
            "service_experiments_running",
            help="Experiments currently executing on a worker",
        )
        self._m_epochs = self.metrics.counter(
            "service_epochs_trained_total",
            help="Epochs trained across all completed experiments",
        )
        self._m_http = self.metrics.counter(
            "service_http_requests_total",
            help="HTTP API requests, by method and status code",
        )
        self._m_studies_submitted = self.metrics.counter(
            "service_studies_submitted_total",
            help="Sweep-lab studies accepted by the service",
        )
        self._m_studies_finished = self.metrics.counter(
            "service_studies_finished_total",
            help="Studies that reached a terminal status, by status",
        )
        # Hosted sweep-lab studies (see docs/lab.md).  Status lives in
        # memory; the cell store under <root>/studies/<id>/ is durable,
        # so a study a dead daemon left behind finishes offline with
        # `repro sweep resume --out <root>/studies/<id>`.
        self._studies: Dict[str, Dict[str, Any]] = {}
        self._studies_lock = threading.Lock()
        self._workers = workers
        self._stop = threading.Event()
        # Set by submissions and finished experiments: something may be
        # claimable now.
        self._wake = threading.Event()
        self._threads: List[threading.Thread] = []
        self._resume_lock = threading.Lock()
        interrupted = self.store.recover_interrupted()
        self._resume_queue: List[str] = interrupted if resume_interrupted else []
        if interrupted:
            logger.info(
                "found %d interrupted experiment(s): %s%s",
                len(interrupted),
                ", ".join(interrupted),
                " (will resume)" if resume_interrupted else "",
            )
        self._server = _ServiceHTTPServer((host, port), _Handler)
        self._server.service = self

    # ------------------------------------------------------------ addresses

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the HTTP listener and the worker pool (non-blocking)."""
        http_thread = threading.Thread(
            target=self._server.serve_forever,
            name="service-http",
            daemon=True,
        )
        http_thread.start()
        self._threads.append(http_thread)
        if self._pool_autoscaler is not None:
            self._pool_autoscaler.start()
        for index in range(self._workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"service-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._threads.append(worker)

    def stop(self, timeout: float = 10.0) -> None:
        """Shut down the listener and wait for workers to finish the
        experiment they are on (idempotent)."""
        self._stop.set()
        self._wake.set()
        self.store.release_waiters()
        if self._pool_autoscaler is not None:
            self._pool_autoscaler.stop()
        if self._threads:
            # shutdown() waits for a serve_forever loop: only start() runs one.
            self._server.shutdown()
        self._server.server_close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        self._broker_recorder.close()
        if self._cost_exporter is not None:
            self._cost_exporter.close()
        self.store.close()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM into the graceful-stop path.

        SIGTERM matters: shells without job control start ``&``
        background jobs with SIGINT *ignored*, so ``kill -INT`` from a
        CI script never reaches us — ``kill -TERM`` is the reliable
        way to ask a scripted daemon to stop gracefully.  Call this as
        soon as the service is up (the CLI does, before it prints the
        banner) so there is no window where TERM still hard-kills.
        """
        signal.signal(signal.SIGTERM, lambda *_: self._stop.set())

    def serve_until_interrupted(self) -> None:
        """Block until SIGTERM/SIGINT, then stop gracefully."""
        try:
            self.install_signal_handlers()
        except ValueError:
            pass  # not the main thread (embedded use); rely on stop()
        try:
            while not self._stop.wait(0.5):
                pass
            logger.info("termination requested; shutting down")
        except KeyboardInterrupt:
            logger.info("interrupt received; shutting down")
        finally:
            self.stop()

    # -------------------------------------------------------------- workers

    def _next_resume(self) -> Optional[str]:
        with self._resume_lock:
            return self._resume_queue.pop(0) if self._resume_queue else None

    def queue_entries(self) -> List[QueueEntry]:
        """The store's queue snapshot as admission entries.

        Broker-preempted experiments (rows parked at INTERRUPTED whose
        ids sit in the requeue set) re-enter as *queued* so the broker
        can re-dispatch them; other interrupted rows are invisible here.
        """
        with self._requeue_lock:
            requeue = set(self._requeue)
        entries: List[QueueEntry] = []
        for row in self.store.queue_entries():
            status = row["status"]
            if status == INTERRUPTED:
                if row["exp_id"] not in requeue:
                    continue
                status = QUEUED
            entries.append(
                QueueEntry(
                    exp_id=row["exp_id"],
                    tenant=row["tenant"],
                    priority=int(row["priority"]),
                    created_at=float(row["created_at"]),
                    status=status,
                    machines=int(row.get("machines", 1)),
                )
            )
        return entries

    def _claim_next(self) -> Optional[tuple]:
        """One worker's claim attempt: the broker picks the id
        (priority, quota, and pool-capacity aware), the store's
        compare-and-set decides which worker wins it.  Returns
        ``(exp_id, resuming)`` or None."""
        exp_id = self.broker.claim_next(self.queue_entries())
        if exp_id is None:
            return None
        record = self.store.claim_specific(exp_id)
        if record is None:
            return None  # another worker won the CAS; retry next tick
        with self._requeue_lock:
            resuming = exp_id in self._requeue
            self._requeue.discard(exp_id)
        return exp_id, resuming

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            resume_id = self._next_resume()
            if resume_id is not None:
                self._execute(resume_id, resuming=True)
                continue
            claimed = self._claim_next()
            if claimed is None:
                self._wake.wait(CLAIM_TICK_SECONDS)
                self._wake.clear()
                continue
            exp_id, resuming = claimed
            self._execute(exp_id, resuming=resuming)

    def _execute(self, exp_id: str, resuming: bool) -> None:
        self._m_running.inc()
        fleet_control: Optional[FleetControl] = None
        if self._fleet_template is not None and self.cluster_workers:
            fleet_control = FleetControl()
            with self._fleets_lock:
                self._fleets[exp_id] = fleet_control
        try:
            run = executor.resume if resuming else executor.execute
            final = run(
                self.store, exp_id, cluster_workers=self.cluster_workers,
                aggregator=self.aggregator, broker=self.broker,
                fleet=self._fleet_template, fleet_control=fleet_control,
            )
        except Exception:
            logger.exception("experiment %s failed", exp_id)
            self._m_finished.inc(status="failed")
        else:
            if final.status == INTERRUPTED:
                # Broker preemption: park the id for automatic
                # re-dispatch once admission lets it back in.
                with self._requeue_lock:
                    self._requeue.add(exp_id)
            else:
                self._m_finished.inc(status=final.status)
                if final.result is not None:
                    self._m_epochs.inc(final.result.get("epochs_trained", 0))
        finally:
            if fleet_control is not None:
                with self._fleets_lock:
                    self._fleets.pop(exp_id, None)
            self._m_running.dec()
            self._wake.set()

    # ------------------------------------------------------------- HTTP API

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        submission = Submission.from_dict(payload)
        try:
            self.broker.admission.admit(
                submission.tenant, self.queue_entries()
            )
        except AdmissionError as exc:
            self.broker.record_rejection(type(exc).__name__)
            raise
        record = self.store.submit(submission)
        self._m_submitted.inc()
        self._wake.set()
        return record.to_dict()

    def broker_status(self) -> Dict[str, Any]:
        """The ``GET /broker`` document: pool, per-experiment lease
        state, admission config, and per-tenant counts."""
        status = self.broker.status()
        status["tenants"] = self.broker.admission.tenant_counts(
            self.queue_entries()
        )
        fleets = self.fleet_status()
        if fleets:
            status["fleets"] = fleets
        return status

    # --------------------------------------------------------------- fleets

    def _admission_queue_depth(self) -> int:
        """Unmet slot demand — the signal the pool autoscaler scales
        on.  Denominated in *slots*, not experiments: a queued run
        wants its full machine count, a running one wants whatever the
        pool has not granted it yet.  (An experiment-count signal
        starves multi-machine runs: the pool never grows past the
        number of experiments, and two 4-machine runs on a 2-slot pool
        preempt each other forever.)"""
        demand = 0
        for entry in self.queue_entries():
            if entry.status == QUEUED:
                demand += entry.machines
            else:
                demand += max(
                    0, entry.machines - self.broker.pool.held(entry.exp_id)
                )
        return demand

    def fleet_status(self) -> Dict[str, Dict[str, Any]]:
        """Per-experiment fleet/cost status published by live runs."""
        with self._fleets_lock:
            controls = dict(self._fleets)
        return {
            exp_id: control.status() for exp_id, control in controls.items()
        }

    def revoke_spot(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Queue one spot revocation against a live cluster run
        (``POST /fleet/revoke``).  The body may name an ``experiment``
        (required when several fleets are live), a ``machine_id``
        (otherwise the runtime picks an up spot worker), and a
        ``grace`` window in experiment seconds."""
        if not isinstance(payload, dict):
            raise ValueError("revocation body must be a JSON object")
        exp_id = payload.get("experiment")
        with self._fleets_lock:
            if exp_id is None:
                if len(self._fleets) != 1:
                    raise ValueError(
                        "specify 'experiment': "
                        f"{len(self._fleets)} fleet(s) live"
                    )
                exp_id, control = next(iter(self._fleets.items()))
            else:
                control = self._fleets.get(exp_id)
                if control is None:
                    raise KeyError(f"no live fleet for experiment {exp_id!r}")
        grace = payload.get("grace")
        machine_id = payload.get("machine_id")
        control.request_revocation(
            machine_id=machine_id,
            grace=None if grace is None else float(grace),
        )
        return {
            "experiment": exp_id,
            "machine_id": machine_id,
            "grace": grace,
            "queued": True,
        }

    def refresh_service_telemetry(self) -> None:
        """Refresh per-tenant broker gauges and mirror the service's
        own registry into the telemetry plane as node ``service`` so
        ``repro top`` (which reads ``/telemetry``) sees broker_* series
        alongside per-experiment nodes."""
        self.broker.export_tenant_gauges(self.queue_entries())
        self.aggregator.ingest_registry(
            "service", self.metrics, meta={"role": "service"}
        )

    # ------------------------------------------------------------- studies

    def submit_study(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Accept a sweep-lab study and run it on a background thread.

        The body names either a built-in study (``{"study": "..."}``)
        or carries a full spec (``{"spec": {...}}``), plus an optional
        ``max_workers`` for the cell fan-out.
        """
        import uuid

        from ..lab import StudySpec, builtin_study

        if not isinstance(payload, dict):
            raise ValueError("study submission must be a JSON object")
        if ("study" in payload) == ("spec" in payload):
            raise ValueError("provide exactly one of 'study' or 'spec'")
        if "study" in payload:
            spec = builtin_study(payload["study"])
        else:
            if not isinstance(payload["spec"], dict):
                raise ValueError("'spec' must be a JSON object")
            spec = StudySpec.from_dict(payload["spec"])
        max_workers = payload.get("max_workers")
        if max_workers is not None and (
            not isinstance(max_workers, int) or max_workers < 1
        ):
            raise ValueError("max_workers must be a positive integer")
        # Studies run in-process (not on the slot pool), but their
        # submissions still pass the tenant's rate-limit gate.
        tenant = getattr(spec, "tenant", "default")
        granted, retry_after = \
            self.broker.admission.rate_limiter.check(tenant)
        if not granted:
            self.broker.record_rejection("RateLimited")
            raise RateLimited(tenant, retry_after)
        study_id = f"study-{uuid.uuid4().hex[:8]}"
        out_dir = self.store.root / "studies" / study_id
        record = {
            "id": study_id,
            "name": spec.name,
            "tenant": tenant,
            "status": "queued",
            "cells_total": len(spec.cells()),
            "cells_done": 0,
            "out_dir": str(out_dir),
            "winner": None,
            "error": None,
        }
        with self._studies_lock:
            self._studies[study_id] = record
        self._m_studies_submitted.inc()
        thread = threading.Thread(
            target=self._run_study,
            args=(study_id, spec, out_dir, max_workers),
            name=study_id,
            daemon=True,
        )
        thread.start()
        return dict(record)

    def list_studies(self) -> List[Dict[str, Any]]:
        with self._studies_lock:
            return [dict(record) for record in self._studies.values()]

    def get_study(self, study_id: str) -> Optional[Dict[str, Any]]:
        with self._studies_lock:
            record = self._studies.get(study_id)
            return None if record is None else dict(record)

    def _set_study(self, study_id: str, **updates: Any) -> None:
        with self._studies_lock:
            self._studies[study_id].update(updates)

    def _run_study(
        self,
        study_id: str,
        spec: Any,
        out_dir: Path,
        max_workers: Optional[int],
    ) -> None:
        from ..lab import CellStore, StudyRunner, analyze, render_json
        from ..lab import render_markdown as lab_render_markdown
        from ..observability import Recorder

        # Share the service registry so lab_cells_done / lab_cell_
        # seconds stream onto GET /metrics while the sweep runs.
        recorder = Recorder(metrics=self.metrics)
        try:
            store = CellStore(out_dir)
            runner = StudyRunner(
                spec, store, recorder=recorder, max_workers=max_workers
            )
            self._set_study(study_id, status="running")

            def on_cell(progress) -> None:
                self._set_study(study_id, cells_done=progress.done)

            runner.run(on_cell=on_cell)
            analysis = analyze(spec, store)
            store.write_report(
                lab_render_markdown(analysis), render_json(analysis)
            )
            self._set_study(
                study_id,
                status="completed",
                winner=analysis.overall_winner,
            )
            self._m_studies_finished.inc(status="completed")
        except Exception as exc:
            logger.exception("study %s failed", study_id)
            self._set_study(
                study_id,
                status="failed",
                error=f"{type(exc).__name__}: {exc}",
            )
            self._m_studies_finished.inc(status="failed")


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`ExperimentService`."""

    server: _ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------- plumbing

    @property
    def service(self) -> ExperimentService:
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.service._m_http.inc(method=self.command, code=str(code))

    def _send_json(
        self,
        code: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send(
            code,
            (encode_event(payload) + "\n").encode("utf-8"),
            "application/json",
            headers=headers,
        )

    def _send_error_json(
        self,
        code: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_json(code, {"error": message}, headers=headers)

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw)

    def _dispatch(self, method: str) -> None:
        try:
            self._route(method)
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:
            logger.exception("unhandled error serving %s %s", method, self.path)
            try:
                self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            except Exception:
                pass

    # --------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _route(self, method: str) -> None:
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            from .. import __version__

            self._send_json(200, {"status": "ok", "version": __version__})
            return
        if method == "GET" and path == "/metrics":
            self.service.refresh_service_telemetry()
            body = self.service.aggregator.render_text(
                base=self.service.metrics
            ).encode("utf-8")
            self._send(200, body, "text/plain; version=0.0.4")
            return
        if method == "GET" and path == "/telemetry":
            self.service.refresh_service_telemetry()
            self._send_json(200, self.service.aggregator.to_dict())
            return
        if method == "GET" and path == "/broker":
            self._send_json(200, self.service.broker_status())
            return
        if method == "GET" and path == "/fleet":
            self._send_json(200, {"fleets": self.service.fleet_status()})
            return
        if method == "POST" and path == "/fleet/revoke":
            self._post_fleet_revoke()
            return
        if path == "/experiments":
            if method == "POST":
                self._post_experiment()
                return
            if method == "GET":
                records = self.service.store.list_experiments()
                self._send_json(
                    200,
                    {
                        "experiments": [
                            record.to_dict(include_result=False)
                            for record in records
                        ]
                    },
                )
                return
        if path == "/studies":
            if method == "POST":
                self._post_study()
                return
            if method == "GET":
                self._send_json(200, {"studies": self.service.list_studies()})
                return
        match = _STUDY_ROUTE.match(path)
        if match is not None and method == "GET":
            study_id, report = match.group(1), match.group(2)
            record = self.service.get_study(study_id)
            if record is None:
                self._send_error_json(404, f"unknown study {study_id!r}")
                return
            if not report:
                self._send_json(200, record)
                return
            report_path = Path(record["out_dir"]) / "report.md"
            if record["status"] != "completed" or not report_path.exists():
                self._send_error_json(
                    409,
                    f"study {study_id!r} has no report yet "
                    f"(status: {record['status']})",
                )
                return
            self._send(
                200, report_path.read_bytes(), "text/markdown; charset=utf-8"
            )
            return
        match = _EXPERIMENT_ROUTE.match(path)
        if match is not None:
            exp_id, events = match.group(1), match.group(2)
            if events and method == "GET":
                self._get_events(exp_id, parsed.query)
                return
            if not events and method == "GET":
                self._get_experiment(exp_id, parsed.query)
                return
            if not events and method == "DELETE":
                self._delete_experiment(exp_id)
                return
        self._send_error_json(404, f"no route for {method} {path}")

    def _post_experiment(self) -> None:
        try:
            payload = self._read_json_body()
            record = self.service.submit(payload)
        except AdmissionError as exc:
            headers = {}
            if exc.retry_after is not None:
                headers["Retry-After"] = str(int(round(exc.retry_after)))
            self._send_error_json(exc.http_status, str(exc), headers=headers)
            return
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, str(exc))
            return
        self._send_json(201, record)

    def _post_study(self) -> None:
        try:
            payload = self._read_json_body()
            record = self.service.submit_study(payload)
        except AdmissionError as exc:
            headers = {}
            if exc.retry_after is not None:
                headers["Retry-After"] = str(int(round(exc.retry_after)))
            self._send_error_json(exc.http_status, str(exc), headers=headers)
            return
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, str(exc))
            return
        self._send_json(201, record)

    def _post_fleet_revoke(self) -> None:
        try:
            payload = self._read_json_body()
            record = self.service.revoke_spot(payload)
        except KeyError as exc:
            self._send_error_json(404, str(exc.args[0]))
            return
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, str(exc))
            return
        self._send_json(202, record)

    def _get_experiment(self, exp_id: str, query: str) -> None:
        raw_wait = parse_qs(query).get("wait", ["0"])[0]
        try:
            wait = float(raw_wait)
        except ValueError:
            wait = -1.0
        if not 0.0 <= wait < float("inf"):
            self._send_error_json(
                400, f"wait must be a non-negative number, got {raw_wait!r}"
            )
            return
        store = self.service.store
        status = store.status(exp_id)
        if status is None:
            self._send_error_json(404, f"unknown experiment {exp_id!r}")
            return
        if wait > 0 and status not in TERMINAL_STATUSES:
            store.wait_for_status_change(
                exp_id, status, min(wait, MAX_WAIT_SECONDS)
            )
        body = store.get_encoded(exp_id) + "\n"
        self._send(200, body.encode("utf-8"), "application/json")

    def _get_events(self, exp_id: str, query: str) -> None:
        if self.service.store.status(exp_id) is None:
            self._send_error_json(404, f"unknown experiment {exp_id!r}")
            return
        try:
            offset = int(parse_qs(query).get("offset", ["0"])[0])
        except ValueError:
            self._send_error_json(400, "offset must be an integer")
            return
        lines = self.service.store.journal_lines(exp_id, max(offset, 0))
        body = "".join(line + "\n" for line in lines)
        self._send(200, body.encode("utf-8"), "application/x-ndjson")

    def _delete_experiment(self, exp_id: str) -> None:
        try:
            record = self.service.store.request_cancel(exp_id)
        except KeyError:
            self._send_error_json(404, f"unknown experiment {exp_id!r}")
            return
        except ValueError as exc:
            self._send_error_json(409, str(exc))
            return
        self._send_json(202, record.to_dict(include_result=False))
