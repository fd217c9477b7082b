"""HTTP client for the experiment service (stdlib ``urllib`` only).

:class:`ServiceClient` wraps the daemon's JSON API for programmatic use
and for the ``repro submit`` / ``status`` / ``watch`` CLI verbs.  HTTP
errors surface as :class:`ServiceError` carrying the status code and
the server's error message.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional

from .store import TERMINAL_STATUSES

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP API call failed.

    Attributes:
        status: HTTP status code (0 when the daemon was unreachable).
        retry_after: seconds the server asked us to wait (from a
            ``Retry-After`` header on 429/503), else None.
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


#: Statuses the broker uses for backpressure; the client retries these.
_RETRYABLE_STATUSES = (429, 503)


class ServiceClient:
    """Talks to one ``repro serve`` daemon.

    Broker backpressure (429 rate-limit/quota, 503 queue-full) is
    retried transparently with bounded exponential backoff, honouring
    the server's ``Retry-After`` header; other errors surface as
    :class:`ServiceError` immediately.  ``max_retries=0`` disables
    retrying.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_retries: int = 4,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        #: Total backpressure retries performed (observability/tests).
        self.retries = 0

    # ------------------------------------------------------------- plumbing

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as resp:
                return resp.read()
        except urllib.error.HTTPError as err:
            body = err.read()
            message = f"HTTP {err.code}"
            try:
                message = json.loads(body).get("error", message)
            except (ValueError, AttributeError):
                pass
            retry_after = None
            raw = err.headers.get("Retry-After") if err.headers else None
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    pass
            raise ServiceError(err.code, message, retry_after) from None
        except urllib.error.URLError as err:
            raise ServiceError(
                0, f"cannot reach service at {self.base_url}: {err.reason}"
            ) from None

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload, timeout)
            except ServiceError as err:
                if (
                    err.status not in _RETRYABLE_STATUSES
                    or attempt >= self.max_retries
                ):
                    raise
                # Exponential backoff, floored at the server's ask and
                # capped so a misbehaving Retry-After cannot park us.
                delay = self.backoff_base * (2.0 ** attempt)
                if err.retry_after is not None:
                    delay = max(delay, err.retry_after)
                self._sleep(min(delay, self.backoff_cap))
                self.retries += 1
                attempt += 1

    def _request_json(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        return json.loads(self._request(method, path, payload, timeout))

    # ------------------------------------------------------------ endpoints

    def health(self) -> Dict[str, Any]:
        return self._request_json("GET", "/healthz")

    def submit(self, submission: Dict[str, Any]) -> Dict[str, Any]:
        """POST a submission; returns the created experiment record."""
        return self._request_json("POST", "/experiments", submission)

    def list_experiments(self) -> List[Dict[str, Any]]:
        return self._request_json("GET", "/experiments")["experiments"]

    def get(self, exp_id: str, wait: Optional[float] = None) -> Dict[str, Any]:
        """One experiment record.  With ``wait`` the daemon holds the
        answer until the status changes or ``wait`` seconds pass (a
        terminal experiment answers at once); daemons before 1.7 ignore
        it and answer at once."""
        if wait is None:
            return self._request_json("GET", f"/experiments/{exp_id}")
        return self._request_json(
            "GET", f"/experiments/{exp_id}?wait={float(wait)}",
            timeout=self.timeout + wait,
        )

    def events(self, exp_id: str, offset: int = 0) -> List[Dict[str, Any]]:
        """Journal events from ``offset`` (NDJSON decoded client-side)."""
        raw = self._request(
            "GET", f"/experiments/{exp_id}/events?offset={int(offset)}"
        )
        return [
            json.loads(line)
            for line in raw.decode("utf-8").splitlines()
            if line.strip()
        ]

    def cancel(self, exp_id: str) -> Dict[str, Any]:
        return self._request_json("DELETE", f"/experiments/{exp_id}")

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics").decode("utf-8")

    def telemetry(self) -> Dict[str, Any]:
        """JSON telemetry aggregate: per-node latest metrics, meta,
        ring-buffer history (what ``repro top`` polls)."""
        return self._request_json("GET", "/telemetry")

    def broker_status(self) -> Dict[str, Any]:
        """Resource-broker status: slot pool, per-experiment leases and
        targets, admission config, per-tenant counts."""
        return self._request_json("GET", "/broker")

    # -------------------------------------------------------------- studies

    def submit_study(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """POST a sweep-lab study (``{"study": name}`` or
        ``{"spec": {...}}``); returns the created study record."""
        return self._request_json("POST", "/studies", payload)

    def list_studies(self) -> List[Dict[str, Any]]:
        return self._request_json("GET", "/studies")["studies"]

    def get_study(self, study_id: str) -> Dict[str, Any]:
        return self._request_json("GET", f"/studies/{study_id}")

    def study_report(self, study_id: str) -> str:
        """The finished study's markdown report."""
        return self._request("GET", f"/studies/{study_id}/report").decode(
            "utf-8"
        )

    def watch_study(
        self,
        study_id: str,
        poll_seconds: float = 0.5,
        timeout: Optional[float] = None,
        on_update: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Poll a study until it completes or fails."""
        deadline = None if timeout is None else time.monotonic() + timeout
        last_seen: Optional[str] = None
        while True:
            record = self.get_study(study_id)
            fingerprint = json.dumps(
                [record["status"], record["cells_done"]], sort_keys=True
            )
            if fingerprint != last_seen:
                last_seen = fingerprint
                if on_update is not None:
                    on_update(record)
            if record["status"] in ("completed", "failed"):
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"study {study_id} still {record['status']} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll_seconds)

    # ---------------------------------------------------------------- watch

    def watch(
        self,
        exp_id: str,
        poll_seconds: float = 0.5,
        timeout: Optional[float] = None,
        on_update: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Follow an experiment until it reaches a terminal status.

        The first read answers at once; every later one long-polls
        (``get(wait=poll_seconds)``), so a status change — the terminal
        one included — arrives as soon as it happens, and a run that
        does not change is re-read every ``poll_seconds``.  Against a
        daemon that ignores ``wait`` (before 1.7) the rest of the
        interval is slept instead.

        Args:
            exp_id: experiment id.
            poll_seconds: longest interval between updates.
            timeout: give up after this many wall seconds (None = wait
                forever).
            on_update: called with the record whenever the
                status or checkpoint changes.

        Returns:
            The terminal experiment record.

        Raises:
            TimeoutError: the experiment did not finish in time.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        last_seen: Optional[str] = None
        last_status: Optional[str] = None
        while True:
            asked = time.monotonic()
            record = self.get(
                exp_id, wait=None if last_status is None else poll_seconds
            )
            fingerprint = json.dumps(
                [record["status"], record.get("checkpoint")], sort_keys=True
            )
            if fingerprint != last_seen:
                last_seen = fingerprint
                if on_update is not None:
                    on_update(record)
            if record["status"] in TERMINAL_STATUSES or record["status"] == "interrupted":
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"experiment {exp_id} still {record['status']} after "
                    f"{timeout:.0f}s"
                )
            if record["status"] == last_status:
                # Answered early with no change: pace like a plain poll.
                self._sleep(
                    max(0.0, poll_seconds - (time.monotonic() - asked))
                )
            last_status = record["status"]
