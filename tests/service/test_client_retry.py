"""ServiceClient backpressure retry: which statuses retry, how the
backoff schedule composes with Retry-After, and the cap."""

from __future__ import annotations

import pytest

from repro.service.client import ServiceClient, ServiceError


def scripted_client(errors, max_retries=4, **kwargs):
    """A client whose transport fails with the scripted errors, then
    succeeds; sleeps are recorded, not slept."""
    sleeps = []
    client = ServiceClient(
        "http://test", max_retries=max_retries,
        sleep=sleeps.append, **kwargs
    )
    script = list(errors)

    def fake_request_once(method, path, payload=None, timeout=None):
        if script:
            raise script.pop(0)
        return b'{"ok": true}'

    client._request_once = fake_request_once
    return client, sleeps


def test_retries_429_and_503_until_success():
    client, sleeps = scripted_client([
        ServiceError(429, "rate limited", retry_after=2.0),
        ServiceError(503, "queue full", retry_after=5.0),
    ])
    assert client._request_json("POST", "/experiments") == {"ok": True}
    assert client.retries == 2
    # Attempt 0: base 0.5 floored at Retry-After 2.0; attempt 1:
    # base 1.0 floored at 5.0.
    assert sleeps == [2.0, 5.0]


def test_backoff_grows_exponentially_without_retry_after():
    client, sleeps = scripted_client(
        [ServiceError(429, "slow down")] * 3, backoff_base=0.5
    )
    client._request_json("GET", "/experiments")
    assert sleeps == [0.5, 1.0, 2.0]


def test_backoff_is_capped():
    client, sleeps = scripted_client(
        [ServiceError(429, "x", retry_after=9999.0)], backoff_cap=30.0
    )
    client._request_json("GET", "/experiments")
    assert sleeps == [30.0]


def test_non_retryable_status_raises_immediately():
    client, sleeps = scripted_client([ServiceError(404, "nope")])
    with pytest.raises(ServiceError) as info:
        client._request_json("GET", "/experiments/x")
    assert info.value.status == 404
    assert sleeps == []
    assert client.retries == 0


def test_retry_budget_is_bounded():
    client, sleeps = scripted_client(
        [ServiceError(429, "busy")] * 10, max_retries=2
    )
    with pytest.raises(ServiceError) as info:
        client._request_json("GET", "/experiments")
    assert info.value.status == 429
    assert len(sleeps) == 2
    assert client.retries == 2


def test_zero_retries_disables_backoff():
    client, sleeps = scripted_client(
        [ServiceError(429, "busy", retry_after=1.0)], max_retries=0
    )
    with pytest.raises(ServiceError):
        client._request_json("GET", "/experiments")
    assert sleeps == []


def test_invalid_max_retries_rejected():
    with pytest.raises(ValueError):
        ServiceClient("http://test", max_retries=-1)
