"""Slot-pool lease discipline: grant, release, revoke, gauges."""

from __future__ import annotations

import pytest

from repro.broker import SlotPool
from repro.observability import Recorder


def test_bounded_pool_never_oversubscribes():
    pool = SlotPool(total_slots=3)
    a = pool.acquire("exp-a", "alice", 2)
    b = pool.acquire("exp-b", "bob", 5)
    assert len(a) == 2
    assert len(b) == 1  # only one slot left
    assert pool.allocated == 3
    assert pool.free == 0
    assert pool.acquire("exp-c", "carol", 1) == []


def test_unlimited_pool_grants_everything():
    pool = SlotPool()
    leases = pool.acquire("exp-a", "alice", 50)
    assert len(leases) == 50
    assert pool.free is None
    assert pool.total_slots is None


def test_release_returns_slots():
    pool = SlotPool(total_slots=2)
    leases = pool.acquire("exp-a", "alice", 2)
    assert pool.release([leases[0].lease_id]) == 1
    assert pool.allocated == 1
    # Unknown ids are ignored (release can race a revoke ack).
    assert pool.release(["lease-nope", leases[0].lease_id]) == 0
    assert pool.release_experiment("exp-a") == 1
    assert pool.allocated == 0


def test_revoked_slots_stay_allocated_until_released():
    pool = SlotPool(total_slots=2)
    pool.acquire("exp-a", "alice", 2)
    marked = pool.revoke("exp-a", 1)
    assert len(marked) == 1
    assert marked[0].revoked
    # The revoked-not-yet-released slot still counts as allocated:
    # nobody else can steal it mid-reclaim.
    assert pool.allocated == 2
    assert pool.acquire("exp-b", "bob", 1) == []
    assert pool.held("exp-a") == 2
    assert pool.held("exp-a", include_revoked=False) == 1
    pool.release(lease.lease_id for lease in pool.revoked_leases("exp-a"))
    assert pool.allocated == 1
    assert len(pool.acquire("exp-b", "bob", 1)) == 1


def test_revoke_newest_first():
    clock = iter(range(100))
    pool = SlotPool(total_slots=3, clock=lambda: float(next(clock)))
    leases = pool.acquire("exp-a", "alice", 3)
    marked = pool.revoke("exp-a", 2)
    marked_ids = {lease.lease_id for lease in marked}
    # The oldest lease survives.
    assert leases[0].lease_id not in marked_ids
    assert marked_ids == {leases[1].lease_id, leases[2].lease_id}


def test_holdings_excludes_revoked():
    pool = SlotPool(total_slots=4)
    pool.acquire("exp-a", "alice", 3)
    pool.acquire("exp-b", "bob", 1)
    pool.revoke("exp-a", 2)
    assert pool.held("exp-a", include_revoked=False) == 1
    assert pool.held("exp-b", include_revoked=False) == 1


def test_gauges_track_allocation():
    recorder = Recorder()
    pool = SlotPool(total_slots=4, recorder=recorder)
    registry = recorder.metrics
    assert registry.gauge("broker_slots_total").value() == 4.0
    leases = pool.acquire("exp-a", "alice", 3)
    assert registry.gauge("broker_slots_allocated").value() == 3.0
    held = registry.gauge("broker_tenant_slots_held")
    assert held.value(tenant="alice") == 3.0
    pool.release([lease.lease_id for lease in leases])
    assert registry.gauge("broker_slots_allocated").value() == 0.0
    # Tenant gauge zeroes instead of freezing at its last value.
    assert held.value(tenant="alice") == 0.0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        SlotPool(total_slots=0)
    pool = SlotPool(total_slots=1)
    with pytest.raises(ValueError):
        pool.acquire("exp-a", "alice", -1)
    with pytest.raises(ValueError):
        pool.revoke("exp-a", -1)


def test_to_dict_snapshot():
    pool = SlotPool(total_slots=2)
    pool.acquire("exp-a", "alice", 1)
    doc = pool.to_dict()
    assert doc["total_slots"] == 2
    assert doc["allocated"] == 1
    assert doc["free"] == 1
    assert doc["leases"][0]["exp_id"] == "exp-a"
    assert doc["leases"][0]["tenant"] == "alice"


# --------------------------------------------------------------- resize


def test_resize_grow_takes_effect_immediately():
    pool = SlotPool(total_slots=2)
    pool.acquire("exp-a", "alice", 2)
    assert pool.resize(4) == 4
    assert pool.total_slots == 4
    assert pool.target_slots == 4
    assert not pool.shrink_pending
    assert len(pool.acquire("exp-b", "bob", 2)) == 2


def test_resize_shrink_never_strands_outstanding_leases():
    pool = SlotPool(total_slots=4)
    leases = pool.acquire("exp-a", "alice", 4)
    # Shrinking below the live allocation floors at it: the
    # allocated <= total invariant never breaks.
    assert pool.resize(2) == 4
    assert pool.total_slots == 4
    assert pool.target_slots == 2
    assert pool.shrink_pending
    assert pool.held("exp-a") == 4  # nobody's lease vanished
    # Capacity steps down as holders release...
    pool.release([leases[0].lease_id])
    assert pool.total_slots == 3
    assert pool.shrink_pending
    pool.release([leases[1].lease_id])
    # ...and settles at the target once enough leases are back.
    assert pool.total_slots == 2
    assert not pool.shrink_pending
    pool.release([leases[2].lease_id])
    assert pool.total_slots == 2  # does not undershoot
    assert pool.allocated == 1


def test_resize_shrink_blocks_new_grants_beyond_target():
    pool = SlotPool(total_slots=3)
    pool.acquire("exp-a", "alice", 3)
    pool.resize(1)
    assert pool.acquire("exp-b", "bob", 1) == []


def test_resize_grow_cancels_pending_shrink():
    pool = SlotPool(total_slots=4)
    leases = pool.acquire("exp-a", "alice", 4)
    pool.resize(2)
    assert pool.shrink_pending
    assert pool.resize(6) == 6
    assert not pool.shrink_pending
    pool.release([lease.lease_id for lease in leases])
    assert pool.total_slots == 6


def test_resize_to_none_lifts_cap_and_clears_pending():
    pool = SlotPool(total_slots=2)
    pool.acquire("exp-a", "alice", 2)
    pool.resize(1)
    assert pool.resize(None) is None
    assert pool.total_slots is None
    assert pool.target_slots is None
    assert not pool.shrink_pending
    assert len(pool.acquire("exp-b", "bob", 10)) == 10


def test_resize_rejects_nonpositive_totals():
    pool = SlotPool(total_slots=2)
    with pytest.raises(ValueError, match=">= 1"):
        pool.resize(0)


def test_resize_updates_total_gauge():
    recorder = Recorder()
    pool = SlotPool(total_slots=2, recorder=recorder)
    pool.resize(5)
    assert recorder.metrics.get("broker_slots_total").value() == 5.0


def test_release_experiment_settles_pending_shrink():
    pool = SlotPool(total_slots=4)
    pool.acquire("exp-a", "alice", 4)
    pool.resize(1)
    pool.release_experiment("exp-a")
    assert pool.total_slots == 1
    assert not pool.shrink_pending
