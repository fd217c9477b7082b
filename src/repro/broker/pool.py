"""The global slot pool: one set of machine slots shared by every
admitted experiment.

Pre-broker, each runtime owned a fixed pool
(:class:`~repro.framework.resource_manager.ResourceManager` built from
``spec.num_machines``).  The broker inverts that ownership: the daemon
owns a single :class:`SlotPool` of ``total_slots`` slots, and
experiments *lease* slots from it through revocable
:class:`SlotLease` tokens.

Lease discipline (the invariant the CI broker-smoke job asserts):

* a slot is **allocated** from grant until release — including the
  window where its lease has been *revoked* but the holder has not yet
  acknowledged by releasing it.  ``allocated <= total`` always holds,
  so the pool can never be oversubscribed, even mid-reclaim.
* **revocation** is cooperative: :meth:`revoke` marks leases, the
  holding executor observes them at its next slot sync (checkpoint
  boundary) and shrinks its machine set before releasing.  The
  ``checkpoint_every`` of a submission therefore bounds reclaim
  latency.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..observability import NULL_RECORDER

__all__ = ["SlotLease", "SlotPool"]


@dataclass
class SlotLease:
    """One slot, leased to one experiment.

    Attributes:
        lease_id: unique token (``lease-N``).
        exp_id: holding experiment.
        tenant: tenant the holder belongs to (budget accounting).
        granted_at: wall-clock grant time.
        revoked: set by the broker; the holder must release at its
            next sync.
    """

    lease_id: str
    exp_id: str
    tenant: str
    granted_at: float
    revoked: bool = field(default=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "lease_id": self.lease_id,
            "exp_id": self.exp_id,
            "tenant": self.tenant,
            "granted_at": self.granted_at,
            "revoked": self.revoked,
        }


class SlotPool:
    """Slot accounting for the shared pool (thread-safe).

    Args:
        total_slots: pool capacity; ``None`` means *unlimited* — every
            acquire is granted in full and nothing is ever scarce.
            The daemon runs unlimited unless ``repro serve --slots N``
            caps it, which keeps pre-broker deployments byte-identical.
        clock: wall-clock source (injectable for tests).
        recorder: observability facade carrying the ``broker_slots_*``
            gauges.
    """

    def __init__(self, total_slots: Optional[int] = None, clock=None,
                 recorder=None) -> None:
        if total_slots is not None and total_slots < 1:
            raise ValueError("total_slots must be >= 1 when given")
        import time as _time

        self.total_slots = total_slots
        self._shrink_target: Optional[int] = None
        self._clock = clock if clock is not None else _time.time
        self._lock = threading.Lock()
        self._leases: Dict[str, SlotLease] = {}
        self._counter = itertools.count()
        self._known_tenants: set = set()
        recorder = recorder if recorder is not None else NULL_RECORDER
        metrics = recorder.metrics
        self._m_total = metrics.gauge(
            "broker_slots_total", help="Slot-pool capacity (0 = unlimited)"
        )
        self._m_allocated = metrics.gauge(
            "broker_slots_allocated",
            help="Slots currently leased (incl. revoked-not-yet-released)",
        )
        self._m_tenant_held = metrics.gauge(
            "broker_tenant_slots_held", help="Slots held, by tenant"
        )
        self._m_total.set(float(total_slots or 0))
        self._m_allocated.set(0.0)

    # ------------------------------------------------------------- queries

    @property
    def allocated(self) -> int:
        with self._lock:
            return len(self._leases)

    @property
    def free(self) -> Optional[int]:
        """Free slots, or None when the pool is unlimited."""
        if self.total_slots is None:
            return None
        with self._lock:
            return self.total_slots - len(self._leases)

    @property
    def target_slots(self) -> Optional[int]:
        """Capacity planners should aim at: the pending shrink target
        while one is outstanding, the live capacity otherwise."""
        with self._lock:
            if self._shrink_target is not None:
                return self._shrink_target
            return self.total_slots

    @property
    def shrink_pending(self) -> bool:
        with self._lock:
            return self._shrink_target is not None

    def held(self, exp_id: str, include_revoked: bool = True) -> int:
        with self._lock:
            return sum(
                1 for lease in self._leases.values()
                if lease.exp_id == exp_id
                and (include_revoked or not lease.revoked)
            )

    # ------------------------------------------------------------ commands

    def resize(self, total: Optional[int]) -> Optional[int]:
        """Retarget pool capacity without ever stranding a lease.

        Growing (and lifting the cap with ``None``) takes effect
        immediately.  Shrinking below the allocated count records a
        *pending* shrink instead: ``total_slots`` floors at the live
        allocation — the ``allocated <= total`` invariant never breaks —
        and steps down as holders release, reaching ``total`` once
        enough leases are back.  Planners (the broker's rebalance, the
        autoscaler) read :attr:`target_slots` so they keep revoking
        toward the goal while the ledger drains.

        Returns the capacity now in effect.
        """
        if total is not None and total < 1:
            raise ValueError("total must be >= 1 when given")
        with self._lock:
            if total is None:
                self.total_slots = None
                self._shrink_target = None
            else:
                allocated = len(self._leases)
                if total >= allocated:
                    self.total_slots = total
                    self._shrink_target = None
                else:
                    self.total_slots = allocated
                    self._shrink_target = total
            self._m_total.set(float(self.total_slots or 0))
            return self.total_slots

    def acquire(self, exp_id: str, tenant: str, count: int) -> List[SlotLease]:
        """Grant up to ``count`` leases to ``exp_id`` (possibly fewer,
        possibly none — the caller decides whether a partial grant is
        enough to run)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        granted: List[SlotLease] = []
        with self._lock:
            for _ in range(count):
                if (
                    self.total_slots is not None
                    and len(self._leases) >= self.total_slots
                ):
                    break
                lease = SlotLease(
                    lease_id=f"lease-{next(self._counter):06d}",
                    exp_id=exp_id,
                    tenant=tenant,
                    granted_at=self._clock(),
                )
                self._leases[lease.lease_id] = lease
                granted.append(lease)
            self._update_gauges()
        return granted

    def release(self, lease_ids) -> int:
        """Return leases to the pool; unknown ids are ignored (a
        release can race a revoke acknowledgement).  Returns the number
        actually released."""
        released = 0
        with self._lock:
            for lease_id in list(lease_ids):
                if self._leases.pop(lease_id, None) is not None:
                    released += 1
            self._settle_shrink()
            self._update_gauges()
        return released

    def release_experiment(self, exp_id: str) -> int:
        """Release every lease ``exp_id`` still holds."""
        with self._lock:
            doomed = [
                lease_id
                for lease_id, lease in self._leases.items()
                if lease.exp_id == exp_id
            ]
            for lease_id in doomed:
                del self._leases[lease_id]
            self._settle_shrink()
            self._update_gauges()
        return len(doomed)

    def revoke(self, exp_id: str, count: int) -> List[SlotLease]:
        """Mark up to ``count`` of ``exp_id``'s unrevoked leases as
        revoked (newest first, so the oldest slots survive).  The slots
        stay allocated until the holder releases them."""
        if count < 0:
            raise ValueError("count must be >= 0")
        marked: List[SlotLease] = []
        with self._lock:
            candidates = sorted(
                (
                    lease for lease in self._leases.values()
                    if lease.exp_id == exp_id and not lease.revoked
                ),
                key=lambda lease: lease.granted_at,
                reverse=True,
            )
            for lease in candidates[:count]:
                lease.revoked = True
                marked.append(lease)
        return marked

    def revoked_leases(self, exp_id: str) -> List[SlotLease]:
        with self._lock:
            return [
                lease for lease in self._leases.values()
                if lease.exp_id == exp_id and lease.revoked
            ]

    # ------------------------------------------------------------ internal

    def _settle_shrink(self) -> None:
        # Caller holds the lock.  Step capacity down toward a pending
        # shrink target as leases come back; clear the target once met.
        if self._shrink_target is None:
            return
        allocated = len(self._leases)
        self.total_slots = max(self._shrink_target, allocated)
        if allocated <= self._shrink_target:
            self._shrink_target = None
        self._m_total.set(float(self.total_slots or 0))

    def _update_gauges(self) -> None:
        # Caller holds the lock.
        self._m_allocated.set(float(len(self._leases)))
        per_tenant: Dict[str, int] = {}
        for lease in self._leases.values():
            per_tenant[lease.tenant] = per_tenant.get(lease.tenant, 0) + 1
        # Zero tenants that no longer hold anything so the gauge does
        # not freeze at the last non-zero value.
        self._known_tenants.update(per_tenant)
        for tenant in self._known_tenants:
            self._m_tenant_held.set(float(per_tenant.get(tenant, 0)), tenant=tenant)

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "total_slots": self.total_slots,
                "target_slots": (
                    self._shrink_target if self._shrink_target is not None
                    else self.total_slots
                ),
                "allocated": len(self._leases),
                "free": (
                    None if self.total_slots is None
                    else self.total_slots - len(self._leases)
                ),
                "leases": [
                    lease.to_dict()
                    for lease in sorted(
                        self._leases.values(), key=lambda l: l.lease_id
                    )
                ],
            }
