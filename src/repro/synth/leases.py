"""Claim/lease dedup over a shared :class:`repro.synth.SynthesisCache`.

Several evaluation clients (cluster actor processes, in-process actors)
routinely miss the shared cache on the *same* design at the same time —
epsilon-greedy exploration revisits the same neighborhoods — and each
miss then pays a full synthesis. :class:`SharedCacheService` turns the
shared cache into a coordination point that eliminates that duplicate
work: a miss is answered with exactly one of

- the cached **value** (a hit after all),
- a granted **lease** — *you* synthesize this design and
  :meth:`put <SharedCacheService.put>` the result, or
- **wait** — another client holds the lease; claim again with
  ``wait=True`` and the call *parks server-side* until the value (or, if
  the holder died, the lease) is yours — no client-side polling.

Long-poll waiting: a ``claim(..., wait=True)`` whose every key is held
by someone else blocks on a condition variable until a ``put`` or an
owner release resolves something (or a lease ages out, or
``wait_timeout`` passes). Wire clients bound the park below their
heartbeat window and simply re-claim, so a waiter burns zero CPU and
wakes within microseconds of fulfilment instead of a poll interval.

Lease reclamation has two triggers, both riding existing machinery:

- **disconnect** — the learner server's per-connection teardown calls
  :meth:`release_owner`, so an actor dropped by the heartbeat timeout
  frees its leases immediately;
- **age** — a lease older than ``lease_timeout`` (the cluster wires its
  heartbeat timeout in here) is reclaimed lazily at the next claim, which
  covers a holder that is alive but wedged mid-synthesis.

The service is transport-agnostic: :class:`repro.net.learner.LearnerServer`
exposes it over the framed protocol, while :class:`LocalServiceClient`
adapts it for in-process use (tests, benchmarks, thread actors).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

from repro import obs
from repro.synth.cache import SynthesisCache

#: Exactly the keys of :meth:`SharedCacheService.stats` (schema pin).
STATS_KEYS = (
    "claim_batches",
    "claim_keys",
    "granted",
    "fulfilled",
    "released",
    "reclaimed",
    "waits",
    "polls",
    "parks",
    "active",
)


@dataclass
class _Lease:
    lease_id: int
    owner: object
    granted_at: float


class SharedCacheService:
    """A :class:`SynthesisCache` with claim/lease duplicate suppression.

    Thread-safe. ``owner`` is any hashable token identifying a client (the
    learner server uses one token per connection); all of an owner's
    leases can be released at once when the owner goes away.
    """

    def __init__(self, cache: "SynthesisCache | None" = None, lease_timeout: float = 60.0):
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self.cache = cache if cache is not None else SynthesisCache()
        self.lease_timeout = lease_timeout
        self._lock = threading.Lock()
        # Long-poll waiters park here; put/release_owner wake them.
        self._cond = threading.Condition(self._lock)
        self._leases: "dict[tuple, _Lease]" = {}
        self._ids = itertools.count(1)
        # Accounting (under the lock): what the dedup layer saved/served.
        self.claim_batches = 0      # counted claim calls (first sightings)
        self.claim_keys = 0         # keys in counted claim calls
        self.leases_granted = 0     # "go synthesize" answers handed out
        self.leases_fulfilled = 0   # leases resolved by a put
        self.leases_released = 0    # dropped because the owner went away
        self.leases_reclaimed = 0   # expired (holder wedged) and re-grantable
        self.lease_waits = 0        # counted claims told to wait (dup suppressed)
        self.lease_polls = 0        # uncounted, non-parking re-claims (poll loops)
        self.lease_parks = 0        # wait=True claims that actually parked

    def _resolve(self, keys, owner, counted: bool, tick_waits: bool) -> "list[dict]":
        """One resolution pass over ``keys``; callers hold the lock."""
        now = time.monotonic()
        values = (
            self.cache.get_many(keys) if counted else self.cache.peek_many(keys)
        )
        out: "list[dict]" = []
        for key, value in zip(keys, values):
            if value is not None:
                # The value may have arrived through a plain put while a
                # lease lingered; the lease is moot either way.
                self._leases.pop(key, None)
                out.append({"curve": value})
                continue
            lease = self._leases.get(key)
            if lease is not None and now - lease.granted_at > self.lease_timeout:
                self._leases.pop(key)
                self.leases_reclaimed += 1
                obs.counter("leases.reclaimed").inc()
                lease = None
            if lease is None or lease.owner == owner:
                # Grant (or refresh the same owner's claim — a retry
                # after a wire error must not deadlock on itself).
                lease = _Lease(next(self._ids), owner, now)
                self._leases[key] = lease
                self.leases_granted += 1
                obs.counter("leases.granted").inc()
                out.append({"lease": lease.lease_id})
            else:
                if tick_waits:
                    self.lease_waits += 1
                out.append({"wait": True})
        return out

    def _earliest_expiry(self, keys) -> "float | None":
        """Soonest lease-age expiry among waited keys (lock held)."""
        expiry = None
        for key in keys:
            lease = self._leases.get(key)
            if lease is None:
                continue
            at = lease.granted_at + self.lease_timeout
            if expiry is None or at < expiry:
                expiry = at
        return expiry

    def claim(
        self,
        keys: "list[tuple]",
        owner,
        counted: bool = True,
        wait: bool = False,
        wait_timeout: "float | None" = None,
    ) -> "list[dict]":
        """Resolve each key to a value, a granted lease, or "wait".

        ``counted=True`` marks a first sighting: the underlying cache's
        hit/miss statistics tick. Waiting clients re-claim with
        ``counted=False`` (a peek), so waiting never skews cache telemetry.
        Returns one dict per key: ``{"curve": value}``, ``{"lease": id}``
        or ``{"wait": True}``.

        ``wait=True`` is the long-poll contract: if *every* key comes back
        "wait", the call parks on the service's condition variable until a
        :meth:`put` or :meth:`release_owner` resolves something, a held
        lease ages out (the park wakes exactly at the earliest expiry, so
        a wedged holder's reclamation is not delayed by the park), or
        ``wait_timeout`` (default: ``lease_timeout``) passes — whichever
        comes first. Any key resolving to a value or a grantable lease
        returns the whole batch immediately.

        The cache read happens under the service lock, and :meth:`put`
        stores the value *before* popping the lease — so a claim can
        never observe both "no value yet" and "no lease" for a key whose
        holder is mid-publication (which would duplicate the grant).
        """
        keys = [tuple(k) for k in keys]
        with self._cond:
            if counted:
                self.claim_batches += 1
                self.claim_keys += len(keys)
            elif not wait:
                # A poll is an uncounted re-claim from a client that is
                # sleeping between checks; a parked (wait=True) claim is
                # counted under lease_parks instead.
                self.lease_polls += 1
            out = self._resolve(keys, owner, counted=counted, tick_waits=counted)
            if not wait or not keys:
                return out
            deadline = time.monotonic() + (
                wait_timeout if wait_timeout is not None else self.lease_timeout
            )
            parked = False
            while all("wait" in r for r in out):
                now = time.monotonic()
                if now >= deadline:
                    break
                if not parked:
                    parked = True
                    self.lease_parks += 1
                    obs.counter("leases.parks").inc()
                wake = deadline
                expiry = self._earliest_expiry(keys)
                if expiry is not None:
                    wake = min(wake, expiry + 1e-3)
                self._cond.wait(timeout=max(wake - now, 1e-3))
                out = self._resolve(keys, owner, counted=False, tick_waits=False)
            return out

    def put(
        self,
        items: "list[tuple]",
        owner=None,
        lease_ids: "list | None" = None,
    ) -> int:
        """Store ``(key, value)`` pairs, resolving any leases on those keys.

        ``lease_ids`` (aligned with ``items``, entries may be None) is
        advisory bookkeeping — any arriving value resolves the key's lease,
        because waiters only care that the value now exists.

        Ordering contract with :meth:`claim`: the value is stored before
        the lease is popped, so a concurrent claim either sees the value
        or still sees the lease — never a grantable gap.
        """
        items = [(tuple(key), value) for key, value in items]
        self.cache.put_many(items)
        with self._cond:
            fulfilled = 0
            for key, _value in items:
                if self._leases.pop(key, None) is not None:
                    fulfilled += 1
            self.leases_fulfilled += fulfilled
            obs.counter("leases.fulfilled").inc(fulfilled)
            # Wake parked claimers: the values they wait on now exist.
            self._cond.notify_all()
        return fulfilled

    def release_owner(self, owner) -> int:
        """Drop every lease held by ``owner`` (its connection died)."""
        with self._cond:
            doomed = [k for k, lease in self._leases.items() if lease.owner == owner]
            for key in doomed:
                self._leases.pop(key)
            self.leases_released += len(doomed)
            if doomed:
                obs.counter("leases.released").inc(len(doomed))
                obs.emit("leases_released", count=len(doomed))
                # Wake parked claimers: a dead holder's leases are now
                # grantable, and the first waiter to wake inherits them.
                self._cond.notify_all()
            return len(doomed)

    def active_leases(self) -> int:
        with self._lock:
            return len(self._leases)

    def stats(self) -> dict:
        """Lease-layer counters plus the backing cache's own view."""
        with self._lock:
            return {
                "claim_batches": self.claim_batches,
                "claim_keys": self.claim_keys,
                "granted": self.leases_granted,
                "fulfilled": self.leases_fulfilled,
                "released": self.leases_released,
                "reclaimed": self.leases_reclaimed,
                "waits": self.lease_waits,
                "polls": self.lease_polls,
                "parks": self.lease_parks,
                "active": len(self._leases),
            }


class LocalServiceClient:
    """In-process adapter giving a :class:`SharedCacheService` the same
    claim/put face a cluster actor sees over the wire."""

    def __init__(self, service: SharedCacheService, owner):
        self.service = service
        self.owner = owner

    def claim(
        self,
        keys,
        counted: bool = True,
        wait: bool = False,
        wait_timeout: "float | None" = None,
    ):
        return self.service.claim(
            keys, self.owner, counted=counted, wait=wait, wait_timeout=wait_timeout
        )

    def put(self, items, lease_ids=None):
        return self.service.put(items, owner=self.owner, lease_ids=lease_ids)
