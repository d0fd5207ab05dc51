"""SharedCacheService: claim/lease dedup semantics and reclamation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cells import nangate45
from repro.prefix import brent_kung, sklansky
from repro.synth import (
    EvaluationBackend,
    LocalServiceClient,
    SharedCacheService,
    SynthesisCache,
    synthesize_curve,
)

def lease_backend(service, lib, owner="waiter", **kwargs):
    """The front-store + lease-service construction of the one backend."""
    return EvaluationBackend(
        lib, store=SynthesisCache(), service=LocalServiceClient(service, owner), **kwargs
    )


K1 = ("digest-1", "nangate45", "openphysyn")
K2 = ("digest-2", "nangate45", "openphysyn")


class TestClaimSemantics:
    def test_miss_grants_exactly_one_lease(self):
        service = SharedCacheService(SynthesisCache())
        (first,) = service.claim([K1], owner="a")
        assert "lease" in first
        (second,) = service.claim([K1], owner="b")
        assert second == {"wait": True}
        assert service.leases_granted == 1
        assert service.lease_waits == 1

    def test_put_resolves_the_lease_for_waiters(self):
        service = SharedCacheService(SynthesisCache())
        (granted,) = service.claim([K1], owner="a")
        service.put([(K1, "curve")], owner="a", lease_ids=[granted["lease"]])
        (reply,) = service.claim([K1], owner="b")
        assert reply == {"curve": "curve"}
        assert service.leases_fulfilled == 1
        assert service.active_leases() == 0

    def test_hit_skips_the_lease_machinery(self):
        service = SharedCacheService(SynthesisCache())
        service.cache.put(K1, "v")
        (reply,) = service.claim([K1], owner="a")
        assert reply == {"curve": "v"}
        assert service.leases_granted == 0

    def test_same_owner_reclaim_is_idempotent(self):
        # A retry after a wire error must not deadlock on the client's own lease.
        service = SharedCacheService(SynthesisCache())
        (first,) = service.claim([K1], owner="a")
        (again,) = service.claim([K1], owner="a")
        assert "lease" in again and again["lease"] != first["lease"]

    def test_uncounted_claims_do_not_touch_cache_stats(self):
        service = SharedCacheService(SynthesisCache())
        service.claim([K1], owner="a")
        hits, misses = service.cache.hits, service.cache.misses
        service.claim([K1], owner="b", counted=False)
        assert (service.cache.hits, service.cache.misses) == (hits, misses)
        assert service.lease_polls == 1

    def test_mixed_batch(self):
        service = SharedCacheService(SynthesisCache())
        service.cache.put(K2, "cached")
        service.claim([K1], owner="a")
        replies = service.claim([K1, K2], owner="b")
        assert replies[0] == {"wait": True}
        assert replies[1] == {"curve": "cached"}

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            SharedCacheService(SynthesisCache(), lease_timeout=0)


class TestClaimPutAtomicity:
    def test_racing_claims_and_puts_never_double_grant(self):
        """Regression for a claim/put TOCTOU: a claim overlapping another
        client's put must see the value or the still-held lease — never a
        grantable gap. Many threads hammering the same keys must end with
        exactly one grant per key."""
        service = SharedCacheService(SynthesisCache(), lease_timeout=60.0)
        keys = [(f"d{i}", "lib", "synth") for i in range(25)]
        errors = []

        def client(owner):
            try:
                pending = list(keys)
                while pending:
                    replies = service.claim(pending, owner=owner)
                    nxt = []
                    for key, reply in zip(pending, replies):
                        if "lease" in reply:
                            service.put(
                                [(key, f"v-{key[0]}")],
                                owner=owner,
                                lease_ids=[reply["lease"]],
                            )
                        elif "wait" in reply:
                            nxt.append(key)
                    pending = nxt
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(f"c{j}",)) for j in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert service.leases_granted == len(keys)
        assert service.leases_fulfilled == len(keys)
        assert len(service.cache) == len(keys)


class TestReclamation:
    def test_release_owner_frees_leases_for_the_next_claimer(self):
        service = SharedCacheService(SynthesisCache())
        service.claim([K1, K2], owner="dead")
        assert service.active_leases() == 2
        assert service.release_owner("dead") == 2
        (reply,) = service.claim([K1], owner="b")
        assert "lease" in reply

    def test_expired_lease_is_reclaimed_by_age(self):
        service = SharedCacheService(SynthesisCache(), lease_timeout=0.05)
        service.claim([K1], owner="wedged")
        time.sleep(0.08)
        (reply,) = service.claim([K1], owner="b")
        assert "lease" in reply
        assert service.leases_reclaimed == 1


class TestHolderDiesMidSynthesis:
    def test_waiter_inherits_the_lease_and_finishes(self):
        """The acceptance scenario: the lease holder claims, starts
        "synthesizing", and dies; the waiting client must inherit the
        lease via reclamation and produce the (byte-identical) curve."""
        lib = nangate45()
        graphs = [sklansky(8), brent_kung(8)]
        expected = [synthesize_curve(g, lib).points() for g in graphs]
        service = SharedCacheService(SynthesisCache(), lease_timeout=0.2)

        holder = LocalServiceClient(service, "holder")
        waiter_backend = lease_backend(service, lib)

        # The holder claims both designs... and then goes silent forever
        # (process death mid-synthesis: no put, no release).
        replies = holder.claim([waiter_backend.key(g) for g in graphs])
        assert all("lease" in r for r in replies)

        started = time.monotonic()
        curves = waiter_backend.evaluate_many(graphs)
        assert [c.points() for c in curves] == expected
        assert time.monotonic() - started >= 0.1  # it genuinely waited first
        assert waiter_backend.lease_waited == 2
        assert waiter_backend.reclaimed_grants == 2
        assert waiter_backend.synthesized == 2
        assert service.leases_reclaimed == 2

    def test_disconnect_release_beats_the_age_timeout(self):
        """When the server tears the holder's connection down (heartbeat
        timeout), release_owner frees the lease immediately — the waiter
        does not have to sit out the age-based reclamation window."""
        lib = nangate45()
        graph = sklansky(8)
        service = SharedCacheService(SynthesisCache(), lease_timeout=60.0)
        holder = LocalServiceClient(service, "holder")
        backend = lease_backend(service, lib)
        holder.claim([backend.key(graph)])

        def drop_holder():
            time.sleep(0.05)
            service.release_owner("holder")

        threading.Thread(target=drop_holder, daemon=True).start()
        curves = backend.evaluate_many([graph])
        assert curves[0].points() == synthesize_curve(graph, lib).points()
        assert backend.reclaimed_grants == 1

    def test_wait_timeout_is_a_clear_error(self):
        lib = nangate45()
        graph = sklansky(8)
        service = SharedCacheService(SynthesisCache(), lease_timeout=60.0)
        holder = LocalServiceClient(service, "holder")
        backend = lease_backend(service, lib, wait_timeout=0.1)
        holder.claim([backend.key(graph)])
        with pytest.raises(RuntimeError, match="waiting on"):
            backend.evaluate_many([graph])


class TestLongPoll:
    """Server-side parking: a wait=True claim blocks until fulfilment
    instead of returning "wait" for the client to poll on."""

    def test_park_until_put_wakes_within_the_poll_free_window(self):
        service = SharedCacheService(SynthesisCache(), lease_timeout=60.0)
        (granted,) = service.claim([K1], owner="holder")
        got = {}

        def waiter():
            started = time.monotonic()
            (reply,) = service.claim([K1], owner="waiter", wait=True)
            got["reply"] = reply
            got["elapsed"] = time.monotonic() - started

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        time.sleep(0.1)  # let the waiter park
        service.put([(K1, "value")], owner="holder", lease_ids=[granted["lease"]])
        t.join(timeout=5.0)
        assert got["reply"] == {"curve": "value"}
        # Parked, then woken by the put — far inside the 60s lease window.
        assert 0.05 <= got["elapsed"] < 5.0
        assert service.lease_parks == 1
        assert service.lease_polls == 0  # zero client-side polling

    def test_park_deadline_returns_wait(self):
        service = SharedCacheService(SynthesisCache(), lease_timeout=60.0)
        service.claim([K1], owner="holder")
        started = time.monotonic()
        (reply,) = service.claim([K1], owner="waiter", wait=True, wait_timeout=0.15)
        elapsed = time.monotonic() - started
        assert reply == {"wait": True}
        assert 0.1 <= elapsed < 2.0

    def test_park_wakes_on_release_owner(self):
        service = SharedCacheService(SynthesisCache(), lease_timeout=60.0)
        service.claim([K1], owner="holder")
        got = {}

        def waiter():
            (reply,) = service.claim([K1], owner="waiter", wait=True)
            got["reply"] = reply

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        time.sleep(0.05)
        service.release_owner("holder")  # connection teardown path
        t.join(timeout=5.0)
        assert "lease" in got["reply"]  # the waiter inherited the work

    def test_park_wakes_at_lease_expiry_not_the_wait_deadline(self):
        # A wedged (alive but silent) holder: the park must wake at the
        # lease-age expiry, not sit out the much longer wait_timeout.
        service = SharedCacheService(SynthesisCache(), lease_timeout=0.15)
        service.claim([K1], owner="wedged")
        started = time.monotonic()
        (reply,) = service.claim([K1], owner="waiter", wait=True, wait_timeout=30.0)
        elapsed = time.monotonic() - started
        assert "lease" in reply
        assert elapsed < 5.0
        assert service.leases_reclaimed == 1

    def test_any_resolvable_key_returns_the_batch_immediately(self):
        service = SharedCacheService(SynthesisCache(), lease_timeout=60.0)
        service.claim([K1], owner="holder")
        started = time.monotonic()
        replies = service.claim([K1, K2], owner="waiter", wait=True)
        assert replies[0] == {"wait": True}
        assert "lease" in replies[1]
        assert time.monotonic() - started < 1.0

    def test_empty_key_batch_never_parks(self):
        service = SharedCacheService(SynthesisCache(), lease_timeout=60.0)
        assert service.claim([], owner="a", wait=True) == []

    def test_backend_wait_path_uses_parking_not_sleep(self):
        """End to end over the in-process client: the waiter backend gets
        the curve without a single uncounted re-claim (no poll loop)."""
        lib = nangate45()
        graph = sklansky(8)
        service = SharedCacheService(SynthesisCache(), lease_timeout=60.0)
        holder = LocalServiceClient(service, "holder")
        backend = lease_backend(service, lib)
        (granted,) = holder.claim([backend.key(graph)])
        expected = synthesize_curve(graph, lib).points()

        def fulfil():
            time.sleep(0.1)
            holder.put(
                [(backend.key(graph), synthesize_curve(graph, lib))],
                lease_ids=[granted["lease"]],
            )

        threading.Thread(target=fulfil, daemon=True).start()
        curves = backend.evaluate_many([graph])
        assert curves[0].points() == expected
        assert backend.lease_waited == 1
        assert service.lease_parks >= 1
        assert service.lease_polls == 0
