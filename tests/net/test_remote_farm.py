"""Remote synthesis farm: byte-identical curves, prepared shipping, caches."""

from __future__ import annotations

import pytest

from repro.cells import nangate45
from repro.distributed import SynthesisFarm
from repro.net import FarmWorkerServer
from repro.prefix import brent_kung, kogge_stone, sklansky
from repro.synth import SynthesisCache, SynthesisEvaluator, synthesize_curve


@pytest.fixture(scope="module")
def worker():
    server = FarmWorkerServer(("127.0.0.1", 0))
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def expected():
    lib = nangate45()
    graphs = [sklansky(8), brent_kung(8), kogge_stone(8), sklansky(8)]
    return graphs, [synthesize_curve(g, lib).points() for g in graphs]


def addr(worker):
    return f"{worker.address[0]}:{worker.address[1]}"


class TestRemoteCurves:
    def test_prepared_shipping_matches_local(self, worker, expected):
        graphs, points = expected
        farm = SynthesisFarm("nangate45", num_workers=0, remote_workers=[addr(worker)])
        try:
            curves = farm.evaluate_curves(graphs)
            assert [c.points() for c in curves] == points
            stats = farm.last_stats
            assert stats.mode == "remote[1]"
            assert stats.unique_graphs == 3  # duplicate sklansky deduped
            assert stats.dispatched == 3
            assert stats.worker_opt_seconds > 0
            assert farm.stats()["remote"]["workers"] == 1
        finally:
            farm.close()

    def test_cache_routes_around_the_wire(self, worker, expected):
        graphs, points = expected
        cache = SynthesisCache()
        farm = SynthesisFarm(
            "nangate45", num_workers=0, remote_workers=[addr(worker)], cache=cache
        )
        try:
            farm.evaluate_curves(graphs)
            first_dispatched = farm.last_stats.dispatched
            farm.evaluate_curves(graphs)
            assert first_dispatched == 3
            assert farm.last_stats.dispatched == 0  # all hits, nothing crossed
            assert farm.last_stats.cache_hits == 3
        finally:
            farm.close()

    def test_prepared_cache_hits_on_repeats(self, expected):
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0))
        server.start()
        farm = SynthesisFarm(
            "nangate45",
            num_workers=0,
            remote_workers=[f"{server.address[0]}:{server.address[1]}"],
        )
        try:
            farm.evaluate_curves(graphs)
            assert farm.last_stats.prepared_hits == 0
            farm.evaluate_curves(graphs)  # no dispatcher cache: re-dispatches
            assert farm.last_stats.prepared_hits == 3
            assert [c.points() for c in farm.evaluate_curves(graphs)] == points
        finally:
            farm.close()
            server.stop()

    def test_evaluator_routes_through_remote_farm(self, worker, expected):
        graphs, points = expected
        farm = SynthesisFarm("nangate45", num_workers=0, remote_workers=[addr(worker)])
        evaluator = SynthesisEvaluator(nangate45(), farm=farm)
        try:
            metrics = evaluator.evaluate_many(graphs)
            assert len(metrics) == len(graphs)
            assert evaluator.backend is farm.backend
            stats = farm.stats()
            assert stats["backend"] == "farm-remote[1]" and stats["synthesized"] == 3
            # The farm adopted the evaluator's cache: a repeat batch stays local.
            evaluator.evaluate_many(graphs)
            stats = farm.stats()
            assert stats["synthesized"] == 3 and stats["cache_hits"] == 3
        finally:
            farm.close()

    def test_remote_conflicts_with_local_pool(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SynthesisFarm("nangate45", num_workers=2, remote_workers=["h:1"])

    def test_dead_worker_falls_back_to_local_synthesis(self, expected):
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0))
        server.start()
        dead = f"{server.address[0]}:{server.address[1]}"
        server.stop()
        farm = SynthesisFarm("nangate45", num_workers=0, remote_workers=[dead])
        try:
            curves = farm.evaluate_curves(graphs)
            assert [c.points() for c in curves] == points  # byte-identical
            assert farm.last_stats.redispatched == 3
            assert farm.stats()["remote"]["redispatched_tasks"] == 3
        finally:
            farm.close()


class TestShippedDigestElision:
    """Dispatcher-side payload elision over the worker's prepared LRU."""

    def test_repeat_batches_ship_digest_only(self, expected):
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0))
        server.start()
        farm = SynthesisFarm(
            "nangate45",
            num_workers=0,
            remote_workers=[f"{server.address[0]}:{server.address[1]}"],
        )
        try:
            farm.evaluate_curves(graphs)
            assert farm.last_stats.shipped_elided == 0
            # No dispatcher cache: the repeat batch re-dispatches, but the
            # payloads are elided (the worker already holds the netlists).
            curves = farm.evaluate_curves(graphs)
            assert farm.last_stats.shipped_elided == 3
            assert farm.last_stats.prepared_hits == 3
            assert [c.points() for c in curves] == points
            assert farm.stats()["remote"]["shipped_elided"] == 3
        finally:
            farm.close()
            server.stop()

    def test_worker_eviction_triggers_full_reship(self, expected):
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0), prepared_cache_entries=1)
        server.start()
        farm = SynthesisFarm(
            "nangate45",
            num_workers=0,
            remote_workers=[f"{server.address[0]}:{server.address[1]}"],
        )
        try:
            farm.evaluate_curves(graphs)
            # The worker's 1-entry LRU evicted all but the last digest; the
            # dispatcher's elided repeats bounce off "missing" and are
            # re-shipped in full — byte-identical results either way.
            curves = farm.evaluate_curves(graphs)
            assert [c.points() for c in curves] == points
        finally:
            farm.close()
            server.stop()

    def test_disabled_prepared_cache_disables_elision(self, expected):
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0), prepared_cache_entries=0)
        server.start()
        farm = SynthesisFarm(
            "nangate45",
            num_workers=0,
            remote_workers=[f"{server.address[0]}:{server.address[1]}"],
        )
        try:
            farm.evaluate_curves(graphs)
            curves = farm.evaluate_curves(graphs)
            assert farm.last_stats.shipped_elided == 0
            assert [c.points() for c in curves] == points
        finally:
            farm.close()
            server.stop()

    def test_redial_after_drop_invalidates_shipped_lru(self, expected):
        """The satellite fix: a dropped connection wipes the per-worker
        shipped LRU *before* the retry payload is built, so a reconnect
        (idle drop, worker restart) never replays a stale prepared id."""
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0))
        server.start()
        farm = SynthesisFarm(
            "nangate45",
            num_workers=0,
            remote_workers=[f"{server.address[0]}:{server.address[1]}"],
        )
        try:
            farm.evaluate_curves(graphs)
            pool = farm._remote
            assert len(pool._shipped[0]) == 3
            # Simulate the idle drop the redial-on-use path covers.
            pool._drop(0)
            assert len(pool._shipped[0]) == 0
            # The next batch redials and ships full payloads again (no
            # digest-only replay) — and still matches byte-for-byte.
            curves = farm.evaluate_curves(graphs)
            assert farm.last_stats.shipped_elided == 0
            assert [c.points() for c in curves] == points
        finally:
            farm.close()
            server.stop()

    def test_mid_flight_drop_rebuilds_payload_on_retry(self, expected):
        """A wire failure *during* a call retries with payloads rebuilt
        against the wiped LRU — the worker that answers the retry may be a
        fresh process that never saw the digests."""
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0))
        server.start()
        farm = SynthesisFarm(
            "nangate45",
            num_workers=0,
            remote_workers=[f"{server.address[0]}:{server.address[1]}"],
        )
        try:
            farm.evaluate_curves(graphs)
            pool = farm._remote
            # Poison the live socket so the next call fails mid-flight and
            # takes the drop-then-redial path.
            pool._conns[0].sock.close()
            curves = farm.evaluate_curves(graphs)
            assert [c.points() for c in curves] == points
            assert farm.last_stats.shipped_elided == 0  # retry shipped full
        finally:
            farm.close()
            server.stop()


class TestMultiWorker:
    def test_chunks_spread_over_workers(self, expected):
        graphs, points = expected
        servers = [FarmWorkerServer(("127.0.0.1", 0)) for _ in range(2)]
        for s in servers:
            s.start()
        farm = SynthesisFarm(
            "nangate45",
            num_workers=0,
            remote_workers=[f"{s.address[0]}:{s.address[1]}" for s in servers],
        )
        try:
            curves = farm.evaluate_curves(graphs)
            assert [c.points() for c in curves] == points
            assert farm.last_stats.chunks == 2
            assert all(s.tasks_served > 0 for s in servers)
        finally:
            farm.close()
            for s in servers:
                s.stop()

    def test_dead_worker_redispatches_to_survivor(self, expected):
        """One of two workers dies before dispatch: its chunks are
        re-dispatched to the survivor and the batch still completes with
        byte-identical curves — the dispatch half of lease reclamation."""
        graphs, points = expected
        servers = [FarmWorkerServer(("127.0.0.1", 0)) for _ in range(2)]
        for s in servers:
            s.start()
        farm = SynthesisFarm(
            "nangate45",
            num_workers=0,
            remote_workers=[f"{s.address[0]}:{s.address[1]}" for s in servers],
            chunk_size=1,
        )
        try:
            servers[1].stop()  # dies before its first chunk
            curves = farm.evaluate_curves(graphs)
            assert [c.points() for c in curves] == points
            assert farm.last_stats.redispatched > 0
            assert servers[0].tasks_served == 3  # the survivor did it all
        finally:
            farm.close()
            servers[0].stop()
