"""Remote synthesis farm: graph tasks, byte-identical curves, input checks, store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import library_by_name, nangate45
from repro.distributed import SynthesisFarm
from repro.distributed.farm import task_graph
from repro.net import FarmWorkerServer
from repro.net.farm import RemoteFarmPool
from repro.net.protocol import RemoteError, connect
from repro.prefix import REGULAR_STRUCTURES, brent_kung, graph_to_json, kogge_stone, sklansky
from repro.prefix.serialize import graph_digest
from repro.synth import (
    EvaluationBackend,
    SynthesisCache,
    SynthesisEvaluator,
    Synthesizer,
    synthesize_curve,
)
from tests.conftest import random_walk_graph


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


def remote_backend(addresses, store=None, library="nangate45"):
    """A backend whose misses run on the farm workers at ``addresses``."""
    return EvaluationBackend(
        library_by_name(library), store=store, runner=RemoteFarmPool(addresses, library)
    )


class TestRemoteCurves:
    def test_graph_tasks_match_local(self, worker, expected):
        graphs, points = expected
        backend = remote_backend([addr(worker)])
        try:
            curves = backend.evaluate_many(graphs)
            assert [c.points() for c in curves] == points
            stats = backend.stats()
            assert stats["backend"] == "farm-remote[1]"
            assert stats["unique_designs"] == 3  # duplicate sklansky deduped
            assert stats["synthesized"] == 3
            assert stats["remote"]["worker_opt_seconds"] > 0
            assert stats["remote"]["workers"] == 1
        finally:
            backend.close()

    def test_cache_routes_around_the_wire(self, worker, expected):
        graphs, points = expected
        backend = remote_backend([addr(worker)], store=SynthesisCache())
        try:
            backend.evaluate_many(graphs)
            first_dispatched = backend.synthesized
            backend.evaluate_many(graphs)
            assert first_dispatched == 3
            assert backend.synthesized == 3  # all hits, nothing crossed
            assert backend.cache_hits == 3
        finally:
            backend.close()

    def test_evaluator_routes_through_remote_farm(self, worker, expected):
        graphs, points = expected
        backend = remote_backend([addr(worker)], store=SynthesisCache())
        evaluator = SynthesisEvaluator(nangate45(), backend=backend)
        try:
            metrics = evaluator.evaluate_many(graphs)
            assert len(metrics) == len(graphs)
            stats = backend.stats()
            assert stats["backend"] == "farm-remote[1]" and stats["synthesized"] == 3
            # The backend's store keeps a repeat batch local.
            evaluator.evaluate_many(graphs)
            stats = backend.stats()
            assert stats["synthesized"] == 3 and stats["cache_hits"] == 3
        finally:
            backend.close()

    def test_runner_face(self):
        pool = RemoteFarmPool(["127.0.0.1:1", ("127.0.0.1", 2)], "industrial8nm")
        assert pool.addresses == [("127.0.0.1", 1), ("127.0.0.1", 2)]
        assert (pool.width, pool.name) == (2, "farm-remote[2]")
        assert pool.totals == {
            "worker_setup_seconds": 0.0, "worker_opt_seconds": 0.0, "redispatched_tasks": 0,
        }
        pool.close()  # never dialed: nothing to close
        with pytest.raises(ValueError, match="at least one"):
            RemoteFarmPool([], "nangate45")

    def test_mismatched_remote_pool_rejected(self):
        with pytest.raises(ValueError, match="library 'industrial8nm' != backend library 'nangate45'"):
            EvaluationBackend(nangate45(), runner=RemoteFarmPool(["h:1"], "industrial8nm"))
        with pytest.raises(ValueError, match="synthesizer 'other' != backend synthesizer 'openphysyn'"):
            EvaluationBackend(
                nangate45(), runner=RemoteFarmPool(["h:1"], "nangate45", {"name": "other"})
            )

    def test_dead_worker_falls_back_to_local_synthesis(self, expected):
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0))
        server.start()
        dead = addr(server)
        server.stop()
        backend = remote_backend([dead])
        try:
            curves = backend.evaluate_many(graphs)
            assert [c.points() for c in curves] == points  # byte-identical
            assert backend.runner.last["redispatched_tasks"] == 3
            assert backend.stats()["remote"]["redispatched_tasks"] == 3
        finally:
            backend.close()


class TestWireFailures:
    def test_redial_after_drop(self, expected):
        """An idle drop closes the socket; the next batch redials and
        still matches byte for byte."""
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0))
        server.start()
        backend = remote_backend([addr(server)])
        try:
            backend.evaluate_many(graphs)
            backend.runner._drop(0)
            curves = backend.evaluate_many(graphs)
            assert [c.points() for c in curves] == points
            assert backend.runner.last["redispatched_tasks"] == 0
        finally:
            backend.close()
            server.stop()

    def test_mid_flight_drop_retries_on_a_fresh_socket(self, expected):
        """A wire failure *during* a call redials once and resends the chunk."""
        graphs, points = expected
        server = FarmWorkerServer(("127.0.0.1", 0))
        server.start()
        backend = remote_backend([addr(server)])
        try:
            backend.evaluate_many(graphs)
            pool = backend.runner
            # Poison the live socket so the next call fails mid-flight and
            # takes the drop-then-redial path.
            pool._conns[0].sock.close()
            curves = backend.evaluate_many(graphs)
            assert [c.points() for c in curves] == points
            assert pool.last["redispatched_tasks"] == 0
        finally:
            backend.close()
            server.stop()


class TestWorkerInputCheck:
    """A worker synthesizes only what parses as a legal prefix graph."""

    @pytest.mark.parametrize(
        "task, problem",
        [
            ({"digest": "ab" * 32, "netlist": {"version": 1}}, "carries no graph"),
            ({"digest": "ab" * 32}, "carries no graph"),
            ({"graph": "{not json"}, "not a legal prefix graph"),
            ({"graph": '{"n": 4, "interior_nodes": [[9, 1]]}'}, "outside the lower triangle"),
            ("sklansky", "carries no graph"),
        ],
        ids=["netlist", "digest-only", "malformed-json", "illegal-graph", "not-a-dict"],
    )
    def test_bad_task_gets_an_error_and_the_connection_serves_on(self, worker, expected, task, problem):
        graphs, points = expected
        conn, _ = connect(worker.address, role="dispatcher")
        params = {"library": "nangate45", "synth_kwargs": {}}
        try:
            with pytest.raises(RemoteError, match=problem):
                conn.call("synth_batch", {**params, "tasks": [task]})
            reply = conn.call("synth_batch", {**params, "tasks": [{"graph": graph_to_json(graphs[0])}]})
            assert [[tuple(p) for p in pts] for pts in reply["points"]] == [points[0]]
        finally:
            conn.close(bye=True)


class TestGraphTask:
    """The one task payload: graph JSON, parsed back to the same design."""

    @pytest.mark.parametrize("name", sorted(REGULAR_STRUCTURES))
    def test_wire_roundtrip_keeps_the_graph_and_the_backend_key(self, name):
        graph = REGULAR_STRUCTURES[name](32)
        parsed = task_graph({"graph": graph_to_json(graph)})
        assert parsed.key() == graph.key()
        backend = EvaluationBackend(nangate45(), Synthesizer())
        # The key a store-backed worker files the curve under.
        assert (graph_digest(parsed), "nangate45", Synthesizer().name) == backend.key(graph)

    def test_dispatcher_ships_graph_json_only(self, worker, expected, monkeypatch):
        graphs, points = expected
        shipped = []
        synth_chunks = RemoteFarmPool.synth_chunks

        def recording(pool, chunks):
            shipped.extend(task for chunk in chunks for task in chunk)
            return synth_chunks(pool, chunks)

        monkeypatch.setattr(RemoteFarmPool, "synth_chunks", recording)
        backend = remote_backend([addr(worker)])
        try:
            curves = backend.evaluate_many(graphs)
        finally:
            backend.close()
        assert [c.points() for c in curves] == points
        assert shipped == [{"graph": graph_to_json(g)} for g in graphs[:3]]


class TestWorkerStore:
    def test_repeat_design_served_from_disk_under_the_backend_key(self, tmp_path, expected):
        graphs, points = expected
        lib = nangate45()
        backend = EvaluationBackend(lib, Synthesizer())
        keys = {backend.key(g) for g in graphs}
        server = FarmWorkerServer(("127.0.0.1", 0), store_dir=str(tmp_path))
        server.start()
        address = f"{server.address[0]}:{server.address[1]}"
        try:
            for round_ in range(2):
                # A fresh runner each round: no dispatcher-side cache to hit.
                remote = remote_backend([address])
                try:
                    curves = remote.evaluate_many(graphs)
                finally:
                    remote.close()
                assert [c.points() for c in curves] == points
                assert server.store_hits == 3 * round_
            store = server.store
            assert set(store._index) == keys
            assert store.appends == 3 and store.rewrites == 0
            for graph, pts in zip(graphs, points):
                assert store.get(backend.key(graph)).points() == pts
        finally:
            server.stop()


class TestMultiWorker:
    def test_chunks_spread_over_workers(self, expected):
        graphs, points = expected
        servers = [FarmWorkerServer(("127.0.0.1", 0)) for _ in range(2)]
        for s in servers:
            s.start()
        backend = remote_backend([addr(s) for s in servers])
        try:
            curves = backend.evaluate_many(graphs)
            assert [c.points() for c in curves] == points
            # 3 unique designs in one chunk per worker: 2 + 1.
            assert [s.tasks_served for s in servers] == [2, 1]
        finally:
            backend.close()
            for s in servers:
                s.stop()

    def test_dead_worker_redispatches_to_survivor(self, expected):
        """One of two workers dies before dispatch: its chunk is
        re-dispatched to the survivor and the batch still completes with
        byte-identical curves — the dispatch half of lease reclamation."""
        graphs, points = expected
        servers = [FarmWorkerServer(("127.0.0.1", 0)) for _ in range(2)]
        for s in servers:
            s.start()
        backend = remote_backend([addr(s) for s in servers])
        try:
            servers[1].stop()  # dies before its first chunk
            curves = backend.evaluate_many(graphs)
            assert [c.points() for c in curves] == points
            assert backend.runner.last["redispatched_tasks"] == 1
            assert servers[0].tasks_served == 3  # the survivor did it all
        finally:
            backend.close()
            servers[0].stop()


def path_corpus():
    rng = np.random.default_rng(26)
    graphs = []
    for n in (8, 32):
        graphs += [REGULAR_STRUCTURES[name](n) for name in sorted(REGULAR_STRUCTURES)]
        graphs += [random_walk_graph(n, 2 * n, rng) for _ in range(2)]
    return graphs


@pytest.mark.parametrize("library", ["nangate45", "industrial8nm"])
def test_every_dispatch_path_returns_synthesize_curve_bytes(library):
    """In-process synthesis, the pool runner, the remote runner with 1 and
    2 workers, a mid-flight drop, a dead worker's redispatch and the
    no-survivor local rescue all return ``synthesize_curve(g, lib).points()``
    exactly."""
    graphs = path_corpus()
    lib = library_by_name(library)
    want = [synthesize_curve(g, lib).points() for g in graphs]
    servers = [FarmWorkerServer(("127.0.0.1", 0)) for _ in range(2)]
    for s in servers:
        s.start()
    addresses = [addr(s) for s in servers]

    def run(runner, before=None):
        backend = EvaluationBackend(lib, runner=runner)
        try:
            if before is not None:
                before(backend)
            return [c.points() for c in backend.evaluate_many(graphs)]
        finally:
            backend.close()

    def remote(workers):
        return RemoteFarmPool(workers, library)

    try:
        assert run(None) == want
        assert run(SynthesisFarm(library, num_workers=1)) == want
        assert run(remote(addresses[:1])) == want
        assert run(remote(addresses)) == want

        def poison(backend):
            backend.evaluate_many(graphs[:1])
            backend.runner._conns[0].sock.close()

        assert run(remote(addresses[:1]), poison) == want
        servers[1].stop()
        dead_one = remote(addresses)
        assert run(dead_one) == want
        assert dead_one.totals["redispatched_tasks"] > 0
        servers[0].stop()
        rescued = remote(addresses)
        assert run(rescued) == want
        assert rescued.totals["redispatched_tasks"] == len({g.key() for g in graphs})
    finally:
        for s in servers:
            if not s.closing:
                s.stop()
