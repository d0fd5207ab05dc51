"""Distributed infrastructure: synthesis farm and batched acting."""

import numpy as np
import pytest

from repro.cells import library_by_name, nangate45
from repro.distributed import BatchedActor, SynthesisFarm
from repro.distributed.farm import chunk_tasks, task_graph
from repro.distributed.pipeline import CollectStats
from repro.env import PrefixEnv
from repro.prefix import REGULAR_STRUCTURES, brent_kung, graph_to_json, ripple_carry, sklansky
from repro.prefix.serialize import graph_digest
from repro.rl import ReplayBuffer, ScalarizedDoubleDQN
from repro.synth import (
    AnalyticalEvaluator,
    EvaluationBackend,
    SynthesisCache,
    SynthesisEvaluator,
    Synthesizer,
    synthesize_curve,
)
from tests.conftest import random_walk_graph


def direct_points(graphs, lib=None):
    lib = lib or nangate45()
    return [synthesize_curve(g, lib).points() for g in graphs]


class TestSynthesisFarm:
    def test_pool_matches_serial(self):
        graphs = [sklansky(8), brent_kung(8), ripple_carry(8)]
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            parallel = farm.run(graphs)
        assert [c.points() for c in parallel] == direct_points(graphs)

    @pytest.mark.parametrize("workers", [-1, 0])
    def test_bad_workers(self, workers):
        with pytest.raises(ValueError, match="num_workers"):
            SynthesisFarm(num_workers=workers)

    def test_runner_face(self):
        farm = SynthesisFarm("nangate45", num_workers=3)
        assert (farm.width, farm.name) == (3, "farm-pool[3]")
        farm.close()  # never started: nothing to shut down

    @pytest.mark.parametrize("name", sorted(REGULAR_STRUCTURES))
    def test_task_roundtrip_keeps_the_graph_and_the_backend_key(self, name):
        graph = REGULAR_STRUCTURES[name](32)
        parsed = task_graph({"graph": graph_to_json(graph)})
        assert parsed.key() == graph.key()
        backend = EvaluationBackend(nangate45(), Synthesizer())
        assert (graph_digest(parsed), "nangate45", Synthesizer().name) == backend.key(graph)

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
    def test_a_task_without_a_legal_graph_is_refused_naming_it(self, task, problem):
        with pytest.raises(ValueError, match=problem):
            task_graph(task)

    @pytest.mark.parametrize("library", ["nangate45", "industrial8nm"])
    def test_in_process_and_pool_return_synthesize_curve_bytes(self, library):
        """Both dispatch paths return ``synthesize_curve(g, lib).points()`` exactly."""
        rng = np.random.default_rng(0)
        graphs = []
        for n in (8, 32):
            graphs += [REGULAR_STRUCTURES[name](n) for name in sorted(REGULAR_STRUCTURES)]
            graphs += [random_walk_graph(n, 2 * n, rng) for _ in range(2)]
        lib = library_by_name(library)
        want = [synthesize_curve(g, lib).points() for g in graphs]
        for runner in (None, SynthesisFarm(library, num_workers=1)):
            backend = EvaluationBackend(lib, runner=runner)
            try:
                assert [c.points() for c in backend.evaluate_many(graphs)] == want
            finally:
                backend.close()

    def test_chunks_keep_order_one_per_worker(self):
        graphs = [sklansky(8), brent_kung(8), ripple_carry(8)]
        for width, sizes in [(1, [3]), (2, [2, 1]), (3, [1, 1, 1]), (8, [1, 1, 1])]:
            chunks = chunk_tasks(graphs, width)
            assert [len(c) for c in chunks] == sizes
            assert [task_graph(t).key() for c in chunks for t in c] == [g.key() for g in graphs]


class TestBatchedActor:
    def _setup(self, num_envs=3, n=6):
        envs = [PrefixEnv(n, AnalyticalEvaluator(), horizon=8, rng=i) for i in range(num_envs)]
        agent = ScalarizedDoubleDQN(n, blocks=0, channels=4, rng=0)
        return envs, agent

    def test_collect_counts_steps(self):
        envs, agent = self._setup()
        actor = BatchedActor(envs, agent, rng=0)
        stats = actor.collect(rounds=5)
        assert stats.env_steps == 15
        assert stats.num_envs == 3
        assert stats.steps_per_second > 0

    def test_fills_buffer(self):
        envs, agent = self._setup()
        actor = BatchedActor(envs, agent, rng=0)
        buffer = ReplayBuffer(100)
        actor.collect(rounds=4, buffer=buffer)
        assert len(buffer) == 12

    def test_transitions_sampleable_and_trainable(self):
        envs, agent = self._setup()
        actor = BatchedActor(envs, agent, rng=0)
        buffer = ReplayBuffer(100)
        actor.collect(rounds=6, buffer=buffer, epsilon=0.5)
        loss = agent.train_step(buffer.sample(8))
        assert np.isfinite(loss)

    def test_width_mismatch_rejected(self):
        envs, _ = self._setup(n=6)
        agent = ScalarizedDoubleDQN(8, blocks=0, channels=4, rng=0)
        with pytest.raises(ValueError):
            BatchedActor(envs, agent)

    def test_empty_envs_rejected(self):
        agent = ScalarizedDoubleDQN(6, blocks=0, channels=4, rng=0)
        with pytest.raises(ValueError):
            BatchedActor([], agent)

    @pytest.mark.parametrize("num_envs, rounds", [(1, 3), (3, 5), (4, 0)])
    def test_collect_reads_the_clock_once_at_each_end(self, num_envs, rounds, monkeypatch):
        """``wall_seconds`` is one ``perf_counter`` pair around the rounds;
        nothing on the acting path reads the clock in between."""
        envs, agent = self._setup(num_envs)
        actor = BatchedActor(envs, agent, rng=0)
        reads = []

        def clock():
            reads.append(None)
            return 2.5 * len(reads)

        monkeypatch.setattr("repro.distributed.pipeline.time.perf_counter", clock)
        stats = actor.collect(rounds=rounds)
        assert len(reads) == 2
        assert stats.wall_seconds == 2.5
        assert stats.steps_per_second == num_envs * rounds / 2.5

    def test_no_elapsed_time_is_no_throughput(self):
        assert CollectStats(env_steps=12, wall_seconds=0.0, num_envs=3).steps_per_second == 0.0

    def test_archives_accumulate_across_envs(self):
        envs, agent = self._setup()
        actor = BatchedActor(envs, agent, rng=0)
        actor.collect(rounds=6, epsilon=1.0)
        assert all(env.archive.num_seen > 6 for env in envs)


class TestFarmDispatchLayer:
    """Dedup, cache routing and pool reuse of a pool-backed backend."""

    def test_pool_dedups_duplicate_graphs(self):
        graphs = [sklansky(8), brent_kung(8)] * 3
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            backend = EvaluationBackend(nangate45(), runner=farm)
            curves = backend.evaluate_many(graphs)
        stats = backend.stats()
        assert stats["designs"] == 6
        assert stats["unique_designs"] == 2
        assert stats["synthesized"] == 2
        # Duplicates map to the deduped result, order preserved.
        assert curves[0] is curves[2] is curves[4]
        assert curves[1] is curves[3] is curves[5]
        assert not np.allclose(curves[0].areas, curves[1].areas)

    def test_pool_dedup_matches_serial_results(self):
        graphs = [sklansky(8), sklansky(8), brent_kung(8), sklansky(8)]
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            pooled = EvaluationBackend(nangate45(), runner=farm).evaluate_many(graphs)
        assert [c.points() for c in pooled] == direct_points(graphs)

    def test_cache_routing_skips_dispatch(self):
        cache = SynthesisCache()
        graphs = [sklansky(8), brent_kung(8)]
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            backend = EvaluationBackend(nangate45(), store=cache, runner=farm)
            first = backend.evaluate_many(graphs)
            assert (backend.synthesized, backend.cache_hits) == (2, 0)
            second = backend.evaluate_many(graphs)
        assert (backend.synthesized, backend.cache_hits) == (2, 2)
        assert len(cache) == 2
        assert [c.points() for c in first] == [c.points() for c in second]

    def test_cache_shared_with_evaluator(self):
        cache = SynthesisCache()
        lib = nangate45()
        evaluator = SynthesisEvaluator(lib, cache=cache)
        evaluator.evaluate(sklansky(8))
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            backend = EvaluationBackend(lib, store=cache, runner=farm)
            backend.evaluate_many([sklansky(8)])
        # The backend reused the evaluator's cached curve: nothing dispatched.
        assert (backend.cache_hits, backend.synthesized) == (1, 0)

    def test_pool_reused_across_batches(self):
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            farm.run([sklansky(8)])
            pool = farm._pool
            farm.run([brent_kung(8)])
            assert farm._pool is pool

    def test_pool_created_lazily_without_context_manager(self):
        farm = SynthesisFarm("nangate45", num_workers=2)
        try:
            assert farm._pool is None
            curves = farm.run([sklansky(8)])
            assert farm._pool is not None
            assert len(curves) == 1
        finally:
            farm.close()

    def test_unknown_library_rejected_in_pool_mode(self):
        with SynthesisFarm("no_such_lib", num_workers=1) as farm:
            with pytest.raises(KeyError):
                farm.run([sklansky(8)])


class TestPoolBackendCounters:
    def test_cumulative_counters_across_batches(self):
        cache = SynthesisCache()
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            backend = EvaluationBackend(nangate45(), store=cache, runner=farm)
            backend.evaluate_many([sklansky(8), sklansky(8), brent_kung(8)])
            backend.evaluate_many([sklansky(8)])
        stats = backend.stats()
        assert stats["backend"] == "farm-pool[2]"
        assert stats["batches"] == 2
        assert stats["designs"] == 4
        assert stats["unique_designs"] == 3  # 2 in batch one, 1 in batch two
        assert stats["dedup_saved"] == 1
        assert stats["cache_hits"] == 1  # batch-two sklansky came from cache
        assert stats["cache_misses"] == 2
        assert stats["synthesized"] == 2
        assert stats["cache"]["entries"] == 2
        assert stats["cache"]["hits"] == cache.hits
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert "remote" not in stats  # a same-host pool has no totals


class TestEvaluatorFarmRouting:
    def test_curve_many_routes_through_pooled_farm(self):
        lib = nangate45()
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            backend = EvaluationBackend(lib, store=SynthesisCache(), runner=farm)
            evaluator = SynthesisEvaluator(lib, backend=backend)
            metrics = evaluator.evaluate_many([sklansky(8), sklansky(8), brent_kung(8)])
            assert backend.stats()["batches"] == 1
            assert backend.stats()["unique_designs"] == 2
        assert metrics[0] == metrics[1]
        # Results agree with the local (farmless) path.
        local = SynthesisEvaluator(lib)
        assert metrics == local.evaluate_many([sklansky(8), sklansky(8), brent_kung(8)])

    def test_mismatched_farm_rejected(self):
        with pytest.raises(ValueError, match="library 'industrial8nm' != backend library 'nangate45'"):
            EvaluationBackend(nangate45(), runner=SynthesisFarm("industrial8nm", 1))
        with pytest.raises(ValueError, match="synthesizer 'other' != backend synthesizer 'openphysyn'"):
            EvaluationBackend(
                nangate45(),
                runner=SynthesisFarm("nangate45", 1, synth_kwargs={"name": "other"}),
            )
        matching = SynthesisFarm("nangate45", 1, synth_kwargs={"name": "other"})
        EvaluationBackend(nangate45(), Synthesizer(name="other"), runner=matching)


class TestEvaluatorBatching:
    def test_evaluate_many_dedups_lookups(self):
        from repro.synth import SynthesisCache, SynthesisEvaluator

        cache = SynthesisCache()
        evaluator = SynthesisEvaluator(nangate45(), cache=cache)
        graphs = [sklansky(8)] * 4 + [brent_kung(8)] * 2
        metrics = evaluator.evaluate_many(graphs)
        assert len(metrics) == 6
        assert metrics[0] == metrics[1] == metrics[2] == metrics[3]
        # One cache miss per unique graph, not per input graph.
        assert cache.misses == 2
        singles = [evaluator.evaluate(g) for g in graphs]
        assert metrics == singles

    def test_cache_get_put_many(self):
        from repro.synth import SynthesisCache

        cache = SynthesisCache(max_entries=3)
        cache.put_many([(("k", i), i) for i in range(5)])
        assert len(cache) == 3  # LRU evicted the oldest two
        values = cache.get_many([("k", 4), ("k", 0)])
        assert values == [4, None]
        assert cache.hits == 1 and cache.misses == 1
