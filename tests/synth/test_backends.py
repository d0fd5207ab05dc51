"""EvaluationBackend seam: byte-identical curves and one stats schema.

One class, several constructions (store only, storeless, store + pool
runner): each must return byte-identical curves for the same design set —
they all bottom out in the same synthesis ladder — and must report the
unified ``STATS_KEYS`` counter schema.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.synth.backend as backend_module
from repro.cells import nangate45
from repro.distributed import SynthesisFarm
from repro.prefix import PrefixGraph, brent_kung, kogge_stone, sklansky
from repro.synth import (
    STATS_KEYS,
    EvaluationBackend,
    SynthesisCache,
    SynthesisEvaluator,
    synthesize_curve,
)

CACHE_KEYS = {"entries", "hits", "misses", "hit_rate"}
COUNTS = ("batches", "designs", "unique_designs", "dedup_saved", "cache_hits", "cache_misses", "synthesized")


@pytest.fixture(scope="module")
def lib():
    return nangate45()


def design_set(n=8):
    graphs = [sklansky(n), brent_kung(n), kogge_stone(n), sklansky(n), brent_kung(n)]
    return graphs


@pytest.fixture(scope="module")
def expected(lib):
    graphs = design_set()
    return graphs, [synthesize_curve(g, lib).points() for g in graphs]


def random_walk(n: int, seed: int) -> PrefixGraph:
    rng = np.random.default_rng(seed)
    g = sklansky(n)
    for _ in range(6):
        actions = [("add", m, l) for m in range(n) for l in range(1, m) if g.can_add(m, l)]
        actions += [
            ("del", m, l) for m in range(n) for l in range(1, m) if g.can_delete(m, l)
        ]
        if not actions:
            break
        kind, m, l = actions[int(rng.integers(len(actions)))]
        g = g.add_node(m, l) if kind == "add" else g.delete_node(m, l)
    return g


def assert_schema(stats):
    for key in STATS_KEYS:
        assert key in stats, f"missing stats key {key!r}"
    assert stats["dedup_saved"] == stats["designs"] - stats["unique_designs"]
    if stats["cache"] is not None:
        assert CACHE_KEYS <= set(stats["cache"])


CONSTRUCTIONS = {
    "store": "local",
    "store+pool-farm": "farm-pool[2]",
}


@pytest.fixture(params=list(CONSTRUCTIONS))
def construction(request, lib):
    """(backend, expected stats name) for each way to build the one class."""
    kind = request.param
    if kind == "store":
        backend = EvaluationBackend(lib, store=SynthesisCache())
    else:
        backend = EvaluationBackend(
            lib, store=SynthesisCache(), runner=SynthesisFarm("nangate45", num_workers=2)
        )
    yield backend, CONSTRUCTIONS[kind]
    backend.close()


class TestConformance:
    """Every construction: same curves, same schema, same counts."""

    def test_curves_schema_and_counts(self, construction, expected):
        backend, name = construction
        graphs, points = expected
        assert [c.points() for c in backend.evaluate_many(graphs)] == points
        # Repeat batches come from the store, still byte-identical.
        assert [c.points() for c in backend.evaluate_many(graphs)] == points
        stats = backend.stats()
        assert_schema(stats)
        assert stats["backend"] == name
        assert stats["batches"] == 2
        assert stats["designs"] == 10 and stats["unique_designs"] == 6
        # 3 unique designs, each synthesized exactly once; the second
        # batch is all store hits.
        assert stats["synthesized"] == stats["cache_misses"] == 3
        assert stats["cache_hits"] == 3
        assert stats["cache"]["entries"] == 3

    def test_property_random_designs_match_direct_synthesis(self, lib):
        @settings(max_examples=6, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
        def check(seed):
            graph = random_walk(8, seed)
            stored = EvaluationBackend(lib, store=SynthesisCache())
            storeless = EvaluationBackend(lib)
            a = stored.evaluate_many([graph])[0]
            b = storeless.evaluate_many([graph])[0]
            assert a.points() == b.points()
            assert a.points() == synthesize_curve(graph, lib).points()

        check()

    def test_storeless_backend_resynthesizes_but_still_dedups(self, lib, expected):
        graphs, points = expected
        backend = EvaluationBackend(lib)
        assert [c.points() for c in backend.evaluate_many(graphs)] == points
        backend.evaluate_many(graphs)
        stats = backend.stats()
        assert stats["synthesized"] == 6 and stats["cache_hits"] == 0
        assert stats["cache"] is None

    def test_evaluator_metrics_agree_across_constructions(self, lib, expected):
        graphs, _points = expected
        with SynthesisFarm("nangate45", num_workers=2) as farm:
            evaluators = [
                SynthesisEvaluator(lib),
                SynthesisEvaluator(lib, backend=EvaluationBackend(lib, store=SynthesisCache(), runner=farm)),
            ]
            metrics = [e.evaluate_many(graphs) for e in evaluators]
        assert metrics[0] == metrics[1]

    def test_a_store_and_a_runner_are_the_whole_construction(self):
        params = inspect.signature(EvaluationBackend).parameters
        assert list(params) == ["library", "synthesizer", "store", "runner"]

    @staticmethod
    def format1_record(counters: dict) -> dict:
        """A format-1 checkpoint's backend record, as ``upgrade`` reads it."""
        from repro.rl.checkpoint import upgrade

        return upgrade({"mode": "sync", "caches": [{"cache": None, "counters": [counters]}]}, 1)["backend"]

    def test_counters_with_retired_lease_keys_load(self, lib):
        """Format-1 records from releases that counted lease traffic keep
        loading: the six live counters are restored, the rest are dropped."""
        backend = EvaluationBackend(lib, store=SynthesisCache())
        counters = dict(
            batches=2, designs=9, unique_designs=7, cache_hits=3, cache_misses=4, synthesized=4,
            lease_granted=4, lease_waited=1, wait_hits=1, reclaimed_grants=0,
        )
        backend.load_state_dict(self.format1_record(counters))
        assert backend.counters_dict() == {k: counters[k] for k in backend.counters_dict()}
        assert set(backend.stats()) == set(STATS_KEYS)

    @pytest.mark.parametrize(
        "record",
        [
            dict(batches=3, lease_granted=4, lease_waited=1, wait_hits=1, reclaimed_grants=2),
            dict(designs=8, worker_setup_seconds=0.5, worker_opt_seconds=2.0, redispatched_tasks=1,
                 prepared_hits=3, shipped_elided=2),
            dict(batches=2, designs=5),
        ],
        ids=["lease-service", "remote-farm", "partial"],
    )
    def test_a_record_restores_the_live_counters_it_carries(self, lib, record):
        """Whatever a format-1 record carries, the live counters it names
        are restored and every other live counter keeps its value."""
        backend = EvaluationBackend(lib, store=SynthesisCache())
        backend.evaluate_many(design_set())
        before = backend.counters_dict()
        backend.load_counters(self.format1_record(record)["counters"])
        assert backend.counters_dict() == {k: record.get(k, v) for k, v in before.items()}

    def test_an_unknown_counter_is_refused(self, lib):
        """A key no backend counts (nor any retired one) is an error, and
        no counter is restored."""
        backend = EvaluationBackend(lib, store=SynthesisCache())
        backend.evaluate_many(design_set())
        before = backend.counters_dict()
        with pytest.raises(ValueError, match="a_counter_from_a_later_release"):
            backend.load_counters(dict(synthesized=4, a_counter_from_a_later_release=9))
        assert backend.counters_dict() == before


class RecordingStore(SynthesisCache):
    def __init__(self):
        super().__init__()
        self.calls = []

    def get_many(self, keys):
        self.calls.append(("get_many", len(keys)))
        return super().get_many(keys)

    def put_many(self, items):
        self.calls.append(("put_many", len(items)))
        super().put_many(items)


class TestStoreOnlyTraffic:
    """The path ``repro train`` drives: one lookup, at most one write-back,
    each digest computed once — the traffic the CLI differential gate and
    the e2e benchmark's program-made counts pin."""

    def test_one_get_many_one_put_many_one_digest_each(self, lib, expected, monkeypatch):
        graphs, _points = expected
        digests = []
        real_digest = backend_module.graph_digest

        def counting_digest(graph):
            digests.append(graph.key())
            return real_digest(graph)

        monkeypatch.setattr(backend_module, "graph_digest", counting_digest)
        store = RecordingStore()
        backend = EvaluationBackend(lib, store=store)

        backend.evaluate_many(graphs)  # cold: 3 unique misses
        assert store.calls == [("get_many", 3), ("put_many", 3)]
        assert len(digests) == 3 and len(set(digests)) == 3

        store.calls.clear()
        backend.evaluate_many(graphs + [random_walk(8, 1)])  # 3 hits + 1 miss
        assert store.calls == [("get_many", 4), ("put_many", 1)]

        store.calls.clear()
        backend.evaluate_many(graphs)  # all hits: nothing to write back
        assert store.calls == [("get_many", 3)]

    def test_in_process_misses_resolve_synthesize_curve_at_call_time(self, lib, monkeypatch):
        # Outside-in tracers patch the module-level name after backends exist.
        seen = []
        real = backend_module.synthesize_curve
        backend = EvaluationBackend(lib, store=SynthesisCache())
        monkeypatch.setattr(
            backend_module,
            "synthesize_curve",
            lambda *args: seen.append(args[0]) or real(*args),
        )
        backend.evaluate_many([sklansky(8)])
        assert len(seen) == 1


class TestStatsSchema:
    """One schema (STATS_KEYS) across every curve source — pinned here."""

    def test_store_only_dedup_counts(self, lib):
        backend = EvaluationBackend(lib, store=SynthesisCache())
        backend.evaluate_many([sklansky(8), sklansky(8)])
        stats = backend.stats()
        assert_schema(stats)
        assert stats["backend"] == "local"
        assert stats["designs"] == 2 and stats["unique_designs"] == 1

    @pytest.mark.parametrize(
        "batches",
        [[[0, 0, 1], [1, 2], [0, 1, 2, 2]], [[0], [1], [], [2, 1, 0]]],
        ids=["repeats", "disjoint"],
    )
    @pytest.mark.parametrize("store", ["storeless", "memory", "layered"])
    def test_each_batch_moves_the_counters_by_its_own_counts(self, lib, store, batches, tmp_path):
        """Per ``evaluate_many``: one batch, its designs, its in-batch
        duplicates as ``dedup_saved``, its stored designs as hits and the
        rest synthesized — the counts a run reports, for every store."""
        from repro.store import make_store

        pool = [sklansky(8), brent_kung(8), kogge_stone(8)]  # three distinct designs
        made = {"storeless": lambda: None, "memory": SynthesisCache, "layered": lambda: make_store(tmp_path)}[store]()
        backend = EvaluationBackend(lib, store=made)
        stored: "set[int]" = set()
        try:
            for batch in batches:
                before = backend.stats()
                backend.evaluate_many([pool[i] for i in batch])
                after = backend.stats()
                unique = set(batch)
                hits = len(unique & stored) if made is not None else 0
                moved = {key: after[key] - before[key] for key in COUNTS}
                assert moved == {
                    "batches": 1, "designs": len(batch), "unique_designs": len(unique),
                    "dedup_saved": len(batch) - len(unique), "cache_hits": hits,
                    "cache_misses": len(unique) - hits, "synthesized": len(unique) - hits,
                }
                stored |= unique
        finally:
            if made is not None:
                made.close()

    def test_runner_names_the_backend(self, lib):
        with SynthesisFarm("nangate45", num_workers=1) as farm:
            backend = EvaluationBackend(lib, runner=farm)
            backend.evaluate_many([sklansky(8)])
            assert_schema(backend.stats())
            assert backend.stats()["backend"] == "farm-pool[1]"

    def test_history_synthesis_stats_schema(self, lib):
        from repro.env import PrefixEnv
        from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig

        env = PrefixEnv(8, SynthesisEvaluator(lib), horizon=4, rng=0)
        agent = ScalarizedDoubleDQN(8, blocks=0, channels=4, rng=0)
        hist = Trainer(env, agent, TrainerConfig(steps=4, warmup_steps=1000), rng=0).run()
        assert_schema(hist.synthesis_stats)
        assert hist.synthesis_stats == env.evaluator.backend.stats()


class TestEvaluatorBackendWiring:
    def test_cache_kwarg_becomes_the_backends_store(self, lib):
        cache = SynthesisCache()
        evaluator = SynthesisEvaluator(lib, cache=cache)
        assert evaluator.backend.store is cache
        assert evaluator.cache is cache
        assert evaluator.backend.runner is None

    def test_backend_and_cache_kwargs_are_exclusive(self, lib):
        with pytest.raises(ValueError, match="not both"):
            SynthesisEvaluator(lib, cache=SynthesisCache(), backend=EvaluationBackend(lib))
