"""Baseline algorithm tests: SA, PS, CL and the random-walk control."""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    PruningRules,
    cross_layer_optimization,
    pruned_designs,
    pruned_search,
    random_walk_frontier,
    sa_frontier,
    simulated_annealing,
)
from repro.baselines.cl import RidgePredictor, graph_feature_vector
from repro.prefix import brent_kung, kogge_stone, ripple_carry, sklansky
from repro.synth import AnalyticalEvaluator


@pytest.fixture
def evaluator():
    return AnalyticalEvaluator(0.5, 0.5)


class TestSimulatedAnnealing:
    def test_improves_over_start(self, evaluator):
        res = simulated_annealing(8, evaluator, iterations=600, rng=0)
        start_cost = evaluator.scalarize(evaluator.evaluate(ripple_carry(8)))
        assert res.best_cost <= start_cost

    def test_deterministic_with_seed(self, evaluator):
        a = simulated_annealing(8, evaluator, iterations=200, rng=5)
        b = simulated_annealing(8, evaluator, iterations=200, rng=5)
        assert a.best_cost == b.best_cost
        assert a.accepted == b.accepted

    def test_archive_counts_every_eval(self, evaluator):
        res = simulated_annealing(8, evaluator, iterations=100, rng=1)
        assert res.archive.num_seen == 101  # start + each candidate

    def test_custom_start(self, evaluator):
        res = simulated_annealing(8, evaluator, iterations=50, start=sklansky(8), rng=2)
        assert res.iterations == 50

    def test_bad_iterations(self, evaluator):
        with pytest.raises(ValueError):
            simulated_annealing(8, evaluator, iterations=0)

    @pytest.mark.parametrize("knob", ["initial_temp", "final_temp"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_temperatures(self, evaluator, knob, value):
        with pytest.raises(ValueError, match=knob):
            simulated_annealing(8, evaluator, iterations=10, **{knob: value})

    def test_best_graph_is_legal(self, evaluator):
        res = simulated_annealing(8, evaluator, iterations=300, rng=3)
        assert res.best_graph.is_legal()

    def test_frontier_covers_tradeoff(self, evaluator):
        archive = sa_frontier(
            8,
            lambda wa, wd: AnalyticalEvaluator(wa, wd),
            weights=[0.2, 0.5, 0.8],
            iterations_per_weight=400,
            seed=0,
        )
        front = archive.points()
        assert len(front) >= 3
        areas = [a for a, _ in front]
        assert max(areas) > min(areas)  # a real spread, not one point


class TestPrunedSearch:
    def test_pruning_rules_admit_regular_structures(self):
        rules = PruningRules()
        assert rules.admits(sklansky(8))  # fanout 4 at 8b passes the cap
        assert rules.admits(brent_kung(16))
        assert rules.admits(kogge_stone(16))

    def test_pruning_rejects_ripple_depth(self):
        # Ripple's depth n-1 violates the level-slack heuristic for n >= 8.
        assert not PruningRules(level_slack=2).admits(ripple_carry(16))

    def test_fanout_rule(self):
        # Sklansky 32 has fanout 16 — pruned away by the default cap of 6.
        assert not PruningRules().admits(sklansky(32))

    def test_designs_unique_and_legal(self, evaluator):
        res = pruned_search(8, evaluator, max_designs=80)
        keys = {g.key() for g in res.designs}
        assert len(keys) == len(res.designs)
        assert all(g.is_legal() for g in res.designs)

    def test_all_designs_satisfy_rules(self, evaluator):
        rules = PruningRules()
        res = pruned_search(8, evaluator, rules=rules, max_designs=60)
        assert all(rules.admits(g) for g in res.designs)

    def test_respects_budget(self, evaluator):
        res = pruned_search(8, evaluator, max_designs=25)
        assert res.admitted <= 25

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_budget_below_the_seed_count(self, evaluator, budget):
        res = pruned_search(8, evaluator, max_designs=budget)
        assert res.admitted == res.archive.num_seen == budget

    @pytest.mark.parametrize("budget", [0, -1])
    def test_bad_budget(self, evaluator, budget):
        with pytest.raises(ValueError, match="max_designs"):
            pruned_search(8, evaluator, max_designs=budget)

    def test_search_evaluates_exactly_the_enumeration(self, evaluator):
        designs, explored = pruned_designs(8, max_designs=50)
        res = pruned_search(8, evaluator, max_designs=50)
        assert [g.key() for g in designs] == [g.key() for g in res.designs]
        assert explored == res.explored

    def test_explored_at_least_admitted(self, evaluator):
        res = pruned_search(8, evaluator, max_designs=50)
        assert res.explored >= res.admitted


class TestCrossLayer:
    def test_feature_vector_shape(self):
        f = graph_feature_vector(sklansky(8))
        assert f.shape == (9,)
        assert f[0] == 1.0  # bias term

    def test_features_distinguish_structures(self):
        fa = graph_feature_vector(sklansky(16))
        fb = graph_feature_vector(brent_kung(16))
        assert not np.allclose(fa, fb)

    def test_ridge_fits_linear_data(self, rng):
        x = rng.normal(size=(50, 4))
        w_true = rng.normal(size=(4, 2))
        y = x @ w_true
        pred = RidgePredictor(alpha=1e-8)
        pred.fit(x, y)
        assert pred.r_squared(x, y) > 0.999

    def test_ridge_requires_fit(self):
        with pytest.raises(RuntimeError):
            RidgePredictor().predict(np.zeros((1, 4)))

    def test_pipeline_with_analytical_oracle(self, evaluator):
        # Using the analytical evaluator as the "expensive" oracle keeps
        # this test fast while exercising the full pipeline.
        res = cross_layer_optimization(
            8, evaluator, sample_size=12, select_size=8, max_candidates=80, rng=0
        )
        assert res.candidates > 20
        assert res.synthesized <= 20
        assert res.predictor_r2 > 0.2  # structure features predict the model
        assert len(res.archive.points()) >= 1

    @pytest.mark.parametrize("knobs", [{"sample_size": 0}, {"sample_size": -2}, {"select_size": -1}])
    def test_bad_sizes(self, evaluator, knobs):
        with pytest.raises(ValueError, match=next(iter(knobs))):
            cross_layer_optimization(8, evaluator, max_candidates=40, rng=0, **knobs)


class TestRandomWalk:
    def test_collects_requested_steps(self, evaluator):
        archive = random_walk_frontier(8, evaluator, steps=120, rng=0)
        assert archive.num_seen == 120

    def test_bad_steps(self, evaluator):
        with pytest.raises(ValueError):
            random_walk_frontier(8, evaluator, steps=0)

    @pytest.mark.parametrize("restart_every", [0, -3])
    def test_bad_restart_every(self, evaluator, restart_every):
        with pytest.raises(ValueError, match="restart_every"):
            random_walk_frontier(8, evaluator, steps=10, restart_every=restart_every)

    def test_restarts_cover_both_seeds(self, evaluator):
        archive = random_walk_frontier(8, evaluator, steps=70, restart_every=16, rng=1)
        # Ripple (area 7) must appear among seen points via restarts.
        assert any(a == 7.0 for a, _ in archive.points()) or archive.num_seen == 70


class TestControlTrajectoriesPinned:
    """The controls draw from the legal mask's indices with the same
    ``gen.integers(count)`` call as drawing from a list of every legal
    ``Action``, so a seed walks the same path: archive points, Pareto
    payloads and SA's acceptance record are pinned to recorded values.
    Multi-weight SA, PS and CL fronts are pinned too: recording through
    ``ArchivingEvaluator`` must archive the same designs in the same order."""

    RANDOM_WALK = {
        8: ([(12.0, 7.5), (11.0, 8.5), (9.0, 9.5), (7.0, 11.5)], "500c690a45046c2c"),
        16: (
            [(33.0, 12.0), (32.0, 12.5), (27.0, 15.0), (25.0, 15.5), (21.0, 17.5), (15.0, 23.5)],
            "c07cc64ee428643b",
        ),
    }
    ANNEALING = {
        8: ([(11.0, 8.0), (10.0, 8.5), (9.0, 9.0), (8.0, 10.5), (7.0, 11.5)], "aa0e127d8adaab88", 48, 8.9),
        16: (
            [(29.0, 12.0), (28.0, 13.0), (27.0, 14.0), (23.0, 14.5), (17.0, 21.0), (16.0, 22.5), (15.0, 23.5)],
            "ef05418a740fdfdb",
            37,
            17.05,
        ),
    }

    SA_FRONTIER = (
        [(14.0, 7.0), (13.0, 7.5), (10.0, 8.0), (9.0, 9.0), (8.0, 10.5), (7.0, 11.5)],
        "a0c92cc1eedee531",
        1203,
    )
    PS_FRONT = [(13.0, 7.0), (12.0, 7.5), (11.0, 8.5), (9.0, 9.5)]

    @staticmethod
    def payload_digest(archive):
        return hashlib.sha256(b"".join(graph.key() for _, _, graph in archive.entries())).hexdigest()[:16]

    @pytest.mark.parametrize("n", (8, 16))
    def test_random_walk_archive(self, n):
        archive = random_walk_frontier(n, AnalyticalEvaluator(), steps=150, restart_every=40, rng=7)
        points, digest = self.RANDOM_WALK[n]
        assert archive.points() == points
        assert self.payload_digest(archive) == digest

    @pytest.mark.parametrize("n", (8, 16))
    def test_annealing_archive(self, n):
        res = simulated_annealing(n, AnalyticalEvaluator(0.3, 0.7), iterations=250, rng=11)
        points, digest, accepted, best_cost = self.ANNEALING[n]
        assert res.archive.points() == points
        assert self.payload_digest(res.archive) == digest
        assert res.accepted == accepted
        assert res.best_cost == pytest.approx(best_cost, abs=1e-12)

    def test_sa_frontier_archive(self):
        archive = sa_frontier(
            8,
            lambda wa, wd: AnalyticalEvaluator(wa, wd),
            weights=[0.2, 0.5, 0.8],
            iterations_per_weight=400,
            seed=0,
        )
        points, digest, seen = self.SA_FRONTIER
        assert archive.points() == points
        assert self.payload_digest(archive) == digest
        assert archive.num_seen == seen

    def test_pruned_search_archive(self):
        res = pruned_search(8, AnalyticalEvaluator(), max_designs=80)
        assert res.archive.points() == self.PS_FRONT
        assert self.payload_digest(res.archive) == "dbfa35af239c7601"
        assert res.explored == 89

    def test_cross_layer_archive(self):
        evaluator = AnalyticalEvaluator()
        res = cross_layer_optimization(8, evaluator, sample_size=12, select_size=8, max_candidates=80, rng=0)
        assert res.archive.points() == self.PS_FRONT
        assert self.payload_digest(res.archive) == "c0d3d6cf49d123be"
        assert res.synthesized == 20
        assert res.predictor_r2 == pytest.approx(0.940989237413, abs=1e-12)
