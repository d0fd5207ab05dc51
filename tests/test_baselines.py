"""Baseline algorithm tests: SA, PS, CL and the random-walk control."""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    PruningRules,
    cross_layer_optimization,
    pruned_designs,
    pruned_exhaustive_search,
    random_walk_frontier,
    simulated_annealing,
)
from repro.baselines.cl import RidgePredictor, graph_feature_vector
from repro.pareto import ArchivingEvaluator, frontier
from repro.prefix import brent_kung, kogge_stone, ripple_carry, sklansky
from repro.synth import AnalyticalEvaluator


CL_RULES = PruningRules(level_slack=3, max_fanout=8, size_slack=3.0)


@pytest.fixture
def evaluator():
    return AnalyticalEvaluator(0.5, 0.5)


def payload_keys(archive):
    return [graph.key() for _, _, graph in archive.entries()]


class TestSimulatedAnnealing:
    def test_improves_over_start(self, evaluator):
        archive = simulated_annealing(8, evaluator, 150, rng=0)
        start_cost = evaluator.scalarize(evaluator.evaluate(ripple_carry(8)))
        best = min(0.5 * a + 0.5 * d for a, d in archive.points())
        assert best < start_cost

    def test_deterministic_with_seed(self, evaluator):
        a = simulated_annealing(8, evaluator, 100, rng=5)
        b = simulated_annealing(8, evaluator, 100, rng=5)
        assert a.points() == b.points() and payload_keys(a) == payload_keys(b)
        assert a.num_seen == b.num_seen

    def test_archive_counts_every_eval(self, evaluator):
        wrapped = ArchivingEvaluator(evaluator, budget=60)
        archive = simulated_annealing(8, wrapped, 60, rng=1)
        assert archive is wrapped.archive
        assert wrapped.spent <= 60 <= archive.num_seen  # repeats are evaluations too

    def test_custom_start(self, evaluator):
        archive = simulated_annealing(8, evaluator, 1, rng=2, start=sklansky(8))
        assert archive.num_seen == 1
        assert archive.entries()[0][2] == sklansky(8)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_bad_budget(self, evaluator, budget):
        with pytest.raises(ValueError, match="budget"):
            simulated_annealing(8, evaluator, budget)

    @pytest.mark.parametrize("knob", ["initial_temp", "final_temp"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_temperatures(self, evaluator, knob, value):
        with pytest.raises(ValueError, match=knob):
            simulated_annealing(8, evaluator, 10, **{knob: value})

    def test_archived_graphs_are_legal(self, evaluator):
        archive = simulated_annealing(8, evaluator, 150, rng=3)
        assert all(graph.is_legal() for _, _, graph in archive.entries())

    def test_frontier_covers_tradeoff(self, evaluator):
        archive, spent = frontier(
            simulated_annealing,
            8,
            lambda wa, wd: AnalyticalEvaluator(wa, wd),
            weights=[0.2, 0.5, 0.8],
            budget=120,
            seed=0,
        )
        front = archive.points()
        assert len(front) >= 3
        areas = [a for a, _ in front]
        assert max(areas) > min(areas)  # a real spread, not one point
        assert spent == [120, 120, 120]


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

    def test_designs_unique_and_legal(self):
        designs, _ = pruned_designs(8, max_designs=80)
        keys = {g.key() for g in designs}
        assert len(keys) == len(designs)
        assert all(g.is_legal() for g in designs)

    def test_all_designs_satisfy_rules(self, evaluator):
        rules = PruningRules()
        designs, _ = pruned_designs(8, rules, max_designs=60)
        assert all(rules.admits(g) for g in designs)
        archive = pruned_exhaustive_search(8, evaluator, 60, rules=rules)
        assert all(rules.admits(g) for _, _, g in archive.entries())

    def test_respects_budget(self, evaluator):
        wrapped = ArchivingEvaluator(evaluator, budget=25)
        archive = pruned_exhaustive_search(8, wrapped, 25)
        assert wrapped.spent == archive.num_seen == 25

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_budget_below_the_seed_count(self, evaluator, budget):
        assert pruned_exhaustive_search(8, evaluator, budget).num_seen == budget
        assert len(pruned_designs(8, max_designs=budget)[0]) == budget

    @pytest.mark.parametrize("budget", [0, -1])
    def test_bad_budget(self, evaluator, budget):
        with pytest.raises(ValueError, match="budget"):
            pruned_exhaustive_search(8, evaluator, budget)
        with pytest.raises(ValueError, match="max_designs"):
            pruned_designs(8, max_designs=budget)

    def test_search_evaluates_exactly_the_enumeration(self):
        designs, _ = pruned_designs(8, max_designs=50)
        seen = []

        class Recorder(AnalyticalEvaluator):
            def evaluate(self, graph):
                seen.append(graph.key())
                return super().evaluate(graph)

        pruned_exhaustive_search(8, Recorder(), 50)
        assert seen == [g.key() for g in designs]

    def test_explored_at_least_admitted(self):
        designs, explored = pruned_designs(8, max_designs=50)
        assert explored >= len(designs) == 50

    def test_whole_pruned_space_when_the_budget_exceeds_it(self, evaluator):
        designs, _ = pruned_designs(5, max_designs=10_000)
        wrapped = ArchivingEvaluator(evaluator, budget=10_000)
        pruned_exhaustive_search(5, wrapped, 10_000)
        assert wrapped.spent == len(designs) == 43  # the rules admit all of n=5's 43 designs


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
        assert np.allclose(pred.predict(x), y, atol=1e-6)

    def test_ridge_requires_fit(self):
        with pytest.raises(RuntimeError):
            RidgePredictor().predict(np.zeros((1, 4)))

    def test_pipeline_with_analytical_oracle(self, evaluator):
        # Using the analytical evaluator as the "expensive" oracle keeps
        # this test fast while exercising the full pipeline.
        wrapped = ArchivingEvaluator(evaluator, budget=20)
        archive = cross_layer_optimization(8, wrapped, 20, rng=0, max_candidates=80)
        assert len(pruned_designs(8, CL_RULES, max_designs=80)[0]) > 20
        assert wrapped.spent == archive.num_seen == 20
        assert len(archive.points()) >= 1

    def test_budget_of_one_trains_on_one_design(self, evaluator):
        assert cross_layer_optimization(8, evaluator, 1, rng=0, max_candidates=40).num_seen == 1

    def test_pool_smaller_than_the_budget(self, evaluator):
        wrapped = ArchivingEvaluator(evaluator, budget=100)
        cross_layer_optimization(8, wrapped, 100, rng=0, max_candidates=30)
        assert wrapped.spent == 30

    @pytest.mark.parametrize("budget", [0, -2])
    def test_bad_budget(self, evaluator, budget):
        with pytest.raises(ValueError, match="budget"):
            cross_layer_optimization(8, evaluator, budget, rng=0, max_candidates=40)


class TestRandomWalk:
    def test_spends_the_budget(self, evaluator):
        wrapped = ArchivingEvaluator(evaluator, budget=120)
        archive = random_walk_frontier(8, wrapped, 120, rng=0)
        assert wrapped.spent == 120 <= archive.num_seen

    def test_bad_budget(self, evaluator):
        with pytest.raises(ValueError, match="budget"):
            random_walk_frontier(8, evaluator, 0)

    @pytest.mark.parametrize("restart_every", [0, -3])
    def test_bad_restart_every(self, evaluator, restart_every):
        with pytest.raises(ValueError, match="restart_every"):
            random_walk_frontier(8, evaluator, 10, restart_every=restart_every)

    def test_restarts_cover_both_seeds(self, evaluator):
        archive = random_walk_frontier(8, evaluator, 61, rng=1, restart_every=16)
        # Ripple (area 7) must appear among seen points via restarts.
        assert any(a == 7.0 for a, _ in archive.points())


class TestControlTrajectoriesPinned:
    """The controls draw from the legal mask's indices with the same
    ``gen.integers(count)`` call as drawing from a list of every legal
    ``Action``, so a seed walks the same path: archive points and Pareto
    payloads are pinned to recorded values. Multi-weight SA, PS and CL
    fronts are pinned too: recording through ``ArchivingEvaluator`` must
    archive the same designs in the same order.

    Budgets are the distinct designs each walk saw when it was sized in
    steps (the random walk's 150 steps: 133 at n=8, 147 at n=16), so its
    archive is the one recorded then. SA cools by the share of its budget
    spent and restarts from its best design when stuck, and CL splits its
    budget in half, so their pins were recorded with those rules; PS
    evaluates the same enumeration as before.
    """

    RANDOM_WALK = {
        8: ([(12.0, 7.5), (11.0, 8.5), (9.0, 9.5), (7.0, 11.5)], "500c690a45046c2c", 133),
        16: (
            [(33.0, 12.0), (32.0, 12.5), (27.0, 15.0), (25.0, 15.5), (21.0, 17.5), (15.0, 23.5)],
            "c07cc64ee428643b",
            147,
        ),
    }
    # Both spend their whole budget. n=8 used to stall after 44 of its 108;
    # restarting from its best design spends the rest but finds no better
    # front, so its pin did not move.
    ANNEALING = {
        8: ([(10.0, 8.0), (8.0, 10.5), (7.0, 11.5)], "cf35333ed3e39763", 108),
        16: (
            [
                (32.0, 11.5), (31.0, 12.5), (30.0, 13.0), (29.0, 13.5), (27.0, 14.0),
                (23.0, 14.5), (17.0, 21.0), (16.0, 22.5), (15.0, 23.5),
            ],
            "9e049c31d3a2c5ce",
            199,
        ),
    }
    SA_FRONTIER = (
        [(12.0, 7.5), (10.0, 8.0), (9.0, 9.0), (8.0, 10.5), (7.0, 11.5)],
        "a0854f93cdb39546",
        (1008, [134, 134, 134]),
    )
    PS_FRONT = [(13.0, 7.0), (12.0, 7.5), (11.0, 8.5), (9.0, 9.5)]
    CL_FRONT = (PS_FRONT, "dbfa35af239c7601")

    @staticmethod
    def payload_digest(archive):
        return hashlib.sha256(b"".join(graph.key() for _, _, graph in archive.entries())).hexdigest()[:16]

    @pytest.mark.parametrize("n", (8, 16))
    def test_random_walk_archive(self, n):
        points, digest, budget = self.RANDOM_WALK[n]
        archive = random_walk_frontier(n, AnalyticalEvaluator(), budget, rng=7, restart_every=40)
        assert archive.points() == points
        assert self.payload_digest(archive) == digest

    @pytest.mark.parametrize("n", (8, 16))
    def test_annealing_archive(self, n):
        points, digest, budget = self.ANNEALING[n]
        wrapped = ArchivingEvaluator(AnalyticalEvaluator(0.3, 0.7), budget=budget)
        archive = simulated_annealing(n, wrapped, budget, rng=11)
        assert archive.points() == points
        assert self.payload_digest(archive) == digest
        assert wrapped.spent == budget

    def test_sa_frontier_archive(self):
        archive, spent = frontier(
            simulated_annealing,
            8,
            lambda wa, wd: AnalyticalEvaluator(wa, wd),
            weights=[0.2, 0.5, 0.8],
            budget=134,
            seed=0,
        )
        points, digest, seen = self.SA_FRONTIER
        assert archive.points() == points
        assert self.payload_digest(archive) == digest
        assert (archive.num_seen, spent) == seen

    def test_pruned_search_archive(self):
        archive = pruned_exhaustive_search(8, AnalyticalEvaluator(), 80)
        assert archive.points() == self.PS_FRONT
        assert self.payload_digest(archive) == "dbfa35af239c7601"
        assert pruned_designs(8, max_designs=80)[1] == 89

    def test_cross_layer_archive(self):
        wrapped = ArchivingEvaluator(AnalyticalEvaluator(), budget=20)
        archive = cross_layer_optimization(8, wrapped, 20, rng=0, max_candidates=80)
        points, digest = self.CL_FRONT
        assert archive.points() == points
        assert self.payload_digest(archive) == digest
        assert wrapped.spent == 20
