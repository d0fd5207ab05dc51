"""One archiving evaluator: every search records what it evaluates.

Each search — the random walk, SA (alone and under ``frontier``), PS, CL, a
bare ``PrefixEnv``, a batched ``VectorPrefixEnv`` and ``rl_search`` under
``frontier`` — evaluates through :class:`repro.pareto.ArchivingEvaluator`, so
the inner evaluator's graph count equals ``archive.num_seen``: nothing is
evaluated without being archived, and nothing is archived twice for one
evaluation. The budget contract itself is ``tests/test_search_contract.py``.
"""

import numpy as np
import pytest

from repro.baselines import (
    cross_layer_optimization,
    pruned_exhaustive_search,
    random_walk_frontier,
    simulated_annealing,
)
from repro.env import PrefixEnv, VectorPrefixEnv
from repro.pareto import ArchivingEvaluator, BudgetExhausted, ParetoArchive, archiving, frontier
from repro.prefix import ripple_carry, sklansky
from repro.rl import TrainerConfig, rl_search
from repro.synth import AnalyticalEvaluator


class CountingEvaluator(AnalyticalEvaluator):
    """Analytical evaluator that counts the graphs it is asked for.

    ``counts`` may be shared between instances (one per weight) so a
    multi-weight search is counted as a whole.
    """

    def __init__(self, w_area=0.5, w_delay=0.5, counts=None):
        super().__init__(w_area, w_delay)
        self.counts = counts if counts is not None else {"graphs": 0, "batches": 0}

    def evaluate(self, graph):
        self.counts["graphs"] += 1
        return super().evaluate(graph)

    def evaluate_many(self, graphs):
        self.counts["batches"] += 1
        self.counts["graphs"] += len(graphs)
        return [super(CountingEvaluator, self).evaluate(g) for g in graphs]


class TestArchivingEvaluator:
    def test_evaluate_archives_then_returns_inner_metrics(self):
        inner = AnalyticalEvaluator()
        wrapped = ArchivingEvaluator(inner)
        metrics = wrapped.evaluate(sklansky(8))
        assert metrics == inner.evaluate(sklansky(8))
        assert wrapped.archive.num_seen == 1
        assert wrapped.archive.entries() == [(metrics.area, metrics.delay, sklansky(8))]

    def test_record_does_not_evaluate(self):
        counter = CountingEvaluator()
        wrapped = ArchivingEvaluator(counter)
        metrics = AnalyticalEvaluator().evaluate(ripple_carry(8))
        assert wrapped.record(ripple_carry(8), metrics) is metrics
        assert counter.counts["graphs"] == 0
        assert wrapped.archive.num_seen == 1

    def test_scalarize_delegates(self):
        inner = AnalyticalEvaluator(0.3, 0.7)
        metrics = inner.evaluate(sklansky(8))
        assert ArchivingEvaluator(inner).scalarize(metrics) == inner.scalarize(metrics)

    def test_shared_archive(self):
        archive = ParetoArchive()
        a = ArchivingEvaluator(AnalyticalEvaluator(), archive)
        b = ArchivingEvaluator(AnalyticalEvaluator(), archive)
        a.evaluate(sklansky(8))
        b.evaluate(ripple_carry(8))
        assert archive.num_seen == 2 and a.archive is b.archive is archive

    def test_archiving_reuses_a_wrapper_and_wraps_anything_else(self):
        wrapped = ArchivingEvaluator(AnalyticalEvaluator())
        assert archiving(wrapped) is wrapped
        fresh = archiving(AnalyticalEvaluator())
        assert isinstance(fresh, ArchivingEvaluator) and fresh.archive.num_seen == 0

    def test_env_holds_the_inner_evaluator_and_a_read_only_archive(self):
        inner = AnalyticalEvaluator()
        wrapped = ArchivingEvaluator(inner)
        env = PrefixEnv(8, wrapped, rng=0)
        assert env.evaluator is inner
        assert env.archive is wrapped.archive
        with pytest.raises(AttributeError):
            env.archive = ParetoArchive()
        with pytest.raises(AttributeError):
            env.evaluator = AnalyticalEvaluator()
        assert PrefixEnv(8, inner, rng=0).archive is not wrapped.archive

    def test_archiving_keeps_one_budget(self):
        budgeted = ArchivingEvaluator(AnalyticalEvaluator(), budget=5)
        assert archiving(budgeted) is budgeted
        assert archiving(budgeted, 5) is budgeted
        assert archiving(AnalyticalEvaluator(), 4).budget == 4
        for wrapped, budget in ((budgeted, 3), (ArchivingEvaluator(AnalyticalEvaluator()), 4)):
            with pytest.raises(ValueError, match="budget"):
                archiving(wrapped, budget)
        with pytest.raises(ValueError, match="budget"):
            random_walk_frontier(8, budgeted, 3, rng=0)

    def test_no_budget_counts_nothing(self):
        wrapped = ArchivingEvaluator(AnalyticalEvaluator())
        for _ in range(3):
            wrapped.evaluate(sklansky(8))
        assert wrapped.budget is None and wrapped.spent == 0

    @pytest.mark.parametrize("budget", [0, -4])
    def test_bad_budget(self, budget):
        with pytest.raises(ValueError, match="budget"):
            ArchivingEvaluator(AnalyticalEvaluator(), budget=budget)

    @pytest.mark.parametrize("path", ["evaluate", "record"])
    def test_budget_counts_distinct_designs(self, path):
        counter = CountingEvaluator()
        wrapped = ArchivingEvaluator(counter, budget=2)
        metrics = AnalyticalEvaluator().evaluate

        def offer(graph):
            if path == "evaluate":
                return wrapped.evaluate(graph)
            return wrapped.record(graph, metrics(graph))

        offer(ripple_carry(8))
        offer(ripple_carry(8))
        offer(sklansky(8))
        assert wrapped.spent == 2 and wrapped.archive.num_seen == 3
        offer(ripple_carry(8))  # a repeat after the budget is still evaluated
        with pytest.raises(BudgetExhausted, match="budget"):
            offer(ripple_carry(9))
        assert wrapped.spent == 2 and wrapped.archive.num_seen == 4
        assert counter.counts["graphs"] == (4 if path == "evaluate" else 0)

    def test_stall_rule(self):
        wrapped = ArchivingEvaluator(AnalyticalEvaluator(), budget=3)
        for graph in [sklansky(8)] * 3 + [ripple_carry(8)] + [sklansky(8)] * 3:
            wrapped.evaluate(graph)  # the new design resets the streak
        with pytest.raises(BudgetExhausted, match="in a row"):
            wrapped.evaluate(ripple_carry(8))
        assert wrapped.spent == 2 and wrapped.archive.num_seen == 7


def random_steps(env, rounds, seed):
    """Step a vector env with uniform random legal actions."""
    gen = np.random.default_rng(seed)
    env.reset()
    for _ in range(rounds):
        masks = env.legal_masks()
        actions = [int(gen.choice(np.flatnonzero(mask))) for mask in masks]
        env.step(actions, env.successors(actions))


class TestEveryEvaluationIsArchivedOnce:
    """Inner evaluator graph count == ``archive.num_seen`` for every search."""

    def test_random_walk(self):
        counter = CountingEvaluator()
        archive = random_walk_frontier(8, counter, 83, rng=0, restart_every=20)
        assert counter.counts["graphs"] == archive.num_seen >= 90

    def test_simulated_annealing(self):
        counter = CountingEvaluator()
        archive = simulated_annealing(8, counter, 71, rng=0)
        assert counter.counts["graphs"] == archive.num_seen > 71

    def test_frontier(self):
        counts = {"graphs": 0, "batches": 0}
        archive, spent = frontier(
            simulated_annealing,
            8,
            lambda wa, wd: CountingEvaluator(wa, wd, counts),
            weights=[0.2, 0.8],
            budget=60,
            seed=0,
        )
        assert counts["graphs"] == archive.num_seen > sum(spent)

    def test_pruned_search(self):
        counter = CountingEvaluator()
        archive = pruned_exhaustive_search(8, counter, 40)
        assert counter.counts["graphs"] == archive.num_seen == 40

    def test_cross_layer(self):
        counter = CountingEvaluator()
        archive = cross_layer_optimization(8, counter, 16, rng=0, max_candidates=60)
        assert counter.counts["graphs"] == archive.num_seen == 16

    def test_bare_env(self):
        counter = CountingEvaluator()
        env = PrefixEnv(6, counter, horizon=5, rng=0)
        random_steps(VectorPrefixEnv([env]), rounds=12, seed=0)
        assert counter.counts["batches"] == 0
        assert counter.counts["graphs"] == env.archive.num_seen == 12 + 3  # steps + resets

    def test_batched_vector_env(self):
        counter = CountingEvaluator()
        venv = VectorPrefixEnv.make(6, counter, 2, horizon=5, seed=0)
        random_steps(venv, rounds=12, seed=1)
        assert counter.counts["batches"] > 0  # the ``record`` path ran
        assert counter.counts["graphs"] == sum(env.archive.num_seen for env in venv.envs)

    def test_rl_frontier(self):
        counts = {"graphs": 0, "batches": 0}
        archive, spent = frontier(
            rl_search(
                agent_kwargs={"blocks": 0, "channels": 4},
                trainer_config=TrainerConfig(batch_size=4, warmup_steps=8),
                horizon=6,
            ),
            5,
            lambda wa, wd: CountingEvaluator(wa, wd, counts),
            weights=[0.3, 0.7],
            budget=20,
            seed=0,
        )
        assert counts["graphs"] == archive.num_seen
        assert archive.num_seen >= 2 * 20  # 20 env steps per weight, plus resets
        assert all(s <= 20 for s in spent)
