"""Is the agent learning? Greedy regret against the exact Q*.

At n <= 6 the analytical MDP is small enough to solve exactly
(``tests/oracles/qstar.py``), so the trained agent is judged against
dynamic programming rather than against a baseline: its greedy regret (mean
over every state of V*(s) - Q*(s, greedy action)) must be below the uniform
random policy's on every seed, and the median below half of it.

- The oracle is pinned at weights other than 0.5: at w = 0.5 ripple carry
  and Sklansky already sit at the global scalarized minimum (V* = 0 at both
  starts), so pinning them there would check nothing.
- A planted sign-flipped reward (each sampled batch's ``rewards`` negated)
  must fail the band (slow tier).
- The "Rethinking RL based logic synthesis" check: fed another state's
  features (a permutation) while keeping its own legal set, the trained net
  must do worse than with its own. At n = 5 it keeps most of its margin over
  random, i.e. much of what it learns there is a state-independent action
  prior; that is recorded, not asserted away.
"""

import numpy as np
import pytest

from repro.env import VectorPrefixEnv
from repro.prefix import ripple_carry, sklansky
from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig
from repro.synth import AnalyticalEvaluator
from tests.oracles.qstar import (
    greedy_actions,
    greedy_regret,
    lookahead_actions,
    oracle_prior_actions,
    policy_iteration,
    state_graph,
    uniform_regret,
    value_iteration,
)

SEEDS = (0, 1, 2)

# (n, w_area) -> (V*(ripple), V*(Sklansky)), gamma = 0.75.
START_VALUES = {
    (5, 0.1): (0.7571428571, -0.0571428571),
    (5, 0.9): (-0.4571428571, 0.4571428571),
    (6, 0.1): (1.7540178571, 0.3071428571),
    (6, 0.9): (-0.4571428571, 1.1428571429),
}
MEAN_VALUE_AT_HALF = {5: 1.3891715116, 6: 2.0502791030}


class TestOracle:
    @pytest.mark.parametrize("n, w_area", sorted(START_VALUES))
    def test_start_values(self, n, w_area):
        sg = state_graph(n)
        sol = value_iteration(n, w_area)
        v_ripple, v_sklansky = START_VALUES[(n, w_area)]
        assert sol.v[sg.state(ripple_carry(n))] == pytest.approx(v_ripple, abs=1e-9)
        assert sol.v[sg.state(sklansky(n))] == pytest.approx(v_sklansky, abs=1e-9)

    @pytest.mark.parametrize("n", [5, 6])
    def test_both_starts_are_optimal_at_half(self, n):
        sg = state_graph(n)
        sol = value_iteration(n, 0.5)
        assert sol.v[sg.state(ripple_carry(n))] == pytest.approx(0.0, abs=1e-12)
        assert sol.v[sg.state(sklansky(n))] == pytest.approx(0.0, abs=1e-12)
        assert sol.v.mean() == pytest.approx(MEAN_VALUE_AT_HALF[n], abs=1e-9)

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("w_area", [0.1, 0.5, 0.9])
    def test_policy_iteration_agrees(self, n, w_area):
        vi, pi = value_iteration(n, w_area), policy_iteration(n, w_area)
        legal = state_graph(n).legal
        assert np.abs(vi.v - pi.v).max() < 1e-12
        assert np.abs(vi.q[legal] - pi.q[legal]).max() < 1e-12
        assert np.array_equal(np.isfinite(vi.q), legal)

    def test_bellman_optimality(self):
        sol = value_iteration(5, 0.3)
        assert np.allclose(sol.q.max(axis=1), sol.v, atol=1e-12, rtol=0)
        assert uniform_regret(sol) > 0

    def test_uniform_regret(self):
        assert uniform_regret(value_iteration(5, 0.5)) == pytest.approx(0.3253, abs=1e-4)


def train(n, seed, steps, flip_rewards=False, envs=1):
    """An agent trained on ``envs`` lockstep replicas (``repro train --envs``)."""
    agent = ScalarizedDoubleDQN(n, rng=seed)
    if flip_rewards:
        step = agent.train_step
        agent.train_step = lambda batch: step({**batch, "rewards": -batch["rewards"]})
    env = VectorPrefixEnv.make(n, AnalyticalEvaluator(), envs, horizon=24, seed=seed)
    Trainer(env, agent, TrainerConfig(), rng=seed).run(steps)
    return agent


def regret(agent, features, n):
    """Greedy regret of ``agent`` reading ``features`` (one row per state)."""
    sg = state_graph(n)
    q_hat = agent.actions.qmaps_to_flat(agent.local.predict(features))
    return greedy_regret(value_iteration(n, 0.5), greedy_actions(sg, q_hat, agent.w))


def in_band(regrets, n):
    """Every seed below uniform random, the median below half of it."""
    random = uniform_regret(value_iteration(n, 0.5))
    return max(regrets) < random and float(np.median(regrets)) < random / 2


@pytest.fixture(scope="module")
def trained_n5():
    return {seed: train(5, seed, steps=600) for seed in SEEDS}


# Greedy regret of the depth-1 / depth-2 lookahead at w = 0.5, gamma 0.75.
LOOKAHEAD_REGRET = {5: (0.013, 0.009), 6: (0.030, 0.012)}

# Greedy regret of the oracle action prior at w = 0.5, gamma 0.75.
ORACLE_PRIOR_REGRET = {5: 0.0149, 6: 0.0470}


class TestLookaheadControl:
    @pytest.mark.slow
    @pytest.mark.parametrize("n", [5, 6])
    def test_lookahead_ladder(self, n):
        sol = value_iteration(n, 0.5)
        depth1 = greedy_regret(sol, lookahead_actions(n, 0.5, 1))
        depth2 = greedy_regret(sol, lookahead_actions(n, 0.5, 2))
        assert depth2 <= depth1 < uniform_regret(sol)
        assert (round(depth1, 3), round(depth2, 3)) == LOOKAHEAD_REGRET[n]

    @pytest.mark.parametrize("n", [5, 6])
    def test_the_oracle_prior_sits_between_lookahead_and_uniform(self, n):
        """Rung 0 of the ladder: the best state-free policy (one ranking of
        the actions, read off Q*, played within the legal mask) is worse
        than one move of lookahead and far better than uniform random. A
        trained agent that only matches it has learned a prior, not the
        state ("Rethinking RL based Logic Synthesis")."""
        sol = value_iteration(n, 0.5)
        depth1 = greedy_regret(sol, lookahead_actions(n, 0.5, 1))
        depth2 = greedy_regret(sol, lookahead_actions(n, 0.5, 2))
        prior = greedy_regret(sol, oracle_prior_actions(sol))
        assert depth2 <= depth1 < prior < uniform_regret(sol)
        assert round(prior, 4) == ORACLE_PRIOR_REGRET[n]

    def test_the_oracle_prior_is_one_ranking_within_the_mask(self):
        sol = value_iteration(5, 0.3)
        actions = oracle_prior_actions(sol)
        legal = np.isfinite(sol.q)
        assert legal[np.arange(len(actions)), actions].all()
        # Two states with the same legal set take the same action.
        by_mask = {}
        for mask, action in zip(map(bytes, np.packbits(legal, axis=1)), actions):
            assert by_mask.setdefault(mask, action) == action

    def test_depth_one_takes_the_best_reward(self):
        sg = state_graph(5)
        phi = sg.metrics @ np.array([0.3, 0.7])
        actions = lookahead_actions(5, 0.3, 1)
        nxt = np.where(sg.legal, sg.succ, 0)
        reward = np.where(sg.legal, phi[:, None] - phi[nxt], -np.inf)
        assert np.array_equal(reward[np.arange(len(actions)), actions], reward.max(axis=1))
        assert sg.legal[np.arange(len(actions)), actions].all()


class TestLearning:
    @pytest.mark.parametrize("envs", [1, 4])
    def test_trained_agent_beats_random(self, trained_n5, envs):
        """The band holds for one env and for E lockstep replicas alike."""
        agents = trained_n5 if envs == 1 else {seed: train(5, seed, steps=600, envs=envs) for seed in SEEDS}
        features = state_graph(5).features()
        regrets = [regret(agent, features, 5) for agent in agents.values()]
        assert in_band(regrets, 5), regrets

    def test_shuffled_features_cost_regret(self, trained_n5):
        """Each state fed another state's features, its own legal set kept."""
        features = state_graph(5).features()
        for agent in trained_n5.values():
            shuffled = [
                regret(agent, features[np.random.default_rng(p).permutation(len(features))], 5)
                for p in range(5)
            ]
            assert np.median(shuffled) > regret(agent, features, 5)

    @pytest.mark.slow
    def test_sign_flipped_reward_fails_the_band(self):
        features = state_graph(5).features()
        regrets = [regret(train(5, seed, steps=600, flip_rewards=True), features, 5) for seed in SEEDS]
        assert not in_band(regrets, 5), regrets

    @pytest.mark.slow
    def test_n6_agent_beats_random(self):
        features = state_graph(6).features()
        regrets = [regret(train(6, seed, steps=2000), features, 6) for seed in SEEDS]
        assert in_band(regrets, 6), regrets
