"""Feature tensor (Section IV-C) and environment MDP tests."""

import numpy as np
import pytest

from repro.env import PrefixEnv, graph_features
from repro.prefix import REGULAR_STRUCTURES, kogge_stone, ripple_carry, sklansky
from repro.synth import AnalyticalEvaluator
from tests.conftest import random_walk_graph


class TestFeatures:
    def test_shape_and_planes(self):
        f = graph_features(sklansky(8))
        assert f.shape == (4, 8, 8)

    def test_plane0_is_nodelist(self):
        g = sklansky(8)
        f = graph_features(g)
        assert np.array_equal(f[0] > 0, g.grid)

    def test_plane1_is_minlist(self):
        g = kogge_stone(8)
        f = graph_features(g)
        assert np.array_equal(f[1] > 0, g.minlist())

    def test_levels_normalized(self, rng):
        g = random_walk_graph(8, 20, rng)
        f = graph_features(g)
        assert f[2].min() >= 0.0
        assert f[2].max() <= 1.0
        # Ripple reaches the normalization bound exactly.
        fr = graph_features(ripple_carry(8))
        assert fr[2].max() == pytest.approx(1.0)

    def test_fanouts_normalized(self, rng):
        g = random_walk_graph(10, 30, rng)
        f = graph_features(g)
        assert f[3].min() >= 0.0
        assert f[3].max() <= 1.0

    def test_absent_cells_zero_everywhere(self):
        g = ripple_carry(6)
        f = graph_features(g)
        assert f[:, 2, 1].sum() == 0.0  # (2,1) absent in ripple

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("name", sorted(REGULAR_STRUCTURES))
    def test_float32_loses_nothing_the_network_could_see(self, name, n):
        """Born float32 (the network's and the replay ring's dtype) and
        read-only; the 0/1 planes are exact and the two ``count / (N - 1)``
        planes are the float64 quotient rounded once: within 6e-8 of it."""
        g = REGULAR_STRUCTURES[name](n)
        f = graph_features(g)
        assert f.dtype == np.float32 and not f.flags.writeable
        assert np.array_equal(f[0], g.grid) and np.array_equal(f[1], g.minlist())
        assert np.abs(f[2] - np.maximum(g.levels(), 0).astype(np.float64) / (n - 1)).max() <= 6e-8
        assert np.abs(f[3] - g.fanouts().astype(np.float64) / (n - 1)).max() <= 6e-8


class TestEnvironment:
    def _env(self, n=8, horizon=10, rng=0):
        return PrefixEnv(n, AnalyticalEvaluator(0.5, 0.5), horizon=horizon, rng=rng)

    def test_reset_uses_paper_start_states(self):
        env = self._env(rng=3)
        seen = set()
        for _ in range(30):
            g = env.reset()
            seen.add(g.key())
        expected = {ripple_carry(8).key(), sklansky(8).key()}
        assert seen == expected

    def test_reset_with_explicit_start(self):
        env = self._env()
        g = env.reset(kogge_stone(8))
        assert g == kogge_stone(8)
        with pytest.raises(ValueError):
            env.reset(kogge_stone(9))

    def test_step_before_reset_raises(self):
        env = self._env()
        with pytest.raises(RuntimeError):
            env.step(env.action_space.action(0))
        with pytest.raises(RuntimeError):
            env.observe()

    def test_reward_is_scaled_metric_decrease(self):
        env = self._env()
        env.reset(ripple_carry(8))
        m0 = env.current_metrics()
        mask = env.legal_mask()
        idx = int(np.nonzero(mask)[0][0])
        result = env.step(env.action_space.action(idx))
        m1 = env.current_metrics()
        ev = env.evaluator
        assert result.reward[0] == pytest.approx(ev.c_area * (m0.area - m1.area))
        assert result.reward[1] == pytest.approx(ev.c_delay * (m0.delay - m1.delay))

    def test_rewards_telescope(self):
        # Cumulative reward equals total (scaled) improvement start->end.
        env = self._env(horizon=50)
        rng = np.random.default_rng(0)
        env.reset(ripple_carry(8))
        m0 = env.current_metrics()
        total = np.zeros(2)
        for _ in range(20):
            mask = env.legal_mask()
            idx = int(rng.choice(np.nonzero(mask)[0]))
            total += env.step(env.action_space.action(idx)).reward
        m1 = env.current_metrics()
        assert total[0] == pytest.approx(env.evaluator.c_area * (m0.area - m1.area))
        assert total[1] == pytest.approx(env.evaluator.c_delay * (m0.delay - m1.delay))

    def test_horizon_terminates_episode(self):
        env = self._env(horizon=3)
        env.reset()
        rng = np.random.default_rng(1)
        dones = []
        for _ in range(3):
            mask = env.legal_mask()
            idx = int(rng.choice(np.nonzero(mask)[0]))
            dones.append(env.step(env.action_space.action(idx)).done)
        assert dones == [False, False, True]

    def test_archive_accumulates(self):
        env = self._env(horizon=20)
        env.reset()
        rng = np.random.default_rng(2)
        for _ in range(10):
            mask = env.legal_mask()
            idx = int(rng.choice(np.nonzero(mask)[0]))
            env.step(env.action_space.action(idx))
        assert env.archive.num_seen >= 11  # reset eval + 10 steps
        assert len(env.archive) >= 1

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            PrefixEnv(8, AnalyticalEvaluator(), horizon=0)
