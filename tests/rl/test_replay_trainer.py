"""Replay buffer, schedules, trainer loop and the multi-weight sweep."""

import math

import numpy as np
import pytest

from repro.env import PrefixEnv
from repro.rl import (
    LinearSchedule,
    ReplayBuffer,
    ScalarizedDoubleDQN,
    Trainer,
    TrainerConfig,
    Transition,
)
from repro.pareto import ArchivingEvaluator, BudgetExhausted, ParetoArchive, frontier
from repro.rl.sweep import rl_search, weight_grid
from repro.rl.trainer import TrainingHistory, make_loop
from repro.synth import AnalyticalEvaluator
from repro.utils.rng import spawn_rngs


def dummy_transition(i=0, n=6, num_actions=20):
    return Transition(
        state=np.full((4, n, n), float(i)),
        action=i % num_actions,
        reward=np.array([float(i), -float(i)]),
        next_state=np.zeros((4, n, n)),
        next_mask=np.ones(num_actions, dtype=bool),
        done=bool(i % 2),
    )


class TestReplayBuffer:
    def test_push_and_len(self):
        buf = ReplayBuffer(10)
        for i in range(5):
            buf.push(dummy_transition(i))
        assert len(buf) == 5

    def test_ring_overwrite(self):
        buf = ReplayBuffer(3)
        for i in range(7):
            buf.push(dummy_transition(i))
        assert len(buf) == 3
        batch = buf.sample(30)
        # Only the last three transitions (4, 5, 6) remain.
        assert set(np.unique(batch["states"][:, 0, 0, 0])) <= {4.0, 5.0, 6.0}

    def test_sample_shapes(self):
        buf = ReplayBuffer(10)
        for i in range(6):
            buf.push(dummy_transition(i))
        batch = buf.sample(4)
        assert batch["states"].shape == (4, 4, 6, 6)
        assert batch["rewards"].shape == (4, 2)
        assert batch["next_masks"].shape == (4, 20)
        assert batch["dones"].dtype == bool

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ReplayBuffer(5).sample(1)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)


class TestVectorizedRing:
    def test_sample_matches_reference_stacking(self):
        """The fancy-index gather returns exactly what per-item stacking did."""
        transitions = [dummy_transition(i) for i in range(9)]
        buf = ReplayBuffer(20, rng=5)
        for t in transitions:
            buf.push(t)
        idx = np.random.default_rng(5).integers(9, size=6)
        batch = buf.sample(6)
        np.testing.assert_array_equal(
            batch["states"], np.stack([transitions[i].state for i in idx])
        )
        np.testing.assert_array_equal(
            batch["actions"], np.array([transitions[i].action for i in idx])
        )
        np.testing.assert_array_equal(
            batch["rewards"], np.stack([transitions[i].reward for i in idx])
        )
        np.testing.assert_array_equal(
            batch["dones"], np.array([transitions[i].done for i in idx])
        )

    def test_rng_stream_matches_historical_buffer(self):
        """Same seed -> same sampled indices as the list-backed original."""
        buf = ReplayBuffer(10, rng=42)
        for i in range(7):
            buf.push(dummy_transition(i))
        batch = buf.sample(5)
        expected_idx = np.random.default_rng(42).integers(7, size=5)
        np.testing.assert_array_equal(batch["states"][:, 0, 0, 0], expected_idx.astype(float))

    def test_push_copies_data(self):
        buf = ReplayBuffer(4)
        t = dummy_transition(1)
        buf.push(t)
        t.state[...] = 99.0
        batch = buf.sample(1)
        assert batch["states"].max() <= 1.5

    def test_state_dict_round_trip(self):
        buf = ReplayBuffer(5, rng=1)
        for i in range(8):  # wraps: ring position matters
            buf.push(dummy_transition(i))
        buf.sample(3)  # advance the RNG stream
        snap = buf.state_dict()

        other = ReplayBuffer(5, rng=999)
        other.load_state_dict(snap)
        assert len(other) == len(buf)
        a, b = buf.sample(4), other.sample(4)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_state_dict_empty_buffer(self):
        buf = ReplayBuffer(5)
        other = ReplayBuffer(5)
        other.load_state_dict(buf.state_dict())
        assert len(other) == 0
        with pytest.raises(ValueError):
            other.sample(1)

    def test_capacity_mismatch_rejected(self):
        buf = ReplayBuffer(5)
        buf.push(dummy_transition(0))
        with pytest.raises(ValueError, match="capacity mismatch"):
            ReplayBuffer(6).load_state_dict(buf.state_dict())

    def test_a_float64_snapshot_loads_into_the_float32_ring(self):
        """What a float64 release's checkpoint holds: the ring is this tree's
        dtypes whatever the snapshot's, and the values load by cast."""
        buf = ReplayBuffer(12, rng=2)
        for i in range(20):
            buf.push(dummy_transition(i))
        snap = buf.state_dict()
        for key in ("states", "next_states"):
            assert snap["arrays"][key].dtype == np.float32
            snap["arrays"][key] = snap["arrays"][key].astype(np.float64)
        other = ReplayBuffer(12)
        other.load_state_dict(snap)
        a, b = buf.sample(8), other.sample(8)
        for key in a:
            assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key
        assert b["states"].dtype == b["next_states"].dtype == np.float32 and b["rewards"].dtype == np.float64



class TestSchedule:
    def test_endpoints(self):
        s = LinearSchedule(1.0, 0.0, 100)
        assert s(0) == 1.0
        assert s(100) == 0.0
        assert s(1000) == 0.0

    def test_midpoint(self):
        s = LinearSchedule(1.0, 0.0, 100)
        assert s(50) == pytest.approx(0.5)

    def test_increasing_schedule(self):
        s = LinearSchedule(0.0, 2.0, 10)
        assert s(5) == pytest.approx(1.0)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            LinearSchedule(1.0, 0.0, 0)


class TestTrainer:
    def _trainer(self, steps=60, n=6, seed=0):
        env = PrefixEnv(n, AnalyticalEvaluator(0.5, 0.5), horizon=12, rng=seed)
        agent = ScalarizedDoubleDQN(
            n, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=seed
        )
        cfg = TrainerConfig(steps=steps, batch_size=4, warmup_steps=8)
        return Trainer(env, agent, cfg, rng=seed), env

    def test_run_collects_history(self):
        trainer, env = self._trainer(steps=50)
        hist = trainer.run()
        assert hist.env_steps == 50
        assert hist.gradient_steps > 0
        assert len(hist.losses) == hist.gradient_steps
        assert len(hist.areas) == 50

    def test_episodes_complete(self):
        trainer, env = self._trainer(steps=40)
        hist = trainer.run()
        # horizon 12 -> at least 3 completed episodes in 40 steps
        assert len(hist.episode_returns) >= 3

    def test_epsilon_anneals(self):
        trainer, _ = self._trainer(steps=50)
        hist = trainer.run()
        assert hist.epsilon_trace[0] == 1.0
        assert hist.epsilon_trace[-1] < hist.epsilon_trace[0]

    def test_archive_grows(self):
        trainer, env = self._trainer(steps=50)
        trainer.run()
        assert env.archive.num_seen > 50  # steps + episode resets
        assert len(env.archive) >= 1

    def test_frontier_improves_over_random_start(self):
        # After training, the archive must contain something at least as
        # good as both start states.
        from repro.analytical import evaluate_analytical
        from repro.prefix import ripple_carry

        trainer, env = self._trainer(steps=120)
        trainer.run()
        front = env.archive.points()
        rip = evaluate_analytical(ripple_carry(6))
        assert any(a <= rip.area and d <= rip.delay for a, d in front)


class TestSweep:
    def test_weight_grid(self):
        ws = weight_grid(5)
        assert len(ws) == 5
        assert ws[0] == pytest.approx(0.10)
        assert ws[-1] == pytest.approx(0.99)
        assert weight_grid(1) == [pytest.approx(0.545)]
        with pytest.raises(ValueError):
            weight_grid(0)

    def test_sweep_merges_archives(self):
        archive, spent = frontier(
            rl_search(agent_kwargs=dict(blocks=0, channels=4, lr=1e-3), horizon=10),
            6,
            lambda wa, wd: AnalyticalEvaluator(wa, wd),
            weights=[0.2, 0.8],
            budget=40,
            seed=0,
        )
        assert len(spent) == 2 and all(0 < s <= 40 for s in spent)
        assert len(archive.points()) >= 1
        # Frontier payloads are actual designs.
        for area, delay, graph in archive.entries():
            assert graph.n == 6

    def test_sweep_deterministic(self):
        args = (
            rl_search(agent_kwargs=dict(blocks=0, channels=4), horizon=8),
            6,
            lambda wa, wd: AnalyticalEvaluator(wa, wd),
            [0.5],
            30,
        )
        a, spent_a = frontier(*args, seed=7)
        b, spent_b = frontier(*args, seed=7)
        assert a.points() == b.points() and spent_a == spent_b

    def test_sweep_streams_are_one_agent_per_weight(self):
        """Weight i's env and agent take children 2i and 2i+1 of the seed,
        and its epsilon is the config's schedule read at the spend."""
        agent_kwargs, config, weights, budget = dict(blocks=0, channels=4, lr=1e-3), TrainerConfig(), [0.2, 0.8], 40
        search = rl_search(agent_kwargs, config, horizon=10)
        archive, spent = frontier(search, 6, AnalyticalEvaluator, weights, budget, seed=3)
        by_hand = ParetoArchive()
        rngs = spawn_rngs(3, 2 * len(weights))
        schedule = config.schedule(budget)
        traces, spent_by_hand = [], []
        for i, w in enumerate(weights):
            evaluator = ArchivingEvaluator(AnalyticalEvaluator(w, 1.0 - w), by_hand, budget)
            env = PrefixEnv(6, evaluator, horizon=10, rng=rngs[2 * i])
            agent = ScalarizedDoubleDQN(6, w_area=w, w_delay=1.0 - w, rng=rngs[2 * i + 1], **agent_kwargs)
            buffer = ReplayBuffer(config.buffer_capacity, rng=rngs[2 * i + 1])
            history = TrainingHistory()
            loop = make_loop(env, agent, buffer, config, math.inf, lambda _, e=evaluator: schedule(e.spent), history)
            loop.start()
            with pytest.raises(BudgetExhausted):
                while True:
                    loop.tick()
            traces.append(history.epsilon_trace)
            spent_by_hand.append(evaluator.spent)
        assert spent == spent_by_hand
        # The spend, not the step count, anneals epsilon: the runs take
        # more env steps than the schedule's duration and end greedy.
        assert all(len(trace) > schedule.duration and trace[-1] == 0.0 for trace in traces)

        def keyed(a):
            return [(area, delay, graph.key()) for area, delay, graph in a.entries()]

        assert keyed(archive) == keyed(by_hand)
        assert archive.num_seen == by_hand.num_seen
