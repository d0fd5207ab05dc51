"""The one training driver: one stepper, checkpoints, its config."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

from repro.env import PrefixEnv, VectorPrefixEnv
from repro.rl import (
    CheckpointError,
    ScalarizedDoubleDQN,
    Trainer,
    TrainerConfig,
)
from repro.synth import AnalyticalEvaluator


def make_agent(seed=0, n=6):
    return ScalarizedDoubleDQN(n, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=seed)


def make_env(seed=0, n=6, horizon=12):
    return PrefixEnv(n, AnalyticalEvaluator(0.5, 0.5), horizon=horizon, rng=seed)


CFG = TrainerConfig(batch_size=4, warmup_steps=8)
STEPS = 60


def assert_histories_identical(a, b):
    assert a.env_steps == b.env_steps
    assert a.gradient_steps == b.gradient_steps
    for f in ("losses", "episode_returns", "areas", "delays", "epsilon_trace"):
        assert getattr(a, f) == getattr(b, f), f


def make_venv():
    return VectorPrefixEnv.make(
        6, AnalyticalEvaluator(0.5, 0.5), num_envs=3, horizon=12, seed=0
    )


def assert_weights_identical(agent_a, agent_b):
    for ka, kb in zip(
        agent_a.local.state_arrays().items(), agent_b.local.state_arrays().items()
    ):
        assert ka[0] == kb[0]
        np.testing.assert_array_equal(ka[1], kb[1])


class TestSyncMode:
    @pytest.mark.parametrize("make", [make_env, make_venv], ids=["single", "vector"])
    def test_one_seed_one_run_across_trainer_sync_and_resume(self, make, tmp_path):
        """ROADMAP D.5: a seed gives a bit-identical history and final
        weights through a ``Trainer`` without a checkpoint dir, one with
        a dir, and a run preempted at step 24 (a round boundary of the
        vector env) then resumed."""
        a_trainer, a_sync, a_resumed = make_agent(), make_agent(), make_agent()
        h_trainer = Trainer(make(), a_trainer, CFG, rng=0).run(STEPS)
        h_sync = Trainer(make(), a_sync, CFG, rng=0, checkpoint_dir=tmp_path / "full").run(STEPS)

        part = Trainer(make(), make_agent(), CFG, rng=0, checkpoint_dir=tmp_path, stop_after=24)
        h_part = part.run(STEPS)
        assert part.preempted and h_part.env_steps == 24
        resumed = Trainer(make(), a_resumed, CFG, rng=0, checkpoint_dir=tmp_path)
        h_resumed = resumed.run(resume=True)
        assert not resumed.preempted

        for history, agent in ((h_sync, a_sync), (h_resumed, a_resumed)):
            assert_histories_identical(h_trainer, history)
            assert_weights_identical(a_trainer, agent)

    @pytest.mark.parametrize("env", [None, [make_env()]], ids=["none", "list"])
    def test_rejects_anything_but_one_env(self, env):
        with pytest.raises(ValueError, match="single environment"):
            Trainer(env, make_agent(), CFG)

    def test_one_shape(self):
        """Every run, with or without checkpoints, is this one driver; the
        checkpoint knobs are keywords, the run's length is ``run``'s."""
        params = inspect.signature(Trainer).parameters
        assert list(params) == ["env", "agent", "config", "rng", "checkpoint_dir", "checkpoint_every", "stop_after"]
        keyword_only = [name for name, p in params.items() if p.kind is inspect.Parameter.KEYWORD_ONLY]
        assert keyword_only == ["checkpoint_dir", "checkpoint_every", "stop_after"]
        assert list(inspect.signature(Trainer.run).parameters) == ["self", "steps", "resume"]

    def test_another_replica_count_is_refused_before_anything_is_restored(self, tmp_path):
        """A checkpoint of E=3 replicas resumed on E=2 fails naming both
        counts, and the agent and the replay buffer are left as built."""
        Trainer(make_venv(), make_agent(), CFG, rng=0, checkpoint_dir=tmp_path, stop_after=12).run(STEPS)
        fresh = make_agent(seed=5)
        before = {k: v.copy() for k, v in fresh.local.state_arrays().items()}
        two = VectorPrefixEnv.make(6, AnalyticalEvaluator(0.5, 0.5), num_envs=2, horizon=12, seed=0)
        trainer = Trainer(two, fresh, CFG, rng=0, checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError, match="3 env replicas, this run steps 2"):
            trainer.run(resume=True)
        for key, value in fresh.local.state_arrays().items():
            np.testing.assert_array_equal(value, before[key])
        assert fresh.gradient_steps == 0 and len(trainer.buffer) == 0

    def test_vector_env_halts_at_the_round_boundary_past_stop_after(self, tmp_path):
        """E=3 replicas step together, so ``stop_after=25`` halts at 27, the
        first round boundary at or past it; the resume then matches an
        uninterrupted run bit for bit."""
        part = Trainer(make_venv(), make_agent(), CFG, rng=0, checkpoint_dir=tmp_path, stop_after=25)
        h_part = part.run(STEPS)
        assert part.preempted
        assert h_part.env_steps == 27 and len(h_part.areas) == 27
        assert part.manager.steps() == [27]

        a_full, a_resumed = make_agent(), make_agent()
        h_full = Trainer(make_venv(), a_full, CFG, rng=0).run(STEPS)
        h_resumed = Trainer(make_venv(), a_resumed, CFG, rng=0, checkpoint_dir=tmp_path).run(resume=True)
        assert_histories_identical(h_full, h_resumed)
        assert_weights_identical(a_full, a_resumed)


class TestTrainerValidation:
    def test_mode_is_not_a_knob(self):
        """The driver has one shape."""
        with pytest.raises(TypeError, match="mode"):
            Trainer(make_env(), make_agent(), CFG, mode="sync")

    def test_the_run_length_is_not_a_config_field(self):
        """``TrainerConfig`` holds the run's knobs, not its length."""
        assert [f.name for f in fields(TrainerConfig)] == [
            "batch_size", "buffer_capacity", "warmup_steps", "learn_every",
            "epsilon_start", "epsilon_end", "epsilon_anneal_frac",
        ]
        with pytest.raises(TypeError, match="steps"):
            TrainerConfig(steps=60)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stop_after", 0), ("stop_after", -3),  # a halt before the first step
            ("checkpoint_every", -1),
        ],
    )
    def test_checkpoint_knobs_reject_out_of_range(self, field, value, tmp_path):
        with pytest.raises(ValueError, match=field):
            Trainer(make_env(), make_agent(), CFG, checkpoint_dir=tmp_path, **{field: value})

    @pytest.mark.parametrize("knobs", [dict(stop_after=20), dict(checkpoint_every=10)], ids=["stop_after", "every"])
    def test_checkpoint_knobs_without_a_dir_fail_before_training(self, knobs):
        """A knob that writes a checkpoint needs a directory: the driver
        refuses at construction, before any env step or gradient step."""
        env, agent = make_env(), make_agent()
        with pytest.raises(ValueError, match="need a checkpoint_dir"):
            Trainer(env, agent, CFG, rng=0, **knobs)
        assert agent.gradient_steps == 0 and env.total_steps == 0

    @pytest.mark.parametrize("steps", [None, -1])
    def test_a_fresh_run_needs_a_step_count(self, steps):
        with pytest.raises(ValueError, match="step count"):
            Trainer(make_env(), make_agent(), CFG).run(steps)

    def test_resume_needs_a_checkpoint_dir(self):
        with pytest.raises(ValueError, match="without a checkpoint_dir"):
            Trainer(make_env(), make_agent(), CFG).run(resume=True)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learn_every", 0), ("batch_size", 0), ("warmup_steps", 0),
            ("epsilon_start", 1.5), ("epsilon_end", -0.1),
            # Above 1 epsilon never reaches epsilon_end; NaN died in int().
            ("epsilon_anneal_frac", 1.5), ("epsilon_anneal_frac", -0.5),
            ("epsilon_anneal_frac", float("nan")),
            ("buffer_capacity", 8),  # below warmup_steps: no gradient step could ever run
        ],
    )
    def test_trainer_config_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: value})

    @pytest.mark.parametrize("frac", [0.0, 1.0])
    def test_anneal_frac_endpoints_reach_epsilon_end(self, frac):
        schedule = TrainerConfig(epsilon_anneal_frac=frac).schedule(100)
        assert schedule(100) == 0.0
