"""The training runtime's sync shape: one stepper, checkpoints, its config."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

from repro.env import PrefixEnv, VectorPrefixEnv
from repro.rl import (
    CheckpointError,
    RuntimeConfig,
    ScalarizedDoubleDQN,
    Trainer,
    TrainerConfig,
    TrainingRuntime,
)
from repro.synth import AnalyticalEvaluator


def make_agent(seed=0, n=6):
    return ScalarizedDoubleDQN(n, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=seed)


def make_env(seed=0, n=6, horizon=12):
    return PrefixEnv(n, AnalyticalEvaluator(0.5, 0.5), horizon=horizon, rng=seed)


CFG = TrainerConfig(steps=60, batch_size=4, warmup_steps=8)


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
        weights through ``Trainer``, the sync runtime, and a run preempted
        at step 24 (a round boundary of the vector env) then resumed."""
        a_trainer, a_sync, a_resumed = make_agent(), make_agent(), make_agent()
        h_trainer = Trainer(make(), a_trainer, CFG, rng=0).run()
        h_sync = TrainingRuntime(
            make(), a_sync, CFG, RuntimeConfig(), rng=0
        ).run()

        part = TrainingRuntime(
            make(), make_agent(), CFG, RuntimeConfig(stop_after=24),
            checkpoint_dir=tmp_path, rng=0,
        )
        h_part = part.run()
        assert part.preempted and h_part.env_steps == 24
        resumed = TrainingRuntime(
            make(), a_resumed, CFG, RuntimeConfig(),
            checkpoint_dir=tmp_path, rng=0,
        )
        h_resumed = resumed.run(resume=True)
        assert not resumed.preempted

        for history, agent in ((h_sync, a_sync), (h_resumed, a_resumed)):
            assert_histories_identical(h_trainer, history)
            assert_weights_identical(a_trainer, agent)

    @pytest.mark.parametrize("env", [None, [make_env()]], ids=["none", "list"])
    def test_rejects_anything_but_one_env(self, env):
        with pytest.raises(ValueError, match="single environment"):
            TrainingRuntime(env, make_agent(), CFG, RuntimeConfig())

    def test_one_shape(self):
        """Every multi-replica run is this runtime over a vector env."""
        params = inspect.signature(TrainingRuntime).parameters
        assert list(params) == ["env", "agent", "config", "runtime", "checkpoint_dir", "rng"]

    def test_another_replica_count_is_refused_before_anything_is_restored(self, tmp_path):
        """A checkpoint of E=3 replicas resumed on E=2 fails naming both
        counts, and the agent and the replay buffer are left as built."""
        TrainingRuntime(
            make_venv(), make_agent(), CFG, RuntimeConfig(stop_after=12),
            checkpoint_dir=tmp_path, rng=0,
        ).run()
        fresh = make_agent(seed=5)
        before = {k: v.copy() for k, v in fresh.local.state_arrays().items()}
        two = VectorPrefixEnv.make(6, AnalyticalEvaluator(0.5, 0.5), num_envs=2, horizon=12, seed=0)
        runtime = TrainingRuntime(two, fresh, CFG, RuntimeConfig(), checkpoint_dir=tmp_path, rng=0)
        with pytest.raises(CheckpointError, match="3 env replicas, this run steps 2"):
            runtime.run(resume=True)
        for key, value in fresh.local.state_arrays().items():
            np.testing.assert_array_equal(value, before[key])
        assert fresh.gradient_steps == 0 and len(runtime.buffer) == 0

    def test_vector_env_halts_at_the_round_boundary_past_stop_after(self, tmp_path):
        """E=3 replicas step together, so ``stop_after=25`` halts at 27, the
        first round boundary at or past it; the resume then matches an
        uninterrupted run bit for bit."""
        part = TrainingRuntime(
            make_venv(), make_agent(), CFG, RuntimeConfig(stop_after=25),
            checkpoint_dir=tmp_path, rng=0,
        )
        h_part = part.run()
        assert part.preempted
        assert h_part.env_steps == 27 and len(h_part.areas) == 27
        assert part.manager.steps() == [27]

        a_full, a_resumed = make_agent(), make_agent()
        h_full = Trainer(make_venv(), a_full, CFG, rng=0).run()
        h_resumed = TrainingRuntime(
            make_venv(), a_resumed, CFG, RuntimeConfig(), checkpoint_dir=tmp_path, rng=0
        ).run(resume=True)
        assert_histories_identical(h_full, h_resumed)
        assert_weights_identical(a_full, a_resumed)


class TestRuntimeConfigValidation:
    def test_mode_is_not_a_knob(self):
        """The runtime has one shape."""
        with pytest.raises(TypeError, match="mode"):
            RuntimeConfig(mode="sync")

    def test_only_the_checkpoint_knobs(self):
        assert [f.name for f in fields(RuntimeConfig)] == [
            "checkpoint_every", "stop_after",
        ]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stop_after", 0), ("stop_after", -3),  # a halt before the first step
            ("checkpoint_every", -1),
        ],
    )
    def test_runtime_config_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            RuntimeConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learn_every", 0), ("batch_size", 0), ("warmup_steps", 0), ("steps", -1),
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
