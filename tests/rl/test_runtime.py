"""The asynchronous actor-learner runtime and its deterministic fallback."""

import numpy as np
import pytest

from repro.env import PrefixEnv, VectorPrefixEnv
from repro.rl import (
    RuntimeConfig,
    ScalarizedDoubleDQN,
    Trainer,
    TrainerConfig,
    TrainingRuntime,
)
from repro.synth import AnalyticalEvaluator, SynthesisCache, SynthesisEvaluator


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
        6, lambda: AnalyticalEvaluator(0.5, 0.5), num_envs=3, horizon=12, seed=0
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
            make(), a_sync, CFG, RuntimeConfig(mode="sync"), rng=0
        ).run()

        part = TrainingRuntime(
            make(), make_agent(), CFG, RuntimeConfig(mode="sync", stop_after=24),
            checkpoint_dir=tmp_path, rng=0,
        )
        h_part = part.run()
        assert part.preempted and h_part.env_steps == 24
        resumed = TrainingRuntime(
            make(), a_resumed, CFG, RuntimeConfig(mode="sync"),
            checkpoint_dir=tmp_path, rng=0,
        )
        h_resumed = resumed.run(resume=True)
        assert not resumed.preempted

        for history, agent in ((h_sync, a_sync), (h_resumed, a_resumed)):
            assert_histories_identical(h_trainer, history)
            assert_weights_identical(a_trainer, agent)

    def test_rejects_env_list(self):
        with pytest.raises(ValueError, match="single environment"):
            TrainingRuntime([make_env()], make_agent(), CFG, RuntimeConfig(mode="sync"))


class TestAsyncMode:
    def _runtime(self, num_actors=2, steps=60, seed=0, **runtime_kwargs):
        envs = [make_env(seed=seed + 10 * i) for i in range(num_actors)]
        cfg = TrainerConfig(steps=steps, batch_size=4, warmup_steps=8)
        return TrainingRuntime(
            envs, make_agent(seed), cfg,
            RuntimeConfig(mode="async", num_actors=num_actors, **runtime_kwargs),
            rng=seed,
        )

    def test_reaches_budget_with_consistent_counters(self):
        rt = self._runtime()
        h = rt.run()
        assert h.env_steps == 60
        assert len(h.areas) == len(h.delays) == len(h.epsilon_trace) == 60
        assert len(h.losses) == h.gradient_steps
        # Learner cadence matches the synchronous loop: first gradient step
        # when the warmup fills, then one per learn_every env steps.
        expected = (60 - CFG.warmup_steps) // CFG.learn_every + 1
        assert h.gradient_steps == expected

    def test_actor_count_must_match_envs(self):
        with pytest.raises(ValueError, match="needs 3 environments"):
            TrainingRuntime(
                [make_env(), make_env(1)], make_agent(), CFG,
                RuntimeConfig(mode="async", num_actors=3),
            )

    def test_vector_envs_per_actor(self):
        envs = [
            VectorPrefixEnv.make(
                6, lambda: AnalyticalEvaluator(0.5, 0.5), num_envs=2,
                horizon=12, seed=i * 7,
            )
            for i in range(2)
        ]
        rt = TrainingRuntime(
            envs, make_agent(), CFG, RuntimeConfig(mode="async", num_actors=2), rng=0
        )
        h = rt.run()
        assert h.env_steps == 60

    def test_weight_publication_reaches_actors(self):
        rt = self._runtime(publish_every=1)
        h = rt.run()
        assert h.gradient_steps > 0
        # Episodes complete and returns accumulate across actors.
        assert len(h.episode_returns) >= 2

    def test_epsilon_anneals(self):
        # Actors interleave, so the trace need not be perfectly sorted —
        # but it starts fully exploratory and ends mostly greedy.
        h = self._runtime().run()
        assert h.epsilon_trace[0] == 1.0
        assert min(h.epsilon_trace) < 0.2
        assert h.epsilon_trace[-1] < 0.5

    def test_shared_cache_across_actors(self):
        from repro.cells import nangate45

        library = nangate45()
        cache = SynthesisCache()
        envs = [
            PrefixEnv(6, SynthesisEvaluator(library, cache=cache), horizon=8, rng=i)
            for i in range(2)
        ]
        cfg = TrainerConfig(steps=24, batch_size=4, warmup_steps=8)
        rt = TrainingRuntime(
            envs, make_agent(), cfg, RuntimeConfig(mode="async", num_actors=2), rng=0
        )
        h = rt.run()
        assert h.env_steps == 24
        stats = h.synthesis_stats
        assert stats is not None
        assert stats["cache"]["shared"] is True
        assert stats["cache"]["hits"] > 0  # both actors start from the same structures

    def test_async_preempt_and_resume(self, tmp_path):
        # Ingest clamps at min(total, stop_after): however the actor
        # threads race the learner, the halt snapshot lands on the step.
        cfg = TrainerConfig(steps=60, batch_size=4, warmup_steps=8)
        rt = TrainingRuntime(
            [make_env(seed=0), make_env(seed=10)], make_agent(), cfg,
            RuntimeConfig(mode="async", num_actors=2, stop_after=30),
            checkpoint_dir=tmp_path, rng=0,
        )
        h1 = rt.run()
        assert rt.preempted
        assert h1.env_steps == 30 and len(h1.areas) == 30
        assert rt.manager.steps() == [30]

        rt2 = TrainingRuntime(
            [make_env(seed=0), make_env(seed=10)], make_agent(), cfg,
            RuntimeConfig(mode="async", num_actors=2),
            checkpoint_dir=tmp_path, rng=0,
        )
        h2 = rt2.run(resume=True)
        assert not rt2.preempted
        assert h2.env_steps == 60 and len(h2.areas) == 60
        # The resumed history extends the preempted one.
        assert h2.areas[:30] == h1.areas
        assert h2.losses[: len(h1.losses)] == h1.losses

    def test_periodic_async_checkpoints_park_the_actors(self, tmp_path):
        # A tight backpressure lag makes the actors yield to the learner,
        # so its loop comes round to a due checkpoint while they still run.
        cfg = TrainerConfig(steps=120, batch_size=4, warmup_steps=8)
        rt = TrainingRuntime(
            [make_env(seed=0), make_env(seed=10)], make_agent(), cfg,
            RuntimeConfig(
                mode="async", num_actors=2, checkpoint_every=20, keep_checkpoints=20,
                backpressure_lag=2, throttle_seconds=0.005,
            ),
            checkpoint_dir=tmp_path, rng=0,
        )
        assert rt.run().env_steps == 120
        steps = rt.manager.steps()
        assert len(steps) >= 3 and steps[-1] == 120
        for step in steps:
            state, _ = rt.manager.load(step=step)
            assert state["history"]["env_steps"] == step == len(state["history"]["areas"])
            assert [len(r) for r in state["loop"]["episode_returns"]] == [1, 1]

    def test_gradient_cadence_matches_sync_for_sparse_learning(self):
        # warmup not aligned to learn_every: the async learner must land on
        # exactly the synchronous schedule (steps 16, 24, 32 for this cfg).
        cfg = TrainerConfig(steps=40, batch_size=4, warmup_steps=16, learn_every=8)
        h_sync = Trainer(make_env(), make_agent(), cfg, rng=0).run()
        envs = [make_env(seed=i * 9) for i in range(2)]
        h_async = TrainingRuntime(
            envs, make_agent(), cfg, RuntimeConfig(mode="async", num_actors=2), rng=0
        ).run()
        assert h_async.gradient_steps == h_sync.gradient_steps

    def test_completed_async_run_always_checkpoints(self, tmp_path):
        # checkpoint_every=0 still writes the final snapshot (resume-extend).
        cfg = TrainerConfig(steps=24, batch_size=4, warmup_steps=8)
        rt = TrainingRuntime(
            [make_env(), make_env(5)], make_agent(), cfg,
            RuntimeConfig(mode="async", num_actors=2),
            checkpoint_dir=tmp_path, rng=0,
        )
        rt.run()
        assert rt.manager.steps() == [24]

    def test_inflight_episode_returns_survive_resume(self, tmp_path):
        # Preempt mid-episode (exactly at step 8, before any 12-step
        # episode can finish): the accumulated returns must ride the
        # checkpoint, not reset to zero.
        cfg = TrainerConfig(steps=40, batch_size=4, warmup_steps=8)
        rt = TrainingRuntime(
            [make_env(0), make_env(7)], make_agent(), cfg,
            RuntimeConfig(mode="async", num_actors=2, stop_after=8),
            checkpoint_dir=tmp_path, rng=0,
        )
        rt.run()
        assert rt.manager.steps() == [8]
        state, _ = rt.manager.load()
        saved = state["loop"]["episode_returns"]
        # No episode has ended, so each actor's running return is the
        # scalarized sum of the rewards in its replay shard, in order.
        expected = []
        for shard in rt.buffer.shards:
            total = 0.0
            for reward in shard.gather(np.arange(len(shard)))["rewards"] if len(shard) else []:
                total += float(rt.agent.w @ reward)
            expected.append([total])
        assert saved == expected

        rt2 = TrainingRuntime(
            [make_env(0), make_env(7)], make_agent(), cfg,
            RuntimeConfig(mode="async", num_actors=2),
            checkpoint_dir=tmp_path, rng=0,
        )
        h = rt2.run(resume=True)
        assert h.env_steps == 40 and len(h.areas) == 40

    def test_actor_error_propagates(self):
        class ExplodingEvaluator(AnalyticalEvaluator):
            def __init__(self):
                super().__init__(0.5, 0.5)
                self.calls = 0

            def evaluate(self, graph):
                self.calls += 1
                if self.calls > 10:
                    raise RuntimeError("synthetic evaluator failure")
                return super().evaluate(graph)

        envs = [
            PrefixEnv(6, ExplodingEvaluator(), horizon=12, rng=i) for i in range(2)
        ]
        rt = TrainingRuntime(
            envs, make_agent(), CFG, RuntimeConfig(mode="async", num_actors=2), rng=0
        )
        with pytest.raises(RuntimeError, match="actor"):
            rt.run()


class TestRuntimeConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            RuntimeConfig(mode="turbo")

    def test_bad_actor_count(self):
        with pytest.raises(ValueError, match="num_actors"):
            RuntimeConfig(num_actors=0)

    def test_bad_publish_cadence(self):
        with pytest.raises(ValueError, match="publish_every"):
            RuntimeConfig(publish_every=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learn_every", 0), ("batch_size", 0), ("warmup_steps", 0), ("steps", -1),
            ("epsilon_start", 1.5), ("epsilon_end", -0.1),
            ("buffer_capacity", 8),  # below warmup_steps: no gradient step could ever run
        ],
    )
    def test_trainer_config_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: value})
