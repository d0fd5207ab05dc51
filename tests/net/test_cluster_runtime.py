"""TrainingRuntime(cluster=spec): end-to-end training over sockets.

Actors run as in-process threads here (each with its own Connection, so
the full wire path is exercised); the true multi-process shape is covered
by the CLI end-to-end test and the CI cluster-smoke job.
"""

from __future__ import annotations

import threading
from dataclasses import asdict

import numpy as np
import pytest

from repro.net import ClusterConfig, ClusterSpec, RemoteActorWorker
from repro.rl import (
    RuntimeConfig,
    ScalarizedDoubleDQN,
    TrainerConfig,
    TrainingRuntime,
)
from repro.rl.checkpoint import CheckpointError


def make_runtime(steps=20, checkpoint_dir=None, config=None, runtime_config=None, **fleet_kwargs):
    agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, lr=3e-4, rng=0)
    fleet_kwargs.setdefault("cluster_wait", 30.0)
    spec = ClusterSpec.for_agent(
        agent, horizon=6, library="nangate45", seed=0,
        config=ClusterConfig(envs_per_actor=2, **fleet_kwargs),
    )
    if config is None:
        config = TrainerConfig(steps=steps, batch_size=8, warmup_steps=8)
    return TrainingRuntime(
        None,
        agent,
        config,
        runtime_config,
        checkpoint_dir=checkpoint_dir,
        rng=0,
        cluster=spec,
    )


def run_with_actors(runtime, steps=None, resume=False):
    """One actor thread per slot of the runtime's ``config.actors``."""
    address = runtime.bind()
    stats = {}

    def actor(i):
        stats[i] = RemoteActorWorker(address).run()

    threads = [
        threading.Thread(target=actor, args=(i,), daemon=True)
        for i in range(runtime.cluster.config.actors)
    ]
    for t in threads:
        t.start()
    history = runtime.run(steps=steps, resume=resume)
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "actor thread leaked"
    return history, stats


class TestClusterTraining:
    def test_full_run_reaches_budget_and_trains(self):
        runtime = make_runtime(steps=20)
        history, stats = run_with_actors(runtime)
        assert history.env_steps == 20
        assert history.gradient_steps > 0
        assert len(history.areas) == 20 and len(history.losses) > 0
        assert sorted(s["actor_id"] for s in stats.values()) == [0, 1]
        assert sum(s["env_steps_kept"] for s in stats.values()) == 20
        assert history.synthesis_stats["backend"] == "cluster-service"

    def test_construction_contracts(self):
        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        with pytest.raises(ValueError, match="needs a ClusterSpec"):
            TrainingRuntime(None, agent, runtime=RuntimeConfig())
        with pytest.raises(ValueError, match="env=None"):
            TrainingRuntime(
                object(),
                agent,
                runtime=RuntimeConfig(),
                cluster=ClusterSpec.for_agent(agent),
            )
        spec = ClusterSpec.for_agent(agent)
        spec.width = 8
        with pytest.raises(ValueError, match="width"):
            TrainingRuntime(
                None, agent, runtime=RuntimeConfig(), cluster=spec
            )

    @pytest.mark.parametrize("stale", [{}, {"fast_conv": False}, {"fast_conv": True}])
    def test_actor_builds_its_net_from_specs_of_either_release(self, stale):
        """The learner stopped sending ``fast_conv`` (PROTOCOL_VERSION still
        2); a join spec from a learner that still sends it builds the same net."""
        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        spec = asdict(ClusterSpec.for_agent(agent, horizon=6, envs_per_actor=2))
        assert "fast_conv" not in spec
        join = {"spec": {**spec, **stale}, "env_seed": 1, "exploration_seed": 2, "actor_id": 0}
        loop, _backend = RemoteActorWorker(("127.0.0.1", 1))._build(join, cache_client=None)
        assert sorted(loop.net.state_arrays()) == sorted(agent.local.state_arrays())

    def test_actors_join_a_learner_whose_spec_config_carries_retired_keys(self, monkeypatch):
        """A ``serve-learner`` built before the shared inference server was
        removed still ships its three ``inference*`` knobs in the spec's
        ``config`` dict; actors read named keys and train against it."""
        from repro.net.learner import LearnerState

        join_reply = LearnerState._join_reply

        def with_retired_keys(self, *args, **kwargs):
            reply = join_reply(self, *args, **kwargs)
            reply["spec"]["config"].update(
                inference=True, inference_max_batch=256, inference_max_wait=0.005
            )
            return reply

        monkeypatch.setattr(LearnerState, "_join_reply", with_retired_keys)
        runtime = make_runtime(steps=12)
        history, stats = run_with_actors(runtime)
        assert history.env_steps == 12
        assert sum(s["env_steps_kept"] for s in stats.values()) == 12
        assert all("inference" not in s for s in stats.values())

    def test_sparse_learning_takes_the_sync_gradient_steps(self):
        """warmup_steps not a multiple of learn_every: the learner loop fires
        on the sync stepper's predicate, so it lands on the same count."""
        from repro.env import PrefixEnv
        from repro.rl import Trainer
        from repro.rl.trainer import grads_allowed
        from repro.synth import AnalyticalEvaluator

        config = TrainerConfig(steps=40, batch_size=4, warmup_steps=16, learn_every=8)
        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        h_sync = Trainer(PrefixEnv(4, AnalyticalEvaluator(), horizon=6, rng=0), agent, config, rng=0).run()
        history, _stats = run_with_actors(make_runtime(config=config))
        assert history.env_steps == 40
        assert history.gradient_steps == h_sync.gradient_steps == grads_allowed(40, config)

    def test_no_actors_is_a_clear_timeout(self):
        runtime = make_runtime(steps=8, cluster_wait=0.5)
        with pytest.raises(RuntimeError, match="no actors connected"):
            runtime.run()

    def test_lease_protocol_eliminates_cross_actor_duplicates(self):
        """Two actors start from the same structures and overlap heavily;
        the claim/lease protocol must keep cluster-wide synthesis at one
        run per unique digest (fulfilled leases == unique designs)."""
        runtime = make_runtime(steps=16)
        history, stats = run_with_actors(runtime)
        assert history.env_steps == 16
        lease = history.synthesis_stats["lease"]
        assert lease["fulfilled"] > 0
        # Every design synthesized exactly once: entries == fulfilled
        # (nothing entered the shared cache except through a lease).
        assert history.synthesis_stats["cache"]["entries"] == lease["fulfilled"]
        total_synth = sum(s["backend"]["synthesized"] for s in stats.values())
        assert total_synth == lease["fulfilled"]
        # The overlap was real: at least one duplicate was suppressed via
        # a wait (the other actor held the lease) or a shared-cache hit.
        assert lease["waits"] + history.synthesis_stats["cache"]["hits"] > 0

    def test_actor_routes_leased_synthesis_through_farm_workers(self):
        """`repro actor --farm`: leased misses ship to farm-worker daemons
        (the actor-host-drives-synthesis-hosts shape)."""
        from repro.net import FarmWorkerServer

        with FarmWorkerServer(("127.0.0.1", 0)) as worker:
            runtime = make_runtime(steps=12, actors=1)
            address = runtime.bind()
            stats = {}

            def actor():
                stats["a"] = RemoteActorWorker(
                    address,
                    farm_workers=[f"{worker.address[0]}:{worker.address[1]}"],
                ).run()

            thread = threading.Thread(target=actor, daemon=True)
            thread.start()
            history = runtime.run()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert history.env_steps == 12
            backend = stats["a"]["backend"]
            assert backend["synthesized"] > 0
            # Every synthesized design crossed to the farm worker.
            assert backend["remote"]["workers"] == 1
            assert worker.tasks_served == backend["synthesized"]


class TestClusterCheckpoint:
    def test_preempt_then_resume_completes(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        runtime = make_runtime(steps=20, checkpoint_dir=ckpt, runtime_config=RuntimeConfig(stop_after=10))
        history, _stats = run_with_actors(runtime)
        assert runtime.preempted
        # Ingest clamps at min(total, stop_after): however the two actors
        # race the learner, the halt snapshot lands on the step.
        assert history.env_steps == 10 and len(history.areas) == 10
        assert runtime.manager.steps() == [10]
        saved_steps = history.env_steps

        resumed = make_runtime(steps=20, checkpoint_dir=ckpt)
        history2, _stats = run_with_actors(resumed, steps=None, resume=True)
        assert not resumed.preempted
        assert history2.env_steps == 20
        # The resumed history extends the checkpointed one.
        assert history2.areas[:saved_steps] == history.areas[:saved_steps]
        assert history2.epsilon_trace[:saved_steps] == history.epsilon_trace[:saved_steps]

    def test_periodic_checkpoints_are_consistent_snapshots(self, tmp_path):
        """Each save holds the ingest lock, so no kept snapshot catches a
        half-folded round: its history counts, step and telemetry agree. A
        tight backpressure lag makes the actors yield to the learner, so its
        loop comes round to due checkpoints while they still run."""
        ckpt = tmp_path / "ckpt"
        runtime = make_runtime(
            steps=24, checkpoint_dir=ckpt,
            runtime_config=RuntimeConfig(checkpoint_every=5, keep_checkpoints=0),
            backpressure_lag=2, throttle_seconds=0.005,
        )
        history, _stats = run_with_actors(runtime)
        assert history.env_steps == 24
        steps = runtime.manager.steps()
        assert len(steps) >= 2 and steps[-1] == 24
        for step in steps:
            state, _ = runtime.manager.load(step=step)
            assert state["history"]["env_steps"] == step == len(state["history"]["areas"])

    def test_resume_restores_shared_cache(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        runtime = make_runtime(steps=12, checkpoint_dir=ckpt)
        run_with_actors(runtime)
        entries = len(runtime._cluster_cache)
        assert entries > 0

        resumed = make_runtime(steps=12, checkpoint_dir=ckpt)
        resumed.bind()
        try:
            resumed._load(None)
            assert len(resumed._cluster_cache) == entries
        finally:
            resumed._server.stop()
            resumed._server = None

    def test_resume_with_different_actor_count_keeps_the_ring(self, tmp_path):
        """The replay is one ring whatever the slot count: a learner with
        three actor slots resumes a two-slot run's checkpoint whole."""
        ckpt = tmp_path / "ckpt"
        runtime = make_runtime(steps=12, checkpoint_dir=ckpt)
        run_with_actors(runtime)

        resized = make_runtime(steps=12, actors=3, checkpoint_dir=ckpt)
        resized.bind()
        try:
            resized._load(None)
        finally:
            resized._server.stop()
            resized._server = None
        assert len(resized.buffer) == len(runtime.buffer) == 12
        rows = np.arange(12)
        saved, loaded = runtime.buffer.gather(rows), resized.buffer.gather(rows)
        for key in saved:
            np.testing.assert_array_equal(loaded[key], saved[key])

    def test_mode_mismatch_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        runtime = make_runtime(steps=12, checkpoint_dir=ckpt)
        run_with_actors(runtime)

        from repro.env import PrefixEnv
        from repro.synth import AnalyticalEvaluator

        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        env = PrefixEnv(4, AnalyticalEvaluator(), horizon=6, rng=0)
        sync = TrainingRuntime(
            env,
            agent,
            TrainerConfig(steps=12, batch_size=8, warmup_steps=8),
            RuntimeConfig(),
            checkpoint_dir=ckpt,
            rng=0,
        )
        with pytest.raises(CheckpointError, match="mode"):
            sync.run(resume=True)
