"""The one acting path: one epsilon-greedy policy, one collection stepper,
one statement of the gradient cadence."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.env import PrefixEnv, VectorPrefixEnv
from repro.rl import (
    CheckpointManager,
    ReplayBuffer,
    ScalarizedDoubleDQN,
    Trainer,
    TrainerConfig,
    TrainingHistory,
    epsilon_greedy,
    make_loop,
)
from repro.rl.trainer import grads_allowed
from repro.synth import AnalyticalEvaluator

PARENT_CHECKPOINT = Path(__file__).resolve().parents[1] / "fixtures" / "pr15_train8_seed3"
FLOAT32_CHECKPOINT = PARENT_CHECKPOINT.with_name("pr22_train8_seed3")
FORMAT2_CHECKPOINT = PARENT_CHECKPOINT.with_name("pr53_train8_seed3")


def make_agent(seed=0, n=6):
    return ScalarizedDoubleDQN(n, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=seed)


def make_env(seed=0, n=6, horizon=12):
    return PrefixEnv(n, AnalyticalEvaluator(0.5, 0.5), horizon=horizon, rng=seed)


def observed(num_envs, n=6):
    venv = VectorPrefixEnv([make_env(seed) for seed in range(num_envs)])
    venv.reset()
    return venv.observe(), venv.legal_masks()


class CountingNet:
    """Wraps a network's ``predict``, recording the batch sizes it served."""

    def __init__(self, net):
        self.net = net
        self.batches = []

    def predict(self, x):
        self.batches.append(len(x))
        return self.net.predict(x)


class TestPolicy:
    def test_epsilon_zero_is_the_masked_argmax_of_a_direct_predict(self):
        agent = make_agent()
        features, masks = observed(4)
        flat = agent.actions.qmaps_to_flat(agent.local.predict(features))
        want = np.argmax(np.where(masks, flat @ agent.w, -np.inf), axis=1)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        got = epsilon_greedy(agent.local, agent.actions, agent.w, features, masks, 0.0, rng)
        assert np.array_equal(got, want) and got.dtype == np.int64
        assert rng.bit_generator.state == before  # epsilon 0 draws nothing
        assert np.array_equal(agent.act_batch(features, masks), want)
        assert [agent.act(f, m) for f, m in zip(features, masks)] == list(want)

    def test_epsilon_one_never_calls_predict(self):
        agent = make_agent()
        features, masks = observed(4)
        net = CountingNet(agent.local)
        chosen = epsilon_greedy(net, agent.actions, agent.w, features, masks, 1.0, np.random.default_rng(0))
        assert net.batches == []
        assert all(masks[e, a] for e, a in enumerate(chosen))

    def test_all_masked_row_raises(self):
        agent = make_agent()
        features, masks = observed(3)
        masks[1] = False
        with pytest.raises(ValueError, match="no legal actions"):
            agent.act_batch(features, masks, epsilon=0.5)
        with pytest.raises(ValueError, match="no legal actions"):
            agent.act(features[1], masks[1])

    def test_draws_are_in_replica_order_and_predict_sees_only_the_exploit_rows(self):
        """``random()``, then ``integers()`` only for a replica that explores."""
        agent = make_agent()
        features, masks = observed(4)
        net = CountingNet(agent.local)
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        chosen = epsilon_greedy(net, agent.actions, agent.w, features, masks, 0.6, rng)
        explored = {}
        for e in range(4):
            if twin.random() < 0.6:
                legal = np.nonzero(masks[e])[0]
                explored[e] = legal[twin.integers(legal.size)]
        exploit = [e for e in range(4) if e not in explored]
        assert 0 < len(explored) < 4  # the seed exercises both branches
        assert rng.bit_generator.state == twin.bit_generator.state
        assert all(chosen[e] == a for e, a in explored.items())
        assert net.batches == [len(exploit)]
        assert np.array_equal(chosen[exploit], agent.act_batch(features, masks)[exploit])


class TestOneStepper:
    def test_bare_env_and_one_replica_vector_env_are_the_same_run(self):
        """At the parent the modulo (single) and debt (vector) cadences
        disagreed in phase at ``learn_every`` 3."""
        cfg = TrainerConfig(steps=50, batch_size=4, warmup_steps=10, learn_every=3)
        a_bare, a_vec = make_agent(), make_agent()
        h_bare = Trainer(make_env(), a_bare, cfg, rng=0).run()
        h_vec = Trainer(VectorPrefixEnv([make_env()]), a_vec, cfg, rng=0).run()
        assert h_bare.gradient_steps == h_vec.gradient_steps == grads_allowed(50, cfg) > 0
        for name in ("losses", "areas", "delays", "epsilon_trace", "episode_returns"):
            assert getattr(h_bare, name) == getattr(h_vec, name), name
        for (ka, va), (kb, vb) in zip(
            a_bare.local.state_arrays().items(), a_vec.local.state_arrays().items()
        ):
            assert ka == kb and np.array_equal(va, vb)

    @pytest.mark.parametrize("learn_every", [1, 2, 3])
    @pytest.mark.parametrize("num_envs", [1, 3, 8])
    def test_gradient_steps_track_grads_allowed_every_tick(self, num_envs, learn_every):
        cfg = TrainerConfig(batch_size=4, warmup_steps=10, learn_every=learn_every)
        venv = VectorPrefixEnv([make_env(seed) for seed in range(num_envs)])
        history, buffer = TrainingHistory(), ReplayBuffer(cfg.buffer_capacity, rng=0)
        loop = make_loop(venv, make_agent(), buffer, cfg, 60, cfg.schedule(60), history)
        loop.start()
        while not loop.done:
            loop.tick()
            if len(buffer) >= cfg.warmup_steps:
                assert history.gradient_steps == grads_allowed(history.env_steps, cfg)
            else:
                assert history.gradient_steps == 0
        assert history.env_steps == 60 and history.gradient_steps == len(history.losses) > 0

    def test_first_warm_round_takes_grads_allowed_steps(self):
        """The one intended behaviour change: at E=8, ``warmup_steps`` 32 the
        round that fills the buffer takes 1 gradient step (the debt counter
        took 8), and 8 per round from then on."""
        cfg = TrainerConfig(batch_size=4, warmup_steps=32)
        venv = VectorPrefixEnv([make_env(seed) for seed in range(8)])
        history, buffer = TrainingHistory(), ReplayBuffer(cfg.buffer_capacity, rng=0)
        loop = make_loop(venv, make_agent(), buffer, cfg, 48, cfg.schedule(48), history)
        loop.start()
        per_round = []
        while not loop.done:
            before = history.gradient_steps
            loop.tick()
            per_round.append(history.gradient_steps - before)
        assert per_round == [0, 0, 0, 1, 8, 8]


class TestEarlierReleases:
    def test_parent_single_loop_checkpoint_resumes_to_the_parents_stdout(self, tmp_path, capsys):
        """Also the float64 checkpoint that loads by cast: every network, Adam
        and replay array in it is float64, and the float32 run it resumes into
        still ends on the stdout the float64 run printed."""
        ckpt = tmp_path / "ckpt"
        shutil.copytree(PARENT_CHECKPOINT, ckpt)
        assert main(["train", "8", "--seed", "3", "--checkpoint-dir", str(ckpt), "--resume"]) == 0
        assert capsys.readouterr().out == (PARENT_CHECKPOINT / "uninterrupted.stdout").read_text()

    def test_float32_checkpoint_resumes_to_its_own_stdout(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(FLOAT32_CHECKPOINT, ckpt)
        assert main(["train", "8", "--seed", "3", "--checkpoint-dir", str(ckpt), "--resume"]) == 0
        assert capsys.readouterr().out == (FLOAT32_CHECKPOINT / "uninterrupted.stdout").read_text()

    def test_format2_checkpoint_resumes_to_its_own_stdout(self, tmp_path, capsys):
        """The format-2 fixture (no ``mode``, ``env_kind``, ``caches`` or
        ``obs``; one backend record) resumes without an upgrade step to the
        bytes the format-1 fixtures end on too."""
        state, manifest = CheckpointManager(str(FORMAT2_CHECKPOINT)).load()
        assert manifest["version"] == 2 and "meta" not in manifest
        assert set(state) == {"total", "trainer_config", "loop", "history", "agent", "buffer", "backend", "env"}
        ckpt = tmp_path / "ckpt"
        shutil.copytree(FORMAT2_CHECKPOINT, ckpt)
        assert main(["train", "8", "--seed", "3", "--checkpoint-dir", str(ckpt), "--resume"]) == 0
        out = capsys.readouterr().out
        assert out == (FORMAT2_CHECKPOINT / "uninterrupted.stdout").read_text()
        assert out == (FLOAT32_CHECKPOINT / "uninterrupted.stdout").read_text()

    @pytest.mark.parametrize("fixture", [PARENT_CHECKPOINT, FLOAT32_CHECKPOINT], ids=lambda path: path.name)
    def test_a_resumed_format1_fixture_writes_format_2(self, fixture, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(fixture, ckpt)
        assert main(["train", "8", "--seed", "3", "--checkpoint-dir", str(ckpt), "--resume"]) == 0
        capsys.readouterr()
        state, manifest = CheckpointManager(str(ckpt)).load()
        assert (manifest["step"], manifest["version"]) == (60, 2)
        assert state["backend"] is not None and not {"mode", "env_kind", "caches", "obs"} & set(state)

    # What each fixture's retired ``obs.metrics.counters`` entry counted,
    # read back from the records a checkpoint still keeps.
    RETIRED_COUNTERS = {
        "backend.batches": lambda stats, history: stats["batches"],
        "backend.designs": lambda stats, history: stats["designs"],
        "backend.dedup_saved": lambda stats, history: stats["dedup_saved"],
        "backend.cache_hits": lambda stats, history: stats["cache_hits"],
        "backend.synthesized": lambda stats, history: stats["synthesized"],
        "trainer.gradient_steps": lambda stats, history: history["gradient_steps"],
    }

    @pytest.mark.parametrize("counter", sorted(RETIRED_COUNTERS))
    @pytest.mark.parametrize("fixture", [PARENT_CHECKPOINT, FLOAT32_CHECKPOINT], ids=lambda path: path.name)
    def test_the_retired_metrics_record_repeats_what_the_checkpoint_keeps(self, fixture, counter):
        """Each count the fixtures' ``"obs"`` record held is the restored
        backend's ``stats()`` or the history's: dropping it loses nothing."""
        from repro.cells import nangate45
        from repro.synth import EvaluationBackend, SynthesisCache

        from repro.rl.checkpoint import upgrade

        state, manifest = CheckpointManager(str(fixture)).load()
        backend = EvaluationBackend(nangate45(), store=SynthesisCache())
        backend.load_state_dict(upgrade(state, manifest["version"])["backend"])
        expected = state["obs"]["metrics"]["counters"][counter]
        assert self.RETIRED_COUNTERS[counter](backend.stats(), state["history"]) == expected

    @pytest.mark.parametrize("fixture", [PARENT_CHECKPOINT, FLOAT32_CHECKPOINT], ids=lambda path: path.name)
    def test_a_resumed_fixture_writes_no_metrics_record(self, fixture, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(fixture, ckpt)
        assert main(["train", "8", "--seed", "3", "--checkpoint-dir", str(ckpt), "--resume"]) == 0
        capsys.readouterr()
        state, manifest = CheckpointManager(str(ckpt)).load()
        assert manifest["step"] == 60 and "obs" not in state
        assert state["history"]["env_steps"] == 60

    def test_a_float64_checkpoint_restores_a_float32_ring(self):
        """The ring was re-allocated in the checkpoint's dtype: a resumed parent
        run held float64 states to its end — twice the memory, a cast on every
        push and every sample. (The fixtures' buffers: same transitions, the
        PR 15 one float64, the PR 22 one float32.)"""
        snaps = [CheckpointManager(str(d)).load()[0]["buffer"] for d in (PARENT_CHECKPOINT, FLOAT32_CHECKPOINT)]
        assert [snap["arrays"]["states"].dtype for snap in snaps] == [np.float64, np.float32]
        batches = []
        for snap in snaps:
            buffer = ReplayBuffer(snap["capacity"])
            buffer.load_state_dict(snap)
            assert buffer._arrays["states"].dtype == buffer._arrays["next_states"].dtype == np.float32
            assert buffer._arrays["rewards"].dtype == np.float64 and len(buffer) == 30
            batches.append(buffer.sample(8))
        for key, arr in batches[0].items():  # the cast of a count / (N - 1) is the float32 it would be born as
            assert arr.dtype == batches[1][key].dtype and np.array_equal(arr, batches[1][key]), key

    def test_parent_vector_loop_state_loads_without_its_gradient_debt(self):
        """Format-1 loop states, through ``upgrade``: a ``vector`` one
        drops its gradient debt, a ``single`` one is one replica's, any
        other kind is refused."""
        from repro.rl import CheckpointError
        from repro.rl.checkpoint import upgrade

        def format1(loop_state):
            return upgrade({"mode": "sync", "loop": loop_state}, 1)["loop"]

        cfg = TrainerConfig(batch_size=4, warmup_steps=10)
        venv = VectorPrefixEnv([make_env(seed) for seed in range(3)])
        loop = make_loop(
            venv, make_agent(), ReplayBuffer(100, rng=0), cfg, 30, cfg.schedule(30), TrainingHistory()
        )
        loop.load_state_dict(format1({"kind": "vector", "episode_returns": [0.5, -1.0, 0.0], "gradient_debt": 0.5}))
        assert loop.episode_returns == [0.5, -1.0, 0.0]
        assert "gradient_debt" not in loop.state_dict()
        with pytest.raises(ValueError, match="3 replicas|1 replicas"):
            loop.load_state_dict(format1({"kind": "single", "episode_return": 0.0}))
        with pytest.raises(CheckpointError, match="expected 'vector'"):
            format1({"kind": "actors"})
