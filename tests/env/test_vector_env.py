"""VectorPrefixEnv, act_batch and the trainer's batched-collection path."""

import json
from functools import partial

import numpy as np
import pytest

from repro.cells import nangate45
from repro.env import PrefixEnv, VectorPrefixEnv
from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig
from repro.rl.checkpoint import _flatten
from repro.synth import AnalyticalEvaluator, SynthesisCache, SynthesisEvaluator


def step(venv, actions):
    """One round: ``venv.step`` of the actions and their successors."""
    return venv.step(actions, venv.successors(actions))


def make_vector(n=6, num_envs=3, horizon=8):
    return VectorPrefixEnv.make(
        n, AnalyticalEvaluator(), num_envs=num_envs, horizon=horizon, seed=0
    )


class TestVectorPrefixEnv:
    def test_reset_and_shapes(self):
        venv = make_vector(n=6, num_envs=3)
        states = venv.reset()
        assert len(states) == 3
        assert venv.observe().shape == (3, 4, 6, 6)
        masks = venv.legal_masks()
        assert masks.shape == (3, venv.action_space.size)
        assert masks.dtype == bool
        assert masks.any(axis=1).all()

    def test_step_advances_every_replica(self):
        venv = make_vector()
        venv.reset()
        masks = venv.legal_masks()
        actions = [int(np.nonzero(m)[0][0]) for m in masks]
        results = step(venv, actions)
        assert len(results) == 3
        for result, state in zip(results, venv.states):
            assert result.reward.shape == (2,)
            if not result.done:
                assert state is result.next_state

    def test_auto_reset_on_done(self):
        venv = make_vector(horizon=2)
        venv.reset()
        for _ in range(2):
            masks = venv.legal_masks()
            results = step(venv, [int(np.nonzero(m)[0][0]) for m in masks])
        assert all(r.done for r in results)
        # All replicas were auto-reset: states live, steps back at zero.
        assert all(s is not None for s in venv.states)
        for env in venv.envs:
            assert env._steps == 0

    def test_requires_reset(self):
        venv = make_vector()
        with pytest.raises(RuntimeError):
            venv.observe()
        with pytest.raises(RuntimeError):
            venv.successors([0, 0, 0])

    def test_rejects_empty_and_mixed_widths(self):
        with pytest.raises(ValueError):
            VectorPrefixEnv([])
        envs = [
            PrefixEnv(6, AnalyticalEvaluator(), rng=0),
            PrefixEnv(8, AnalyticalEvaluator(), rng=1),
        ]
        with pytest.raises(ValueError):
            VectorPrefixEnv(envs)

    def test_action_count_mismatch(self):
        venv = make_vector()
        venv.reset()
        with pytest.raises(ValueError):
            venv.successors([0])


class CountingEvaluator(SynthesisEvaluator):
    """SynthesisEvaluator that records how it was invoked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evaluate_calls = 0
        self.evaluate_many_calls = 0

    def evaluate(self, graph):
        self.evaluate_calls += 1
        return super().evaluate(graph)

    def evaluate_many(self, graphs):
        self.evaluate_many_calls += 1
        return super().evaluate_many(graphs)


def first_legal(masks):
    return [int(np.nonzero(m)[0][0]) for m in masks]


class TestBatchedSynthesisEvaluation:
    """The tentpole contract: replicas do not serialize on synthesis."""

    def _synthesis_vector(self, n=8, num_envs=3, horizon=3):
        evaluator = CountingEvaluator(nangate45(), cache=SynthesisCache())
        venv = VectorPrefixEnv.make(n, evaluator, num_envs=num_envs, horizon=horizon, seed=0)
        return venv, evaluator

    def test_one_evaluator_batches_each_round(self):
        venv, evaluator = self._synthesis_vector()
        assert venv._batch_evaluator is evaluator
        assert venv.backend is evaluator.backend
        venv.reset()
        before_many, before_single = evaluator.evaluate_many_calls, evaluator.evaluate_calls
        step(venv, first_legal(venv.legal_masks()))
        # One batched call for the round's successors, zero serial calls.
        assert evaluator.evaluate_many_calls == before_many + 1
        assert evaluator.evaluate_calls == before_single

    def test_auto_reset_starts_are_batched_too(self):
        venv, evaluator = self._synthesis_vector(horizon=1)
        venv.reset()
        before = evaluator.evaluate_many_calls
        results = step(venv, first_legal(venv.legal_masks()))
        assert all(r.done for r in results)
        # Successor batch + reset-start batch.
        assert evaluator.evaluate_many_calls == before + 2

    def test_one_replica_steps_itself(self):
        """A batch of one is not a batch: the trainer's bare-env case goes
        through ``env.step`` / ``env.reset``, never ``evaluate_many``."""
        venv, evaluator = self._synthesis_vector(num_envs=1, horizon=1)
        assert venv._batch_evaluator is None
        assert venv.backend is evaluator.backend
        venv.reset()
        (result,) = step(venv, first_legal(venv.legal_masks()))
        assert result.done and venv.states[0] is venv.envs[0].state
        assert evaluator.evaluate_many_calls == 0 and evaluator.evaluate_calls > 0

    def test_a_cache_per_replica_is_refused(self):
        lib = nangate45()
        envs = [PrefixEnv(8, SynthesisEvaluator(lib), horizon=3, rng=s) for s in range(2)]
        with pytest.raises(ValueError, match="one evaluator"):
            VectorPrefixEnv(envs)

    def test_mixed_weights_over_one_cache_are_refused(self):
        # A weight sweep over one cache is one evaluator per weight, so one
        # vector env per weight.
        lib = nangate45()
        cache = SynthesisCache()
        envs = [
            PrefixEnv(8, SynthesisEvaluator(lib, w_area=wa, w_delay=1 - wa, cache=cache), rng=s)
            for s, wa in enumerate((0.8, 0.2))
        ]
        with pytest.raises(ValueError, match="one evaluator"):
            VectorPrefixEnv(envs)

    def test_distinct_analytical_evaluators_step_themselves(self):
        envs = [PrefixEnv(6, AnalyticalEvaluator(), horizon=3, rng=s) for s in range(2)]
        venv = VectorPrefixEnv(envs)
        assert venv._batch_evaluator is None and venv.backend is None
        venv.reset()
        assert len(step(venv, first_legal(venv.legal_masks()))) == 2

    def test_analytical_evaluator_not_batched(self):
        venv = make_vector()
        assert venv._batch_evaluator is None and venv.backend is None

    def test_batched_trajectory_matches_bare_envs(self):
        # Same seeds, same actions: batched evaluation must not change
        # rewards, infos, or auto-reset states — only how synthesis is
        # dispatched.
        lib = nangate45()

        def record(results, states):
            return [(tuple(r.reward), r.done, r.info["area"], r.info["delay"]) for r in results], [
                s.key() for s in states
            ]

        venv = VectorPrefixEnv.make(8, SynthesisEvaluator(lib), num_envs=2, horizon=2, seed=0)
        venv.reset()
        batched = []
        for _ in range(4):
            results = step(venv, first_legal(venv.legal_masks()))
            batched.append(record(results, venv.states))

        envs = [PrefixEnv(8, SynthesisEvaluator(lib), horizon=2, rng=s) for s in range(2)]
        states = [env.reset() for env in envs]
        serial = []
        for _ in range(4):
            actions = first_legal([env.action_space.legal_mask(s) for env, s in zip(envs, states)])
            results = [env.step(env.action_space.action(a)) for env, a in zip(envs, actions)]
            states = [env.reset() if r.done else r.next_state for env, r in zip(envs, results)]
            serial.append(record(results, states))

        assert batched == serial


def two_choices(masks):
    """Replica i takes its first or second legal action by parity, so
    replicas at one state mostly coincide and sometimes part."""
    picks = []
    for i, mask in enumerate(masks):
        legal = np.nonzero(mask)[0]
        picks.append(int(legal[i % min(2, legal.size)]))
    return picks


def state_bytes(state):
    """A state_dict as the checkpoint writes it: JSON plus raw array bytes."""
    arrays = {}
    payload = json.dumps(_flatten(state, "", arrays), sort_keys=True)
    return payload, {k: (a.dtype.str, a.shape, a.tobytes()) for k, a in arrays.items()}


class TestSharedSuccessors:
    """A round applies each distinct (state, action) once: replicas that
    coincide share one successor object, and nothing a replica records moves."""

    E = 8

    def _replicas(self, path):
        """The vector env, and same-seeded bare envs holding an evaluator each."""
        if path == "self-stepping":  # distinct analytical evaluators step themselves
            n, make = 6, AnalyticalEvaluator
            evaluators = [make() for _ in range(self.E)]
        else:  # one synthesis evaluator batches the round
            n, make = 5, partial(SynthesisEvaluator, nangate45())
            evaluators = [make()] * self.E
        vector = VectorPrefixEnv([PrefixEnv(n, e, horizon=3, rng=s) for s, e in enumerate(evaluators)])
        bare = [PrefixEnv(n, make(), horizon=3, rng=s) for s in range(self.E)]
        return vector, bare

    @pytest.mark.parametrize("path", ["self-stepping", "batched"])
    def test_one_successor_per_distinct_state_action(self, path):
        venv, _ = self._replicas(path)
        assert (venv._batch_evaluator is None) == (path == "self-stepping")
        venv.reset()
        for round_ in range(5):
            states = venv.states
            actions = two_choices(venv.legal_masks())
            results = step(venv, actions)
            successors = {}
            for state, action, result in zip(states, actions, results):
                successors.setdefault((state.key(), action), set()).add(id(result.next_state))
            assert all(len(ids) == 1 for ids in successors.values())
            assert len({id(r.next_state) for r in results}) == len(successors)
            if round_ == 0:  # two start states and two choices: duplicates are forced
                assert len(successors) < self.E

    @pytest.mark.parametrize("path", ["self-stepping", "batched"])
    def test_replicas_record_what_bare_envs_record(self, path):
        venv, bare = self._replicas(path)
        venv.reset()
        states = [env.reset() for env in bare]
        for _ in range(5):
            actions = two_choices(venv.legal_masks())
            assert actions == two_choices([env.legal_mask(s) for env, s in zip(bare, states)])
            got = step(venv, actions)
            want = [env.step(env.action_space.action(a)) for env, a in zip(bare, actions)]
            states = [env.reset() if r.done else r.next_state for env, r in zip(bare, want)]
            for g, w in zip(got, want):
                assert g.reward.tobytes() == w.reward.tobytes()
                assert (g.done, g.info, g.next_state.key()) == (w.done, w.info, w.next_state.key())
            assert [s.key() for s in venv.states] == [s.key() for s in states]
        for vector_env, env in zip(venv.envs, bare):
            assert vector_env.archive.num_seen == env.archive.num_seen
            assert vector_env.archive.points() == env.archive.points()
        assert state_bytes(venv.state_dict()) == state_bytes({"envs": [env.state_dict() for env in bare]})


class TestActBatch:
    def _agent(self, n=6):
        return ScalarizedDoubleDQN(n, blocks=0, channels=4, rng=0)

    def test_greedy_matches_sequential_act(self):
        agent = self._agent()
        venv = make_vector()
        venv.reset()
        obs = venv.observe()
        masks = venv.legal_masks()
        batch = agent.act_batch(obs, masks, epsilon=0.0)
        singles = [agent.act(obs[i], masks[i], epsilon=0.0) for i in range(3)]
        assert batch.tolist() == singles

    def test_epsilon_one_explores_legally(self):
        agent = self._agent()
        venv = make_vector()
        venv.reset()
        masks = venv.legal_masks()
        picks = agent.act_batch(venv.observe(), masks, epsilon=1.0)
        for i, a in enumerate(picks):
            assert masks[i, int(a)]

    def test_no_legal_action_raises(self):
        agent = self._agent()
        venv = make_vector()
        venv.reset()
        masks = np.array(venv.legal_masks())
        masks[1] = False
        with pytest.raises(ValueError):
            agent.act_batch(venv.observe(), masks)


class TestVectorTrainer:
    def test_run_collects_expected_history(self):
        venv = make_vector(n=6, num_envs=4, horizon=6)
        agent = ScalarizedDoubleDQN(6, blocks=0, channels=4, lr=1e-3, rng=0)
        cfg = TrainerConfig(steps=48, batch_size=4, warmup_steps=8)
        trainer = Trainer(venv, agent, cfg, rng=0)
        hist = trainer.run()
        assert hist.env_steps == 48
        assert len(hist.areas) == 48
        assert hist.gradient_steps > 0
        assert all(np.isfinite(l) for l in hist.losses)
        # horizon 6 x 4 envs over 48 steps -> two full episodes per env.
        assert len(hist.episode_returns) == 8
        # The default agent is the float32 one, from the features to the ring.
        assert venv.observe().dtype == agent.local.dtype == trainer.buffer.sample(2)["states"].dtype == np.float32

    def test_archives_accumulate_per_replica(self):
        venv = make_vector(n=6, num_envs=3, horizon=4)
        agent = ScalarizedDoubleDQN(6, blocks=0, channels=4, rng=0)
        trainer = Trainer(venv, agent, TrainerConfig(steps=24, warmup_steps=1000), rng=0)
        trainer.run()
        for env in venv.envs:
            assert env.archive.num_seen >= 8

    def test_buffer_receives_all_transitions(self):
        venv = make_vector(n=6, num_envs=3, horizon=4)
        agent = ScalarizedDoubleDQN(6, blocks=0, channels=4, rng=0)
        cfg = TrainerConfig(steps=12, warmup_steps=1000)
        trainer = Trainer(venv, agent, cfg, rng=0)
        trainer.run()
        assert len(trainer.buffer) == 12

    def test_vector_transitions_trainable(self):
        venv = make_vector(n=6, num_envs=2, horizon=4)
        agent = ScalarizedDoubleDQN(6, blocks=0, channels=4, rng=0)
        cfg = TrainerConfig(steps=16, warmup_steps=1000)
        trainer = Trainer(venv, agent, cfg, rng=0)
        trainer.run()
        loss = agent.train_step(trainer.buffer.sample(8))
        assert np.isfinite(loss)


class TestReplicaCounts:
    """``VectorPrefixEnv.make`` at the counts ``repro train --envs`` builds."""

    @pytest.mark.parametrize("num_envs", [0, -1])
    def test_make_refuses_a_count_below_one(self, num_envs):
        with pytest.raises(ValueError, match="num_envs must be positive"):
            make_vector(num_envs=num_envs)

    @pytest.mark.parametrize("num_envs", [1, 2, 5, 8])
    def test_every_stack_has_one_row_per_replica(self, num_envs):
        venv = make_vector(n=6, num_envs=num_envs)
        assert venv.num_envs == num_envs and len(venv.reset()) == num_envs
        assert venv.observe().shape == (num_envs, 4, 6, 6)
        assert venv.legal_masks().shape == (num_envs, venv.action_space.size)
        assert len(step(venv, first_legal(venv.legal_masks()))) == num_envs

    def test_mixed_widths_are_refused_naming_them(self):
        envs = [PrefixEnv(n, AnalyticalEvaluator(), rng=0) for n in (6, 8, 6)]
        with pytest.raises(ValueError, match=r"share one width, got \[6, 8\]"):
            VectorPrefixEnv(envs)


class TestPersistence:
    """What a checkpoint stores of the env: every replica, mid-episode."""

    @staticmethod
    def advance(venv, rounds):
        records = []
        for _ in range(rounds):
            results = step(venv, two_choices(venv.legal_masks()))
            records.append(
                ([(tuple(r.reward), r.done, r.info["steps"]) for r in results], [s.key() for s in venv.states])
            )
        return records

    @pytest.mark.parametrize("num_envs", [1, 2, 3, 5])
    def test_a_restored_env_continues_as_the_original(self, num_envs):
        """Restored onto a freshly built env of the same count, the
        replicas continue through episode ends and auto-resets exactly as
        the originals do."""
        original = make_vector(num_envs=num_envs, horizon=3)
        original.reset()
        self.advance(original, 4)  # mid-episode, after one auto-reset
        snapshot = original.state_dict()
        restored = make_vector(num_envs=num_envs, horizon=3)
        restored.load_state_dict(snapshot)
        assert [s.key() for s in restored.states] == [s.key() for s in original.states]
        np.testing.assert_array_equal(restored.observe(), original.observe())
        assert self.advance(restored, 5) == self.advance(original, 5)

    @pytest.mark.parametrize("saved, live", [(2, 3), (3, 2), (1, 4), (4, 1)])
    def test_another_replica_count_is_refused(self, saved, live):
        source = make_vector(num_envs=saved)
        source.reset()
        target = make_vector(num_envs=live)
        with pytest.raises(ValueError, match=f"checkpoint has {saved} replicas, vector env has {live}"):
            target.load_state_dict(source.state_dict())
        assert target.states == [None] * live

    @staticmethod
    def shared(n, num_envs):
        """Replicas over one archiving evaluator, and that evaluator."""
        from repro.pareto import ArchivingEvaluator

        evaluator = ArchivingEvaluator(SynthesisEvaluator(nangate45(), cache=SynthesisCache()))
        return VectorPrefixEnv.make(n, evaluator, num_envs, horizon=3, seed=0), evaluator

    @pytest.mark.parametrize("num_envs", [2, 3, 4])
    def test_a_shared_archive_restores_to_the_original_frontier(self, num_envs):
        """Replicas over one archiving evaluator share one archive; the
        snapshot holds it once and a restore leaves it as it was."""
        (original, evaluator), (restored, restored_evaluator) = self.shared(8, num_envs), self.shared(8, num_envs)
        original.reset()
        self.advance(original, 4)
        snapshot = original.state_dict()
        assert "archive" in snapshot
        assert not any("archive" in snap for snap in snapshot["envs"])
        restored.load_state_dict(snapshot)
        assert all(env.archive is restored_evaluator.archive for env in restored.envs)
        assert restored_evaluator.archive.entries() == evaluator.archive.entries()
        assert restored_evaluator.archive.num_seen == evaluator.archive.num_seen
        assert self.advance(restored, 3) == self.advance(original, 3)

    @staticmethod
    def archive_records(snapshot):
        """How many archive records a snapshot holds, at any depth."""
        if isinstance(snapshot, dict):
            return ("archive" in snapshot) + sum(TestPersistence.archive_records(v) for v in snapshot.values())
        if isinstance(snapshot, list):
            return sum(TestPersistence.archive_records(v) for v in snapshot)
        return 0

    @pytest.mark.parametrize("num_envs", [1, 2, 4, 6])
    def test_replicas_sharing_an_archive_write_it_once(self, num_envs):
        venv, evaluator = self.shared(8, num_envs)
        venv.reset()
        self.advance(venv, 2)
        snapshot = venv.state_dict()
        assert self.archive_records(snapshot) == 1
        assert snapshot["archive"]["num_seen"] == evaluator.archive.num_seen == 3 * num_envs

    @pytest.mark.parametrize("num_envs", [2, 3, 5])
    def test_replicas_with_their_own_archives_write_one_each(self, num_envs):
        venv = make_vector(num_envs=num_envs)
        venv.reset()
        snapshot = venv.state_dict()
        assert self.archive_records(snapshot) == num_envs and "archive" not in snapshot

    def test_a_copy_per_replica_still_restores(self):
        """Older checkpoints carry the shared archive in every replica's
        snapshot; they restore to the same frontier."""
        (original, evaluator), (restored, restored_evaluator) = self.shared(6, 3), self.shared(6, 3)
        original.reset()
        self.advance(original, 4)
        restored.load_state_dict({"envs": [env.state_dict() for env in original.envs]})
        assert restored_evaluator.archive.entries() == evaluator.archive.entries()
        assert restored_evaluator.archive.num_seen == evaluator.archive.num_seen
        assert self.advance(restored, 3) == self.advance(original, 3)

    def test_a_shared_archive_is_refused_by_replicas_that_keep_their_own(self):
        source, _ = self.shared(6, 2)
        source.reset()
        target = make_vector(num_envs=2)
        with pytest.raises(ValueError, match="one shared archive"):
            target.load_state_dict(source.state_dict())
        assert target.states == [None] * 2
