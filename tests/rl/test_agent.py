"""Agent tests: masked scalarized policy, double-DQN targets, target sync."""

import inspect
import sys

import numpy as np
import pytest

from repro.env import PrefixEnv
from repro.nn import BatchNorm2d, Conv2d, Parameter, QNetwork, ResidualBlock
from repro.prefix import ripple_carry
from repro.rl import ReplayBuffer, ScalarizedDoubleDQN, Transition
from repro.synth import AnalyticalEvaluator


def make_agent(**kwargs):
    defaults = dict(n=6, w_area=0.5, w_delay=0.5, blocks=0, channels=4, rng=0)
    defaults.update(kwargs)
    return ScalarizedDoubleDQN(**defaults)


def make_batch(agent, size=4, rng=None):
    gen = np.random.default_rng(0 if rng is None else rng)
    env = PrefixEnv(agent.n, AnalyticalEvaluator(), horizon=50, rng=0)
    state = env.reset(ripple_carry(agent.n))
    buffer = ReplayBuffer(100, rng=gen)
    for _ in range(size):
        obs = env.observe(state)
        mask = env.legal_mask(state)
        idx = int(gen.choice(np.nonzero(mask)[0]))
        result = env.step(env.action_space.action(idx))
        buffer.push(
            Transition(
                state=obs,
                action=idx,
                reward=result.reward,
                next_state=env.observe(result.next_state),
                next_mask=env.legal_mask(result.next_state),
                done=result.done,
            )
        )
        state = result.next_state
    return buffer.sample(size)


class TestConstruction:
    def test_weights_normalized(self):
        agent = make_agent(w_area=2.0, w_delay=2.0)
        assert agent.w.sum() == pytest.approx(1.0)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            make_agent(w_area=-1.0)
        with pytest.raises(ValueError):
            make_agent(w_area=0.0, w_delay=0.0)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            make_agent(gamma=1.5)

    def test_target_initialized_from_local(self):
        agent = make_agent()
        x = np.random.default_rng(0).normal(size=(1, 4, 6, 6))
        assert np.allclose(agent.local.predict(x), agent.target.predict(x))


class TestActing:
    def test_greedy_action_is_legal(self):
        agent = make_agent()
        env = PrefixEnv(6, AnalyticalEvaluator(), rng=0)
        g = env.reset()
        idx = agent.act(env.observe(g), env.legal_mask(g), epsilon=0.0)
        assert env.legal_mask(g)[idx]

    def test_random_action_is_legal(self):
        agent = make_agent()
        env = PrefixEnv(6, AnalyticalEvaluator(), rng=0)
        g = env.reset(ripple_carry(6))
        mask = env.legal_mask(g)
        for _ in range(20):
            assert mask[agent.act(env.observe(g), mask, epsilon=1.0)]

    def test_no_legal_actions_raises(self):
        agent = make_agent()
        feats = np.zeros((4, 6, 6))
        with pytest.raises(ValueError):
            agent.act(feats, np.zeros(agent.actions.size, dtype=bool))

    def test_greedy_matches_scalarized_argmax(self):
        agent = make_agent(w_area=0.9, w_delay=0.1)
        env = PrefixEnv(6, AnalyticalEvaluator(), rng=0)
        g = env.reset(ripple_carry(6))
        feats, mask = env.observe(g), env.legal_mask(g)
        idx = agent.act(feats, mask, epsilon=0.0)
        q = agent.q_values(feats)
        scalar = np.where(mask, q @ agent.w, -np.inf)
        assert idx == int(np.argmax(scalar))

    def test_epsilon_one_is_uniform_over_legal(self):
        agent = make_agent(rng=3)
        env = PrefixEnv(6, AnalyticalEvaluator(), rng=0)
        g = env.reset(ripple_carry(6))
        feats, mask = env.observe(g), env.legal_mask(g)
        picks = {agent.act(feats, mask, epsilon=1.0) for _ in range(200)}
        assert len(picks) > 1  # explores multiple actions


class TestLearning:
    def test_train_step_returns_finite_loss(self):
        agent = make_agent()
        batch = make_batch(agent, size=4)
        loss = agent.train_step(batch)
        assert np.isfinite(loss)
        assert agent.gradient_steps == 1

    def test_loss_decreases_on_fixed_batch(self):
        agent = make_agent(lr=1e-3)
        batch = make_batch(agent, size=8)
        losses = [agent.train_step(batch) for _ in range(30)]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    @pytest.mark.parametrize("k", [0, -3])
    def test_target_sync_every_below_one_is_refused(self, k):
        # 0 used to build and then divide by zero at the first gradient step;
        # -3 silently synced every 3 steps.
        with pytest.raises(ValueError, match="target_sync_every"):
            make_agent(target_sync_every=k)

    def test_target_sync_cadence(self):
        agent = make_agent(target_sync_every=3, lr=1e-2)
        batch = make_batch(agent, size=4)
        x = batch["states"][:1]
        agent.train_step(batch)
        agent.train_step(batch)
        # After 2 steps (no sync yet) local and target diverge.
        assert not np.allclose(agent.local.predict(x), agent.target.predict(x))
        agent.train_step(batch)  # third step triggers sync
        # Byte-equal: the copy is exact, and the target memo relies on it.
        assert agent.local.predict(x).tobytes() == agent.target.predict(x).tobytes()

    def test_terminal_transitions_use_reward_only(self):
        agent = make_agent(lr=1e-3)
        batch = make_batch(agent, size=4)
        batch["dones"][:] = True
        loss = agent.train_step(batch)
        assert np.isfinite(loss)

    def test_gradients_only_on_taken_actions(self):
        agent = make_agent()
        batch = make_batch(agent, size=2)
        agent.local.train()
        agent.local.forward(batch["states"])
        # Re-run the masking logic: the huber mask has 2 entries per sample.
        positions = [agent.actions.qmap_positions(int(a)) for a in batch["actions"]]
        flat_positions = {(i, *p) for i, pair in enumerate(positions) for p in pair}
        assert len(flat_positions) == 2 * len(positions)


def state_bytes(agent) -> bytes:
    """A canonical byte string of everything ``agent.state_dict()`` holds."""
    import pickle

    return pickle.dumps(agent.state_dict(), protocol=4)


class TestRefusedLoad:
    """A snapshot that does not fit is refused before anything is written."""

    @staticmethod
    def other_shapes(**kwargs):
        return ScalarizedDoubleDQN(6, channels=8, blocks=0, gamma=0.9, w_area=0.9, w_delay=0.1, **kwargs).state_dict()

    @pytest.mark.parametrize("spoil", ["local", "target", "optimizer"])
    def test_refused_load_leaves_the_agent_untouched(self, spoil):
        agent = ScalarizedDoubleDQN(6, channels=4, blocks=0, gamma=0.5, rng=0)
        twin = ScalarizedDoubleDQN(6, channels=4, blocks=0, gamma=0.5, rng=0)
        agent.train_step(make_batch(agent))
        twin.train_step(make_batch(twin))
        before = state_bytes(agent)
        # A snapshot of the right shape except for one part.
        state = agent.state_dict()
        state.update(gamma=0.9, w=np.array([0.9, 0.1]), gradient_steps=99, target_sync_every=7)
        state["rng"] = np.random.default_rng(123).bit_generator.state
        state[spoil] = self.other_shapes()[spoil]
        with pytest.raises(ValueError, match="mismatch"):
            agent.load_state_dict(state)
        assert state_bytes(agent) == before
        assert agent.gamma == 0.5 and list(agent.w) == [0.5, 0.5]
        # It trains like the twin that never saw the refused snapshot.
        for seed in (1, 2):
            assert agent.train_step(make_batch(agent, rng=seed)) == twin.train_step(make_batch(twin, rng=seed))
        assert state_bytes(agent) == state_bytes(twin)

    def test_the_reported_refusal(self):
        agent = ScalarizedDoubleDQN(6, channels=4, blocks=0, gamma=0.5)
        before = state_bytes(agent)
        with pytest.raises(ValueError, match="shape mismatch for body.stages.0.weight"):
            agent.load_state_dict(self.other_shapes())
        assert agent.gamma == 0.5 and list(agent.w) == [0.5, 0.5]
        assert state_bytes(agent) == before


class TestOneDtype:
    """float32 is the dtype network arrays are born in, and nothing selects
    another. A silent upcast (NumPy 2: ``float32_array * np.float64(2)`` is
    float64) would bring the float64 pass back without leaving any tolerance,
    so the dtypes are asserted where the arrays live."""

    @staticmethod
    def _held(agent):
        """Every array the agent's networks and optimizer keep between passes."""
        for net in (agent.local, agent.target):
            yield from ((f"workspace[{i}]", a) for i, a in enumerate(net._workspace))
            yield from ((f"scratch{key}", a) for key, a in net._workspace.scratch.items())
            yield from net.state_arrays().items()
            yield from ((f"{p.name}.grad", p.grad) for p in net.parameters())
        yield from ((f"adam.m[{i}]", m) for i, m in enumerate(agent.optimizer._m))
        yield from ((f"adam.v[{i}]", v) for i, v in enumerate(agent.optimizer._v))

    def test_no_pass_upcasts(self, monkeypatch):
        agent = make_agent(blocks=1, lr=1e-3)
        batch = make_batch(agent, size=4)
        assert batch["states"].dtype == batch["next_states"].dtype == np.float32
        assert batch["rewards"].dtype == np.float64

        doubles = np.random.default_rng(0).normal(size=(3, 4, 6, 6))  # float64 on purpose: forward casts
        assert agent.local.predict(doubles).dtype == np.float32
        qmap = agent.local.forward(doubles)
        assert qmap.dtype == np.float32
        # A float64 dy too: the stem is handed the dx of the layer above it in float32.
        stem = agent.local.body.stages[0]
        handed, stem_backward = [], stem.backward
        monkeypatch.setattr(stem, "backward", lambda dy, **kw: handed.append(dy) or stem_backward(dy, **kw))
        assert agent.local.backward(np.ones(qmap.shape)) is None
        assert [dy.dtype for dy in handed] == [np.float32]

        # The locals of one full train_step, read as its frame returns.
        step_locals = {}

        def on_return(frame, event, arg):
            if event == "return" and frame.f_code is ScalarizedDoubleDQN.train_step.__code__:
                step_locals.update(frame.f_locals)

        sys.setprofile(on_return)
        try:
            loss = agent.train_step(batch)
        finally:
            sys.setprofile(None)
        assert isinstance(loss, float) and np.isfinite(loss)
        for name in ("qmap", "target_map", "mask", "dpred", "flat_target", "flat_select"):
            assert step_locals[name].dtype == np.float32, name
        assert step_locals["targets_vec"].dtype == np.float64 and agent.w.dtype == np.float64

        for name, array in self._held(agent):
            assert array.dtype == np.float32, name

    def test_nothing_selects_a_dtype(self, tmp_path):
        for build in (QNetwork, ScalarizedDoubleDQN, Conv2d, BatchNorm2d, ResidualBlock, Parameter):
            assert "dtype" not in inspect.signature(build).parameters, build.__name__
        with pytest.raises(AttributeError):
            make_agent().local.dtype = np.float64  # read off the parameters, not settable
        path = str(tmp_path / "qnet.npz")
        make_agent().local.save(path)
        assert "__meta_dtype" not in np.load(path).files
