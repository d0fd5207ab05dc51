"""The target memo: each successor row's target Q map once per sync window.

``ScalarizedDoubleDQN.train_step`` reads the target network's Q maps
through ``_target_predict``, which keeps every map it computed until the
target's weights next change (``sync_target`` or ``load_state_dict``).
These tests hold it exact against a twin agent that calls
``target.predict`` on every batch, empty where it must be, bounded, and
never asking the target for a row it already answered in the window.
"""

from __future__ import annotations

import numpy as np

from repro.env import PrefixEnv
from repro.prefix import ripple_carry
from repro.rl import ReplayBuffer, ScalarizedDoubleDQN, Transition
from repro.synth import AnalyticalEvaluator

N, BATCH, SYNC = 6, 8, 5


def make_agent() -> ScalarizedDoubleDQN:
    return ScalarizedDoubleDQN(N, blocks=1, channels=8, lr=1e-2, target_sync_every=SYNC, rng=7)


def memo_free(agent: ScalarizedDoubleDQN) -> ScalarizedDoubleDQN:
    """``agent`` with every target read going straight to ``target.predict``."""
    agent._target_predict = lambda next_states: agent.target.predict(next_states)
    return agent


def batches(count: int, transitions: int = 24, seed: int = 0):
    """``count`` batches sampled from one small ring, so successor rows repeat."""
    gen = np.random.default_rng(seed)
    env = PrefixEnv(N, AnalyticalEvaluator(), horizon=8, rng=seed)
    buffer = ReplayBuffer(transitions, rng=gen)
    state = env.reset(ripple_carry(N))
    for _ in range(transitions):
        obs, mask = env.observe(state), env.legal_mask(state)
        idx = int(gen.choice(np.nonzero(mask)[0]))
        result = env.step(env.action_space.action(idx))
        buffer.push(Transition(
            state=obs, action=idx, reward=result.reward, next_state=env.observe(result.next_state),
            next_mask=env.legal_mask(result.next_state), done=result.done,
        ))
        state = env.reset(ripple_carry(N)) if result.done else result.next_state
    return [buffer.sample(BATCH) for _ in range(count)]


def assert_same_state(a, b, path: str = "state") -> None:
    """``a`` and ``b`` hold the same values, every array byte for byte."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_same_state(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_state(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), path
    else:
        assert a == b, path


def spy_on_target(agent: ScalarizedDoubleDQN) -> "list[tuple[int, np.ndarray]]":
    """Record every ``target.predict`` input with the sync window it fell in."""
    calls = []
    predict = agent.target.predict

    def recording(x):
        calls.append((agent.gradient_steps // agent.target_sync_every, np.array(x, copy=True)))
        return predict(x)

    agent.target.predict = recording
    return calls


class TestTheMemoIsExact:
    def test_losses_and_state_match_a_memo_free_twin_across_syncs_and_a_reload(self):
        stream = batches(32)
        agent, twin = make_agent(), memo_free(make_agent())
        calls = spy_on_target(agent)
        for batch in stream[:17]:  # syncs at 5, 10 and 15
            assert agent.train_step(batch) == twin.train_step(batch)
        assert_same_state(agent.state_dict(), twin.state_dict())

        # Mid-window round trip into agents that already hold other target
        # maps: the load empties the memo, and the resumed run continues.
        resumed, resumed_twin = make_agent(), memo_free(make_agent())
        resumed.train_step(stream[-1])
        assert resumed._target_memo
        resumed.load_state_dict(agent.state_dict())
        resumed_twin.load_state_dict(twin.state_dict())
        for batch in stream[17:]:  # syncs at 20, 25 and 30
            losses = {a.train_step(batch) for a in (agent, twin, resumed, resumed_twin)}
            assert len(losses) == 1
        for other in (twin, resumed, resumed_twin):
            assert_same_state(agent.state_dict(), other.state_dict())
        # The memo answered some rows, or the comparison above shows nothing.
        assert sum(len(x) for _, x in calls) < BATCH * len(stream)


class TestTheMemoIsClearedAndBounded:
    def test_empty_after_sync_and_after_load(self):
        agent = make_agent()
        stream = batches(SYNC + 2)
        for step, batch in enumerate(stream, start=1):
            agent.train_step(batch)
            assert (len(agent._target_memo) == 0) == (step % SYNC == 0)
        agent.load_state_dict(agent.state_dict())
        assert agent._target_memo == {}
        agent.train_step(stream[0])
        agent.sync_target()
        assert agent._target_memo == {}

    def test_never_more_than_a_window_of_rows(self):
        agent = make_agent()
        largest = 0
        for batch in batches(4 * SYNC, transitions=200, seed=1):
            agent.train_step(batch)
            largest = max(largest, len(agent._target_memo))
            assert len(agent._target_memo) <= SYNC * BATCH
        assert largest > BATCH  # the memo did carry rows across steps

    def test_the_target_sees_each_row_once_per_window(self):
        agent = make_agent()
        calls = spy_on_target(agent)
        stream = batches(3 * SYNC)
        for batch in stream:
            agent.train_step(batch)
        seen: "dict[int, set]" = {}
        for window, x in calls:
            rows = [row.tobytes() for row in x]
            assert len(set(rows)) == len(rows)
            assert seen.setdefault(window, set()).isdisjoint(rows)
            seen[window].update(rows)
        assert len(calls) <= len(stream)
        assert set(seen) == set(range(3))
