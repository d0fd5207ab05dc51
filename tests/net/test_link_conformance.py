"""Link conformance: the in-process link and the wire are one ingest.

The same scripted rounds go through ``LearnerCore.ingest`` directly (the
reference) and through ``push_batch`` frames to a loopback
``LearnerServer`` (what an actor process sends). History, the replay
ring's contents, per-shard in-flight returns and the reply sequence must
come out the same: the wire adds a trace to each reply and nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import LearnerCore
from repro.env.actions import ActionSpace
from repro.net import ClusterSpec, LearnerServer, LearnerState, connect
from repro.rl import ScalarizedDoubleDQN, TrainerConfig
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import TrainingHistory

N = 4
A = ActionSpace(N).size  # the agent's action count (agent.actions.size)
HISTORY_FIELDS = ("env_steps", "areas", "delays", "epsilon_trace", "episode_returns")


def make_round(rng, k: int) -> dict:
    return {
        "states": rng.random((k, 4, N, N)),
        "actions": rng.integers(0, A, size=k),
        "rewards": rng.normal(size=(k, 2)),
        "next_states": rng.random((k, 4, N, N)),
        "next_masks": rng.random((k, A)) < 0.5,
        "dones": rng.random(k) < 0.3,
        "areas": rng.random(k) * 10,
        "delays": rng.random(k),
    }


def script(seed: int, rounds: int, k: int = 4):
    """``(shard, round, epsilon)`` triples, two shards taking turns."""
    rng = np.random.default_rng(seed)
    return [(i % 2, make_round(rng, k), 1.0 - 0.1 * i) for i in range(rounds)]


# name -> (core kwargs, rounds, steps after which the learner sets stop)
SCENARIOS = {
    # 3 x 4 transitions into a budget of 10: the third round is cut mid-way
    # and the fourth arrives after the budget's own stop.
    "budget_truncates_a_round": (dict(total=10), 4, None),
    # The preemption point falls inside the second round.
    "stop_after_inside_a_round": (dict(total=40, stop_after=6), 3, None),
    # The learner halts between rounds: later rounds are discarded whole.
    "round_after_stop": (dict(total=40), 3, 1),
    # warmup 1, learn_every 1 and no gradient steps: lag grows by 4 a round.
    "lagging_learner_throttles": (dict(total=40, backpressure_lag=6, throttle_seconds=0.07), 3, None),
}


def core_args(total, **kwargs):
    agent = ScalarizedDoubleDQN(N, blocks=0, channels=4, rng=0)
    return dict(
        agent=agent,
        buffer=ReplayBuffer(100, rng=0),
        history=TrainingHistory(),
        config=TrainerConfig(steps=total, batch_size=4, warmup_steps=1),
        total=total,
        **kwargs,
    )


def observed(core, replies):
    ring = core.buffer.gather(np.arange(len(core.buffer))) if len(core.buffer) else {}
    return {
        "history": {f: getattr(core.history, f) for f in HISTORY_FIELDS},
        "ring": {key: value.tolist() for key, value in ring.items()},
        "returns": core.returns,
        "replies": replies,
        "throttled_batches": core.throttled_batches,
    }


@pytest.mark.parametrize("name", SCENARIOS)
def test_in_process_link_and_wire_agree(name):
    kwargs, rounds, stop_at = SCENARIOS[name]
    rounds = script(seed=len(name), rounds=rounds)

    local = LearnerCore(**core_args(**kwargs))
    # On the wire, join seeds a shard's in-flight returns before its first
    # round; the direct core gets the same seed by hand.
    local.returns = {0: [0.0] * 4, 1: [0.0] * 4}
    local_replies = []
    for i, (shard, round_, epsilon) in enumerate(rounds):
        local.stop = local.stop or i == stop_at
        local_replies.append(local.ingest(shard, round_, epsilon))

    spec = ClusterSpec(width=N, envs_per_actor=4)
    remote = LearnerState(spec=spec, **core_args(**kwargs))
    server = LearnerServer(("127.0.0.1", 0), heartbeat_timeout=5.0)
    server.attach(remote)
    server.start()
    conns = []
    try:
        for _ in range(2):  # joins are served in order: shard 0, then shard 1
            conn, _welcome = connect(server.address, role="actor", timeout=5.0)
            conns.append(conn)
            conn.call("join")
        wire_replies = []
        for i, (shard, round_, epsilon) in enumerate(rounds):
            remote.stop = remote.stop or i == stop_at
            reply = conns[shard].call("push_batch", {"epsilon": epsilon, **round_})
            assert set(reply.pop("trace")) >= {"id", "run"}
            wire_replies.append(reply)
    finally:
        for conn in conns:
            conn.close(bye=True)
        server.stop()

    assert observed(remote, wire_replies) == observed(local, local_replies)
    # And the scenario did what its name says.
    kept = [reply["kept"] for reply in local_replies]
    if name == "budget_truncates_a_round":
        assert kept == [4, 4, 2, 0] and [r["stop"] for r in local_replies] == [False, False, True, True]
    elif name == "stop_after_inside_a_round":
        assert kept == [4, 2, 0] and local.history.env_steps == 6
        assert [r["stop"] for r in local_replies] == [False, True, True]
    elif name == "round_after_stop":
        assert kept == [4, 0, 0] and local.history.env_steps == 4
    else:
        assert [r["throttle"] for r in local_replies] == [0.0, 0.07, 0.07]
        assert local.throttled_batches == 2
