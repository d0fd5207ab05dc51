"""LearnerServer services: join/slots, weight versioning, ingest, cache.

Exercises the server through real sockets (loopback) but with hand-rolled
clients, so each service's contract is pinned independently of the actor
loop that normally drives them.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from dataclasses import asdict

from repro.env.actions import ActionSpace
from repro.net import (
    MEMBERSHIP_KEYS,
    ClusterConfig,
    ClusterSpec,
    LearnerServer,
    LearnerState,
    RemoteError,
    connect,
    wait_until,
)
from repro.net.protocol import decode_payload, encode_payload
from repro.nn import QNetwork
from repro.rl import ScalarizedDoubleDQN, TrainerConfig
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import TrainingHistory
from repro.synth.curve import AreaDelayCurve


@pytest.fixture
def server():
    agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
    config = TrainerConfig(steps=10, batch_size=4, warmup_steps=4)
    state = LearnerState(
        agent=agent,
        buffer=ReplayBuffer(100, rng=0),
        history=TrainingHistory(),
        config=config,
        total=10,
        spec=ClusterSpec.for_agent(agent, envs_per_actor=2, seed=0),
    )
    srv = LearnerServer(("127.0.0.1", 0), heartbeat_timeout=5.0)
    srv.attach(state)
    srv.start()
    yield srv, state
    srv.stop()


def dial(srv):
    conn, _welcome = connect(srv.address, role="actor", timeout=5.0)
    return conn


def make_batch(k: int, n: int = 4, done=None):
    A = ActionSpace(n).size  # the agent's action count (agent.actions.size)
    return {
        "epsilon": 0.5,
        "states": np.zeros((k, 4, n, n)),
        "actions": np.arange(k) % A,
        "rewards": np.ones((k, 2)) * 0.25,
        "next_states": np.zeros((k, 4, n, n)),
        "next_masks": np.ones((k, A), dtype=bool),
        "dones": np.array(done if done is not None else [False] * k),
        "areas": np.full(k, 7.0),
        "delays": np.full(k, 0.3),
    }


class TestJoin:
    def test_join_assigns_shards_then_fills_up(self, server):
        srv, _state = server
        c1, c2, c3 = dial(srv), dial(srv), dial(srv)
        j1 = c1.call("join")
        j2 = c2.call("join")
        assert {j1["actor_id"], j2["actor_id"]} == {0, 1}
        assert j1["spec"]["width"] == 4
        assert j1["total"] == 10 and j1["stop"] is False
        with pytest.raises(RemoteError, match="cluster is full"):
            c3.call("join")
        for c in (c1, c2, c3):
            c.close(bye=True)

    def test_slot_is_reusable_after_disconnect(self, server):
        srv, state = server
        c1 = dial(srv)
        first = c1.call("join")["actor_id"]
        c1.close(bye=True)
        deadline = 100
        while state.connected_actors() and deadline:
            deadline -= 1
            import time

            time.sleep(0.01)
        c2 = dial(srv)
        assert c2.call("join")["actor_id"] == first
        c2.close(bye=True)

    def test_push_before_join_rejected(self, server):
        srv, _state = server
        conn = dial(srv)
        with pytest.raises(RemoteError, match="before join"):
            conn.call("push_batch", make_batch(1))
        conn.close(bye=True)


class TestWeights:
    def test_pull_only_ships_when_stale(self, server):
        srv, state = server
        conn = dial(srv)
        conn.call("join")
        first = conn.call("pull_weights", {"have_version": 0})
        assert "weights" in first and first["version"] == 1
        again = conn.call("pull_weights", {"have_version": first["version"]})
        assert "weights" not in again
        state.hub.publish()
        fresh = conn.call("pull_weights", {"have_version": first["version"]})
        assert fresh["version"] == 2 and "weights" in fresh
        np.testing.assert_array_equal(
            fresh["weights"]["body.stages.0.weight"],
            state.agent.local.state_arrays()["body.stages.0.weight"],
        )
        conn.close(bye=True)

    def test_frames_are_float32_and_a_float64_peers_frame_loads_by_cast(self, server):
        """No ``dtype`` crosses the wire: the spec does not carry one, a weight
        frame is float32 (half the bytes it was), and a frame built by a
        float64 release loads into the actor's network by cast."""
        srv, state = server
        assert "dtype" not in asdict(state.spec)
        conn = dial(srv)
        conn.call("join")
        weights = conn.call("pull_weights", {"have_version": 0})["weights"]
        conn.close(bye=True)
        assert {arr.dtype for arr in weights.values()} == {np.dtype(np.float32)}
        doubled = {key: arr.astype(np.float64) * 2 for key, arr in weights.items()}  # the float64 peer's frame
        received = decode_payload(encode_payload({"weights": doubled}))["weights"]
        assert {arr.dtype for arr in received.values()} == {np.dtype(np.float64)}
        net = QNetwork(4, blocks=0, channels=4)
        net.load_state_arrays(received)
        for key, arr in net.state_arrays().items():
            assert arr.dtype == np.float32 and np.array_equal(arr, weights[key] * 2), key

    def test_digest_keyed_pull_skips_reship_across_version_reset(self, server):
        """A client whose version counter is stale but whose *content*
        matches (e.g. after a learner restart reset the counter) gets an
        'unchanged' reply carrying the current version, not the bytes."""
        srv, state = server
        conn = dial(srv)
        conn.call("join")
        first = conn.call("pull_weights", {"have_version": 0})
        assert "weights" in first and "digest" in first
        # Republishing identical weights bumps the version but not the
        # digest — a digest-keyed pull adopts the new version for free.
        state.hub.publish()
        reply = conn.call(
            "pull_weights", {"have_version": 0, "have_digest": first["digest"]}
        )
        assert "weights" not in reply
        assert reply["version"] == 2 and reply["digest"] == first["digest"]
        # Content actually changed -> digest differs -> bytes ship.
        state.agent.local.parameters()[0].value += 0.5
        state.hub.publish()
        fresh = conn.call(
            "pull_weights", {"have_version": 0, "have_digest": first["digest"]}
        )
        assert "weights" in fresh and fresh["digest"] != first["digest"]
        conn.close(bye=True)


def _with(batch: dict, **fields) -> dict:
    return {**batch, **fields}


# A well-formed round (n=4, A=6, k=4) with one flaw each.
MALFORMED = {
    "rewards_one_row_short": lambda: _with(make_batch(4), rewards=np.ones((3, 2))),
    "width_8_round": lambda: make_batch(4, n=8),
    "action_index_40": lambda: _with(make_batch(4), actions=np.array([0, 1, 40, 2])),
    "negative_action": lambda: _with(make_batch(4), actions=np.array([0, -1, 2, 3])),
    "fractional_actions": lambda: _with(make_batch(4), actions=np.arange(4) + 0.5),
    "masks_of_another_action_count": lambda: _with(make_batch(4), next_masks=np.ones((4, 32), dtype=bool)),
    "areas_one_row_long": lambda: _with(make_batch(4), areas=np.full(5, 7.0)),
    "empty_round": lambda: make_batch(0),
    "infinite_reward": lambda: _with(make_batch(4), rewards=np.full((4, 2), np.inf)),
    "nan_epsilon": lambda: _with(make_batch(4), epsilon=float("nan")),
    "epsilon_above_one": lambda: _with(make_batch(4), epsilon=1.5),
}


class TestIngest:
    def test_push_records_history_and_buffer(self, server):
        srv, state = server
        conn = dial(srv)
        actor_id = conn.call("join")["actor_id"]
        reply = conn.call("push_batch", make_batch(2, done=[False, True]))
        assert reply["kept"] == 2 and reply["env_steps"] == 2
        assert reply["stop"] is False
        assert state.history.areas == [7.0, 7.0]
        assert len(state.history.episode_returns) == 1
        assert len(state.buffer) == 2
        conn.close(bye=True)

    def test_states_from_a_float64_peer_are_ingested_as_float32(self, server):
        """The batch is outside input: ingest pins ``states`` / ``next_states``
        to float32 as it pins rewards to float64, whatever the peer sent."""
        srv, state = server
        conn = dial(srv)
        conn.call("join")
        batch = make_batch(2)
        batch["states"] = np.full((2, 4, 4, 4), 1 / 3)  # float64, and not a float32 value
        batch["rewards"] = batch["rewards"].astype(np.float32)
        assert batch["states"].dtype == batch["next_states"].dtype == np.float64
        assert conn.call("push_batch", batch)["kept"] == 2
        conn.close(bye=True)
        held = state.buffer.gather(np.arange(2))
        assert held["states"].dtype == held["next_states"].dtype == np.float32
        assert held["rewards"].dtype == np.float64
        assert np.array_equal(held["states"], batch["states"].astype(np.float32))

    @pytest.mark.parametrize("flaw", MALFORMED)
    def test_a_malformed_round_is_refused_whole(self, server, flaw):
        """A round whose fields disagree on k, whose shapes are another
        width's, whose actions leave [0, A), or whose rewards or epsilon
        are out of range gets one error reply; the history, the in-flight
        returns and the replay stay untouched, and the next well-formed
        round is ingested as usual."""
        srv, state = server
        conn = dial(srv)
        actor_id = conn.call("join")["actor_id"]
        with pytest.raises(RemoteError, match="malformed round"):
            conn.call("push_batch", MALFORMED[flaw]())
        assert state.history.env_steps == 0 and state.history.areas == []
        assert state.returns[actor_id] == [0.0, 0.0]
        assert len(state.buffer) == 0
        assert conn.call("push_batch", make_batch(2))["kept"] == 2
        assert state.buffer.gather(np.arange(2))["states"].shape == (2, 4, 4, 4)
        conn.close(bye=True)

    def test_budget_truncates_and_stops(self, server):
        srv, state = server
        conn = dial(srv)
        conn.call("join")
        replies = [conn.call("push_batch", make_batch(4)) for _ in range(3)]
        assert state.history.env_steps == 10  # budget, not 12
        assert [r["kept"] for r in replies] == [4, 4, 2]
        assert replies[-1]["stop"] is True
        # After stop, pushes are no-ops that keep saying stop.
        reply = conn.call("push_batch", make_batch(4))
        assert reply["kept"] == 0 and reply["stop"] is True
        assert state.history.env_steps == 10
        conn.close(bye=True)


class TestCacheService:
    def test_put_then_claim_roundtrip(self, server):
        srv, state = server
        conn = dial(srv)
        key = ["digest123", "nangate45", "openphysyn"]
        assert state.cache.get(tuple(key)) is None
        points = [[0.2, 50.0], [0.4, 40.0]]
        conn.call("cache_put", {"items": [[key, points]]})
        hit = conn.call("cache_claim", {"keys": [key], "counted": False})
        assert hit["results"] == [{"curve": points}]
        conn.close(bye=True)

    def test_shared_across_connections(self, server):
        srv, state = server
        c1, c2 = dial(srv), dial(srv)
        key = ["d", "nangate45", "openphysyn"]
        c1.call("cache_put", {"items": [[key, [[0.1, 9.0]]]]})
        seen = c2.call("cache_claim", {"keys": [key], "counted": False})
        assert seen["results"] == [{"curve": [[0.1, 9.0]]}]
        assert isinstance(state.cache.get(tuple(key)), AreaDelayCurve)
        c1.close(bye=True)
        c2.close(bye=True)

    def test_unknown_method_is_remote_error(self, server):
        srv, _state = server
        conn = dial(srv)
        with pytest.raises(RemoteError, match="unknown method"):
            conn.call("no_such_method")
        conn.close(bye=True)


class TestCacheLeases:
    def test_claim_grants_then_others_wait_then_put_resolves(self, server):
        srv, state = server
        holder, waiter = dial(srv), dial(srv)
        key = ["digest-x", "nangate45", "openphysyn"]
        (granted,) = holder.call("cache_claim", {"keys": [key]})["results"]
        assert "lease" in granted
        (waiting,) = waiter.call("cache_claim", {"keys": [key]})["results"]
        assert waiting == {"wait": True}
        points = [[0.2, 50.0], [0.4, 40.0]]
        holder.call(
            "cache_put", {"items": [[key, points]], "leases": [granted["lease"]]}
        )
        (resolved,) = waiter.call(
            "cache_claim", {"keys": [key], "counted": False}
        )["results"]
        assert resolved == {"curve": points}
        assert state.cache_service.leases_fulfilled == 1
        holder.close(bye=True)
        waiter.close(bye=True)

    def test_disconnect_releases_the_holders_leases(self, server):
        import time

        srv, state = server
        holder, waiter = dial(srv), dial(srv)
        key = ["digest-y", "nangate45", "openphysyn"]
        assert "lease" in holder.call("cache_claim", {"keys": [key]})["results"][0]
        assert waiter.call("cache_claim", {"keys": [key]})["results"][0] == {
            "wait": True
        }
        holder.close()  # the holder dies mid-synthesis
        deadline = time.monotonic() + 5.0
        reply = {"wait": True}
        while reply == {"wait": True} and time.monotonic() < deadline:
            time.sleep(0.02)
            (reply,) = waiter.call(
                "cache_claim", {"keys": [key], "counted": False}
            )["results"]
        # The waiter inherited the dead holder's lease.
        assert "lease" in reply
        assert state.cache_service.leases_released == 1
        waiter.close(bye=True)

    def test_plain_put_also_resolves_leases(self, server):
        srv, state = server
        holder, other = dial(srv), dial(srv)
        key = ["digest-z", "nangate45", "openphysyn"]
        holder.call("cache_claim", {"keys": [key]})
        # A legacy cache_put (no lease ids) still fulfills: the value exists.
        other.call("cache_put", {"items": [[key, [[0.1, 9.0]]]]})
        assert state.cache_service.active_leases() == 0
        holder.close(bye=True)
        other.close(bye=True)


class TestCacheLongPoll:
    """cache_claim with wait=True parks server-side until fulfilment."""

    def test_claim_parks_until_put(self, server):
        import threading
        import time

        srv, state = server
        holder, waiter = dial(srv), dial(srv)
        key = ["digest-lp", "nangate45", "openphysyn"]
        (granted,) = holder.call("cache_claim", {"keys": [key]})["results"]
        got = {}

        def parked_claim():
            started = time.monotonic()
            reply = waiter.call(
                "cache_claim",
                {"keys": [key], "counted": False, "wait": True, "wait_timeout": 5.0},
            )
            got["reply"] = reply
            got["elapsed"] = time.monotonic() - started

        t = threading.Thread(target=parked_claim, daemon=True)
        t.start()
        wait_until(
            lambda: state.cache_service.lease_parks == 1,
            timeout=5.0,
            message="claim never parked",
        )
        points = [[0.2, 50.0]]
        holder.call("cache_put", {"items": [[key, points]], "leases": [granted["lease"]]})
        t.join(timeout=5.0)
        assert got["reply"] == {"results": [{"curve": points}]}
        assert got["elapsed"] < 5.0
        assert state.cache_service.lease_polls == 0  # parked, not polled
        holder.close(bye=True)
        waiter.close(bye=True)

    def test_park_is_capped_below_the_connection_timeout(self, server):
        import time

        srv, _state = server
        # Fixture heartbeat_timeout=5.0 -> park cap max(0.5, 5/3) ~ 1.67s,
        # safely inside the dial() recv timeout of 5s.
        assert srv.claim_park_cap == pytest.approx(5.0 / 3.0)
        holder, waiter = dial(srv), dial(srv)
        key = ["digest-cap", "nangate45", "openphysyn"]
        holder.call("cache_claim", {"keys": [key]})
        started = time.monotonic()
        # The client asks for an absurd park; the server must cap it.
        reply = waiter.call(
            "cache_claim",
            {"keys": [key], "counted": False, "wait": True, "wait_timeout": 3600.0},
        )
        elapsed = time.monotonic() - started
        assert reply["results"] == [{"wait": True}]
        assert elapsed < 4.0  # returned at the cap, not the requested hour
        holder.close(bye=True)
        waiter.close(bye=True)

    def test_remote_cache_client_round_trip_with_parking(self, server):
        import threading
        import time

        from repro.net import RemoteCacheClient

        srv, _state = server
        holder = RemoteCacheClient(dial(srv))
        waiter = RemoteCacheClient(dial(srv))
        key = ("digest-rc", "nangate45", "openphysyn")
        (granted,) = holder.claim([key])
        value = AreaDelayCurve([(0.2, 50.0), (0.4, 40.0)])

        def fulfil():
            time.sleep(0.1)
            holder.put([(key, value)], lease_ids=[granted["lease"]])

        fulfiller = threading.Thread(target=fulfil, daemon=True)
        fulfiller.start()
        (reply,) = waiter.claim([key], counted=False, wait=True, wait_timeout=5.0)
        assert reply["curve"].points() == value.points()
        # The waiter wakes the moment the value lands — before the holder
        # has read its cache_put reply; closing under it would strand the
        # thread on a dead socket.
        fulfiller.join(timeout=5.0)
        holder._conn.close(bye=True)
        waiter._conn.close(bye=True)

    def test_waiter_dying_mid_park_does_not_wedge_the_service(self, server):
        import time

        srv, state = server
        holder, doomed = dial(srv), dial(srv)
        key = ["digest-dw", "nangate45", "openphysyn"]
        (granted,) = holder.call("cache_claim", {"keys": [key]})["results"]
        # Park a claim, then kill the waiter's socket while it is parked:
        # the handler thread's reply send fails and the connection tears
        # down — release_owner rides the same teardown as a dead actor.
        from repro.net.protocol import CALL

        doomed.send(
            CALL,
            {
                "method": "cache_claim",
                "params": {
                    "keys": [key], "counted": False,
                    "wait": True, "wait_timeout": 5.0,
                },
            },
        )
        wait_until(
            lambda: state.cache_service.lease_parks == 1,
            timeout=5.0,
            message="claim never parked",
        )
        doomed.close()
        # The service keeps working for everyone else.
        points = [[0.1, 9.0]]
        holder.call("cache_put", {"items": [[key, points]], "leases": [granted["lease"]]})
        other = dial(srv)
        reply = other.call("cache_claim", {"keys": [key], "counted": False})
        assert reply["results"] == [{"curve": points}]
        # The doomed handler thread unparks (put notified it) and dies on
        # its failed send; give the teardown a moment to complete.
        time.sleep(0.2)
        assert state.cache_service.active_leases() == 0
        holder.close(bye=True)
        other.close(bye=True)


class TestDeadPeer:
    def test_server_drops_silent_actor(self):
        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        config = TrainerConfig(steps=10, batch_size=4, warmup_steps=4)
        state = LearnerState(
            agent=agent,
            buffer=ReplayBuffer(100, rng=0),
            history=TrainingHistory(),
            config=config,
            total=10,
            spec=ClusterSpec.for_agent(agent, envs_per_actor=1, seed=0, config=ClusterConfig(actors=1)),
        )
        srv = LearnerServer(("127.0.0.1", 0), heartbeat_timeout=0.3)
        srv.attach(state)
        srv.start()
        try:
            conn = dial(srv)
            conn.call("join")
            assert state.connected_actors() == 1
            # Go silent: past the heartbeat timeout the server must free
            # the slot without any traffic from us.
            import time

            deadline = time.monotonic() + 5.0
            while state.connected_actors() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert state.connected_actors() == 0
            conn.close()
        finally:
            srv.stop()


class TestElasticMembership:
    """Session tokens, shard reclamation, eviction and the stats schema."""

    def test_session_rejoin_reclaims_shard_with_fresh_token(self, server):
        srv, state = server
        c1 = dial(srv)
        j1 = c1.call("join")
        c1.close(bye=True)
        wait_until(lambda: not state.connected_actors(), 5.0, message="leave")
        c2 = dial(srv)
        j2 = c2.call("join", {"session": j1["session"]})
        assert j2["actor_id"] == j1["actor_id"]
        assert j2["rejoin"] is True
        assert j2["session"] != j1["session"]  # token rotates every join
        assert state.membership_dict()["rejoins"] == 1
        c2.close(bye=True)

    def test_takeover_while_old_connection_lingers(self, server):
        """A rejoin is legal before the old socket is declared dead; the
        zombie's pushes and its eventual disconnect are both ignored."""
        srv, state = server
        c1 = dial(srv)
        j1 = c1.call("join")
        c2 = dial(srv)
        j2 = c2.call("join", {"session": j1["session"]})
        assert j2["actor_id"] == j1["actor_id"] and j2["rejoin"] is True
        # The zombie connection still holds the dead token: stale push.
        with pytest.raises(RemoteError, match="stale session"):
            c1.call("push_batch", make_batch(2))
        # Its disconnect must not mark the taken-over slot dead.
        c1.close(bye=True)
        deadline = __import__("time").monotonic() + 1.0
        while __import__("time").monotonic() < deadline:
            assert state.connected_actors() == 1
            __import__("time").sleep(0.05)
        # The takeover connection works normally.
        assert c2.call("push_batch", make_batch(2))["kept"] == 2
        c2.close(bye=True)
        wait_until(lambda: not state.connected_actors(), 5.0, message="leave")

    def test_eviction_invalidates_old_session(self, server):
        srv, state = server
        c1 = dial(srv)
        j1 = c1.call("join")
        c1.close(bye=True)
        wait_until(lambda: not state.connected_actors(), 5.0, message="leave")
        c2 = dial(srv)
        j2 = c2.call("join")  # fresh join takes the dead slot: eviction
        assert j2["actor_id"] == j1["actor_id"]
        assert state.membership_dict()["evictions"] == 1
        # The evicted session token is gone: a late rejoin attempt gets a
        # fresh shard instead of stealing the slot back.
        c3 = dial(srv)
        j3 = c3.call("join", {"session": j1["session"]})
        assert j3["rejoin"] is False
        assert j3["actor_id"] != j2["actor_id"]
        for c in (c2, c3):
            c.close(bye=True)

    def test_stats_rpc_carries_membership_counters(self, server):
        srv, state = server
        c1 = dial(srv)
        j1 = c1.call("join")
        c1.close(bye=True)
        wait_until(lambda: not state.connected_actors(), 5.0, message="leave")
        c2 = dial(srv)
        c2.call("join", {"session": j1["session"]})
        stats = c2.call("stats")
        for key in MEMBERSHIP_KEYS:
            assert key in stats, f"_stats is missing membership key {key!r}"
        assert stats["joins"] == 1 and stats["rejoins"] == 1
        assert stats["evictions"] == 0 and stats["throttled_batches"] == 0
        c2.close(bye=True)


class TestBackpressure:
    def make_state(self, lag):
        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        # warmup 1, learn_every 1: every env step owes one gradient step,
        # so an idle learner accrues lag at ingest speed.
        return LearnerState(
            agent=agent,
            buffer=ReplayBuffer(100, rng=0),
            history=TrainingHistory(),
            config=TrainerConfig(steps=100, batch_size=4, warmup_steps=1),
            total=100,
            spec=ClusterSpec.for_agent(agent, envs_per_actor=2, seed=0, config=ClusterConfig(actors=1)),
            backpressure_lag=lag,
            throttle_seconds=0.07,
        )

    def test_deep_ingest_queue_sets_throttle_hint(self):
        state = self.make_state(lag=3)
        aid, join = state.join()
        first = state.push_batch(aid, make_batch(2), session=join["session"])
        assert first["throttle"] == 0.0  # lag 2 <= 3: no hint yet
        second = state.push_batch(aid, make_batch(2), session=join["session"])
        assert second["throttle"] == pytest.approx(0.07)  # lag 4 > 3
        assert state.membership_dict()["throttled_batches"] == 1

    def test_disabled_backpressure_never_throttles(self):
        state = self.make_state(lag=0)
        aid, join = state.join()
        for _ in range(5):
            reply = state.push_batch(aid, make_batch(2), session=join["session"])
            assert reply["throttle"] == 0.0
        assert state.membership_dict()["throttled_batches"] == 0


class TestOneRing:
    def test_concurrent_pushes_and_cluster_samples(self):
        """Actor threads push into one ``LearnerState`` while the learner
        samples under ``ingest_lock``, as the cluster loop does: nothing
        raises, the ring holds every kept transition, and every sampled
        row is one a thread pushed, whole."""
        slots, rounds, k = 3, 40, 2
        total = slots * rounds * k
        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        num_actions = agent.actions.size
        state = LearnerState(
            agent=agent,
            buffer=ReplayBuffer(total, rng=0),
            history=TrainingHistory(),
            config=TrainerConfig(steps=total, batch_size=8, warmup_steps=1),
            total=total,
            spec=ClusterSpec.for_agent(agent, envs_per_actor=k, seed=0, config=ClusterConfig(actors=slots)),
        )
        joins = [state.join() for _ in range(slots)]
        kept = [0] * slots
        errors = []

        def actor(slot):
            actor_id, join = joins[slot]
            try:
                for r in range(rounds):
                    tag = 1000 * (slot + 1) + k * r + np.arange(k)  # one tag per pushed row
                    batch = _with(
                        make_batch(k),
                        states=np.broadcast_to(tag[:, None, None, None], (k, 4, 4, 4)).astype(float),
                        actions=tag % num_actions,
                        rewards=np.stack([tag, -tag], axis=1).astype(float),
                    )
                    kept[slot] += state.push_batch(actor_id, batch, session=join["session"])["kept"]
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=actor, args=(slot,)) for slot in range(slots)]
        samples = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: interleave pushes with samples
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30.0
            while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
                with state.ingest_lock:
                    if len(state.buffer):
                        samples.append(state.buffer.sample(8))
                time.sleep(0.0005)
            for t in threads:
                t.join(timeout=5.0)
        finally:
            sys.setswitchinterval(interval)

        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert sum(kept) == total == len(state.buffer) == state.history.env_steps
        samples.append(state.buffer.sample(8))
        pushed = {1000 * (slot + 1) + i for slot in range(slots) for i in range(rounds * k)}
        for batch in samples:
            tags = batch["states"][:, 0, 0, 0].astype(int)
            assert set(tags.tolist()) <= pushed
            assert (batch["states"] == tags[:, None, None, None]).all()
            np.testing.assert_array_equal(batch["actions"], tags % num_actions)
            np.testing.assert_array_equal(batch["rewards"], np.stack([tags, -tags], axis=1))
