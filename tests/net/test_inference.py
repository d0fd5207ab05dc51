"""The shared batched-inference service: frames, fallback, coalescing.

Protocol-level contracts through real loopback sockets (oversized batch
and width-mismatch rejections as live ERROR frames, dead server and
kill-mid-run fallback) plus the service semantics: request coalescing
into one forward, digest-keyed weight refresh from the hub, and the
actor worker's local-fallback path.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.distributed.pipeline import PolicyHub
from repro.net import InferenceClient, InferenceServer
from repro.rl import ScalarizedDoubleDQN

N = 8


@pytest.fixture
def agent():
    return ScalarizedDoubleDQN(N, blocks=1, channels=8, rng=0)


@pytest.fixture
def service(agent):
    hub = PolicyHub(agent)
    server = InferenceServer(max_batch=8, max_wait=0.01)
    server.start()
    server.attach(hub, agent.snapshot_network(), agent.actions)
    yield server, hub
    server.stop()


def batch(agent, k: int, n: int = N, seed: int = 0):
    rng = np.random.default_rng(seed)
    feats = rng.random((k, 4, n, n))
    masks = np.ones((k, agent.actions.size), dtype=bool)
    return feats, masks


class TestServing:
    def test_remote_actions_match_local_argmax(self, agent, service):
        server, _hub = service
        client = InferenceClient(server.address)
        feats, masks = batch(agent, 3)
        reply = client.act_batch(feats, masks, agent.w)
        assert reply is not None
        local = agent.act_batch(feats, masks, epsilon=0.0)
        np.testing.assert_array_equal(reply["actions"], local)
        assert reply["version"] == 1
        assert reply["q"].shape == (3,)
        client.close()

    def test_weight_refresh_after_publish(self, agent, service):
        """The server tracks the hub: a publication changes the answer
        exactly as it would for an actor pulling weights itself."""
        server, hub = service
        client = InferenceClient(server.address)
        feats, masks = batch(agent, 2)
        before = client.act_batch(feats, masks, agent.w)
        assert before["version"] == 1
        for p in agent.local.parameters():
            p.value += 0.25  # nudge the policy, then publish
        hub.publish()
        after = client.act_batch(feats, masks, agent.w)
        assert after["version"] == 2
        np.testing.assert_array_equal(
            after["actions"], agent.act_batch(feats, masks, epsilon=0.0)
        )
        client.close()

    def test_concurrent_requests_coalesce_into_one_forward(self, agent, service):
        server, _hub = service
        clients = [InferenceClient(server.address) for _ in range(3)]
        feats, masks = batch(agent, 2)
        barrier = threading.Barrier(3)
        replies = [None] * 3

        def call(i):
            barrier.wait()
            replies[i] = clients[i].act_batch(feats, masks, agent.w)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is not None for r in replies)
        stats = server.stats_dict()
        assert stats["requests"] == 3 and stats["rows"] == 6
        # 6 rows fit one max_batch=8 window: strictly fewer forwards than
        # requests (>= 2 coalesced even under unlucky scheduling).
        assert stats["batches"] < stats["requests"]
        assert max(r["batch_requests"] for r in replies) >= 2
        for c in clients:
            c.close()


class TestRejections:
    def test_oversized_batch_is_rejected_and_client_falls_back(self, agent, service):
        server, _hub = service
        client = InferenceClient(server.address)
        feats, masks = batch(agent, 9)  # max_batch=8
        assert client.act_batch(feats, masks, agent.w) is None
        assert client.rejected == 1
        # The connection survived the ERROR frame: a legal batch works.
        feats, masks = batch(agent, 2)
        assert client.act_batch(feats, masks, agent.w) is not None
        client.close()

    def test_width_mismatch_weights_rejected(self, agent, service):
        """An actor built for a different width (stale/incompatible
        weights) gets a live rejection, not a wrong answer."""
        server, _hub = service
        from repro.env.actions import ActionSpace

        client = InferenceClient(server.address)
        rng = np.random.default_rng(0)
        feats = rng.random((2, 4, 16, 16))
        masks = np.ones((2, ActionSpace(16).size), dtype=bool)
        assert client.act_batch(feats, masks, agent.w) is None
        assert client.rejected == 1
        client.close()

    def test_mask_shape_mismatch_rejected(self, agent, service):
        server, _hub = service
        client = InferenceClient(server.address)
        feats, _ = batch(agent, 2)
        bad_masks = np.ones((2, 5), dtype=bool)
        assert client.act_batch(feats, bad_masks, agent.w) is None
        assert client.rejected == 1
        client.close()


class TestFallback:
    def test_dead_server_returns_none_with_backoff(self, agent):
        client = InferenceClient(("127.0.0.1", 1), connect_timeout=0.5, retry_after=30.0)
        feats, masks = batch(agent, 2)
        assert client.act_batch(feats, masks, agent.w) is None
        assert client.wire_failures == 1
        # Inside the backoff window: no second dial attempt.
        assert client.act_batch(feats, masks, agent.w) is None
        assert client.wire_failures == 1

    def test_server_killed_mid_run_falls_back(self, agent, service):
        server, _hub = service
        # heartbeat_timeout bounds how long a call can hang on a dead
        # established connection before the client gives up and falls back.
        client = InferenceClient(server.address, heartbeat_timeout=2.0, retry_after=30.0)
        feats, masks = batch(agent, 2)
        assert client.act_batch(feats, masks, agent.w) is not None
        server.stop()
        # The established connection dies -> None; later calls stay None
        # (backoff) without hanging.
        start = time.monotonic()
        assert client.act_batch(feats, masks, agent.w) is None
        assert client.act_batch(feats, masks, agent.w) is None
        assert time.monotonic() - start < 10.0
        assert client.wire_failures >= 1

    @staticmethod
    def _actor(agent, pulled):
        """A remote worker and its loop, wired to a link that only counts pulls."""
        from repro.distributed.pipeline import ActorLoop
        from repro.net.actor import RemoteActorWorker

        worker = RemoteActorWorker(("127.0.0.1", 1))
        worker.pull = lambda version, digest: (pulled.append(True), (version, digest, None))[1]
        loop = ActorLoop(None, agent.snapshot_network(), agent.actions, agent.w, None)
        return worker, loop

    def test_epsilon_greedy_falls_back_to_local(self, agent):
        """A dead inference service serves the exploit rows locally, after
        one counted fallback and one weight-freshening pull."""
        from repro.distributed.pipeline import epsilon_greedy

        pulled = []
        worker, loop = self._actor(agent, pulled)
        dead = InferenceClient(("127.0.0.1", 1), connect_timeout=0.5, retry_after=30.0)
        feats, masks = batch(agent, 3)
        chosen = epsilon_greedy(
            worker._predict_via(dead, loop), feats, masks, 0.0, np.random.default_rng(0)
        )
        assert worker.inference_fallbacks == 1
        assert pulled == [True]
        np.testing.assert_array_equal(chosen, agent.act_batch(feats, masks, epsilon=0.0))

    def test_exploration_is_independent_of_who_serves_the_forward(self, agent, service):
        """With epsilon > 0 the chosen actions and the RNG state afterwards
        are identical with a live service, a dead service and no service:
        the exploration draws happen before any forward."""
        from repro.distributed.pipeline import epsilon_greedy

        server, _hub = service
        feats, masks = batch(agent, 6)
        outcomes = []
        for address in (server.address, ("127.0.0.1", 1), None):
            worker, loop = self._actor(agent, [])
            predict = loop.greedy
            if address is not None:
                client = InferenceClient(address, connect_timeout=0.5, retry_after=30.0)
                predict = worker._predict_via(client, loop)
            rng = np.random.default_rng(7)
            chosen = epsilon_greedy(predict, feats, masks, 0.5, rng)
            outcomes.append((chosen.tolist(), rng.bit_generator.state, worker.inference_fallbacks))
            if address is not None:
                client.close()
        (live, live_rng, live_fb), (dead, dead_rng, dead_fb), (none, none_rng, _) = outcomes
        assert live == dead == none
        assert live_rng == dead_rng == none_rng
        assert (live_fb, dead_fb) == (0, 1)
        # Mixed round: some rows explored, some exploited.
        explored = np.array(live) != agent.act_batch(feats, masks, epsilon=0.0)
        assert 0 < explored.sum() < len(live)


class TestNotReady:
    def test_request_before_attach_times_out_to_fallback(self):
        server = InferenceServer(max_batch=8, max_wait=0.01, state_wait=0.2)
        server.start()
        try:
            from repro.env.actions import ActionSpace

            client = InferenceClient(server.address)
            rng = np.random.default_rng(0)
            feats = rng.random((1, 4, N, N))
            masks = np.ones((1, ActionSpace(N).size), dtype=bool)
            assert client.act_batch(feats, masks, np.array([0.5, 0.5])) is None
            assert client.rejected == 1  # live ERROR, not a dead socket
            client.close()
        finally:
            server.stop()
