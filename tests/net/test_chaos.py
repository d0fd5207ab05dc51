"""Fault injection: the chaos proxy, the supervisor, and elastic recovery.

Three layers, bottom-up: :class:`ChaosProxy` unit behavior (each fault
produces the wire error the protocol layer promises), the
:class:`FleetSupervisor` respawn/budget state machine (tiny real
subprocesses, stepped deterministically via ``poll_once``), and the
tentpole end-to-end: an actor whose only path to the learner runs through
the proxy survives a mid-run sever — redial, same-session rejoin, and the
run still reaches its exact step budget.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import threading

import pytest

from repro.net import (
    ChaosProxy,
    ClusterConfig,
    ClusterSpec,
    FleetSupervisor,
    RemoteActorWorker,
    connect,
    kill_process,
    wait_until,
)
from repro.net.protocol import PeerTimeout, ProtocolError
from repro.net.server import FramedServer
from repro.rl import ScalarizedDoubleDQN, TrainerConfig, TrainingRuntime


class _EchoServer(FramedServer):
    roles = ("chaos",)

    def __init__(self):
        super().__init__(("127.0.0.1", 0), heartbeat_timeout=2.0)
        self.methods = {"echo": lambda ctx, params: {"echo": params}}


# ----------------------------------------------------------------------
# ChaosProxy: each fault produces the promised wire error
# ----------------------------------------------------------------------


class TestChaosProxy:
    @pytest.fixture()
    def server(self):
        srv = _EchoServer()
        srv.start()
        yield srv
        srv.stop()

    def dial(self, proxy, timeout=2.0):
        conn, _welcome = connect(proxy.address, role="chaos", timeout=timeout)
        return conn

    def test_passthrough_is_transparent(self, server):
        with ChaosProxy(server.address) as proxy:
            conn = self.dial(proxy)
            try:
                assert conn.call("echo", {"n": 7}) == {"echo": {"n": 7}}
            finally:
                conn.close(bye=True)
            assert proxy.connections == 1
            assert proxy.bytes_forwarded > 0
            assert proxy.bytes_dropped == 0

    def test_sever_cuts_live_links_but_new_dials_succeed(self, server):
        with ChaosProxy(server.address) as proxy:
            conn = self.dial(proxy)
            try:
                conn.call("echo", 1)
                assert proxy.sever() > 0
                with pytest.raises((ProtocolError, OSError)):
                    conn.call("echo", 2)
            finally:
                conn.close()
            # The proxy itself survived: a redial goes through.
            conn2 = self.dial(proxy)
            try:
                assert conn2.call("echo", 3) == {"echo": 3}
            finally:
                conn2.close(bye=True)
            assert proxy.severed >= 1

    def test_truncate_next_is_a_torn_frame(self, server):
        with ChaosProxy(server.address) as proxy:
            conn = self.dial(proxy)
            try:
                conn.call("echo", 1)
                proxy.truncate_next()
                # The next request forwards half a frame and severs: the
                # server drops the link, and our reply read hits EOF/reset.
                with pytest.raises((ProtocolError, OSError)):
                    conn.call("echo", {"big": "x" * 4096})
            finally:
                conn.close()
            assert proxy.bytes_dropped > 0

    def test_blackhole_looks_like_a_silent_peer(self, server):
        with ChaosProxy(server.address) as proxy:
            conn = self.dial(proxy)  # handshake first, then go dark
            try:
                conn.call("echo", 1)
                proxy.blackhole = True
                # The socket's own timeout, well inside the server's 2 s
                # heartbeat window: the client must give up first.
                conn.sock.settimeout(0.3)
                with pytest.raises(PeerTimeout):
                    conn.call("echo", 2)
            finally:
                conn.close()
            assert proxy.bytes_dropped > 0

    def test_sever_after_bytes_lands_mid_run(self, server):
        with ChaosProxy(server.address) as proxy:
            conn = self.dial(proxy)
            try:
                conn.call("echo", 1)
                proxy.sever_after_bytes(1)  # next forwarded chunk trips it
                with pytest.raises((ProtocolError, OSError)):
                    for i in range(50):
                        conn.call("echo", i)
            finally:
                conn.close()
            assert proxy.severed >= 1


# ----------------------------------------------------------------------
# Bounded waits and process kills
# ----------------------------------------------------------------------


class TestChaosHelpers:
    def test_wait_until_returns_the_truthy_value(self):
        counter = iter([0, 0, 41])
        assert wait_until(lambda: next(counter), timeout=1.0) == 41

    def test_wait_until_names_what_never_happened(self):
        with pytest.raises(TimeoutError, match="waiting for the learner"):
            wait_until(lambda: False, timeout=0.05, message="the learner")

    def test_kill_process_reaps_with_signal_code(self):
        proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        assert kill_process(proc) == -signal.SIGKILL


# ----------------------------------------------------------------------
# FleetSupervisor: respawn within budget, fail past it
# ----------------------------------------------------------------------


def _spawn(code: int) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", f"raise SystemExit({code})"])


class TestFleetSupervisor:
    def test_crash_respawns_until_a_clean_exit(self):
        events = []
        sup = FleetSupervisor(restart_budget=2, on_event=events.append)
        lives = iter([lambda: _spawn(0)])  # the replacement exits clean

        def respawn():
            return next(lives)()

        crashed = _spawn(3)
        crashed.wait()
        sup.watch("actor-0", crashed, respawn=respawn, kind="actor")
        sup.poll_once()  # sees the crash, respawns
        wait_until(
            lambda: sup.procs("actor")[0].poll() == 0,
            timeout=10.0,
            message="the replacement to exit cleanly",
        )
        sup.poll_once()  # sees the clean exit, marks done
        assert sup.respawns == {"actor-0": 1}
        assert sup.failures == []
        assert sup.exit_code() == 0
        assert any("respawned actor-0" in e for e in events)

    def test_budget_exhaustion_is_a_failure(self):
        sup = FleetSupervisor(restart_budget=1)
        crashed = _spawn(7)
        crashed.wait()
        sup.watch("actor-0", crashed, respawn=lambda: _spawn(7), kind="actor")
        sup.poll_once()  # respawn 1/1
        wait_until(
            lambda: sup.procs("actor")[0].poll() is not None,
            timeout=10.0,
            message="the replacement to crash",
        )
        sup.poll_once()  # budget spent: this death is terminal
        assert sup.respawns == {"actor-0": 1}
        assert sup.failures == [("actor-0", 7)]
        assert sup.exit_code() == 1

    def test_pause_disables_respawn(self):
        sup = FleetSupervisor(restart_budget=2)
        crashed = _spawn(5)
        crashed.wait()
        sup.watch("actor-0", crashed, respawn=lambda: _spawn(0), kind="actor")
        sup.pause()
        sup.poll_once()
        assert sup.respawns == {}
        assert sup.failures == []

    def test_no_respawn_closure_is_a_straight_failure(self):
        sup = FleetSupervisor(restart_budget=2)
        crashed = _spawn(9)
        crashed.wait()
        sup.watch("farm-0", crashed, kind="farm")
        sup.poll_once()
        assert sup.failures == [("farm-0", 9)]
        assert sup.exit_code() == 1


# ----------------------------------------------------------------------
# The tentpole e2e (in-process): sever mid-run, training still completes
# ----------------------------------------------------------------------


def make_runtime(steps=20):
    agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, lr=3e-4, rng=0)
    spec = ClusterSpec.for_agent(
        agent, horizon=6, library="nangate45", seed=0,
        config=ClusterConfig(actors=1, envs_per_actor=2, cluster_wait=30.0),
    )
    config = TrainerConfig(steps=steps, batch_size=8, warmup_steps=8)
    return TrainingRuntime(None, agent, config, rng=0, cluster=spec)


class TestElasticRecovery:
    def test_actor_survives_a_mid_run_sever(self):
        """The supervised reconnect loop end-to-end: the actor's only path
        to the learner is a chaos proxy; a sever lands mid-run, the actor
        backs off, redials through the proxy, rejoins its session, and the
        run reaches its exact step budget anyway."""
        runtime = make_runtime(steps=20)
        address = runtime.bind()
        with ChaosProxy(address) as proxy:
            worker = RemoteActorWorker(
                proxy.address, reconnect_base=0.05, reconnect_cap=0.2
            )
            stats = {}

            def actor():
                stats["a"] = worker.run()

            thread = threading.Thread(target=actor, daemon=True)
            thread.start()

            def chaos():
                # Let the join + spec + a round or two cross, then cut.
                wait_until(
                    lambda: worker.rounds >= 2,
                    timeout=60.0,
                    interval=0.002,  # the remaining rounds take ~50 ms in all
                    message="the actor to complete two rounds",
                )
                proxy.sever()

            saboteur = threading.Thread(target=chaos, daemon=True)
            saboteur.start()
            history = runtime.run()
            thread.join(timeout=30)
            saboteur.join(timeout=30)
            assert not thread.is_alive(), "actor thread leaked"

        assert history.env_steps == 20
        assert proxy.severed >= 1
        assert stats["a"]["reconnects"] >= 1
        assert stats["a"]["rounds_lost"] >= 1
        # Same shard resumed under a fresh token: the learner saw a rejoin.
        assert runtime.membership_stats["rejoins"] >= 1
        assert runtime.membership_stats["joins"] == 1
        assert runtime.membership_stats["evictions"] == 0

    def test_actor_gives_up_after_the_dial_budget(self):
        # Nothing is listening: the supervised loop must not spin forever.
        worker = RemoteActorWorker(
            ("127.0.0.1", 9), reconnect_attempts=2,
            reconnect_base=0.01, reconnect_cap=0.02,
        )
        with pytest.raises(RuntimeError, match="gave up .* after 3 consecutive"):
            worker.run()
