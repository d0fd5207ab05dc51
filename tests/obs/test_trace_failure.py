"""Trace propagation under failure: a severed round keeps its lineage.

The chaos-proxy sever from ``tests/net/test_chaos.py``, re-run with the
event log on: the learner mints every round trace, the actor's spans ride
it, and when the wire dies mid-round the lost round must show up in the
merged JSONL as a ``rounds_lost`` event *carrying the same trace* — not
as an orphaned trace id — while the redialed session's spans keep drawing
their traces from the same run's mint.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import obs
from repro.net import ChaosProxy, ClusterConfig, ClusterSpec, RemoteActorWorker, wait_until
from repro.obs.events import RUN_ENV
from repro.obs.report import load_events, span_problems
from repro.rl import ScalarizedDoubleDQN, TrainerConfig, TrainingRuntime


@pytest.fixture(autouse=True)
def clean_obs():
    obs.shutdown()
    os.environ.pop(RUN_ENV, None)
    obs.REGISTRY.reset()
    yield
    obs.shutdown()
    os.environ.pop(RUN_ENV, None)
    obs.REGISTRY.reset()


def make_runtime(steps=20):
    agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, lr=3e-4, rng=0)
    spec = ClusterSpec.for_agent(
        agent, horizon=6, library="nangate45", seed=0,
        config=ClusterConfig(actors=1, envs_per_actor=2, cluster_wait=30.0),
    )
    config = TrainerConfig(steps=steps, batch_size=8, warmup_steps=8)
    return TrainingRuntime(None, agent, config, rng=0, cluster=spec)


class TestTraceSurvivesASever:
    def test_severed_round_keeps_its_trace_lineage(self, tmp_path):
        obs.configure(str(tmp_path), "learner")
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
        assert stats["a"]["rounds_lost"] >= 1

        obs.shutdown()  # flush process_end so the ledger is complete
        events = load_events(tmp_path)

        # No orphan spans: the sever tore a round, not the ledger — every
        # begin (including the severed round's) has a matching end.
        assert span_problems(events) == []

        # One run id spans the outage: pre-sever spans, the lost-round
        # event, and the redialed session's spans all stamp the same run.
        runs = {e["run"] for e in events if "run" in e}
        assert len(runs) == 1

        # Every trace the actor's rounds rode was minted by the learner
        # (the round_trace lineage events), across the sever.
        minted = {e["id"] for e in events if e["event"] == "round_trace"}
        assert minted
        round_begins = [
            e for e in events if e["event"] == "begin" and e.get("name") == "actor.round"
        ]
        assert round_begins
        assert {e["trace"] for e in round_begins} <= minted

        # The severed round is attributed, not orphaned: rounds_lost
        # carries the trace the learner minted for it.
        lost = [e for e in events if e["event"] == "rounds_lost"]
        assert lost, "the sever must be recorded as a lost round"
        assert all(e["trace"] in minted for e in lost)
