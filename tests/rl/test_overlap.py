"""The overlapped tick is the serial tick, byte for byte.

:meth:`repro.rl.trainer.CollectionLoop.tick` takes the gradient steps whose
batches miss this round's ring slots while the round's successors
synthesize on a worker process. These tests run it against
``tests/oracles/loop.py``'s serial tick (act, step, push, train) and hold
every output equal: the history, the agent's state, the replay buffer, the
Pareto archive, the backend's counters and the store's contents in LRU
order. They also kill the worker mid-run, and end an ``rl_search`` with its
budget while a prefetch is in flight.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.cells import nangate45
from repro.env import VectorPrefixEnv
from repro.pareto import ArchivingEvaluator
from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig, rl_search
from repro.rl.trainer import CollectionLoop
from repro.store import make_store
from repro.synth import EvaluationBackend, SynthesisEvaluator
from tests.oracles.loop import serial_tick

N = 8
HORIZON = 10


@pytest.fixture(scope="module")
def lib():
    return nangate45()


def assert_same(want, got, path="run"):
    """Equal values, every array byte for byte and of one dtype."""
    if isinstance(want, dict):
        assert want.keys() == got.keys(), path
        for key in want:
            assert_same(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(want) == len(got), path
        for i, (a, b) in enumerate(zip(want, got)):
            assert_same(a, b, f"{path}[{i}]")
    elif isinstance(want, np.ndarray):
        assert want.dtype == got.dtype and np.array_equal(want, got), path
    else:
        assert want == got, path


class Run:
    """One synthesis training run's objects, built the same way every time."""

    def __init__(self, lib, num_envs, config, seed=0):
        self.store = make_store()
        self.backend = EvaluationBackend(lib, store=self.store)
        evaluator = ArchivingEvaluator(SynthesisEvaluator(lib, backend=self.backend))
        self.env = VectorPrefixEnv.make(N, evaluator, num_envs, horizon=HORIZON, seed=seed)
        self.agent = ScalarizedDoubleDQN(N, blocks=1, channels=4, lr=1e-3, rng=seed)
        self.config = config
        self.prefetches = 0
        prefetch = self.backend.prefetch

        def counted(graphs):
            self.prefetches += 1
            prefetch(graphs)

        self.backend.prefetch = counted

    def trainer(self, **kwargs) -> Trainer:
        return Trainer(self.env, self.agent, self.config, rng=0, **kwargs)

    def record(self, history, buffer) -> dict:
        assert not self.backend._inflight  # every prefetched curve was collected
        self.backend.close()
        return {
            "history": dataclasses.asdict(history),
            "agent": self.agent.state_dict(),
            "buffer": buffer.state_dict(),
            "archive": self.env.envs[0].archive_state(),
            "stats": self.backend.stats(),
            "store": self.store.state_dict(),
        }


def trained(lib, num_envs, config, steps) -> "tuple[dict, int]":
    run = Run(lib, num_envs, config)
    trainer = run.trainer()
    return run.record(trainer.run(steps), trainer.buffer), run.prefetches


def serial(monkeypatch, build):
    """``build()`` with every tick the serial one."""
    with monkeypatch.context() as m:
        m.setattr(CollectionLoop, "tick", serial_tick)
        return build()


class TestSameBytes:
    @pytest.mark.parametrize("learn_every", [1, 2])
    @pytest.mark.parametrize("num_envs", [1, 3])
    def test_a_small_ring_that_wraps(self, lib, monkeypatch, num_envs, learn_every):
        """Capacity 10 at batch 4: many draws hit the slots a round writes,
        so ticks take their steps early, late and split, and the ring wraps."""
        config = TrainerConfig(batch_size=4, warmup_steps=6, buffer_capacity=10, learn_every=learn_every)
        want, none = serial(monkeypatch, lambda: trained(lib, num_envs, config, 36))
        got, prefetches = trained(lib, num_envs, config, 36)
        assert none == 0 and prefetches > 0
        assert_same(want, got)

    def test_a_large_ring(self, lib, monkeypatch):
        config = TrainerConfig(batch_size=8, warmup_steps=8)
        want, _ = serial(monkeypatch, lambda: trained(lib, 1, config, 40))
        got, prefetches = trained(lib, 1, config, 40)
        assert prefetches > 0
        assert_same(want, got)

    @pytest.mark.parametrize("num_envs", [1, 3])
    def test_a_mid_run_resume(self, lib, monkeypatch, tmp_path, num_envs):
        config = TrainerConfig(batch_size=4, warmup_steps=6, buffer_capacity=30)
        want, _ = serial(monkeypatch, lambda: trained(lib, num_envs, config, 45))
        first = Run(lib, num_envs, config)
        first.trainer(checkpoint_dir=tmp_path, stop_after=21).run(45)
        first.backend.close()
        second = Run(lib, num_envs, config)
        trainer = second.trainer(checkpoint_dir=tmp_path)
        history = trainer.run(resume=True)
        assert first.prefetches > 0 and second.prefetches > 0
        assert_same(want, second.record(history, trainer.buffer))


class TestWorkerDeath:
    def test_a_killed_worker_changes_no_byte(self, lib, monkeypatch):
        """The worker dies with a prefetch in flight: that miss and every
        later one until the next prefetch are synthesized in this process,
        and the next prefetch starts another worker."""
        config = TrainerConfig(batch_size=8, warmup_steps=8)
        want, _ = serial(monkeypatch, lambda: trained(lib, 1, config, 40))
        run = Run(lib, 1, config)
        backend, workers = run.backend, []
        prefetch = backend.prefetch

        def kill_the_third(graphs):
            prefetch(graphs)
            if run.prefetches == 3 and backend._inflight:
                ((pid, process),) = backend._worker._pool._processes.items()
                workers.append(pid)
                os.kill(pid, signal.SIGKILL)
                process.join()
            elif backend._worker is not None and backend._worker._pool._processes:
                workers.extend(backend._worker._pool._processes)

        backend.prefetch = kill_the_third
        trainer = run.trainer()
        got = run.record(trainer.run(40), trainer.buffer)
        assert run.prefetches > 3 and len(set(workers)) >= 2  # a second worker took over
        assert_same(want, got)
        assert not multiprocessing.active_children()


class TestBudgetEndsSearch:
    def test_the_search_ends_with_a_prefetch_in_flight(self, lib, monkeypatch):
        """``rl_search`` ends when the env step asks for one design past the
        budget: the overlapped tick has already prefetched it and taken its
        early steps. The archive is the serial one, and the search closes
        its backend, so no process outlives it."""
        config = TrainerConfig(batch_size=4, warmup_steps=6)
        search = rl_search({"blocks": 0, "channels": 4}, config, horizon=HORIZON)

        def archive_of(seen):
            backend = EvaluationBackend(lib, store=make_store())
            close = backend.close
            backend.close = lambda: seen.append(dict(backend._inflight)) or close()
            evaluator = ArchivingEvaluator(SynthesisEvaluator(lib, backend=backend), budget=40)
            archive = search(N, evaluator, 40, rng=0)
            assert not multiprocessing.active_children()
            return archive.state_dict(encode_payload=lambda g: g.key().hex())

        serial_seen, seen = [], []
        want = serial(monkeypatch, lambda: archive_of(serial_seen))
        got = archive_of(seen)
        # The design past the budget was in flight when the search closed its backend.
        assert serial_seen == [{}] and len(seen) == 1 and len(seen[0]) == 1
        assert_same(want, got)
