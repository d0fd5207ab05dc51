"""Checkpoint format and save -> resume -> continue bit-identity."""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.env import PrefixEnv
from repro.rl import (
    CheckpointError,
    CheckpointManager,
    ScalarizedDoubleDQN,
    Trainer,
    TrainerConfig,
)
from repro.rl.checkpoint import FORMAT_VERSION, _flatten, _unflatten, upgrade
from repro.synth import AnalyticalEvaluator
from repro.synth.backend import COUNTER_KEYS
from tests.oracles.checkpoint import as_format1, save_format1


def make_sync_trainer(tmp_path=None, seed=3, evaluator=None, **knobs):
    """One bare env's ``Trainer`` and that env; ``knobs`` are its checkpoint keywords."""
    env = PrefixEnv(
        6,
        evaluator if evaluator is not None else AnalyticalEvaluator(0.5, 0.5),
        horizon=12,
        rng=seed,
    )
    agent = ScalarizedDoubleDQN(6, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=seed)
    cfg = TrainerConfig(batch_size=4, warmup_steps=8)
    return Trainer(env, agent, cfg, rng=seed, checkpoint_dir=tmp_path, **knobs), env


def sharded_buffer_state(capacity: int, num_shards: int = 2) -> dict:
    """A ``buffer`` record in the retired sharded layout, built by hand:
    one ring per actor slot (capacity split over them), the round-robin
    cursor and the learner's sampling stream."""
    from repro.rl import ReplayBuffer
    from repro.utils.rng import ensure_rng, rng_state

    base, extra = divmod(capacity, num_shards)
    return {
        "capacity": capacity,
        "num_shards": num_shards,
        "round_robin": 0,
        "rng": rng_state(ensure_rng(5)),
        "shards": [ReplayBuffer(base + (i < extra)).state_dict() for i in range(num_shards)],
    }


EMPTY_HISTORY = {
    "losses": [], "episode_returns": [], "areas": [], "delays": [],
    "epsilon_trace": [], "env_steps": 0, "gradient_steps": 0,
}


def assert_histories_identical(a, b):
    assert a.env_steps == b.env_steps
    assert a.gradient_steps == b.gradient_steps
    for f in ("losses", "episode_returns", "areas", "delays", "epsilon_trace"):
        assert getattr(a, f) == getattr(b, f), f  # exact float equality


class TestFlatten:
    def test_round_trip(self):
        state = {
            "a": np.arange(6.0).reshape(2, 3),
            "b": {"c": [1, 2.5, None, True, "x"], "d": np.ones(2, dtype=bool)},
            "big": 2**127 + 1,  # PCG64-sized integer
            "e": [{"f": np.float64(1.25)}, (np.int64(3), "y")],
        }
        arrays = {}
        payload = _flatten(state, "", arrays)
        text = json.dumps(payload)  # must be JSON-serializable
        restored = _unflatten(json.loads(text), arrays)
        np.testing.assert_array_equal(restored["a"], state["a"])
        np.testing.assert_array_equal(restored["b"]["d"], state["b"]["d"])
        assert restored["b"]["c"] == [1, 2.5, None, True, "x"]
        assert restored["big"] == 2**127 + 1
        assert restored["e"][0]["f"] == 1.25
        assert restored["e"][1] == [3, "y"]

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            _flatten({"bad": object()}, "", {})

    def test_rejects_non_str_keys(self):
        with pytest.raises(TypeError, match="keys must be str"):
            _flatten({("t",): 1}, "", {})


class TestCheckpointManager:
    def _state(self):
        return {"x": np.arange(4.0), "y": {"z": 7}}

    def test_save_load_round_trip(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(self._state(), step=10)
        state, manifest = mgr.load()
        np.testing.assert_array_equal(state["x"], np.arange(4.0))
        assert state["y"]["z"] == 7
        assert manifest["step"] == 10

    def test_latest_wins(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save({"v": 1}, step=5)
        mgr.save({"v": 2}, step=9)
        state, manifest = mgr.load()
        assert state["v"] == 2 and manifest["step"] == 9
        state, _ = mgr.load(step=5)
        assert state["v"] == 1

    def test_prune_keeps_last(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep_last=2)
        for step in (1, 2, 3, 4):
            mgr.save({"v": step}, step=step)
        assert mgr.steps() == [3, 4]

    @pytest.mark.parametrize("keep_last, kept", [(None, 6), (0, 6), (1, 1), (2, 2), (3, 3), (5, 5), (8, 6)])
    def test_retention_keeps_the_newest_snapshots(self, keep_last, kept, tmp_path):
        """``None`` and 0 keep every snapshot; otherwise the newest
        ``keep_last`` stay, and the newest always loads."""
        mgr = CheckpointManager(tmp_path, keep_last=keep_last)
        steps = [4, 8, 12, 16, 20, 24]
        for step in steps:
            mgr.save({"v": step}, step=step)
        assert mgr.steps() == steps[-kept:]
        state, manifest = mgr.load()
        assert state["v"] == manifest["step"] == 24

    def test_the_default_keeps_three(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for step in range(1, 6):
            mgr.save({"v": step}, step=step)
        assert mgr.keep_last == 3 and mgr.steps() == [3, 4, 5]

    def test_negative_retention_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last must be nonnegative or None"):
            CheckpointManager(tmp_path, keep_last=-1)

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint found"):
            CheckpointManager(tmp_path).load()

    def test_corrupted_arrays_detected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(self._state(), step=3)
        blob = (path / "arrays.npz").read_bytes()
        (path / "arrays.npz").write_bytes(blob[:-7] + b"garbage")
        with pytest.raises(CheckpointError, match="corrupted"):
            mgr.load()

    def test_truncated_state_detected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(self._state(), step=3)
        text = (path / "state.json").read_text()
        (path / "state.json").write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="corrupted"):
            mgr.load()

    def test_missing_payload_detected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(self._state(), step=3)
        (path / "arrays.npz").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            mgr.load()

    def test_missing_manifest_detected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(self._state(), step=3)
        (path / "manifest.json").unlink()
        with pytest.raises(CheckpointError, match="incomplete"):
            mgr.load()

    def test_version_gate(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(self._state(), step=3)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version 999"):
            mgr.load()

    def test_foreign_format_rejected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(self._state(), step=3)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="not a prefixrl-checkpoint"):
            mgr.load()

    def test_interrupted_save_is_invisible(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(self._state(), step=3)
        # A crash mid-save leaves a .tmp-* staging directory behind.
        staged = tmp_path / ".tmp-step-00000009-1234"
        staged.mkdir()
        (staged / "state.json").write_text("{}")
        state, manifest = mgr.load()
        assert manifest["step"] == 3
        assert mgr.steps() == [3]


class TestTrainingRoundTrip:
    def test_resume_bit_identical_synthesis(self, tmp_path):
        from repro.cells import nangate45
        from repro.synth import SynthesisCache, SynthesisEvaluator

        library = nangate45()

        def evaluator():
            return SynthesisEvaluator(library, cache=SynthesisCache())

        rt_full, env_full = make_sync_trainer(evaluator=evaluator())
        h_full = rt_full.run(30)

        rt_part, _ = make_sync_trainer(tmp_path, evaluator=evaluator(), stop_after=12)
        rt_part.run(30)

        rt_res, env_res = make_sync_trainer(tmp_path, evaluator=evaluator())
        h_res = rt_res.run(resume=True)
        assert_histories_identical(h_full, h_res)
        # Cache counters and archive ride along exactly.
        assert rt_res.env.backend.stats() == rt_full.env.backend.stats()
        assert env_res.archive.points() == env_full.archive.points()

    @staticmethod
    def _vector_synthesis_trainer(checkpoint_dir=None, **knobs):
        """Two replicas over one synthesis evaluator, as ``make`` builds them."""
        from repro.cells import nangate45
        from repro.env import VectorPrefixEnv
        from repro.synth import SynthesisCache, SynthesisEvaluator

        evaluator = SynthesisEvaluator(nangate45(), cache=SynthesisCache())
        venv = VectorPrefixEnv.make(6, evaluator, num_envs=2, horizon=12, seed=3)
        agent = ScalarizedDoubleDQN(6, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=3)
        cfg = TrainerConfig(batch_size=4, warmup_steps=8)
        return Trainer(venv, agent, cfg, rng=3, checkpoint_dir=checkpoint_dir, **knobs)

    def test_resume_vector_synthesis_run(self, tmp_path):
        """Two replicas over one evaluator checkpoint their backend as one
        record, and the resumed run's synthesis stats equal the
        uninterrupted run's."""
        rt_full = self._vector_synthesis_trainer()
        h_full = rt_full.run(24)

        rt_part = self._vector_synthesis_trainer(tmp_path, stop_after=10)
        rt_part.run(24)
        assert rt_part.preempted
        state, _ = rt_part.manager.load()
        record = state["backend"]
        assert record == json.loads(json.dumps(rt_part.env.backend.state_dict()))
        assert record["counters"] == rt_part.env.backend.counters_dict()

        rt_res = self._vector_synthesis_trainer(tmp_path)
        h_res = rt_res.run(resume=True)
        assert_histories_identical(h_full, h_res)
        assert rt_res.env.backend.stats() == rt_full.env.backend.stats()

    @pytest.mark.parametrize("where", ["records", "counters"])
    def test_two_backend_records_are_refused(self, tmp_path, where):
        """The retired per-replica-backend layout wrote a record per cache
        and a counter set per backend (format 1); a one-backend env resumes
        neither."""
        rt_part = self._vector_synthesis_trainer(tmp_path, stop_after=10)
        rt_part.run(24)
        state, manifest = rt_part.manager.load()
        state = as_format1(state)
        (record,) = state["caches"]
        if where == "records":
            state["caches"] = [record, record]
        else:
            record["counters"] = record["counters"] * 2
        save_format1(rt_part.manager, state, manifest["step"])

        with pytest.raises(CheckpointError, match="has 2 "):
            self._vector_synthesis_trainer(tmp_path).run(resume=True)

    def test_resume_through_multiple_preemptions(self, tmp_path):
        rt_full, _ = make_sync_trainer()
        h_full = rt_full.run(60)

        rt, _ = make_sync_trainer(tmp_path, stop_after=10)
        rt.run(60)
        for stop in (20, 40):
            rt, _ = make_sync_trainer(tmp_path, stop_after=stop)
            h = rt.run(resume=True)
            assert h.env_steps == stop
        rt, _ = make_sync_trainer(tmp_path)
        h_res = rt.run(resume=True)
        assert_histories_identical(h_full, h_res)

    def test_periodic_checkpoints_written(self, tmp_path):
        rt, _ = make_sync_trainer(tmp_path, checkpoint_every=20)
        rt.run(60)
        assert rt.manager.steps() == [20, 40, 60]

    def test_config_drift_rejected(self, tmp_path):
        rt, _ = make_sync_trainer(tmp_path, stop_after=10)
        rt.run(60)
        env = PrefixEnv(6, AnalyticalEvaluator(0.5, 0.5), horizon=12, rng=3)
        agent = ScalarizedDoubleDQN(6, 0.5, 0.5, blocks=0, channels=4, rng=3)
        drifted = TrainerConfig(batch_size=8, warmup_steps=8)
        rt2 = Trainer(env, agent, drifted, rng=3, checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError, match="drifted"):
            rt2.run(resume=True)

    def test_unknown_mode_rejected(self, tmp_path):
        rt, _ = make_sync_trainer(tmp_path, stop_after=10)
        rt.run(60)
        state, manifest = rt.manager.load()
        state = as_format1(state)
        state["mode"] = "bogus"
        save_format1(rt.manager, state, manifest["step"])
        with pytest.raises(CheckpointError, match="unknown mode 'bogus'"):
            make_sync_trainer(tmp_path)[0].run(resume=True)

    def test_retired_async_checkpoint_is_refused(self, tmp_path):
        """An async state as the retired thread-actor runtime wrote it,
        built by hand: ``loop`` of kind ``async`` with per-actor
        ``episode_returns``, ``env_kind`` ``actors``, ``actor_rngs``. The
        driver refuses it; the error names the mode and its successor."""
        from dataclasses import asdict

        from repro.env import VectorPrefixEnv
        from repro.utils.rng import ensure_rng, rng_state, spawn_rngs

        cfg = TrainerConfig(batch_size=4, warmup_steps=8)
        venvs = [
            VectorPrefixEnv([PrefixEnv(6, AnalyticalEvaluator(0.5, 0.5), horizon=12, rng=s)])
            for s in (0, 10)
        ]
        for venv in venvs:
            venv.reset()
        state = {
            "mode": "async",
            "total": 40,
            "trainer_config": asdict(cfg),
            "loop": {"kind": "async", "episode_returns": [[0.25], [-1.5]]},
            "history": EMPTY_HISTORY,
            "agent": ScalarizedDoubleDQN(6, 0.5, 0.5, blocks=0, channels=4, rng=3).state_dict(),
            "buffer": sharded_buffer_state(cfg.buffer_capacity),
            "caches": [],
            "env_kind": "actors",
            "env": {"actors": [venv.state_dict() for venv in venvs]},
            "actor_rngs": [rng_state(r) for r in spawn_rngs(ensure_rng(11), 2)],
        }
        save_format1(CheckpointManager(tmp_path), state, 0)

        runtime, _ = make_sync_trainer(tmp_path)
        with pytest.raises(CheckpointError, match="'async'.*repro train --envs"):
            runtime.run(resume=True)

    @pytest.mark.parametrize("layout", ["one-ring", "sharded"])
    def test_retired_cluster_checkpoint_is_refused(self, tmp_path, layout):
        """A state as the retired socket-fleet learner wrote it, built by
        hand: no environments (they lived in the actor processes), the
        shared cache as its one record, and its replay in either layout it
        ever used. The driver refuses it with a ``CheckpointError`` naming
        the mode and its successor, before restoring anything."""
        from dataclasses import asdict

        from repro.rl import ReplayBuffer
        from repro.store import make_store

        cfg = TrainerConfig(batch_size=4, warmup_steps=8)
        buffer = (
            ReplayBuffer(cfg.buffer_capacity, rng=5).state_dict()
            if layout == "one-ring"
            else sharded_buffer_state(cfg.buffer_capacity)
        )
        state = {
            "mode": "cluster",
            "total": 60,
            "trainer_config": asdict(cfg),
            "loop": {"kind": "cluster"},
            "history": EMPTY_HISTORY,
            "agent": ScalarizedDoubleDQN(6, 0.5, 0.5, blocks=0, channels=4, rng=9).state_dict(),
            "buffer": buffer,
            "caches": [{"cache": make_store().state_dict(), "counters": []}],
            "env_kind": "cluster",
            "env": {"num_actors": 2},
            "obs": {"metrics": {}, "fleet": {}},
        }
        save_format1(CheckpointManager(tmp_path), state, 0)
        runtime, _ = make_sync_trainer(tmp_path)
        before = runtime.agent.state_dict()["local"]
        with pytest.raises(CheckpointError, match="'cluster' socket-fleet learner.*repro train --envs"):
            runtime.run(resume=True)
        for key, value in runtime.agent.state_dict()["local"].items():
            np.testing.assert_array_equal(value, before[key])

    def test_resume_without_checkpoint_dir_fails(self):
        rt, _ = make_sync_trainer()
        with pytest.raises(ValueError, match="without a checkpoint_dir"):
            rt.run(resume=True)


class TestBackendCountersRideTheCheckpoint:
    """Every cumulative evaluation counter lives in the one backend's
    ``counters_dict()`` and rides the backend-group record."""

    def test_pre_unification_checkpoint_state_still_loads(self, tmp_path):
        """A state written before the backends merged carries a partial
        ``farm`` block and per-class counter records (LocalBackend wrote
        six keys): the block is ignored, the counters are restored."""
        from repro.cells import nangate45
        from repro.synth import SynthesisCache, SynthesisEvaluator

        library = nangate45()

        def evaluator():
            return SynthesisEvaluator(library, cache=SynthesisCache())

        rt_full, _ = make_sync_trainer(evaluator=evaluator())
        h_full = rt_full.run(30)

        rt_part, _ = make_sync_trainer(tmp_path, evaluator=evaluator(), stop_after=12)
        rt_part.run(30)
        state, manifest = rt_part.manager.load()
        state = as_format1(state)
        (group,) = state["caches"]
        (record,) = group["counters"]
        group["counters"] = [
            {
                key: record[key]
                for key in (
                    "batches", "designs", "unique_designs",
                    "cache_hits", "cache_misses", "synthesized",
                )
            }
        ]
        state["farm"] = {
            "total_batches": 7, "total_graphs": 7, "total_unique": 7,
            "total_cache_hits": 0, "total_dispatched": 7,
        }
        save_format1(rt_part.manager, state, manifest["step"])

        rt_res, _ = make_sync_trainer(tmp_path, evaluator=evaluator())
        h_res = rt_res.run(resume=True)
        assert_histories_identical(h_full, h_res)
        assert rt_res.env.backend.stats() == rt_full.env.backend.stats()

    def test_record_with_retired_lease_and_farm_counters_still_loads(self, tmp_path):
        """A counter record written while backends counted lease traffic
        (``lease_*``, ``wait_hits``, ``reclaimed_grants``) and remote-farm
        dispatch (``worker_*``, ``redispatched_tasks``, the prepared-design
        cache's two) loads: those keys are ignored, the rest are restored,
        and the run resumes to the uninterrupted run's bytes."""
        from repro.cells import nangate45
        from repro.store import make_store
        from repro.synth import SynthesisEvaluator
        from repro.synth.backend import COUNTER_KEYS, STATS_KEYS

        library = nangate45()

        def evaluator():
            return SynthesisEvaluator(library, cache=make_store())

        rt_full, _ = make_sync_trainer(evaluator=evaluator())
        h_full = rt_full.run(30)
        rt_part, _ = make_sync_trainer(tmp_path, evaluator=evaluator(), stop_after=12)
        rt_part.run(30)
        state, manifest = rt_part.manager.load()
        state = as_format1(state)
        (group,) = state["caches"]
        (record,) = group["counters"]
        assert set(record) == set(COUNTER_KEYS)
        record.update(
            lease_granted=4, lease_waited=2, wait_hits=1, reclaimed_grants=1,
            worker_setup_seconds=0.25, worker_opt_seconds=1.5, redispatched_tasks=3,
            prepared_hits=5, shipped_elided=3,
        )
        save_format1(rt_part.manager, state, manifest["step"])

        rt_res, env_res = make_sync_trainer(tmp_path, evaluator=evaluator())
        h_res = rt_res.run(resume=True)
        assert_histories_identical(h_full, h_res)
        assert rt_res.env.backend.stats() == rt_full.env.backend.stats()
        assert set(env_res.evaluator.backend.stats()) == set(STATS_KEYS)


def make_replica_trainer(checkpoint_dir=None, num_envs=1, synthesis=True, **knobs):
    """``repro train``'s shape, small: ``num_envs`` replicas over one
    archiving evaluator (synthesis or analytical)."""
    from repro.cells import nangate45
    from repro.env import VectorPrefixEnv
    from repro.pareto import ArchivingEvaluator
    from repro.synth import SynthesisCache, SynthesisEvaluator

    inner = SynthesisEvaluator(nangate45(), cache=SynthesisCache()) if synthesis else AnalyticalEvaluator(0.5, 0.5)
    venv = VectorPrefixEnv.make(6, ArchivingEvaluator(inner), num_envs, horizon=12, seed=3)
    agent = ScalarizedDoubleDQN(6, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=3)
    cfg = TrainerConfig(batch_size=4, warmup_steps=8)
    return Trainer(venv, agent, cfg, rng=3, checkpoint_dir=checkpoint_dir, **knobs)


SNAPSHOT_KEYS = {"total", "trainer_config", "loop", "history", "agent", "buffer", "backend", "env"}


class TestASnapshotHoldsOnlyItsRun:
    """A checkpoint is a function of its run: nothing process-global (an
    earlier run in the same interpreter, a metrics registry) reaches it."""

    @staticmethod
    def files(root):
        return {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()
        }

    @pytest.mark.parametrize("synthesis", [True, False], ids=["synthesis", "analytical"])
    @pytest.mark.parametrize("num_envs", [1, 2, 3])
    def test_two_runs_in_one_process_write_the_same_bytes(self, num_envs, synthesis, tmp_path):
        written = []
        for name in ("first", "second"):
            runtime = make_replica_trainer(tmp_path / name, num_envs, synthesis, checkpoint_every=8)
            runtime.run(24)
            written.append(self.files(tmp_path / name))
        assert len(written[0]) >= 3 * 3  # state.json, arrays.npz and manifest.json per kept snapshot
        assert written[0] == written[1]

    @pytest.mark.parametrize("num_envs", [1, 2, 4])
    def test_a_snapshot_holds_the_runtime_record_and_nothing_else(self, num_envs, tmp_path):
        runtime = make_replica_trainer(tmp_path, num_envs, stop_after=10)
        runtime.run(24)
        state, _ = runtime.manager.load()
        assert set(state) == SNAPSHOT_KEYS
        assert state["backend"]["counters"] == runtime.env.backend.counters_dict()

    @pytest.mark.parametrize(
        "obs",
        [
            {"metrics": {"counters": {"backend.batches": 10, "trainer.gradient_steps": 2}, "gauges": {},
                         "histograms": {}}},
            {"metrics": {"counters": {"backend.batches": 10**9, "trainer.gradient_steps": -4}}},
            {},
            None,
            "not a record",
        ],
        ids=["matching", "contradicting", "empty", "null", "string"],
    )
    def test_an_older_metrics_record_is_ignored(self, obs, tmp_path):
        """Releases that kept a process-global metrics registry wrote it
        under ``"obs"``: a resume reads past it, whatever it holds, and the
        run ends as the uninterrupted one does."""
        full = make_replica_trainer(num_envs=2)
        h_full = full.run(24)
        halted = make_replica_trainer(tmp_path, num_envs=2, stop_after=10)
        halted.run(24)
        state, manifest = halted.manager.load()
        state = as_format1(state)
        state["obs"] = obs
        save_format1(halted.manager, state, manifest["step"])

        resumed = make_replica_trainer(tmp_path, num_envs=2)
        h_res = resumed.run(resume=True)
        assert_histories_identical(h_full, h_res)
        assert resumed.env.backend.stats() == full.env.backend.stats()
        final, _ = resumed.manager.load()
        assert set(final) == SNAPSHOT_KEYS


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


class TestTheManifestDigestsBothPayloadFiles:
    """A manifest that does not digest exactly ``state.json`` and
    ``arrays.npz`` is refused, so no payload byte is read unverified."""

    @staticmethod
    def fixture_copy(tmp_path):
        root = tmp_path / "ckpt"
        shutil.copytree(FIXTURES / "pr22_train8_seed3", root)
        snap = root / "step-00000030"
        return CheckpointManager(root), snap, json.loads((snap / "manifest.json").read_text())

    @staticmethod
    def write_manifest(snap, manifest):
        (snap / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

    def test_without_files_an_edited_state_is_refused(self, tmp_path):
        mgr, snap, manifest = self.fixture_copy(tmp_path)
        del manifest["files"]
        self.write_manifest(snap, manifest)
        text = (snap / "state.json").read_text()
        assert '"total": 60' in text
        (snap / "state.json").write_text(text.replace('"total": 60', '"total": 61'))
        with pytest.raises(CheckpointError, match="must digest exactly arrays.npz and state.json"):
            mgr.load()

    def test_without_the_arrays_digest_a_flipped_byte_is_refused(self, tmp_path):
        mgr, snap, manifest = self.fixture_copy(tmp_path)
        del manifest["files"]["arrays.npz"]
        self.write_manifest(snap, manifest)
        blob = bytearray((snap / "arrays.npz").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (snap / "arrays.npz").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="must digest exactly"):
            mgr.load()

    def test_an_extra_file_is_refused(self, tmp_path):
        mgr, snap, manifest = self.fixture_copy(tmp_path)
        (snap / "notes.txt").write_text("hello")
        manifest["files"]["notes.txt"] = hashlib.sha256(b"hello").hexdigest()
        self.write_manifest(snap, manifest)
        with pytest.raises(CheckpointError, match="must digest exactly"):
            mgr.load()

    def test_an_unreadable_archive_with_a_matching_digest_is_a_checkpoint_error(self, tmp_path):
        """The payload read maps a broken zip to ``CheckpointError`` too."""
        mgr, snap, manifest = self.fixture_copy(tmp_path)
        (snap / "arrays.npz").write_bytes(b"not a zip archive")
        manifest["files"]["arrays.npz"] = hashlib.sha256(b"not a zip archive").hexdigest()
        self.write_manifest(snap, manifest)
        with pytest.raises(CheckpointError, match="payload is unreadable"):
            mgr.load()


class TestVersions:
    """The manifest's ``version`` is the one schema number: 2 is written,
    1 and 2 are read, and ``upgrade`` is what reads 1."""

    def test_a_new_snapshot_is_format_2(self, tmp_path):
        runtime = make_replica_trainer(tmp_path, 2, synthesis=False, stop_after=10)
        runtime.run(24)
        state, manifest = runtime.manager.load()
        assert manifest["version"] == FORMAT_VERSION == 2
        assert set(manifest) == {"format", "version", "step", "files"}
        assert upgrade(state, 2) is state

    @pytest.mark.parametrize("version", [0, 3, "2", 2.0, True, None])
    def test_other_versions_are_refused(self, version, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save({"v": 1}, step=3)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = version
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format version"):
            mgr.load()

    def test_upgrade_refuses_an_unknown_version(self):
        with pytest.raises(CheckpointError, match="no upgrade from checkpoint format version 7"):
            upgrade({}, 7)

    @pytest.mark.parametrize("fixture", ["pr15_train8_seed3", "pr22_train8_seed3"])
    def test_a_format_1_fixture_upgrades_to_the_format_2_layout(self, fixture):
        state, manifest = CheckpointManager(FIXTURES / fixture).load()
        assert manifest["version"] == 1 and {"mode", "env_kind", "caches", "obs"} <= set(state)
        new = upgrade(state, 1)
        assert set(new) == SNAPSHOT_KEYS
        assert len(new["env"]["envs"]) == len(new["loop"]["episode_returns"]) == 1
        assert set(new["backend"]["counters"]) == set(COUNTER_KEYS)
        assert new["backend"]["cache"] == state["caches"][0]["cache"]


def live_trainer(checkpoint_dir, evaluator="store", num_envs=2, **knobs):
    """``make_replica_trainer``'s shape over a stored, storeless or
    analytical evaluator."""
    from repro.cells import nangate45
    from repro.env import VectorPrefixEnv
    from repro.pareto import ArchivingEvaluator
    from repro.synth import EvaluationBackend, SynthesisCache, SynthesisEvaluator

    lib = nangate45()
    inner = {
        "store": lambda: SynthesisEvaluator(lib, cache=SynthesisCache()),
        "storeless": lambda: SynthesisEvaluator(lib, backend=EvaluationBackend(lib)),
        "analytical": lambda: AnalyticalEvaluator(0.5, 0.5),
    }[evaluator]()
    venv = VectorPrefixEnv.make(6, ArchivingEvaluator(inner), num_envs, horizon=12, seed=3)
    agent = ScalarizedDoubleDQN(6, 0.5, 0.5, blocks=0, channels=4, lr=1e-3, rng=3)
    cfg = TrainerConfig(batch_size=4, warmup_steps=8)
    return Trainer(venv, agent, cfg, rng=3, checkpoint_dir=checkpoint_dir, **knobs)


def run_fingerprint(runtime) -> "tuple[str, dict]":
    """Everything a resume could overwrite: agent, replay ring, env
    replicas and backend, as JSON text plus arrays."""
    backend = runtime.env.backend
    arrays = {}
    payload = _flatten(
        {
            "agent": runtime.agent.state_dict(),
            "buffer": runtime.buffer.state_dict(),
            "env": runtime.env.state_dict(),
            "backend": None if backend is None else backend.state_dict(),
        },
        "", arrays,
    )
    return json.dumps(payload, sort_keys=True), {key: arr.copy() for key, arr in arrays.items()}


def _f1(mutate):
    def apply(state):
        state = as_format1(state)
        mutate(state)
        return state, 1
    return apply


def _f2(mutate):
    def apply(state):
        mutate(state)
        return state, 2
    return apply


REFUSALS = {
    "async": (_f1(lambda s: s.update(mode="async")), "store", None, "'async' thread-actor"),
    "cluster": (_f1(lambda s: s.update(mode="cluster")), "store", None, "'cluster' socket-fleet"),
    "unknown-mode": (_f1(lambda s: s.update(mode="bogus")), "store", None, "unknown mode 'bogus'"),
    "two-backend-records": (_f1(lambda s: s.update(caches=s["caches"] * 2)), "store", None,
                            "has 2 evaluation-backend records"),
    "two-counter-sets": (_f1(lambda s: s["caches"][0].update(counters=s["caches"][0]["counters"] * 2)), "store", None,
                         "has 2 backend counter records"),
    "config-drift": (_f2(lambda s: s["trainer_config"].update(batch_size=8)), "store", None, "drifted"),
    "total": (_f2(lambda s: None), "store", 99, "targets 24 total steps"),
    "replica-count": (_f2(lambda s: s["env"].update(envs=s["env"]["envs"][:1])), "store", None,
                      "holds 1 env replicas, this run steps 2"),
    "backend-into-analytical": (_f2(lambda s: None), "analytical", None,
                                "has 1 evaluation-backend records, the live environment resolves through 0"),
    "no-backend-record": (_f2(lambda s: s.update(backend=None)), "store", None,
                          "has 0 evaluation-backend records, the live environment resolves through 1"),
    "unknown-counter": (_f2(lambda s: s["backend"]["counters"].update(bogus=1)), "store", None, r"counts \['bogus'\]"),
    "cache-into-storeless": (_f2(lambda s: None), "storeless", None, "has no local store"),
    "agent-width": (_f2(lambda s: s["agent"].update(n=7)), "store", None,
                    "agent is 7 bits wide, this run's is 6; resume with width 7"),
    "local-shape": (_f2(lambda s: s["agent"]["local"].update({"body.stages.0.weight": np.zeros((8, 4, 3, 3))})),
                    "store", None, r"local network does not fit this agent: body.stages.0.weight is \(8, 4, 3, 3\)"),
    "target-extra-array": (_f2(lambda s: s["agent"]["target"].update(extra=np.zeros(3))), "store", None,
                           r"target network does not fit this agent: extra is \(3,\) in the checkpoint, absent here"),
}


class TestARefusedResumeLeavesTheRunUntouched:
    """Every check runs before the first ``load_state_dict``: a refused
    resume leaves the live agent, replay ring, env replicas and backend as
    they were."""

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusal(self, case, tmp_path):
        mutate, evaluator, steps, match = REFUSALS[case]
        halted = live_trainer(tmp_path / "halted", stop_after=10)
        halted.run(24)
        state, version = mutate(halted.manager.load()[0])
        bad = CheckpointManager(tmp_path / "bad")
        if version == 1:
            save_format1(bad, state, 10)
        else:
            bad.save(state, step=10)

        live = live_trainer(tmp_path / "live", evaluator)
        live.run(24)
        before_text, before_arrays = run_fingerprint(live)
        before_len = len(live.buffer)
        live.manager = bad
        with pytest.raises(CheckpointError, match=match):
            live.run(steps=steps, resume=True)
        after_text, after_arrays = run_fingerprint(live)
        assert len(live.buffer) == before_len == 24
        assert after_text == before_text
        assert after_arrays.keys() == before_arrays.keys()
        for key, arr in before_arrays.items():
            np.testing.assert_array_equal(after_arrays[key], arr, err_msg=key)


def payload_fingerprint(state: dict, version: int) -> str:
    """A digest of a loaded snapshot: what a resume is a function of."""
    arrays = {}
    payload = _flatten(state, "", arrays)
    h = hashlib.sha256(json.dumps([version, payload], sort_keys=True).encode())
    for key in sorted(arrays):
        h.update(f"{key}{arrays[key].dtype.str}{arrays[key].shape}".encode())
        h.update(arrays[key].tobytes())
    return h.hexdigest()


def damaged(blob: bytes, offsets, every_bit: bool):
    """``blob`` truncated at each offset, and with a bit flipped there
    (every bit, or the offset's own bit position mod 8)."""
    for offset in offsets:
        yield blob[:offset]
        for bit in range(8) if every_bit else (offset % 8,):
            yield blob[:offset] + bytes([blob[offset] ^ (1 << bit)]) + blob[offset + 1:]


class TestFuzzedCheckpoints:
    """A truncated or bit-flipped snapshot file either loads and resumes to
    the undamaged run's end, or raises ``CheckpointError``; never any other
    exception. ``manifest.json`` is damaged at every byte (every bit),
    ``state.json`` and ``arrays.npz`` at a stride of ~150 offsets.

    A resume is a function of the loaded state and version, so every
    damaged copy that loads is resumed once per distinct loaded payload."""

    @staticmethod
    def fuzz(root: Path, resume_matches) -> "dict[str, int]":
        (snap,) = [p for p in root.iterdir() if p.name.startswith("step-")]
        outcomes = {"refused": 0, "resumed": 0}
        resumed: "dict[str, bool]" = {}
        for name in ("manifest.json", "state.json", "arrays.npz"):
            path = snap / name
            blob = path.read_bytes()
            stride = 1 if name == "manifest.json" else max(1, len(blob) // 150)
            for bad in damaged(blob, range(0, len(blob), stride), every_bit=name == "manifest.json"):
                path.write_bytes(bad)
                try:
                    state, manifest = CheckpointManager(root).load()
                except CheckpointError:
                    outcomes["refused"] += 1
                    continue
                finally:
                    damaged_copy = path.read_bytes()
                    path.write_bytes(blob)
                key = payload_fingerprint(state, manifest["version"])
                if key not in resumed:
                    work = root.parent / f"resume-{len(resumed)}"
                    shutil.copytree(root, work)
                    (work / snap.name / name).write_bytes(damaged_copy)
                    resumed[key] = resume_matches(work)
                    shutil.rmtree(work)
                assert resumed[key], f"{name} damaged to {len(damaged_copy)} bytes loads but resumes elsewhere"
                outcomes["resumed"] += 1
        assert len(resumed) == 1  # every copy that loads is the undamaged snapshot
        return outcomes

    def test_format_2(self, tmp_path):
        h_full = make_replica_trainer(num_envs=2, synthesis=False).run(24)
        make_replica_trainer(tmp_path / "ckpt", 2, synthesis=False, stop_after=10).run(24)

        def resume_matches(root):
            h = make_replica_trainer(root, 2, synthesis=False).run(resume=True)
            return (h.losses, h.episode_returns, h.areas, h.delays, h.epsilon_trace, h.env_steps) == (
                h_full.losses, h_full.episode_returns, h_full.areas, h_full.delays, h_full.epsilon_trace,
                h_full.env_steps,
            )

        outcomes = self.fuzz(tmp_path / "ckpt", resume_matches)
        assert outcomes["refused"] > 2000 and outcomes["resumed"] > 0

    def test_format_1_through_upgrade(self, tmp_path, capsys):
        from repro.cli import main

        fixture = FIXTURES / "pr22_train8_seed3"
        shutil.copytree(fixture, tmp_path / "ckpt")
        expected = (fixture / "uninterrupted.stdout").read_text()

        def resume_matches(root):
            capsys.readouterr()
            assert main(["train", "8", "--seed", "3", "--checkpoint-dir", str(root), "--resume"]) == 0
            return capsys.readouterr().out == expected

        outcomes = self.fuzz(tmp_path / "ckpt", resume_matches)
        assert outcomes["refused"] > 2000 and outcomes["resumed"] > 0
