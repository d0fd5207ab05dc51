"""Versioned on-disk checkpoints for training runs.

A checkpoint is a directory holding one immutable snapshot per saved step::

    <root>/
      LATEST                  # name of the newest complete snapshot
      step-00000040/
        manifest.json         # format, version, step, payload digests
        state.json            # nested structure (arrays replaced by refs)
        arrays.npz            # every numpy array, keyed by its path

Writers stage a snapshot in a hidden temp directory and publish it with one
atomic rename, then flip ``LATEST`` — a crash mid-save leaves only an
ignorable ``.tmp-*`` directory, never a half-written snapshot. Readers
verify the manifest's SHA-256 digests of both payload files before
deserializing anything, so a truncated or bit-flipped payload fails loudly
as :class:`CheckpointError` instead of resuming from garbage.

:class:`CheckpointManager` is that file format: a generic JSON/array split
in which nested dicts/lists of scalars and numpy arrays round-trip exactly
(arrays byte-for-byte via ``.npz``, Python ints at full precision — RNG
bit-generator states are 128-bit — and floats via JSON's shortest
round-trip repr). A training snapshot is format 2 (the manifest's
``version``), ``{total, trainer_config, loop, history, agent, buffer,
backend, env}``, written by :func:`snapshot` and read by :func:`restore`;
:func:`upgrade` is the one reader of format 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.rl.trainer import CollectionLoop, TrainingHistory, make_loop
from repro.synth.backend import COUNTER_KEYS

FORMAT_NAME = "prefixrl-checkpoint"
FORMAT_VERSION = 2
READABLE_VERSIONS = (1, FORMAT_VERSION)
_PAYLOAD = ("arrays.npz", "state.json")

_STEP_PREFIX = "step-"
_ARRAY_REF = "__ndarray__"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, incomplete, corrupted or incompatible."""


# ----------------------------------------------------------------------
# JSON / array split
# ----------------------------------------------------------------------


def _flatten(obj, path: str, arrays: "dict[str, np.ndarray]"):
    """Replace every numpy array in ``obj`` with a ref into ``arrays``."""
    if isinstance(obj, np.ndarray):
        key = f"{path}#{len(arrays)}"
        arrays[key] = obj
        return {_ARRAY_REF: key}
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"checkpoint dict keys must be str, got {k!r} at {path}")
            if k == _ARRAY_REF:
                raise TypeError(f"reserved key {_ARRAY_REF!r} in checkpoint state at {path}")
            out[k] = _flatten(v, f"{path}/{k}", arrays)
        return out
    if isinstance(obj, (list, tuple)):
        return [_flatten(v, f"{path}[{i}]", arrays) for i, v in enumerate(obj)]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot checkpoint object of type {type(obj).__name__} at {path}"
    )


def _unflatten(obj, arrays: "dict[str, np.ndarray]"):
    """Inverse of :func:`_flatten`."""
    if isinstance(obj, dict):
        if set(obj) == {_ARRAY_REF}:
            key = obj[_ARRAY_REF]
            if key not in arrays:
                raise CheckpointError(f"state references missing array {key!r}")
            return arrays[key]
        return {k: _unflatten(v, arrays) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_unflatten(v, arrays) for v in obj]
    return obj


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Manager
# ----------------------------------------------------------------------


class CheckpointManager:
    """Reads and writes snapshot directories under one checkpoint root.

    Args:
        directory: checkpoint root (created on first save).
        keep_last: completed snapshots to retain; older ones are pruned
            after each successful save (0 or None keeps everything).
    """

    def __init__(self, directory, keep_last: "int | None" = 3):
        if keep_last is not None and keep_last < 0:
            raise ValueError("keep_last must be nonnegative or None")
        self.root = Path(directory)
        self.keep_last = keep_last

    # -- write -----------------------------------------------------------

    def save(self, state: dict, step: int) -> Path:
        """Publish ``state`` as the snapshot for ``step``; returns its path."""
        if step < 0:
            raise ValueError("step must be nonnegative")
        self.root.mkdir(parents=True, exist_ok=True)
        name = f"{_STEP_PREFIX}{step:08d}"
        tmp = self.root / f".tmp-{name}-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        try:
            arrays: "dict[str, np.ndarray]" = {}
            payload = _flatten(state, "", arrays)
            np.savez_compressed(tmp / "arrays.npz", **arrays)
            with open(tmp / "state.json", "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            manifest = {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "step": step,
                "files": {name: _sha256(tmp / name) for name in _PAYLOAD},
            }
            with open(tmp / "manifest.json", "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
            final = self.root / name
            if final.exists():
                shutil.rmtree(final)
            os.replace(tmp, final)
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        latest_tmp = self.root / "LATEST.tmp"
        latest_tmp.write_text(name + "\n")
        os.replace(latest_tmp, self.root / "LATEST")
        self.prune()
        return final

    def prune(self) -> None:
        """Delete snapshots beyond ``keep_last`` (never the newest)."""
        if not self.keep_last:
            return
        steps = self.steps()
        for step in steps[: -self.keep_last]:
            shutil.rmtree(self.root / f"{_STEP_PREFIX}{step:08d}", ignore_errors=True)

    # -- read ------------------------------------------------------------

    def steps(self) -> "list[int]":
        """Completed snapshot steps, ascending."""
        if not self.root.is_dir():
            return []
        out = []
        for entry in self.root.iterdir():
            if entry.is_dir() and entry.name.startswith(_STEP_PREFIX):
                try:
                    out.append(int(entry.name[len(_STEP_PREFIX):]))
                except ValueError:
                    continue
        return sorted(out)

    def latest_step(self) -> "int | None":
        """The step named by ``LATEST`` (or the newest directory), if any."""
        latest = self.root / "LATEST"
        if latest.is_file():
            name = latest.read_text().strip()
            if name.startswith(_STEP_PREFIX):
                try:
                    step = int(name[len(_STEP_PREFIX):])
                except ValueError:
                    step = None
                if step is not None and (self.root / name).is_dir():
                    return step
        steps = self.steps()
        return steps[-1] if steps else None

    def load(self, step: "int | None" = None) -> "tuple[dict, dict]":
        """Load a snapshot; returns ``(state, manifest)``.

        ``step=None`` loads the latest; ``state`` is in the layout of the
        manifest's ``version``. Raises :class:`CheckpointError` with a
        precise reason for every failure mode: nothing saved, missing
        files, digest mismatch, unknown format or version.
        """
        if step is None:
            step = self.latest_step()
            if step is None:
                raise CheckpointError(f"no checkpoint found under {self.root}")
        snap = self.root / f"{_STEP_PREFIX}{step:08d}"
        if not snap.is_dir():
            raise CheckpointError(f"checkpoint step {step} not found under {self.root}")

        manifest_path = snap / "manifest.json"
        if not manifest_path.is_file():
            raise CheckpointError(
                f"{snap} is incomplete: manifest.json is missing "
                "(interrupted save? delete the directory)"
            )
        try:
            with open(manifest_path, "rb") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"{manifest_path} is unreadable: {exc}") from exc
        fmt = manifest.get("format") if isinstance(manifest, dict) else None
        if fmt != FORMAT_NAME:
            raise CheckpointError(f"{snap} is not a {FORMAT_NAME} checkpoint (format={fmt!r})")
        version = manifest.get("version")
        if type(version) is not int or version not in READABLE_VERSIONS:
            raise CheckpointError(
                f"{snap} uses checkpoint format version {version}; "
                f"this build reads versions {', '.join(map(str, READABLE_VERSIONS))}"
            )

        files = manifest.get("files")
        if not isinstance(files, dict) or sorted(files) != sorted(_PAYLOAD):
            raise CheckpointError(f"{manifest_path} must digest exactly {' and '.join(_PAYLOAD)}")
        for name, digest in files.items():
            path = snap / name
            if not path.is_file():
                raise CheckpointError(f"{snap} is incomplete: {name} is missing")
            actual = _sha256(path)
            if actual != digest:
                raise CheckpointError(
                    f"{path} is corrupted: sha256 {actual[:12]}... does not match "
                    f"the manifest's {str(digest)[:12]}..."
                )

        try:
            with open(snap / "state.json", "rb") as fh:
                payload = json.load(fh)
            with np.load(snap / "arrays.npz") as data:
                arrays = {k: data[k] for k in data.files}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{snap} payload is unreadable: {exc}") from exc
        return _unflatten(payload, arrays), manifest


# ----------------------------------------------------------------------
# The training snapshot: one writer, one reader, one upgrade
# ----------------------------------------------------------------------


def snapshot(loop: CollectionLoop) -> dict:
    """The format-2 state of the run ``loop`` steps, taken between ticks."""
    backend = loop.env.backend
    history = asdict(loop.history)
    del history["synthesis_stats"]  # the backend's stats(), rebuilt from its record
    return {
        "total": loop.total,
        "trainer_config": asdict(loop.config),
        "loop": loop.state_dict(),
        "history": history,
        "agent": loop.agent.state_dict(),
        "buffer": loop.buffer.state_dict(),
        "backend": None if backend is None else backend.state_dict(),
        "env": loop.env.state_dict(),
    }


def restore(state: dict, version: int, env, agent, buffer, config, steps: "int | None" = None) -> CollectionLoop:
    """Load a snapshot of manifest ``version`` into the live ``env`` (a
    :class:`~repro.env.VectorPrefixEnv`), ``agent`` and ``buffer``; returns
    the loop that continues the run. Every refusal is a
    :class:`CheckpointError` raised before anything is loaded."""
    state = upgrade(state, version)
    saved_cfg, live_cfg = state["trainer_config"], asdict(config)
    drift = {k: (saved_cfg.get(k), v) for k, v in live_cfg.items() if k != "steps" and saved_cfg.get(k) != v}
    if drift:
        raise CheckpointError(
            "trainer config drifted since the checkpoint (resuming would "
            f"silently change the trajectory): {drift}"
        )
    total = int(state["total"])
    if steps is not None and steps != total:
        raise CheckpointError(
            f"checkpoint targets {total} total steps; pass steps={total} "
            f"(or None) to resume, got {steps}"
        )
    saved, live = len(state["env"]["envs"]), env.num_envs
    if saved != live:
        raise CheckpointError(
            f"checkpoint holds {saved} env replicas, this run steps {live}; "
            f"resume with --envs {saved}"
        )
    record, backend = state["backend"], env.backend
    if (record is None) != (backend is None):
        raise CheckpointError(
            f"checkpoint has {int(record is not None)} evaluation-backend records, "
            f"the live environment resolves through {int(backend is not None)}"
        )
    if record is not None:
        unknown = sorted(set(record["counters"]) - set(COUNTER_KEYS))
        if unknown:
            raise CheckpointError(f"checkpoint's backend record counts {unknown}, which no backend counts")
        if record["cache"] is not None and backend.store is None:
            raise CheckpointError(
                f"checkpoint carries cache contents for a backend ({backend.name}) that has no local store"
            )

    saved_agent = state["agent"]
    if int(saved_agent["n"]) != agent.n:
        raise CheckpointError(
            f"checkpoint's agent is {saved_agent['n']} bits wide, this run's is {agent.n}; "
            f"resume with width {saved_agent['n']}"
        )
    for net in ("local", "target"):
        saved = {k: np.shape(v) for k, v in saved_agent[net].items()}
        live = {k: v.shape for k, v in getattr(agent, net).state_arrays().items()}
        if saved != live:
            key = min(k for k in saved.keys() | live.keys() if saved.get(k) != live.get(k))
            raise CheckpointError(
                f"checkpoint's {net} network does not fit this agent: {key} is {saved.get(key, 'absent')} in "
                f"the checkpoint, {live.get(key, 'absent')} here; resume with the checkpoint's --blocks and --channels"
            )

    loop = make_loop(env, agent, buffer, config, total, config.schedule(total), TrainingHistory(**state["history"]))
    loop.load_state_dict(state["loop"])
    agent.load_state_dict(state["agent"])
    buffer.load_state_dict(state["buffer"])
    if backend is not None:
        backend.load_state_dict(record)
    env.load_state_dict(state["env"])
    loop.resume()
    return loop


# Format 1 named the runtime that wrote it; only "sync" (today's one
# runtime) can be resumed.
_RETIRED_MODES = {
    "async": "the retired 'async' thread-actor runtime",
    "cluster": "the retired 'cluster' socket-fleet learner, whose environments lived in actor processes",
}
# Counter keys format-1 backends kept for the lease service and the
# remote synthesis farm, both gone.
_RETIRED_COUNTER_PREFIXES = ("lease_", "worker_", "prepared_")
_RETIRED_COUNTERS = {"wait_hits", "reclaimed_grants", "redispatched_tasks", "shipped_elided"}
_LAYOUT = ("total", "trainer_config", "loop", "history", "agent", "buffer", "backend", "env")


def upgrade(state: dict, version: int) -> dict:
    """``state`` in the format-2 layout, from any readable ``version``.

    Format 1 named its runtime in ``mode`` (the retired ``async`` and
    ``cluster`` ones are refused by name), saved a one-env run bare
    (``env_kind`` / loop ``kind`` ``single``), kept its backend as a list
    of 0 or 1 records with a list of one counter dict each (which may
    carry retired keys), and may carry a retired ``obs`` metrics record.
    """
    if version == FORMAT_VERSION:
        return state
    if version != 1:
        raise CheckpointError(f"no upgrade from checkpoint format version {version}")
    mode = state.get("mode")
    if mode in _RETIRED_MODES:
        raise CheckpointError(
            f"checkpoint was taken by {_RETIRED_MODES[mode]}, which cannot be resumed; "
            "multi-replica training is `repro train --envs`"
        )
    if mode != "sync":
        raise CheckpointError(f"checkpoint was taken in unknown mode {mode!r}")
    state = dict(state)
    if state.get("env_kind") == "single":
        state["env"] = {"envs": [state["env"]]}
    if "loop" in state:
        loop, kind = state["loop"], state["loop"].get("kind")
        if kind not in ("single", "vector"):
            raise CheckpointError(f"loop state is {kind!r}, expected 'vector'")
        state["loop"] = {"episode_returns": [loop["episode_return"]] if kind == "single" else loop["episode_returns"]}
    if "caches" in state:
        state["backend"] = _upgrade_caches(state["caches"])
    return {key: state[key] for key in _LAYOUT if key in state}  # drops obs and the rest


def _upgrade_caches(caches: list) -> "dict | None":
    if len(caches) > 1:
        raise CheckpointError(f"checkpoint has {len(caches)} evaluation-backend records, a run resolves through one")
    if not caches:
        return None
    counters = caches[0].get("counters") or []
    if len(counters) != 1:
        raise CheckpointError(f"checkpoint has {len(counters)} backend counter records, expected 1")
    return {
        "cache": caches[0].get("cache"),
        "counters": {
            key: value for key, value in counters[0].items()
            if key not in _RETIRED_COUNTERS and not key.startswith(_RETIRED_COUNTER_PREFIXES)
        },
    }
