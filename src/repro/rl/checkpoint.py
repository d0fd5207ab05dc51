"""Versioned on-disk checkpoints for training runs.

A checkpoint is a directory holding one immutable snapshot per saved step::

    <root>/
      LATEST                  # name of the newest complete snapshot
      step-00000040/
        manifest.json         # format/version, metadata, payload digests
        state.json            # nested structure (arrays replaced by refs)
        arrays.npz            # every numpy array, keyed by its path

Writers stage a snapshot in a hidden temp directory and publish it with one
atomic rename, then flip ``LATEST`` — a crash mid-save leaves only an
ignorable ``.tmp-*`` directory, never a half-written snapshot. Readers
verify the manifest's SHA-256 digests before deserializing anything, so a
truncated or bit-flipped payload fails loudly as :class:`CheckpointError`
instead of resuming from garbage.

The serialization scheme is a generic JSON/array split: any nested
dict/list structure of plain scalars and numpy arrays round-trips exactly
(arrays byte-for-byte via ``.npz``, Python ints at full precision — RNG
bit-generator states are 128-bit — and floats via JSON's shortest
round-trip repr). What *goes into* a training snapshot is assembled by
:class:`repro.rl.runtime.TrainingRuntime`; this module is only the format.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

FORMAT_NAME = "prefixrl-checkpoint"
FORMAT_VERSION = 1

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

    def save(self, state: dict, step: int, meta: "dict | None" = None) -> Path:
        """Publish ``state`` as the snapshot for ``step``; returns its path.

        ``meta`` lands in the manifest (small, JSON-only) so a resume can
        inspect run parameters without deserializing the payload.
        """
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
                "meta": meta or {},
                "files": {
                    "state.json": _sha256(tmp / "state.json"),
                    "arrays.npz": _sha256(tmp / "arrays.npz"),
                },
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

        ``step=None`` loads the latest. Raises :class:`CheckpointError`
        with a precise reason for every failure mode: nothing saved,
        missing files, digest mismatch, unknown format or newer version.
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
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{manifest_path} is unreadable: {exc}") from exc

        if manifest.get("format") != FORMAT_NAME:
            raise CheckpointError(
                f"{snap} is not a {FORMAT_NAME} checkpoint "
                f"(format={manifest.get('format')!r})"
            )
        version = manifest.get("version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{snap} uses checkpoint format version {version}; "
                f"this build reads version {FORMAT_VERSION}"
            )

        for name, digest in manifest.get("files", {}).items():
            path = snap / name
            if not path.is_file():
                raise CheckpointError(f"{snap} is incomplete: {name} is missing")
            actual = _sha256(path)
            if actual != digest:
                raise CheckpointError(
                    f"{path} is corrupted: sha256 {actual[:12]}... does not match "
                    f"the manifest's {digest[:12]}..."
                )

        try:
            with open(snap / "state.json") as fh:
                payload = json.load(fh)
            with np.load(snap / "arrays.npz") as data:
                arrays = {k: data[k] for k in data.files}
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
            raise CheckpointError(f"{snap} payload is unreadable: {exc}") from exc
        return _unflatten(payload, arrays), manifest
