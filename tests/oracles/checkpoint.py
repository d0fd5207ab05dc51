"""Format 1 of the training checkpoint, as the runtime wrote it before format 2.

Tests that build a format-1 state (by hand, or from a format-2 one with
:func:`as_format1`) save it with :func:`save_format1`, so it reaches a
resume the way an old snapshot does: through
``repro.rl.checkpoint.upgrade``.
"""

from __future__ import annotations

import json


def as_format1(state: dict) -> dict:
    """A format-2 training state in format 1's layout: the constant
    ``mode`` and ``env_kind``, a loop ``kind``, and the backend as a
    ``caches`` list of 0 or 1 records, each with a list of one counter dict."""
    backend = state["backend"]
    old = {key: value for key, value in state.items() if key != "backend"}
    old.update(
        mode="sync",
        env_kind="vector",
        loop={"kind": "vector", **state["loop"]},
        caches=[] if backend is None else [{"cache": backend["cache"], "counters": [backend["counters"]]}],
    )
    return old


def save_format1(manager, state: dict, step: int):
    """Publish ``state`` (in format 1's layout) as a manifest-version-1
    snapshot under ``manager``; returns its path."""
    path = manager.save(state, step=step)
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(version=1, meta={})
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path
