"""Deterministic random-number plumbing.

Every stochastic component in the library (environment resets, epsilon-greedy
exploration, replay sampling, weight initialization, simulated annealing)
accepts either an integer seed or an explicit :class:`numpy.random.Generator`.
This module provides the two conversion helpers used everywhere.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(rng: "int | np.random.Generator | None") -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    ``None`` yields a fixed default seed (0) rather than entropy from the OS:
    reproducibility by default is the right trade for a research library whose
    results are compared against published figures.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng(0)
    return np.random.default_rng(int(rng))


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a generator's exact stream position.

    The returned dict is ``rng.bit_generator.state`` (bit-generator name
    plus integer state words); feeding it back through
    :func:`set_rng_state` resumes the stream at precisely the next draw,
    which is what checkpoint/resume needs for bit-identical training.
    """
    return rng.bit_generator.state


def set_rng_state(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """Restore a generator to a snapshot taken with :func:`rng_state`."""
    expected = type(rng.bit_generator).__name__
    name = state.get("bit_generator") if isinstance(state, dict) else None
    if name != expected:
        raise ValueError(
            f"RNG state is for bit generator {name!r}, "
            f"but the live generator uses {expected!r}"
        )
    rng.bit_generator.state = state
    return rng


def spawn_rngs(rng: "int | np.random.Generator | None", count: int) -> list:
    """Split ``rng`` into ``count`` independent child generators.

    Used by the distributed trainer so each synthesis worker explores with an
    independent, reproducible stream.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
