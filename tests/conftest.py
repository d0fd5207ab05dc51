"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import multiprocessing

import numpy as np
import pytest

from repro.prefix import PrefixGraph, ripple_carry


@pytest.fixture(scope="session", autouse=True)
def no_process_outlives_the_suite():
    """Every worker process a test started (a farm's pool, a backend's
    prefetch worker) has ended by the end of the session: closed, or
    collected with what owned it."""
    yield
    gc.collect()
    left = multiprocessing.active_children()
    assert not left, f"{len(left)} child processes outlived the test suite: {left}"


@pytest.fixture
def rng():
    """Deterministic generator for tests that need randomness."""
    return np.random.default_rng(12345)


def random_walk_graph(
    n: int, steps: int, rng: np.random.Generator, start: "PrefixGraph | None" = None
) -> PrefixGraph:
    """Produce a random legal graph by a random add/delete walk from ``start`` (ripple)."""
    g = ripple_carry(n) if start is None else start
    for _ in range(steps):
        actions = [("add", m, l) for m in range(n) for l in range(1, m) if g.can_add(m, l)]
        actions += [("del", m, l) for m in range(n) for l in range(1, m) if g.can_delete(m, l)]
        if not actions:
            break
        kind, m, l = actions[int(rng.integers(len(actions)))]
        g = g.add_node(m, l) if kind == "add" else g.delete_node(m, l)
    return g
