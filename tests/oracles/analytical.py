"""Reference analytical-delay evaluation (preserved oracle).

This is the whole-grid fixpoint-relaxation implementation of
:func:`repro.analytical.model.analytical_delay` as it shipped before the
topological one-pass sweeps replaced it: ``depth(graph) + 1`` numpy
relaxation sweeps over every non-input node, with upper parents from a
suffix-min scan of the grid. The module owns its algorithms — it imports
nothing from the program but :class:`PrefixGraph` — and is the
bit-identity oracle for the production path, which performs the *same*
per-node operation ``delay + max(arrival[upper], arrival[lower])`` exactly
once per node, so the two must agree to the last bit on every graph
(``tests/test_analytical.py`` property-tests this on randomized and deep
ripple graphs).

Do not optimize this module; its value is staying unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.prefix.graph import PrefixGraph

FANOUT_DELAY_FACTOR = 0.5
BASE_NODE_DELAY = 1.0


def relax_max_plus(
    values: np.ndarray,
    ms: np.ndarray,
    ls: np.ndarray,
    ups: np.ndarray,
    weights,
    max_sweeps: "int | None" = None,
) -> bool:
    """In-place max-plus longest-path fixpoint over a prefix-graph grid.

    For every non-input cell ``(ms, ls)`` with upper-parent LSB ``ups``,
    iterates ``value = weight + max(value[upper], value[lower])`` until
    stable. Values only increase toward the fixpoint and every node of
    true depth <= k is settled after ``k`` sweeps, so the loop runs
    depth(graph) + 1 times with whole-array gathers per sweep. Used for
    node levels (weight 1) and fanout-loaded arrival times (per-node
    delays); ``values`` must be C-contiguous with parents pre-seeded
    (diagonal) and is modified in place.

    ``max_sweeps`` bounds the sweep count; the return value reports
    whether the fixpoint was reached.
    """
    n = values.shape[0]
    flat = values.ravel()
    own = ms * n + ls
    iup = ms * n + ups
    ilo = (ups - 1) * n + ls
    cur = flat[own]
    sweeps = 0
    while True:
        new = weights + np.maximum(flat[iup], flat[ilo])
        if np.array_equal(new, cur):
            return True
        cur = new
        flat[own] = new
        sweeps += 1
        if max_sweeps is not None and sweeps >= max_sweeps:
            return False


def upper_parent_map(grid: np.ndarray) -> np.ndarray:
    """Per-cell LSB of the nearest occupied column strictly above, as int32.

    ``up[m, l]`` is the smallest ``k > l`` with ``grid[m, k]`` — the upper
    parent LSB of any (present or hypothetical) node at ``(m, l)`` — or
    ``n`` when no such column exists. One suffix-scan over columns.
    """
    grid = np.asarray(grid, dtype=bool)
    n = grid.shape[0]
    col = np.arange(n, dtype=np.int32)
    cand = np.where(grid, col, np.int32(n))
    suffix_min = np.minimum.accumulate(cand[:, ::-1], axis=1)[:, ::-1]
    up = np.full((n, n), n, dtype=np.int32)
    if n > 1:
        up[:, :-1] = suffix_min[:, 1:]
    return up


def _node_delays(graph: PrefixGraph) -> np.ndarray:
    fanouts = graph.fanouts()
    delays = BASE_NODE_DELAY + FANOUT_DELAY_FACTOR * fanouts.astype(np.float64)
    delays[~graph.grid] = 0.0
    return delays


def analytical_delay_reference(graph: PrefixGraph) -> float:
    """Worst accumulated node-delay path into any output node.

    Computed by whole-grid fixpoint relaxation (depth(graph) + 1 numpy
    sweeps instead of a Python visit per cell): arrivals only ever increase
    toward the longest-path fixpoint, and every node of depth <= k is
    settled after ``k`` sweeps.
    """
    n = graph.n
    delays = _node_delays(graph)
    arrival = np.zeros((n, n), dtype=np.float64)
    idx = np.arange(n)
    arrival[idx, idx] = delays[idx, idx]
    ms, ls = np.nonzero(np.tril(graph.grid, k=-1))
    if ms.size:
        ups = upper_parent_map(graph.grid)[ms, ls]
        relax_max_plus(arrival, ms, ls, ups, delays[ms, ls])
    return float(arrival[:, 0].max())
