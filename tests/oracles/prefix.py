"""Pure-Python reference implementations of the graph analytics.

This module preserves the seed's nested-loop implementations of the
:class:`repro.prefix.PrefixGraph` analytics and the legalization sweeps,
verbatim, as executable specifications. :class:`LoopAnalytics` mirrors the
seed's method structure (per-cell ``parents()`` scans) so that

- the property tests in ``tests/prefix/test_row_analytics.py`` can check
  the bit-row code is bit-identical to the old behavior, and
- ``benchmarks/bench_hotpath.py`` can measure the speedup against the code
  that actually shipped before, not a strawman.

Everything here operates on plain boolean nodelist grids so the oracles
stay independent of the optimized data structure.
"""

from __future__ import annotations

import numpy as np


class LoopAnalytics:
    """The seed ``PrefixGraph`` analytics, method-for-method.

    Wraps a legal nodelist grid and exposes ``levels`` / ``fanouts`` /
    ``minlist`` / ``children`` / ``validate`` with the original nested-loop
    bodies (including the per-call ``parents()`` row scans).
    """

    def __init__(self, grid: np.ndarray):
        self._grid = np.asarray(grid, dtype=bool)
        self._n = self._grid.shape[0]

    def nodes(self):
        ms, ls = np.nonzero(self._grid)
        return list(zip(ms.tolist(), ls.tolist()))

    def upper_parent(self, msb: int, lsb: int):
        if lsb >= msb:
            raise ValueError(f"input node ({msb},{lsb}) has no parents")
        row = self._grid[msb]
        for k in range(lsb + 1, msb + 1):
            if row[k]:
                return (msb, k)
        raise AssertionError(f"diagonal node ({msb},{msb}) missing — grid corrupt")

    def lower_parent(self, msb: int, lsb: int):
        _, k = self.upper_parent(msb, lsb)
        return (k - 1, lsb)

    def parents(self, msb: int, lsb: int):
        m, k = self.upper_parent(msb, lsb)
        return (m, k), (k - 1, lsb)

    def children(self, msb: int, lsb: int):
        out = []
        for node in self.nodes():
            if node[1] >= node[0]:
                continue
            up, lp = self.parents(*node)
            if up == (msb, lsb) or lp == (msb, lsb):
                out.append(node)
        return out

    def levels(self) -> np.ndarray:
        n = self._n
        lv = np.full((n, n), -1, dtype=np.int32)
        grid = self._grid
        for m in range(n):
            lv[m, m] = 0
            for l in range(m - 1, -1, -1):
                if not grid[m, l]:
                    continue
                (um, uk), (lm, ll) = self.parents(m, l)
                lv[m, l] = 1 + max(int(lv[um, uk]), int(lv[lm, ll]))
        return lv

    def fanouts(self) -> np.ndarray:
        n = self._n
        fo = np.zeros((n, n), dtype=np.int32)
        grid = self._grid
        for m in range(n):
            for l in range(m - 1, -1, -1):
                if not grid[m, l]:
                    continue
                (um, uk), (lm, ll) = self.parents(m, l)
                fo[um, uk] += 1
                fo[lm, ll] += 1
        return fo

    def minlist(self) -> np.ndarray:
        return derive_minlist_loop(self._grid)

    def validate(self) -> None:
        n, grid = self._n, self._grid
        if not grid[np.arange(n), np.arange(n)].all():
            raise ValueError("missing input node(s) on the diagonal")
        if not grid[:, 0].all():
            raise ValueError("missing output node(s) in column 0")
        if np.triu(grid, k=1).any():
            raise ValueError("node(s) above the diagonal (lsb > msb)")
        for m in range(n):
            for l in range(m - 1, -1, -1):
                if not grid[m, l]:
                    continue
                lm, ll = self.lower_parent(m, l)
                if not grid[lm, ll]:
                    raise ValueError(
                        f"node ({m},{l}) has missing lower parent ({lm},{ll})"
                    )


def _upper_parent_lsb_loop(row: np.ndarray, msb: int, lsb: int) -> int:
    """LSB of the upper parent of ``(msb, lsb)`` given row occupancy."""
    for k in range(lsb + 1, msb + 1):
        if row[k]:
            return k
    raise AssertionError(f"diagonal node ({msb},{msb}) missing from row")


def derive_minlist_loop(grid: np.ndarray) -> np.ndarray:
    """Interior nodes that are not lower parents (seed loops)."""
    grid = np.asarray(grid, dtype=bool)
    n = grid.shape[0]
    is_lower_parent = np.zeros((n, n), dtype=bool)
    for m in range(n):
        row = grid[m]
        for l in range(m - 1, -1, -1):
            if not row[l]:
                continue
            k = _upper_parent_lsb_loop(row, m, l)
            is_lower_parent[k - 1, l] = True
    interior = np.array(grid)
    idx = np.arange(n)
    interior[idx, idx] = False
    interior[:, 0] = False
    return interior & ~is_lower_parent


def legalize_minlist_loop(min_grid: np.ndarray) -> np.ndarray:
    """Rebuild a legal nodelist from a minlist grid (seed nested sweep)."""
    min_grid = np.asarray(min_grid, dtype=bool)
    n = min_grid.shape[0]
    grid = np.array(min_grid)
    idx = np.arange(n)
    grid[idx, idx] = True
    grid[idx, 0] = True
    grid &= ~np.triu(np.ones((n, n), dtype=bool), k=1)
    for m in range(n - 1, -1, -1):
        row = grid[m]
        for l in range(m - 1, -1, -1):
            if not row[l]:
                continue
            k = _upper_parent_lsb_loop(row, m, l)
            grid[k - 1, l] = True
    return grid


def graph_features_loop(grid: np.ndarray) -> np.ndarray:
    """The 4-plane feature tensor computed entirely from the loop oracles."""
    ana = LoopAnalytics(grid)
    n = grid.shape[0]
    denom = max(n - 1, 1)
    features = np.zeros((4, n, n), dtype=np.float64)
    features[0] = grid.astype(np.float64)
    features[1] = ana.minlist().astype(np.float64)
    levels = ana.levels().astype(np.float64)
    levels[levels < 0] = 0.0
    features[2] = levels / denom
    features[3] = ana.fanouts().astype(np.float64) / denom
    return features
