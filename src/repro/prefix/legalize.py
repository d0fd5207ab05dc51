"""Legalization (Algorithm 1 of the paper) and analysis over bit rows.

A graph's *rows* are one Python int per MSB: bit ``l`` of ``rows[m]`` is
node ``(m, l)``. Every analytic is a walk over set bits, so the work is
proportional to the node count, not to the ``N x N`` grid:

- :func:`legalize_rows` / :func:`walk_rows` — the library's canonical
  semantics: the nodelist is rebuilt from minlist rows in a single
  (descending MSB, descending LSB) sweep, and the minlist is *derived* from
  the nodelist as "interior nodes that are not lower parents".
  :func:`legalize_minlist` / :func:`derive_minlist` are grid-in/grid-out
  wrappers over the same row code.
- :class:`Algorithm1State` — a literal transcription of the paper's
  Algorithm 1 with its persistent, incrementally-maintained minlist.

The two agree exactly for any *single* action applied to a fresh state
(property-tested), but can diverge over multi-action sequences: Algorithm 1's
incremental minlist retains a node whose lower-parent role was orphaned by a
later add, whereas the derived minlist (the paper's prose definition,
Section IV-A: "nodes that are not lower parents of other nodes")
garbage-collects it. Since the paper defines the state space as "all legal
N-input prefix graphs" — the graph alone, not (graph, bookkeeping) pairs —
the derived semantics is the faithful MDP and is what the environment uses.
"""

from __future__ import annotations

import numpy as np


def rows_from_grid(grid: np.ndarray) -> "tuple[int, ...]":
    """The bit rows of a boolean ``N x N`` grid (one ``packbits`` call)."""
    n = grid.shape[0]
    packed = np.packbits(grid, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, n * width, width))


def grid_from_rows(rows) -> np.ndarray:
    """The boolean ``N x N`` grid of ``N`` bit rows (a new, writable array)."""
    n = len(rows)
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def legalize_rows(min_rows) -> "tuple[int, ...]":
    """Rebuild legal nodelist rows from minlist rows (Algorithm 1's ``Legalize``).

    Start from the minlist plus all input/output nodes, then sweep rows from
    MSB ``N-1`` down: within a row, nodes are visited by descending LSB, so
    each node's upper parent is the previously visited bit, and its lower
    parent's bit is ORed into row ``k - 1``. That row is strictly lower and
    visited later, so each row is settled by the time it is scanned. Output
    nodes are skipped: their lower parents sit in column 0, always present.
    """
    rows = [(r & ((1 << m) - 1)) | (1 << m) | 1 for m, r in enumerate(min_rows)]
    for m in range(len(rows) - 1, 1, -1):
        rest = rows[m] & ((1 << m) - 2)
        k = m
        while rest:
            l = rest.bit_length() - 1
            rest ^= 1 << l
            rows[k - 1] |= 1 << l
            k = l
    return tuple(rows)


def walk_rows(rows) -> "tuple[np.ndarray, tuple[int, ...]]":
    """One topological pass over a graph's bit rows.

    Visits every non-input node in MSB-ascending, LSB-descending order — a
    topological order, since the upper parent ``(m, k)`` is the previously
    visited bit of the same row and the lower parent ``(k - 1, l)`` lies in
    an earlier row. Returns ``(table, minlist_rows)``:

    - ``table`` — ``(C, 4)`` int32, one row per node in visiting order:
      the flat cell indices (``msb * N + lsb``) of the node, its upper
      parent and its lower parent, then the node's level
      (``1 + max`` of its parents' levels; inputs are level 0);
    - ``minlist_rows`` — the interior nodes that are no node's lower parent.

    The walk reads the rows as given; on an illegal grid a missing lower
    parent shows up as a table entry naming an absent cell.
    """
    n = len(rows)
    level = [0] * (n * n)
    lower = [0] * n
    flat: "list[int]" = []
    for m in range(1, n):
        rest = rows[m] & ((1 << m) - 1)
        k, base = m, m * n
        while rest:
            l = rest.bit_length() - 1
            rest ^= 1 << l
            node, up, lo = base + l, base + k, (k - 1) * n + l
            a, b = level[up], level[lo]
            level[node] = depth = (a if a > b else b) + 1
            flat += (node, up, lo, depth)
            lower[k - 1] |= 1 << l
            k = l
    table = np.array(flat, dtype=np.int32).reshape(-1, 4)
    minlist = tuple(r & ~lp & ((1 << m) - 1) & ~1 for m, (r, lp) in enumerate(zip(rows, lower)))
    return table, minlist


def legalize_minlist(min_grid: np.ndarray) -> np.ndarray:
    """Rebuild a legal nodelist grid from a minlist grid (see :func:`legalize_rows`)."""
    return grid_from_rows(legalize_rows(rows_from_grid(np.asarray(min_grid, dtype=bool))))


def derive_minlist(grid: np.ndarray) -> np.ndarray:
    """Interior nodes of ``grid`` that are not the lower parent of any node.

    This is the paper's prose definition of ``minlist`` (Section IV-A):
    exactly the nodes whose deletion legalization cannot undo.
    """
    return grid_from_rows(walk_rows(rows_from_grid(np.asarray(grid, dtype=bool)))[1])


class Algorithm1State:
    """Literal transcription of the paper's Algorithm 1.

    Maintains the persistent ``minlist`` exactly as the pseudocode does
    (including its incremental removals on ``Add``). Used in tests as an
    independent oracle for the nodelist evolution of
    :class:`repro.prefix.PrefixGraph`.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"Algorithm 1 needs n >= 2, got {n}")
        self.n = n
        self.minlist: "set[tuple[int, int]]" = set()
        self.nodelist: "set[tuple[int, int]]" = set()
        self._initialize()

    def _initialize(self) -> None:
        self.nodelist = set()
        for m in range(self.n):
            self.nodelist.add((m, m))
            self.nodelist.add((m, 0))

    def _lp(self, msb: int, lsb: int) -> "tuple[int, int]":
        """Lower parent of ``(msb, lsb)`` with respect to current nodelist."""
        for k in range(lsb + 1, msb + 1):
            if (msb, k) in self.nodelist:
                return (k - 1, lsb)
        raise AssertionError("diagonal missing")

    def add(self, msb: int, lsb: int) -> None:
        """Algorithm 1 ``Add``: insert into minlist, prune implied lps, legalize."""
        self.minlist.add((msb, lsb))
        self.legalize()
        for l in range(msb - 1, -1, -1):
            if (msb, l) in self.minlist:
                self.minlist.discard(self._lp(msb, l))
        self.legalize()

    def delete(self, msb: int, lsb: int) -> None:
        """Algorithm 1 ``Delete``: remove from minlist and legalize."""
        self.minlist.discard((msb, lsb))
        self.legalize()

    def legalize(self) -> None:
        """Algorithm 1 ``Legalize``: nodelist <- minlist + in/out + missing lps."""
        self.nodelist = set(self.minlist)
        for m in range(self.n):
            self.nodelist.add((m, m))
            self.nodelist.add((m, 0))
        for m in range(self.n - 1, -1, -1):
            for l in range(m - 1, -1, -1):
                if (m, l) in self.nodelist:
                    self.nodelist.add(self._lp(m, l))

    def grid(self) -> np.ndarray:
        """Current nodelist as a boolean grid."""
        g = np.zeros((self.n, self.n), dtype=bool)
        for m, l in self.nodelist:
            g[m, l] = True
        return g
