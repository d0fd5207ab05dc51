"""The :class:`PrefixGraph` data structure.

Design notes:

- The canonical state is the *nodelist* — a boolean ``N x N`` grid where cell
  ``(msb, lsb)`` marks a present node. The paper's ``minlist`` ("nodes that
  are not lower parents of other nodes", Section IV-A) is *derived* from the
  nodelist rather than maintained incrementally. Algorithm 1's incremental
  bookkeeping can retain stale entries (a minlist node that becomes a lower
  parent through legalization of an unrelated action); deriving the set from
  the definition makes "deletes are never undone by legalization" an actual
  invariant, which the test suite property-checks.
- Beside the read-only grid, each graph holds its *bit rows* (one Python int
  per MSB, bit ``l`` = node ``(m, l)``). Parents, levels, fanouts, the
  minlist and validation all come from one cached topological walk over the
  rows (:func:`repro.prefix.legalize.walk_rows`), and add/delete legalize on
  rows, so the cost of a step follows the node count, not the grid size.
- Graphs are immutable: actions return new graphs. This keeps the RL
  environment functional and makes synthesis caching by content hash safe.
"""

from __future__ import annotations

import numpy as np

from repro.prefix import legalize as _legalize


class IllegalActionError(ValueError):
    """Raised when an add/delete action violates the environment rules."""


class PrefixGraph:
    """A legal N-input parallel prefix graph on the (MSB, LSB) grid.

    Invariants (checked by :meth:`validate`):

    - input nodes ``(i, i)`` and output nodes ``(i, 0)`` exist for all ``i``;
    - no node above the diagonal (``lsb > msb``);
    - every interior node's lower parent exists (Eq. 1 of the paper) — the
      upper parent always exists because the diagonal is always populated.
    """

    __slots__ = ("_n", "_grid", "_rows", "_walk", "_levels", "_fanouts", "_minlist", "_derived")

    def __init__(self, grid: np.ndarray, _validated: bool = False, _rows: "tuple[int, ...] | None" = None):
        grid = np.asarray(grid, dtype=bool)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError(f"grid must be square, got shape {grid.shape}")
        self._n = grid.shape[0]
        self._grid = grid
        self._grid.setflags(write=False)
        self._rows = _legalize.rows_from_grid(grid) if _rows is None else _rows
        self._walk: "tuple[np.ndarray, tuple[int, ...]] | None" = None
        self._levels = None
        self._fanouts = None
        self._minlist = None
        self._derived: "dict | None" = None
        if not _validated:
            self.validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_nodes(cls, n: int, nodes) -> "PrefixGraph":
        """Build a graph from an iterable of ``(msb, lsb)`` pairs.

        Input and output nodes are added automatically; the result is
        validated (not legalized — pass through :func:`legalize_minlist`
        first if the node set may be missing lower parents).
        """
        if n < 1:
            raise ValueError(f"need at least 1 input, got n={n}")
        grid = np.zeros((n, n), dtype=bool)
        for m, l in nodes:
            if not (0 <= l <= m < n):
                raise ValueError(f"node ({m},{l}) outside the lower triangle of a {n}x{n} grid")
            grid[m, l] = True
        idx = np.arange(n)
        grid[idx, idx] = True
        grid[idx, 0] = True
        return cls(grid)

    @property
    def n(self) -> int:
        """Number of inputs (bit width)."""
        return self._n

    @property
    def grid(self) -> np.ndarray:
        """Read-only boolean nodelist grid (rows=MSB, cols=LSB)."""
        return self._grid

    # ------------------------------------------------------------------
    # Node queries
    # ------------------------------------------------------------------

    def has_node(self, msb: int, lsb: int) -> bool:
        """True if node ``(msb, lsb)`` is present."""
        return bool(self._grid[msb, lsb])

    def nodes(self) -> "list[tuple[int, int]]":
        """All present nodes as ``(msb, lsb)`` pairs, row-major order."""
        ms, ls = np.nonzero(self._grid)
        return list(zip(ms.tolist(), ls.tolist()))

    def interior_nodes(self) -> "list[tuple[int, int]]":
        """Present nodes that are neither inputs nor outputs (0 < lsb < msb)."""
        return [(m, l) for (m, l) in self.nodes() if 0 < l < m]

    @property
    def num_nodes(self) -> int:
        """Total node count including inputs and outputs."""
        return int(self._grid.sum())

    @property
    def num_compute_nodes(self) -> int:
        """Nodes that perform an operation (everything except inputs).

        This is the "size" metric of the prefix-structure literature: each
        non-input node costs one prefix operator.
        """
        return self.num_nodes - self._n

    def cached(self, key, compute):
        """Memoize ``compute(self)`` under ``key`` for this (immutable) graph.

        Layers above the data structure (featurization, action masks) use
        this to avoid recomputing per-state derived values every time a
        training loop revisits a state object.
        """
        derived = self._derived
        if derived is None:
            derived = self._derived = {}
        try:
            return derived[key]
        except KeyError:
            value = derived[key] = compute(self)
            return value

    def upper_parent(self, msb: int, lsb: int) -> "tuple[int, int]":
        """The existing node in row ``msb`` with the next-highest LSB.

        Defined for non-input nodes (``lsb < msb``): the lowest set bit of
        the row above ``lsb``. Always exists because the diagonal node
        ``(msb, msb)`` is always present.
        """
        if lsb >= msb:
            raise ValueError(f"input node ({msb},{lsb}) has no parents")
        above = self._rows[msb] >> (lsb + 1)
        if not above:
            raise AssertionError(f"diagonal node ({msb},{msb}) missing — grid corrupt")
        return (msb, lsb + (above & -above).bit_length())

    def lower_parent(self, msb: int, lsb: int) -> "tuple[int, int]":
        """The lower parent ``(k - 1, lsb)`` where ``(msb, k)`` is the upper parent."""
        _, k = self.upper_parent(msb, lsb)
        return (k - 1, lsb)

    def parents(self, msb: int, lsb: int) -> "tuple[tuple[int, int], tuple[int, int]]":
        """``(upper_parent, lower_parent)`` of a non-input node."""
        m, k = self.upper_parent(msb, lsb)
        return (m, k), (k - 1, lsb)

    def children(self, msb: int, lsb: int) -> "list[tuple[int, int]]":
        """All present nodes that use ``(msb, lsb)`` as a parent, in row-major order."""
        n = self._n
        table = self.node_table()
        cell = msb * n + lsb
        hits = table[(table[:, 1] == cell) | (table[:, 2] == cell), 0]
        return [divmod(i, n) for i in sorted(hits.tolist())]

    # ------------------------------------------------------------------
    # Derived analyses (cached; the grid is immutable)
    # ------------------------------------------------------------------

    def _walked(self) -> "tuple[np.ndarray, tuple[int, ...]]":
        """The cached :func:`~repro.prefix.legalize.walk_rows` pass."""
        if self._walk is None:
            table, minlist_rows = _legalize.walk_rows(self._rows)
            table.setflags(write=False)
            self._walk = (table, minlist_rows)
        return self._walk

    def node_table(self) -> np.ndarray:
        """Read-only ``(C, 4)`` int32 table of the non-input nodes.

        Row ``i`` is ``(node, upper, lower, level)``: the flat cell indices
        (``msb * n + lsb``) of a node and of its upper and lower parents, and
        the node's level. Rows run MSB ascending, LSB descending — a
        topological order, so both parents of a node precede it.
        """
        return self._walked()[0]

    def levels(self) -> np.ndarray:
        """Topological depth of every node; inputs are level 0, absent cells -1.

        The level of a non-input node is ``1 + max(level(up), level(lp))``,
        settled for every node by the one walk behind :meth:`node_table`.
        """
        if self._levels is None:
            n = self._n
            lv = np.full((n, n), -1, dtype=np.int32)
            flat = lv.reshape(-1)
            flat[:: n + 1] = 0
            table = self.node_table()
            flat[table[:, 0]] = table[:, 3]
            lv.setflags(write=False)
            self._levels = lv
        return self._levels

    def fanouts(self) -> np.ndarray:
        """Number of children of every node (absent cells 0).

        Fanout here counts graph children only (the paper's definition in
        Section IV-C); electrical fanout after netlist generation is computed
        by the netlist/STA layers.
        """
        if self._fanouts is None:
            n = self._n
            counts = np.bincount(self.node_table()[:, 1:3].ravel(), minlength=n * n)
            fo = counts.reshape(n, n).astype(np.int32)
            fo.setflags(write=False)
            self._fanouts = fo
        return self._fanouts

    def depth(self) -> int:
        """Maximum level over all nodes (the graph's logic depth)."""
        return int(self.levels().max())

    def max_fanout(self) -> int:
        """Maximum fanout over all nodes."""
        return int(self.fanouts().max())

    def minlist(self) -> np.ndarray:
        """Boolean grid of deletable nodes (paper's ``minlist``).

        A node is in the minlist iff it is interior (neither input nor
        output) and is not the lower parent of any present node — deleting
        such a node is never undone by legalization.
        """
        if self._minlist is None:
            ml = _legalize.grid_from_rows(self._walked()[1])
            ml.setflags(write=False)
            self._minlist = ml
        return self._minlist

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` if the grid is not a legal prefix graph."""
        n, grid = self._n, self._grid
        if not grid[np.arange(n), np.arange(n)].all():
            raise ValueError("missing input node(s) on the diagonal")
        if not grid[:, 0].all():
            raise ValueError("missing output node(s) in column 0")
        if np.triu(grid, k=1).any():
            raise ValueError("node(s) above the diagonal (lsb > msb)")
        # The walk visits nodes in the scan order that names the first
        # offender: ascending MSB, descending LSB within a row.
        rows = self._rows
        for node, _, lower, _ in self.node_table().tolist():
            lm, ll = divmod(lower, n)
            if not rows[lm] >> ll & 1:
                m, l = divmod(node, n)
                raise ValueError(f"node ({m},{l}) has missing lower parent ({lm},{ll})")

    def is_legal(self) -> bool:
        """True if :meth:`validate` passes."""
        try:
            self.validate()
        except ValueError:
            return False
        return True

    # ------------------------------------------------------------------
    # Actions (Section IV-A / Algorithm 1 semantics)
    # ------------------------------------------------------------------

    def can_add(self, msb: int, lsb: int) -> bool:
        """An add targets an absent interior cell (redundant adds forbidden)."""
        if not (0 < lsb < msb < self._n):
            return False
        return not self._rows[msb] >> lsb & 1

    def can_delete(self, msb: int, lsb: int) -> bool:
        """A delete targets a minlist node (so legalization cannot undo it)."""
        if not (0 < lsb < msb < self._n):
            return False
        return bool(self._walked()[1][msb] >> lsb & 1)

    def add_node(self, msb: int, lsb: int) -> "PrefixGraph":
        """Add node ``(msb, lsb)`` and legalize; returns the new graph.

        Legalization may add missing lower parents and — by rebuilding from
        the minlist — drop nodes whose only purpose was to be the lower
        parent of a node that now resolves differently (the paper notes an
        action "may add or delete additional nodes to maintain legality").
        """
        if not self.can_add(msb, lsb):
            raise IllegalActionError(f"cannot add node ({msb},{lsb})")
        min_rows = list(self._walked()[1])
        min_rows[msb] |= 1 << lsb
        return self._legalized(min_rows)

    def delete_node(self, msb: int, lsb: int) -> "PrefixGraph":
        """Delete minlist node ``(msb, lsb)`` and legalize; returns the new graph."""
        if not self.can_delete(msb, lsb):
            raise IllegalActionError(f"cannot delete node ({msb},{lsb})")
        min_rows = list(self._walked()[1])
        min_rows[msb] ^= 1 << lsb
        return self._legalized(min_rows)

    @staticmethod
    def _legalized(min_rows: "list[int]") -> "PrefixGraph":
        rows = _legalize.legalize_rows(min_rows)
        return PrefixGraph(_legalize.grid_from_rows(rows), _validated=True, _rows=rows)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def key(self) -> bytes:
        """Canonical content key (used for synthesis caching and dedup)."""
        return bytes(np.packbits(self._grid).tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrefixGraph):
            return NotImplemented
        return self._n == other._n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._n, self.key()))

    def __repr__(self) -> str:
        return (
            f"PrefixGraph(n={self._n}, compute_nodes={self.num_compute_nodes}, "
            f"depth={self.depth()}, max_fanout={self.max_fanout()})"
        )
