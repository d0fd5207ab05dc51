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
- Graphs are immutable: actions return new graphs. This keeps the RL
  environment functional and makes synthesis caching by content hash safe.
"""

from __future__ import annotations

import numpy as np

from repro.prefix import legalize as _legalize


class IllegalActionError(ValueError):
    """Raised when an add/delete action violates the environment rules."""


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
    whether the fixpoint was reached. Deep (ripple-like) graphs that blow
    the bound are finished by :func:`policy_doubling_longest_path`, whose
    sweep count is logarithmic in depth instead of linear.
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


def policy_doubling_longest_path(
    values: np.ndarray, ms: np.ndarray, ls: np.ndarray, ups: np.ndarray, weights
) -> None:
    """Longest path by policy iteration with pointer-doubling evaluation.

    The relaxation in :func:`relax_max_plus` needs depth(graph)+1 sweeps —
    its worst case is the ripple-like chain, depth O(n). This routine
    instead guesses, per cell, *which* parent carries the longest path
    (the policy), evaluates all chain lengths under that guess by pointer
    doubling (``value += value[jump]; jump = jump[jump]`` — O(log depth)
    sweeps, since every parent pointer is acyclic), then switches any cell
    whose other parent now looks longer. A result is accepted only when it
    satisfies the Bellman condition ``value = weight + max(up, lo)``
    everywhere — the recurrence's unique fixpoint — so the answer is exact
    regardless of how policy iteration behaved; a bounded-round safety
    valve falls back to plain relaxation seeded with the (lower-bound)
    policy values.

    Integer weights only: pointer doubling reassociates the additions
    along a chain, which is exact for ints but would change float
    rounding vs the sequential relaxation.
    """
    n = values.shape[0]
    flat = values.ravel()
    m = ms.size
    own = ms * n + ls
    # Compact to non-input cells: 0..m-1, plus one sentinel "settled" node
    # (index m, value 0) standing in for every input/absent parent cell —
    # deep graphs are sparse, so sweeps run on m elements, not n*n.
    comp = np.full(n * n, m, dtype=np.int64)
    comp[own] = np.arange(m)
    cup = comp[ms * n + ups]
    clo = comp[(ups - 1) * n + ls]
    w = np.broadcast_to(np.asarray(weights, dtype=values.dtype), (m,))
    policy = cup
    val = None
    for _ in range(32):
        # Evaluate: chain length under the current policy, doubling jumps.
        val = np.zeros(m + 1, dtype=values.dtype)
        val[:m] = w
        jump = np.append(policy, m)
        while True:
            njump = jump[jump]
            if np.array_equal(njump, jump):
                break
            val += val[jump]
            jump = njump
        # Improve / verify: accept only at the Bellman fixpoint.
        cand_up = val[cup]
        cand_lo = val[clo]
        if np.array_equal(w + np.maximum(cand_up, cand_lo), val[:m]):
            flat[own] = val[:m]
            return
        policy = np.where(cand_lo > cand_up, clo, cup)
    # Safety valve (not expected to trigger): policy values are true path
    # lengths, hence lower bounds — finish monotonically by relaxation.
    flat[own] = np.maximum(flat[own], val[:m])
    relax_max_plus(values, ms, ls, ups, weights)


class PrefixGraph:
    """A legal N-input parallel prefix graph on the (MSB, LSB) grid.

    Invariants (checked by :meth:`validate`):

    - input nodes ``(i, i)`` and output nodes ``(i, 0)`` exist for all ``i``;
    - no node above the diagonal (``lsb > msb``);
    - every interior node's lower parent exists (Eq. 1 of the paper) — the
      upper parent always exists because the diagonal is always populated.
    """

    __slots__ = ("_n", "_grid", "_up", "_levels", "_fanouts", "_minlist", "_derived")

    def __init__(self, grid: np.ndarray, _validated: bool = False):
        grid = np.asarray(grid, dtype=bool)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError(f"grid must be square, got shape {grid.shape}")
        self._n = grid.shape[0]
        self._grid = grid
        self._grid.setflags(write=False)
        self._up = None
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

    def upper_parent_map(self) -> np.ndarray:
        """Cached ``N x N`` int32 map of upper-parent LSBs (see
        :func:`repro.prefix.legalize.upper_parent_map`)."""
        if self._up is None:
            up = _legalize.upper_parent_map(self._grid)
            up.setflags(write=False)
            self._up = up
        return self._up

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

        Defined for non-input nodes (``lsb < msb``). Always exists because
        the diagonal node ``(msb, msb)`` is always present.
        """
        if lsb >= msb:
            raise ValueError(f"input node ({msb},{lsb}) has no parents")
        # ``item`` reads one Python int without building a numpy scalar:
        # the netlist builder asks once per gate.
        k = self.upper_parent_map().item(msb, lsb)
        if k >= self._n and not self._grid[msb, msb]:
            raise AssertionError(f"diagonal node ({msb},{msb}) missing — grid corrupt")
        return (msb, k)

    def lower_parent(self, msb: int, lsb: int) -> "tuple[int, int]":
        """The lower parent ``(k - 1, lsb)`` where ``(msb, k)`` is the upper parent."""
        _, k = self.upper_parent(msb, lsb)
        return (k - 1, lsb)

    def parents(self, msb: int, lsb: int) -> "tuple[tuple[int, int], tuple[int, int]]":
        """``(upper_parent, lower_parent)`` of a non-input node."""
        m, k = self.upper_parent(msb, lsb)
        return (m, k), (k - 1, lsb)

    def children(self, msb: int, lsb: int) -> "list[tuple[int, int]]":
        """All present nodes that use ``(msb, lsb)`` as a parent.

        Two vectorized lookups against the upper-parent map replace the
        full-grid parent scan: upper children live in row ``msb`` (present
        cells whose next occupied column is ``lsb``), lower children live
        in column ``lsb`` below rows ``lsb`` (present cells whose upper
        parent LSB is ``msb + 1``). Row-major output order is preserved —
        upper children share row ``msb`` while lower children sit strictly
        below it.
        """
        up = self.upper_parent_map()
        grid = self._grid
        row_cols = np.nonzero(grid[msb, :msb] & (up[msb, :msb] == lsb))[0]
        out = [(msb, int(l)) for l in row_cols]
        lo = lsb + 1
        col_rows = np.nonzero(grid[lo:, lsb] & (up[lo:, lsb] == msb + 1))[0]
        out.extend((int(m) + lo, lsb) for m in col_rows)
        return out

    # ------------------------------------------------------------------
    # Derived analyses (cached; the grid is immutable)
    # ------------------------------------------------------------------

    def _noninput_nodes(self) -> "tuple[np.ndarray, np.ndarray]":
        """Row/col arrays of present non-input cells (row-major order)."""
        return self.cached(
            "_noninput_nodes", lambda g: np.nonzero(np.tril(g._grid, k=-1))
        )

    def levels(self) -> np.ndarray:
        """Topological depth of every node; inputs are level 0, absent cells -1.

        The level of a non-input node is ``1 + max(level(up), level(lp))``,
        a max-plus longest path. Shallow graphs (the common case) settle
        within a few whole-grid relaxation sweeps; deep ripple-like graphs
        would need depth(graph) sweeps, so past a sweep budget the
        computation switches to :func:`policy_doubling_longest_path`,
        which needs only O(log depth) sweeps.
        """
        if self._levels is None:
            n = self._n
            lv = np.full((n, n), -1, dtype=np.int32)
            idx = np.arange(n)
            lv[idx, idx] = 0
            ms, ls = self._noninput_nodes()
            if ms.size:
                ups = self.upper_parent_map()[ms, ls]
                lv[ms, ls] = 0
                # Depth is at most n-1, so narrow graphs always settle
                # within the relaxation budget; wide deep ones switch to
                # the logarithmic doubling path once the budget blows.
                budget = n if n <= 16 else 12
                if not relax_max_plus(lv, ms, ls, ups, np.int32(1), max_sweeps=budget):
                    policy_doubling_longest_path(lv, ms, ls, ups, np.int32(1))
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
            ms, ls = self._noninput_nodes()
            ups = self.upper_parent_map()[ms, ls]
            counts = np.bincount(ms * n + ups, minlength=n * n)
            counts += np.bincount((ups - 1) * n + ls, minlength=n * n)
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
            ml = _legalize.derive_minlist(self._grid, up=self.upper_parent_map())
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
        ms, ls = self._noninput_nodes()
        ups = self.upper_parent_map()[ms, ls]
        missing = ~grid[ups - 1, ls]
        if missing.any():
            # Report the first offender in the original scan order
            # (ascending MSB, descending LSB within a row).
            bad = np.nonzero(missing)[0]
            first_row = ms[bad].min()
            in_row = bad[ms[bad] == first_row]
            i = in_row[np.argmax(ls[in_row])]
            m, l, k = int(ms[i]), int(ls[i]), int(ups[i])
            raise ValueError(f"node ({m},{l}) has missing lower parent ({k - 1},{l})")

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
        return not self._grid[msb, lsb]

    def can_delete(self, msb: int, lsb: int) -> bool:
        """A delete targets a minlist node (so legalization cannot undo it)."""
        if not (0 < lsb < msb < self._n):
            return False
        return bool(self.minlist()[msb, lsb])

    def add_node(self, msb: int, lsb: int) -> "PrefixGraph":
        """Add node ``(msb, lsb)`` and legalize; returns the new graph.

        Legalization may add missing lower parents and — by rebuilding from
        the minlist — drop nodes whose only purpose was to be the lower
        parent of a node that now resolves differently (the paper notes an
        action "may add or delete additional nodes to maintain legality").
        """
        if not self.can_add(msb, lsb):
            raise IllegalActionError(f"cannot add node ({msb},{lsb})")
        min_grid = np.array(self.minlist())
        min_grid[msb, lsb] = True
        new_grid = _legalize.legalize_minlist(min_grid)
        return PrefixGraph(new_grid, _validated=True)

    def delete_node(self, msb: int, lsb: int) -> "PrefixGraph":
        """Delete minlist node ``(msb, lsb)`` and legalize; returns the new graph."""
        if not self.can_delete(msb, lsb):
            raise IllegalActionError(f"cannot delete node ({msb},{lsb})")
        min_grid = np.array(self.minlist())
        min_grid[msb, lsb] = False
        new_grid = _legalize.legalize_minlist(min_grid)
        return PrefixGraph(new_grid, _validated=True)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def key(self) -> bytes:
        """Canonical content key (used for synthesis caching and dedup)."""
        return bytes(np.packbits(self._grid).tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrefixGraph):
            return NotImplemented
        return self._n == other._n and bool(np.array_equal(self._grid, other._grid))

    def __hash__(self) -> int:
        return hash((self._n, self.key()))

    def __repr__(self) -> str:
        return (
            f"PrefixGraph(n={self._n}, compute_nodes={self.num_compute_nodes}, "
            f"depth={self.depth()}, max_fanout={self.max_fanout()})"
        )
