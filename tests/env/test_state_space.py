"""The whole state space at small widths, enumerated.

A breadth-first search from ``ripple_carry(n)`` over the environment's own
actions (``ActionSpace.legal_mask`` / ``apply``), deduplicated by
``PrefixGraph.key()`` (``tests.oracles.qstar.reachable``, the enumeration the
exact-Q* oracle runs on), reaches every legal prefix graph: the counts are
pinned, a brute force over every interior-cell grid finds the same set,
every regular structure reaches the same set (the action graph is
connected), and every legal graph at n = 6 adds correctly on every
operand pair in both libraries — the legality + functional gate applied
to the whole space.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.cells import industrial8nm, nangate45
from repro.netlist import prefix_adder_netlist
from repro.prefix import REGULAR_STRUCTURES, PrefixGraph
from tests.netlist.test_build_invariants import exhaustive_add_ok
from tests.oracles.qstar import from_ripple, reachable

# Legal n-input prefix graphs, n = 3..7.
REACHABLE_COUNTS = {3: 2, 4: 7, 5: 43, 6: 471, 7: 9296}


def brute_force_legal(n: int) -> "set[bytes]":
    """Keys of every interior-cell grid that passes ``is_legal()``."""
    cells = [(m, l) for m in range(2, n) for l in range(1, m)]
    keys = set()
    for bits in itertools.product((False, True), repeat=len(cells)):
        grid = np.zeros((n, n), dtype=bool)
        grid[np.arange(n), np.arange(n)] = True
        grid[:, 0] = True
        for (m, l), present in zip(cells, bits):
            grid[m, l] = present
        graph = PrefixGraph(grid, _validated=True)
        if graph.is_legal():
            keys.add(graph.key())
    return keys


@pytest.mark.parametrize("n", sorted(REACHABLE_COUNTS))
def test_reachable_counts_are_pinned(n):
    graphs = from_ripple(n)
    assert len(graphs) == REACHABLE_COUNTS[n]
    assert all(graph.is_legal() for graph in graphs.values())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_reachable_from_ripple_is_every_legal_graph(n):
    assert set(from_ripple(n)) == brute_force_legal(n)


@pytest.mark.parametrize(
    "n", [3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)]
)
@pytest.mark.parametrize("structure", sorted(REGULAR_STRUCTURES))
def test_every_structure_reaches_the_same_space(structure, n):
    assert set(reachable(REGULAR_STRUCTURES[structure](n))) == set(from_ripple(n))


@pytest.mark.parametrize("library", [nangate45(), industrial8nm()], ids=lambda lib: lib.name)
def test_every_legal_graph_adds(library):
    for n in (3, 4, 5, 6):
        for graph in from_ripple(n).values():
            nl = prefix_adder_netlist(graph, library)
            assert exhaustive_add_ok(nl, n, with_cout=True), graph
