"""Moto-Kaneko analytical area/delay model for prefix graphs.

Reference [14] evaluates a prefix graph with unit node areas and
fanout-loaded node delays: ``delay(node) = 1.0 + 0.5 * fanout(node)``.
A node's arrival time is its own delay plus the worst parent arrival;
the graph delay is the worst arrival over the output column. Sanity
anchor from the paper's Fig. 6a at 32b: Sklansky evaluates to area 80 and
delay 22 under this model, matching the top of the SA frontier's range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.prefix.graph import PrefixGraph

FANOUT_DELAY_FACTOR = 0.5
BASE_NODE_DELAY = 1.0
NODE_AREA = 1.0


@dataclass(frozen=True)
class AnalyticalMetrics:
    """Area/delay pair under the analytical model."""

    area: float
    delay: float


def analytical_area(graph: PrefixGraph) -> float:
    """Unit-area model: one unit per compute (non-input) node."""
    return NODE_AREA * graph.num_compute_nodes


def _node_delays(graph: PrefixGraph) -> np.ndarray:
    fanouts = graph.fanouts()
    delays = BASE_NODE_DELAY + FANOUT_DELAY_FACTOR * fanouts.astype(np.float64)
    delays[~graph.grid] = 0.0
    return delays


def analytical_delay(graph: PrefixGraph) -> float:
    """Worst accumulated node-delay path into any output node.

    Input nodes contribute their own (fanout-loaded) delay; this is what
    makes the Sklansky root fanout expensive under the model and matches
    the delay ranges of the paper's Fig. 6a.

    Level-bucketed sweep: nodes are grouped by topological level (from
    the cached :meth:`PrefixGraph.levels`, logarithmic even on deep
    ripple graphs) and each bucket is relaxed with one vectorized
    gather/max — every node is computed exactly once, from parents that
    are already final because their level is strictly lower. The
    per-node expression ``delay + max(arrival[upper], arrival[lower])``
    is the one the preserved fixpoint oracle
    (``analytical_delay_reference`` in ``tests/oracles/analytical.py``)
    applies, in the same final state, so results are bit-identical while
    the total work drops from O(depth * nodes) relaxation sweeps to
    O(nodes).
    """
    n = graph.n
    delays = _node_delays(graph)
    arrival = np.zeros((n, n), dtype=np.float64)
    idx = np.arange(n)
    arrival[idx, idx] = delays[idx, idx]
    ms, ls = np.nonzero(np.tril(graph.grid, k=-1))
    if ms.size:
        ups = graph.upper_parent_map()[ms, ls]
        lvl = graph.levels()[ms, ls]
        order = np.argsort(lvl, kind="stable")
        ms, ls, ups, lvl = ms[order], ls[order], ups[order], lvl[order]
        w = delays[ms, ls]
        flat = arrival.ravel()
        own = ms * n + ls
        iup = ms * n + ups
        ilo = (ups - 1) * n + ls
        bounds = np.searchsorted(lvl, np.arange(lvl[-1] + 2))
        for k in range(len(bounds) - 1):
            sel = slice(bounds[k], bounds[k + 1])
            if sel.start == sel.stop:
                continue
            flat[own[sel]] = w[sel] + np.maximum(flat[iup[sel]], flat[ilo[sel]])
    return float(arrival[:, 0].max())


def evaluate_analytical(graph: PrefixGraph) -> AnalyticalMetrics:
    """Evaluate both analytical metrics at once."""
    return AnalyticalMetrics(area=analytical_area(graph), delay=analytical_delay(graph))
