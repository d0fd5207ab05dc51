"""Moto-Kaneko analytical area/delay model for prefix graphs.

Reference [14] evaluates a prefix graph with unit node areas and
fanout-loaded node delays: ``delay(node) = 1.0 + 0.5 * fanout(node)``.
A node's arrival time is its own delay plus the worst parent arrival;
the graph delay is the worst arrival over the output column, computed in
one visit per node in the topological order of
:meth:`repro.prefix.PrefixGraph.node_table`. Sanity anchor from the
paper's Fig. 6a at 32b: Sklansky evaluates to area 80 and delay 22 under
this model, matching the top of the SA frontier's range.
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


def analytical_delay(graph: PrefixGraph) -> float:
    """Worst accumulated node-delay path into any output node.

    Input nodes contribute their own (fanout-loaded) delay; this is what
    makes the Sklansky root fanout expensive under the model and matches
    the delay ranges of the paper's Fig. 6a.

    One pass over :meth:`PrefixGraph.node_table`, whose topological order
    settles both parents before their child: every node is computed exactly
    once, with the per-node expression ``delay + max(arrival[upper],
    arrival[lower])`` in float64 that the preserved fixpoint oracle
    (``analytical_delay_reference`` in ``tests/oracles/analytical.py``)
    applies, so results are bit-identical to it.
    """
    n = graph.n
    delays = (BASE_NODE_DELAY + FANOUT_DELAY_FACTOR * graph.fanouts().astype(np.float64)).reshape(-1)
    table = graph.node_table()
    arrival = [0.0] * (n * n)
    arrival[:: n + 1] = delays[:: n + 1].tolist()
    for (node, upper, lower, _), delay in zip(table.tolist(), delays[table[:, 0]].tolist()):
        a, b = arrival[upper], arrival[lower]
        arrival[node] = delay + (a if a > b else b)
    return max(arrival[::n])


def evaluate_analytical(graph: PrefixGraph) -> AnalyticalMetrics:
    """Evaluate both analytical metrics at once."""
    return AnalyticalMetrics(area=analytical_area(graph), delay=analytical_delay(graph))
