"""Reference analytical-delay evaluation (preserved oracle).

This is the whole-grid fixpoint-relaxation implementation of
:func:`repro.analytical.model.analytical_delay` exactly as it shipped
before the level-bucketed sweep replaced it: ``depth(graph) + 1``
vectorized relaxation sweeps over every non-input node. It is kept
verbatim as the bit-identity oracle for the production path — the
level-bucketed sweep performs the *same* per-node operation
``delay + max(arrival[upper], arrival[lower])`` exactly once per node,
so the two must agree to the last bit on every graph
(``tests/analytical/test_model.py`` property-tests this on randomized
and deep ripple graphs).

Do not optimize this module; its value is staying unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.analytical.model import _node_delays
from repro.prefix.graph import PrefixGraph, relax_max_plus


def analytical_delay_reference(graph: PrefixGraph) -> float:
    """Worst accumulated node-delay path into any output node.

    Computed by the same whole-grid fixpoint relaxation as
    :meth:`PrefixGraph.levels` (depth(graph) + 1 vectorized sweeps instead
    of a Python visit per cell): arrivals only ever increase toward the
    longest-path fixpoint, and every node of depth <= k is settled after
    ``k`` sweeps.
    """
    n = graph.n
    delays = _node_delays(graph)
    arrival = np.zeros((n, n), dtype=np.float64)
    idx = np.arange(n)
    arrival[idx, idx] = delays[idx, idx]
    ms, ls = np.nonzero(np.tril(graph.grid, k=-1))
    if ms.size:
        ups = graph.upper_parent_map()[ms, ls]
        relax_max_plus(arrival, ms, ls, ups, delays[ms, ls])
    return float(arrival[:, 0].max())
