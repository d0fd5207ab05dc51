"""State featurization (Section IV-C).

The Q-network consumes an ``N x N x 4`` tensor whose planes are:

1. nodelist occupancy (1 if the node exists),
2. minlist membership (1 if the node is deletable),
3. node level, normalized to [0, 1],
4. node fanout, normalized to [0, 1].

Levels are normalized by ``N - 1`` (the ripple graph's depth — the maximum
any legal graph attains) and fanouts by ``N - 1`` (a node can feed at most
one child per remaining row plus same-row children; the bound is loose but
fixed per width, which is what normalization needs).

Feature tensors are memoized on the (immutable) graph instance: the
training loop observes every state at least twice (once as ``next_state``,
once as the following step's ``state``), and the batched actors observe the
same object again when stacking, so the memo halves-or-better the analytics
work per transition. The returned array is float32 — the dtype the Q-network
and the replay ring hold (planes 1-2 are exactly 0/1, planes 3-4 within 6e-8
of the float64 quotient) — and read-only; copy before mutating.
"""

from __future__ import annotations

import numpy as np

from repro.prefix.graph import PrefixGraph

NUM_FEATURE_PLANES = 4


def _compute_features(graph: PrefixGraph) -> np.ndarray:
    n = graph.n
    denom = max(n - 1, 1)
    features = np.empty((NUM_FEATURE_PLANES, n, n), dtype=np.float32)
    features[0] = graph.grid
    features[1] = graph.minlist()
    # Integer counts over N - 1: the quotient is taken in float64 and rounded once into the plane.
    np.divide(np.maximum(graph.levels(), 0), denom, out=features[2])
    np.divide(graph.fanouts(), denom, out=features[3])
    features.setflags(write=False)
    return features


def graph_features(graph: PrefixGraph) -> np.ndarray:
    """The paper's 4-plane feature tensor, shape ``(4, N, N)``.

    Planes are returned channel-first (the convolution layer convention
    used throughout :mod:`repro.nn`). Cached per graph instance; the
    result is read-only.
    """
    return graph.cached("graph_features", _compute_features)
