"""Cross-layer ML optimization (Ma et al., ref. [10]).

The CL baseline of Fig. 4b "proposes an alternative set of pruning
heuristics that result in a larger set of pruned adders which are then
searched using a machine learning model that is trained to predict physical
metrics". Reproduced as a three-stage pipeline:

1. **Candidate generation** — a pruned enumeration with looser rules than
   PS (larger level slack and fanout cap), producing a big candidate pool
   cheaply.
2. **Predictor training** — ridge regression (closed form on numpy) from
   structural graph features to synthesized area/delay, fitted on a small
   synthesized sample of the pool.
3. **Predicted-Pareto selection** — the predictor scores the whole pool;
   the predicted-frontier designs (plus the training sample) are actually
   synthesized, and those measurements form the CL series.

The budget splits in two: ``budget // 2`` training evaluations (at least
one) and the rest on the predicted frontier.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.ps import PruningRules, pruned_designs
from repro.pareto.front import budgeted_search, pareto_front
from repro.prefix.graph import PrefixGraph


def graph_feature_vector(graph: PrefixGraph) -> np.ndarray:
    """Structural features a physical-metric predictor can learn from.

    Size, depth, fanout statistics and level-occupancy moments — the
    cross-layer features [10] uses (their wirelength proxies are replaced
    by fanout moments, which play the same congestion-proxy role here).
    """
    levels = graph.levels()
    fanouts = graph.fanouts()
    present = graph.grid
    fo = fanouts[present].astype(np.float64)
    lv = levels[present].astype(np.float64)
    n = float(graph.n)
    return np.array(
        [
            1.0,
            graph.num_compute_nodes / n,
            graph.depth() / n,
            graph.max_fanout() / n,
            float(fo.mean()),
            float((fo**2).mean()),
            float(lv.mean()) / n,
            float((lv**2).mean()) / (n * n),
            float((fo * lv).mean()) / n,
        ]
    )


class RidgePredictor:
    """Closed-form ridge regression onto (area, delay)."""

    def __init__(self, alpha: float = 1e-3):
        self.alpha = alpha
        self._weights: "np.ndarray | None" = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Fit W minimizing ||XW - Y||^2 + alpha ||W||^2."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        gram = x.T @ x + self.alpha * np.eye(x.shape[1])
        self._weights = np.linalg.solve(gram, x.T @ y)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted (area, delay) rows for feature rows."""
        if self._weights is None:
            raise RuntimeError("predictor not fitted")
        return np.asarray(features, dtype=np.float64) @ self._weights


@budgeted_search
def cross_layer_optimization(
    n: int,
    evaluator,
    budget: int,
    rng,
    *,
    max_candidates: int = 400,
    rules: "PruningRules | None" = None,
):
    """Run the CL pipeline against ``evaluator`` (a synthesis evaluator).

    ``evaluator.evaluate`` is the expensive oracle; the predictor rations
    it: ``budget // 2`` (at least one) training calls on a random sample
    of the candidate pool, then verification calls down the predicted
    frontier until the budget or the pool is spent.
    """
    if rules is None:
        rules = PruningRules(level_slack=3, max_fanout=8, size_slack=3.0)
    pool, _ = pruned_designs(n, rules, max_designs=max_candidates)
    features = np.stack([graph_feature_vector(g) for g in pool])

    sample_idx = rng.choice(len(pool), size=min(max(budget // 2, 1), len(pool)), replace=False)
    targets = []
    for i in sample_idx:
        metrics = evaluator.evaluate(pool[i])
        targets.append([metrics.area, metrics.delay])
    predictor = RidgePredictor()
    predictor.fit(features[sample_idx], np.array(targets))

    predictions = predictor.predict(features)
    predicted_points = [(float(a), float(d)) for a, d in predictions]
    frontier_set = set(pareto_front(predicted_points))
    ranked = [i for i, p in enumerate(predicted_points) if p in frontier_set]
    ranked += [i for i in np.argsort(predictions @ np.array([0.5, 0.5])) if i not in set(ranked)]

    sampled = set(int(i) for i in sample_idx)
    for i in ranked:
        if int(i) not in sampled:
            evaluator.evaluate(pool[int(i)])
