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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.ps import PruningRules, pruned_designs
from repro.pareto.front import ParetoArchive, archiving, pareto_front
from repro.prefix.graph import PrefixGraph
from repro.utils.rng import ensure_rng


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

    def r_squared(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Coefficient of determination, averaged over output columns."""
        pred = self.predict(features)
        y = np.asarray(targets, dtype=np.float64)
        ss_res = ((y - pred) ** 2).sum(axis=0)
        ss_tot = ((y - y.mean(axis=0)) ** 2).sum(axis=0) + 1e-12
        return float((1.0 - ss_res / ss_tot).mean())


@dataclass
class CrossLayerResult:
    """Outcome of the CL pipeline."""

    archive: ParetoArchive
    candidates: int
    synthesized: int
    predictor_r2: float


def cross_layer_optimization(
    n: int,
    evaluator,
    sample_size: int = 24,
    select_size: int = 24,
    max_candidates: int = 400,
    rules: "PruningRules | None" = None,
    rng=None,
) -> CrossLayerResult:
    """Run the CL pipeline against ``evaluator`` (a synthesis evaluator).

    ``evaluator.evaluate`` is the expensive oracle; the predictor rations
    it: ``sample_size`` training calls plus ``select_size`` verification
    calls of the predicted frontier.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    if select_size < 0:
        raise ValueError("select_size must be nonnegative")
    gen = ensure_rng(rng)
    if rules is None:
        rules = PruningRules(level_slack=3, max_fanout=8, size_slack=3.0)
    pool, _ = pruned_designs(n, rules, max_designs=max_candidates)
    features = np.stack([graph_feature_vector(g) for g in pool])

    evaluator = archiving(evaluator)
    sample_size = min(sample_size, len(pool))
    sample_idx = gen.choice(len(pool), size=sample_size, replace=False)
    targets = []
    for i in sample_idx:
        metrics = evaluator.evaluate(pool[i])
        targets.append([metrics.area, metrics.delay])
    predictor = RidgePredictor()
    predictor.fit(features[sample_idx], np.array(targets))
    r2 = predictor.r_squared(features[sample_idx], np.array(targets))

    predictions = predictor.predict(features)
    predicted_points = [(float(a), float(d)) for a, d in predictions]
    frontier_set = set(pareto_front(predicted_points))
    ranked = [i for i, p in enumerate(predicted_points) if p in frontier_set]
    ranked += [i for i in np.argsort(predictions @ np.array([0.5, 0.5])) if i not in set(ranked)]

    synthesized = 0
    sampled = set(int(i) for i in sample_idx)
    for i in ranked:
        if synthesized >= select_size:
            break
        if int(i) in sampled:
            continue
        evaluator.evaluate(pool[int(i)])
        synthesized += 1

    return CrossLayerResult(
        archive=evaluator.archive,
        candidates=len(pool),
        synthesized=synthesized + sample_size,
        predictor_r2=r2,
    )
