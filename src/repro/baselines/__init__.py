"""Baseline optimizers the paper compares against.

- :mod:`repro.baselines.sa` — simulated annealing over prefix graphs with
  the analytical cost model (Moto & Kaneko, ref. [14]);
- :mod:`repro.baselines.ps` — heuristically pruned exhaustive search
  (Roy et al., ref. [15]);
- :mod:`repro.baselines.cl` — cross-layer ML selection: a pruned candidate
  space ranked by a learned physical-metric predictor (Ma et al., ref. [10]);
- the "Commercial" adder family lives in :mod:`repro.synth.commercial`.

The published design sets are not available, so each baseline is implemented
from its paper's algorithm and run on this repo's evaluators — every curve in
the benchmarks is regenerated end-to-end. Each is a search with the one
signature ``search(n, evaluator, budget, rng) -> ParetoArchive``
(:func:`repro.pareto.budgeted_search`): ``budget`` counts distinct designs,
and :func:`repro.pareto.frontier` runs a search once per weight. PS's
enumeration (:func:`pruned_designs`) evaluates nothing.
"""

from repro.baselines.sa import simulated_annealing
from repro.baselines.ps import pruned_designs, pruned_exhaustive_search, PruningRules
from repro.baselines.cl import cross_layer_optimization
from repro.baselines.random_walk import random_walk_frontier

__all__ = [
    "simulated_annealing",
    "pruned_designs",
    "pruned_exhaustive_search",
    "PruningRules",
    "cross_layer_optimization",
    "random_walk_frontier",
]
