#!/usr/bin/env python
"""Train Analytical-PrefixRL agents and compare them with simulated annealing (Fig. 6a).

Trains a small multi-weight sweep of scalarized Double-DQN agents on the
Moto-Kaneko analytical model at 8 bits, runs the SA baseline under the
same per-weight budget of distinct designs, and prints both Pareto fronts
with what each actually spent — the Fig. 6a experiment at example scale
(about 20 s of CPU). An agent trains until it has spent its budget;
once it acts greedily (the last 20% of the budget) it may circle designs
it has seen until the stall rule ends it short of the budget. SA restarts
from its best design whenever it is stuck, so it spends its whole budget.

Run: ``python examples/train_analytical.py [width] [budget]``
"""

import sys

from repro.baselines import simulated_annealing
from repro.pareto import fraction_dominated, frontier, hypervolume_2d
from repro.rl import TrainerConfig, rl_search
from repro.synth import AnalyticalEvaluator
from repro.utils import scatter_plot


def main(n: int = 8, budget: int = 400):
    weights = [0.2, 0.5, 0.8]

    def analytical(wa, wd):
        return AnalyticalEvaluator(wa, wd)

    print(f"Training {len(weights)} agents at {n}b, {budget} distinct designs each...")
    rl = rl_search(
        agent_kwargs=dict(blocks=1, channels=8, lr=3e-4),
        trainer_config=TrainerConfig(batch_size=8, warmup_steps=16),
        horizon=24,
    )
    rl_archive, rl_spent = frontier(rl, n, analytical, weights, budget, seed=0)

    print(f"Running SA with a budget of {budget} distinct designs per weight...")
    sa_archive, sa_spent = frontier(simulated_annealing, n, analytical, weights, budget, seed=1)
    for name, spent in (("PrefixRL", rl_spent), ("SA", sa_spent)):
        print(f"  {name:>8s} spent {spent} distinct designs per weight ({sum(spent)} in all)")

    series = {"SA": sa_archive.points(), "PrefixRL": rl_archive.points()}
    print(scatter_plot(series, xlabel="analytical area", ylabel="analytical delay"))
    ref = (
        max(a for pts in series.values() for a, _ in pts) * 1.05,
        max(d for pts in series.values() for _, d in pts) * 1.05,
    )
    print(f"hypervolume  SA: {hypervolume_2d(series['SA'], ref):8.2f}   "
          f"PrefixRL: {hypervolume_2d(series['PrefixRL'], ref):8.2f}")
    print("fraction of SA frontier dominated by PrefixRL: "
          f"{fraction_dominated(series['PrefixRL'], series['SA'], eps=1e-9):.2f}")
    print("\nFrontier designs (area, delay):")
    for area, delay, graph in rl_archive.entries():
        print(f"  ({area:5.1f}, {delay:5.1f})  size={graph.num_compute_nodes:3d} "
              f"depth={graph.depth():2d} fanout={graph.max_fanout():2d}")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    budget = int(sys.argv[2]) if len(sys.argv) > 2 else 400
    main(n, budget)
