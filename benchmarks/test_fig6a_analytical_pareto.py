"""Fig. 6a — Analytical-PrefixRL vs SA and PS on the analytical metric.

Paper result: agents trained purely with the Moto-Kaneko analytical model
("Analytical-PrefixRL") Pareto-dominate all published SA solutions (11.7%
lower area at the lowest delay point) and the PS designs — RL beats the
other unrestricted-space search even without synthesis feedback.

Every series is a search run by :func:`repro.pareto.frontier` under the
same per-weight budget of distinct designs, ``scale.budget``; what each
weight spent is printed beside its hypervolume. The comparison runs at
every seed of :data:`benchmarks.conftest.SEEDS` and is judged on the
median.
"""

from repro.baselines import pruned_exhaustive_search, simulated_annealing
from repro.pareto import (
    area_savings_at_matched_delay,
    frontier,
    hypervolume_2d,
)
from repro.rl import TrainerConfig
from repro.rl.sweep import rl_search, weight_grid
from repro.synth import AnalyticalEvaluator
from repro.utils import scatter_plot

from benchmarks.conftest import SEEDS, median_over_seeds


def run_fig6a(scale, n, seed=0):
    weights = weight_grid(min(scale.num_weights, 5))

    def analytical(wa, wd):
        return AnalyticalEvaluator(wa, wd)

    rl = rl_search(
        agent_kwargs=dict(blocks=scale.residual_blocks, channels=scale.channels, lr=3e-4),
        trainer_config=TrainerConfig(
            batch_size=scale.batch_size,
            buffer_capacity=20_000,
            warmup_steps=max(scale.batch_size, 16),
        ),
        horizon=24,
    )
    runs = {
        "SA": frontier(simulated_annealing, n, analytical, weights, scale.budget, seed=6 + seed),
        "PS": frontier(pruned_exhaustive_search, n, analytical, [0.5], scale.budget, seed=seed),
        "Analytical-PrefixRL": frontier(rl, n, analytical, weights, scale.budget, seed=5 + seed),
    }
    series = {name: archive.points() for name, (archive, _) in runs.items()}
    archives = {name: archive for name, (archive, _) in runs.items()}
    spent = {name: per_weight for name, (_, per_weight) in runs.items()}
    return series, archives, spent


def run_all(scale, n):
    return [run_fig6a(scale, n, seed) for seed in SEEDS]


def compare(series, spent, budget):
    """Print one seed's series; return RL's hypervolume ratio and best
    matched-delay area saving vs SA and PS."""
    rl = series["Analytical-PrefixRL"]
    all_points = [p for pts in series.values() for p in pts]
    ref = (max(a for a, _ in all_points) * 1.05, max(d for _, d in all_points) * 1.05)
    rl_hv = hypervolume_2d(rl, ref)
    for name, pts in series.items():
        print(f"{name:>20s}: hypervolume {hypervolume_2d(pts, ref):8.2f}, "
              f"spend per weight {spent[name]} of {budget} distinct designs")
    row = {}
    for name in ("SA", "PS"):
        savings = area_savings_at_matched_delay(rl, series[name])
        row[f"hv/{name}"] = rl_hv / max(hypervolume_2d(series[name], ref), 1e-9)
        row[f"save/{name}"] = max((s for _, s in savings), default=float("-inf"))
    return row


def test_fig6a_analytical_pareto(benchmark, scale, fig6_store):
    n = scale.width_small
    runs = benchmark.pedantic(run_all, args=(scale, n), rounds=1, iterations=1)
    fig6_store["archives"] = [archives for _, archives, _ in runs]
    fig6_store["n"] = n

    print(f"\n=== Fig. 6a: analytical-metric Pareto fronts (n={n}, Moto-Kaneko model) ===")
    print(scatter_plot(runs[0][0]))
    rows = []
    for seed, (series, _, spent) in zip(SEEDS, runs):
        print(f"--- seed {seed} ---")
        rows.append(compare(series, spent, scale.budget))
    median = median_over_seeds(
        "Analytical-PrefixRL hypervolume ratio and max matched-delay area saving vs SA and PS", rows
    )
    # Shape, on the median over seeds: RL at least matches both baselines'
    # hypervolume and shows a non-negative matched-delay saving.
    for name in ("SA", "PS"):
        assert median[f"hv/{name}"] >= 0.99
        assert median[f"save/{name}"] >= 0.0
