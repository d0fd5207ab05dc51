"""Fig. 6a — Analytical-PrefixRL vs SA and PS on the analytical metric.

Paper result: agents trained purely with the Moto-Kaneko analytical model
("Analytical-PrefixRL") Pareto-dominate all published SA solutions (11.7%
lower area at the lowest delay point) and the PS designs — RL beats the
other unrestricted-space search even without synthesis feedback.

Every series is a search run by :func:`repro.pareto.frontier`; its spend
(distinct designs, summed over weights) is printed beside its hypervolume.
"""

from repro.baselines import pruned_exhaustive_search, simulated_annealing
from repro.pareto import (
    area_savings_at_matched_delay,
    fraction_dominated,
    frontier,
    hypervolume_2d,
)
from repro.rl import TrainerConfig
from repro.rl.sweep import rl_search, weight_grid
from repro.synth import AnalyticalEvaluator
from repro.utils import scatter_plot


def run_fig6a(scale, n):
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
        "SA": frontier(simulated_annealing, n, analytical, weights, scale.sa_budget, seed=6),
        "PS": frontier(pruned_exhaustive_search, n, analytical, [0.5], 120),
        "Analytical-PrefixRL": frontier(rl, n, analytical, weights, scale.train_steps, seed=5),
    }
    series = {name: archive.points() for name, (archive, _) in runs.items()}
    archives = {name: archive for name, (archive, _) in runs.items()}
    spent = {name: sum(per_weight) for name, (_, per_weight) in runs.items()}
    return series, archives, spent


def test_fig6a_analytical_pareto(benchmark, scale, fig6_store):
    n = scale.width_small
    series, archives, spent = benchmark.pedantic(run_fig6a, args=(scale, n), rounds=1, iterations=1)
    fig6_store["series"] = series
    fig6_store["archives"] = archives
    fig6_store["n"] = n

    print(f"\n=== Fig. 6a: analytical-metric Pareto fronts (n={n}, Moto-Kaneko model) ===")
    print(scatter_plot(series))
    rl = series["Analytical-PrefixRL"]
    all_points = [p for pts in series.values() for p in pts]
    ref = (max(a for a, _ in all_points) * 1.05, max(d for _, d in all_points) * 1.05)
    rl_hv = hypervolume_2d(rl, ref)
    for name, pts in series.items():
        print(f"{name:>20s}: hypervolume {hypervolume_2d(pts, ref):8.2f}, spend {spent[name]} distinct designs")
    for name in ("SA", "PS"):
        savings = area_savings_at_matched_delay(rl, series[name])
        best = max((s for _, s in savings), default=float("nan"))
        print(
            f"Analytical-PrefixRL vs {name}: hv ratio "
            f"{rl_hv / max(hypervolume_2d(series[name], ref), 1e-9):6.3f}, "
            f"max matched-delay area saving {best*100:+.1f}%, dominated fraction "
            f"{fraction_dominated(rl, series[name], eps=1e-9):.2f}"
        )
        # Shape: RL at least matches both baselines' hypervolume and shows
        # a positive matched-delay saving somewhere.
        assert rl_hv >= hypervolume_2d(series[name], ref) * 0.99
        assert savings and max(s for _, s in savings) >= 0.0
