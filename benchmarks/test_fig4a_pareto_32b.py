"""Fig. 4a — area-delay Pareto fronts, '32b' setting, open tool/library.

Paper result: PrefixRL adders Pareto-dominate Sklansky, Kogge-Stone,
Brent-Kung, SA [14] and PS [15] when everything is synthesized with
OpenPhySyn + Nangate45; max area saving 16.0% at matched delay, gains
largest at tight delay targets.

This bench regenerates every series end-to-end at the CI stand-in width
(REPRO_SCALE controls widths and the budget; see ``repro.utils.config``).
Every search spends out of the same per-weight budget of distinct designs,
``scale.budget``: SA's analytical designs, PrefixRL's synthesized ones and
PS's admitted enumeration (of which the first 30 by key are synthesized).
Beside each series' hypervolume it prints what each weight spent. The
comparison is made at every seed of the small sweep and judged on the
median.
"""


from repro.baselines import pruned_designs, simulated_annealing
from repro.pareto import (
    area_savings_at_matched_delay,
    bin_by_delay,
    fraction_dominated,
    frontier,
    hypervolume_2d,
    pareto_front,
)
from repro.synth import AnalyticalEvaluator, synthesize_curve
from repro.utils import scatter_plot

from benchmarks.conftest import curve_series, frontier_design_series, median_over_seeds

BASELINES = ("sklansky", "kogge_stone", "brent_kung", "SA", "PS")


def build_series(bundle, scale):
    n = bundle["n"]
    num_points = scale.delay_targets

    series = {}
    for name in ("sklansky", "kogge_stone", "brent_kung"):
        series[name] = curve_series(bundle["regular_curves"][name], num_points)

    # SA baseline: annealed on the analytical model (the paper notes SA
    # cannot afford synthesis in the loop), then its designs synthesized.
    sa_archive, sa_spent = frontier(
        simulated_annealing,
        n,
        lambda wa, wd: AnalyticalEvaluator(wa, wd),
        weights=[0.2, 0.4, 0.6, 0.8],
        budget=scale.budget,
        seed=11 + bundle["seed"],
    )
    sa_points = []
    for _, _, graph in sa_archive.entries()[:10]:
        curve = synthesize_curve(graph, bundle["library"], bundle["synthesizer"])
        sa_points.extend(curve_series(curve, num_points))
    series["SA"] = pareto_front(sa_points)

    # PS baseline: pruned exhaustive enumeration, all survivors synthesized.
    ps_designs, _ = pruned_designs(n, max_designs=scale.budget)
    ps_points = []
    for graph in sorted(ps_designs, key=lambda g: g.key())[:30]:
        curve = synthesize_curve(graph, bundle["library"], bundle["synthesizer"])
        ps_points.extend(curve_series(curve, num_points))
    series["PS"] = pareto_front(ps_points)

    rl_points, rl_designs = frontier_design_series(bundle, num_points)
    series["PrefixRL"] = rl_points
    spent = {"SA": sa_spent, "PS": [len(ps_designs)], "PrefixRL": bundle["spent"]}
    return series, spent


def compare(series, spent, scale, show):
    """Print one seed's series table; return its RL-vs-baseline statistics."""
    rl = series["PrefixRL"]
    all_points = [p for pts in series.values() for p in pts]
    ref = (max(a for a, _ in all_points) * 1.05, max(d for _, d in all_points) * 1.05)
    if show:
        print(scatter_plot({name: bin_by_delay(pts, scale.delay_targets) for name, pts in series.items()}))
    print(f"{'series':>12s}  {'hypervolume':>12s}  {'front size':>10s}  spend per weight (budget {scale.budget})")
    for name, pts in series.items():
        print(f"{name:>12s}  {hypervolume_2d(pts, ref):12.4f}  {len(pareto_front(pts)):10d}  {spent.get(name, '-')}")

    rl_hv = hypervolume_2d(rl, ref)
    row = {}
    for name in BASELINES:
        savings = area_savings_at_matched_delay(rl, series[name])
        row[f"hv/{name}"] = rl_hv / max(hypervolume_2d(series[name], ref), 1e-12)
        row[f"save/{name}"] = max((s for _, s in savings), default=float("-inf"))
        if savings and show:
            best_delay, best = max(savings, key=lambda s: s[1])
            print(f"PrefixRL vs {name:>12s}: max area saving "
                  f"{best*100:+.1f}% at delay {best_delay:.4f} ns "
                  f"(dominated fraction {fraction_dominated(rl, series[name], eps=1e-9):.2f})")
    return row


def build_all(bundles, scale):
    return [build_series(bundle, scale) for bundle in bundles]


def test_fig4a_pareto_32b(benchmark, rl_sweeps_small, scale):
    runs = benchmark.pedantic(build_all, args=(rl_sweeps_small, scale), rounds=1, iterations=1)

    print(f"\n=== Fig. 4a: '32b' adder Pareto fronts (n={rl_sweeps_small[0]['n']}, "
          "openphysyn-like + nangate45-like) ===")
    rows = []
    for bundle, (series, spent) in zip(rl_sweeps_small, runs):
        print(f"--- seed {bundle['seed']} ---")
        rows.append(compare(series, spent, scale, show=bundle["seed"] == 0))
    median = median_over_seeds("PrefixRL hypervolume ratio and max matched-delay area saving vs each baseline", rows)

    # Shape assertions (lenient at CI scale), on the median over seeds:
    # the RL frontier's hypervolume must at least match every baseline's,
    # and it must show a positive max area saving against each baseline
    # frontier. PS gets 5% slack at CI scale: at the stand-in width the
    # pruned space is nearly the whole space, so exhaustive PS is close to
    # optimal — the paper's decisive RL-over-PS gap appears at 32b/64b
    # where pruning must cut away most of the space.
    for name in BASELINES:
        slack = 0.95 if name == "PS" else 0.99
        assert median[f"hv/{name}"] >= slack, f"PrefixRL hypervolume below {name}"
        assert median[f"save/{name}"] > 0.0, f"no positive matched-delay area saving vs {name}"
    for bundle in rl_sweeps_small:
        print(f"synthesis cache during sweep (seed {bundle['seed']}): {bundle['cache']}")
