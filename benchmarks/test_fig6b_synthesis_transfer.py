"""Fig. 6b — the analytical-to-synthesis ranking inversion.

Paper result (Section V-D): the Fig. 6a winners do not survive synthesis.
The Analytical-PrefixRL and SA designs — dominant under the Moto-Kaneko
model — "do not yield well to synthesis optimizations": after timing-driven
synthesis the PS (and Sklansky) adders reach lower delay at lower area,
and the synthesis-in-the-loop PrefixRL agents beat everything. This is the
paper's core argument for synthesis in the loop.

Each seed pairs Fig. 6a's design sets with the small synthesis sweep of
the same seed; both statements are judged on the median over seeds.
"""

from repro.pareto import bin_by_delay, hypervolume_2d, pareto_front
from repro.synth import synthesize_curve
from repro.utils import scatter_plot

from benchmarks.conftest import curve_series, frontier_design_series, median_over_seeds
from benchmarks.test_fig6a_analytical_pareto import run_all

MAX_DESIGNS_PER_SET = 8


def build_series(archives, bundle, scale):
    library, synthesizer = bundle["library"], bundle["synthesizer"]
    num_points = scale.delay_targets

    series = {}
    for name in ("SA", "Analytical-PrefixRL", "PS"):
        points = []
        for _, _, graph in archives[name].entries()[:MAX_DESIGNS_PER_SET]:
            curve = synthesize_curve(graph, library, synthesizer)
            points.extend(curve_series(curve, num_points))
        series[name] = pareto_front(points)

    series["sklansky"] = curve_series(bundle["regular_curves"]["sklansky"], num_points)
    rl_points, _ = frontier_design_series(bundle, num_points)
    series["PrefixRL(synth)"] = rl_points
    return series


def build_all(fig6_store, bundles, scale):
    if "archives" not in fig6_store:  # Fig. 6b run without Fig. 6a
        fig6_store.update(archives=[archives for _, archives, _ in run_all(scale, bundles[0]["n"])])
    return [build_series(archives, bundle, scale) for archives, bundle in zip(fig6_store["archives"], bundles)]


def inversion(series):
    """One seed's two statistics: synthesis-loop RL's hypervolume over the
    best series', and the lower of PS's and Sklansky's minimum delay over
    Analytical-PrefixRL's."""
    all_points = [p for pts in series.values() for p in pts]
    ref = (max(a for a, _ in all_points) * 1.05, max(d for _, d in all_points) * 1.05)
    hv = {name: hypervolume_2d(pts, ref) for name, pts in series.items()}
    for name, value in sorted(hv.items(), key=lambda kv: -kv[1]):
        print(f"{name:>20s}: hypervolume {value:10.4f}")
    min_delay = {name: min(d for _, d in pts) for name, pts in series.items()}
    return {
        "PrefixRL(synth)/best hv": hv["PrefixRL(synth)"] / max(hv.values()),
        "min delay PS|skl / A-RL": min(min_delay["PS"], min_delay["sklansky"]) / min_delay["Analytical-PrefixRL"],
    }


def test_fig6b_synthesis_transfer(benchmark, fig6_store, rl_sweeps_small, scale):
    runs = benchmark.pedantic(
        build_all, args=(fig6_store, rl_sweeps_small, scale), rounds=1, iterations=1
    )
    print(f"\n=== Fig. 6b: the same design sets after synthesis (n={rl_sweeps_small[0]['n']}) ===")
    print(scatter_plot({n: bin_by_delay(p, scale.delay_targets) for n, p in runs[0].items()}))
    rows = []
    for bundle, series in zip(rl_sweeps_small, runs):
        print(f"--- seed {bundle['seed']} ---")
        rows.append(inversion(series))
    median = median_over_seeds("The inversion at every seed", rows)

    # The inversion, stated leniently, on the median over seeds:
    # 1. Synthesis-in-the-loop PrefixRL is the best series outright.
    assert median["PrefixRL(synth)/best hv"] >= 0.999, "synthesis-loop RL not on top"
    # 2. Analytical-metric winners lose their Fig. 6a advantage after
    #    synthesis: PS or Sklansky must reach a lower minimum delay than
    #    the Analytical-PrefixRL set (the paper's "can achieve lower delay
    #    while maintaining lower area").
    assert median["min delay PS|skl / A-RL"] <= 1.02, "no ranking inversion observed"
