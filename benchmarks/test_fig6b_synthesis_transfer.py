"""Fig. 6b — the analytical-to-synthesis ranking inversion.

Paper result (Section V-D): the Fig. 6a winners do not survive synthesis.
The Analytical-PrefixRL and SA designs — dominant under the Moto-Kaneko
model — "do not yield well to synthesis optimizations": after timing-driven
synthesis the PS (and Sklansky) adders reach lower delay at lower area,
and the synthesis-in-the-loop PrefixRL agents beat everything. This is the
paper's core argument for synthesis in the loop.
"""

from repro.pareto import bin_by_delay, hypervolume_2d, pareto_front
from repro.synth import synthesize_curve
from repro.utils import scatter_plot

from benchmarks.conftest import curve_series, frontier_design_series
from benchmarks.test_fig6a_analytical_pareto import run_fig6a

MAX_DESIGNS_PER_SET = 8


def build_series(fig6_store, bundle, scale):
    if "archives" not in fig6_store:
        series, archives, _ = run_fig6a(scale, bundle["n"])
        fig6_store.update(series=series, archives=archives, n=bundle["n"])
    archives = fig6_store["archives"]
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


def test_fig6b_synthesis_transfer(benchmark, fig6_store, rl_sweep_small, scale):
    series = benchmark.pedantic(
        build_series, args=(fig6_store, rl_sweep_small, scale), rounds=1, iterations=1
    )
    binned = {n: bin_by_delay(p, scale.delay_targets) for n, p in series.items()}
    print(f"\n=== Fig. 6b: the same design sets after synthesis (n={rl_sweep_small['n']}) ===")
    print(scatter_plot(binned))

    all_points = [p for pts in series.values() for p in pts]
    ref = (max(a for a, _ in all_points) * 1.05, max(d for _, d in all_points) * 1.05)
    hv = {name: hypervolume_2d(pts, ref) for name, pts in series.items()}
    for name, value in sorted(hv.items(), key=lambda kv: -kv[1]):
        print(f"{name:>20s}: hypervolume {value:10.4f}")

    # The inversion, stated leniently:
    # 1. Synthesis-in-the-loop PrefixRL is the best series outright.
    best = max(hv, key=hv.get)
    assert hv["PrefixRL(synth)"] >= hv[best] * 0.999, (
        f"synthesis-loop RL not on top: {hv}"
    )
    # 2. Analytical-metric winners lose their Fig. 6a advantage after
    #    synthesis: PS or Sklansky must reach a lower minimum delay than
    #    the Analytical-PrefixRL set (the paper's "can achieve lower delay
    #    while maintaining lower area").
    min_delay = {name: min(d for _, d in pts) for name, pts in series.items()}
    assert min(min_delay["PS"], min_delay["sklansky"]) <= min_delay[
        "Analytical-PrefixRL"
    ] * 1.02, f"no ranking inversion observed: {min_delay}"
