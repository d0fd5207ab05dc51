"""Fig. 5a — cross-library generalization, '32b': commercial tool + 8nm lib.

Paper protocol: take 7 Pareto-optimal PrefixRL adders (trained against
OpenPhySyn + Nangate45), re-synthesize with a commercial tool in an
industrial 8nm library at 12 delay targets, and compare against the regular
adders and the tool's own ("Commercial") adder family. Result: the RL
adders Pareto-dominate Kogge-Stone/Brent-Kung and beat Commercial/Sklansky
everywhere except the lowest delay target.

The baselines do not depend on the seed; the PrefixRL adders come from
every seed of the small sweep, and the transfer check is judged on the
median over seeds.
"""

import numpy as np

from repro.cells import industrial8nm
from repro.pareto import bin_by_delay, fraction_dominated, hypervolume_2d, pareto_front
from repro.prefix import REGULAR_STRUCTURES
from repro.synth import CommercialSynthesizer, commercial_adder_family, synthesize_curve

from benchmarks.conftest import curve_series, median_over_seeds
from repro.utils import scatter_plot

NUM_RL_ADDERS = 7
NUM_TARGETS = 12


def build_baselines(n, lib8, tool):
    series = {}
    for name in ("sklansky", "kogge_stone", "brent_kung"):
        curve = synthesize_curve(REGULAR_STRUCTURES[name](n), lib8, tool)
        series[name] = curve_series(curve, NUM_TARGETS)

    # The tool's own adders: one pick per delay target across its family.
    probe = synthesize_curve(REGULAR_STRUCTURES["sklansky"](n), lib8, tool)
    targets = np.linspace(probe.min_delay * 0.9, probe.max_delay * 1.4, NUM_TARGETS)
    commercial_points = []
    for target in targets:
        _, result = commercial_adder_family(n, float(target), lib8, tool)
        commercial_points.append((result.area, result.delay))
    series["Commercial"] = pareto_front(commercial_points)
    return series


def rl_series(bundle, lib8, tool):
    """7 Pareto-optimal PrefixRL adders from the Nangate45 training sweep,
    re-synthesized under the new tool/library."""
    rl_designs = [g for _, _, g in bundle["archive"].entries()][:NUM_RL_ADDERS]
    rl_points = []
    for graph in rl_designs:
        curve = synthesize_curve(graph, lib8, tool)
        rl_points.extend(curve_series(curve, NUM_TARGETS))
    return pareto_front(rl_points)


def build_series(bundles):
    lib8 = industrial8nm()
    tool = CommercialSynthesizer()
    baselines = build_baselines(bundles[0]["n"], lib8, tool)
    return [{**baselines, "PrefixRL": rl_series(bundle, lib8, tool)} for bundle in bundles]


def compare(series):
    """One seed's PrefixRL hypervolume ratio vs each baseline and dominated
    fraction of the Commercial frontier."""
    rl = series["PrefixRL"]
    all_points = [p for pts in series.values() for p in pts]
    ref = (max(a for a, _ in all_points) * 1.05, max(d for _, d in all_points) * 1.05)
    rl_hv = hypervolume_2d(rl, ref)
    row = {
        f"hv/{name}": rl_hv / max(hypervolume_2d(pts, ref), 1e-9)
        for name, pts in series.items()
        if name != "PrefixRL"
    }
    row["dominated/Commercial"] = fraction_dominated(rl, series["Commercial"], eps=1e-9)
    return row


def test_fig5a_crosslib_32b(benchmark, rl_sweeps_small, scale):
    runs = benchmark.pedantic(build_series, args=(rl_sweeps_small,), rounds=1, iterations=1)
    print(f"\n=== Fig. 5a: '32b' cross-library transfer (n={rl_sweeps_small[0]['n']}, "
          f"commercial tool + industrial-8nm lib, up to {NUM_RL_ADDERS} RL adders per seed) ===")
    print(scatter_plot({n: bin_by_delay(p, NUM_TARGETS) for n, p in runs[0].items()}))
    median = median_over_seeds(
        "PrefixRL hypervolume ratio vs each baseline, dominated fraction of Commercial",
        [compare(series) for series in runs],
    )

    # Shape, on the median over seeds: training-library adders must
    # transfer — at least match the hypervolume of every regular baseline,
    # and dominate a majority of the Commercial frontier (the paper allows
    # losing the lowest delay point).
    for name in ("kogge_stone", "brent_kung"):
        assert median[f"hv/{name}"] >= 0.98
    assert median["dominated/Commercial"] >= 0.5 or median["hv/Commercial"] >= 0.98
