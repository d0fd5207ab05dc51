#!/usr/bin/env python
"""Cross-library generalization — the Fig. 5 experiment at example scale.

Takes designs discovered against the open tool/library (here: the pruned
search set plus the regular structures, so the example runs in seconds
without an RL sweep), re-synthesizes them with the commercial-grade tool in
the industrial-8nm-like library, and compares them against the commercial
tool's own adder family.

Run: ``python examples/cross_library_transfer.py [width]``
"""

import sys

import numpy as np

from repro.baselines import pruned_designs
from repro.cells import industrial8nm, nangate45
from repro.pareto import bin_by_delay, fraction_dominated, pareto_front
from repro.prefix import REGULAR_STRUCTURES
from repro.synth import (
    CommercialSynthesizer,
    commercial_adder_family,
    synthesize_curve,
)
from repro.utils import scatter_plot


def main(n: int = 8):
    lib8 = industrial8nm()
    tool = CommercialSynthesizer()

    print(f"Selecting {n}b designs on the open library (nangate45-like)...")
    open_lib = nangate45()
    candidates, _ = pruned_designs(n, max_designs=40)
    scored = []
    for graph in candidates:
        curve = synthesize_curve(graph, open_lib)
        scored.append((curve.area_at(curve.max_delay), curve.min_delay, graph))
    front = pareto_front([(a, d) for a, d, _ in scored])
    picked = [g for a, d, g in scored if (a, d) in set(front)][:7]
    print(f"  {len(picked)} Pareto-optimal designs picked from {len(candidates)} candidates")

    print("Re-synthesizing under the commercial tool + industrial 8nm library...")
    transfer_points = []
    for graph in picked:
        curve = synthesize_curve(graph, lib8, tool)
        ds = np.linspace(curve.min_delay, curve.max_delay, 8)
        transfer_points.extend((curve.area_at(float(d)), float(d)) for d in ds)

    print("Building the tool's own adder series...")
    probe = synthesize_curve(REGULAR_STRUCTURES["sklansky"](n), lib8, tool)
    commercial_points = []
    for target in np.linspace(probe.min_delay * 0.9, probe.max_delay * 1.3, 8):
        name, result = commercial_adder_family(n, float(target), lib8, tool)
        commercial_points.append((result.area, result.delay))
        print(f"  target {target:.4f} ns -> {name:>13s}: "
              f"area {result.area:5.2f} um2, delay {result.delay:.4f} ns")

    series = {
        "Commercial": pareto_front(commercial_points),
        "Transferred": pareto_front(transfer_points),
    }
    print(scatter_plot({k: bin_by_delay(v, 10) for k, v in series.items()}))
    frac = fraction_dominated(series["Transferred"], series["Commercial"], eps=1e-9)
    print(f"fraction of the Commercial frontier dominated by transferred designs: {frac:.2f}")
    print("(the paper's Fig. 5: RL adders win everywhere except the lowest delay target)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
