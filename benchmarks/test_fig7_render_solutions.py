"""Fig. 7 — renderings of learnt Pareto-frontier solutions.

The paper shows four 64b PrefixRL prefix graphs. This bench renders the
large-width sweep's frontier designs as prefix-network diagrams, spanning
the area-delay trade-off from the smallest (ripple-like) to the fastest
(dense, Sklansky/Kogge-Stone-like) end.
"""

from repro.analytical import evaluate_analytical
from repro.prefix import render_network

NUM_RENDERED = 4


def collect_designs(bundle):
    entries = bundle["archive"].entries()
    if len(entries) <= NUM_RENDERED:
        return entries
    # Spread picks across the frontier, fastest to smallest.
    step = (len(entries) - 1) / (NUM_RENDERED - 1)
    return [entries[round(i * step)] for i in range(NUM_RENDERED)]


def test_fig7_render_solutions(benchmark, rl_sweep_large):
    designs = benchmark.pedantic(collect_designs, args=(rl_sweep_large,), rounds=1, iterations=1)

    print(f"\n=== Fig. 7: learnt '64b' PrefixRL solutions (n={rl_sweep_large['n']}) ===")
    for area, delay, graph in designs:
        print(f"\n--- design @ synthesized area {area:.1f} um2, delay {delay:.4f} ns ---")
        print(render_network(graph))

    assert 1 <= len(designs) <= NUM_RENDERED
    # The frontier must span a real trade-off: its ends differ in structure.
    graphs = [g for _, _, g in designs]
    sizes = [g.num_compute_nodes for g in graphs]
    depths = [g.depth() for g in graphs]
    assert all(g.is_legal() for g in graphs)
    if len(graphs) > 1:
        assert max(sizes) > min(sizes) or max(depths) > min(depths)
        # Denser designs should be analytically faster: the trade-off is real.
        metrics = [evaluate_analytical(g) for g in graphs]
        areas = [m.area for m in metrics]
        assert max(areas) > min(areas)
