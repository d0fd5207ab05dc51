"""Reference static timing analysis (executable specification).

This module preserves the original dict-of-objects implementation of
:func:`analyze_timing` verbatim, as the oracle the array-backed
:class:`repro.sta.graph.TimingGraph` engine is property-tested against:
the optimized engine must be *bit-identical* — same delays, same worst
arcs, same required times — on full analyses and after arbitrary
incremental move sequences (see ``tests/sta/test_timing_graph.py``).

Like :mod:`tests.oracles.prefix`, nothing here is used on a hot path;
it exists so the fast code can be checked against the code that actually
shipped before, not a strawman.
"""

from __future__ import annotations

from repro.netlist.ir import Netlist
from repro.sta.timing import TimingReport, net_load


def analyze_timing_reference(
    netlist: Netlist,
    target: "float | None" = None,
    input_arrivals: "dict[str, float] | None" = None,
) -> TimingReport:
    """The original per-instance dict traversal; see :class:`TimingReport`."""
    arrival: "dict[str, float]" = {net: 0.0 for net in netlist.inputs}
    if input_arrivals:
        unknown = set(input_arrivals) - set(netlist.inputs)
        if unknown:
            raise ValueError(f"input_arrivals for non-input nets: {sorted(unknown)}")
        arrival.update(input_arrivals)
    loads: "dict[str, float]" = {}
    order = netlist.topological_order()

    # Forward pass: arrival times. Track each net's worst contributing
    # (instance, input net) so critical-path extraction is a direct walk.
    worst_arc: "dict[str, tuple[str, str]]" = {}
    for name in order:
        inst = netlist.instances[name]
        out = inst.output_net
        load = loads.get(out)
        if load is None:
            load = net_load(netlist, out)
            loads[out] = load
        best = -1.0
        best_src = None
        for pin, net in inst.input_nets():
            t = arrival[net] + inst.cell.arc_delay(pin, load)
            if t > best:
                best = t
                best_src = net
        arrival[out] = best
        worst_arc[out] = (name, best_src)

    if netlist.outputs:
        worst_out = max(netlist.outputs, key=lambda n: arrival[n])
        delay = arrival[worst_out]
    else:
        worst_out = None
        delay = 0.0

    critical_path: "list[str]" = []
    net = worst_out
    while net is not None and net in worst_arc:
        inst_name, src = worst_arc[net]
        critical_path.append(inst_name)
        net = src
    critical_path.reverse()

    required: "dict[str, float]" = {}
    slack: "dict[str, float]" = {}
    wns = float("inf")
    if target is not None:
        for net_name in netlist.outputs:
            required[net_name] = target
        for name in reversed(order):
            inst = netlist.instances[name]
            out = inst.output_net
            req_out = required.get(out, float("inf"))
            load = loads[out]
            for pin, net_name in inst.input_nets():
                cand = req_out - inst.cell.arc_delay(pin, load)
                prev = required.get(net_name, float("inf"))
                if cand < prev:
                    required[net_name] = cand
        for net_name, arr in arrival.items():
            slack[net_name] = required.get(net_name, float("inf")) - arr
        wns = target - delay

    return TimingReport(
        delay=delay,
        target=target,
        wns=wns,
        arrival=arrival,
        required=required,
        slack=slack,
        critical_path=critical_path,
        area=netlist.area(),
    )
