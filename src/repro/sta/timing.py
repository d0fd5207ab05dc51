"""Forward/backward static timing analysis."""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.ir import Netlist


@dataclass
class TimingReport:
    """Result of one timing analysis.

    Attributes:
        delay: worst arrival over primary outputs (ns).
        target: the required time used for slacks (None = unconstrained).
        wns: worst negative slack (``target - delay``; +inf if no target).
        arrival: net -> arrival time.
        required: net -> required time (empty if no target).
        slack: net -> required - arrival (empty if no target).
        critical_path: instance names from the path's first gate to the
            gate driving the worst output.
        area: netlist cell area at analysis time (convenience for loggers).
    """

    delay: float
    target: "float | None"
    wns: float
    arrival: "dict[str, float]"
    required: "dict[str, float]"
    slack: "dict[str, float]"
    critical_path: "list[str]"
    area: float

    def instance_slack(self, netlist: Netlist, name: str) -> float:
        """Slack of an instance = slack of its output net."""
        if not self.slack:
            raise ValueError("analysis ran without a target; no slacks available")
        return self.slack[netlist.instances[name].output_net]


def net_load(netlist: Netlist, net: str) -> float:
    """Capacitive load on ``net``: pin caps + wire cap + port cap (fF)."""
    lib = netlist.library
    sinks = netlist.sinks_of(net)
    load = lib.wire_cap_per_fanout * len(sinks)
    for inst_name, pin in sinks:
        load += netlist.instances[inst_name].cell.input_caps[pin]
    if netlist.is_output(net):
        load += lib.output_port_cap
    return load


def analyze_timing(
    netlist: Netlist,
    target: "float | None" = None,
    input_arrivals: "dict[str, float] | None" = None,
) -> TimingReport:
    """Run STA; see :class:`TimingReport`.

    Arrival at primary inputs defaults to 0 (the paper's uniform arrival);
    ``input_arrivals`` overrides per input, enabling the nonuniform timing
    constraints the paper lists as future work (Section VI). If ``target``
    is given, required times and slacks are computed and ``wns`` reflects
    the worst output.

    One compile and one report of :class:`repro.sta.graph.TimingGraph`;
    bit-identical to the original traversal preserved in
    ``tests/oracles/sta.py``. The netlist is only read. Callers that
    re-analyze after small edits should hold a ``TimingGraph`` and make
    the edits through its move methods instead of calling this repeatedly.
    """
    from repro.sta.graph import TimingGraph

    return TimingGraph(netlist, target=target, input_arrivals=input_arrivals).report()
