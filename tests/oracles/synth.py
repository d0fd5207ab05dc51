"""Reference optimizer path (executable specification).

Preserves the pre-``TimingGraph`` greedy optimizer verbatim — every pass
re-running a full dict-based STA per candidate move, via
:func:`tests.oracles.sta.analyze_timing_reference` — so the incremental
engine in :mod:`repro.synth.optimizer` can be regression-tested for
*byte-identical* results: same accepted moves, same final netlist, same
curve samples. ``tests/synth/test_optimizer_equivalence.py`` pins
:func:`synthesize_curve_reference` against the production
:func:`repro.synth.synthesize_curve` at n=8/16.

Nothing here runs on a hot path.
"""

from __future__ import annotations

import numpy as np

from repro.cells.library import CellLibrary
from repro.netlist.adder import prefix_adder_netlist
from repro.netlist.cleanup import remove_dead_logic
from repro.netlist.ir import Netlist
from repro.prefix.graph import PrefixGraph
from tests.oracles.sta import analyze_timing_reference as analyze_timing
from repro.sta.timing import TimingReport, net_load
from repro.synth.curve import NUM_TARGETS, AreaDelayCurve
from repro.synth.optimizer import SynthesisResult


def _copy(netlist: Netlist) -> Netlist:
    """An independent copy with the same ports, instance order and name counter."""
    nl = Netlist(netlist.name, netlist.library)
    for net in netlist.inputs:
        nl.add_input(net)
    for name, inst in netlist.instances.items():
        nl.add_instance(inst.cell, inst.pins, name=name)
    for net in netlist.outputs:
        nl.add_output(net)
    nl._counter = netlist._counter
    return nl


class ReferenceSynthesizer:
    """The original greedy optimizer: full STA per candidate trial.

    Constructor arguments match :class:`repro.synth.Synthesizer`.
    """

    def __init__(
        self,
        name: str = "openphysyn",
        max_sizing_moves: int = 60,
        max_rounds: int = 3,
        fanout_threshold: int = 5,
        clone_threshold: int = 3,
        enable_buffering: bool = True,
        enable_cloning: bool = True,
        enable_pin_swap: bool = True,
        recovery_passes: int = 2,
    ):
        self.name = name
        self.max_sizing_moves = max_sizing_moves
        self.max_rounds = max_rounds
        self.fanout_threshold = fanout_threshold
        self.clone_threshold = clone_threshold
        self.enable_buffering = enable_buffering
        self.enable_cloning = enable_cloning
        self.enable_pin_swap = enable_pin_swap
        self.recovery_passes = recovery_passes

    def optimize(self, netlist: Netlist, target: float) -> SynthesisResult:
        """Optimize a copy of ``netlist`` toward ``target`` (ns)."""
        nl = _copy(netlist)
        moves = {"pin_swap": 0, "size_up": 0, "buffer": 0, "clone": 0, "size_down": 0}

        if self.enable_pin_swap:
            moves["pin_swap"] += self._pin_swap_pass(nl)

        report = analyze_timing(nl, target)
        for _ in range(self.max_rounds):
            if report.wns >= 0:
                break
            before = report.delay
            report, accepted = self._sizing_pass(nl, target, report)
            moves["size_up"] += accepted
            if report.wns < 0 and self.enable_buffering:
                report, accepted = self._buffering_pass(nl, target, report)
                moves["buffer"] += accepted
            if report.wns < 0 and self.enable_cloning:
                report, accepted = self._cloning_pass(nl, target, report)
                moves["clone"] += accepted
            if report.delay >= before - 1e-12:
                break

        for _ in range(self.recovery_passes):
            report, accepted = self._recovery_pass(nl, target, report)
            moves["size_down"] += accepted
            if not accepted:
                break

        remove_dead_logic(nl)
        report = analyze_timing(nl, target)
        return SynthesisResult(
            area=nl.area(),
            delay=report.delay,
            target=target,
            met=report.wns >= 0,
            netlist=nl,
            moves=moves,
        )

    def _pin_swap_pass(self, nl: Netlist) -> int:
        report = analyze_timing(nl)
        swaps = 0
        for name in sorted(nl.instances):
            inst = nl.instances[name]
            for group in inst.cell.spec.commutative_groups:
                if len(group) != 2:
                    continue
                pin_a, pin_b = group
                fast, slow = sorted(group, key=lambda p: inst.cell.intrinsics[p])
                arr_fast = report.arrival[inst.pins[fast]]
                arr_slow = report.arrival[inst.pins[slow]]
                if arr_slow > arr_fast:
                    nl.swap_pins(name, pin_a, pin_b)
                    swaps += 1
        return swaps

    def _upsize_gain(self, nl: Netlist, name: str) -> float:
        inst = nl.instances[name]
        bigger = nl.library.next_size_up(inst.cell)
        if bigger is None:
            return -1.0
        load = net_load(nl, inst.output_net)
        gain = (inst.cell.resistance - bigger.resistance) * load
        for pin, net in inst.input_nets():
            drv = nl.driver_of(net)
            if drv is None:
                continue
            extra_cap = bigger.input_caps[pin] - inst.cell.input_caps[pin]
            gain -= nl.instances[drv].cell.resistance * extra_cap
        return gain

    def _sizing_pass(
        self, nl: Netlist, target: float, report: TimingReport
    ) -> "tuple[TimingReport, int]":
        accepted = 0
        rejected: "set[tuple[str, str]]" = set()
        while accepted < self.max_sizing_moves and report.wns < 0:
            candidates = []
            for name in report.critical_path:
                inst = nl.instances[name]
                bigger = nl.library.next_size_up(inst.cell)
                if bigger is None or (name, bigger.name) in rejected:
                    continue
                candidates.append((self._upsize_gain(nl, name), name, bigger))
            candidates = [c for c in candidates if c[0] > 0]
            if not candidates:
                break
            candidates.sort(key=lambda c: (-c[0], c[1]))
            _, name, bigger = candidates[0]
            old_cell = nl.instances[name].cell
            nl.replace_cell(name, bigger)
            trial = analyze_timing(nl, target)
            if trial.delay < report.delay - 1e-12:
                report = trial
                accepted += 1
            else:
                nl.replace_cell(name, old_cell)
                rejected.add((name, bigger.name))
        return report, accepted

    def _buffering_pass(
        self, nl: Netlist, target: float, report: TimingReport
    ) -> "tuple[TimingReport, int]":
        accepted = 0
        critical_insts = set(report.critical_path)
        for name in list(report.critical_path):
            inst = nl.instances[name]
            net = inst.output_net
            sinks = nl.sinks_of(net)
            if len(sinks) <= self.fanout_threshold:
                continue
            critical_sinks = [s for s in sinks if s[0] in critical_insts]
            offload = [s for s in sinks if s[0] not in critical_insts]
            if not offload or not critical_sinks:
                continue
            buf_cell = nl.library.pick("BUF", min(4, nl.library.variants("BUF")[-1].drive))
            buf_out = nl.fresh_net("bufnet")
            buf = nl.add_instance(buf_cell, {"A": net, buf_cell.output_pin: buf_out})
            for sink_name, pin in offload:
                nl.rewire_sink(sink_name, pin, buf_out)
            trial = analyze_timing(nl, target)
            if trial.delay < report.delay - 1e-12:
                report = trial
                accepted += 1
            else:
                for sink_name, pin in offload:
                    nl.rewire_sink(sink_name, pin, net)
                nl.remove_instance(buf.name)
            if report.wns >= 0:
                break
        return report, accepted

    def _cloning_pass(
        self, nl: Netlist, target: float, report: TimingReport
    ) -> "tuple[TimingReport, int]":
        accepted = 0
        critical_insts = set(report.critical_path)
        for name in list(report.critical_path):
            inst = nl.instances.get(name)
            if inst is None or inst.cell.function == "BUF":
                continue
            net = inst.output_net
            if net in nl.outputs:
                continue
            sinks = nl.sinks_of(net)
            if len(sinks) <= self.clone_threshold:
                continue
            offload = [s for s in sinks if s[0] not in critical_insts]
            if not offload or len(offload) == len(sinks):
                continue
            clone_out = nl.fresh_net("clone")
            pins = dict(inst.pins)
            pins[inst.cell.output_pin] = clone_out
            clone = nl.add_instance(inst.cell, pins)
            for sink_name, pin in offload:
                nl.rewire_sink(sink_name, pin, clone_out)
            trial = analyze_timing(nl, target)
            if trial.delay < report.delay - 1e-12:
                report = trial
                accepted += 1
            else:
                for sink_name, pin in offload:
                    nl.rewire_sink(sink_name, pin, net)
                nl.remove_instance(clone.name)
            if report.wns >= 0:
                break
        return report, accepted

    def _recovery_pass(
        self, nl: Netlist, target: float, report: TimingReport
    ) -> "tuple[TimingReport, int]":
        accepted = 0
        baseline_delay = report.delay
        names = sorted(
            nl.instances,
            key=lambda n: -report.slack.get(nl.instances[n].output_net, 0.0),
        )
        for name in names:
            inst = nl.instances.get(name)
            if inst is None:
                continue
            smaller = nl.library.next_size_down(inst.cell)
            if smaller is None:
                continue
            slack = report.slack.get(inst.output_net, 0.0)
            if report.wns >= 0 and slack <= 0:
                continue
            old_cell = inst.cell
            nl.replace_cell(name, smaller)
            trial = analyze_timing(nl, target)
            ok = trial.wns >= 0 if report.wns >= 0 else trial.delay <= baseline_delay + 1e-12
            if ok:
                report = trial
                accepted += 1
            else:
                nl.replace_cell(name, old_cell)
        return report, accepted


def synthesize_curve_reference(
    graph: PrefixGraph,
    library: CellLibrary,
    synthesizer: "ReferenceSynthesizer | None" = None,
    num_targets: int = NUM_TARGETS,
) -> AreaDelayCurve:
    """The original per-target curve pipeline over :class:`ReferenceSynthesizer`."""
    if synthesizer is None:
        synthesizer = ReferenceSynthesizer()
    netlist = prefix_adder_netlist(graph, library)

    fast = synthesizer.optimize(netlist, target=0.0)
    samples = [(fast.delay, fast.area)]
    relaxed_target = max(fast.delay * 4.0, 1e-3)
    relaxed = synthesizer.optimize(netlist, target=relaxed_target)
    samples.append((relaxed.delay, relaxed.area))

    lo, hi = fast.delay, max(relaxed.delay, fast.delay * 1.01)
    for frac in np.linspace(0, 1, num_targets)[1:-1]:
        target = float(lo + (hi - lo) * frac)
        result = synthesizer.optimize(netlist, target=target)
        samples.append((result.delay, result.area))

    return AreaDelayCurve(samples)
