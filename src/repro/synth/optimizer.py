"""Timing-driven netlist optimization (the OpenPhySyn stand-in).

The paper (Section IV-D): "We use the OpenPhySyn physical synthesis tool for
optimizations such as gate sizing, gate cloning, buffer insertion and pin
swapping". This module implements those four transforms plus area recovery
as greedy, STA-verified moves:

1. **Pin swapping** — within commutative pin groups, the latest-arriving
   signal moves to the fastest arc.
2. **Gate sizing** — critical-path cells are upsized one drive step at a
   time, candidates ranked by an analytic gain estimate and accepted only
   if measured WNS improves.
3. **Buffer insertion** — high-fanout critical nets keep their critical
   sinks direct and push the rest behind a buffer.
4. **Gate cloning** — critical multi-fanout cells are duplicated and the
   non-critical sinks handed to the clone.
5. **Area recovery** — off-critical cells are downsized while the target
   still holds.

All moves are deterministic (sorted iteration, name tie-breaks) so synthesis
results — and therefore RL rewards — are reproducible.

Since the :class:`repro.sta.TimingGraph` rewrite, one run compiles the
netlist into the array engine once and applies/reverts every candidate
move incrementally — the accept/reject check costs O(affected cone), not
O(netlist). :meth:`Synthesizer.prepare` exposes the compiled, pin-swapped
state so :func:`repro.synth.synthesize_curve` can fork it per delay target
instead of recompiling; results are byte-identical to the original
full-STA-per-trial path preserved in ``tests/oracles/synth.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.cleanup import remove_dead_logic
from repro.netlist.ir import Netlist
from repro.sta.graph import TimingGraph


@dataclass
class SynthesisResult:
    """Outcome of one optimization run at one delay target."""

    area: float
    delay: float
    target: float
    met: bool
    netlist: Netlist
    moves: "dict[str, int]" = field(default_factory=dict)

    def __repr__(self) -> str:
        status = "met" if self.met else "VIOLATED"
        return (
            f"SynthesisResult(target={self.target:.4f}, delay={self.delay:.4f}, "
            f"area={self.area:.2f}, {status})"
        )


@dataclass
class PreparedDesign:
    """A pin-swapped netlist clone with its compiled timing graph.

    Produced by :meth:`Synthesizer.prepare`; immutable from the caller's
    point of view — every :meth:`Synthesizer.optimize_prepared` call forks
    it, so one prepared design serves any number of delay targets.
    """

    tg: TimingGraph
    pin_swaps: int


class Synthesizer:
    """Greedy timing-driven optimizer with incrementally STA-verified moves.

    Args:
        name: tool identifier (part of synthesis-cache keys).
        max_sizing_moves: accepted upsizes per optimization run.
        max_rounds: sizing/buffering/cloning rounds before giving up.
        fanout_threshold: nets wider than this are buffering candidates.
        clone_threshold: critical cells with more sinks than this may clone.
        enable_buffering / enable_cloning / enable_pin_swap: pass toggles
            (exposed for the ablation benchmarks).
        recovery_passes: sweeps of downsizing after timing closes.
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

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def prepare(self, netlist: Netlist) -> PreparedDesign:
        """Clone, pin-swap and compile ``netlist`` once, for reuse across targets.

        Pin swapping is target-independent, so the swapped + compiled state
        is shared by every target of a curve; the original netlist is never
        mutated.
        """
        nl = netlist.clone()
        tg = TimingGraph(nl)
        swaps = self._pin_swap_pass(tg) if self.enable_pin_swap else 0
        return PreparedDesign(tg=tg, pin_swaps=swaps)

    def optimize(self, netlist: Netlist, target: float) -> SynthesisResult:
        """Optimize a copy of ``netlist`` toward ``target`` (ns)."""
        return self.optimize_prepared(self.prepare(netlist), target)

    def optimize_prepared(self, prepared: PreparedDesign, target: float) -> SynthesisResult:
        """Run the greedy passes against a fork of a prepared design."""
        tg = prepared.tg.fork(target=target)
        nl = tg.nl
        moves = {
            "pin_swap": prepared.pin_swaps,
            "size_up": 0,
            "buffer": 0,
            "clone": 0,
            "size_down": 0,
        }

        for _ in range(self.max_rounds):
            if tg.wns >= 0:
                break
            before = tg.delay
            moves["size_up"] += self._sizing_pass(tg)
            if tg.wns < 0 and self.enable_buffering:
                moves["buffer"] += self._buffering_pass(tg)
            if tg.wns < 0 and self.enable_cloning:
                moves["clone"] += self._cloning_pass(tg)
            if tg.delay >= before - 1e-12:
                break

        for _ in range(self.recovery_passes):
            accepted = self._recovery_pass(tg)
            moves["size_down"] += accepted
            if not accepted:
                break

        # Removing through the graph keeps the analysis live (dropped
        # sinks lighten their nets, which re-times the fanin cones), so
        # the final delay/WNS need no recompile.
        remove_dead_logic(nl, remove=tg.remove_instance)
        return SynthesisResult(
            area=nl.area(),
            delay=tg.delay,
            target=target,
            met=tg.wns >= 0,
            netlist=nl,
            moves=moves,
        )

    # ------------------------------------------------------------------
    # Pin swapping
    # ------------------------------------------------------------------

    def _pin_swap_pass(self, tg: TimingGraph) -> int:
        """Assign later-arriving nets to faster pins within commutative groups.

        Decisions read one arrival snapshot (the pass does not re-analyze
        between swaps — same as the reference pass); the engine re-times
        the swapped cones lazily afterwards.
        """
        nl = tg.nl
        arrival = tg.report().arrival
        swaps = 0
        for name in sorted(nl.instances):
            inst = nl.instances[name]
            for group in inst.cell.spec.commutative_groups:
                if len(group) != 2:
                    continue
                pin_a, pin_b = group
                # Fast pin should carry the late net.
                fast, slow = sorted(group, key=lambda p: inst.cell.intrinsics[p])
                arr_fast = arrival[inst.pins[fast]]
                arr_slow = arrival[inst.pins[slow]]
                if arr_slow > arr_fast:
                    tg.swap_pins(name, pin_a, pin_b)
                    swaps += 1
        return swaps

    # ------------------------------------------------------------------
    # Gate sizing
    # ------------------------------------------------------------------

    def _upsize_gain(self, tg: TimingGraph, name: str) -> float:
        """Analytic benefit estimate of one upsize step (ns saved)."""
        nl = tg.nl
        inst = nl.instances[name]
        bigger = nl.library.next_size_up(inst.cell)
        if bigger is None:
            return -1.0
        load = tg.load_of(inst.output_net)
        gain = (inst.cell.resistance - bigger.resistance) * load
        # Penalty: heavier input pins slow the driver of each input net.
        for pin, net in inst.input_nets():
            drv = nl.driver_of(net)
            if drv is None:
                continue
            extra_cap = bigger.input_caps[pin] - inst.cell.input_caps[pin]
            gain -= nl.instances[drv].cell.resistance * extra_cap
        return gain

    def _sizing_pass(self, tg: TimingGraph) -> int:
        """Greedy critical-path upsizing with incrementally measured accept/revert."""
        nl = tg.nl
        accepted = 0
        rejected: "set[tuple[str, str]]" = set()
        while accepted < self.max_sizing_moves and tg.wns < 0:
            candidates = []
            for name in tg.critical_path():
                inst = nl.instances[name]
                bigger = nl.library.next_size_up(inst.cell)
                if bigger is None or (name, bigger.name) in rejected:
                    continue
                candidates.append((self._upsize_gain(tg, name), name, bigger))
            candidates = [c for c in candidates if c[0] > 0]
            if not candidates:
                break
            candidates.sort(key=lambda c: (-c[0], c[1]))
            _, name, bigger = candidates[0]
            old_cell = nl.instances[name].cell
            prev_delay = tg.delay
            tg.replace_cell(name, bigger)
            if tg.delay < prev_delay - 1e-12:
                accepted += 1
            else:
                tg.replace_cell(name, old_cell)
                rejected.add((name, bigger.name))
        return accepted

    # ------------------------------------------------------------------
    # Buffer insertion
    # ------------------------------------------------------------------

    def _buffering_pass(self, tg: TimingGraph) -> int:
        """Shield non-critical sinks of critical high-fanout nets behind a buffer."""
        nl = tg.nl
        accepted = 0
        path = tg.critical_path()
        critical_insts = set(path)
        for name in list(path):
            inst = nl.instances[name]
            net = inst.output_net
            sinks = nl.sinks_of(net)
            if len(sinks) <= self.fanout_threshold:
                continue
            # Critical sinks: those feeding critical-path instances.
            critical_sinks = [s for s in sinks if s[0] in critical_insts]
            offload = [s for s in sinks if s[0] not in critical_insts]
            if not offload or not critical_sinks:
                continue
            buf_cell = nl.library.pick("BUF", min(4, nl.library.variants("BUF")[-1].drive))
            buf_out = nl.fresh_net("bufnet")
            prev_delay = tg.delay
            buf = tg.add_instance(buf_cell, {"A": net, buf_cell.output_pin: buf_out})
            for sink_name, pin in offload:
                tg.rewire_sink(sink_name, pin, buf_out)
            if tg.delay < prev_delay - 1e-12:
                accepted += 1
            else:
                for sink_name, pin in offload:
                    tg.rewire_sink(sink_name, pin, net)
                tg.remove_instance(buf.name)
            if tg.wns >= 0:
                break
        return accepted

    # ------------------------------------------------------------------
    # Gate cloning
    # ------------------------------------------------------------------

    def _cloning_pass(self, tg: TimingGraph) -> int:
        """Duplicate critical multi-fanout cells; clone serves non-critical sinks."""
        nl = tg.nl
        accepted = 0
        path = tg.critical_path()
        critical_insts = set(path)
        for name in list(path):
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
            prev_delay = tg.delay
            clone = tg.add_instance(inst.cell, pins)
            for sink_name, pin in offload:
                tg.rewire_sink(sink_name, pin, clone_out)
            if tg.delay < prev_delay - 1e-12:
                accepted += 1
            else:
                for sink_name, pin in offload:
                    tg.rewire_sink(sink_name, pin, net)
                tg.remove_instance(clone.name)
            if tg.wns >= 0:
                break
        return accepted

    # ------------------------------------------------------------------
    # Area recovery
    # ------------------------------------------------------------------

    def _recovery_pass(self, tg: TimingGraph) -> int:
        """Downsize off-critical cells while the achieved delay holds.

        When the target is met, any move keeping WNS >= 0 is accepted; when
        it is not met (infeasible target), moves must not worsen the delay.

        Slack-driven: candidates are visited in descending slack-margin
        order (one slack map at pass start, exactly as the reference
        loop preserved in ``tests/oracles/synth.py`` sorts them), but
        per-candidate gating reads :meth:`TimingGraph.slack_of` — after
        an accepted downsize the engine's incremental backward worklist
        re-examines only the nets whose required time actually changed,
        instead of the reference's full ``slack_map()`` rebuild per
        accept. Cells whose positive slack provably cannot absorb the
        downsize delta are skipped via
        :meth:`TimingGraph.downsize_rejected` before any trial mutation.
        Both shortcuts are bit-identity-safe (rejected trials revert
        exactly; the prune only fires on proofs), so the accept/reject
        sequence — and therefore the final netlist — matches the
        reference oracle move for move (property-tested in
        ``tests/synth/test_recovery_equivalence.py``).
        """
        nl = tg.nl
        accepted = 0
        baseline_delay = tg.delay
        slacks = tg.slack_map()
        names = sorted(
            nl.instances,
            key=lambda n: -slacks.get(nl.instances[n].output_net, 0.0),
        )
        for name in names:
            inst = nl.instances.get(name)
            if inst is None:
                continue
            smaller = nl.library.next_size_down(inst.cell)
            if smaller is None:
                continue
            was_met = tg.wns >= 0
            if was_met:
                # Same gate as the reference: its slack dict is rebuilt on
                # every accept, so the dict lookup it performs here always
                # equals the engine's current (incrementally repaired) slack.
                if tg.slack_of(inst.output_net) <= 0:
                    continue
                if tg.downsize_rejected(name, smaller):
                    continue
            old_cell = inst.cell
            tg.replace_cell(name, smaller)
            ok = tg.wns >= 0 if was_met else tg.delay <= baseline_delay + 1e-12
            if ok:
                accepted += 1
            else:
                tg.replace_cell(name, old_cell)
        return accepted
