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

One run works on one representation: :class:`repro.sta.TimingGraph` holds
the design (cells, pin nets, sinks, names) *and* its analysis in the same
integer tables, every pass reads and edits it through the graph's methods,
and each accept/reject check costs O(affected cone), not O(netlist).
:meth:`Synthesizer.prepare` reads the netlist once into a pin-swapped graph
that :func:`repro.synth.synthesize_curve` forks per delay target; no
``Netlist`` is cloned or built while optimising, and
:attr:`SynthesisResult.netlist` materialises one only when it is read.
Results are byte-identical to the original full-STA-per-trial path
preserved in ``tests/oracles/synth.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.cleanup import remove_dead_logic
from repro.netlist.ir import Netlist
from repro.sta.graph import TimingGraph


class SynthesisResult:
    """Outcome of one optimization run at one delay target.

    ``netlist`` may be given as the optimised :class:`TimingGraph`; the
    :class:`Netlist` is then built from it the first time it is read, so a
    caller that only wants ``area`` / ``delay`` / ``met`` / ``moves`` (the
    curve ladder) never pays for one.
    """

    def __init__(
        self,
        area: float,
        delay: float,
        target: float,
        met: bool,
        netlist: "Netlist | TimingGraph",
        moves: "dict[str, int] | None" = None,
    ):
        self.area = area
        self.delay = delay
        self.target = target
        self.met = met
        self.moves = {} if moves is None else moves
        self._netlist = netlist

    @property
    def netlist(self) -> Netlist:
        """The optimised design."""
        if isinstance(self._netlist, TimingGraph):
            self._netlist = self._netlist.nl
        return self._netlist

    def __repr__(self) -> str:
        status = "met" if self.met else "VIOLATED"
        return (
            f"SynthesisResult(target={self.target:.4f}, delay={self.delay:.4f}, "
            f"area={self.area:.2f}, {status})"
        )


@dataclass
class PreparedDesign:
    """A design read into a timing graph and pin-swapped.

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
        """Read ``netlist`` into a timing graph and pin-swap it, once for all targets.

        Pin swapping is target-independent, so the swapped state is shared
        by every target of a curve. The netlist is only read: never
        mutated, never copied, never re-validated: the compile is the check.
        """
        tg = TimingGraph(netlist)
        swaps = self._pin_swap_pass(tg) if self.enable_pin_swap else 0
        return PreparedDesign(tg=tg, pin_swaps=swaps)

    def optimize(self, netlist: Netlist, target: float) -> SynthesisResult:
        """Optimize ``netlist`` toward ``target`` (ns); the netlist itself is left as it was."""
        return self.optimize_prepared(self.prepare(netlist), target)

    def optimize_prepared(self, prepared: PreparedDesign, target: float) -> SynthesisResult:
        """Run the greedy passes against a fork of a prepared design."""
        tg = prepared.tg.fork(target=target)
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

        # The sweep's removals lighten the nets the dead logic read, which
        # re-times their fanin cones: the final delay/WNS are live.
        remove_dead_logic(tg)
        return SynthesisResult(
            area=tg.area(),
            delay=tg.delay,
            target=target,
            met=tg.wns >= 0,
            netlist=tg,
            moves=moves,
        )

    # ------------------------------------------------------------------
    # Pin swapping
    # ------------------------------------------------------------------

    def _pin_swap_pass(self, tg: TimingGraph) -> int:
        """Assign later-arriving nets to faster pins within commutative groups.

        Decisions read one arrival snapshot (the pass does not re-analyze
        between swaps — same as the reference pass); the engine re-times
        the swapped cones lazily afterwards. A swap edits only its own
        instance's pins, so no decision depends on visiting order or on
        another swap: instances are read by index and the whole list lands
        in one :meth:`TimingGraph.swap_pins_at` table pass.
        """
        arrival = tg.arrivals()
        swaps = []
        for i, _, cell in tg.instances():
            arcs = tg.arcs_at(i)
            for (pa, pb), _ in cell.spec.swap_pairs:
                (src_a, intr_a), (src_b, intr_b) = arcs[pa], arcs[pb]
                # The fast pin (first of the pair on a tie) should carry the late net.
                fast, slow = (src_b, src_a) if intr_b < intr_a else (src_a, src_b)
                if arrival[slow] > arrival[fast]:
                    swaps.append((i, pa, pb))
        tg.swap_pins_at(swaps)
        return len(swaps)

    # ------------------------------------------------------------------
    # Gate sizing
    # ------------------------------------------------------------------

    def _sizing_pass(self, tg: TimingGraph) -> int:
        """Greedy critical-path upsizing with incrementally measured accept/revert.

        Each round walks the critical path once by instance index and
        trials the largest analytic gain (:meth:`TimingGraph.resize_gain`;
        ties to the smaller name).
        """
        library = tg.library
        accepted = 0
        rejected: "set[tuple[str, str]]" = set()
        while accepted < self.max_sizing_moves and tg.wns < 0:
            best = None
            for i in tg.critical_indices():
                bigger = library.next_size_up(tg.cell_at(i))
                if bigger is None:
                    continue
                name = tg.name_at(i)
                if (name, bigger.name) in rejected:
                    continue
                gain = tg.resize_gain(i, bigger)
                if gain > 0 and (best is None or (-gain, name) < best[0]):
                    best = ((-gain, name), i, bigger)
            if best is None:
                break
            (_, name), i, bigger = best
            old_cell = tg.cell_at(i)
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
        library = tg.library
        accepted = 0
        path = tg.critical_path()
        critical_insts = set(path)
        for name in path:
            net = tg.output_net(name)
            sinks = tg.sinks_of(net)
            if len(sinks) <= self.fanout_threshold:
                continue
            # Critical sinks: those feeding critical-path instances.
            critical_sinks = [s for s in sinks if s[0] in critical_insts]
            offload = [s for s in sinks if s[0] not in critical_insts]
            if not offload or not critical_sinks:
                continue
            buf_cell = library.pick("BUF", min(4, library.variants("BUF")[-1].drive))
            buf_out = tg.fresh_net("bufnet")
            prev_delay = tg.delay
            buf = tg.add_instance(buf_cell, {"A": net, buf_cell.output_pin: buf_out})
            for sink_name, pin in offload:
                tg.rewire_sink(sink_name, pin, buf_out)
            if tg.delay < prev_delay - 1e-12:
                accepted += 1
            else:
                for sink_name, pin in offload:
                    tg.rewire_sink(sink_name, pin, net)
                tg.remove_instance(buf)
            if tg.wns >= 0:
                break
        return accepted

    # ------------------------------------------------------------------
    # Gate cloning
    # ------------------------------------------------------------------

    def _cloning_pass(self, tg: TimingGraph) -> int:
        """Duplicate critical multi-fanout cells; clone serves non-critical sinks."""
        accepted = 0
        path = tg.critical_path()
        critical_insts = set(path)
        for name in path:
            cell = tg.cell_of(name)
            if cell.function == "BUF":
                continue
            net = tg.output_net(name)
            if tg.is_output(net):
                continue
            sinks = tg.sinks_of(net)
            if len(sinks) <= self.clone_threshold:
                continue
            offload = [s for s in sinks if s[0] not in critical_insts]
            if not offload or len(offload) == len(sinks):
                continue
            clone_out = tg.fresh_net("clone")
            pins = tg.pins_of(name)
            pins[cell.output_pin] = clone_out
            prev_delay = tg.delay
            clone = tg.add_instance(cell, pins)
            for sink_name, pin in offload:
                tg.rewire_sink(sink_name, pin, clone_out)
            if tg.delay < prev_delay - 1e-12:
                accepted += 1
            else:
                for sink_name, pin in offload:
                    tg.rewire_sink(sink_name, pin, net)
                tg.remove_instance(clone)
            if tg.wns >= 0:
                break
        return accepted

    # ------------------------------------------------------------------
    # Area recovery
    # ------------------------------------------------------------------

    def _recovery_pass(self, tg: TimingGraph) -> int:
        """Downsize off-critical cells while the achieved delay holds.

        When the target is met, any move keeping WNS >= 0 is accepted; when
        it is not met (infeasible target), moves must not worsen the delay
        past the pass's starting delay (plus 1e-12).

        One proof-gated loop serves both: a move is accepted iff the delay
        stays within ``limit`` — the target while it is met, else the
        pass's own bound ``baseline_delay + 1e-12`` — which is exactly the
        reference's ``wns >= 0`` or ``delay <= baseline + 1e-12``. The
        limit drops to the target the moment an accepted move meets it
        (the reference's per-candidate ``was_met``). Candidates are the
        cells with a smaller variant, visited in descending slack at pass
        start (a stable sort over insertion order, as the loop preserved
        in ``tests/oracles/synth.py`` sorts every instance). While the
        target is met a candidate needs positive slack, read live with
        :meth:`TimingGraph.slack_of` — after an accept the engine's
        backward worklist re-examines only the nets whose required time
        changed, where the reference rebuilds every slack. In either mode
        a downsize that :meth:`TimingGraph.downsize_rejected` proves must
        push the delay past ``limit`` is skipped without a trial. Rejected
        trials revert exactly and the prune only fires on proofs, so the
        accept/reject sequence — and the final netlist — matches the
        reference move for move (property-tested in
        ``tests/synth/test_recovery_equivalence.py``).
        """
        library = tg.library
        met = tg.wns >= 0
        limit = tg.target if met else tg.delay + 1e-12
        candidates = []
        for name, output_net in tg.output_nets():
            cell = tg.cell_of(name)
            smaller = library.next_size_down(cell)
            if smaller is not None:
                candidates.append((name, output_net, cell, smaller))
        candidates.sort(key=lambda c: -tg.slack_of(c[1]))
        accepted = 0
        for name, output_net, old_cell, smaller in candidates:
            if met and tg.slack_of(output_net) <= 0:
                continue
            if tg.downsize_rejected(name, smaller, limit):
                continue
            tg.replace_cell(name, smaller)
            if tg.delay <= limit:
                accepted += 1
                if not met and tg.wns >= 0:
                    met = True
                    limit = tg.target
            else:
                tg.replace_cell(name, old_cell)
        return accepted
