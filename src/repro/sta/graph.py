"""Array-backed static timing engine with incremental re-analysis.

:class:`TimingGraph` compiles a :class:`repro.netlist.Netlist` once and
then keeps the analysis *live* across netlist edits:

- **Compile** builds topo-ordered arc tables (source net, intrinsic delay
  per arc; load per net) and runs the forward arrival pass as
  level-grouped numpy sweeps — one vectorized gather/max per logic level
  instead of a Python visit per instance.
- **Incremental re-analysis**: every optimizer move class (cell resize,
  pin swap, sink rewire, instance insertion/removal) is mirrored by a
  mutation method that updates the affected loads/arcs and re-propagates
  arrivals only through the downstream cone, using a rank-ordered
  worklist. An accept/reject trial therefore costs O(affected cone), not
  O(netlist). The worklist state is kept in Python-native structures
  (lists of ``(src, intrinsic)`` arc tuples) because the cone loop is
  scalar by nature — per-element numpy access would dominate it.
- **Backward required times** are maintained incrementally, mirroring
  the forward worklist: the first slack query pays one full rank-ordered
  reverse sweep, after which every mutation marks only the nets whose
  required time can actually change (the fan-in cone of the edit) and a
  rank-descending worklist repairs them on the next query. A slack query
  after an optimizer move therefore costs O(affected cone), not
  O(netlist). Passes that only compare delays never pay for required
  times at all (the backward state stays lazily uninitialized).

The engine is **bit-identical** to the reference implementation preserved
in ``tests/oracles/sta.py``: identical load summation order, identical
arc-delay expression grouping (``intrinsic + resistance * load`` first,
then add the source arrival), identical first-wins tie-breaks for worst
arcs and worst outputs. ``tests/sta/test_timing_graph.py`` property-tests
full and incremental analysis against the oracle on randomized adder
netlists and randomized move sequences.

Contract: a ``TimingGraph`` *binds* its netlist — all edits must go
through the graph's mutation methods so analysis state and netlist stay
in sync (editing the bound netlist directly leaves the analysis stale).
Use :meth:`fork` to branch an analysis (own netlist clone, own state),
e.g. one branch per delay target from a single compile.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cells.library import CELL_FUNCTIONS, Cell
from repro.netlist.ir import Instance, Netlist
from repro.sta.timing import TimingReport, net_load

_INF = float("inf")

MAX_ARCS = max(len(f.inputs) for f in CELL_FUNCTIONS.values())
"""Widest cell input count; compile-time arc tables pad to this width."""


class TimingGraph:
    """Incrementally maintained STA over one (mutable) netlist.

    Args:
        netlist: the design to analyze. The graph binds it: use the
            graph's mutation methods for edits.
        target: required time at every primary output (None = report
            arrivals only; ``wns`` is +inf).
        input_arrivals: per-primary-input arrival overrides (default 0.0).
    """

    def __init__(
        self,
        netlist: Netlist,
        target: "float | None" = None,
        input_arrivals: "dict[str, float] | None" = None,
    ):
        self.nl = netlist
        self.target = target
        if input_arrivals:
            unknown = set(input_arrivals) - set(netlist.inputs)
            if unknown:
                raise ValueError(f"input_arrivals for non-input nets: {sorted(unknown)}")
        self._input_arrivals = dict(input_arrivals or {})
        self._pending: "set[int]" = set()
        self._required: "list[float] | None" = None
        # Net indices whose required time may be stale. Only meaningful
        # while ``_required`` is a cached list; empty means the cache is
        # exact for every live net.
        self._req_pending: "set[int]" = set()
        self._compile()

    # ------------------------------------------------------------------
    # Compile: netlist -> arc tables + one full forward pass
    # ------------------------------------------------------------------

    def _compile(self) -> None:
        nl = self.nl
        order = nl.topological_order()

        # Net table. Index order: primary inputs, then instance outputs in
        # topological order.
        self._net_index: "dict[str, int]" = {}
        self._net_names: "list[str | None]" = []
        for net in nl.inputs:
            self._net_index[net] = len(self._net_names)
            self._net_names.append(net)
        num_inputs = len(self._net_names)
        for name in order:
            out = nl.instances[name].output_net
            self._net_index[out] = len(self._net_names)
            self._net_names.append(out)
        num_n = len(self._net_names)

        self._net_alive: "list[bool]" = [True] * num_n
        self._net_driver: "list[int]" = [-1] * num_n
        self._net_load: "list[float]" = [0.0] * num_n
        self._net_arrival: "list[float]" = [0.0] * num_n
        self._net_wsrc: "list[int]" = [-1] * num_n
        self._net_sinks: "list[set[int]]" = [set() for _ in range(num_n)]
        for net, val in self._input_arrivals.items():
            self._net_arrival[self._net_index[net]] = float(val)
        self._out_nets: "list[int]" = [self._net_index[n] for n in nl.outputs]
        self._out_set: "frozenset[int]" = frozenset(self._out_nets)

        # Instance table: per-instance arc tuples (source net, intrinsic),
        # output resistance, output net, topological rank.
        self._inst_index: "dict[str, int]" = {}
        self._inst_names: "list[str | None]" = []
        self._alive: "list[bool]" = []
        self._out_net: "list[int]" = []
        self._rank: "list[float]" = []
        self._res: "list[float]" = []
        self._arcs: "list[list[tuple[int, float]]]" = []
        levels: "list[int]" = []
        for pos, name in enumerate(order):
            inst = nl.instances[name]
            cell = inst.cell
            self._inst_index[name] = pos
            self._inst_names.append(name)
            self._alive.append(True)
            out_idx = self._net_index[inst.output_net]
            self._out_net.append(out_idx)
            self._net_driver[out_idx] = pos
            self._rank.append(float(pos))
            self._res.append(cell.resistance)
            arcs = []
            lvl = 0
            for pin in cell.input_pins:
                src = self._net_index[inst.pins[pin]]
                arcs.append((src, cell.intrinsics[pin]))
                self._net_sinks[src].add(pos)
                drv = self._net_driver[src]
                if drv >= 0:
                    lvl = max(lvl, levels[drv] + 1)
            self._arcs.append(arcs)
            levels.append(lvl)
            self._net_load[out_idx] = net_load(nl, inst.output_net)

        self._forward_sweeps(levels, num_inputs)

    def _forward_sweeps(self, levels: "list[int]", num_inputs: int) -> None:
        """Full forward arrival pass as one array sweep per logic level."""
        num_i = len(self._arcs)
        if num_i == 0:
            return
        # Pack the python-native tables into padded numpy arc tables once.
        arc_src = np.zeros((num_i, MAX_ARCS), dtype=np.int64)
        arc_intr = np.zeros((num_i, MAX_ARCS), dtype=np.float64)
        valid = np.zeros((num_i, MAX_ARCS), dtype=bool)
        for i, arcs in enumerate(self._arcs):
            for p, (src, intr) in enumerate(arcs):
                arc_src[i, p] = src
                arc_intr[i, p] = intr
                valid[i, p] = True
        res = np.asarray(self._res)
        out_net = np.asarray(self._out_net, dtype=np.int64)
        load = np.asarray(self._net_load)
        arrival = np.asarray(self._net_arrival)
        wsrc = np.asarray(self._net_wsrc, dtype=np.int64)
        lvl_arr = np.asarray(levels, dtype=np.int64)

        by_level = np.argsort(lvl_arr, kind="stable")
        bounds = np.searchsorted(lvl_arr[by_level], np.arange(lvl_arr.max() + 2))
        for lvl in range(len(bounds) - 1):
            idx = by_level[bounds[lvl] : bounds[lvl + 1]]
            if idx.size == 0:
                continue
            src = arc_src[idx]
            ok = valid[idx]
            d = arc_intr[idx] + res[idx, None] * load[out_net[idx], None]
            t = np.where(ok, arrival[src] + d, -np.inf)
            best = t.max(axis=1)
            wa = t.argmax(axis=1)
            worst = np.take_along_axis(src, wa[:, None], axis=1)[:, 0]
            out = out_net[idx]
            arrival[out] = np.maximum(best, -1.0)
            wsrc[out] = np.where(best > -1.0, worst, -1)

        self._net_arrival = arrival.tolist()
        self._net_wsrc = wsrc.tolist()

    # ------------------------------------------------------------------
    # Dirty tracking / incremental propagation
    # ------------------------------------------------------------------

    def _touch(self, i: int) -> None:
        """Mark instance ``i`` re-timeable: forward (its cone) and backward.

        A touched instance has changed arc delays (resistance, intrinsic,
        or output load), so besides re-propagating arrivals downstream,
        the required times of its *arc-source* nets are stale — each is
        ``min`` over sink candidates ``req[sink_out] - arc_delay`` and one
        of those arc delays just moved. ``req`` of the instance's own
        output net only depends on *downstream* arc delays, so it stays
        exact and the backward repair naturally walks fan-in from here.
        """
        self._pending.add(i)
        if self._required is not None:
            pend = self._req_pending
            for s, _ in self._arcs[i]:
                pend.add(s)

    def _update_load(self, net_idx: int) -> None:
        """Recompute one net's load exactly as :func:`net_load` does."""
        new = net_load(self.nl, self._net_names[net_idx])
        if new != self._net_load[net_idx]:
            self._net_load[net_idx] = new
            drv = self._net_driver[net_idx]
            if drv >= 0:
                self._touch(drv)

    def _flush(self) -> None:
        """Re-propagate arrivals through the dirty downstream cone.

        Instances are processed in ascending topological rank, so each one
        is recomputed at most once per flush, from settled fanin values —
        the unique fixpoint the full pass would reach.
        """
        if not self._pending:
            return
        rank = self._rank
        heap = [(rank[i], i) for i in self._pending]
        heapq.heapify(heap)
        queued = set(self._pending)
        self._pending.clear()
        arrival = self._net_arrival
        arcs_tab = self._arcs
        alive = self._alive
        loads = self._net_load
        res_tab = self._res
        out_tab = self._out_net
        wsrc_tab = self._net_wsrc
        sinks_tab = self._net_sinks
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            i = pop(heap)[1]
            queued.discard(i)
            if not alive[i]:
                continue
            out = out_tab[i]
            rl = res_tab[i] * loads[out]
            best = -1.0
            bsrc = -1
            for s, intr in arcs_tab[i]:
                t = arrival[s] + (intr + rl)
                if t > best:
                    best = t
                    bsrc = s
            changed = best != arrival[out]
            arrival[out] = best
            wsrc_tab[out] = bsrc
            if changed:
                for j in sinks_tab[out]:
                    if j not in queued:
                        queued.add(j)
                        push(heap, (rank[j], j))

    def _rerank(self) -> None:
        """Recompute topological ranks from scratch (rare structural repair).

        Must run *before* the next flush — pending work is propagated in
        rank order, so ranks are repaired eagerly the moment an edit
        violates them, never after a propagation used them.
        """
        for pos, name in enumerate(self.nl.topological_order()):
            self._rank[self._inst_index[name]] = float(pos)

    # ------------------------------------------------------------------
    # Mutations (mirror the Netlist API; keep analysis state in sync)
    # ------------------------------------------------------------------

    def replace_cell(self, name: str, new_cell: Cell) -> None:
        """Resize an instance; re-times its fanin drivers and its cone."""
        self.nl.replace_cell(name, new_cell)
        i = self._inst_index[name]
        inst = self.nl.instances[name]
        self._res[i] = new_cell.resistance
        arcs = self._arcs[i]
        for p, pin in enumerate(new_cell.input_pins):
            arcs[p] = (arcs[p][0], new_cell.intrinsics[pin])
            self._update_load(self._net_index[inst.pins[pin]])
        self._touch(i)

    def swap_pins(self, name: str, pin_a: str, pin_b: str) -> None:
        """Exchange two commutative input pins; re-times both nets' cones."""
        self.nl.swap_pins(name, pin_a, pin_b)
        i = self._inst_index[name]
        inst = self.nl.instances[name]
        cell = inst.cell
        self._arcs[i] = [
            (self._net_index[inst.pins[pin]], cell.intrinsics[pin])
            for pin in cell.input_pins
        ]
        self._update_load(self._net_index[inst.pins[pin_a]])
        self._update_load(self._net_index[inst.pins[pin_b]])
        self._touch(i)

    def add_instance(self, cell: Cell, pins: "dict[str, str]", name: "str | None" = None) -> Instance:
        """Instantiate a cell (fresh output net) and time it in place."""
        inst = self.nl.add_instance(cell, pins, name)
        i = len(self._inst_names)
        self._inst_index[inst.name] = i
        self._inst_names.append(inst.name)
        self._alive.append(True)
        out_idx = self._net_index.get(inst.output_net)
        if out_idx is None:
            out_idx = len(self._net_names)
            self._net_index[inst.output_net] = out_idx
            self._net_names.append(inst.output_net)
            self._net_alive.append(True)
            self._net_driver.append(-1)
            self._net_load.append(0.0)
            self._net_arrival.append(0.0)
            self._net_wsrc.append(-1)
            self._net_sinks.append(set())
            if self._required is not None:
                # Fresh net, no sinks yet: unconstrained until a later
                # rewire gives it fanout (which marks it stale).
                self._required.append(_INF)
        self._out_net.append(out_idx)
        self._net_driver[out_idx] = i
        self._res.append(cell.resistance)
        arcs = []
        max_fanin_rank = -1.0
        for pin in cell.input_pins:
            src = self._net_index[inst.pins[pin]]
            arcs.append((src, cell.intrinsics[pin]))
            self._net_sinks[src].add(i)
            drv = self._net_driver[src]
            if drv >= 0 and self._rank[drv] > max_fanin_rank:
                max_fanin_rank = self._rank[drv]
        self._arcs.append(arcs)
        # Half-step rank: above every fanin, below the integer-ranked rest.
        # rewire_sink() repairs via _rerank() if a later edit violates it.
        self._rank.append(max_fanin_rank + 0.5)
        for src, _ in arcs:
            self._update_load(src)
        self._update_load(out_idx)
        self._touch(i)
        return inst

    def remove_instance(self, name: str) -> None:
        """Delete an instance whose output net has no sinks."""
        inst = self.nl.instances[name]
        self.nl.remove_instance(name)
        i = self._inst_index.pop(name)
        self._inst_names[i] = None
        self._alive[i] = False
        self._pending.discard(i)
        out_idx = self._net_index.pop(inst.output_net)
        self._net_alive[out_idx] = False
        self._net_driver[out_idx] = -1
        self._net_names[out_idx] = None
        for src in {s for s, _ in self._arcs[i]}:
            self._net_sinks[src].discard(i)
            self._update_load(src)
            if self._required is not None:
                # Each source net lost a sink candidate from its min.
                self._req_pending.add(src)
        self._arcs[i] = []
        self._req_pending.discard(out_idx)

    def rewire_sink(self, inst_name: str, pin: str, new_net: str) -> None:
        """Move one input pin to a different net; re-times both cones."""
        inst = self.nl.instances[inst_name]
        old_net = inst.pins[pin]
        self.nl.rewire_sink(inst_name, pin, new_net)
        i = self._inst_index[inst_name]
        p = inst.cell.input_pins.index(pin)
        old_idx = self._net_index[old_net]
        new_idx = self._net_index[new_net]
        self._arcs[i][p] = (new_idx, self._arcs[i][p][1])
        if all(src != old_idx for src, _ in self._arcs[i]):
            self._net_sinks[old_idx].discard(i)
        self._net_sinks[new_idx].add(i)
        self._update_load(old_idx)
        self._update_load(new_idx)
        self._touch(i)
        if self._required is not None:
            # The old net lost a sink candidate (the new one gained a
            # candidate; _touch marked it via the updated arc table).
            self._req_pending.add(old_idx)
        drv = self._net_driver[new_idx]
        if drv >= 0 and self._rank[drv] >= self._rank[i]:
            self._rerank()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _worst_output(self) -> int:
        """Net index of the worst (first-wins) primary output, or -1."""
        best = -_INF
        worst = -1
        arrival = self._net_arrival
        for o in self._out_nets:
            a = arrival[o]
            if a > best:
                best = a
                worst = o
        return worst

    @property
    def delay(self) -> float:
        """Worst arrival over primary outputs (0.0 with no outputs)."""
        self._flush()
        worst = self._worst_output()
        if worst < 0:
            return 0.0
        return self._net_arrival[worst]

    @property
    def wns(self) -> float:
        """``target - delay`` (+inf when unconstrained)."""
        if self.target is None:
            return _INF
        return self.target - self.delay

    def critical_path(self) -> "list[str]":
        """Instance names from the path's first gate to the worst output's driver."""
        self._flush()
        path: "list[str]" = []
        net = self._worst_output()
        while net >= 0 and self._net_driver[net] >= 0:
            path.append(self._inst_names[self._net_driver[net]])
            net = self._net_wsrc[net]
        path.reverse()
        return path

    def arrival_of(self, net: str) -> float:
        """Arrival time of one net."""
        self._flush()
        return self._net_arrival[self._net_index[net]]

    def load_of(self, net: str) -> float:
        """Capacitive load of one net (same value as :func:`net_load`)."""
        return self._net_load[self._net_index[net]]

    def _flush_required(self) -> None:
        """Repair required times over the marked fan-in cone.

        The reverse mirror of :meth:`_flush`: stale nets are processed in
        *descending driver rank* (primary inputs last), so every sink
        instance's output net is settled before the net feeding it is
        recomputed. Each recompute rebuilds the net's required time from
        scratch — ``target`` at primary outputs, ``min`` over all sink
        arc candidates ``req[sink_out] - (intrinsic + res * load)`` —
        the exact per-arc expression of the full reverse sweep, so the
        repaired values are bit-identical to a cold recompute.
        """
        req = self._required
        rank = self._rank
        driver = self._net_driver
        out_set = self._out_set
        target = self.target
        alive_net = self._net_alive
        sinks_tab = self._net_sinks
        out_tab = self._out_net
        arcs_tab = self._arcs
        res_tab = self._res
        loads = self._net_load
        pop = heapq.heappop
        push = heapq.heappush

        def key(s: int) -> float:
            d = driver[s]
            # Driverless (primary-input) nets feed nothing backward;
            # order them after every driven net.
            return -rank[d] if d >= 0 else 1.0

        heap = [(key(s), s) for s in self._req_pending]
        heapq.heapify(heap)
        queued = set(self._req_pending)
        self._req_pending.clear()
        while heap:
            s = pop(heap)[1]
            queued.discard(s)
            if not alive_net[s]:
                continue
            r = target if s in out_set else _INF
            for j in sinks_tab[s]:
                out = out_tab[j]
                rj = req[out]
                if rj == _INF:
                    continue
                rl = res_tab[j] * loads[out]
                for src, intr in arcs_tab[j]:
                    if src != s:
                        continue
                    cand = rj - (intr + rl)
                    if cand < r:
                        r = cand
            if r != req[s]:
                req[s] = r
                d = driver[s]
                if d >= 0:
                    for src in {a for a, _ in arcs_tab[d]}:
                        if src not in queued:
                            queued.add(src)
                            push(heap, (key(src), src))

    def _ensure_required(self) -> "list[float]":
        """Required times for every live net (incrementally maintained).

        The first query pays one full rank-descending sweep: every sink
        of a net has a higher rank than its driver, so each net's
        required time is final before any of its fanin arcs subtract
        from it — the same min-fixpoint the reference reversed-
        topological traversal reaches. Later queries only repair the
        nets mutations marked stale (:meth:`_flush_required`).
        """
        self._flush()
        if self._required is not None:
            if self._req_pending:
                self._flush_required()
            return self._required
        if self.target is None:
            raise ValueError("analysis ran without a target; no slacks available")
        req = [_INF] * len(self._net_names)
        for o in self._out_nets:
            req[o] = self.target
        live = [i for i, a in enumerate(self._alive) if a]
        live.sort(key=self._rank.__getitem__, reverse=True)
        loads = self._net_load
        for i in live:
            out = self._out_net[i]
            r = req[out]
            if r == _INF:
                continue
            rl = self._res[i] * loads[out]
            for s, intr in self._arcs[i]:
                cand = r - (intr + rl)
                if cand < req[s]:
                    req[s] = cand
        self._req_pending.clear()
        self._required = req
        return req

    def slack_of(self, net: str) -> float:
        """``required - arrival`` of one net (+inf off the constrained cone)."""
        req = self._ensure_required()
        idx = self._net_index[net]
        return req[idx] - self._net_arrival[idx]

    def slack_map(self) -> "dict[str, float]":
        """Slack of every live net (one backward pass, one dict build)."""
        req = self._ensure_required()
        names = self._net_names
        arrival = self._net_arrival
        return {
            names[i]: req[i] - arrival[i]
            for i, ok in enumerate(self._net_alive)
            if ok
        }

    def slack_all(self) -> "dict[str, float]":
        """Alias of :meth:`slack_map` (the name used by the optimizer API)."""
        return self.slack_map()

    def downsize_rejected(self, name: str, new_cell: Cell, margin: float = 1e-9) -> bool:
        """Prove that resizing ``name`` to ``new_cell`` must leave ``wns < 0``.

        Used by slack-pruned area recovery: in met mode a downsize trial
        is accepted only if ``wns >= 0`` afterwards, and a rejected trial
        reverts exactly, so skipping a *provably* rejected trial changes
        nothing observable. The proof is local and conservative:

        - The required time at the instance's output net is invariant
          under the trial (it depends only on downstream arc delays,
          which a resize of this instance never touches).
        - The trial's new output arrival is bounded below by the engine's
          own per-arc expression over current input arrivals, minus the
          largest possible upstream improvement: shrinking input-pin caps
          lowers the input nets' loads, which shortens any single path by
          at most the summed ``driver_resistance * cap_drop``.

        If even that lower bound exceeds the required time by more than
        ``margin`` — orders of magnitude above float path-sum noise,
        orders of magnitude below any real timing margin — some output
        must miss the target. Returns ``False`` whenever the proof does
        not apply, so a would-be acceptance is never pruned.
        """
        req = self._ensure_required()
        i = self._inst_index[name]
        out = self._out_net[i]
        r_out = req[out]
        if r_out == _INF:
            return False
        inst = self.nl.instances[name]
        old_cell = inst.cell
        arrival = self._net_arrival
        driver = self._net_driver
        net_index = self._net_index
        rl = new_cell.resistance * self._net_load[out]
        best = -_INF
        drop = 0.0
        seen: "set[int]" = set()
        for pin in new_cell.input_pins:
            s = net_index[inst.pins[pin]]
            t = arrival[s] + (new_cell.intrinsics[pin] + rl)
            if t > best:
                best = t
            if s in seen:
                continue
            seen.add(s)
            d = driver[s]
            if d < 0:
                continue
            dcap = 0.0
            for q in old_cell.input_pins:
                if net_index[inst.pins[q]] == s:
                    dcap += old_cell.input_caps[q] - new_cell.input_caps[q]
            if dcap > 0.0:
                drop += self._res[d] * dcap
        return best - drop - r_out > margin

    def report(self) -> TimingReport:
        """Export the full dict-based :class:`TimingReport` (oracle format)."""
        self._flush()
        names = self._net_names
        arrival = {
            names[i]: self._net_arrival[i]
            for i, ok in enumerate(self._net_alive)
            if ok
        }
        required: "dict[str, float]" = {}
        slack: "dict[str, float]" = {}
        wns = _INF
        if self.target is not None:
            req = self._ensure_required()
            for i, ok in enumerate(self._net_alive):
                if not ok:
                    continue
                if req[i] != _INF:
                    required[names[i]] = req[i]
                slack[names[i]] = req[i] - self._net_arrival[i]
            wns = self.target - self.delay
        return TimingReport(
            delay=self.delay,
            target=self.target,
            wns=wns,
            arrival=arrival,
            required=required,
            slack=slack,
            critical_path=self.critical_path(),
            area=self.nl.area(),
        )

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------

    def fork(self, target: "float | None" = None) -> "TimingGraph":
        """Independent copy (own netlist clone, own state), optionally retargeted.

        The compiled state is reused — forking costs shallow copies, not a
        recompile — which is what lets :func:`repro.synth.synthesize_curve`
        compile once and branch per delay target.
        """
        self._flush()
        other = object.__new__(TimingGraph)
        other.nl = self.nl.clone()
        other.target = self.target if target is None else target
        other._input_arrivals = dict(self._input_arrivals)
        other._pending = set()
        if other.target == self.target and self._required is not None:
            # Same target: the backward cache (and its dirty set) stays
            # valid in the branch.
            other._required = list(self._required)
            other._req_pending = set(self._req_pending)
        else:
            other._required = None
            other._req_pending = set()
        other._inst_index = dict(self._inst_index)
        other._inst_names = list(self._inst_names)
        other._alive = list(self._alive)
        other._out_net = list(self._out_net)
        other._rank = list(self._rank)
        other._res = list(self._res)
        other._arcs = [list(a) for a in self._arcs]
        other._net_index = dict(self._net_index)
        other._net_names = list(self._net_names)
        other._net_alive = list(self._net_alive)
        other._net_driver = list(self._net_driver)
        other._net_load = list(self._net_load)
        other._net_arrival = list(self._net_arrival)
        other._net_wsrc = list(self._net_wsrc)
        other._net_sinks = [set(s) for s in self._net_sinks]
        other._out_nets = list(self._out_nets)
        other._out_set = self._out_set
        return other

    def __repr__(self) -> str:
        return (
            f"TimingGraph({self.nl.name!r}, insts={len(self._inst_index)}, "
            f"nets={len(self._net_index)}, target={self.target})"
        )
