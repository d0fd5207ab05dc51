"""Static timing engine whose integer tables *are* the design under optimisation.

:class:`TimingGraph` reads a :class:`repro.netlist.Netlist` once and from
then on is the one mutable representation of that design — structure and
analysis in the same flat, index-addressed tables:

- **Compile** reads the netlist (never mutating or copying it) into
  per-instance tables (name, cell, output net, arc tuple, rank — instance
  index is the netlist's *insertion* order) and per-net tables (name,
  driver, sinks, load, arrival), plus the fresh-name counter; a second
  driver, an undriven net or a cycle raises ``ValueError``. Ranks come
  from the tables' own topological pass: the instance index when one
  comparison per arc proves the insertion order topological (every adder
  build is), else a Kahn walk. The first query times every
  instance through the same rank-ordered worklist every later edit uses.
- **Moves** (:meth:`replace_cell`, :meth:`swap_pins_at`, :meth:`add_instance`,
  :meth:`remove_instance`, :meth:`rewire_sink`) perform the checks the
  netlist IR performs, write the tables, recompute the loads they touch
  and mark the affected cone: an accept/reject trial costs O(cone), not
  O(netlist), and there is no second structure to keep in step.
- **Backward required times** are maintained incrementally, mirroring the
  forward worklist: the first slack query pays one full rank-descending
  sweep, after which every move marks only the nets whose required time
  can change (the fan-in cone of the edit) and a rank-descending worklist
  repairs them on the next query. Passes that only compare delays never
  pay for required times at all.
- **Forks** copy a dozen flat lists. An instance's arcs and a net's sinks
  are immutable tuples replaced on write, so branches share them until
  one of them edits.
- A :class:`Netlist` is produced on demand by :attr:`nl` — a fresh,
  detached object per read, for export, simulation and the oracles.

Three orders are part of the contract (the oracles in ``tests/oracles/``
pin them bit for bit): a net's load sums its sinks' pin caps in sorted
``(instance name, pin)`` order; :meth:`instance_names` and :meth:`area`
run in instance insertion order; nets and instances draw fresh names from
one counter. The arc-delay grouping (``intrinsic + resistance * load``
first, then add the source arrival) and the first-wins tie-breaks for
worst arcs and worst outputs are the reference's too.
``tests/sta/test_timing_graph.py`` property-tests full and incremental
analysis against the oracle on randomized adder netlists, move sequences
and fork interleavings.
"""

from __future__ import annotations

import heapq

from repro.cells.library import CELL_FUNCTIONS, Cell
from repro.netlist.ir import Netlist, check_pins
from repro.sta.timing import TimingReport

_INF = float("inf")


class TimingGraph:
    """One design, mutable, with its timing analysis kept live.

    Args:
        netlist: the design to read. It is not kept, mutated or copied;
            edits go through this graph's move methods and :attr:`nl`
            materialises the current design.
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
        self.target = target
        if input_arrivals:
            unknown = set(input_arrivals) - set(netlist.inputs)
            if unknown:
                raise ValueError(f"input_arrivals for non-input nets: {sorted(unknown)}")
        self._pending: "set[int]" = set()
        self._required: "list[float] | None" = None
        # Net indices whose required time may be stale. Only meaningful
        # while ``_required`` is a cached list; empty means the cache is
        # exact for every live net.
        self._req_pending: "set[int]" = set()
        self._compile(netlist, input_arrivals or {})

    # ------------------------------------------------------------------
    # Compile: netlist -> tables (timed lazily, by the first query)
    # ------------------------------------------------------------------

    def _compile(self, netlist: Netlist, input_arrivals: "dict[str, float]") -> None:
        self.name = netlist.name
        self.library = netlist.library
        self._counter = netlist._counter
        self._inputs: "tuple[str, ...]" = tuple(netlist.inputs)
        instances = netlist.instances
        num_in = len(self._inputs)
        num_i = len(instances)

        # Net table. Index order: primary inputs, then instance outputs in
        # instance order. A dead entry has name None.
        self._net_names: "list[str | None]" = list(self._inputs)
        for inst in instances.values():
            self._net_names.append(inst.pins[CELL_FUNCTIONS[inst.cell.function].output])
        self._net_index: "dict[str, int]" = {net: k for k, net in enumerate(self._net_names)}
        num_n = num_in + num_i
        if len(self._net_index) != num_n:
            raise ValueError(f"{self.name}: a net has more than one driver")
        self._net_driver: "list[int]" = [-1] * num_in + list(range(num_i))
        self._net_arrival: "list[float]" = [0.0] * num_n
        self._net_wsrc: "list[int]" = [-1] * num_n
        net_index = self._net_index
        for net, val in input_arrivals.items():
            self._net_arrival[net_index[net]] = float(val)
        for net in netlist.outputs:
            if net not in net_index:
                raise ValueError(f"{self.name}: primary output {net} has no driver")
        self._out_nets: "tuple[int, ...]" = tuple(net_index[n] for n in netlist.outputs)
        self._out_set: "frozenset[int]" = frozenset(self._out_nets)

        # Instance table, in the netlist's insertion order. A dead entry
        # has name and cell None and no arcs.
        self._inst_names: "list[str | None]" = list(instances)
        self._inst_index: "dict[str, int]" = {name: i for i, name in enumerate(self._inst_names)}
        self._cells: "list[Cell | None]" = []
        self._res: "list[float]" = []
        self._out_net: "list[int]" = list(range(num_in, num_n))
        # Per instance: ((source net, intrinsic), ...) in function pin order.
        self._arcs: "list[tuple[tuple[int, float], ...]]" = []
        sinks: "list[list[tuple[str, str, int]]]" = [[] for _ in range(num_n)]
        in_order = True  # instance i drives net num_in + i: topological iff every arc reads below it
        for i, (name, inst) in enumerate(instances.items()):
            cell = inst.cell
            pins = inst.pins
            intrinsics = cell.intrinsics
            arcs = []
            for pin in CELL_FUNCTIONS[cell.function].inputs:
                net = pins[pin]
                try:
                    src = net_index[net]
                except KeyError:
                    raise ValueError(f"{self.name}: net {net} (sink of {name}) has no driver") from None
                if src >= num_in + i:
                    in_order = False
                arcs.append((src, intrinsics[pin]))
                sinks[src].append((name, pin, i))
            self._cells.append(cell)
            self._res.append(cell.resistance)
            self._arcs.append(tuple(arcs))
        # Per net: ((instance name, pin, instance), ...) sorted, which is
        # the (name, pin) order load summation is pinned to.
        self._net_sinks: "list[tuple[tuple[str, str, int], ...]]" = [tuple(sorted(s)) for s in sinks]
        self._net_load: "list[float]" = [self._load(k) for k in range(num_n)]

        self._rank: "list[float]" = [float(i) for i in range(num_i)]
        if not in_order:
            self._rerank()
        self._pending.update(range(num_i))

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

    def _load(self, net_idx: int) -> float:
        """Capacitive load of one net: pin caps + wire cap + port cap (fF).

        The same sum, in the same order, as :func:`repro.sta.timing.net_load`.
        """
        lib = self.library
        sinks = self._net_sinks[net_idx]
        cells = self._cells
        load = lib.wire_cap_per_fanout * len(sinks)
        for _, pin, j in sinks:
            load += cells[j].input_caps[pin]
        if net_idx in self._out_set:
            load += lib.output_port_cap
        return load

    def _update_load(self, net_idx: int) -> None:
        """Recompute one net's load; a change re-times its driver."""
        new = self._load(net_idx)
        if new != self._net_load[net_idx]:
            self._net_load[net_idx] = new
            drv = self._net_driver[net_idx]
            if drv >= 0:
                self._touch(drv)

    def _flush(self) -> None:
        """Re-propagate arrivals through the dirty downstream cone.

        Instances are processed in ascending topological rank, so each one
        is recomputed at most once per flush, from settled fanin values —
        the unique fixpoint a full pass reaches (and the first flush after
        compile, with every instance pending, *is* the full pass).
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
                for _, _, j in sinks_tab[out]:
                    if j not in queued:
                        queued.add(j)
                        push(heap, (rank[j], j))

    def _rerank(self) -> None:
        """Kahn-walk topological ranks (compile of an out-of-order netlist; rare repairs).

        Must run *before* the next flush — pending work is propagated in
        rank order, so ranks are repaired eagerly the moment an edit
        violates them, never after a propagation used them. Raises
        ``ValueError`` on a combinational cycle.
        """
        arcs_tab = self._arcs
        driver = self._net_driver
        indegree: "dict[int, int]" = {}
        for i, cell in enumerate(self._cells):
            if cell is not None:
                indegree[i] = sum(driver[s] >= 0 for s, _ in arcs_tab[i])
        ready = [i for i, count in indegree.items() if count == 0]
        rank = self._rank
        out_tab = self._out_net
        sinks_tab = self._net_sinks
        pos = 0
        while ready:
            i = ready.pop()
            rank[i] = float(pos)
            pos += 1
            for _, _, j in sinks_tab[out_tab[i]]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
        if pos != len(indegree):
            raise ValueError("netlist contains a combinational cycle")

    # ------------------------------------------------------------------
    # The design, read by name
    # ------------------------------------------------------------------

    def instance_names(self) -> "list[str]":
        """Live instance names in insertion order."""
        return [name for name in self._inst_names if name is not None]

    def cell_of(self, name: str) -> Cell:
        """The cell an instance is currently bound to."""
        return self._cells[self._inst_index[name]]

    def output_net(self, name: str) -> str:
        """The net an instance drives."""
        return self._net_names[self._out_net[self._inst_index[name]]]

    def output_nets(self) -> "list[tuple[str, str]]":
        """(instance, output net) for every live instance, in insertion order."""
        net_names = self._net_names
        out_tab = self._out_net
        return [
            (name, net_names[out_tab[i]])
            for i, name in enumerate(self._inst_names)
            if name is not None
        ]

    def pins_of(self, name: str) -> "dict[str, str]":
        """Pin-to-net map of an instance (input pins in function order, then the output pin)."""
        i = self._inst_index[name]
        cell = self._cells[i]
        net_names = self._net_names
        pins = {pin: net_names[src] for pin, (src, _) in zip(cell.input_pins, self._arcs[i])}
        pins[cell.output_pin] = net_names[self._out_net[i]]
        return pins

    def sinks_of(self, net: str) -> "list[tuple[str, str]]":
        """Sorted (instance, pin) sinks of ``net``."""
        return [(name, pin) for name, pin, _ in self._net_sinks[self._net_index[net]]]

    def has_sinks(self, net: str) -> bool:
        """Whether anything reads ``net`` (its fan-out is non-empty)."""
        return bool(self._net_sinks[self._net_index[net]])

    def is_output(self, net: str) -> bool:
        """Whether ``net`` is a primary output."""
        return self._net_index[net] in self._out_set

    def area(self) -> float:
        """Total cell area (um^2), summed in instance insertion order."""
        return sum(cell.area for cell in self._cells if cell is not None)

    # ------------------------------------------------------------------
    # The design, read by instance index (the optimiser's inner loops)
    # ------------------------------------------------------------------

    def instances(self) -> "list[tuple[int, str, Cell]]":
        """(index, name, cell) of every live instance, in insertion order."""
        return [
            (i, name, cell)
            for i, (name, cell) in enumerate(zip(self._inst_names, self._cells))
            if name is not None
        ]

    def name_at(self, i: int) -> str:
        """Name of instance ``i``."""
        return self._inst_names[i]

    def cell_at(self, i: int) -> Cell:
        """Cell instance ``i`` is bound to."""
        return self._cells[i]

    def arcs_at(self, i: int) -> "tuple[tuple[int, float], ...]":
        """(source net index, intrinsic) per input pin of instance ``i``, in function pin order."""
        return self._arcs[i]

    def arrivals(self) -> "list[float]":
        """Arrival of every net by net index (a snapshot: later moves do not show in it)."""
        self._flush()
        return self._net_arrival.copy()

    def resize_gain(self, i: int, new_cell: Cell) -> float:
        """Analytic delay saved (ns) by resizing instance ``i`` to ``new_cell``.

        The output arc's resistance change times its load, less each input
        net's driver resistance times the pin-cap change — the reference
        estimate's terms, in its order.
        """
        cell = self._cells[i]
        gain = (cell.resistance - new_cell.resistance) * self._net_load[self._out_net[i]]
        driver = self._net_driver
        res = self._res
        for pin, (src, _) in zip(new_cell.input_pins, self._arcs[i]):
            d = driver[src]
            if d >= 0:
                gain -= res[d] * (new_cell.input_caps[pin] - cell.input_caps[pin])
        return gain

    @property
    def nl(self) -> Netlist:
        """The current design as a fresh :class:`Netlist`.

        Built from the tables on every read and detached from them: the
        caller may edit it freely, and later moves on this graph do not
        show in it.
        """
        nl = Netlist(self.name, self.library)
        for net in self._inputs:
            nl.add_input(net)
        for name in self._inst_names:
            if name is not None:
                nl.add_instance(self.cell_of(name), self.pins_of(name), name=name)
        for k in self._out_nets:
            nl.add_output(self._net_names[k])
        nl._counter = self._counter
        return nl

    # ------------------------------------------------------------------
    # Moves (the checks of the Netlist API; loads and cones kept in step)
    # ------------------------------------------------------------------

    def fresh_net(self, hint: str = "n") -> str:
        """Allocate a unique name (nets and unnamed instances share the counter)."""
        self._counter += 1
        return f"{hint}_{self._counter}"

    def _add_sink(self, net_idx: int, entry: "tuple[str, str, int]") -> None:
        self._net_sinks[net_idx] = tuple(sorted(self._net_sinks[net_idx] + (entry,)))

    def _drop_sink(self, net_idx: int, entry: "tuple[str, str, int]") -> None:
        self._net_sinks[net_idx] = tuple(e for e in self._net_sinks[net_idx] if e != entry)

    def replace_cell(self, name: str, new_cell: Cell) -> None:
        """Resize an instance; re-times its fanin drivers and its cone."""
        i = self._inst_index[name]
        old_cell = self._cells[i]
        if new_cell.function != old_cell.function:
            raise ValueError(
                f"resize must preserve function: {old_cell.function} -> {new_cell.function}"
            )
        self._cells[i] = new_cell
        self._res[i] = new_cell.resistance
        intrinsics = new_cell.intrinsics
        arcs = self._arcs[i]
        self._arcs[i] = tuple(
            [(src, intrinsics[pin]) for pin, (src, _) in zip(new_cell.input_pins, arcs)]
        )
        for src, _ in arcs:
            self._update_load(src)
        self._touch(i)

    def swap_pins(self, name: str, pin_a: str, pin_b: str) -> None:
        """Exchange two commutative input pins; re-times both nets' cones."""
        i = self._inst_index[name]
        cell = self._cells[i]
        spec = cell.spec
        if not any(pin_a in g and pin_b in g for g in spec.commutative_groups):
            raise ValueError(f"{cell.name}: pins {pin_a},{pin_b} are not commutative")
        self.swap_pins_at([(i, spec.inputs.index(pin_a), spec.inputs.index(pin_b))])

    def swap_pins_at(self, swaps: "list[tuple[int, int, int]]") -> None:
        """Apply pin swaps ``(instance, position, position)`` of commutative pairs
        (:attr:`CellFunction.swap_pairs` positions) in one table pass: arcs are
        rewritten in list order, then each touched net's sorted sinks and load
        are rebuilt once (the same tuple and sum as one :meth:`swap_pins` per
        swap) and each swapped instance is re-timed."""
        arcs_tab = self._arcs
        swapped: "set[int]" = set()
        nets: "set[int]" = set()
        for i, pa, pb in swaps:
            arcs = list(arcs_tab[i])
            (net_a, intr_a), (net_b, intr_b) = arcs[pa], arcs[pb]
            if net_a != net_b:
                arcs[pa], arcs[pb] = (net_b, intr_a), (net_a, intr_b)
                arcs_tab[i] = tuple(arcs)
                swapped.add(i)
                nets.update((net_a, net_b))
        # A touched net keeps its other sinks and re-reads the swapped instances' arcs.
        sinks_tab = self._net_sinks
        fresh = {k: [e for e in sinks_tab[k] if e[2] not in swapped] for k in nets}
        for i in swapped:
            name = self._inst_names[i]
            for pin, (src, _) in zip(self._cells[i].input_pins, arcs_tab[i]):
                if src in fresh:
                    fresh[src].append((name, pin, i))
            self._touch(i)
        for k, entries in fresh.items():
            sinks_tab[k] = tuple(sorted(entries))
            self._update_load(k)

    def add_instance(self, cell: Cell, pins: "dict[str, str]", name: "str | None" = None) -> str:
        """Instantiate a cell driving a fresh net, time it in place; returns its name."""
        if name is None:
            name = self.fresh_net(cell.function.lower())
        if name in self._inst_index:
            raise ValueError(f"duplicate instance name {name}")
        check_pins(name, cell, pins)
        spec = cell.spec
        out_name = pins[spec.output]
        if out_name in self._net_index:
            raise ValueError(f"net {out_name} already driven")
        arcs = tuple([(self._net_index[pins[pin]], cell.intrinsics[pin]) for pin in spec.inputs])

        i = len(self._inst_names)
        out_idx = len(self._net_names)
        self._net_index[out_name] = out_idx
        self._net_names.append(out_name)
        self._net_driver.append(i)
        self._net_load.append(0.0)
        self._net_arrival.append(0.0)
        self._net_wsrc.append(-1)
        self._net_sinks.append(())
        if self._required is not None:
            # Fresh net, no sinks yet: unconstrained until a later
            # rewire gives it fanout (which marks it stale).
            self._required.append(_INF)
        self._inst_index[name] = i
        self._inst_names.append(name)
        self._cells.append(cell)
        self._res.append(cell.resistance)
        self._out_net.append(out_idx)
        self._arcs.append(arcs)
        max_fanin_rank = -1.0
        for pin, (src, _) in zip(spec.inputs, arcs):
            self._add_sink(src, (name, pin, i))
            drv = self._net_driver[src]
            if drv >= 0 and self._rank[drv] > max_fanin_rank:
                max_fanin_rank = self._rank[drv]
        # Half-step rank: above every fanin, below the integer-ranked rest.
        # rewire_sink() repairs via _rerank() if a later edit violates it.
        self._rank.append(max_fanin_rank + 0.5)
        for src, _ in arcs:
            self._update_load(src)
        self._touch(i)
        return name

    def remove_instance(self, name: str) -> None:
        """Delete an instance; its output net must have no sinks and not be a port."""
        i = self._inst_index[name]
        out_idx = self._out_net[i]
        out_name = self._net_names[out_idx]
        if self._net_sinks[out_idx]:
            raise ValueError(f"cannot remove {name}: net {out_name} still has sinks")
        if out_idx in self._out_set:
            raise ValueError(f"cannot remove {name}: net {out_name} is a primary output")
        arcs = self._arcs[i]
        for pin, (src, _) in zip(self._cells[i].input_pins, arcs):
            self._drop_sink(src, (name, pin, i))
        del self._inst_index[name]
        self._inst_names[i] = None
        self._cells[i] = None
        self._arcs[i] = ()
        self._pending.discard(i)
        del self._net_index[out_name]
        self._net_names[out_idx] = None
        self._net_driver[out_idx] = -1
        for src in {s for s, _ in arcs}:
            self._update_load(src)
            if self._required is not None:
                # Each source net lost a sink candidate from its min.
                self._req_pending.add(src)
        self._req_pending.discard(out_idx)

    def rewire_sink(self, inst_name: str, pin: str, new_net: str) -> None:
        """Move one input pin to a different net; re-times both cones."""
        i = self._inst_index[inst_name]
        input_pins = self._cells[i].input_pins
        if pin not in input_pins:
            raise ValueError("rewire_sink only moves input pins")
        p = input_pins.index(pin)
        new_idx = self._net_index[new_net]
        arcs = self._arcs[i]
        old_idx, intrinsic = arcs[p]
        self._arcs[i] = arcs[:p] + ((new_idx, intrinsic),) + arcs[p + 1:]
        self._drop_sink(old_idx, (inst_name, pin, i))
        self._add_sink(new_idx, (inst_name, pin, i))
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

    def critical_indices(self) -> "list[int]":
        """Instance indices from the path's first gate to the worst output's driver."""
        self._flush()
        path: "list[int]" = []
        driver = self._net_driver
        wsrc = self._net_wsrc
        net = self._worst_output()
        while net >= 0 and driver[net] >= 0:
            path.append(driver[net])
            net = wsrc[net]
        path.reverse()
        return path

    def critical_path(self) -> "list[str]":
        """Instance names from the path's first gate to the worst output's driver."""
        names = self._inst_names
        return [names[i] for i in self.critical_indices()]

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
        net_names = self._net_names
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
            if net_names[s] is None:
                continue
            r = target if s in out_set else _INF
            for _, _, j in sinks_tab[s]:
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
        nets moves marked stale (:meth:`_flush_required`).
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
        live = [i for i, cell in enumerate(self._cells) if cell is not None]
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
        return {
            name: r - arr
            for name, r, arr in zip(self._net_names, req, self._net_arrival)
            if name is not None
        }

    def downsize_rejected(
        self, name: str, new_cell: Cell, limit: "float | None" = None, margin: float = 1e-9
    ) -> bool:
        """Prove that resizing ``name`` to ``new_cell`` must leave ``delay > limit``.

        ``limit`` defaults to the target, where the claim is ``wns < 0``.
        Used by slack-pruned area recovery: a downsize trial is accepted
        only if the delay stays within a limit afterwards (the target, or
        the pass's own delay bound while the target is missed), and a
        rejected trial reverts exactly, so skipping a *provably* rejected
        trial changes nothing observable. The proof is local and
        conservative:

        - The required time at the instance's output net is invariant
          under the trial (it depends only on downstream arc delays,
          which a resize of this instance never touches).
        - The trial's new output arrival is bounded below by the engine's
          own per-arc expression over current input arrivals, minus the
          largest possible upstream improvement: shrinking input-pin caps
          lowers the input nets' loads, which shortens any single path by
          at most the summed ``driver_resistance * cap_drop``.
        - Against ``limit`` the required time is the target's shifted by
          ``limit - target``; the shift's rounding (~1e-16) is far inside
          ``margin``.

        If even that lower bound exceeds the required time by more than
        ``margin`` — orders of magnitude above float path-sum noise,
        orders of magnitude below any real timing margin — some output
        must miss the limit. Returns ``False`` whenever the proof does
        not apply, so a would-be acceptance is never pruned.
        """
        req = self._ensure_required()
        i = self._inst_index[name]
        out = self._out_net[i]
        r_out = req[out]
        if r_out == _INF:
            return False
        if limit is not None:
            r_out += limit - self.target
        old_cell = self._cells[i]
        arrival = self._net_arrival
        driver = self._net_driver
        rl = new_cell.resistance * self._net_load[out]
        best = -_INF
        drop = 0.0
        seen: "set[int]" = set()
        pin_nets = [(pin, s) for pin, (s, _) in zip(new_cell.input_pins, self._arcs[i])]
        for pin, s in pin_nets:
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
            for q, qs in pin_nets:
                if qs == s:
                    dcap += old_cell.input_caps[q] - new_cell.input_caps[q]
            if dcap > 0.0:
                drop += self._res[d] * dcap
        return best - drop - r_out > margin

    def report(self) -> TimingReport:
        """Export the full dict-based :class:`TimingReport` (oracle format)."""
        arrival = {
            name: arr for name, arr in zip(self._net_names, self.arrivals()) if name is not None
        }
        required: "dict[str, float]" = {}
        slack: "dict[str, float]" = {}
        wns = _INF
        if self.target is not None:
            req = self._ensure_required()
            for name, r in zip(self._net_names, req):
                if name is None:
                    continue
                if r != _INF:
                    required[name] = r
                slack[name] = r - arrival[name]
            wns = self.target - self.delay
        return TimingReport(
            delay=self.delay,
            target=self.target,
            wns=wns,
            arrival=arrival,
            required=required,
            slack=slack,
            critical_path=self.critical_path(),
            area=self.area(),
        )

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------

    def fork(self, target: "float | None" = None) -> "TimingGraph":
        """Independent branch of the design and its analysis, optionally retargeted.

        Costs a copy of each flat table; the arc and sink tuples inside
        them are immutable and stay shared until a branch replaces one.
        This is what lets :func:`repro.synth.synthesize_curve` compile
        once and branch per delay target.
        """
        self._flush()
        other = object.__new__(TimingGraph)
        other.target = self.target if target is None else target
        other._pending = set()
        if other.target == self.target and self._required is not None:
            # Same target: the backward cache (and its dirty set) stays
            # valid in the branch.
            other._required = self._required.copy()
            other._req_pending = set(self._req_pending)
        else:
            other._required = None
            other._req_pending = set()
        other.name = self.name
        other.library = self.library
        other._counter = self._counter
        other._inputs = self._inputs
        other._out_nets = self._out_nets
        other._out_set = self._out_set
        other._inst_index = self._inst_index.copy()
        other._inst_names = self._inst_names.copy()
        other._cells = self._cells.copy()
        other._out_net = self._out_net.copy()
        other._rank = self._rank.copy()
        other._res = self._res.copy()
        other._arcs = self._arcs.copy()
        other._net_index = self._net_index.copy()
        other._net_names = self._net_names.copy()
        other._net_driver = self._net_driver.copy()
        other._net_load = self._net_load.copy()
        other._net_arrival = self._net_arrival.copy()
        other._net_wsrc = self._net_wsrc.copy()
        other._net_sinks = self._net_sinks.copy()
        return other

    def __repr__(self) -> str:
        return (
            f"TimingGraph({self.name!r}, insts={len(self._inst_index)}, "
            f"nets={len(self._net_index)}, target={self.target})"
        )
