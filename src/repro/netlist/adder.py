"""Prefix-adder netlist generation (Zimmermann cell-based style, paper ref. [27]).

The paper builds adders "using alternating NAND/NOR, OAI/AOI, XNOR, NOR and
INV gates" (Section V-A). This module implements that polarity-alternating
scheme over an arbitrary legal prefix graph:

- **Pre-processing** produces complemented generate/propagate per bit:
  ``~g_i = NAND2(a_i, b_i)``, ``~p_i = XNOR2(a_i, b_i)``.
- **Prefix nodes** consume both parents' (G, P) in one polarity and emit the
  opposite polarity, so no inverters appear on a parity-aligned path:

  - complemented in, true out: ``G = OAI21(B1=~Pu, B2=~Gl, A=~Gu)``,
    ``P = NOR2(~Pu, ~Pl)``;
  - true in, complemented out: ``~G = AOI21(B1=Pu, B2=Gl, A=Gu)``,
    ``~P = NAND2(Pu, Pl)``.

  When the two parents arrive in different polarities (their levels differ
  in parity), INV cells repair the shallower parent — the deeper parent is
  the likelier critical path and stays inverter-free.
- **Sum stage**: ``s_i = XOR2(~p_i, ~c_{i-1})`` or ``XNOR2(~p_i, c_{i-1})``
  depending on the carry polarity; ``s_0 = INV(~p_0)``; ``cout`` is the
  top-level group generate.

Generation is *demand-driven*: a node's P signal is only materialized if a
consumer needs it, so the dead P-chains of the output column never exist.
This mirrors what logic synthesis would sweep away and keeps the area signal
honest. Every gate is emitted after the gates it reads: instance order is
topological, so the timing graph ranks by it without a sort.
"""

from __future__ import annotations

from repro.cells.library import CellLibrary
from repro.netlist.ir import Netlist
from repro.prefix.graph import PrefixGraph

TRUE_FORM = 0
COMP_FORM = 1


class _AdderBuilder:
    """Stateful demand-driven builder for one adder netlist."""

    def __init__(self, graph: PrefixGraph, library: CellLibrary, name: str):
        self.graph = graph
        self.lib = library
        self.nl = Netlist(name, library)
        # (msb, lsb, 'g'|'p', form) -> net name
        self._signal: "dict[tuple[int, int, str, int], str]" = {}
        # Nested lists: the builder reads one cell at a time, where numpy
        # scalar indexing costs more than the lookup it does.
        self._levels: "list[list[int]]" = graph.levels().tolist()

    # -- polarity bookkeeping ------------------------------------------

    def _native_form(self, msb: int, lsb: int) -> int:
        """Polarity a node's (G, P) is produced in without repair inverters.

        Leaf pre-processing emits complemented signals (form 1); each prefix
        level flips polarity, so a node's native form is the parity of
        ``level + 1``.
        """
        if msb == lsb:
            return COMP_FORM
        return (self._levels[msb][lsb] + 1) % 2

    # -- netlist helpers -----------------------------------------------

    def _gate(self, function: str, pins: "dict[str, str]", hint: str) -> str:
        """Instantiate the smallest ``function`` cell; ``pins`` (the caller's
        fresh dict) gains the output pin and is copied once, by the IR."""
        cell = self.lib.smallest(function)
        out = self.nl.fresh_net(hint)
        pins[cell.output_pin] = out
        self.nl.add_instance(cell, pins)
        return out

    def _invert(self, net: str, hint: str) -> str:
        return self._gate("INV", {"A": net}, hint)

    # -- signal construction -------------------------------------------

    def signal(self, msb: int, lsb: int, kind: str, form: int) -> str:
        """Net carrying the ``kind`` ('g' or 'p') of span [msb:lsb] in ``form``.

        Builds the cone on demand and memoizes; a polarity mismatch costs
        one INV, also memoized so repair inverters are shared.
        """
        key = (msb, lsb, kind, form)
        if key in self._signal:
            return self._signal[key]
        native = self._native_form(msb, lsb)
        if form != native:
            net = self._invert(self.signal(msb, lsb, kind, native), f"{kind}{msb}_{lsb}_inv")
        elif msb == lsb:
            net = self._leaf(msb, kind)
        else:
            net = self._prefix_node(msb, lsb, kind)
        self._signal[key] = net
        return net

    def _leaf(self, bit: int, kind: str) -> str:
        """Pre-processing gates: complemented g/p of a single bit."""
        a, b = f"a{bit}", f"b{bit}"
        if kind == "g":
            return self._gate("NAND2", {"A1": a, "A2": b}, f"gbar{bit}")
        return self._gate("XNOR2", {"A": a, "B": b}, f"pbar{bit}")

    def _prefix_node(self, msb: int, lsb: int, kind: str) -> str:
        """Carry-operator gates for node (msb, lsb) in its native form."""
        (um, ul), (lm, ll) = self.graph.parents(msb, lsb)
        native = self._native_form(msb, lsb)
        parent_form = COMP_FORM if native == TRUE_FORM else TRUE_FORM
        if kind == "g":
            g_up = self.signal(um, ul, "g", parent_form)
            p_up = self.signal(um, ul, "p", parent_form)
            g_lo = self.signal(lm, ll, "g", parent_form)
            if native == TRUE_FORM:
                # G = (Pu * Gl) + Gu from complemented parents.
                return self._gate(
                    "OAI21", {"B1": p_up, "B2": g_lo, "A": g_up}, f"g{msb}_{lsb}"
                )
            # ~G = !((Pu * Gl) + Gu) from true parents.
            return self._gate(
                "AOI21", {"B1": p_up, "B2": g_lo, "A": g_up}, f"gbar{msb}_{lsb}"
            )
        p_up = self.signal(um, ul, "p", parent_form)
        p_lo = self.signal(lm, ll, "p", parent_form)
        if native == TRUE_FORM:
            return self._gate("NOR2", {"A1": p_up, "A2": p_lo}, f"p{msb}_{lsb}")
        return self._gate("NAND2", {"A1": p_up, "A2": p_lo}, f"pbar{msb}_{lsb}")

    # -- top level -------------------------------------------------------

    def build(self, with_cout: bool) -> Netlist:
        n = self.graph.n
        for i in range(n):
            self.nl.add_input(f"a{i}")
            self.nl.add_input(f"b{i}")

        # s0 = p0 = a0 ^ b0, realized as INV(~p0).
        s0 = self._invert(self.signal(0, 0, "p", COMP_FORM), "s0")
        self._bind_output("s0", s0)

        for i in range(1, n):
            pbar = self.signal(i, i, "p", COMP_FORM)
            carry_native = self._native_form(i - 1, 0)
            if carry_native == COMP_FORM:
                cbar = self.signal(i - 1, 0, "g", COMP_FORM)
                s = self._gate("XOR2", {"A": pbar, "B": cbar}, f"s{i}")
            else:
                c = self.signal(i - 1, 0, "g", TRUE_FORM)
                s = self._gate("XNOR2", {"A": pbar, "B": c}, f"s{i}")
            self._bind_output(f"s{i}", s)

        if with_cout:
            cout = self.signal(n - 1, 0, "g", TRUE_FORM)
            self._bind_output("cout", cout)
        return self.nl

    def _bind_output(self, port: str, net: str) -> None:
        """Expose ``net`` as primary output ``port`` via a zero-cost alias.

        The IR has no net aliases, so the builder renames by inserting the
        port name directly: it re-declares the driving instance's output.
        A BUF would distort area, so we rename the net instead.
        """
        driver = self.nl.driver_of(net)
        if driver is None:
            raise AssertionError(f"output {port} driven by primary input {net}")
        inst = self.nl.instances[driver]
        # Rename net -> port on the driver and any existing sinks.
        inst.pins[inst.cell.output_pin] = port
        self.nl._driver[port] = driver
        del self.nl._driver[net]
        sinks = self.nl._sinks.pop(net, set())
        self.nl._sinks[port] = set()
        for sink_name, pin in sinks:
            self.nl.instances[sink_name].pins[pin] = port
            self.nl._sinks[port].add((sink_name, pin))
        self.nl.add_output(port)


class _NaiveAdderBuilder(_AdderBuilder):
    """Textbook AND-OR carry logic (the netlist-style ablation baseline).

    Every node computes ``G = OR2(AND2(Pu, Gl), Gu)`` and ``P = AND2(Pu,
    Pl)`` in true form; leaves use AND2/XOR2; sums use XOR2. Two logic
    levels per prefix node instead of one complex gate — the cost the
    polarity-alternating AOI/OAI style avoids.
    """

    def _native_form(self, msb: int, lsb: int) -> int:
        return TRUE_FORM

    def _leaf(self, bit: int, kind: str) -> str:
        a, b = f"a{bit}", f"b{bit}"
        if kind == "g":
            return self._gate("AND2", {"A1": a, "A2": b}, f"g{bit}")
        return self._gate("XOR2", {"A": a, "B": b}, f"p{bit}")

    def _prefix_node(self, msb: int, lsb: int, kind: str) -> str:
        (um, ul), (lm, ll) = self.graph.parents(msb, lsb)
        if kind == "g":
            g_up = self.signal(um, ul, "g", TRUE_FORM)
            p_up = self.signal(um, ul, "p", TRUE_FORM)
            g_lo = self.signal(lm, ll, "g", TRUE_FORM)
            term = self._gate("AND2", {"A1": p_up, "A2": g_lo}, f"t{msb}_{lsb}")
            return self._gate("OR2", {"A1": term, "A2": g_up}, f"g{msb}_{lsb}")
        p_up = self.signal(um, ul, "p", TRUE_FORM)
        p_lo = self.signal(lm, ll, "p", TRUE_FORM)
        return self._gate("AND2", {"A1": p_up, "A2": p_lo}, f"p{msb}_{lsb}")

    def build(self, with_cout: bool) -> Netlist:
        n = self.graph.n
        for i in range(n):
            self.nl.add_input(f"a{i}")
            self.nl.add_input(f"b{i}")
        # s0 = p0 directly; expose through a buffer-free rename via XOR2
        # with zero? The IR needs a driving gate, so s0 re-instantiates the
        # leaf XOR2 on the output net.
        s0 = self.signal(0, 0, "p", TRUE_FORM)
        self._bind_output("s0", s0)
        for i in range(1, n):
            p = self.signal(i, i, "p", TRUE_FORM)
            c = self.signal(i - 1, 0, "g", TRUE_FORM)
            s = self._gate("XOR2", {"A": p, "B": c}, f"s{i}")
            self._bind_output(f"s{i}", s)
        if with_cout:
            self._bind_output("cout", self.signal(n - 1, 0, "g", TRUE_FORM))
        return self.nl


def prefix_adder_netlist(
    graph: PrefixGraph,
    library: CellLibrary,
    name: "str | None" = None,
    with_cout: bool = True,
    style: str = "aoi",
) -> Netlist:
    """Generate the gate-level adder netlist for a prefix graph.

    Ports: inputs ``a0..a{n-1}``, ``b0..b{n-1}``; outputs ``s0..s{n-1}``
    and (by default) ``cout``. All cells start at minimum drive; sizing is
    the synthesis optimizer's job.

    ``style`` selects the carry-logic mapping: ``"aoi"`` (default) is the
    paper's polarity-alternating NAND/NOR + AOI/OAI scheme; ``"naive"`` is
    textbook AND-OR logic, kept as the ablation baseline. Not validated
    here: ``tests/netlist/test_build_invariants.py`` proves every build path
    (``validate()``, topological order, exhaustive addition).
    """
    if name is None:
        name = f"adder{graph.n}"
    if style == "aoi":
        builder = _AdderBuilder(graph, library, name)
    elif style == "naive":
        builder = _NaiveAdderBuilder(graph, library, name)
    else:
        raise ValueError(f"unknown netlist style {style!r}")
    return builder.build(with_cout)
