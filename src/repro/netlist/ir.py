"""Mutable gate-level netlist IR.

Unlike :class:`repro.prefix.PrefixGraph` this structure is mutable (resize,
buffer, clone, pin-swap) and maintains driver/sink indices incrementally.
It is what adders are built as, simulated and exported from. ``validate()``
is the full structural audit, for tests and hand-edited netlists; synthesis
leaves the check to the ``TimingGraph`` compile. The synthesis optimizer does not
edit it: :class:`repro.sta.TimingGraph` reads a netlist once, is the design
while it is optimised, and hands a fresh ``Netlist`` back on demand.
"""

from __future__ import annotations

from repro.cells.library import CELL_FUNCTIONS, Cell, CellLibrary


def check_pins(name: str, cell: Cell, pins: "dict[str, str]") -> None:
    """Raise ``ValueError`` unless ``pins`` binds exactly the pins of ``cell``."""
    expected = CELL_FUNCTIONS[cell.function].pin_set
    if pins.keys() != expected:
        raise ValueError(
            f"instance {name}: pins {sorted(pins)} do not match {cell.name} "
            f"pins {sorted(expected)}"
        )


class Instance:
    """One placed cell: a name, a :class:`Cell`, and pin-to-net bindings."""

    __slots__ = ("name", "cell", "pins")

    def __init__(self, name: str, cell: Cell, pins: "dict[str, str]"):
        check_pins(name, cell, pins)
        self.name = name
        self.cell = cell
        self.pins = dict(pins)

    @property
    def output_net(self) -> str:
        return self.pins[CELL_FUNCTIONS[self.cell.function].output]

    def input_nets(self) -> "list[tuple[str, str]]":
        """(pin, net) for every input pin, in function pin order."""
        pins = self.pins
        return [(p, pins[p]) for p in CELL_FUNCTIONS[self.cell.function].inputs]

    def __repr__(self) -> str:
        return f"Instance({self.name}, {self.cell.name})"


class Netlist:
    """A combinational gate-level netlist over one cell library.

    Nets are plain strings. ``inputs`` and ``outputs`` are primary ports:
    the lists are the public port order, declared through
    :meth:`add_input` / :meth:`add_output`, which also keep the sets that
    :meth:`is_input` / :meth:`is_output` answer from. Driver and sink maps
    are maintained on every mutation so timing and simulation never
    rebuild them from scratch.
    """

    def __init__(self, name: str, library: CellLibrary):
        self.name = name
        self.library = library
        self.inputs: "list[str]" = []
        self.outputs: "list[str]" = []
        self._input_set: "set[str]" = set()
        self._output_set: "set[str]" = set()
        self.instances: "dict[str, Instance]" = {}
        self._driver: "dict[str, str]" = {}
        self._sinks: "dict[str, set[tuple[str, str]]]" = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self._driver or net in self._input_set:
            raise ValueError(f"net {net} already driven")
        self.inputs.append(net)
        self._input_set.add(net)
        self._sinks.setdefault(net, set())
        return net

    def add_output(self, net: str) -> str:
        """Declare an existing net as a primary output."""
        if net in self._output_set:
            raise ValueError(f"net {net} already an output")
        self.outputs.append(net)
        self._output_set.add(net)
        return net

    def is_input(self, net: str) -> bool:
        """Whether ``net`` is a primary input."""
        return net in self._input_set

    def is_output(self, net: str) -> bool:
        """Whether ``net`` is a primary output."""
        return net in self._output_set

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------

    def fresh_net(self, hint: str = "n") -> str:
        """Allocate a unique net name."""
        self._counter += 1
        return f"{hint}_{self._counter}"

    def add_instance(self, cell: Cell, pins: "dict[str, str]", name: "str | None" = None) -> Instance:
        """Instantiate ``cell`` (unnamed: ``<function>_<k>`` off the net counter)."""
        function = cell.function
        if name is None:
            self._counter += 1
            name = f"{function.lower()}_{self._counter}"
        if name in self.instances:
            raise ValueError(f"duplicate instance name {name}")
        inst = Instance(name, cell, pins)
        spec = CELL_FUNCTIONS[function]
        out = pins[spec.output]
        if out in self._driver or out in self._input_set:
            raise ValueError(f"net {out} already driven")
        self.instances[name] = inst
        self._driver[out] = name
        sinks = self._sinks
        sinks.setdefault(out, set())
        for pin in spec.inputs:
            sinks.setdefault(pins[pin], set()).add((name, pin))
        return inst

    def remove_instance(self, name: str) -> None:
        """Delete an instance; its output net must have no sinks and not be a port."""
        inst = self.instances[name]
        out = inst.output_net
        if self._sinks.get(out):
            raise ValueError(f"cannot remove {name}: net {out} still has sinks")
        if out in self._output_set:
            raise ValueError(f"cannot remove {name}: net {out} is a primary output")
        for pin, net in inst.input_nets():
            self._sinks[net].discard((name, pin))
        del self._driver[out]
        del self._sinks[out]
        del self.instances[name]

    def replace_cell(self, name: str, new_cell: Cell) -> None:
        """Swap an instance's cell for another variant of the same function."""
        inst = self.instances[name]
        if new_cell.function != inst.cell.function:
            raise ValueError(
                f"resize must preserve function: {inst.cell.function} -> {new_cell.function}"
            )
        inst.cell = new_cell

    def rewire_sink(self, inst_name: str, pin: str, new_net: str) -> None:
        """Move one input pin of an instance to a different net."""
        inst = self.instances[inst_name]
        old_net = inst.pins[pin]
        if pin == inst.cell.output_pin:
            raise ValueError("rewire_sink only moves input pins")
        self._sinks[old_net].discard((inst_name, pin))
        inst.pins[pin] = new_net
        self._sinks.setdefault(new_net, set()).add((inst_name, pin))

    def swap_pins(self, inst_name: str, pin_a: str, pin_b: str) -> None:
        """Exchange the nets on two (commutative) input pins."""
        inst = self.instances[inst_name]
        groups = inst.cell.spec.commutative_groups
        if not any(pin_a in g and pin_b in g for g in groups):
            raise ValueError(f"{inst.cell.name}: pins {pin_a},{pin_b} are not commutative")
        net_a, net_b = inst.pins[pin_a], inst.pins[pin_b]
        self._sinks[net_a].discard((inst_name, pin_a))
        self._sinks[net_b].discard((inst_name, pin_b))
        inst.pins[pin_a], inst.pins[pin_b] = net_b, net_a
        self._sinks[net_b].add((inst_name, pin_a))
        self._sinks[net_a].add((inst_name, pin_b))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def driver_of(self, net: str) -> "str | None":
        """Instance name driving ``net`` (None for primary inputs)."""
        return self._driver.get(net)

    def sinks_of(self, net: str) -> "list[tuple[str, str]]":
        """Sorted (instance, pin) sinks of ``net``."""
        return sorted(self._sinks.get(net, ()))

    def has_sinks(self, net: str) -> bool:
        """Whether anything reads ``net`` (its fan-out is non-empty)."""
        return bool(self._sinks.get(net))

    def output_nets(self) -> "list[tuple[str, str]]":
        """(instance, output net) for every instance, in insertion order."""
        return [(name, inst.output_net) for name, inst in self.instances.items()]

    def nets(self) -> "list[str]":
        """All nets (inputs plus driven nets)."""
        return list(self.inputs) + [n for n in self._sinks if n not in self._input_set]

    def area(self) -> float:
        """Total cell area (um^2)."""
        return sum(inst.cell.area for inst in self.instances.values())

    def cell_histogram(self) -> "dict[str, int]":
        """Cell name -> count, for reporting."""
        hist: "dict[str, int]" = {}
        for inst in self.instances.values():
            hist[inst.cell.name] = hist.get(inst.cell.name, 0) + 1
        return dict(sorted(hist.items()))

    def topological_order(self) -> "list[str]":
        """Instance names in topological order (inputs to outputs).

        Raises ``ValueError`` on combinational cycles.
        """
        indegree: "dict[str, int]" = {}
        dependents: "dict[str, list[str]]" = {}
        for name, inst in self.instances.items():
            count = 0
            for _, net in inst.input_nets():
                drv = self._driver.get(net)
                if drv is not None:
                    count += 1
                    dependents.setdefault(drv, []).append(name)
            indegree[name] = count
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order: "list[str]" = []
        while ready:
            name = ready.pop()
            order.append(name)
            for dep in dependents.get(name, ()):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self.instances):
            raise ValueError("netlist contains a combinational cycle")
        return order

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on corruption.

        Builds do not run it; ``tests/netlist/test_build_invariants.py`` does."""
        for name, inst in self.instances.items():
            if self._driver.get(inst.output_net) != name:
                raise ValueError(f"driver map stale for {name}")
            for pin, net in inst.input_nets():
                if (name, pin) not in self._sinks.get(net, ()):
                    raise ValueError(f"sink map stale for {name}.{pin}")
                if net not in self._input_set and net not in self._driver:
                    raise ValueError(f"net {net} (sink of {name}) has no driver")
        for net in self.outputs:
            if net not in self._input_set and net not in self._driver:
                raise ValueError(f"primary output {net} has no driver")
        self.topological_order()

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, cells={len(self.instances)}, "
            f"area={self.area():.2f}um2, lib={self.library.name})"
        )
