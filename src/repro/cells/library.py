"""Cell and library intermediate representation.

A :class:`Cell` is one sized variant of a logic function (``NAND2_X2``); a
:class:`CellLibrary` holds every variant plus the wire-load constants the
timing engine needs. Logic function semantics (pin lists, boolean behaviour)
are fixed per function name in :data:`CELL_FUNCTIONS` so netlist generation,
simulation and timing all agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class CellFunction:
    """Semantics of a logic function shared by all its sized variants.

    ``inputs`` orders the pins; ``output`` names the single output pin
    (inverting cells use ``ZN`` by library convention, non-inverting ``Z``).
    ``commutative_groups`` lists pin groups that may be freely permuted —
    the pin-swapping optimization pass relies on this.
    """

    name: str
    inputs: "tuple[str, ...]"
    output: str
    commutative_groups: "tuple[tuple[str, ...], ...]"

    @cached_property
    def pin_set(self) -> "frozenset[str]":
        """Every pin an instance must bind: the inputs and the output."""
        return frozenset((*self.inputs, self.output))

    @cached_property
    def swap_pairs(self) -> "tuple[tuple[tuple[int, int], tuple[str, str]], ...]":
        """Each two-pin commutative group as ``((position, position), (pin, pin))``,
        positions indexing :attr:`inputs`."""
        return tuple(
            ((self.inputs.index(group[0]), self.inputs.index(group[1])), group)
            for group in self.commutative_groups
            if len(group) == 2
        )


CELL_FUNCTIONS = {
    "INV": CellFunction("INV", ("A",), "ZN", ()),
    "BUF": CellFunction("BUF", ("A",), "Z", ()),
    "NAND2": CellFunction("NAND2", ("A1", "A2"), "ZN", (("A1", "A2"),)),
    "NOR2": CellFunction("NOR2", ("A1", "A2"), "ZN", (("A1", "A2"),)),
    "AND2": CellFunction("AND2", ("A1", "A2"), "Z", (("A1", "A2"),)),
    "OR2": CellFunction("OR2", ("A1", "A2"), "Z", (("A1", "A2"),)),
    # AOI21: ZN = !((B1 & B2) | A) ; OAI21: ZN = !((B1 | B2) & A)
    "AOI21": CellFunction("AOI21", ("A", "B1", "B2"), "ZN", (("B1", "B2"),)),
    "OAI21": CellFunction("OAI21", ("A", "B1", "B2"), "ZN", (("B1", "B2"),)),
    "XOR2": CellFunction("XOR2", ("A", "B"), "Z", (("A", "B"),)),
    "XNOR2": CellFunction("XNOR2", ("A", "B"), "ZN", (("A", "B"),)),
}
"""Every function the netlist layer may instantiate."""


@dataclass(frozen=True)
class Cell:
    """One sized variant of a logic function.

    Attributes:
        name: full library name, e.g. ``NAND2_X2``.
        function: key into :data:`CELL_FUNCTIONS`.
        drive: relative drive strength (1, 2, 4, ...).
        area: cell area in um^2.
        input_caps: input pin name -> capacitance (fF).
        resistance: output drive resistance (ns per fF of load).
        intrinsics: input pin name -> intrinsic arc delay (ns).
    """

    name: str
    function: str
    drive: int
    area: float
    input_caps: "dict[str, float]" = field(hash=False)
    resistance: float = 0.0
    intrinsics: "dict[str, float]" = field(default=None, hash=False)

    @property
    def spec(self) -> CellFunction:
        """The shared function semantics for this cell."""
        return CELL_FUNCTIONS[self.function]

    @property
    def output_pin(self) -> str:
        return self.spec.output

    @property
    def input_pins(self) -> "tuple[str, ...]":
        return self.spec.inputs

    def arc_delay(self, in_pin: str, load: float) -> float:
        """Delay of the ``in_pin -> output`` arc driving ``load`` fF."""
        return self.intrinsics[in_pin] + self.resistance * load


class CellLibrary:
    """A named collection of cells plus wire-load constants.

    Attributes:
        name: library identifier (used in synthesis-cache keys).
        wire_cap_per_fanout: extra fF of net load per sink (short-net model).
        output_port_cap: fF load presented by a primary output.
    """

    def __init__(
        self,
        name: str,
        cells: "list[Cell]",
        wire_cap_per_fanout: float,
        output_port_cap: float,
    ):
        self.name = name
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self.output_port_cap = output_port_cap
        self._by_name: "dict[str, Cell]" = {}
        self._by_function: "dict[str, list[Cell]]" = {}
        for cell in cells:
            if cell.function not in CELL_FUNCTIONS:
                raise ValueError(f"unknown cell function {cell.function!r}")
            if set(cell.input_caps) != set(cell.input_pins):
                raise ValueError(f"{cell.name}: input_caps pins do not match function pins")
            if set(cell.intrinsics) != set(cell.input_pins):
                raise ValueError(f"{cell.name}: intrinsics pins do not match function pins")
            if cell.name in self._by_name:
                raise ValueError(f"duplicate cell name {cell.name}")
            self._by_name[cell.name] = cell
            self._by_function.setdefault(cell.function, []).append(cell)
        # Cell name -> (next-weaker, next-stronger) variant of its function.
        self._steps: "dict[str, tuple[Cell | None, Cell | None]]" = {}
        for variants in self._by_function.values():
            variants.sort(key=lambda c: c.drive)
            for down, cell, up in zip([None, *variants], variants, [*variants[1:], None]):
                self._steps[cell.name] = (down, up)

    def cell(self, name: str) -> Cell:
        """Look up a cell by full name (``NAND2_X2``)."""
        return self._by_name[name]

    def variants(self, function: str) -> "list[Cell]":
        """All drive variants of ``function``, ascending drive."""
        return list(self._by_function[function])

    def smallest(self, function: str) -> Cell:
        """Minimum-drive variant (the netlist generator's default pick)."""
        return self._by_function[function][0]

    def pick(self, function: str, drive: int) -> Cell:
        """Variant of ``function`` with exactly ``drive``."""
        for cell in self._by_function[function]:
            if cell.drive == drive:
                return cell
        raise KeyError(f"no {function} variant with drive {drive} in {self.name}")

    def next_size_up(self, cell: Cell) -> "Cell | None":
        """The next-stronger variant, or None at the top of the range."""
        return self._steps[cell.name][1]

    def next_size_down(self, cell: Cell) -> "Cell | None":
        """The next-weaker variant, or None at the bottom of the range."""
        return self._steps[cell.name][0]

    def functions(self) -> "list[str]":
        """Functions available in this library."""
        return sorted(self._by_function)

    def __repr__(self) -> str:
        return f"CellLibrary({self.name!r}, {len(self._by_name)} cells)"


def build_scaled_family(
    function: str,
    drives: "tuple[int, ...]",
    base_area: float,
    area_step: float,
    base_caps: "dict[str, float]",
    base_resistance: float,
    intrinsics: "dict[str, float]",
    intrinsic_improvement: float = 0.9,
) -> "list[Cell]":
    """Generate sized variants of one function with standard scaling rules.

    Drive X_k divides output resistance by ``k``, multiplies input caps by
    ``k`` and grows area sub-linearly (``base * (1 + area_step*(k-1))``);
    intrinsic delay improves slightly with size. These are the scaling
    relationships cell libraries actually exhibit and are what makes gate
    sizing a genuine trade-off.
    """
    cells = []
    for k in drives:
        cells.append(
            Cell(
                name=f"{function}_X{k}",
                function=function,
                drive=k,
                area=round(base_area * (1.0 + area_step * (k - 1)), 4),
                input_caps={p: round(c * k, 4) for p, c in base_caps.items()},
                resistance=base_resistance / k,
                intrinsics={
                    p: round(d * (intrinsic_improvement ** (k.bit_length() - 1)), 6)
                    for p, d in intrinsics.items()
                },
            )
        )
    return cells
