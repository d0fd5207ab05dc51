"""Structural Verilog export.

Writes the gate-level netlist as a synthesizable structural module so
designs can leave this library for real EDA flows (the practical
deliverable of a prefix-circuit optimizer). Cell and pin names follow the
library (``NAND2_X1 u42 (.A1(n1), .A2(n2), .ZN(n3));``), net names are
sanitized to Verilog identifiers.
"""

from __future__ import annotations

import re

from repro.netlist.ir import Netlist

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")


def _sanitize(net: str) -> str:
    """Make a net name a legal Verilog identifier (escape if needed)."""
    if _IDENT.match(net):
        return net
    return "\\" + net + " "


def to_verilog(netlist: Netlist, module_name: "str | None" = None) -> str:
    """Render the netlist as one structural Verilog module."""
    name = module_name if module_name is not None else netlist.name
    inputs = list(netlist.inputs)
    outputs = list(netlist.outputs)
    ports = ", ".join(_sanitize(p) for p in inputs + outputs)

    wires = sorted(
        net
        for net in netlist.nets()
        if not netlist.is_input(net) and not netlist.is_output(net)
    )

    lines = [
        f"// Generated by repro (PrefixRL reproduction) — library {netlist.library.name}",
        f"module {name} ({ports});",
    ]
    lines += [f"  input {_sanitize(p)};" for p in inputs]
    lines += [f"  output {_sanitize(p)};" for p in outputs]
    if wires:
        lines += [f"  wire {_sanitize(w)};" for w in wires]
    lines.append("")

    for inst_name in sorted(netlist.instances):
        inst = netlist.instances[inst_name]
        pin_binds = ", ".join(
            f".{pin}({_sanitize(net)})" for pin, net in sorted(inst.pins.items())
        )
        lines.append(f"  {inst.cell.name} {inst_name} ({pin_binds});")

    lines.append("endmodule")
    return "\n".join(lines) + "\n"
