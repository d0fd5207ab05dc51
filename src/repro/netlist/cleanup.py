"""Dead-logic elimination.

Netlist generation is demand-driven so fresh adders carry no dead gates, but
optimizer transforms (cloning, buffering) can orphan instances. This pass
sweeps every instance whose output reaches no primary output, iterating to a
fixed point.
"""

from __future__ import annotations


def remove_dead_logic(design) -> int:
    """Remove instances with no transitive path to a primary output.

    Returns the number of instances removed. Mutates ``design``: a
    :class:`repro.netlist.Netlist`, or the :class:`repro.sta.TimingGraph`
    holding a design under optimisation (whose analysis stays live across
    the sweep) — anything with ``output_nets()``, ``has_sinks(net)``,
    ``is_output(net)`` and ``remove_instance(name)``, so there is one
    definition of "dead".
    """
    removed = 0
    while True:
        dead = [
            name
            for name, net in design.output_nets()
            if not design.has_sinks(net) and not design.is_output(net)
        ]
        if not dead:
            return removed
        for name in dead:
            design.remove_instance(name)
            removed += 1
