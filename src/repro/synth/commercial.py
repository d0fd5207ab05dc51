"""The commercial-tool stand-in (Fig. 5 setting).

Two pieces:

- :class:`CommercialSynthesizer` — a stronger optimizer configuration:
  more sizing budget, more rounds, eager buffering/cloning, and extra
  recovery sweeps. It produces faster/denser circuits than the default
  tool on the same netlist, the way a commercial engine outperforms an
  open-source one.
- :func:`commercial_adder_family` — the "Commercial" series of Fig. 5:
  for each delay target the tool instantiates its own adder by trying a
  tuned family of regular/hybrid structures and keeping the best-area
  circuit that meets (or comes closest to) the target. This mirrors how
  production synthesis picks from a datapath library rather than
  optimizing a user netlist.
"""

from __future__ import annotations

from repro.cells.library import CellLibrary
from repro.netlist.adder import prefix_adder_netlist
from repro.prefix import structures
from repro.synth.optimizer import Synthesizer, SynthesisResult


class CommercialSynthesizer(Synthesizer):
    """High-effort optimizer configuration."""

    def __init__(self, name: str = "commercial"):
        super().__init__(
            name=name,
            max_sizing_moves=150,
            max_rounds=6,
            fanout_threshold=4,
            clone_threshold=2,
            enable_buffering=True,
            enable_cloning=True,
            enable_pin_swap=True,
            recovery_passes=4,
        )


_FAMILY = (
    "ripple",
    "brent_kung",
    "han_carlson",
    "ladner_fischer",
    "sklansky",
    "kogge_stone",
)


def commercial_adder_family(
    n: int,
    target: float,
    library: CellLibrary,
    synthesizer: "Synthesizer | None" = None,
) -> "tuple[str, SynthesisResult]":
    """Synthesize the tool's own adder for one delay target.

    Tries each structure in the tuned family, optimizes it at ``target``
    with the commercial-effort engine, and returns the winner: smallest
    area among circuits meeting the target, or the fastest circuit if none
    meets it. Deterministic tie-break on structure name.
    """
    if synthesizer is None:
        synthesizer = CommercialSynthesizer()
    results: "list[tuple[str, SynthesisResult]]" = []
    for name in _FAMILY:
        graph = structures.REGULAR_STRUCTURES[name](n)
        netlist = prefix_adder_netlist(graph, library)
        results.append((name, synthesizer.optimize(netlist, target)))
    meeting = [(nm, r) for nm, r in results if r.met]
    if meeting:
        meeting.sort(key=lambda item: (item[1].area, item[0]))
        return meeting[0]
    results.sort(key=lambda item: (item[1].delay, item[1].area, item[0]))
    return results[0]
