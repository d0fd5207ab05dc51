"""Parallel prefix graphs: representation, legality, construction, analysis.

A prefix graph over ``N`` inputs computes ``y_i = x_i o x_{i-1} o ... o x_0``
for an associative operator ``o``. Nodes are addressed ``(msb, lsb)`` on an
``N x N`` grid (rows = MSB, columns = LSB) following the paper's Section III-A
notation: inputs sit on the diagonal, outputs in column 0, and each interior
node has exactly one upper parent (same row, next-highest LSB) and one lower
parent derived from it.

This package provides:

- :class:`PrefixGraph` — an immutable grid plus its bit rows (one int per
  MSB); legality checks, parents, levels, fanouts and the minlist come from
  one walk over the rows, and the paper's add/delete/legalize action
  semantics (Algorithm 1) run on rows (:mod:`repro.prefix.legalize`);
- regular constructions (ripple-carry, Sklansky, Kogge-Stone, Brent-Kung,
  Han-Carlson, Ladner-Fischer) used as baselines and episode start states;
- serialization and ASCII rendering (used to reproduce Fig. 7).
"""

from repro.prefix.graph import PrefixGraph, IllegalActionError
from repro.prefix.legalize import legalize_minlist, derive_minlist, Algorithm1State
from repro.prefix.structures import (
    ripple_carry,
    sklansky,
    kogge_stone,
    brent_kung,
    han_carlson,
    ladner_fischer,
    REGULAR_STRUCTURES,
)
from repro.prefix.serialize import graph_to_dict, graph_from_dict, graph_to_json, graph_from_json
from repro.prefix.visualize import render_grid, render_network

__all__ = [
    "PrefixGraph",
    "IllegalActionError",
    "legalize_minlist",
    "derive_minlist",
    "Algorithm1State",
    "ripple_carry",
    "sklansky",
    "kogge_stone",
    "brent_kung",
    "han_carlson",
    "ladner_fischer",
    "REGULAR_STRUCTURES",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "render_grid",
    "render_network",
]
