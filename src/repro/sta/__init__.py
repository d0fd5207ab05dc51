"""Static timing analysis over gate-level netlists.

Implements the classic two-pass algorithm: forward arrival propagation in
topological order, backward required-time propagation from the delay target,
per-net slack, and critical-path extraction. Loads combine sink pin caps, a
per-fanout wire cap, and primary-output port caps. Inputs arrive at t=0 and
outputs share one required time — the uniform timing constraint the paper
trains under (Section V-A).

Two engines share one contract:

- :class:`TimingGraph` — the production engine: reads a netlist once into
  flat integer tables that hold the design *and* its analysis, takes every
  edit through its own move methods (incremental cone re-timing) and
  materialises a ``Netlist`` on demand; :func:`analyze_timing` is a
  one-shot wrapper over it.
- ``tests/oracles/sta.py`` — the original dict-of-objects traversal,
  preserved verbatim as the oracle the fast engine is property-tested
  bit-identical against.
"""

from repro.sta.timing import TimingReport, analyze_timing, net_load
from repro.sta.graph import TimingGraph
from repro.sta.power import PowerReport, estimate_power

__all__ = [
    "TimingReport",
    "TimingGraph",
    "analyze_timing",
    "net_load",
    "PowerReport",
    "estimate_power",
]
