"""The netlist a synthesis result materialises, and what a curve does not build.

While a design is optimised it lives only in the ``TimingGraph``'s tables;
``SynthesisResult.netlist`` builds a ``Netlist`` from them when it is read.
This suite holds that on-demand object to the result it came from — for
every target of the curve ladder, over a random corpus and both libraries —
and guards, by counting calls rather than reading a clock, that a whole
``synthesize_curve`` builds no netlist beyond the adder it starts from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import industrial8nm, nangate45
from repro.netlist import verify_adder
from repro.netlist.ir import Netlist
from repro.prefix import REGULAR_STRUCTURES
from repro.sta import analyze_timing
from repro.synth import Synthesizer, synthesize_curve
from repro.synth.curve import NUM_TARGETS
from tests.conftest import random_walk_graph

LIBRARIES = {"nangate45": nangate45(), "industrial8nm": industrial8nm()}


class RecordingSynthesizer(Synthesizer):
    """Keeps every ladder rung's result (the curve itself keeps two floats)."""

    def __init__(self):
        super().__init__()
        self.results = []

    def optimize_prepared(self, prepared, target):
        result = super().optimize_prepared(prepared, target)
        self.results.append(result)
        return result


def corpus(n, seed):
    rng = np.random.default_rng(seed)
    graphs = [REGULAR_STRUCTURES[name](n) for name in ("sklansky", "brent_kung")]
    return graphs + [random_walk_graph(n, 15, rng) for _ in range(2)]


class TestOnDemandNetlist:
    @pytest.mark.parametrize("library", sorted(LIBRARIES))
    @pytest.mark.parametrize("n", (8, 16))
    def test_every_ladder_target_materialises_its_own_result(self, n, library):
        lib = LIBRARIES[library]
        for graph in corpus(n, seed=n):
            synthesizer = RecordingSynthesizer()
            curve = synthesize_curve(graph, lib, synthesizer)
            assert len(synthesizer.results) == NUM_TARGETS
            for result in synthesizer.results:
                netlist = result.netlist
                assert netlist is result.netlist  # built once, then kept
                netlist.validate()
                assert verify_adder(netlist, n, rng=0)
                assert netlist.area() == result.area
                assert analyze_timing(netlist).delay == result.delay
                assert result.met == (result.delay <= result.target)
            assert curve.min_delay == min(r.delay for r in synthesizer.results)

    def test_results_of_one_prepared_design_do_not_share_a_netlist(self):
        lib = LIBRARIES["nangate45"]
        synthesizer = RecordingSynthesizer()
        synthesize_curve(REGULAR_STRUCTURES["sklansky"](16), lib, synthesizer)
        tight, relaxed = synthesizer.results[:2]
        assert tight.netlist is not relaxed.netlist
        before = relaxed.netlist.area()
        name = next(iter(tight.netlist.instances))
        tight.netlist.replace_cell(name, lib.next_size_up(tight.netlist.instances[name].cell))
        assert relaxed.netlist.area() == before == relaxed.area


class TestCurveBuildsNoSecondRepresentation:
    def test_one_netlist_and_no_netlist_order_walk(self, monkeypatch):
        """Deterministic stand-in for a timing regression test: a curve
        builds exactly one ``Netlist`` (the adder), never validates it and
        never walks ``Netlist.topological_order`` — the compile is the
        structural check and ranks the graph from its own tables."""
        counts = {"init": 0, "topological_order": 0, "validate": 0}

        def counting(name):
            original = getattr(Netlist, name)

            def wrapper(self, *args, **kwargs):
                counts[name.strip("_")] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(Netlist, name, wrapper)

        for name in ("__init__", "topological_order", "validate"):
            counting(name)
        lib = LIBRARIES["nangate45"]
        for graph in corpus(16, seed=3):
            for key in counts:
                counts[key] = 0
            synthesize_curve(graph, lib)
            assert counts == {"init": 1, "topological_order": 0, "validate": 0}

    def test_optimize_leaves_its_argument_alone(self):
        from repro.netlist import prefix_adder_netlist, to_verilog

        lib = LIBRARIES["nangate45"]
        netlist = prefix_adder_netlist(REGULAR_STRUCTURES["kogge_stone"](16), lib)
        before = to_verilog(netlist), list(netlist.instances)
        result = Synthesizer().optimize(netlist, 0.0)
        assert (to_verilog(netlist), list(netlist.instances)) == before
        assert result.netlist is not netlist
        assert sum(result.moves.values()) > 0
