"""Regression: the incremental optimizer is byte-identical to the old path.

The pre-``TimingGraph`` optimizer (full dict STA per candidate trial) is
preserved in :mod:`tests.oracles.synth`; the production path must make
the same decisions and produce the same floats — curve samples, accepted
move counts, final netlists — for the RL reward stream to be unchanged, on
both libraries."""

import pytest

from repro.cells import industrial8nm, nangate45
from repro.prefix import REGULAR_STRUCTURES, sklansky
from repro.synth import Synthesizer, synthesize_curve
from tests.oracles.synth import ReferenceSynthesizer, synthesize_curve_reference
from tests.conftest import random_walk_graph


@pytest.fixture(scope="module", params=[nangate45, industrial8nm], ids=lambda make: make.__name__)
def lib(request):
    return request.param()


class TestCurveByteIdentity:
    @pytest.mark.parametrize("n", (8, 16))
    @pytest.mark.parametrize("structure", ("sklansky", "brent_kung", "kogge_stone"))
    def test_regular_structures(self, n, structure, lib):
        graph = REGULAR_STRUCTURES[structure](n)
        new = synthesize_curve(graph, lib)
        old = synthesize_curve_reference(graph, lib)
        assert new.points() == old.points()

    def test_random_graphs(self, rng, lib):
        for n in (8, 16):
            graph = random_walk_graph(n, 15, rng)
            new = synthesize_curve(graph, lib)
            old = synthesize_curve_reference(graph, lib)
            assert new.points() == old.points()


class TestOptimizeByteIdentity:
    @pytest.mark.parametrize("target", (0.0, 0.2, 0.5, 2.0))
    def test_results_and_netlists_match(self, target, lib):
        from repro.netlist import prefix_adder_netlist

        nl = prefix_adder_netlist(sklansky(16), lib)
        new = Synthesizer().optimize(nl, target)
        old = ReferenceSynthesizer().optimize(nl, target)
        assert new.area == old.area
        assert new.delay == old.delay
        assert new.met == old.met
        assert new.moves == old.moves
        assert sorted(new.netlist.instances) == sorted(old.netlist.instances)
        for name, inst in new.netlist.instances.items():
            other = old.netlist.instances[name]
            assert inst.cell.name == other.cell.name
            assert inst.pins == other.pins

    def test_pass_toggles_match(self, lib):
        from repro.netlist import prefix_adder_netlist

        nl = prefix_adder_netlist(sklansky(16), lib)
        kwargs = dict(enable_buffering=False, enable_pin_swap=False, recovery_passes=1)
        new = Synthesizer(**kwargs).optimize(nl, 0.1)
        old = ReferenceSynthesizer(**kwargs).optimize(nl, 0.1)
        assert (new.area, new.delay, new.met, new.moves) == (
            old.area,
            old.delay,
            old.met,
            old.moves,
        )

    def test_prepared_reuse_matches_fresh_optimize(self, lib):
        from repro.netlist import prefix_adder_netlist

        nl = prefix_adder_netlist(sklansky(16), lib)
        syn = Synthesizer()
        prepared = syn.prepare(nl)
        for target in (0.0, 0.3, 1.0):
            via_prepared = syn.optimize_prepared(prepared, target)
            fresh = syn.optimize(nl, target)
            assert (via_prepared.area, via_prepared.delay, via_prepared.moves) == (
                fresh.area,
                fresh.delay,
                fresh.moves,
            )
