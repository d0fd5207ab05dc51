"""Tests for the timing-driven optimizer: every move class, correctness, determinism."""

import numpy as np
import pytest

from repro.cells import industrial8nm, nangate45
from repro.netlist import prefix_adder_netlist, verify_adder
from repro.prefix import REGULAR_STRUCTURES, sklansky
from repro.sta import TimingGraph, analyze_timing
from repro.synth import Synthesizer
from tests.conftest import random_walk_graph


@pytest.fixture(scope="module")
def lib():
    return nangate45()


@pytest.fixture(scope="module")
def sk16(lib):
    return prefix_adder_netlist(sklansky(16), lib)


class TestOptimize:
    def test_tight_target_reduces_delay(self, lib, sk16):
        unopt = analyze_timing(sk16).delay
        res = Synthesizer().optimize(sk16, target=0.0)
        assert res.delay < unopt
        assert not res.met  # target 0 is unachievable by construction

    def test_relaxed_target_met_at_min_area(self, lib, sk16):
        unopt = analyze_timing(sk16)
        res = Synthesizer().optimize(sk16, target=unopt.delay * 2)
        assert res.met
        assert res.area <= sk16.area() + 1e-9

    def test_source_netlist_untouched(self, lib, sk16):
        area_before = sk16.area()
        Synthesizer().optimize(sk16, target=0.0)
        assert sk16.area() == pytest.approx(area_before)
        assert all(i.cell.drive == 1 for i in sk16.instances.values())

    def test_functional_correctness_preserved(self, lib):
        for name in ("sklansky", "brent_kung", "kogge_stone"):
            nl = prefix_adder_netlist(REGULAR_STRUCTURES[name](8), lib)
            for target in (0.0, 0.2, 1.0):
                res = Synthesizer().optimize(nl, target)
                assert verify_adder(res.netlist, 8, rng=11), (name, target)
                res.netlist.validate()

    def test_deterministic(self, lib, sk16):
        a = Synthesizer().optimize(sk16, target=0.25)
        b = Synthesizer().optimize(sk16, target=0.25)
        assert a.area == pytest.approx(b.area)
        assert a.delay == pytest.approx(b.delay)
        assert a.moves == b.moves

    def test_tighter_targets_cost_area(self, lib, sk16):
        syn = Synthesizer()
        fast = syn.optimize(sk16, target=0.0)
        slow = syn.optimize(sk16, target=1.0)
        assert fast.delay < slow.delay
        assert fast.area > slow.area

    def test_moves_recorded(self, lib, sk16):
        res = Synthesizer().optimize(sk16, target=0.0)
        assert res.moves["size_up"] > 0
        assert res.moves["pin_swap"] > 0


class TestPasses:
    def test_pin_swap_only_helps(self, lib, sk16):
        base = analyze_timing(sk16).delay
        syn = Synthesizer(
            max_sizing_moves=0,
            enable_buffering=False,
            enable_cloning=False,
            recovery_passes=0,
        )
        res = syn.optimize(sk16, target=0.0)
        assert res.delay <= base + 1e-12
        assert res.moves["pin_swap"] > 0
        assert res.moves["size_up"] == 0

    def test_sizing_disabled_no_upsizes(self, lib, sk16):
        syn = Synthesizer(max_sizing_moves=0)
        res = syn.optimize(sk16, target=0.0)
        assert res.moves["size_up"] == 0

    def test_buffering_toggle(self, lib):
        # Sklansky's high-fanout nodes are the buffering targets.
        nl = prefix_adder_netlist(sklansky(32), lib)
        with_buf = Synthesizer(enable_cloning=False).optimize(nl, target=0.0)
        no_buf = Synthesizer(enable_buffering=False, enable_cloning=False).optimize(
            nl, target=0.0
        )
        assert with_buf.delay <= no_buf.delay + 1e-12

    def test_cloning_improves_sklansky(self, lib):
        nl = prefix_adder_netlist(sklansky(32), lib)
        with_clone = Synthesizer(enable_buffering=False).optimize(nl, target=0.0)
        no_clone = Synthesizer(enable_buffering=False, enable_cloning=False).optimize(
            nl, target=0.0
        )
        assert with_clone.delay <= no_clone.delay + 1e-12

    def test_recovery_reduces_area_at_met_target(self, lib, sk16):
        target = analyze_timing(sk16).delay * 0.85
        with_rec = Synthesizer(recovery_passes=2).optimize(sk16, target=target)
        no_rec = Synthesizer(recovery_passes=0).optimize(sk16, target=target)
        assert with_rec.area <= no_rec.area + 1e-9
        if with_rec.met and no_rec.met:
            assert with_rec.moves["size_down"] >= 0


class TestPinSwapsInOnePass:
    """The pass hands its whole swap list to one ``swap_pins_at`` call; that
    must leave the tables exactly as one ``swap_pins`` per swap does, and as
    a fresh compile of the swapped design does (which catches a touched
    net's sinks or load rebuilt wrongly even when both sides share the bug)."""

    @pytest.mark.parametrize("library", (nangate45, industrial8nm), ids=lambda make: make.__name__)
    @pytest.mark.parametrize("n", (8, 16, 32))
    def test_one_call_equals_one_swap_at_a_time(self, n, library):
        lib = library()
        rng = np.random.default_rng(n)
        for _ in range(3):
            nl = prefix_adder_netlist(random_walk_graph(n, 2 * n, rng), lib)
            batched = TimingGraph(nl)
            calls = []
            apply = batched.swap_pins_at
            batched.swap_pins_at = lambda swaps: (calls.append(list(swaps)), apply(swaps))
            count = Synthesizer()._pin_swap_pass(batched)
            assert len(calls) == 1 and len(calls[0]) == count > 0

            one_by_one = TimingGraph(nl)
            for i, pa, pb in calls[0]:
                pins = one_by_one.cell_at(i).input_pins
                one_by_one.swap_pins(one_by_one.name_at(i), pins[pa], pins[pb])
            fresh = TimingGraph(batched.nl)
            for other in (one_by_one, fresh):
                assert batched._arcs == other._arcs
                assert batched._net_sinks == other._net_sinks
                assert batched._net_load == other._net_load
                assert batched.delay == other.delay


class TestOptimizedCircuitQuality:
    def test_upsized_cells_on_critical_path(self, lib, sk16):
        res = Synthesizer().optimize(sk16, target=0.0)
        drives = [i.cell.drive for i in res.netlist.instances.values()]
        assert max(drives) > 1

    def test_relaxed_circuit_is_all_x1(self, lib, sk16):
        res = Synthesizer().optimize(sk16, target=10.0)
        assert all(i.cell.drive == 1 for i in res.netlist.instances.values())
