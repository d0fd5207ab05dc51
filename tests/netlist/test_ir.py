"""Netlist IR mutation and invariant tests."""

import pytest

from repro.cells import nangate45
from repro.netlist import Netlist
from repro.netlist.ir import Instance


@pytest.fixture
def lib():
    return nangate45()


def tiny_netlist(lib):
    """a -> INV -> n1 -> INV -> y"""
    nl = Netlist("tiny", lib)
    nl.add_input("a")
    inv = lib.smallest("INV")
    nl.add_instance(inv, {"A": "a", "ZN": "n1"}, name="u1")
    nl.add_instance(inv, {"A": "n1", "ZN": "y"}, name="u2")
    nl.add_output("y")
    return nl


class TestConstruction:
    def test_instance_pin_check(self, lib):
        inv = lib.smallest("INV")
        with pytest.raises(ValueError, match="pins"):
            Instance("u", inv, {"A": "a"})  # missing output pin

    def test_double_drive_rejected(self, lib):
        nl = tiny_netlist(lib)
        inv = lib.smallest("INV")
        with pytest.raises(ValueError, match="already driven"):
            nl.add_instance(inv, {"A": "a", "ZN": "n1"})

    def test_duplicate_instance_name(self, lib):
        nl = tiny_netlist(lib)
        inv = lib.smallest("INV")
        with pytest.raises(ValueError, match="duplicate"):
            nl.add_instance(inv, {"A": "y", "ZN": "z"}, name="u1")

    def test_input_cannot_collide_with_driven_net(self, lib):
        nl = tiny_netlist(lib)
        with pytest.raises(ValueError):
            nl.add_input("n1")

    def test_area_sums_cells(self, lib):
        nl = tiny_netlist(lib)
        assert nl.area() == pytest.approx(2 * lib.smallest("INV").area)

    def test_cell_histogram(self, lib):
        nl = tiny_netlist(lib)
        assert nl.cell_histogram() == {"INV_X1": 2}


class TestMutation:
    def test_replace_cell_resizes(self, lib):
        nl = tiny_netlist(lib)
        nl.replace_cell("u1", lib.pick("INV", 4))
        assert nl.instances["u1"].cell.drive == 4
        nl.validate()

    def test_replace_cell_function_mismatch(self, lib):
        nl = tiny_netlist(lib)
        with pytest.raises(ValueError, match="preserve function"):
            nl.replace_cell("u1", lib.smallest("NAND2"))

    def test_remove_instance_with_sinks_rejected(self, lib):
        nl = tiny_netlist(lib)
        with pytest.raises(ValueError, match="sinks"):
            nl.remove_instance("u1")

    def test_remove_leaf_instance(self, lib):
        nl = Netlist("t", lib)
        nl.add_input("a")
        inv = lib.smallest("INV")
        nl.add_instance(inv, {"A": "a", "ZN": "n1"}, name="u1")
        nl.add_instance(inv, {"A": "a", "ZN": "n2"}, name="u2")
        nl.add_output("n1")
        nl.remove_instance("u2")
        assert "u2" not in nl.instances
        nl.validate()

    def test_rewire_sink(self, lib):
        nl = tiny_netlist(lib)
        inv = lib.smallest("INV")
        nl.add_instance(inv, {"A": "a", "ZN": "n2"}, name="u3")
        nl.rewire_sink("u2", "A", "n2")
        assert nl.instances["u2"].pins["A"] == "n2"
        assert ("u2", "A") in nl.sinks_of("n2")
        assert ("u2", "A") not in nl.sinks_of("n1")
        nl.validate()

    def test_swap_pins_commutative(self, lib):
        nl = Netlist("t", lib)
        nl.add_input("a")
        nl.add_input("b")
        nand = lib.smallest("NAND2")
        nl.add_instance(nand, {"A1": "a", "A2": "b", "ZN": "y"}, name="u1")
        nl.add_output("y")
        nl.swap_pins("u1", "A1", "A2")
        assert nl.instances["u1"].pins["A1"] == "b"
        nl.validate()

    def test_swap_pins_noncommutative_rejected(self, lib):
        nl = Netlist("t", lib)
        for net in ("a", "b", "c"):
            nl.add_input(net)
        aoi = lib.smallest("AOI21")
        nl.add_instance(aoi, {"A": "a", "B1": "b", "B2": "c", "ZN": "y"}, name="u1")
        nl.add_output("y")
        with pytest.raises(ValueError, match="not commutative"):
            nl.swap_pins("u1", "A", "B1")


class TestTopology:
    def test_topological_order_respects_deps(self, lib):
        nl = tiny_netlist(lib)
        order = nl.topological_order()
        assert order.index("u1") < order.index("u2")

    def test_cycle_detected(self, lib):
        nl = Netlist("cyc", lib)
        nl.add_input("a")
        nand = lib.smallest("NAND2")
        nl.add_instance(nand, {"A1": "a", "A2": "n2", "ZN": "n1"}, name="u1")
        nl.add_instance(nand, {"A1": "a", "A2": "n1", "ZN": "n2"}, name="u2")
        nl.add_output("n1")
        with pytest.raises(ValueError, match="cycle"):
            nl.topological_order()

    def test_validate_catches_undriven_net(self, lib):
        nl = Netlist("bad", lib)
        nl.add_input("a")
        inv = lib.smallest("INV")
        nl.add_instance(inv, {"A": "ghost", "ZN": "y"}, name="u1")
        nl.add_output("y")
        with pytest.raises(ValueError, match="no driver"):
            nl.validate()

    def test_materialised_copy_independent(self, lib):
        from repro.sta import TimingGraph

        nl = tiny_netlist(lib)
        graph = TimingGraph(nl)
        cp = graph.nl
        cp.replace_cell("u1", lib.pick("INV", 2))
        assert nl.instances["u1"].cell.drive == 1
        assert graph.cell_of("u1").drive == 1
        graph.replace_cell("u2", lib.pick("INV", 2))
        assert cp.instances["u2"].cell.drive == 1
        assert nl.instances["u2"].cell.drive == 1
        nl.validate()
        cp.validate()


class TestPortMembership:
    def test_membership_follows_the_port_lists(self, lib):
        nl = tiny_netlist(lib)
        assert nl.is_input("a") and not nl.is_input("n1") and not nl.is_input("y")
        assert nl.is_output("y") and not nl.is_output("n1") and not nl.is_output("a")
        assert [n for n in nl.nets() if nl.is_input(n)] == nl.inputs
        with pytest.raises(ValueError, match="already an output"):
            nl.add_output("y")
        with pytest.raises(ValueError, match="already driven"):
            nl.add_input("a")

    def test_materialised_copy_keeps_membership(self, lib):
        from repro.sta import TimingGraph

        nl = tiny_netlist(lib)
        other = TimingGraph(nl).nl
        assert other.is_input("a") and other.is_output("y")
        other.add_input("b")
        other.add_instance(lib.smallest("INV"), {"A": "b", "ZN": "z"}, name="u3")
        other.add_output("z")
        assert other.is_input("b") and other.is_output("z")
        with pytest.raises(ValueError, match="primary output"):
            other.remove_instance("u3")
        assert not nl.is_input("b") and not nl.is_output("z")

    def test_fanout_queries(self, lib):
        nl = tiny_netlist(lib)
        assert nl.has_sinks("a") and nl.has_sinks("n1") and not nl.has_sinks("y")
        assert not nl.has_sinks("never_declared")
        assert nl.output_nets() == [("u1", "n1"), ("u2", "y")]
