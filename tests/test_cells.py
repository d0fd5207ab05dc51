"""Tests for the cell-library IR and the two shipped libraries."""

import pytest

from repro.cells import Cell, CellLibrary, industrial8nm, nangate45
from repro.cells.library import build_scaled_family


@pytest.fixture(scope="module")
def ng45():
    return nangate45()


@pytest.fixture(scope="module")
def ind8():
    return industrial8nm()


class TestLibraryIR:
    def test_variants_sorted_by_drive(self, ng45):
        drives = [c.drive for c in ng45.variants("INV")]
        assert drives == sorted(drives)
        assert drives[0] == 1

    def test_smallest_is_x1(self, ng45):
        for fn in ng45.functions():
            assert ng45.smallest(fn).drive == 1

    def test_pick_exact_drive(self, ng45):
        assert ng45.pick("NAND2", 2).name == "NAND2_X2"
        with pytest.raises(KeyError):
            ng45.pick("NAND2", 16)

    def test_next_size_up_down_chain(self, ng45):
        x1 = ng45.smallest("INV")
        x2 = ng45.next_size_up(x1)
        assert x2.drive == 2
        assert ng45.next_size_down(x2) == x1
        assert ng45.next_size_down(x1) is None
        top = ng45.variants("INV")[-1]
        assert ng45.next_size_up(top) is None

    @pytest.mark.parametrize("make", (nangate45, industrial8nm), ids=lambda make: make.__name__)
    def test_size_steps_walk_every_function_in_drive_order(self, make):
        lib = make()
        for fn in lib.functions():
            variants = lib.variants(fn)
            up, cell = [variants[0]], variants[0]
            while (cell := lib.next_size_up(cell)) is not None:
                up.append(cell)
            down, cell = [variants[-1]], variants[-1]
            while (cell := lib.next_size_down(cell)) is not None:
                down.append(cell)
            assert up == variants == down[::-1], fn
            assert [c.drive for c in up] == sorted({c.drive for c in up}), fn
            assert lib.next_size_down(variants[0]) is None
            assert lib.next_size_up(variants[-1]) is None

    def test_cell_lookup_by_name(self, ng45):
        assert ng45.cell("XOR2_X1").function == "XOR2"

    def test_duplicate_cell_rejected(self):
        c = Cell("INV_X1", "INV", 1, 1.0, {"A": 1.0}, 0.01, {"A": 0.01})
        with pytest.raises(ValueError, match="duplicate"):
            CellLibrary("x", [c, c], 1.0, 1.0)

    def test_bad_function_rejected(self):
        c = Cell("FOO_X1", "FOO", 1, 1.0, {"A": 1.0}, 0.01, {"A": 0.01})
        with pytest.raises(ValueError, match="unknown cell function"):
            CellLibrary("x", [c], 1.0, 1.0)

    def test_mismatched_pins_rejected(self):
        c = Cell("INV_X1", "INV", 1, 1.0, {"B": 1.0}, 0.01, {"A": 0.01})
        with pytest.raises(ValueError, match="input_caps"):
            CellLibrary("x", [c], 1.0, 1.0)


class TestScaling:
    def test_drive_scaling_rules(self):
        fam = build_scaled_family(
            "INV", (1, 2, 4), 1.0, 0.5, {"A": 2.0}, 0.01, {"A": 0.02}
        )
        x1, x2, x4 = fam
        assert x2.resistance == pytest.approx(x1.resistance / 2)
        assert x4.resistance == pytest.approx(x1.resistance / 4)
        assert x2.input_caps["A"] == pytest.approx(2 * x1.input_caps["A"])
        assert x1.area < x2.area < x4.area
        # Sub-linear area growth: X4 costs less than 4x X1.
        assert x4.area < 4 * x1.area

    def test_arc_delay_linear_in_load(self):
        fam = build_scaled_family("INV", (1,), 1.0, 0.5, {"A": 2.0}, 0.01, {"A": 0.02})
        cell = fam[0]
        d0 = cell.arc_delay("A", 0.0)
        d10 = cell.arc_delay("A", 10.0)
        assert d0 == pytest.approx(cell.intrinsics["A"])
        assert d10 - d0 == pytest.approx(cell.resistance * 10.0)


class TestNangate45:
    def test_has_paper_gate_set(self, ng45):
        # Section V-A: "alternating NAND/NOR, OAI/AOI, XNOR, NOR and INV".
        for fn in ("NAND2", "NOR2", "AOI21", "OAI21", "XNOR2", "XOR2", "INV", "BUF"):
            assert fn in ng45.functions()

    def test_fo4_delay_is_45nm_plausible(self, ng45):
        # INV_X1 driving four INV_X1 loads should land near 25ps.
        inv = ng45.smallest("INV")
        load = 4 * inv.input_caps["A"] + 4 * ng45.wire_cap_per_fanout
        fo4 = inv.arc_delay("A", load)
        assert 0.015 <= fo4 <= 0.045

    def test_relative_areas(self, ng45):
        inv = ng45.smallest("INV").area
        assert ng45.smallest("NAND2").area > inv
        assert ng45.smallest("AOI21").area > ng45.smallest("NAND2").area
        assert ng45.smallest("XOR2").area > ng45.smallest("AOI21").area

    def test_nor_slower_than_nand(self, ng45):
        # Series-PMOS penalty: NOR2 arcs slower than NAND2 at equal load.
        nand, nor = ng45.smallest("NAND2"), ng45.smallest("NOR2")
        assert nor.arc_delay("A1", 5.0) > nand.arc_delay("A1", 5.0)


class TestIndustrial8nm:
    def test_much_denser_than_45nm(self, ng45, ind8):
        ratio = ind8.smallest("NAND2").area / ng45.smallest("NAND2").area
        assert ratio < 0.1

    def test_faster_than_45nm(self, ng45, ind8):
        d45 = ng45.smallest("NAND2").arc_delay("A1", 3.0)
        d8 = ind8.smallest("NAND2").arc_delay("A1", 3.0)
        assert d8 < d45

    def test_wider_drive_range(self, ng45, ind8):
        assert ind8.variants("INV")[-1].drive > ng45.variants("INV")[-1].drive

    def test_different_balance_nor_vs_nand(self, ng45, ind8):
        # The 8nm library narrows the NOR/NAND gap (FinFET) — the balance
        # shift that makes cross-library transfer non-trivial.
        def gap(lib):
            return (
                lib.smallest("NOR2").arc_delay("A1", 3.0)
                / lib.smallest("NAND2").arc_delay("A1", 3.0)
            )

        assert gap(ind8) < gap(ng45)

    def test_library_names_distinct(self, ng45, ind8):
        assert ng45.name != ind8.name
