"""Tests for the Moto-Kaneko analytical model (Fig. 6 evaluator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical import analytical_area, analytical_delay, evaluate_analytical
from tests.oracles.analytical import analytical_delay_reference
from repro.prefix import REGULAR_STRUCTURES, brent_kung, kogge_stone, ripple_carry, sklansky
from tests.conftest import random_walk_graph

WIDTHS = (2, 3, 5, 13, 16, 32, 33, 64, 65)


class TestArea:
    def test_area_is_compute_node_count(self):
        assert analytical_area(ripple_carry(8)) == 7.0
        assert analytical_area(sklansky(32)) == 80.0

    def test_area_monotone_under_add(self, rng):
        for _ in range(10):
            g = random_walk_graph(8, 15, rng)
            adds = [(m, l) for m in range(8) for l in range(1, m) if g.can_add(m, l)]
            if not adds:
                continue
            g2 = g.add_node(*adds[0])
            # An add can retire at most as many nodes as it creates lower
            # parents for, but the target node itself is new: area never
            # drops below the pre-add count minus retired helpers; at
            # minimum the compute count stays positive and legal.
            assert analytical_area(g2) >= 1


class TestDelay:
    def test_paper_fig6a_anchor_sklansky32(self):
        # Section V-D / Fig. 6a: under the [14] model the 32b frontier spans
        # delay ~14..22; Sklansky lands at the top of that range.
        d = analytical_delay(sklansky(32))
        assert 20.0 <= d <= 22.5

    def test_paper_fig6a_anchor_koggestone32(self):
        d = analytical_delay(kogge_stone(32))
        assert 12.0 <= d <= 15.0

    def test_ripple_delay_formula(self):
        # Chain of n-1 outputs each with fanout 1 (delay 1.5) plus the
        # final output (fanout 0, delay 1.0) plus the first input (fanout
        # 2 in a ripple graph? input 0 feeds output 1 only -> fanout 1).
        # Compute exactly: arrival grows by 1.5 per chain node.
        n = 8
        d = analytical_delay(ripple_carry(n))
        # input (0,0) fanout=1 -> 1.5; outputs 1..n-2 fanout=1 -> 1.5 each;
        # output n-1 fanout=0 -> 1.0.
        assert d == pytest.approx(1.5 * (n - 1) + 1.0)

    def test_delay_positive_and_finite(self, rng):
        for _ in range(10):
            g = random_walk_graph(10, 25, rng)
            d = analytical_delay(g)
            assert 0 < d < 1000

    def test_deeper_structures_slower(self):
        # Under the analytical model, ripple is much slower than Kogge-Stone.
        assert analytical_delay(ripple_carry(32)) > analytical_delay(kogge_stone(32))


class TestOnePassMatchesReference:
    """The one-pass topological sweep must be *bit-identical* to the preserved
    fixpoint-relaxation oracle — same per-node float op, applied once per
    node from settled parents, so not a single ulp of drift is allowed."""

    @pytest.mark.parametrize("n", WIDTHS)
    def test_regular_structures(self, n):
        for ctor in REGULAR_STRUCTURES.values():
            g = ctor(n)
            assert analytical_delay(g) == analytical_delay_reference(g)

    def test_deep_ripple_is_the_worst_case(self):
        # depth 63: the reference pays 64 whole-grid sweeps, the one-pass
        # sweep one visit per node — values must still agree exactly.
        g = ripple_carry(64)
        assert analytical_delay(g) == analytical_delay_reference(g)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from(WIDTHS),
        steps=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_walk_graphs(self, n, steps, seed):
        g = random_walk_graph(n, steps, np.random.default_rng(seed))
        assert analytical_delay(g) == analytical_delay_reference(g)


class TestEvaluate:
    def test_returns_both_metrics(self):
        m = evaluate_analytical(brent_kung(16))
        assert m.area == 26.0
        assert m.delay > 0

    def test_metrics_frozen(self):
        m = evaluate_analytical(brent_kung(16))
        with pytest.raises(AttributeError):
            m.area = 0.0
