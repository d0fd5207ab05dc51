"""Property tests: bit-row analytics and legalization vs the pure-Python oracles.

The ``PrefixGraph`` analytics read from the graph's bit rows (parents,
levels, fanouts, minlist, children, validation, legalization) must be
*bit-identical* — same values, same dtypes, same error text — to the
seed's loop implementations (preserved in :mod:`tests.oracles.prefix`)
and consistent with the paper's literal Algorithm 1
(:class:`repro.prefix.legalize.Algorithm1State`) across random legal
graphs. The widths include non-powers of two and rows that cross the byte
(n > 8) and 64-bit (n > 64) boundaries.
"""

import numpy as np
import pytest

from repro.prefix import PrefixGraph, ripple_carry, sklansky
from tests.oracles import prefix as ref
from repro.prefix.legalize import Algorithm1State, derive_minlist, legalize_minlist
from repro.prefix.structures import REGULAR_STRUCTURES
from tests.conftest import random_walk_graph

WIDTHS = (2, 3, 5, 13, 16, 32, 33, 64, 65)


def corpus(n, rng, walks=6, steps=25):
    """Random legal graphs plus the regular structures at width ``n``."""
    graphs = [random_walk_graph(n, steps, rng) for _ in range(walks)]
    graphs += [ctor(n) for ctor in REGULAR_STRUCTURES.values()]
    return graphs


def validate_error(validate):
    """The ``ValueError`` text ``validate()`` raises (None when it passes)."""
    try:
        validate()
    except ValueError as exc:
        return str(exc)
    return None


class TestAgainstLoopImplementations:
    @pytest.mark.parametrize("n", WIDTHS)
    def test_levels_bit_identical(self, n, rng):
        for g in corpus(n, rng):
            expected = ref.LoopAnalytics(g.grid).levels()
            assert np.array_equal(g.levels(), expected)
            assert g.levels().dtype == expected.dtype

    @pytest.mark.parametrize("n", WIDTHS)
    def test_fanouts_bit_identical(self, n, rng):
        for g in corpus(n, rng):
            expected = ref.LoopAnalytics(g.grid).fanouts()
            assert np.array_equal(g.fanouts(), expected)
            assert g.fanouts().dtype == expected.dtype

    @pytest.mark.parametrize("n", WIDTHS)
    def test_minlist_bit_identical(self, n, rng):
        for g in corpus(n, rng):
            expected = ref.LoopAnalytics(g.grid).minlist()
            assert np.array_equal(g.minlist(), expected)
            assert g.minlist().dtype == expected.dtype

    @pytest.mark.parametrize("n", WIDTHS)
    def test_children_identical_everywhere(self, n, rng):
        for g in corpus(n, rng, walks=3):
            ana = ref.LoopAnalytics(g.grid)
            cells = [(m, l) for m in range(n) for l in range(m + 1)]
            if n > 33:
                # The oracle scans every node per call: past 33 bits, check
                # every node and a sample of the empty cells.
                empty = [cell for cell in cells if not g.has_node(*cell)]
                picks = rng.choice(len(empty), size=64, replace=False)
                cells = g.nodes() + [empty[i] for i in picks]
            for m, l in cells:
                assert g.children(m, l) == ana.children(m, l)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_parents_match_row_scans(self, n, rng):
        for g in corpus(n, rng, walks=3):
            ana = ref.LoopAnalytics(g.grid)
            for m in range(n):
                for l in range(m):
                    assert g.upper_parent(m, l) == ana.upper_parent(m, l)
                    assert g.parents(m, l) == ana.parents(m, l)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_legalize_minlist_bit_identical(self, n, rng):
        for g in corpus(n, rng):
            min_grid = derive_minlist(g.grid)
            assert np.array_equal(legalize_minlist(min_grid), ref.legalize_minlist_loop(min_grid))
        # Also from sparse random (not-yet-legal) minlists.
        for _ in range(10):
            mg = rng.random((n, n)) < 0.15
            assert np.array_equal(legalize_minlist(mg), ref.legalize_minlist_loop(mg))

    @pytest.mark.parametrize("n", WIDTHS)
    def test_derive_minlist_bit_identical(self, n, rng):
        for g in corpus(n, rng):
            assert np.array_equal(derive_minlist(g.grid), ref.derive_minlist_loop(g.grid))


class TestValidateMessages:
    """``PrefixGraph(grid)`` rejects a corrupted grid with the loop oracle's
    exact ``ValueError`` text, naming the first offender in ascending-MSB,
    descending-LSB order."""

    @staticmethod
    def assert_same_rejection(broken):
        expected = validate_error(ref.LoopAnalytics(broken).validate)
        assert expected is not None
        assert validate_error(lambda: PrefixGraph(np.array(broken))) == expected

    @pytest.mark.parametrize("n", WIDTHS)
    def test_dropped_lower_parent(self, n, rng):
        checked = 0
        for g in corpus(n, rng, walks=3):
            ref.LoopAnalytics(g.grid).validate()
            g.validate()
            lower_parents = {g.lower_parent(m, l) for m, l in g.interior_nodes()}
            for lm, ll in sorted(lower_parents):
                if ll == 0 or lm == ll:
                    continue
                broken = np.array(g.grid)
                broken[lm, ll] = False
                self.assert_same_rejection(broken)
                checked += 1
        assert checked or n < 5

    @pytest.mark.parametrize("n", WIDTHS)
    def test_dropped_diagonal_node(self, n, rng):
        for g in corpus(n, rng, walks=2):
            for i in range(n):
                broken = np.array(g.grid)
                broken[i, i] = False
                self.assert_same_rejection(broken)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_dropped_column0_node(self, n, rng):
        for g in corpus(n, rng, walks=2):
            for i in range(1, n):
                broken = np.array(g.grid)
                broken[i, 0] = False
                self.assert_same_rejection(broken)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_node_above_diagonal(self, n, rng):
        for g in corpus(n, rng, walks=2):
            for m in range(n - 1):
                broken = np.array(g.grid)
                broken[m, int(rng.integers(m + 1, n))] = True
                self.assert_same_rejection(broken)


class TestEveryLegalAction:
    """Each legal add/delete equals the loop oracles' legalize of the derived
    minlist with that one cell added or removed."""

    @pytest.mark.parametrize("n", (9, 33, 65))
    def test_actions_match_loop_legalize(self, n, rng):
        for steps in (10, 40):
            g = random_walk_graph(n, steps, rng)
            min_grid = ref.derive_minlist_loop(g.grid)
            for m in range(2, n):
                for l in range(1, m):
                    if g.can_add(m, l):
                        successor, keep = g.add_node(m, l), True
                    elif g.can_delete(m, l):
                        successor, keep = g.delete_node(m, l), False
                    else:
                        continue
                    edited = np.array(min_grid)
                    edited[m, l] = keep
                    assert np.array_equal(successor.grid, ref.legalize_minlist_loop(edited))


class TestAgainstAlgorithm1:
    """Single actions from random states agree with the paper's pseudocode."""

    @pytest.mark.parametrize("n", WIDTHS)
    def test_action_analytics_match_oracle(self, n, rng):
        for _ in range(6):
            g = random_walk_graph(n, 15, rng)
            alg = Algorithm1State(n)
            ml = derive_minlist(g.grid)
            alg.minlist = {(int(a), int(b)) for a, b in zip(*np.nonzero(ml))}
            alg.legalize()
            assert np.array_equal(alg.grid(), g.grid)

            actions = [("add", m, l) for m in range(n) for l in range(1, m) if g.can_add(m, l)]
            actions += [("del", m, l) for m in range(n) for l in range(1, m) if g.can_delete(m, l)]
            if not actions:
                continue
            kind, m, l = actions[int(rng.integers(len(actions)))]
            if kind == "add":
                g2 = g.add_node(m, l)
                alg.add(m, l)
            else:
                g2 = g.delete_node(m, l)
                alg.delete(m, l)
            assert np.array_equal(g2.grid, alg.grid())
            # The successor's analytics agree with the loop oracles on the
            # oracle-evolved nodelist.
            ana = ref.LoopAnalytics(alg.grid())
            assert np.array_equal(g2.levels(), ana.levels())
            assert np.array_equal(g2.fanouts(), ana.fanouts())
            assert np.array_equal(g2.minlist(), ana.minlist())


class TestDerivedCaches:
    def test_cached_returns_same_object(self):
        g = sklansky(8)
        a = g.cached("x", lambda graph: np.arange(3))
        b = g.cached("x", lambda graph: np.arange(99))
        assert a is b

    def test_analytics_cached_and_readonly(self):
        g = ripple_carry(8)
        assert g.levels() is g.levels()
        assert g.fanouts() is g.fanouts()
        assert g.minlist() is g.minlist()
        assert g.node_table() is g.node_table()
        for arr in (g.levels(), g.fanouts(), g.minlist(), g.node_table()):
            with pytest.raises(ValueError):
                arr[0, 0] = 1

    def test_feature_and_mask_memo(self):
        from repro.env import ActionSpace, graph_features

        g = sklansky(8)
        assert graph_features(g) is graph_features(g)
        space = ActionSpace(8)
        assert space.legal_mask(g) is space.legal_mask(g)
        # Distinct instances of an equal graph memoize independently.
        g2 = PrefixGraph(np.array(g.grid))
        assert graph_features(g2) is not graph_features(g)
        assert np.array_equal(graph_features(g2), graph_features(g))
