"""Hypothesis property suite: incremental required/slack vs the full oracle.

Randomized move/revert sequences drive every ``TimingGraph`` mutation
class (resize with exact revert, commutative pin swap, buffer insert +
sink rewires, rewire-back + removal). After *every single move* the
incrementally repaired ``slack_map()`` must equal the full backward pass
of :func:`tests.oracles.sta.analyze_timing_reference` — same keys,
same float values, including the +inf slacks off the constrained cone.
Querying after each move is the point: it forces the rank-descending
required-time worklist (not the cold full sweep) to produce the values.

The second property pins the area-recovery prune
(:meth:`TimingGraph.downsize_rejected`): whenever it claims a downsize
trial must be rejected, actually performing the trial yields ``wns < 0``
(or, given a delay limit, a delay past it) — i.e. the prune can never
skip a move the reference would accept.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import nangate45
from repro.netlist import prefix_adder_netlist
from repro.prefix import REGULAR_STRUCTURES
from repro.sta import TimingGraph
from tests.oracles.sta import analyze_timing_reference
from tests.conftest import random_walk_graph
from tests.sta.test_timing_graph import apply_random_move

LIB = nangate45()

STRUCTURES = sorted(REGULAR_STRUCTURES)


def make_netlist(n, structure, walk_seed):
    if structure == "random":
        graph = random_walk_graph(n, 18, np.random.default_rng(walk_seed))
    else:
        graph = REGULAR_STRUCTURES[structure](n)
    return prefix_adder_netlist(graph, LIB)


def upsized_at_random(nl, seed):
    """Timing graph of ``nl`` with a random subset upsized, so downsizes
    exist — the state recovery actually sees is post-sizing-pass."""
    tg = TimingGraph(nl)
    rng = np.random.default_rng(seed)
    for name in sorted(nl.instances):
        if rng.integers(2):
            bigger = nl.library.next_size_up(tg.cell_of(name))
            if bigger is not None:
                tg.replace_cell(name, bigger)
    return tg


class TestIncrementalSlackAll:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([4, 8]),
        structure=st.sampled_from(STRUCTURES + ["random"]),
        target=st.sampled_from([0.05, 0.3, 2.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_slack_map_matches_reference_after_every_move(
        self, n, structure, target, seed
    ):
        nl = make_netlist(n, structure, seed)
        tg = TimingGraph(nl, target=target)
        rng = np.random.default_rng(seed)
        # Prime the cache so every later query exercises the worklist.
        assert tg.slack_map() == analyze_timing_reference(nl, target).slack
        for step in range(25):
            apply_random_move(tg, rng)
            want = analyze_timing_reference(tg.nl, target)
            assert tg.slack_map() == want.slack, (structure, step)
            assert tg.wns == want.wns, (structure, step)

    @settings(max_examples=15, deadline=None)
    @given(
        structure=st.sampled_from(STRUCTURES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_resize_revert_restores_slacks_exactly(self, structure, seed):
        nl = make_netlist(8, structure, seed)
        tg = TimingGraph(nl, target=0.3)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            apply_random_move(tg, rng)
        before = tg.slack_map()
        names = sorted(tg.instance_names())
        name = names[int(rng.integers(len(names)))]
        old = tg.cell_of(name)
        bigger = LIB.next_size_up(old)
        if bigger is None:
            return
        tg.replace_cell(name, bigger)
        tg.slack_map()  # force the incremental repair of the trial state
        tg.replace_cell(name, old)
        assert tg.slack_map() == before

    def test_fork_carries_backward_cache_for_same_target(self):
        nl = make_netlist(8, "brent_kung", 1)
        tg = TimingGraph(nl, target=0.3)
        tg.slack_map()
        same = tg.fork()
        assert same._required is not None
        retargeted = tg.fork(target=0.7)
        assert retargeted._required is None
        assert same.slack_map() == analyze_timing_reference(same.nl, 0.3).slack
        assert (
            retargeted.slack_map() == analyze_timing_reference(retargeted.nl, 0.7).slack
        )


class TestDownsizePrune:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 16]),
        structure=st.sampled_from(STRUCTURES + ["random"]),
        relax=st.sampled_from([1.5, 2.5, 4.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_prune_never_claims_an_acceptable_move(self, n, structure, relax, seed):
        """Soundness: downsize_rejected(name, cell) == True implies the
        actual trial leaves wns < 0 (so the reference loop rejects it)."""
        nl = make_netlist(n, structure, seed)
        tg = upsized_at_random(nl, seed)
        # A met-mode state, like recovery sees after the relaxed targets.
        tg.target = tg.delay * relax
        pruned = tried = 0
        for name in sorted(nl.instances):
            old = tg.cell_of(name)
            smaller = nl.library.next_size_down(old)
            if smaller is None:
                continue
            tried += 1
            if tg.downsize_rejected(name, smaller):
                pruned += 1
                tg.replace_cell(name, smaller)
                assert tg.wns < 0, name
                tg.replace_cell(name, old)
        # Not a correctness requirement, but if nothing is ever tried the
        # property is vacuous — the library must offer downsizes.
        assert tried > 0

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 16]),
        structure=st.sampled_from(STRUCTURES + ["random"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_prune_against_a_limit_never_claims_an_acceptable_move(self, n, structure, seed):
        """Soundness at a missed target: downsize_rejected(name, cell, limit)
        == True implies the actual trial pushes the delay past ``limit`` —
        the bound recovery holds a pass to while the target is missed."""
        tg = upsized_at_random(make_netlist(n, structure, seed), seed)
        tg.target = 0.0
        limit = tg.delay + 1e-12
        for name in sorted(tg.instance_names()):
            old = tg.cell_of(name)
            smaller = LIB.next_size_down(old)
            if smaller is not None and tg.downsize_rejected(name, smaller, limit):
                tg.replace_cell(name, smaller)
                assert tg.delay > limit, name
                tg.replace_cell(name, old)

    def test_prune_against_a_limit_fires_at_a_missed_target(self):
        """Liveness: held to its own delay, a fully upsized design has
        downsizes the prune proves must slow it down."""
        nl = make_netlist(16, "sklansky", 0)
        tg = TimingGraph(nl, target=0.0)
        for name in sorted(nl.instances):
            bigger = LIB.next_size_up(tg.cell_of(name))
            if bigger is not None:
                tg.replace_cell(name, bigger)
        limit = tg.delay + 1e-12
        fired = 0
        for name in sorted(nl.instances):
            smaller = LIB.next_size_down(tg.cell_of(name))
            if smaller is not None and tg.downsize_rejected(name, smaller, limit):
                fired += 1
        assert fired > 0

    def test_prune_fires_on_tight_met_state(self):
        """Liveness: at a barely-met target the prune proves real
        rejections (guards against a vacuously-False implementation)."""
        nl = make_netlist(16, "sklansky", 0)
        tg = TimingGraph(nl)
        for name in sorted(nl.instances):
            bigger = nl.library.next_size_up(tg.cell_of(name))
            if bigger is not None:
                tg.replace_cell(name, bigger)
        tg.target = tg.delay * 1.001
        fired = 0
        for name in sorted(nl.instances):
            smaller = nl.library.next_size_down(tg.cell_of(name))
            if smaller is not None and tg.downsize_rejected(name, smaller):
                fired += 1
        assert fired > 0

    def test_prune_requires_positive_margin(self):
        nl = make_netlist(8, "sklansky", 0)
        tg = TimingGraph(nl, target=1.0)
        name = sorted(nl.instances)[0]
        bigger = nl.library.next_size_up(tg.cell_of(name))
        assert bigger is not None
        tg.replace_cell(name, bigger)
        smaller = nl.library.next_size_down(tg.cell_of(name))
        assert smaller is not None
        # With an absurdly large margin nothing is ever provable.
        assert not tg.downsize_rejected(name, smaller, margin=1e9)
