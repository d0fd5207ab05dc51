"""Hypothesis property suite: slack-pruned recovery vs the reference loop.

``Synthesizer._recovery_pass`` gates candidates on the engine's
incrementally repaired slacks and skips provably-rejected downsizes
(:meth:`TimingGraph.downsize_rejected`) at met and infeasible targets
alike — a pass that starts with the target missed proves against its own
delay bound until the real target is met. None of it may change a single
decision: over randomized graphs, targets, ``recovery_passes`` and both
libraries (the proof reads each library's caps and resistances), the
*accepted-move sequence* and the final netlist must match
:class:`tests.oracles.synth.ReferenceSynthesizer` exactly.

Accepted moves are observed by recording every cell replacement — the
reference path's on its ``Netlist``, the production path's on the
``TimingGraph`` that is its design — and collapsing trial+revert pairs;
pruned trials simply never appear in the production stream, so equality
of the collapsed streams is exactly "identical accepted-move list, in
order". Final-curve bit-identity rides the same machinery through
``synthesize_curve``.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import industrial8nm, nangate45
from repro.netlist import prefix_adder_netlist
from repro.netlist.ir import Netlist
from repro.prefix import REGULAR_STRUCTURES
from repro.sta import TimingGraph
from repro.synth import Synthesizer, synthesize_curve
from tests.oracles.synth import ReferenceSynthesizer, synthesize_curve_reference
from tests.conftest import random_walk_graph

LIB = nangate45()
LIBS = [pytest.param(lib, id=lib.name) for lib in (LIB, industrial8nm())]

STRUCTURES = sorted(REGULAR_STRUCTURES)


@contextlib.contextmanager
def record_replacements():
    """Capture every cell replacement as (name, old_cell, new_cell)."""
    stream = []
    originals = (Netlist.replace_cell, TimingGraph.replace_cell)

    def on_netlist(self, name, new_cell):
        stream.append((name, self.instances[name].cell.name, new_cell.name))
        return originals[0](self, name, new_cell)

    def on_graph(self, name, new_cell):
        stream.append((name, self.cell_of(name).name, new_cell.name))
        return originals[1](self, name, new_cell)

    Netlist.replace_cell, TimingGraph.replace_cell = on_netlist, on_graph
    try:
        yield stream
    finally:
        Netlist.replace_cell, TimingGraph.replace_cell = originals


def accepted_moves(stream):
    """Collapse adjacent trial+exact-revert pairs (= rejected trials)."""
    out = []
    i = 0
    while i < len(stream):
        nxt = i + 1
        if (
            nxt < len(stream)
            and stream[nxt][0] == stream[i][0]
            and stream[nxt][1] == stream[i][2]
            and stream[nxt][2] == stream[i][1]
        ):
            i += 2
            continue
        out.append(stream[i])
        i += 1
    return out


def make_graph(n, structure, walk_seed):
    if structure == "random":
        return random_walk_graph(n, 15, np.random.default_rng(walk_seed))
    return REGULAR_STRUCTURES[structure](n)


def assert_netlists_identical(a, b):
    assert sorted(a.instances) == sorted(b.instances)
    for name, inst in a.instances.items():
        other = b.instances[name]
        assert inst.cell.name == other.cell.name
        assert inst.pins == other.pins


class TestRecoveryBitIdentity:
    @pytest.mark.parametrize("lib", LIBS)
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 16]),
        structure=st.sampled_from(STRUCTURES + ["random"]),
        target_kind=st.sampled_from(["infeasible", "tight", "relaxed"]),
        recovery_passes=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_accepted_moves_and_netlist_match_reference(
        self, lib, n, structure, target_kind, recovery_passes, seed
    ):
        graph = make_graph(n, structure, seed)
        nl = prefix_adder_netlist(graph, lib)
        base_delay = Synthesizer(recovery_passes=0).optimize(nl, 0.0).delay
        target = {
            "infeasible": 0.0,
            "tight": base_delay * 1.02,
            "relaxed": base_delay * 3.0,
        }[target_kind]
        assert_optimize_matches_reference(nl, target, recovery_passes)

    @pytest.mark.parametrize("lib", LIBS)
    @settings(max_examples=8, deadline=None)
    @given(
        structure=st.sampled_from(STRUCTURES + ["random"]),
        recovery_passes=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_final_curves_bit_identical(self, lib, structure, recovery_passes, seed):
        graph = make_graph(8, structure, seed)
        new = synthesize_curve(graph, lib, Synthesizer(recovery_passes=recovery_passes))
        old = synthesize_curve_reference(
            graph, lib, ReferenceSynthesizer(recovery_passes=recovery_passes)
        )
        assert new.points() == old.points()

    def test_mid_pass_closure_matches_reference(self):
        """A pass that starts with the target missed and meets it partway
        drops its limit to the target: slack gate, proof and acceptance
        all read the target from the accept that met it on.

        Such a pass is found, not built: scan a fixed random-walk corpus at
        target 0 for a recovery pass in which an accepted downsize raised
        the delay again after the pass had lowered it, and set the target
        to the lowest delay reached before that raise. Everything before
        only lowered a delay that stayed above the new target, so the run
        reaches the pass unmet and meets the target inside it; from there
        the reference rejects the raise a loop still proving against the
        pass's own bound would accept."""
        rng = np.random.default_rng(16)
        case = None
        for _ in range(24):
            nl = prefix_adder_netlist(random_walk_graph(16, 15, rng), LIB)
            with record_recovery_passes() as passes:
                Synthesizer().optimize(nl, 0.0)
            for start, delays in passes:
                lowest = start
                for delay in delays:
                    if lowest < start and delay > lowest:
                        case = nl, lowest
                        break
                    lowest = min(lowest, delay)
                if case:
                    break
            if case:
                break
        assert case is not None, "no unmet recovery pass in the corpus lowered then raised the delay"
        nl, target = case
        with record_recovery_passes() as passes:
            new = assert_optimize_matches_reference(nl, target, recovery_passes=2)
        assert any(start > target >= min(delays, default=start) for start, delays in passes)
        assert new.met

    def test_prune_actually_skips_trials(self):
        """The slack prune must do real work: at a met target the
        production path records strictly fewer replace_cell calls than
        the reference (skipped rejected trials), while still landing on
        the identical accepted list."""
        assert_prune_skips_trials(lambda base_delay: base_delay * 1.02)

    def test_prune_skips_trials_at_infeasible_target(self):
        """The same at target 0, which no design meets: recovery proves
        against the pass's own delay bound instead of trialling every
        cell that can shrink."""
        assert_prune_skips_trials(lambda base_delay: 0.0)


def assert_optimize_matches_reference(nl, target, recovery_passes):
    """Same accepted moves, QoR, move counts and netlist as the reference."""
    with record_replacements() as new_stream:
        new = Synthesizer(recovery_passes=recovery_passes).optimize(nl, target)
    with record_replacements() as old_stream:
        old = ReferenceSynthesizer(recovery_passes=recovery_passes).optimize(nl, target)
    assert accepted_moves(new_stream) == accepted_moves(old_stream)
    assert (new.area, new.delay, new.met, new.moves) == (
        old.area,
        old.delay,
        old.met,
        old.moves,
    )
    assert_netlists_identical(new.netlist, old.netlist)
    return new


def assert_prune_skips_trials(target_of):
    nl = prefix_adder_netlist(REGULAR_STRUCTURES["sklansky"](16), LIB)
    target = target_of(Synthesizer(recovery_passes=0).optimize(nl, 0.0).delay)
    with record_replacements() as new_stream:
        Synthesizer(recovery_passes=2).optimize(nl, target)
    with record_replacements() as old_stream:
        ReferenceSynthesizer(recovery_passes=2).optimize(nl, target)
    assert accepted_moves(new_stream) == accepted_moves(old_stream)
    assert len(new_stream) < len(old_stream)


@contextlib.contextmanager
def record_recovery_passes():
    """Per production recovery pass: its start delay and the delay after
    each accepted downsize, in order."""
    passes = []
    current = []
    originals = (Synthesizer._recovery_pass, TimingGraph.replace_cell)

    def on_graph(self, name, new_cell):
        old = self.cell_of(name).name
        originals[1](self, name, new_cell)
        if current:
            current[-1].append((name, old, new_cell.name, self.delay))

    def recovery_pass(self, tg):
        start = tg.delay
        current.append([])
        try:
            return originals[0](self, tg)
        finally:
            passes.append((start, [move[3] for move in accepted_moves(current.pop())]))

    Synthesizer._recovery_pass, TimingGraph.replace_cell = recovery_pass, on_graph
    try:
        yield passes
    finally:
        Synthesizer._recovery_pass, TimingGraph.replace_cell = originals


class TestTrialCount:
    def test_n32_corpus_trials_at_most_half_of_unpruned_infeasible_recovery(self):
        """Clock-free record of the work the proof saves: every
        ``replace_cell`` (trial, revert or accept) over a fixed n=32
        corpus, against the 1512 the same corpus took when recovery at a
        missed target trialled every cell that could shrink."""
        rng = np.random.default_rng(32)
        starts = ("sklansky", "ripple", "sklansky")
        with record_replacements() as stream:
            for k in range(12):
                graph = random_walk_graph(32, 24, rng, start=REGULAR_STRUCTURES[starts[k % 3]](32))
                synthesize_curve(graph, LIB)
        assert len(stream) <= 1512 // 2
