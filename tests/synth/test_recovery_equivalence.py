"""Hypothesis property suite: slack-pruned recovery vs the reference loop.

The rewritten ``Synthesizer._recovery_pass`` gates candidates on the
engine's incrementally repaired slacks and skips provably-rejected
downsizes (:meth:`TimingGraph.downsize_rejected`). Neither shortcut may
change a single decision: over randomized graphs, targets and
``recovery_passes``, the *accepted-move sequence* and the final netlist
must match :class:`tests.oracles.synth.ReferenceSynthesizer` exactly.

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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import nangate45
from repro.netlist import prefix_adder_netlist
from repro.netlist.ir import Netlist
from repro.prefix import REGULAR_STRUCTURES
from repro.sta import TimingGraph
from repro.synth import Synthesizer, synthesize_curve
from tests.oracles.synth import ReferenceSynthesizer, synthesize_curve_reference
from tests.conftest import random_walk_graph

LIB = nangate45()

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
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 16]),
        structure=st.sampled_from(STRUCTURES + ["random"]),
        target_kind=st.sampled_from(["infeasible", "tight", "relaxed"]),
        recovery_passes=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_accepted_moves_and_netlist_match_reference(
        self, n, structure, target_kind, recovery_passes, seed
    ):
        graph = make_graph(n, structure, seed)
        nl = prefix_adder_netlist(graph, LIB)
        base_delay = Synthesizer(recovery_passes=0).optimize(nl, 0.0).delay
        target = {
            "infeasible": 0.0,
            "tight": base_delay * 1.02,
            "relaxed": base_delay * 3.0,
        }[target_kind]

        with record_replacements() as new_stream:
            new = Synthesizer(recovery_passes=recovery_passes).optimize(nl, target)
        with record_replacements() as old_stream:
            old = ReferenceSynthesizer(recovery_passes=recovery_passes).optimize(
                nl, target
            )

        assert accepted_moves(new_stream) == accepted_moves(old_stream)
        assert (new.area, new.delay, new.met, new.moves) == (
            old.area,
            old.delay,
            old.met,
            old.moves,
        )
        assert_netlists_identical(new.netlist, old.netlist)

    @settings(max_examples=8, deadline=None)
    @given(
        structure=st.sampled_from(STRUCTURES + ["random"]),
        recovery_passes=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_final_curves_bit_identical(self, structure, recovery_passes, seed):
        graph = make_graph(8, structure, seed)
        new = synthesize_curve(graph, LIB, Synthesizer(recovery_passes=recovery_passes))
        old = synthesize_curve_reference(
            graph, LIB, ReferenceSynthesizer(recovery_passes=recovery_passes)
        )
        assert new.points() == old.points()

    def test_prune_actually_skips_trials(self):
        """The slack prune must do real work: at a met target the
        production path records strictly fewer replace_cell calls than
        the reference (skipped rejected trials), while still landing on
        the identical accepted list."""
        nl = prefix_adder_netlist(REGULAR_STRUCTURES["sklansky"](16), LIB)
        base_delay = Synthesizer(recovery_passes=0).optimize(nl, 0.0).delay
        target = base_delay * 1.02
        with record_replacements() as new_stream:
            Synthesizer(recovery_passes=2).optimize(nl, target)
        with record_replacements() as old_stream:
            ReferenceSynthesizer(recovery_passes=2).optimize(nl, target)
        assert accepted_moves(new_stream) == accepted_moves(old_stream)
        assert len(new_stream) < len(old_stream)
