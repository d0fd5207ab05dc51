"""Property: a TimingGraph branch is its own design, whatever its siblings do.

The graph's tables are the only mutable design state during optimisation,
and a fork shares the arc and sink tuples of its parent until one of them
writes. So the thing to pin is isolation under *interleaving*: random
sequences of every move class and of its revert, applied to a parent and
to forks taken at arbitrary points (same target, and retargeted). After
each step

- every branch's ``report()`` equals a fresh ``TimingGraph`` compiled from
  that branch's own materialised netlist (incremental == fresh), and
- no other branch's report or netlist bytes moved.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import nangate45
from repro.netlist import prefix_adder_netlist, to_verilog
from repro.prefix import REGULAR_STRUCTURES
from repro.sta import TimingGraph
from tests.conftest import random_walk_graph
from tests.oracles.sta import analyze_timing_reference
from tests.sta.test_timing_graph import assert_reports_identical, random_move, undo

LIB = nangate45()
STRUCTURES = sorted(REGULAR_STRUCTURES)
MAX_BRANCHES = 4


def fingerprint(netlist):
    """Structure plus instance insertion order (which the passes depend on)."""
    return to_verilog(netlist), list(netlist.instances)


def snapshot(tg):
    return tg.report(), fingerprint(tg.nl)


class TestForkIsolation:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([4, 8]),
        structure=st.sampled_from(STRUCTURES + ["random"]),
        target=st.sampled_from([0.05, 0.3, 2.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_interleaved_moves_reverts_and_forks(self, n, structure, target, seed):
        rng = np.random.default_rng(seed)
        if structure == "random":
            graph = random_walk_graph(n, 18, rng)
        else:
            graph = REGULAR_STRUCTURES[structure](n)
        netlist = prefix_adder_netlist(graph, LIB)
        built = fingerprint(netlist)
        # Each branch: the graph and the stack of reverts of the moves it holds.
        branches = [(TimingGraph(netlist, target=target), [])]
        seen = [snapshot(tg) for tg, _ in branches]
        for step in range(24):
            acting = int(rng.integers(len(branches)))
            tg, reverts = branches[acting]
            action = int(rng.integers(6))
            if action == 0 and len(branches) < MAX_BRANCHES:
                retarget = (None, target * 0.5, target * 3.0)[int(rng.integers(3))]
                if rng.integers(2):
                    tg.slack_map()  # a warm backward cache rides along a same-target fork
                fork = tg.fork(target=retarget)
                assert fork.target == (tg.target if retarget is None else retarget)
                branches.append((fork, list(reverts)))
                seen.append(snapshot(fork))
            elif action == 1 and reverts:
                undo(tg, reverts.pop())
            else:
                revert = random_move(tg, rng)
                if revert is not None:
                    reverts.append(revert)
            for index, (branch, _) in enumerate(branches):
                report, payload = snapshot(branch)
                fresh = TimingGraph(branch.nl, target=branch.target).report()
                assert_reports_identical(report, fresh, (step, index))
                if index != acting:
                    assert_reports_identical(report, seen[index][0], (step, index))
                    assert payload == seen[index][1], (step, index)
                seen[index] = (report, payload)
        # The netlist the parent was compiled from was only ever read.
        assert fingerprint(netlist) == built
        # Unwinding a branch's whole stack lands back on the built design's timing.
        tg, reverts = branches[0]
        while reverts:
            undo(tg, reverts.pop())
        assert_reports_identical(tg.report(), analyze_timing_reference(netlist, target))

    def test_fork_shares_tuples_until_a_branch_writes(self):
        netlist = prefix_adder_netlist(REGULAR_STRUCTURES["sklansky"](8), LIB)
        tg = TimingGraph(netlist, target=0.3)
        fork = tg.fork()
        assert all(a is b for a, b in zip(tg._arcs, fork._arcs))
        assert all(a is b for a, b in zip(tg._net_sinks, fork._net_sinks))
        name = sorted(tg.instance_names())[3]
        fork.replace_cell(name, LIB.next_size_up(fork.cell_of(name)))
        assert tg.cell_of(name) is not fork.cell_of(name)
        assert sum(a is not b for a, b in zip(tg._arcs, fork._arcs)) == 1
