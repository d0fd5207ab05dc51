"""What the adder builder guarantees, proved here instead of at every build.

``prefix_adder_netlist`` does not call ``Netlist.validate()``: the curve path
relies on the ``TimingGraph`` compile to reject a malformed netlist, and on
the builder's output being well formed and in topological order, which
lets the compile rank instances by their index. This suite holds every build
path — the six regular structures and random legal graphs, n = 2..64, both
libraries, both styles — to those guarantees, checks the adder adds on
every operand pair at n <= 6, and checks the optimised design still adds at
all four ladder targets of one prepared design.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.cells import industrial8nm, nangate45
from repro.netlist import prefix_adder_netlist, simulate, verify_adder
from repro.prefix import REGULAR_STRUCTURES
from repro.sta import TimingGraph
from repro.synth import Synthesizer, synthesize_curve
from repro.synth.curve import NUM_TARGETS
from tests.conftest import random_walk_graph

LIBRARIES = {"nangate45": nangate45(), "industrial8nm": industrial8nm()}
STYLES = ("aoi", "naive")


@functools.cache
def graphs(n: int, walks: int, seed: int):
    """The six regular structures plus ``walks`` random legal graphs (shared across parameters)."""
    rng = np.random.default_rng(seed)
    out = [REGULAR_STRUCTURES[name](n) for name in sorted(REGULAR_STRUCTURES)]
    return out + [random_walk_graph(n, 4 + n // 2, rng) for _ in range(walks)]


def assert_topological(nl) -> None:
    """Every instance reads only primary inputs and earlier instances' outputs."""
    position = {name: k for k, name in enumerate(nl.instances)}
    for k, inst in enumerate(nl.instances.values()):
        for _, net in inst.input_nets():
            driver = nl.driver_of(net)
            assert (nl.is_input(net) and driver is None) or position[driver] < k, (inst, net)


class TestEveryBuildIsWellFormed:
    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("library", sorted(LIBRARIES))
    def test_valid_topological_and_ranked_by_index(self, library, style):
        lib = LIBRARIES[library]
        for n in range(2, 65):
            for graph in graphs(n, walks=1, seed=n):
                nl = prefix_adder_netlist(graph, lib, style=style)
                nl.validate()
                assert_topological(nl)
                assert TimingGraph(nl)._rank == [float(i) for i in range(len(nl.instances))]


def exhaustive_add_ok(nl, n: int, with_cout: bool) -> bool:
    """Simulate all 2^(2n) operand pairs, one pattern per array element."""
    pairs = np.arange(1 << (2 * n), dtype=np.uint64)
    a, b = pairs & np.uint64((1 << n) - 1), pairs >> np.uint64(n)
    one = np.uint64(1)
    inputs = {}
    for i in range(n):
        inputs[f"a{i}"] = (a >> np.uint64(i)) & one
        inputs[f"b{i}"] = (b >> np.uint64(i)) & one
    values = simulate(nl, inputs)
    total = a + b
    for i in range(n):
        if not np.array_equal(values[f"s{i}"] & one, (total >> np.uint64(i)) & one):
            return False
    return not with_cout or np.array_equal(values["cout"] & one, (total >> np.uint64(n)) & one)


class TestExhaustiveAddition:
    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("library", sorted(LIBRARIES))
    def test_every_operand_pair(self, library, style):
        lib = LIBRARIES[library]
        for n in range(2, 7):
            for graph in graphs(n, walks=3, seed=100 + n):
                for with_cout in (True, False):
                    nl = prefix_adder_netlist(graph, lib, with_cout=with_cout, style=style)
                    assert exhaustive_add_ok(nl, n, with_cout), (graph, with_cout)

    def test_exhaustive_check_catches_a_miswired_sum(self):
        nl = prefix_adder_netlist(REGULAR_STRUCTURES["sklansky"](4), LIBRARIES["nangate45"])
        victim = next(name for name, inst in nl.instances.items() if inst.output_net == "s3")
        nl.rewire_sink(victim, "A", "a3")
        assert not exhaustive_add_ok(nl, 4, with_cout=True)


class LadderSynthesizer(Synthesizer):
    """Counts compiles and keeps every ladder rung's result."""

    def __init__(self):
        super().__init__()
        self.prepared = 0
        self.results = []

    def prepare(self, netlist):
        self.prepared += 1
        return super().prepare(netlist)

    def optimize_prepared(self, prepared, target):
        result = super().optimize_prepared(prepared, target)
        self.results.append(result)
        return result


class TestLadderTargetsStillAdd:
    @pytest.mark.parametrize("library", sorted(LIBRARIES))
    @pytest.mark.parametrize("n", (8, 16))
    def test_random_graphs_at_all_four_targets(self, n, library):
        rng = np.random.default_rng(7 * n)
        for _ in range(3):
            graph = random_walk_graph(n, 3 * n, rng)
            synthesizer = LadderSynthesizer()
            synthesize_curve(graph, LIBRARIES[library], synthesizer)
            assert synthesizer.prepared == 1
            assert len(synthesizer.results) == NUM_TARGETS
            for result in synthesizer.results:
                assert verify_adder(result.netlist, n, rng=n), (graph, result)
