"""Property tests: the array-backed TimingGraph vs the reference STA oracle.

The incremental engine must be *bit-identical* — same floats, same worst
arcs, same dict contents — to :func:`tests.oracles.sta.analyze_timing_reference`
both on full analyses of randomized adder netlists and after randomized
incremental move sequences (resize, pin swap, buffer-style insert/rewire,
removal, with reverts)."""

import pytest

from repro.cells import nangate45
from repro.netlist import prefix_adder_netlist
from repro.prefix import REGULAR_STRUCTURES
from repro.sta import TimingGraph, analyze_timing
from tests.oracles.sta import analyze_timing_reference
from tests.conftest import random_walk_graph


@pytest.fixture(scope="module")
def lib():
    return nangate45()


def assert_reports_identical(got, want, ctx=""):
    assert got.delay == want.delay, ctx
    assert got.wns == want.wns, ctx
    assert got.critical_path == want.critical_path, ctx
    assert got.arrival == want.arrival, ctx
    assert got.required == want.required, ctx
    assert got.slack == want.slack, ctx
    assert got.area == want.area, ctx


def random_netlists(n, rng, lib, walks=3):
    graphs = [ctor(n) for ctor in REGULAR_STRUCTURES.values()]
    graphs += [random_walk_graph(n, 20, rng) for _ in range(walks)]
    return [prefix_adder_netlist(g, lib) for g in graphs]


class TestFullAnalysis:
    @pytest.mark.parametrize("n", (4, 8, 16))
    def test_bit_identical_to_reference(self, n, rng, lib):
        for nl in random_netlists(n, rng, lib):
            for target in (None, 0.0, 0.3, 2.0):
                got = analyze_timing(nl, target)
                want = analyze_timing_reference(nl, target)
                assert_reports_identical(got, want, (nl.name, target))

    def test_input_arrivals(self, rng, lib):
        nl = random_netlists(8, rng, lib, walks=1)[-1]
        arrivals = {"a3": 0.25, "b0": 0.1}
        got = analyze_timing(nl, 0.5, input_arrivals=arrivals)
        want = analyze_timing_reference(nl, 0.5, input_arrivals=arrivals)
        assert_reports_identical(got, want)

    def test_rejects_unknown_input_arrival(self, lib):
        nl = prefix_adder_netlist(REGULAR_STRUCTURES["sklansky"](4), lib)
        with pytest.raises(ValueError, match="non-input"):
            TimingGraph(nl, input_arrivals={"nope": 1.0})

    def test_out_of_order_netlist_ranks_topologically(self, lib):
        """A netlist whose insertion order is not topological is ranked by Kahn."""
        from repro.netlist import Netlist

        nl = Netlist("ooo", lib)
        nl.add_input("a")
        inv = lib.smallest("INV")
        nl.add_instance(inv, {"A": "n1", "ZN": "y"}, name="u1")
        nl.add_instance(inv, {"A": "a", "ZN": "n1"}, name="u2")
        nl.add_output("y")
        tg = TimingGraph(nl, target=0.1)
        assert tg._rank[1] < tg._rank[0]
        assert_reports_identical(tg.report(), analyze_timing_reference(nl, 0.1))

    def test_empty_netlist(self, lib):
        from repro.netlist import Netlist

        nl = Netlist("empty", lib)
        nl.add_input("a")
        tg = TimingGraph(nl)
        assert tg.delay == 0.0
        assert tg.critical_path() == []


class TestCompileRejects:
    """The compile is the curve path's structural check: a malformed netlist
    raises ``ValueError`` naming the net or the cycle, from the graph and
    from the synthesizer alike (``prefix_adder_netlist`` does not validate)."""

    @staticmethod
    def chain(lib):
        from repro.netlist import Netlist

        nl = Netlist("bad", lib)
        nl.add_input("a")
        inv = lib.smallest("INV")
        nl.add_instance(inv, {"A": "a", "ZN": "n1"}, name="u1")
        nl.add_instance(inv, {"A": "n1", "ZN": "y"}, name="u2")
        nl.add_output("y")
        return nl

    def assert_rejected(self, nl, match):
        from repro.synth import Synthesizer

        with pytest.raises(ValueError, match=match):
            TimingGraph(nl)
        with pytest.raises(ValueError, match=match):
            Synthesizer().optimize(nl, 0.5)

    def test_instance_reading_an_undriven_net(self, lib):
        nl = self.chain(lib)
        nl.add_instance(lib.smallest("NAND2"), {"A1": "y", "A2": "ghost", "ZN": "z"}, name="u3")
        nl.add_output("z")
        self.assert_rejected(nl, "net ghost .*has no driver")

    def test_output_with_no_driver(self, lib):
        nl = self.chain(lib)
        nl.add_output("nowhere")
        self.assert_rejected(nl, "primary output nowhere has no driver")

    def test_combinational_cycle(self, lib):
        nl = self.chain(lib)
        nl.rewire_sink("u1", "A", "y")
        self.assert_rejected(nl, "combinational cycle")


def random_move(tg, rng):
    """Apply one random optimizer-style move through the TimingGraph API.

    Returns its revert — ``(method name, args)`` calls, valid on any branch
    that holds the move — or None when the draw had no legal move.
    """
    library = tg.library
    names = sorted(tg.instance_names())
    name = names[int(rng.integers(len(names)))]
    cell = tg.cell_of(name)
    kind = int(rng.integers(4))
    if kind < 2:
        other = (library.next_size_up if kind == 0 else library.next_size_down)(cell)
        if other is None:
            return None
        tg.replace_cell(name, other)
        return [("replace_cell", (name, cell))]
    if kind == 2:
        groups = cell.spec.commutative_groups
        if not groups or len(groups[0]) != 2:
            return None
        tg.swap_pins(name, *groups[0])
        return [("swap_pins", (name, *groups[0]))]
    net = tg.output_net(name)
    sinks = tg.sinks_of(net)
    if tg.is_output(net) or len(sinks) < 2:
        return None
    buf_cell = library.pick("BUF", 1)
    buf_out = tg.fresh_net("bufnet")
    buf = tg.add_instance(buf_cell, {"A": net, buf_cell.output_pin: buf_out})
    offload = sinks[: len(sinks) // 2]
    for sink_name, pin in offload:
        tg.rewire_sink(sink_name, pin, buf_out)
    # Optimizer-style revert: rewire back, drop the buffer.
    return [("rewire_sink", (sink_name, pin, net)) for sink_name, pin in offload] + [
        ("remove_instance", (buf,))
    ]


def undo(tg, revert):
    for method, args in revert:
        getattr(tg, method)(*args)


def apply_random_move(tg, rng):
    """One random move; a buffer insertion is reverted on a coin flip."""
    revert = random_move(tg, rng)
    if revert is not None and revert[-1][0] == "remove_instance" and rng.integers(2):
        undo(tg, revert)


class TestIncremental:
    @pytest.mark.parametrize("n", (4, 8))
    def test_random_move_sequences_match_oracle(self, n, rng, lib):
        for nl in random_netlists(n, rng, lib, walks=2)[:4]:
            tg = TimingGraph(nl, target=0.3)
            for step in range(60):
                apply_random_move(tg, rng)
                if step % 6 == 0:
                    want = analyze_timing_reference(tg.nl, 0.3)
                    assert_reports_identical(tg.report(), want, (nl.name, step))
            final = tg.nl
            assert_reports_identical(tg.report(), analyze_timing_reference(final, 0.3))
            final.validate()

    def test_replace_cell_revert_restores_state(self, rng, lib):
        nl = prefix_adder_netlist(REGULAR_STRUCTURES["sklansky"](8), lib)
        tg = TimingGraph(nl, target=0.3)
        before = tg.report()
        name = sorted(nl.instances)[5]
        old = nl.instances[name].cell
        bigger = lib.next_size_up(old)
        tg.replace_cell(name, bigger)
        tg.replace_cell(name, old)
        assert_reports_identical(tg.report(), before)

    def test_queries_match_reference_pointwise(self, rng, lib):
        nl = prefix_adder_netlist(REGULAR_STRUCTURES["brent_kung"](8), lib)
        tg = TimingGraph(nl, target=0.4)
        for _ in range(20):
            apply_random_move(tg, rng)
        nl = tg.nl
        ref = analyze_timing_reference(nl, 0.4)
        assert tg.delay == ref.delay
        assert tg.wns == ref.wns
        for net, arr in ref.arrival.items():
            assert tg.arrival_of(net) == arr
            assert tg.slack_of(net) == ref.slack[net]
        assert tg.slack_map() == ref.slack
        from repro.sta.timing import net_load

        for inst in nl.instances.values():
            assert tg.load_of(inst.output_net) == net_load(nl, inst.output_net)

    def test_fork_is_independent(self, rng, lib):
        nl = prefix_adder_netlist(REGULAR_STRUCTURES["sklansky"](8), lib)
        tg = TimingGraph(nl, target=0.3)
        fork = tg.fork(target=0.1)
        assert fork.target == 0.1
        # Mutate the fork heavily; the original must be untouched.
        for _ in range(20):
            apply_random_move(fork, rng)
        assert_reports_identical(tg.report(), analyze_timing_reference(nl, 0.3))
        assert_reports_identical(
            fork.report(), analyze_timing_reference(fork.nl, 0.1)
        )

    def test_no_target_slack_raises(self, lib):
        nl = prefix_adder_netlist(REGULAR_STRUCTURES["sklansky"](4), lib)
        tg = TimingGraph(nl)
        with pytest.raises(ValueError, match="without a target"):
            tg.slack_of(nl.outputs[0])


class TestMoveChecks:
    """The graph is the only design state while optimising, so it performs
    the structural checks the netlist IR performs — before writing anything."""

    @pytest.fixture
    def tg(self, lib):
        from repro.netlist import Netlist

        nl = Netlist("t", lib)
        for net in ("a", "b", "c"):
            nl.add_input(net)
        nl.add_instance(lib.smallest("AOI21"), {"A": "a", "B1": "b", "B2": "c", "ZN": "n1"}, name="u1")
        nl.add_instance(lib.smallest("INV"), {"A": "n1", "ZN": "y"}, name="u2")
        nl.add_output("y")
        return TimingGraph(nl, target=0.2)

    def rejected(self, tg, match, move, *args):
        before = tg.report(), tg.nl.instances.keys(), tg.sinks_of("n1")
        with pytest.raises(ValueError, match=match):
            getattr(tg, move)(*args)
        after = tg.report(), tg.nl.instances.keys(), tg.sinks_of("n1")
        assert_reports_identical(after[0], before[0])
        assert after[1:] == before[1:]

    def test_resize_must_preserve_function(self, tg, lib):
        self.rejected(tg, "preserve function", "replace_cell", "u1", lib.smallest("INV"))

    def test_swap_needs_commutative_pins(self, tg):
        self.rejected(tg, "not commutative", "swap_pins", "u1", "A", "B1")

    def test_add_instance_checks_name_pins_and_driver(self, tg, lib):
        inv = lib.smallest("INV")
        self.rejected(tg, "duplicate", "add_instance", inv, {"A": "a", "ZN": "z"}, "u1")
        self.rejected(tg, "do not match", "add_instance", inv, {"A": "a"})
        self.rejected(tg, "already driven", "add_instance", inv, {"A": "a", "ZN": "n1"})
        self.rejected(tg, "already driven", "add_instance", inv, {"A": "n1", "ZN": "a"})

    def test_remove_needs_a_dangling_non_port_output(self, tg):
        self.rejected(tg, "still has sinks", "remove_instance", "u1")
        self.rejected(tg, "primary output", "remove_instance", "u2")

    def test_rewire_moves_input_pins_only(self, tg):
        self.rejected(tg, "input pins", "rewire_sink", "u1", "ZN", "a")

    def test_rewire_into_a_cycle_is_detected(self, tg):
        with pytest.raises(ValueError, match="cycle"):
            tg.rewire_sink("u1", "A", "y")

    def test_names_come_from_one_counter(self, tg, lib):
        net = tg.fresh_net("bufnet")
        inst = tg.add_instance(lib.pick("BUF", 1), {"A": "n1", "Z": net})
        assert int(inst.rsplit("_", 1)[1]) == int(net.rsplit("_", 1)[1]) + 1
        assert tg.nl.fresh_net() == tg.fork().fresh_net() == tg.fresh_net()
