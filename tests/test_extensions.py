"""Tests for the future-work extensions: power, nonuniform timing,
Verilog export, greedy evaluation rollouts."""

import pytest

from repro.cells import industrial8nm, nangate45
from repro.env import PrefixEnv
from repro.netlist import prefix_adder_netlist, to_verilog
from repro.prefix import brent_kung, kogge_stone, ripple_carry, sklansky
from repro.pareto import pareto_front
from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig, greedy_rollout
from repro.sta import analyze_timing, estimate_power
from repro.synth import AnalyticalEvaluator


@pytest.fixture(scope="module")
def lib():
    return nangate45()


class TestPowerModel:
    def test_power_positive_components(self, lib):
        nl = prefix_adder_netlist(sklansky(8), lib)
        report = estimate_power(nl, rng=0)
        assert report.dynamic > 0
        assert report.leakage > 0
        assert report.total == pytest.approx(report.dynamic + report.leakage)

    def test_toggle_rates_bounded(self, lib):
        nl = prefix_adder_netlist(brent_kung(8), lib)
        report = estimate_power(nl, rng=1)
        for net, alpha in report.toggle_rates.items():
            assert 0.0 <= alpha <= 1.0

    def test_bigger_circuits_burn_more(self, lib):
        small = estimate_power(prefix_adder_netlist(brent_kung(16), lib), rng=0)
        big = estimate_power(prefix_adder_netlist(kogge_stone(16), lib), rng=0)
        assert big.total > small.total

    def test_leakage_scales_with_area(self, lib):
        nl = prefix_adder_netlist(sklansky(8), lib)
        report = estimate_power(nl, rng=0)
        from repro.sta.power import LEAKAGE_PER_UM2

        assert report.leakage == pytest.approx(LEAKAGE_PER_UM2["nangate45"] * nl.area())

    def test_voltage_scaling_quadratic(self, lib):
        nl = prefix_adder_netlist(sklansky(8), lib)
        low = estimate_power(nl, voltage=0.8, rng=0)
        high = estimate_power(nl, voltage=1.6, rng=0)
        assert high.dynamic == pytest.approx(4.0 * low.dynamic, rel=1e-9)

    def test_deterministic_with_seed(self, lib):
        nl = prefix_adder_netlist(sklansky(8), lib)
        a = estimate_power(nl, rng=7)
        b = estimate_power(nl, rng=7)
        assert a.dynamic == b.dynamic

    def test_8nm_library_lower_dynamic(self, lib):
        g = sklansky(8)
        p45 = estimate_power(prefix_adder_netlist(g, lib), rng=0)
        p8 = estimate_power(prefix_adder_netlist(g, industrial8nm()), rng=0)
        assert p8.dynamic < p45.dynamic  # smaller caps at the small node


class TestNonuniformTiming:
    def test_late_input_shifts_delay(self, lib):
        nl = prefix_adder_netlist(ripple_carry(8), lib)
        base = analyze_timing(nl)
        skewed = analyze_timing(nl, input_arrivals={"a0": 0.5})
        assert skewed.delay >= base.delay + 0.4

    def test_late_noncritical_input_harmless(self, lib):
        nl = prefix_adder_netlist(ripple_carry(8), lib)
        base = analyze_timing(nl)
        # a7 only feeds the top bit of a ripple chain — tiny slack impact.
        skewed = analyze_timing(nl, input_arrivals={"a7": 0.01})
        assert skewed.delay <= base.delay + 0.02

    def test_unknown_input_rejected(self, lib):
        nl = prefix_adder_netlist(ripple_carry(4), lib)
        with pytest.raises(ValueError, match="non-input"):
            analyze_timing(nl, input_arrivals={"zz": 1.0})

    def test_uniform_zero_matches_default(self, lib):
        nl = prefix_adder_netlist(sklansky(8), lib)
        base = analyze_timing(nl)
        explicit = analyze_timing(nl, input_arrivals={n: 0.0 for n in nl.inputs})
        assert explicit.delay == pytest.approx(base.delay)


class TestVerilogExport:
    def test_module_structure(self, lib):
        nl = prefix_adder_netlist(sklansky(4), lib)
        text = to_verilog(nl)
        assert text.startswith("//")
        assert f"module {nl.name} (" in text
        assert text.rstrip().endswith("endmodule")

    def test_all_instances_emitted(self, lib):
        nl = prefix_adder_netlist(brent_kung(8), lib)
        text = to_verilog(nl)
        for name, inst in nl.instances.items():
            assert f"{inst.cell.name} {name} (" in text

    def test_ports_declared(self, lib):
        nl = prefix_adder_netlist(ripple_carry(4), lib)
        text = to_verilog(nl)
        for port in nl.inputs:
            assert f"input {port};" in text
        for port in nl.outputs:
            assert f"output {port};" in text

    def test_custom_module_name(self, lib):
        nl = prefix_adder_netlist(sklansky(4), lib)
        assert "module my_adder (" in to_verilog(nl, module_name="my_adder")

    def test_pin_connections_named(self, lib):
        nl = prefix_adder_netlist(sklansky(4), lib)
        text = to_verilog(nl)
        assert ".A1(" in text and ".ZN(" in text


class TestGreedyEvaluation:
    def _trained(self, steps=80):
        env = PrefixEnv(6, AnalyticalEvaluator(0.5, 0.5), horizon=10, rng=0)
        agent = ScalarizedDoubleDQN(6, blocks=0, channels=4, lr=1e-3, rng=0)
        Trainer(env, agent, TrainerConfig(steps=steps, batch_size=4, warmup_steps=8), rng=0).run()
        return env, agent

    def test_rollout_structure(self):
        env, agent = self._trained()
        rollout = greedy_rollout(env, agent, start=ripple_carry(6))
        assert rollout.states[0] == ripple_carry(6)
        assert len(rollout.states) <= env.horizon + 1
        assert rollout.best_graph.is_legal()

    def test_rollout_deterministic(self):
        env, agent = self._trained()
        a = greedy_rollout(env, agent, start=sklansky(6))
        b = greedy_rollout(env, agent, start=sklansky(6))
        assert [s.key() for s in a.states] == [s.key() for s in b.states]

    def test_best_cost_never_above_start(self):
        env, agent = self._trained()
        rollout = greedy_rollout(env, agent, start=ripple_carry(6))
        start_metrics = env.evaluator.evaluate(ripple_carry(6))
        start_cost = agent.w[0] * start_metrics.area + agent.w[1] * start_metrics.delay
        assert rollout.best_cost <= start_cost + 1e-9

    def test_rollout_on_fresh_env_archives_each_state_once(self):
        env, agent = self._trained()
        fresh = PrefixEnv(6, env.evaluator, horizon=env.horizon, rng=1)
        rollout = greedy_rollout(fresh, agent)
        assert fresh.archive.num_seen == len(rollout.states)
        metrics = [env.evaluator.evaluate(graph) for graph in rollout.states]
        assert fresh.archive.points() == pareto_front([(m.area, m.delay) for m in metrics])
        assert {graph.key() for _, _, graph in fresh.archive.entries()} <= {s.key() for s in rollout.states}
