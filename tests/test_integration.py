"""End-to-end integration tests across the full stack.

These are the slowest tests in the suite (tens of seconds total) and check
the cross-module contracts the benchmarks rely on: synthesis-in-the-loop
training runs, optimizer results stay functionally correct designs, and
frontier designs survive serialization round-trips into other libraries.
"""

import numpy as np
import pytest

from repro.baselines import pruned_designs
from repro.cells import industrial8nm, nangate45
from repro.env import PrefixEnv
from repro.netlist import prefix_adder_netlist, verify_adder
from repro.prefix import graph_from_json, graph_to_json, sklansky
from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig
from repro.synth import (
    CommercialSynthesizer,
    SynthesisCache,
    SynthesisEvaluator,
    Synthesizer,
    calibrate_scaling,
    synthesize_curve,
)


class TestSynthesisInTheLoopTraining:
    def test_short_training_run(self):
        library = nangate45()
        cache = SynthesisCache()
        curve = synthesize_curve(sklansky(6), library)
        c_area, c_delay = calibrate_scaling([(a, d) for d, a in curve.points()])
        evaluator = SynthesisEvaluator(
            library, w_area=0.5, w_delay=0.5, cache=cache,
            c_area=c_area, c_delay=c_delay,
        )
        env = PrefixEnv(6, evaluator, horizon=8, rng=0)
        agent = ScalarizedDoubleDQN(6, blocks=0, channels=4, lr=1e-3, rng=0)
        history = Trainer(
            env, agent, TrainerConfig(steps=30, batch_size=4, warmup_steps=8), rng=0
        ).run()
        assert history.env_steps == 30
        assert history.gradient_steps > 0
        assert cache.hits > 0  # revisited states hit the cache
        # Every frontier payload is a real, functional design.
        for area, delay, graph in env.archive.entries():
            netlist = prefix_adder_netlist(graph, library)
            assert verify_adder(netlist, 6, rng=0)

    def test_rewards_reflect_curve_changes(self):
        library = nangate45()
        evaluator = SynthesisEvaluator(
            library, w_area=0.5, w_delay=0.5, c_area=0.05, c_delay=5.0
        )
        from repro.prefix import ripple_carry

        env = PrefixEnv(6, evaluator, horizon=10, rng=0)
        env.reset(ripple_carry(6))
        mask = env.legal_mask()
        idx = int(np.nonzero(mask)[0][0])
        result = env.step(env.action_space.action(idx))
        assert np.isfinite(result.reward).all()
        assert result.reward.shape == (2,)


class TestOptimizedDesignsStayCorrect:
    @pytest.mark.parametrize("tool", [Synthesizer(), CommercialSynthesizer()])
    def test_pruned_designs_after_optimization(self, tool):
        library = industrial8nm()
        designs, _ = pruned_designs(6, max_designs=12)
        for graph in designs[:6]:
            netlist = prefix_adder_netlist(graph, library)
            result = tool.optimize(netlist, target=0.05)
            assert verify_adder(result.netlist, 6, rng=3)
            result.netlist.validate()


class TestCrossLibraryRoundTrip:
    def test_design_transfers_via_json(self):
        # Serialize a design discovered on one library, rebuild, synthesize
        # on the other — the Fig. 5 data path.
        from repro.prefix import han_carlson

        design = han_carlson(8)
        assert design.n == 8
        blob = graph_to_json(design)
        rebuilt = graph_from_json(blob)
        for library in (nangate45(), industrial8nm()):
            curve = synthesize_curve(rebuilt, library)
            assert curve.min_delay > 0
            assert curve.area_at(curve.max_delay) > 0

    def test_curves_scale_between_libraries(self):
        g = sklansky(8)
        c45 = synthesize_curve(g, nangate45())
        c8 = synthesize_curve(g, industrial8nm())
        # The 8nm library is dramatically denser and faster.
        assert c8.area_at(c8.max_delay) < 0.2 * c45.area_at(c45.max_delay)
        assert c8.min_delay < c45.min_delay
