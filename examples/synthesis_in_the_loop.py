#!/usr/bin/env python
"""Synthesis-in-the-loop training — the paper's primary setting (Fig. 4).

One agent, one scalarization weight, full reward pipeline: every
environment step generates a gate-level netlist, optimizes it at 4 delay
targets with the OpenPhySyn-like engine, interpolates the area-delay curve
with PCHIP and rewards the w-optimal improvement. Prints the synthesis
cache statistics (Section IV-D) and the designs on the discovered frontier.

Run: ``python examples/synthesis_in_the_loop.py [width] [steps]``
(default 8b/150 steps, ~1-2 minutes).
"""

import sys
import time

from repro.cells import nangate45
from repro.env import PrefixEnv
from repro.prefix import REGULAR_STRUCTURES, render_network
from repro.rl import ScalarizedDoubleDQN, Trainer, TrainerConfig
from repro.synth import (
    SynthesisCache,
    SynthesisEvaluator,
    Synthesizer,
    calibrate_scaling,
    synthesize_curve,
)


def main(n: int = 8, steps: int = 150, w_area: float = 0.5):
    library = nangate45()
    synthesizer = Synthesizer()
    cache = SynthesisCache()

    print(f"Calibrating objective scaling from regular {n}b structures...")
    calib = []
    for name, ctor in REGULAR_STRUCTURES.items():
        curve = synthesize_curve(ctor(n), library, synthesizer)
        calib.extend((a, d) for d, a in curve.points())
        print(f"  {name:>14s}: {curve}")
    c_area, c_delay = calibrate_scaling(calib)
    print(f"calibrated c_area={c_area:.5f}, c_delay={c_delay:.3f} "
          "(paper uses 0.001/10 at its 32b/64b scale)")

    evaluator = SynthesisEvaluator(
        library, synthesizer=synthesizer, w_area=w_area, w_delay=1 - w_area,
        cache=cache, c_area=c_area, c_delay=c_delay,
    )
    env = PrefixEnv(n, evaluator, horizon=24, rng=0)
    agent = ScalarizedDoubleDQN(
        n, w_area=w_area, w_delay=1 - w_area, blocks=1, channels=8, lr=3e-4, rng=0
    )
    trainer = Trainer(env, agent, TrainerConfig(batch_size=8, warmup_steps=16), rng=0)

    print(f"\nTraining {steps} steps with synthesis in the loop (w_area={w_area})...")
    start = time.time()
    history = trainer.run(steps)
    wall = time.time() - start
    print(f"done in {wall:.1f}s ({steps / wall:.1f} env steps/s)")
    print(f"cache: {cache}")
    print(f"gradient steps: {history.gradient_steps}, "
          f"final epsilon: {history.epsilon_trace[-1]:.3f}")

    print("\nDiscovered frontier (synthesized area um2, delay ns):")
    entries = env.archive.entries()
    for area, delay, graph in entries:
        print(f"  ({area:7.1f}, {delay:.4f})  size={graph.num_compute_nodes:3d} "
              f"depth={graph.depth():2d}")
    best_delay_design = entries[0][2]
    print("\nFastest discovered design:")
    print(render_network(best_delay_design))


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 150
    main(n, steps)
