"""Random-walk control baseline.

Not in the paper, but the natural null hypothesis for every search method
here: the same move set and evaluation budget with no learning, no
annealing, no pruning. Benchmarks use it to show that PrefixRL's frontier
quality is not an artifact of the archive ("keep everything you ever saw")
mechanism alone.
"""

from __future__ import annotations

import numpy as np

from repro.env.actions import ActionSpace
from repro.pareto.front import ParetoArchive, archiving
from repro.prefix.structures import ripple_carry, sklansky
from repro.utils.rng import ensure_rng


def random_walk_frontier(
    n: int,
    evaluator,
    steps: int,
    restart_every: int = 32,
    rng=None,
) -> ParetoArchive:
    """Uniform random legal actions for ``steps`` evaluations.

    Restarts from ripple/Sklansky (alternating) every ``restart_every``
    steps, mirroring the RL environment's episode structure.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if restart_every < 1:
        raise ValueError("restart_every must be positive")
    gen = ensure_rng(rng)
    space = ActionSpace(n)
    evaluator = archiving(evaluator)
    starts = (ripple_carry, sklansky)
    graph = starts[0](n)

    for step in range(steps):
        if step % restart_every == 0:
            graph = starts[(step // restart_every) % 2](n)
        evaluator.evaluate(graph)
        legal = np.flatnonzero(space.legal_mask(graph))
        graph = space.apply(graph, space.action(int(legal[gen.integers(legal.size)])))

    return evaluator.archive
