"""Random-walk control baseline.

Not in the paper, but the natural null hypothesis for every search method
here: the same move set and evaluation budget with no learning, no
annealing, no pruning. Benchmarks use it to show that PrefixRL's frontier
quality is not an artifact of the archive ("keep everything you ever saw")
mechanism alone.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.env.actions import ActionSpace
from repro.pareto.front import budgeted_search
from repro.prefix.structures import ripple_carry, sklansky


@budgeted_search
def random_walk_frontier(n: int, evaluator, budget: int, rng, *, restart_every: int = 32):
    """Uniform random legal actions until ``budget`` distinct designs are spent.

    Restarts from ripple/Sklansky (alternating) every ``restart_every``
    evaluations, mirroring the RL environment's episode structure.
    """
    if restart_every < 1:
        raise ValueError("restart_every must be positive")
    space = ActionSpace(n)
    starts = (ripple_carry, sklansky)
    for step in itertools.count():
        if step % restart_every == 0:
            graph = starts[(step // restart_every) % 2](n)
        evaluator.evaluate(graph)
        legal = np.flatnonzero(space.legal_mask(graph))
        graph = space.apply(graph, space.action(int(legal[rng.integers(legal.size)])))
