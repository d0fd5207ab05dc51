"""Simulated annealing over prefix graphs (Moto & Kaneko, ref. [14]).

The SA baseline of Figs. 4a/6: random legal modifications (the same
add/delete + legalize move set as the RL environment), Metropolis
acceptance on a scalarized analytical objective, geometric cooling. The
paper notes SA is "fundamentally sequential" and therefore cannot afford
synthesis in the loop — reproduced here by defaulting to the analytical
evaluator (a synthesis evaluator *can* be passed, but the budget that is
feasible with one makes SA's disadvantage obvious, which is the point).
"""

from __future__ import annotations

import math

import numpy as np

from repro.env.actions import ActionSpace
from repro.pareto.front import budgeted_search
from repro.prefix.graph import PrefixGraph
from repro.prefix.structures import ripple_carry


@budgeted_search
def simulated_annealing(
    n: int,
    evaluator,
    budget: int,
    rng,
    *,
    initial_temp: float = 1.0,
    final_temp: float = 1e-3,
    start: "PrefixGraph | None" = None,
):
    """Anneal the evaluator's scalarized objective from ``start`` (ripple carry).

    The temperature cools geometrically with the share of the budget
    spent, ``initial_temp * (final_temp / initial_temp) ** (spent /
    budget)``. Once SA has made as many evaluations in a row with nothing
    new as the current design has legal moves, it is stuck in a basin: it
    restarts from the best design it has seen at ``initial_temp`` and
    anneals over the rest of the budget, ``(spent - spent_at_restart) /
    (budget - spent_at_restart)``. So SA spends its whole budget unless
    the space is too small to hold it, where the evaluator's stall rule
    ends it. Every evaluated design is archived; :func:`frontier` merges
    several weights' runs through one archive.
    """
    for name, temp in (("initial_temp", initial_temp), ("final_temp", final_temp)):
        if not (math.isfinite(temp) and temp > 0):
            raise ValueError(f"{name} must be finite and positive, got {temp}")
    space = ActionSpace(n)
    current = start if start is not None else ripple_carry(n)

    def cost_of(graph: PrefixGraph) -> float:
        return evaluator.scalarize(evaluator.evaluate(graph))

    current_cost = cost_of(current)
    best, best_cost = current, current_cost
    ratio = final_temp / initial_temp
    origin = 0  # spend at the last restart
    stale = 0  # evaluations in a row that found nothing new
    while True:
        legal = np.flatnonzero(space.legal_mask(current))
        if stale >= legal.size:
            current, current_cost, origin, stale = best, best_cost, evaluator.spent, 0
            legal = np.flatnonzero(space.legal_mask(current))
        candidate = space.apply(current, space.action(int(legal[rng.integers(legal.size)])))
        spent = evaluator.spent
        candidate_cost = cost_of(candidate)
        stale = 0 if evaluator.spent > spent else stale + 1
        if candidate_cost < best_cost:
            best, best_cost = candidate, candidate_cost
        delta = candidate_cost - current_cost
        temp = initial_temp * ratio ** ((evaluator.spent - origin) / max(budget - origin, 1))
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
            current, current_cost = candidate, candidate_cost
