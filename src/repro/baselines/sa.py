"""Simulated annealing over prefix graphs (Moto & Kaneko, ref. [14]).

The SA baseline of Figs. 4a/6: random legal modifications (the same
add/delete + legalize move set as the RL environment), Metropolis
acceptance on a scalarized analytical objective, geometric cooling. The
paper notes SA is "fundamentally sequential" and therefore cannot afford
synthesis in the loop — reproduced here by defaulting to the analytical
evaluator (a synthesis evaluator *can* be passed, but the step budget that
is feasible with one makes SA's disadvantage obvious, which is the point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.env.actions import ActionSpace
from repro.pareto.front import ArchivingEvaluator, ParetoArchive, archiving
from repro.prefix.graph import PrefixGraph
from repro.prefix.structures import ripple_carry
from repro.utils.rng import ensure_rng


@dataclass
class SAResult:
    """Outcome of one annealing run."""

    best_graph: PrefixGraph
    best_cost: float
    archive: ParetoArchive
    accepted: int
    iterations: int


def simulated_annealing(
    n: int,
    evaluator,
    iterations: int = 2000,
    initial_temp: float = 1.0,
    final_temp: float = 1e-3,
    start: "PrefixGraph | None" = None,
    rng=None,
) -> SAResult:
    """Anneal one scalarized objective; returns the best design found.

    Temperature follows a geometric schedule from ``initial_temp`` to
    ``final_temp`` over ``iterations`` steps. Every evaluated design is
    archived; pass an :class:`ArchivingEvaluator` to share its archive
    (multi-weight runs merge frontiers that way).
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    for name, temp in (("initial_temp", initial_temp), ("final_temp", final_temp)):
        if not (math.isfinite(temp) and temp > 0):
            raise ValueError(f"{name} must be finite and positive, got {temp}")
    gen = ensure_rng(rng)
    space = ActionSpace(n)
    current = start if start is not None else ripple_carry(n)
    evaluator = archiving(evaluator)

    def cost_of(graph: PrefixGraph) -> float:
        return evaluator.scalarize(evaluator.evaluate(graph))

    current_cost = cost_of(current)
    best, best_cost = current, current_cost
    cooling = (final_temp / initial_temp) ** (1.0 / iterations)
    temp = initial_temp
    accepted = 0

    for _ in range(iterations):
        legal = np.flatnonzero(space.legal_mask(current))
        candidate = space.apply(current, space.action(int(legal[gen.integers(legal.size)])))
        candidate_cost = cost_of(candidate)
        delta = candidate_cost - current_cost
        if delta <= 0 or gen.random() < math.exp(-delta / max(temp, 1e-12)):
            current, current_cost = candidate, candidate_cost
            accepted += 1
            if current_cost < best_cost:
                best, best_cost = current, current_cost
        temp *= cooling

    return SAResult(
        best_graph=best,
        best_cost=best_cost,
        archive=evaluator.archive,
        accepted=accepted,
        iterations=iterations,
    )


def sa_frontier(
    n: int,
    evaluator_factory,
    weights: "list[float]",
    iterations_per_weight: int,
    seed: int = 0,
) -> ParetoArchive:
    """Multi-weight SA (the frontier the paper's SA series shows).

    ``evaluator_factory(w_area, w_delay)`` builds the scalarized evaluator
    per weight; all runs share one archive.
    """
    archive = ParetoArchive()
    gen = ensure_rng(seed)
    for w_area in weights:
        evaluator = ArchivingEvaluator(evaluator_factory(w_area, 1.0 - w_area), archive)
        simulated_annealing(n, evaluator, iterations=iterations_per_weight, rng=int(gen.integers(2**62)))
    return archive
