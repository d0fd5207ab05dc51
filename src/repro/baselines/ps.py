"""Pruned exhaustive search (Roy et al., ref. [15]).

The PS baseline "utilizes a combination of heuristic rules to prune the
intractable design space ... to a small subset that can be exhaustively
searched". Their pruning restricts candidate adders to structures with
bounded logic level and fanout built from known-good substructures. This
implementation reproduces that recipe as a breadth-first enumeration:

- seeds: every regular structure of the width;
- moves: all single add/delete environment actions (legalized);
- pruning heuristics: maximum level ``log2(n) + level_slack``, maximum
  fanout cap, and a node-count budget — the same three properties [15]
  prunes on;
- dedup: canonical graph keys; the surviving set is evaluated exhaustively.

The search is exhaustive *within the pruned space*, exactly the trade the
PS paper makes (and exactly what Section V-D shows RL beating, because the
heuristics cut away the irregular-but-synthesizable designs RL finds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.env.actions import ActionSpace
from repro.pareto.front import budgeted_search
from repro.prefix.graph import PrefixGraph
from repro.prefix.structures import REGULAR_STRUCTURES


@dataclass(frozen=True)
class PruningRules:
    """The heuristic cuts defining the searchable subspace.

    Attributes:
        level_slack: max levels above the log2(n) minimum.
        max_fanout: graph-fanout cap.
        size_slack: max compute nodes above the ripple minimum (n-1),
            expressed as a multiple of n.
    """

    level_slack: int = 2
    max_fanout: int = 6
    size_slack: float = 3.5

    def admits(self, graph: PrefixGraph) -> bool:
        """True if ``graph`` survives all pruning heuristics."""
        n = graph.n
        min_depth = math.ceil(math.log2(n)) if n > 1 else 0
        if graph.depth() > min_depth + self.level_slack:
            return False
        if graph.max_fanout() > self.max_fanout:
            return False
        max_size = (n - 1) + self.size_slack * n
        return graph.num_compute_nodes <= max_size


def pruned_designs(
    n: int,
    rules: "PruningRules | None" = None,
    max_designs: int = 300,
) -> "tuple[list[PrefixGraph], int]":
    """Enumerate the pruned design space; returns ``(designs, explored)``.

    Breadth-first over single-action neighbourhoods starting from the
    regular structures; stops once ``max_designs`` admitted designs exist
    (never more) or the pruned space is exhausted. ``explored`` counts
    every candidate looked at. Nothing is evaluated.
    """
    if max_designs < 1:
        raise ValueError("max_designs must be positive")
    if rules is None:
        rules = PruningRules()
    space = ActionSpace(n)

    seen: "dict[bytes, PrefixGraph]" = {}
    frontier: "list[PrefixGraph]" = []
    explored = 0
    for ctor in REGULAR_STRUCTURES.values():
        g = ctor(n)
        explored += 1
        if rules.admits(g) and g.key() not in seen:
            seen[g.key()] = g
            frontier.append(g)

    while frontier and len(seen) < max_designs:
        next_frontier: "list[PrefixGraph]" = []
        for graph in frontier:
            for action in space.legal_actions(graph):
                candidate = space.apply(graph, action)
                explored += 1
                key = candidate.key()
                if key in seen or not rules.admits(candidate):
                    continue
                seen[key] = candidate
                next_frontier.append(candidate)
                if len(seen) >= max_designs:
                    break
            if len(seen) >= max_designs:
                break
        frontier = next_frontier

    return list(seen.values())[:max_designs], explored


@budgeted_search
def pruned_exhaustive_search(n: int, evaluator, budget: int, rng, *, rules: "PruningRules | None" = None):
    """Evaluate (and archive) the first ``budget`` designs :func:`pruned_designs`
    admits, so it spends ``min(budget, |pruned space|)``. ``rng`` is unused:
    the enumeration is deterministic."""
    for graph in pruned_designs(n, rules, max_designs=budget)[0]:
        evaluator.evaluate(graph)
