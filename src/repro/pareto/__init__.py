"""Pareto-frontier tooling for area/delay design sets.

Everything the paper's evaluation protocol needs: dominance tests, frontier
extraction, the delay-binning used to present results ("we bin all adder
circuits for an approach and present the area-delay Pareto front"), 2-D
hypervolume, and the matched-delay area-savings metric behind headline
numbers like "16.0% lower area for the same delay". Every search evaluates
through an :class:`ArchivingEvaluator`, whose archive holds every design it
evaluated (``num_seen`` is the search's evaluation count) and which counts
and stops a search's ``budget`` of distinct designs. Every search has one
signature, ``search(n, evaluator, budget, rng) -> ParetoArchive``
(:func:`budgeted_search`), and :func:`frontier` runs any of them once per
scalarization weight into one archive.
"""

from repro.pareto.front import (
    dominates,
    pareto_front,
    ParetoArchive,
    ArchivingEvaluator,
    BudgetExhausted,
    archiving,
    budgeted_search,
    frontier,
    bin_by_delay,
    hypervolume_2d,
    area_savings_at_matched_delay,
    fraction_dominated,
)

__all__ = [
    "dominates",
    "pareto_front",
    "ParetoArchive",
    "ArchivingEvaluator",
    "BudgetExhausted",
    "archiving",
    "budgeted_search",
    "frontier",
    "bin_by_delay",
    "hypervolume_2d",
    "area_savings_at_matched_delay",
    "fraction_dominated",
]
