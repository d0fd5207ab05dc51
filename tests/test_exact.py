"""Exact answers where the space is enumerable (``tests/oracles/exact.py``).

No search can archive a point beyond the exact front of the points its
evaluators give every design, and the analytical-to-synthesis inversion
Fig. 6b argues from (Sec. V-D) holds over every design at n = 6 and 7,
without any search.
"""

import pytest

from repro.cells import library_by_name, nangate45
from repro.pareto import dominates, frontier, hypervolume_2d
from repro.synth import AnalyticalEvaluator, SynthesisCache, SynthesisEvaluator
from tests.oracles.exact import ExactFronts, exact_front, exact_fronts, front_of
from tests.test_search_contract import SEARCHES

WEIGHTS = (0.2, 0.5, 0.8)


def assert_behind(points, exact):
    """No point dominates the exact front, and each is on or behind it."""
    exact = [(area, delay) for area, delay, _ in exact]
    for p in points:
        assert not any(dominates(p, q) for q in exact), p
        assert any(q[0] <= p[0] and q[1] <= p[1] for q in exact), p


@pytest.mark.parametrize("n", (5, 6))
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_no_search_beats_the_exact_analytical_front(name, n):
    archive, _ = frontier(SEARCHES[name], n, AnalyticalEvaluator, WEIGHTS, 60, seed=1)
    assert_behind(archive.points(), exact_front(n, AnalyticalEvaluator().evaluate))


@pytest.fixture(scope="module")
def synthesis_n6():
    """Per-weight synthesis evaluators at n=6 over one cache, and the exact
    front of the points they give every design."""
    cache = SynthesisCache()

    def factory(w_area, w_delay):
        return SynthesisEvaluator(nangate45(), w_area=w_area, w_delay=w_delay, cache=cache)

    exact = front_of([p for w in WEIGHTS for p in exact_front(6, factory(w, 1.0 - w).evaluate)])
    return factory, exact


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_no_search_beats_the_exact_synthesis_front(name, synthesis_n6):
    # A synthesis evaluator reports its weight's optimum on a design's
    # interpolated curve, so the exact front is of those points, not of
    # the curves' samples.
    factory, exact = synthesis_n6
    archive, _ = frontier(SEARCHES[name], 6, factory, WEIGHTS, 60, seed=1)
    assert_behind(archive.points(), exact)


@pytest.mark.slow
@pytest.mark.parametrize("library", ("nangate45", "industrial8nm"))
@pytest.mark.parametrize("n", (6, 7))
def test_fig6b_inversion_is_exact(n, library):
    """The analytical-Pareto designs do not make the synthesis front: their
    curves reach under 0.95 of the exact synthesis hypervolume (reference
    1.05 x the worst curve point of any design), and fewer than half of the
    synthesis-Pareto designs are analytical-Pareto."""
    fronts = exact_fronts(n, library_by_name(library))
    analytical, synthesis = ExactFronts.designs(fronts.analytical), ExactFronts.designs(fronts.synthesis)
    every_point = [p for points in fronts.curves.values() for p in points]
    ref = (max(a for a, _ in every_point) * 1.05, max(d for _, d in every_point) * 1.05)
    exact_hv = hypervolume_2d([(a, d) for a, d, _ in fronts.synthesis], ref)
    ratio = hypervolume_2d([p for key in analytical for p in fronts.curves[key]], ref) / exact_hv
    shared = analytical & synthesis
    print(
        f"\nn={n} {library}: {len(fronts.curves)} designs; analytical front "
        f"{len({(a, d) for a, d, _ in fronts.analytical})} points from {len(analytical)} designs; synthesis "
        f"front {len({(a, d) for a, d, _ in fronts.synthesis})} points from {len(synthesis)} designs, "
        f"{len(shared)} analytical-Pareto; analytical-Pareto curves reach {ratio:.3f} of exact HV"
    )
    assert ratio < 0.95
    assert len(shared) < len(synthesis) / 2
