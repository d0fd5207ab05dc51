"""Exact Pareto fronts where the whole design space is enumerable (n <= 7).

Every design is one :func:`tests.oracles.qstar.from_ripple` reaches (every
legal graph of the width: ``tests/env/test_state_space.py``). A front is
kept with its designs: a list of ``(area, delay, key)`` triples, one per
design and non-dominated point, so tied designs all appear. n=6 has 471
designs (under a second of synthesis), n=7 has 9296 (about ten seconds
per library).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pareto import pareto_front
from repro.synth import AnalyticalEvaluator, Synthesizer, synthesize_curve
from tests.oracles.qstar import from_ripple


def front_of(points: "list[tuple[float, float, bytes]]") -> "list[tuple[float, float, bytes]]":
    """The ``(area, delay, key)`` triples whose point is non-dominated, by delay."""
    front = set(pareto_front([(area, delay) for area, delay, _ in points]))
    return sorted((p for p in points if (p[0], p[1]) in front), key=lambda p: (p[1], p[0], p[2]))


def exact_front(n: int, evaluate) -> "list[tuple[float, float, bytes]]":
    """The front of ``evaluate(graph) -> metrics`` over every design of width ``n``."""
    points = []
    for key, graph in from_ripple(n).items():
        metrics = evaluate(graph)
        points.append((metrics.area, metrics.delay, key))
    return front_of(points)


@dataclass(frozen=True)
class ExactFronts:
    """Both fronts of one width and library.

    ``analytical`` is the Moto-Kaneko model's front; ``synthesis`` the
    front of every design's synthesis-curve points (each design
    contributes its :func:`synthesize_curve` samples). ``curves`` maps
    each key to its ``(area, delay)`` curve points.
    """

    analytical: "list[tuple[float, float, bytes]]"
    synthesis: "list[tuple[float, float, bytes]]"
    curves: "dict[bytes, list[tuple[float, float]]]"

    @staticmethod
    def designs(front) -> "set[bytes]":
        return {key for _, _, key in front}


def exact_fronts(n: int, library, synthesizer: "Synthesizer | None" = None) -> ExactFronts:
    """Enumerate width ``n``, synthesize every design and return both fronts."""
    synthesizer = synthesizer if synthesizer is not None else Synthesizer()
    curves = {}
    for key, graph in from_ripple(n).items():
        curve = synthesize_curve(graph, library, synthesizer)
        curves[key] = [(area, delay) for delay, area in curve.points()]
    synthesis = front_of([(area, delay, key) for key, points in curves.items() for area, delay in points])
    return ExactFronts(exact_front(n, AnalyticalEvaluator().evaluate), synthesis, curves)
