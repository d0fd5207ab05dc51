"""Percentile, block and spread maths shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import math
import statistics


def percentile(samples: "list[float]", q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def blocks(samples: "list[float]", count: int) -> "list[list[float]]":
    """``samples`` cut into at most ``count`` consecutive runs of near-equal length."""
    count = max(1, min(count, len(samples)))
    edges = [len(samples) * i // count for i in range(count + 1)]
    return [samples[lo:hi] for lo, hi in zip(edges, edges[1:])]


def spread(samples: "list[float]") -> float:
    """Round-to-round spread ``(max - min) / median``; 0.0 for a single round."""
    mid = statistics.median(samples)
    if len(samples) < 2 or mid == 0:
        return 0.0
    return (max(samples) - min(samples)) / abs(mid)


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``.

    Positive means worse in the metric's own direction (``better`` is
    ``"lower"`` or ``"higher"``), negative means better.
    """
    if parent == 0:
        return 0.0 if change == 0 else math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta
