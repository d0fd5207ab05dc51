"""Pareto dominance, frontiers, archives and comparison metrics.

Convention throughout: a design point is ``(area, delay)`` and *smaller is
better* in both coordinates.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.utils.rng import ensure_rng

Point = "tuple[float, float]"


def dominates(p: "tuple[float, float]", q: "tuple[float, float]", eps: float = 0.0) -> bool:
    """True if ``p`` is no worse than ``q`` in both metrics and better in one.

    ``eps`` adds slack: p dominates q if it is within eps of q on one axis
    while strictly better on the other (useful for noisy synthesis metrics).
    """
    no_worse = p[0] <= q[0] + eps and p[1] <= q[1] + eps
    better = p[0] < q[0] - eps or p[1] < q[1] - eps
    return no_worse and better


def pareto_front(points: "list[tuple[float, float]]") -> "list[tuple[float, float]]":
    """Non-dominated subset, sorted by delay ascending.

    Duplicates collapse to one representative. O(n log n).
    """
    if not points:
        return []
    ordered = sorted(set((float(a), float(d)) for a, d in points), key=lambda p: (p[1], p[0]))
    front: "list[tuple[float, float]]" = []
    best_area = float("inf")
    for area, delay in ordered:
        if area < best_area:
            front.append((area, delay))
            best_area = area
    return sorted(front, key=lambda p: p[1])


class ParetoArchive:
    """Incrementally maintained frontier with optional payloads.

    ``add`` keeps the archive minimal: dominated entries are evicted, and a
    new point is stored only if no archived point dominates it. Payloads
    (typically :class:`repro.prefix.PrefixGraph` designs) ride along with
    their points, which is how RL training recovers the actual circuits on
    its frontier.
    """

    def __init__(self):
        self._entries: "list[tuple[float, float, object]]" = []
        self.num_seen = 0

    def add(self, area: float, delay: float, payload=None) -> bool:
        """Offer a point; returns True if it joins the frontier."""
        self.num_seen += 1
        point = (float(area), float(delay))
        for a, d, _ in self._entries:
            if (a, d) == point or dominates((a, d), point):
                return False
        self._entries = [
            (a, d, p) for a, d, p in self._entries if not dominates(point, (a, d))
        ]
        self._entries.append((point[0], point[1], payload))
        return True

    def points(self) -> "list[tuple[float, float]]":
        """Frontier points sorted by delay."""
        return sorted(((a, d) for a, d, _ in self._entries), key=lambda p: p[1])

    def entries(self) -> "list[tuple[float, float, object]]":
        """(area, delay, payload) triples sorted by delay."""
        return sorted(self._entries, key=lambda e: e[1])

    # -- persistence -----------------------------------------------------

    def state_dict(self, encode_payload=None) -> dict:
        """Snapshot preserving internal entry order (checkpoint/resume).

        ``encode_payload`` maps each payload to something serializable
        (e.g. :func:`repro.prefix.graph_to_dict`); the default stores
        payloads as-is, which is only safe for plain data.
        """
        enc = encode_payload if encode_payload is not None else (lambda p: p)
        return {
            "num_seen": self.num_seen,
            "entries": [[a, d, enc(p)] for a, d, p in self._entries],
        }

    def load_state_dict(self, state: dict, decode_payload=None) -> None:
        """Restore a :meth:`state_dict` snapshot (inverse codec applied)."""
        dec = decode_payload if decode_payload is not None else (lambda p: p)
        self.num_seen = int(state["num_seen"])
        self._entries = [
            (float(a), float(d), dec(p)) for a, d, p in state["entries"]
        ]

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"ParetoArchive(frontier={len(self)}, seen={self.num_seen})"


class BudgetExhausted(Exception):
    """A budgeted :class:`ArchivingEvaluator` ending the search that uses it."""


class ArchivingEvaluator:
    """An evaluator that offers every design it evaluates to an archive.

    The one place a search records what it evaluated: ``archive.num_seen``
    is the search's evaluation count and ``archive`` its frontier (the
    paper bins *all* evaluated designs, Sec. V-A). Several searches share
    a frontier by sharing the archive.

    It is also the one place a search's ``budget`` is counted and spent.
    A budget counts *distinct* designs (by ``graph.key()``), what a
    synthesis run pays for, since a repeat is a store hit. ``spent`` is
    how many this evaluator has seen. It raises :class:`BudgetExhausted`
    before evaluating a new design once ``budget`` are spent, or a
    design after ``budget`` evaluations in a row found nothing new (a
    search confined to a small space ends too). With ``budget=None``
    nothing is counted.
    """

    def __init__(self, evaluator, archive: "ParetoArchive | None" = None, budget: "int | None" = None):
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        self.evaluator = evaluator
        self.archive = archive if archive is not None else ParetoArchive()
        self.budget = budget
        self._keys: "set[bytes]" = set()
        self._stale = 0  # evaluations in a row of designs already seen

    @property
    def spent(self) -> int:
        """Distinct designs evaluated (0 without a budget)."""
        return len(self._keys)

    def evaluate(self, graph):
        """The inner evaluator's metrics, after archiving ``graph``."""
        if self.budget is not None:
            self._charge(graph)
        metrics = self.evaluator.evaluate(graph)
        self.archive.add(metrics.area, metrics.delay, payload=graph)
        return metrics

    def record(self, graph, metrics):
        """Archive ``graph`` with metrics evaluated elsewhere (a batch)."""
        if self.budget is not None:
            self._charge(graph)
        self.archive.add(metrics.area, metrics.delay, payload=graph)
        return metrics

    def _charge(self, graph) -> None:
        key = graph.key()
        if key in self._keys:
            if self._stale >= self.budget:
                raise BudgetExhausted(f"{self.budget} evaluations in a row found no new design")
            self._stale += 1
        elif len(self._keys) >= self.budget:
            raise BudgetExhausted(f"all {self.budget} designs of the budget are spent")
        else:
            self._keys.add(key)
            self._stale = 0

    def scalarize(self, metrics) -> float:
        return self.evaluator.scalarize(metrics)


def archiving(evaluator, budget: "int | None" = None) -> ArchivingEvaluator:
    """``evaluator`` if it already archives, else a wrapper around it under
    ``budget``. An archiving evaluator must already spend ``budget`` (any,
    when ``budget`` is None): one budget is never set in two places."""
    if isinstance(evaluator, ArchivingEvaluator):
        if budget is not None and budget != evaluator.budget:
            raise ValueError(f"the archiving evaluator's budget is {evaluator.budget}, not the search's {budget}")
        return evaluator
    return ArchivingEvaluator(evaluator, budget=budget)


def budgeted_search(body):
    """The search contract, ``search(n, evaluator, budget, rng) -> ParetoArchive``.

    ``body(n, evaluator, budget, rng, **knobs)`` gets ``archiving(evaluator,
    budget)`` and a generator, and evaluates until that evaluator stops it
    (or it has nothing left to evaluate). The search returns the archive;
    :class:`BudgetExhausted` never reaches its caller. Knobs that change
    the algorithm are keywords.
    """

    @functools.wraps(body)
    def search(n: int, evaluator, budget: int, rng=None, **knobs) -> ParetoArchive:
        evaluator = archiving(evaluator, budget)
        try:
            body(n, evaluator, budget, ensure_rng(rng), **knobs)
        except BudgetExhausted:
            pass
        return evaluator.archive

    return search


def frontier(search, n: int, evaluator_factory, weights: "list[float]", budget: int, seed=0):
    """Run ``search`` once per area weight into one shared archive.

    ``evaluator_factory(w_area, 1 - w_area)`` builds each weight's
    evaluator. Every weight gets the whole ``budget``, and the weights'
    searches draw, in weight order, from the one generator of ``seed``
    (:func:`repro.rl.sweep.rl_search` spawns its env and agent streams
    from it, two draws per weight). Returns ``(archive, spent)``: the
    merged archive and each weight's distinct-design spend, in weight
    order.
    """
    archive = ParetoArchive()
    spent = []
    rng = ensure_rng(seed)
    for w_area in weights:
        evaluator = ArchivingEvaluator(evaluator_factory(w_area, 1.0 - w_area), archive, budget)
        search(n, evaluator, budget, rng)
        spent.append(evaluator.spent)
    return archive, spent


def bin_by_delay(
    points: "list[tuple[float, float]]", num_bins: int
) -> "list[tuple[float, float]]":
    """Best-area representative per delay bin (the paper's presentation).

    The delay range is split into ``num_bins`` equal bins; within each bin
    the minimum-area point survives. Returns at most ``num_bins`` points,
    sorted by delay.
    """
    if not points:
        return []
    if num_bins < 1:
        raise ValueError("num_bins must be positive")
    delays = np.array([p[1] for p in points], dtype=float)
    lo, hi = float(delays.min()), float(delays.max())
    if hi <= lo:
        best = min(points, key=lambda p: p[0])
        return [best]
    keep: "dict[int, tuple[float, float]]" = {}
    for area, delay in points:
        idx = min(int((delay - lo) / (hi - lo) * num_bins), num_bins - 1)
        if idx not in keep or area < keep[idx][0]:
            keep[idx] = (area, delay)
    return sorted(keep.values(), key=lambda p: p[1])


def hypervolume_2d(
    points: "list[tuple[float, float]]", reference: "tuple[float, float]"
) -> float:
    """Dominated hypervolume w.r.t. a reference (worst) corner.

    Standard 2-D sweep over the frontier; points outside the reference box
    contribute nothing.
    """
    front = [p for p in pareto_front(points) if p[0] < reference[0] and p[1] < reference[1]]
    if not front:
        return 0.0
    volume = 0.0
    prev_area = reference[0]
    for area, delay in sorted(front, key=lambda p: p[1]):
        volume += (prev_area - area) * (reference[1] - delay)
        prev_area = area
    return volume


def area_savings_at_matched_delay(
    ours: "list[tuple[float, float]]",
    baseline: "list[tuple[float, float]]",
) -> "list[tuple[float, float]]":
    """Per-delay-point area savings of ``ours`` vs ``baseline``.

    For each baseline frontier point, find the best ``ours`` area achievable
    at no more than that delay; returns ``(delay, savings_fraction)`` pairs
    (positive = we are smaller). Baseline points faster than anything we
    achieve are skipped — there is no matched-delay comparison there.
    """
    our_front = pareto_front(ours)
    results = []
    for base_area, base_delay in pareto_front(baseline):
        candidates = [a for a, d in our_front if d <= base_delay]
        if not candidates:
            continue
        best = min(candidates)
        results.append((base_delay, (base_area - best) / base_area))
    return results


def fraction_dominated(
    ours: "list[tuple[float, float]]",
    baseline: "list[tuple[float, float]]",
    eps: float = 0.0,
) -> float:
    """Fraction of baseline frontier points dominated by our frontier."""
    base = pareto_front(baseline)
    if not base:
        return 0.0
    our_front = pareto_front(ours)
    dominated = 0
    for q in base:
        if any(dominates(p, q, eps) for p in our_front):
            dominated += 1
    return dominated / len(base)
