"""Area-delay trade-off curves (Fig. 3 of the paper).

Each prefix-graph state corresponds to a *curve* of synthesized circuits,
one per timing constraint. The paper samples 4 delay targets, interpolates
with PCHIP, and defines the reward from the scalarization-optimal point on
the curve. This module reproduces that pipeline:

- :func:`synthesize_curve` — netlist generation, one compile, and 4
  optimization runs spanning the feasible delay range. It is the one
  curve path: in-process evaluation and farm pool workers both call it on
  a graph;
- :class:`AreaDelayCurve` — monotone PCHIP interpolation plus the
  ``w_optimal`` point selection of Fig. 3c. Construction validates the
  samples; the interpolator (numpy, read for read scipy's PCHIP) is
  built on first read.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cells.library import CellLibrary
from repro.netlist.adder import prefix_adder_netlist
from repro.prefix.graph import PrefixGraph
from repro.synth.optimizer import Synthesizer

# Paper Section IV-B: scaling constants making area (um^2) and delay (ns)
# commensurable inside the scalarized objective. These are the paper's
# values, tuned for *their* 32b/64b area range (2000-10000 um^2); for other
# widths/libraries use :func:`calibrate_scaling`, which reproduces the
# paper's stated selection procedure ("multiply those values by scaling
# constants such that the Pareto frontier for different w evenly covers the
# breadth of baseline prefix graph designs").
C_AREA = 0.001
C_DELAY = 10.0

NUM_TARGETS = 4


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, clamped to keep the end monotone."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic coefficients ``c[k, i]`` of ``(x - x[i])**(3 - k)`` on segment ``i``
    of the PCHIP through ``(x, y)``, ``x`` strictly increasing, two knots or more.

    The operations and their order are scipy's ``PchipInterpolator``
    (Fritsch-Butland slopes, then ``CubicHermiteSpline``'s coefficients), so
    :func:`_pchip_read` is bit-identical to it; the curve tests hold it there.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    if len(x) == 2:
        d[:] = m[0]
    else:
        # Weighted harmonic mean of the secants, 0 where they change sign or one is 0.
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    # scipy's evaluation starts its sum from 0.0, which reads a -0.0 knot as +0.0.
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1] + 0.0))


def _pchip_read(x: np.ndarray, c: np.ndarray, at):
    """The PCHIP with knots ``x`` and coefficients ``c`` at ``at`` (scalar or
    array) inside ``[x[0], x[-1]]``; the last segment is closed on the right."""
    i = np.minimum(np.searchsorted(x, at, side="right") - 1, len(x) - 2)
    s = at - x[i]
    s2 = s * s
    return ((c[3, i] + c[2, i] * s) + c[1, i] * s2) + c[0, i] * (s2 * s)


def calibrate_scaling(points: "list[tuple[float, float]]") -> "tuple[float, float]":
    """Derive (c_area, c_delay) from baseline (area, delay) spans.

    Given representative baseline designs' metrics, returns constants that
    normalize each objective's spread to 1.0, so a weight sweep
    w in [0.1, 0.99] traces the full breadth of the frontier — the paper's
    constant-selection procedure, applied to whatever scale the current
    library/width produces.
    """
    if len(points) < 2:
        raise ValueError("need at least two baseline points to calibrate")
    areas = [p[0] for p in points]
    delays = [p[1] for p in points]
    area_span = max(areas) - min(areas)
    delay_span = max(delays) - min(delays)
    c_area = 1.0 / area_span if area_span > 1e-12 else 1.0
    c_delay = 1.0 / delay_span if delay_span > 1e-12 else 1.0
    return c_area, c_delay


class AreaDelayCurve:
    """Monotone area(delay) curve interpolated from synthesis samples.

    Raw samples are cleaned to a proper trade-off: sorted by delay, area
    replaced by the running minimum (a longer budget can never force a
    larger circuit), duplicate delays deduped to their best area. PCHIP
    (shape-preserving, no overshoot) interpolates between samples — the
    paper's choice, for the same reason.

    Construction validates the cleaned samples (``ValueError`` on a NaN or
    infinite delay or area); the interpolator itself is built on the first
    :meth:`area_at` / :meth:`w_optimal` that needs it and then kept, so a
    curve that is only stored or shipped never pays for it.
    """

    def __init__(self, samples: "list[tuple[float, float]]"):
        if not samples:
            raise ValueError("need at least one (delay, area) sample")
        pts = sorted(samples)
        delays, areas = [], []
        best = float("inf")
        for d, a in pts:
            best = min(best, a)
            if delays and d <= delays[-1] + 1e-12:
                areas[-1] = min(areas[-1], best)
                continue
            delays.append(d)
            areas.append(best)
        # Cleaning makes delays strictly increasing; PCHIP also needs finite
        # samples, checked here so bad wire or disk input fails on arrival.
        if not (all(map(math.isfinite, delays)) and all(map(math.isfinite, areas))):
            raise ValueError(f"curve samples must be finite, got {samples!r}")
        self.delays = np.array(delays, dtype=float)
        self.areas = np.array(areas, dtype=float)
        self._pchip = None

    def _interp(self, delay):
        if self._pchip is None:
            self._pchip = _pchip_coefficients(self.delays, self.areas)
        return _pchip_read(self.delays, self._pchip, delay)

    @classmethod
    def from_points(cls, points) -> "AreaDelayCurve":
        """Rebuild from a :meth:`points` list (JSON round-trip safe).

        The single owner of the serialized-curve convention: checkpoints
        and farm workers ship curves as ``[[delay, area], ...]`` and
        rebuild through here.
        """
        return cls([tuple(p) for p in points])

    @property
    def min_delay(self) -> float:
        return float(self.delays[0])

    @property
    def max_delay(self) -> float:
        return float(self.delays[-1])

    def area_at(self, delay: float) -> float:
        """Interpolated area at ``delay``, clamped to the sampled range."""
        if delay <= self.min_delay:
            return float(self.areas[0])
        if delay >= self.max_delay:
            return float(self.areas[-1])
        return float(self._interp(delay))

    def w_optimal(
        self,
        w_area: float,
        w_delay: float,
        c_area: float = C_AREA,
        c_delay: float = C_DELAY,
        grid: int = 64,
    ) -> "tuple[float, float]":
        """The (area, delay) point minimizing the scalarized objective.

        Objective: ``w_area * c_area * area + w_delay * c_delay * delay``
        over the interpolated curve (Fig. 3c).
        """
        if len(self.delays) == 1:
            return float(self.areas[0]), float(self.delays[0])
        ds = np.linspace(self.min_delay, self.max_delay, grid)
        areas = self._interp(ds)
        cost = w_area * c_area * areas + w_delay * c_delay * ds
        idx = int(np.argmin(cost))
        return float(areas[idx]), float(ds[idx])

    def points(self) -> "list[tuple[float, float]]":
        """The cleaned (delay, area) samples."""
        return list(zip(self.delays.tolist(), self.areas.tolist()))

    def __repr__(self) -> str:
        pts = ", ".join(f"({d:.4f}, {a:.1f})" for d, a in self.points())
        return f"AreaDelayCurve([{pts}])"


def synthesize_curve(
    graph: PrefixGraph,
    library: CellLibrary,
    synthesizer: "Synthesizer | None" = None,
    num_targets: int = NUM_TARGETS,
) -> AreaDelayCurve:
    """Sample the graph's area-delay curve at ``num_targets`` delay targets.

    Mirrors Section IV-D: the tightest run (target 0) discovers the fastest
    achievable circuit; the most relaxed run keeps everything minimum-size
    and recovers area; intermediate targets interpolate the span.
    """
    if synthesizer is None:
        synthesizer = Synthesizer()
    netlist = prefix_adder_netlist(graph, library)
    # One compile per curve: the netlist is read into a timing graph and
    # pin-swapped once; every target forks that graph (table copies only).
    # Only each result's ``delay`` and ``area`` are read, so no optimised
    # ``Netlist`` is ever materialised.
    prepared = synthesizer.prepare(netlist)
    fast = synthesizer.optimize_prepared(prepared, target=0.0)
    samples = [(fast.delay, fast.area)]
    relaxed_target = max(fast.delay * 4.0, 1e-3)
    relaxed = synthesizer.optimize_prepared(prepared, target=relaxed_target)
    samples.append((relaxed.delay, relaxed.area))

    lo, hi = fast.delay, max(relaxed.delay, fast.delay * 1.01)
    for frac in np.linspace(0, 1, num_targets)[1:-1]:
        target = float(lo + (hi - lo) * frac)
        result = synthesizer.optimize_prepared(prepared, target=target)
        samples.append((result.delay, result.area))

    return AreaDelayCurve(samples)
