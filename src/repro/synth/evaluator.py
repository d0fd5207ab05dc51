"""Evaluators: the environment's pluggable (area, delay) oracles.

The RL environment only needs a callable mapping a prefix graph to a
scalarization-dependent (area, delay) pair. Two implementations:

- :class:`SynthesisEvaluator` — the paper's primary setting: full netlist
  synthesis at 4 targets, PCHIP curve, w-optimal point (Fig. 3). *Where*
  the curves come from is delegated to a
  :class:`repro.synth.backend.EvaluationBackend` (a store, optionally a
  farm runner to run misses on) — the evaluator itself only owns the
  scalarization.
- :class:`AnalyticalEvaluator` — the Moto-Kaneko model, used to train
  "Analytical-PrefixRL" for the Fig. 6 study (no curve; the metrics are
  target-independent).

Both expose the same ``evaluate``/``metrics`` interface so the environment,
baselines and benchmarks can swap them freely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytical.model import evaluate_analytical
from repro.cells.library import CellLibrary
from repro.prefix.graph import PrefixGraph
from repro.store.api import make_store
from repro.synth.backend import EvaluationBackend
from repro.synth.curve import AreaDelayCurve, C_AREA, C_DELAY
from repro.synth.optimizer import Synthesizer


@dataclass(frozen=True)
class CircuitMetrics:
    """The (area, delay) pair an evaluator reports for one graph."""

    area: float
    delay: float


class SynthesisEvaluator:
    """Synthesis-in-the-loop evaluator over a pluggable backend.

    Args:
        library: cell library to synthesize into.
        synthesizer: optimizer configuration (defaults to the OpenPhySyn
            stand-in at default effort).
        w_area / w_delay: scalarization weights selecting the curve point
            (Section IV-B); must be nonnegative, normalized by the caller.
        cache: the :class:`repro.store.CurveStore` behind the default
            (store + in-process synthesis) backend; one is created if
            omitted. Mutually exclusive with ``backend``.
        c_area / c_delay: the paper's scaling constants.
        backend: an explicit :class:`EvaluationBackend` — e.g. one with a
            farm ``runner``; mutually exclusive with ``cache``.
    """

    def __init__(
        self,
        library: CellLibrary,
        synthesizer: "Synthesizer | None" = None,
        w_area: float = 0.5,
        w_delay: float = 0.5,
        cache=None,
        c_area: float = C_AREA,
        c_delay: float = C_DELAY,
        backend: "EvaluationBackend | None" = None,
    ):
        if w_area < 0 or w_delay < 0:
            raise ValueError("scalarization weights must be nonnegative")
        self.library = library
        self.synthesizer = synthesizer if synthesizer is not None else Synthesizer()
        self.w_area = w_area
        self.w_delay = w_delay
        self.c_area = c_area
        self.c_delay = c_delay
        if backend is None:
            backend = EvaluationBackend(
                self.library, self.synthesizer, cache if cache is not None else make_store()
            )
        elif cache is not None:
            raise ValueError(
                "pass either backend= or cache=, not both: an explicit "
                "backend already owns its store"
            )
        self.backend = backend

    # -- backend views ----------------------------------------------------

    @property
    def cache(self):
        """The backend's curve store (None for a storeless backend)."""
        return self.backend.store

    # -- evaluation -------------------------------------------------------

    def curve(self, graph: PrefixGraph) -> AreaDelayCurve:
        """The graph's area-delay curve (resolved through the backend)."""
        return self.backend.evaluate_many([graph])[0]

    def evaluate(self, graph: PrefixGraph) -> CircuitMetrics:
        """w-optimal (area, delay) on the graph's synthesis curve."""
        area, delay = self.curve(graph).w_optimal(
            self.w_area, self.w_delay, self.c_area, self.c_delay
        )
        return CircuitMetrics(area=area, delay=delay)

    def curve_many(self, graphs: "list[PrefixGraph]") -> "list[AreaDelayCurve]":
        """Curves for a batch of graphs, deduplicated before evaluation.

        Duplicate graphs in one batch (the common case in RL collection)
        resolve to a single evaluation; order matches the input. The
        backend decides where misses are synthesized — in-process or on a
        farm.
        """
        return self.backend.evaluate_many(list(graphs))

    def evaluate_many(self, graphs: "list[PrefixGraph]") -> "list[CircuitMetrics]":
        """Batched :meth:`evaluate` via :meth:`curve_many`."""
        return [
            CircuitMetrics(*curve.w_optimal(self.w_area, self.w_delay, self.c_area, self.c_delay))
            for curve in self.curve_many(graphs)
        ]

    def scalarize(self, metrics: CircuitMetrics) -> float:
        """The scalar objective value of a metrics pair."""
        return (
            self.w_area * self.c_area * metrics.area
            + self.w_delay * self.c_delay * metrics.delay
        )


class AnalyticalEvaluator:
    """Moto-Kaneko analytical evaluator (Fig. 6 setting).

    The analytical metrics do not depend on a delay target, so the weights
    only matter for :meth:`scalarize`. ``c_area``/``c_delay`` default to 1:
    the model's units are already commensurate (both count node delays).
    """

    def __init__(
        self,
        w_area: float = 0.5,
        w_delay: float = 0.5,
        c_area: float = 1.0,
        c_delay: float = 1.0,
    ):
        if w_area < 0 or w_delay < 0:
            raise ValueError("scalarization weights must be nonnegative")
        self.w_area = w_area
        self.w_delay = w_delay
        self.c_area = c_area
        self.c_delay = c_delay

    def evaluate(self, graph: PrefixGraph) -> CircuitMetrics:
        """Analytical (area, delay) of the graph."""
        m = evaluate_analytical(graph)
        return CircuitMetrics(area=m.area, delay=m.delay)

    def scalarize(self, metrics: CircuitMetrics) -> float:
        """The scalar objective value of a metrics pair."""
        return (
            self.w_area * self.c_area * metrics.area
            + self.w_delay * self.c_delay * metrics.delay
        )
