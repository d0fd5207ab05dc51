"""Physical-synthesis substrate: the paper's reward generator.

``Synthesizer`` applies the optimization classes the paper lists for
OpenPhySyn — gate sizing, gate cloning, buffer insertion, pin swapping —
plus area recovery, driven by a delay target. ``synthesize_curve`` runs it
at 4 targets and PCHIP-interpolates the area-delay trade-off exactly as
Section IV-D / Fig. 3 describe; ``AreaDelayCurve.w_optimal`` picks the
scalarization-optimal point that defines the RL reward. ``SynthesisCache``
reproduces the content-hash design cache of the training system.

The optimizer runs on the incremental :class:`repro.sta.TimingGraph`,
which is the design while it is optimised: one compile per curve, O(cone)
accept/reject trials, one pin-swapped graph forked (a dozen list copies)
across the curve's delay targets, and a ``Netlist`` only when a result's
``.netlist`` is read. The pre-rewrite full-STA-per-trial path survives in
``tests/oracles/synth.py`` and is regression-tested byte-identical.

Where curves come from is the one :mod:`repro.synth.backend` seam:
``SynthesisEvaluator`` delegates to an :class:`EvaluationBackend` — a
store and optionally a runner to run misses on (a same-host
:class:`repro.distributed.SynthesisFarm`) — byte-identical curves and one
stats schema however it is built.
"""

from repro.synth.optimizer import Synthesizer, SynthesisResult
from repro.synth.backend import STATS_KEYS, EvaluationBackend
from repro.synth.curve import (
    AreaDelayCurve,
    synthesize_curve,
    calibrate_scaling,
    C_AREA,
    C_DELAY,
)
from repro.synth.cache import SynthesisCache
from repro.synth.evaluator import SynthesisEvaluator, AnalyticalEvaluator, CircuitMetrics
from repro.synth.commercial import CommercialSynthesizer, commercial_adder_family
from repro.synth.report import qor_report

__all__ = [
    "Synthesizer",
    "SynthesisResult",
    "STATS_KEYS",
    "EvaluationBackend",
    "AreaDelayCurve",
    "synthesize_curve",
    "calibrate_scaling",
    "C_AREA",
    "C_DELAY",
    "SynthesisCache",
    "SynthesisEvaluator",
    "AnalyticalEvaluator",
    "CircuitMetrics",
    "CommercialSynthesizer",
    "commercial_adder_family",
    "qor_report",
]
