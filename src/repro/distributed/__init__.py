"""Distributed-training infrastructure (Sections IV-D and V-C).

The paper hides multi-second synthesis latency behind 192 worker processes
and an off-policy actor/learner split. At laptop scale this package
reproduces the mechanisms and their measurable effects:

- :class:`SynthesisFarm` — a warm process pool that runs an
  :class:`repro.synth.EvaluationBackend`'s synthesis misses in parallel
  (its ``runner``; the remote twin is :class:`repro.net.RemoteFarmPool`);
- :class:`BatchedActor` — many environment copies stepped with one batched
  Q-network forward per round (the pipeline-parallel experience generator);
- :class:`LearnerCore` / :class:`ActorLoop` — the off-policy actor/learner
  split itself: one core, one loop, sockets in between (:mod:`repro.net`);
- the shared :class:`repro.synth.SynthesisCache` provides the cache-hit
  statistics the paper reports (50% at 32b, 10% at 64b).
"""

from repro.distributed.farm import SynthesisFarm
from repro.distributed.pipeline import (
    ActorLoop,
    BatchedActor,
    CollectStats,
    LearnerCore,
    PolicyHub,
)

__all__ = [
    "SynthesisFarm",
    "BatchedActor",
    "CollectStats",
    "ActorLoop",
    "LearnerCore",
    "PolicyHub",
]
