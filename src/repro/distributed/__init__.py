"""Distributed-training infrastructure (Sections IV-D and V-C).

The paper hides multi-second synthesis latency behind 192 worker processes
and an off-policy actor/learner split. At one-host scale this package
reproduces the two mechanisms and their measurable effects:

- :class:`SynthesisFarm` — a warm process pool that runs an
  :class:`repro.synth.EvaluationBackend`'s synthesis misses in parallel
  (its ``runner``);
- :class:`BatchedActor` — many environment copies stepped with one batched
  Q-network forward per round (the pipeline-parallel experience generator);
- the shared :class:`repro.synth.SynthesisCache` provides the cache-hit
  statistics the paper reports (50% at 32b, 10% at 64b).

Training over many replicas is ``repro train --envs E``: one
:class:`repro.rl.TrainingRuntime` over a :class:`repro.env.VectorPrefixEnv`.
"""

from repro.distributed.farm import SynthesisFarm
from repro.distributed.pipeline import BatchedActor, CollectStats

__all__ = [
    "SynthesisFarm",
    "BatchedActor",
    "CollectStats",
]
