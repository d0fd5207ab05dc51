"""Multi-weight Pareto sweeps (Section V-A).

"Multiple PrefixRL agents were trained with 15 area-delay scalarization
weights w in the range [0.10, 0.99]" — :func:`pareto_sweep` reproduces that
protocol: one agent per weight, a shared synthesis cache, and one Pareto
archive that every agent's environment records into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.env.environment import PrefixEnv
from repro.pareto.front import ArchivingEvaluator, ParetoArchive
from repro.rl.agent import ScalarizedDoubleDQN
from repro.rl.trainer import Trainer, TrainerConfig, TrainingHistory
from repro.utils.rng import spawn_rngs


def weight_grid(num_weights: int, lo: float = 0.10, hi: float = 0.99) -> "list[float]":
    """The paper's area-weight sweep: ``num_weights`` points in [lo, hi]."""
    if num_weights < 1:
        raise ValueError("num_weights must be positive")
    if num_weights == 1:
        return [(lo + hi) / 2]
    return [float(w) for w in np.linspace(lo, hi, num_weights)]


@dataclass
class SweepResult:
    """Merged outcome of a multi-weight sweep."""

    archive: ParetoArchive
    histories: "dict[float, TrainingHistory]"
    weights: "list[float]"

    def frontier(self) -> "list[tuple[float, float]]":
        """Merged (area, delay) Pareto frontier across all weights."""
        return self.archive.points()

    def frontier_designs(self):
        """(area, delay, PrefixGraph) triples on the merged frontier."""
        return self.archive.entries()


def pareto_sweep(
    n: int,
    evaluator_factory,
    weights: "list[float]",
    steps_per_weight: int,
    agent_kwargs: "dict | None" = None,
    trainer_config: "TrainerConfig | None" = None,
    horizon: int = 32,
    seed: int = 0,
) -> SweepResult:
    """Train one agent per scalarization weight and merge their frontiers.

    Args:
        n: bit width.
        evaluator_factory: callable ``(w_area, w_delay) -> evaluator``;
            implementations should share a synthesis cache across calls
            (see the benchmarks for the pattern).
        weights: area weights; the delay weight is ``1 - w``.
        steps_per_weight: environment steps per agent.
        agent_kwargs: extra :class:`ScalarizedDoubleDQN` arguments
            (blocks, channels, lr, ...).
        trainer_config: shared trainer knobs (steps field is overridden).
        horizon: episode length.
        seed: master seed; each weight gets an independent child stream.
    """
    agent_kwargs = dict(agent_kwargs or {})
    archive = ParetoArchive()
    histories: "dict[float, TrainingHistory]" = {}
    rngs = spawn_rngs(seed, 2 * len(weights))

    for i, w_area in enumerate(weights):
        w_delay = 1.0 - w_area
        evaluator = ArchivingEvaluator(evaluator_factory(w_area, w_delay), archive)
        env = PrefixEnv(n, evaluator, horizon=horizon, rng=rngs[2 * i])
        agent = ScalarizedDoubleDQN(
            n, w_area=w_area, w_delay=w_delay, rng=rngs[2 * i + 1], **agent_kwargs
        )
        cfg = trainer_config if trainer_config is not None else TrainerConfig()
        trainer = Trainer(env, agent, cfg, rng=rngs[2 * i + 1])
        histories[w_area] = trainer.run(steps_per_weight)

    return SweepResult(archive=archive, histories=histories, weights=list(weights))
