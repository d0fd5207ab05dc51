"""Batched acting: many environment replicas served by one network call.

The paper decouples experience generation from learning (off-policy DQN)
and runs many actors in parallel. :class:`BatchedActor` is that experience
generator at one-process scale: ``k`` environment replicas advance in
lockstep, with one batched Q-network forward serving all of them per
round (:class:`CollectStats` reports the steps/second achieved so the
speedup over one-env acting is measurable) — collection without a
learner. Training over ``E`` lockstep replicas is
:class:`repro.rl.Trainer` on a :class:`repro.env.VectorPrefixEnv`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.env.environment import PrefixEnv
from repro.env.vector import VectorPrefixEnv
from repro.rl.agent import ScalarizedDoubleDQN
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import acting_round, push_round
from repro.utils.rng import ensure_rng


@dataclass
class CollectStats:
    """Throughput record of one collection run."""

    env_steps: int
    wall_seconds: float
    num_envs: int

    @property
    def steps_per_second(self) -> float:
        return self.env_steps / self.wall_seconds if self.wall_seconds > 0 else 0.0


class BatchedActor:
    """Steps several environments with one batched network call per round.

    Collection runs through a :class:`repro.env.VectorPrefixEnv`, so when
    the replicas share a synthesis cache the per-round successor (and
    auto-reset) evaluations also collapse into one batched
    ``evaluate_many`` call — the acting layer and the synthesis layer
    amortize together.
    """

    def __init__(self, envs: "list[PrefixEnv]", agent: ScalarizedDoubleDQN, rng=None):
        if not envs:
            raise ValueError("need at least one environment")
        widths = {env.n for env in envs}
        if len(widths) != 1 or widths.pop() != agent.n:
            raise ValueError("all environments must match the agent's width")
        self.envs = envs
        self.agent = agent
        self._rng = ensure_rng(rng)
        self._venv = VectorPrefixEnv(envs)
        self._venv.reset()
        self._obs, self._masks = self._venv.observe(), self._venv.legal_masks()

    def collect(
        self,
        rounds: int,
        buffer: "ReplayBuffer | None" = None,
        epsilon: float = 0.1,
    ) -> CollectStats:
        """Advance every environment ``rounds`` times.

        One ``agent.act_batch`` per round: the replicas that explore draw
        their action, one stacked forward pass serves the rest. Pushes
        transitions into ``buffer`` when given.
        """

        def act(obs, masks):
            return self.agent.act_batch(obs, masks, epsilon=epsilon, rng=self._rng)

        steps = 0
        start = time.perf_counter()
        for _ in range(rounds):
            round_, self._obs, self._masks = acting_round(self._venv, self._obs, self._masks, act)
            if buffer is not None:
                push_round(buffer, round_, len(self.envs))
            steps += len(self.envs)
        return CollectStats(
            env_steps=steps, wall_seconds=time.perf_counter() - start, num_envs=len(self.envs)
        )
