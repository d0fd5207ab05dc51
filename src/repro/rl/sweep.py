"""Multi-weight Pareto sweeps (Section V-A).

"Multiple PrefixRL agents were trained with 15 area-delay scalarization
weights w in the range [0.10, 0.99]" — :func:`rl_search` is one such
agent's training as a search, and :func:`repro.pareto.frontier` runs it
once per weight of :func:`weight_grid` into one Pareto archive that every
agent's environment records into.
"""

from __future__ import annotations

import math

import numpy as np

from repro.env.environment import PrefixEnv
from repro.pareto.front import budgeted_search
from repro.rl.agent import ScalarizedDoubleDQN
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import TrainerConfig, TrainingHistory, make_loop
from repro.utils.rng import spawn_rngs


def weight_grid(num_weights: int, lo: float = 0.10, hi: float = 0.99) -> "list[float]":
    """The paper's area-weight sweep: ``num_weights`` points in [lo, hi]."""
    if num_weights < 1:
        raise ValueError("num_weights must be positive")
    if num_weights == 1:
        return [(lo + hi) / 2]
    return [float(w) for w in np.linspace(lo, hi, num_weights)]


def rl_search(
    agent_kwargs: "dict | None" = None,
    trainer_config: "TrainerConfig | None" = None,
    horizon: int = 32,
):
    """The search that trains one agent until it has spent ``budget`` distinct designs.

    The agent's scalarization weight is the evaluator's (``w_area`` /
    ``w_delay``), ``rng`` seeds the environment and the agent, and the
    environment evaluates through the search's archiving evaluator, which
    counts the episodes' start states like any other design. Training has
    no step limit: it ends when the evaluator has spent ``budget`` or its
    stall rule ends it (``budget`` evaluations in a row with nothing new,
    as when a greedy agent keeps revisiting designs). Epsilon follows the
    config's schedule for ``budget``, read at the evaluator's spend rather
    than the env-step count, as simulated annealing cools. A synthesis
    evaluator's misses are prefetched to a worker process while the agent
    learns, as in ``repro train``; the search closes its evaluator's
    backend when it ends, so no worker outlives it.

    Args:
        agent_kwargs: extra :class:`ScalarizedDoubleDQN` arguments
            (blocks, channels, lr, ...).
        trainer_config: trainer knobs (batch size, cadence, epsilon;
            ``budget`` sizes the run).
        horizon: episode length.
    """
    agent_kwargs = dict(agent_kwargs or {})
    config = trainer_config if trainer_config is not None else TrainerConfig()

    @budgeted_search
    def search(n: int, evaluator, budget: int, rng):
        env_rng, agent_rng = spawn_rngs(rng, 2)
        inner = evaluator.evaluator
        env = PrefixEnv(n, evaluator, horizon=horizon, rng=env_rng)
        agent = ScalarizedDoubleDQN(n, w_area=inner.w_area, w_delay=inner.w_delay, rng=agent_rng, **agent_kwargs)
        buffer = ReplayBuffer(config.buffer_capacity, rng=agent_rng)
        schedule = config.schedule(budget)
        # No step limit (the evaluator ends the run), and epsilon is read at the spend.
        loop = make_loop(env, agent, buffer, config, math.inf, lambda _: schedule(evaluator.spent), TrainingHistory())
        loop.start()
        try:
            while True:
                loop.tick()
        finally:
            # The budget ends the run with the design past it still in flight
            # on the backend's prefetch worker: stop the worker (the backend
            # starts another if it prefetches again).
            if loop.env.backend is not None:
                loop.env.backend.close()

    return search
