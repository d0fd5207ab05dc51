"""Greedy policy evaluation (epsilon = 0, Section III-B).

The paper: "epsilon ... is always zero when doing evaluation." Training
archives capture everything *visited*; these rollouts answer the separate
question of what the trained policy *prefers*, which is how final designs
are extracted from a trained agent. A rollout evaluates each state once,
through the environment, so a fresh env's ``archive`` is the rollout's
frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.env.environment import PrefixEnv
from repro.prefix.graph import PrefixGraph
from repro.rl.agent import ScalarizedDoubleDQN


@dataclass
class RolloutResult:
    """One greedy episode."""

    states: "list[PrefixGraph]"
    scalar_return: float
    best_graph: PrefixGraph
    best_cost: float


def greedy_rollout(
    env: PrefixEnv,
    agent: ScalarizedDoubleDQN,
    start: "PrefixGraph | None" = None,
    steps: "int | None" = None,
) -> RolloutResult:
    """Run one epsilon=0 episode; returns the trajectory and its best state.

    "Best" is judged by the agent's scalarized objective on the
    environment's evaluator metrics, so the result is directly comparable
    across agents trained with the same weight.
    """
    state = env.reset(start)
    horizon = steps if steps is not None else env.horizon
    states = [state]
    metrics = env.current_metrics()
    cost = agent.w[0] * metrics.area + agent.w[1] * metrics.delay
    best_graph, best_cost = state, cost
    scalar_return = 0.0

    for _ in range(horizon):
        obs = env.observe(state)
        mask = env.legal_mask(state)
        action_idx = agent.act(obs, mask, epsilon=0.0)
        result = env.step(env.action_space.action(action_idx))
        scalar_return += float(agent.w @ result.reward)
        state = result.next_state
        states.append(state)
        metrics = env.current_metrics()
        cost = agent.w[0] * metrics.area + agent.w[1] * metrics.delay
        if cost < best_cost:
            best_graph, best_cost = state, cost
        if result.done:
            break

    return RolloutResult(
        states=states,
        scalar_return=scalar_return,
        best_graph=best_graph,
        best_cost=best_cost,
    )
