"""Exact scalarized Q* of the prefix-graph MDP at small widths.

At n <= 7 the whole state space is enumerable (:func:`from_ripple`), so
under the analytical model the MDP is a finite graph and dynamic programming
gives the exact optimal values for the agent's own discount and weight. The
scalarized reward of a move s -> s' telescopes: with c_area = c_delay = 1,

    w . r = w . (m(s) - m(s')) = phi(s) - phi(s'),   phi = w . (area, delay),

so Q*(s, a) = phi(s) - phi(s') + gamma V*(s') and V*(s) = max_a Q*(s, a)
over the legal actions of s. The time limit is not part of the state, so
this is the infinite-horizon value the agent's bootstrapped targets
estimate. :func:`value_iteration` and :func:`policy_iteration` (one linear
solve per policy) are independent solvers of the same fixed point.

Greedy regret of a learned Q-hat is the mean over all states of
V*(s) - Q*(s, argmax over legal a of w . Q-hat(s, a)).

:func:`lookahead_actions` is the control that needs no learning: a greedy
policy on the exact scalarized reward, looking one or two moves ahead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.analytical import evaluate_analytical
from repro.env.actions import ActionSpace
from repro.env.features import graph_features
from repro.prefix import PrefixGraph, ripple_carry


def reachable(start: PrefixGraph) -> "dict[bytes, PrefixGraph]":
    """Every graph reachable from ``start`` by legal actions, by key."""
    space = ActionSpace(start.n)
    seen = {start.key(): start}
    frontier = [start]
    while frontier:
        successors = []
        for graph in frontier:
            for index in np.flatnonzero(space.legal_mask(graph)):
                succ = space.apply(graph, space.action(int(index)))
                key = succ.key()
                if key not in seen:
                    seen[key] = succ
                    successors.append(succ)
        frontier = successors
    return seen


@functools.cache
def from_ripple(n: int) -> "dict[bytes, PrefixGraph]":
    return reachable(ripple_carry(n))


@dataclass(frozen=True)
class StateGraph:
    """The enumerated MDP: states, metrics and every legal transition.

    ``succ[i, a]`` is the state index reached from state ``i`` by flat
    action ``a`` (-1 where ``a`` is illegal); ``metrics[i]`` is the
    analytical (area, delay) of state ``i``.
    """

    graphs: "list[PrefixGraph]"
    index: "dict[bytes, int]"
    metrics: np.ndarray
    succ: np.ndarray

    @property
    def legal(self) -> np.ndarray:
        return self.succ >= 0

    def state(self, graph: PrefixGraph) -> int:
        return self.index[graph.key()]

    def features(self) -> np.ndarray:
        """Stacked agent observations of every state, in state order."""
        return np.stack([graph_features(g) for g in self.graphs])


@functools.cache
def state_graph(n: int) -> StateGraph:
    graphs = list(from_ripple(n).values())
    index = {g.key(): i for i, g in enumerate(graphs)}
    space = ActionSpace(n)
    succ = np.full((len(graphs), space.size), -1, dtype=np.int64)
    for i, graph in enumerate(graphs):
        for a in np.flatnonzero(space.legal_mask(graph)):
            succ[i, a] = index[space.apply(graph, space.action(int(a))).key()]
    metrics = np.array([[m.area, m.delay] for m in map(evaluate_analytical, graphs)])
    return StateGraph(graphs, index, metrics, succ)


def _q_from_v(sg: StateGraph, phi: np.ndarray, v: np.ndarray, gamma: float) -> np.ndarray:
    """Q(s, a) = phi(s) - phi(s') + gamma V(s') on legal actions, -inf elsewhere."""
    nxt = np.where(sg.legal, sg.succ, 0)
    q = phi[:, None] - phi[nxt] + gamma * v[nxt]
    return np.where(sg.legal, q, -np.inf)


@dataclass(frozen=True)
class Solution:
    v: np.ndarray  # V*(s), one per state
    q: np.ndarray  # Q*(s, a), -inf on illegal actions


def value_iteration(n: int, w_area: float, gamma: float = 0.75, tol: float = 1e-14) -> Solution:
    """Exact Q* by value iteration (sup-norm change below ``tol``)."""
    sg = state_graph(n)
    phi = sg.metrics @ np.array([w_area, 1.0 - w_area])
    v = np.zeros(len(sg.graphs))
    while True:
        q = _q_from_v(sg, phi, v, gamma)
        v_new = q.max(axis=1)
        if np.abs(v_new - v).max() < tol:
            return Solution(v_new, _q_from_v(sg, phi, v_new, gamma))
        v = v_new


def policy_iteration(n: int, w_area: float, gamma: float = 0.75) -> Solution:
    """Exact Q* by policy iteration: evaluate each policy with one solve."""
    sg = state_graph(n)
    phi = sg.metrics @ np.array([w_area, 1.0 - w_area])
    states = np.arange(len(sg.graphs))
    policy = _q_from_v(sg, phi, np.zeros(len(states)), gamma).argmax(axis=1)
    while True:
        nxt = sg.succ[states, policy]
        transition = np.zeros((len(states), len(states)))
        transition[states, nxt] = 1.0
        v = np.linalg.solve(np.eye(len(states)) - gamma * transition, phi - phi[nxt])
        q = _q_from_v(sg, phi, v, gamma)
        improved = q.argmax(axis=1)
        # Switch only on a strict gain, so ties cannot cycle.
        keep = q[states, improved] <= q[states, policy] + 1e-12
        if keep.all():
            return Solution(v, q)
        policy = np.where(keep, policy, improved)


def greedy_actions(sg: StateGraph, q_hat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """argmax over legal a of w . Q-hat(s, a); ``q_hat`` is ``(S, A, 2)``."""
    scores = np.where(sg.legal, q_hat @ w, -np.inf)
    return scores.argmax(axis=1)


def greedy_regret(sol: Solution, actions: np.ndarray) -> float:
    """Mean over states of V*(s) - Q*(s, actions[s])."""
    return float((sol.v - sol.q[np.arange(len(sol.v)), actions]).mean())


def uniform_regret(sol: Solution) -> float:
    """Greedy regret's counterpart for the uniform random legal policy."""
    legal = np.isfinite(sol.q)
    mean_q = np.where(legal, sol.q, 0.0).sum(axis=1) / legal.sum(axis=1)
    return float((sol.v - mean_q).mean())


def lookahead_actions(n: int, w_area: float, depth: int, gamma: float = 0.75) -> np.ndarray:
    """Each state's action under a depth-``depth`` greedy lookahead.

    Depth 1 takes the argmax of the exact scalarized reward phi(s) -
    phi(s'); depth 2 the argmax of that reward plus ``gamma`` times the
    best reward available from s'. Depth d is d sweeps of value iteration
    from V = 0, which is exactly that.
    """
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    sg = state_graph(n)
    phi = sg.metrics @ np.array([w_area, 1.0 - w_area])
    v = np.zeros(len(sg.graphs))
    for _ in range(depth):
        q = _q_from_v(sg, phi, v, gamma)
        v = q.max(axis=1)
    return q.argmax(axis=1)
