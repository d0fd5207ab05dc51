"""The PrefixRL MDP (Section IV-A / IV-B).

``PrefixEnv`` wires together the action space, an evaluator (synthesis or
analytical) and the reward definition:

    r_t = [c_area * (area(s_t) - area(s_{t+1})),
           c_delay * (delay(s_t) - delay(s_{t+1}))]

Episodes start from the ripple-carry or Sklansky graph (chosen uniformly —
the paper's two extreme start states, :data:`START_STATES`) and run for a
fixed horizon. The environment evaluates through a
:class:`repro.pareto.ArchivingEvaluator`, so its ``archive`` holds every
design it evaluated, which is how a training run yields a frontier
(Section V-A bins all visited designs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.env.actions import Action, ActionSpace
from repro.env.features import graph_features
from repro.pareto.front import ParetoArchive, archiving
from repro.prefix.graph import PrefixGraph
from repro.prefix.structures import ripple_carry, sklansky
from repro.utils.rng import ensure_rng

START_STATES = (ripple_carry, sklansky)  # Section IV-B's two extremes


@dataclass
class StepResult:
    """Transition record returned by :meth:`PrefixEnv.step`."""

    state: PrefixGraph
    action: Action
    reward: np.ndarray  # [r_area, r_delay], already scaled
    next_state: PrefixGraph
    done: bool
    info: dict


class PrefixEnv:
    """Prefix-graph construction MDP.

    Args:
        n: bit width.
        evaluator: object with ``evaluate(graph) -> CircuitMetrics`` and
            scaling attributes ``c_area``/``c_delay`` (see
            :mod:`repro.synth.evaluator`); an ``ArchivingEvaluator`` lends
            the env its archive. ``env.evaluator`` is the inner evaluator.
        horizon: steps per episode.
        rng: seed or generator for start-state sampling (uniform over
            :data:`START_STATES`).
    """

    def __init__(
        self,
        n: int,
        evaluator,
        horizon: int = 64,
        rng=None,
    ):
        if horizon < 1:
            raise ValueError("horizon must be positive")
        self.n = n
        self._archiving = archiving(evaluator)
        self.horizon = horizon
        self.action_space = ActionSpace(n)
        self._rng = ensure_rng(rng)
        self.state: "PrefixGraph | None" = None
        self._metrics = None
        self._steps = 0
        self.total_steps = 0

    # ------------------------------------------------------------------

    def sample_start(self) -> PrefixGraph:
        """Draw the next episode's start state (one RNG draw, no evaluation).

        Splitting the draw from :meth:`reset` lets a vector environment
        collect every resetting replica's start state and evaluate them in
        one synthesis batch before finalizing the resets; the RNG stream
        is consumed exactly as a plain ``reset()`` would.
        """
        ctor = START_STATES[int(self._rng.integers(len(START_STATES)))]
        return ctor(self.n)

    def reset(self, start: "PrefixGraph | None" = None, _metrics=None) -> PrefixGraph:
        """Begin an episode; returns the initial state.

        ``_metrics`` (internal, batched-evaluation path) supplies the start
        state's already-computed evaluator metrics so they are recorded
        without a second evaluation.
        """
        if start is None:
            start = self.sample_start()
        elif start.n != self.n:
            raise ValueError(f"start state width {start.n} != env width {self.n}")
        self.state = start
        self._steps = 0
        self._metrics = self._evaluate(start, _metrics)
        return start

    @property
    def evaluator(self):
        """The inner evaluator (not the archiving wrapper around it)."""
        return self._archiving.evaluator

    @property
    def archive(self) -> ParetoArchive:
        """Pareto archive of every design this env evaluated."""
        return self._archiving.archive

    def observe(self, graph: "PrefixGraph | None" = None) -> np.ndarray:
        """Feature tensor of ``graph`` (default: current state)."""
        target = graph if graph is not None else self.state
        if target is None:
            raise RuntimeError("environment not reset")
        return graph_features(target)

    def legal_mask(self, graph: "PrefixGraph | None" = None) -> np.ndarray:
        """Legal-action mask of ``graph`` (default: current state)."""
        target = graph if graph is not None else self.state
        if target is None:
            raise RuntimeError("environment not reset")
        return self.action_space.legal_mask(target)

    def step(self, action: Action, _next_state=None, _metrics=None) -> StepResult:
        """Apply ``action``; returns the transition with its vector reward.

        ``_next_state``/``_metrics`` (internal, batched-evaluation path)
        supply an already-legalized successor and its already-computed
        metrics, so a vector environment can evaluate a whole round of
        replicas in one synthesis batch and then apply the transitions.
        """
        if self.state is None:
            raise RuntimeError("environment not reset")
        state = self.state
        next_state = (
            self.action_space.apply(state, action) if _next_state is None else _next_state
        )
        prev = self._metrics
        cur = self._evaluate(next_state, _metrics)
        c_area = getattr(self.evaluator, "c_area", 1.0)
        c_delay = getattr(self.evaluator, "c_delay", 1.0)
        reward = np.array(
            [
                c_area * (prev.area - cur.area),
                c_delay * (prev.delay - cur.delay),
            ],
            dtype=np.float64,
        )
        self._steps += 1
        self.total_steps += 1
        done = self._steps >= self.horizon
        self.state = next_state
        self._metrics = cur
        return StepResult(
            state=state,
            action=action,
            reward=reward,
            next_state=next_state,
            done=done,
            info={"area": cur.area, "delay": cur.delay, "steps": self._steps},
        )

    def current_metrics(self):
        """Evaluator metrics of the current state."""
        if self._metrics is None:
            raise RuntimeError("environment not reset")
        return self._metrics

    # ------------------------------------------------------------------

    def _evaluate(self, graph: PrefixGraph, precomputed=None):
        if precomputed is None:
            return self._archiving.evaluate(graph)
        return self._archiving.record(graph, precomputed)

    # -- persistence -----------------------------------------------------

    def state_dict(self, archive: bool = True) -> dict:
        """Everything a checkpoint needs to resume the MDP bit-for-bit:
        the current graph, episode/lifetime step counters, the current
        metrics (reward baselines), the start-state RNG stream and the
        Pareto archive with its design payloads. ``archive=False`` leaves
        the archive out, for replicas that share one and write it once
        (:meth:`repro.env.VectorPrefixEnv.state_dict`)."""
        from repro.prefix.serialize import graph_to_dict
        from repro.utils.rng import rng_state

        state = {
            "n": self.n,
            "horizon": self.horizon,
            "graph": graph_to_dict(self.state) if self.state is not None else None,
            "steps": self._steps,
            "total_steps": self.total_steps,
            "metrics": (
                [self._metrics.area, self._metrics.delay]
                if self._metrics is not None
                else None
            ),
            "rng": rng_state(self._rng),
        }
        if archive:
            state["archive"] = self.archive_state()
        return state

    def archive_state(self) -> dict:
        """The Pareto archive with its design payloads."""
        from repro.prefix.serialize import graph_to_dict

        def encode(payload):
            if payload is None:
                return None
            if isinstance(payload, PrefixGraph):
                return graph_to_dict(payload)
            raise TypeError(
                f"cannot checkpoint archive payload of type {type(payload).__name__}"
            )

        return self.archive.state_dict(encode_payload=encode)

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a same-width env
        (its archive too, when the snapshot carries one)."""
        from repro.prefix.serialize import graph_from_dict
        from repro.synth.evaluator import CircuitMetrics
        from repro.utils.rng import set_rng_state

        if int(state["n"]) != self.n:
            raise ValueError(
                f"environment width mismatch: checkpoint n={state['n']}, env n={self.n}"
            )
        self.horizon = int(state["horizon"])
        self.state = graph_from_dict(state["graph"]) if state["graph"] else None
        self._steps = int(state["steps"])
        self.total_steps = int(state["total_steps"])
        metrics = state["metrics"]
        self._metrics = (
            CircuitMetrics(area=float(metrics[0]), delay=float(metrics[1]))
            if metrics is not None
            else None
        )
        set_rng_state(self._rng, state["rng"])
        if "archive" in state:
            self.load_archive_state(state["archive"])

    def load_archive_state(self, state: dict) -> None:
        """Restore an :meth:`archive_state` snapshot."""
        from repro.prefix.serialize import graph_from_dict

        self.archive.load_state_dict(
            state, decode_payload=lambda p: graph_from_dict(p) if p is not None else None
        )
