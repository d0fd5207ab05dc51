"""Vectorized multi-environment stepping.

:class:`VectorPrefixEnv` advances ``E`` independent :class:`PrefixEnv`
replicas in lockstep so the acting layer can serve all of them with one
stacked ``(E, 4, N, N)`` Q-network forward per round — the paper hides
synthesis latency behind 256 actors; here one process runs ``E`` replicas
(``repro train --envs E``) and the engineering win is amortizing the
convolution cost over many environments (the Section V-C "batched acting"
mechanism).

Episodes auto-reset: when a replica's episode ends, :meth:`step` returns
the terminal transition and the replica starts a fresh episode, so the
stacked observation always reflects ``E`` live states.

Synthesis replicas share one evaluator — the paper's one cache that every
actor hits (Section IV-D) — so the env resolves through at most one
:class:`repro.synth.EvaluationBackend`, exposed as :attr:`VectorPrefixEnv.backend`.
When there are several replicas and that shared evaluator exposes
``evaluate_many``, :meth:`step` routes the whole round through **one
batched evaluation**: all successor states (and all auto-reset start
states) are deduplicated and synthesized in a single ``evaluate_many``
call — optionally fanned out to the backend's farm ``runner`` — instead
of each replica paying for synthesis serially inside its own ``env.step``.
Rewards and RL trajectories are unchanged (synthesis is deterministic);
only the latency overlaps. A single replica steps itself (``env.step`` /
``env.reset``): that is how the trainer runs a bare :class:`PrefixEnv`.
:meth:`VectorPrefixEnv.successors` computes a round's successors without
evaluating them and :meth:`VectorPrefixEnv.prefetch` starts their
synthesis in another process, so the caller can work while they
synthesize; :meth:`VectorPrefixEnv.step` then collects them.
Backend-less (e.g. analytical) replicas may hold evaluators of their own;
they step themselves too.
"""

from __future__ import annotations

import numpy as np

from repro.env.environment import PrefixEnv, StepResult
from repro.env.features import graph_features


class VectorPrefixEnv:
    """Lockstep wrapper over ``E`` same-width :class:`PrefixEnv` replicas.

    Args:
        envs: non-empty list of environments of equal bit width. Replicas
            should use independent RNG streams; synthesis-backed replicas
            must all hold the same evaluator object (``ValueError``
            otherwise).
    """

    def __init__(self, envs: "list[PrefixEnv]"):
        if not envs:
            raise ValueError("need at least one environment")
        widths = {env.n for env in envs}
        if len(widths) != 1:
            raise ValueError(f"environments must share one width, got {sorted(widths)}")
        first = envs[0].evaluator
        shared = all(env.evaluator is first for env in envs)
        if not shared and any(getattr(env.evaluator, "backend", None) is not None for env in envs):
            raise ValueError(
                "synthesis replicas must hold one evaluator: pass one evaluator "
                "to VectorPrefixEnv.make (or the same object to every PrefixEnv)"
            )
        self.envs = list(envs)
        self.n = envs[0].n
        self.action_space = envs[0].action_space
        self.backend = getattr(first, "backend", None)
        self._states = [env.state for env in self.envs]  # None until reset
        # A batch of one is not a batch: a lone replica steps itself.
        batched = shared and len(envs) > 1 and hasattr(first, "evaluate_many")
        self._batch_evaluator = first if batched else None

    @classmethod
    def make(cls, n: int, evaluator, num_envs: int, horizon: int = 64, seed: int = 0) -> "VectorPrefixEnv":
        """Build ``num_envs`` replicas with independent RNG streams, every
        one holding ``evaluator``."""
        if num_envs < 1:
            raise ValueError("num_envs must be positive")
        envs = [PrefixEnv(n, evaluator, horizon=horizon, rng=seed + i) for i in range(num_envs)]
        return cls(envs)

    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def states(self):
        """Current per-replica states (after auto-resets)."""
        return list(self._states)

    def reset(self) -> "list":
        """Reset every replica; returns the list of start states."""
        self._states = [env.reset() for env in self.envs]
        return list(self._states)

    def observe(self) -> np.ndarray:
        """Stacked feature tensor of all current states: ``(E, 4, N, N)``."""
        self._require_reset()
        return np.stack([graph_features(s) for s in self._states])

    def legal_masks(self) -> np.ndarray:
        """Stacked legal-action masks of all current states: ``(E, A)``."""
        self._require_reset()
        space = self.action_space
        return np.stack([space.legal_mask(s) for s in self._states])

    def successors(self, action_indices) -> "list":
        """Each replica's successor under its flat action index, applied once
        per distinct (state, action): replicas that coincide share one graph
        object, and with it the features, mask and levels memoized on it.
        Evaluates nothing; :meth:`step` takes the list back."""
        self._require_reset()
        if len(action_indices) != len(self.envs):
            raise ValueError(
                f"got {len(action_indices)} actions for {len(self.envs)} environments"
            )
        shared = {}
        successors = []
        for env, idx in zip(self.envs, map(int, action_indices)):
            key = (env.state.key(), idx)
            if key not in shared:
                shared[key] = env.action_space.apply(env.state, env.action_space.action(idx))
            successors.append(shared[key])
        return successors

    def prefetch(self, successors) -> None:
        """Start synthesizing ``successors`` in another process (see
        :meth:`repro.synth.EvaluationBackend.prefetch`), for a :meth:`step`
        to collect; nothing for replicas without a backend."""
        if self.backend is not None:
            self.backend.prefetch(successors)

    def step(self, action_indices, successors) -> "list[StepResult]":
        """Apply one flat action index per replica; auto-resets on done.

        ``successors`` is :meth:`successors` of the same indices. Returns
        the ``E`` transitions in replica order. ``result.done`` marks
        episode ends; the replica's state has already been reset when it is
        True, so the next :meth:`observe` sees the new episode.
        """
        actions = [env.action_space.action(int(idx)) for env, idx in zip(self.envs, action_indices)]
        if self._batch_evaluator is not None:
            return self._step_batched(actions, successors)
        results = []
        for i, (env, action, nxt) in enumerate(zip(self.envs, actions, successors)):
            result = env.step(action, _next_state=nxt)
            self._states[i] = env.reset() if result.done else result.next_state
            results.append(result)
        return results

    def _step_batched(self, actions, successors) -> "list[StepResult]":
        """One evaluator batch for all successors, one for all reset starts."""
        envs = self.envs
        metrics = self._batch_evaluator.evaluate_many(successors)
        results = [
            env.step(action, _next_state=nxt, _metrics=m)
            for env, action, nxt, m in zip(envs, actions, successors, metrics)
        ]
        for i, result in enumerate(results):
            if not result.done:
                self._states[i] = result.next_state
        done = [i for i, result in enumerate(results) if result.done]
        if done:
            starts = [envs[i].sample_start() for i in done]
            start_metrics = self._batch_evaluator.evaluate_many(starts)
            for i, start, m in zip(done, starts, start_metrics):
                self._states[i] = envs[i].reset(start=start, _metrics=m)
        return results

    def _require_reset(self) -> None:
        if any(s is None for s in self._states):
            raise RuntimeError("vector environment not reset")

    # -- persistence -----------------------------------------------------

    def _shared_archive(self) -> bool:
        first = self.envs[0].archive
        return all(env.archive is first for env in self.envs)

    def state_dict(self) -> dict:
        """Per-replica snapshots (see :meth:`PrefixEnv.state_dict`).
        Replicas that record into one archive — every replica of
        :meth:`make` over an ``ArchivingEvaluator`` — write it once, beside
        them, rather than once per replica."""
        if not self._shared_archive():
            return {"envs": [env.state_dict() for env in self.envs]}
        return {
            "envs": [env.state_dict(archive=False) for env in self.envs],
            "archive": self.envs[0].archive_state(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore every replica and re-derive the lockstep state list.

        Reads both layouts :meth:`state_dict` writes: one shared archive
        record beside the replicas, or each replica's own archive in its
        snapshot."""
        snaps = state["envs"]
        if len(snaps) != len(self.envs):
            raise ValueError(
                f"checkpoint has {len(snaps)} replicas, vector env has {len(self.envs)}"
            )
        if "archive" in state and not self._shared_archive():
            raise ValueError("checkpoint holds one shared archive, but the replicas record into several")
        for env, snap in zip(self.envs, snaps):
            env.load_state_dict(snap)
        if "archive" in state:
            self.envs[0].load_archive_state(state["archive"])
        self._states = [env.state for env in self.envs]
