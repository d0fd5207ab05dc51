"""Pipelined experience generation: batched acting and the actor/learner core.

The paper decouples experience generation from learning (off-policy DQN)
and runs many actors in parallel. This module holds the one architecture
the repo scales that with, at every deployment size:

- :class:`BatchedActor` — ``k`` environment replicas advance in lockstep,
  with one batched Q-network forward serving all of them per round
  (:class:`CollectStats` reports the steps/second achieved so the speedup
  over one-env acting is measurable); collection without a learner;
- :class:`LearnerCore` — what one learner owns (history, the replay ring,
  the published policy in a :class:`PolicyHub`, the epsilon schedule and
  the step budget) and the two things an actor may ask of it:
  :meth:`~LearnerCore.pull` (weights, if newer) and
  :meth:`~LearnerCore.ingest` (one acting round in, next orders out);
  :class:`repro.net.learner.LearnerState` serves it over sockets;
- :class:`ActorLoop` — refresh → acting round → push → obey, over any
  *link* with ``pull(have_version, have_digest)`` and ``push(round,
  epsilon)``; :class:`repro.net.actor.RemoteActorWorker` runs it with a
  socket behind the link.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import obs as obslib
from repro.env.environment import PrefixEnv
from repro.env.vector import VectorPrefixEnv
from repro.rl.agent import ScalarizedDoubleDQN, epsilon_greedy
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import acting_round, fold_round, grads_allowed, push_round
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
        with obslib.span("pipeline.collect", rounds=rounds, envs=len(self.envs)) as sp:
            for _ in range(rounds):
                round_, self._obs, self._masks = acting_round(self._venv, self._obs, self._masks, act)
                if buffer is not None:
                    push_round(buffer, round_, len(self.envs))
                steps += len(self.envs)
        obslib.counter("pipeline.collect_steps").inc(steps)
        return CollectStats(
            env_steps=steps, wall_seconds=sp.seconds, num_envs=len(self.envs)
        )


# ----------------------------------------------------------------------
# The learner core
# ----------------------------------------------------------------------


def weights_digest(weights: "dict[str, np.ndarray]") -> str:
    """Content digest of a published weight map (order-independent).

    Keys, dtypes, shapes and raw bytes all feed the hash, so two maps
    share a digest iff they would load identically. Used for digest-keyed
    weight pulls: a client holding the same *content* skips the re-ship
    even when its version counter is stale (e.g. after a learner restart
    reset the counter).
    """
    h = hashlib.sha256()
    for key in sorted(weights):
        arr = np.ascontiguousarray(weights[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class PolicyHub:
    """The learner's published policy, shared with every actor.

    The learner calls :meth:`publish` on its cadence (paper-style delayed
    weight publication); each :class:`ActorLoop` copies the newest weights
    into its private network at round boundaries. Publications are detached copies, so actors never observe
    a half-applied gradient step. Every publication carries a content
    digest so pulls can be answered "unchanged" without re-shipping.
    """

    def __init__(self, agent: ScalarizedDoubleDQN):
        self._agent = agent
        self.w = agent.w.copy()
        self.actions = agent.actions
        self._lock = threading.Lock()
        self._weights = agent.publish_weights()
        self._digest = weights_digest(self._weights)
        self._version = 1

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    @property
    def digest(self) -> str:
        with self._lock:
            return self._digest

    def publish(self) -> int:
        """Snapshot the learner's current weights; returns the version."""
        weights = self._agent.publish_weights()
        digest = weights_digest(weights)
        with self._lock:
            self._weights = weights
            self._digest = digest
            self._version += 1
            return self._version

    def pull(self, have_version: int, have_digest: "str | None" = None):
        """``(version, digest, weights-or-None)``; None means "unchanged".

        A pull is unchanged when the client's version matches *or* its
        content digest does (digest match adopts the current version
        without shipping bytes the client already holds).
        """
        with self._lock:
            if self._version == have_version or (
                have_digest is not None and self._digest == have_digest
            ):
                return self._version, self._digest, None
            return self._version, self._digest, self._weights


class LearnerCore:
    """What one learner owns, and the two things an actor may ask of it.

    The history, the replay buffer, the published policy, the
    epsilon schedule and the step budget live here, whatever carries the
    actors' rounds in (a direct call, a frame off a socket). :meth:`ingest`
    is the only writer of the history's env-step side, so three properties
    hold by construction:
    ingest never records past ``limit = min(total, stop_after)`` (a
    preemption snapshot lands exactly on its step), nothing is recorded
    once :attr:`stop` is set, and an actor that outruns the gradient
    cadence by more than ``backpressure_lag`` steps (0 disables) is told
    to yield for ``throttle_seconds``.

    ``lock`` guards the history and per-shard bookkeeping;
    ``ingest_lock`` additionally serializes whole rounds and guards the
    one replay ring: every push runs under it, the learner samples under
    it, and a checkpoint holds it for a consistent snapshot.
    """

    def __init__(
        self,
        agent: ScalarizedDoubleDQN,
        buffer,
        history,
        config,
        total: int,
        stop_after: "int | None" = None,
        backpressure_lag: int = 0,
        throttle_seconds: float = 0.05,
    ):
        self.agent = agent
        self.buffer = buffer
        self.history = history
        self.config = config
        self.total = total
        self.limit = total if stop_after is None else min(total, stop_after)
        self.hub = PolicyHub(agent)
        self.schedule = config.schedule(total)
        self.backpressure_lag = backpressure_lag
        self.throttle_seconds = throttle_seconds
        self.lock = threading.Lock()
        self.ingest_lock = threading.RLock()
        self.stop = False
        self.returns: "dict[int, list[float]]" = {}  # per shard, per replica: in-flight episode returns
        self.throttled_batches = 0

    def env_steps(self) -> int:
        with self.lock:
            return self.history.env_steps

    def gradient_steps(self) -> int:
        with self.lock:
            return self.history.gradient_steps

    def record_loss(self, loss: float) -> None:
        with self.lock:
            self.history.losses.append(loss)
            self.history.gradient_steps += 1

    def _orders(self) -> dict:
        # Callers hold self.lock.
        steps = self.history.env_steps
        return {
            "env_steps": steps,
            "epsilon": float(self.schedule(steps)),
            "stop": self.stop or steps >= self.limit,
        }

    def orders(self) -> dict:
        """Where the run stands: ``{env_steps, epsilon, stop}``."""
        with self.lock:
            return self._orders()

    def pull(self, have_version: int, have_digest: "str | None" = None):
        """``(version, digest, weights-or-None)`` — see :meth:`PolicyHub.pull`."""
        return self.hub.pull(have_version, have_digest)

    def ingest(self, shard: int, round_: dict, epsilon: float) -> dict:
        """Fold one acting round from ``shard``; returns the actor's next
        orders: ``{kept, env_steps, epsilon, stop, throttle}``.

        The budget may truncate the round; only the kept prefix enters
        the replay buffer.
        """
        with self.ingest_lock:
            with self.lock:
                kept = 0
                if not self.stop:
                    # The replica count is the actor's to choose.
                    returns = self.returns.setdefault(shard, [])
                    returns.extend([0.0] * (len(round_["dones"]) - len(returns)))
                    kept = fold_round(self.history, returns, self.hub.w, round_, epsilon, self.limit)
                reply = {"kept": kept, **self._orders(), "throttle": 0.0}
                if self.backpressure_lag and not reply["stop"]:
                    lag = grads_allowed(reply["env_steps"], self.config) - self.history.gradient_steps
                    if lag > self.backpressure_lag:
                        reply["throttle"] = self.throttle_seconds
                        self.throttled_batches += 1
            push_round(self.buffer, round_, kept)
        obslib.counter("learner.push_batches").inc()
        obslib.counter("learner.transitions_kept").inc(kept)
        if reply["throttle"]:
            obslib.counter("learner.throttled_batches").inc()
        return reply


# ----------------------------------------------------------------------
# The actor loop
# ----------------------------------------------------------------------


class ActorLoop:
    """One actor: refresh → acting round → push → obey, until told to stop.

    Acts with :func:`repro.rl.agent.epsilon_greedy` on a private snapshot
    network (the paper's delayed-parameter actors), refreshed through
    ``link.pull`` whenever the learner has published, and hands every round
    to ``link.push``, whose reply carries the next epsilon, the stop flag,
    a throttle hint and (on the wire) the next round's trace — so schedule
    position, shutdown and backpressure need no side channel.
    """

    def __init__(self, venv: VectorPrefixEnv, net, actions, w, rng, actor=None):
        self.venv = venv
        self.net = net
        self.actions = actions
        self.w = w
        self.rng = rng
        self.actor = actor
        self.version = 0
        self.digest = None
        self.trace = None  # the trace of the round in flight (learner-minted)

    def refresh(self, link) -> None:
        """Adopt newly published weights, if any (digest-keyed: an
        unchanged policy costs one tiny exchange)."""
        self.version, self.digest, weights = link.pull(self.version, self.digest)
        if weights is not None:
            self.net.load_state_arrays(weights)
            self.net.eval()

    def run(self, link, epsilon: float, trace=None) -> None:
        """Generate experience until a push reply says stop."""
        venv = self.venv
        self.trace = trace
        obs, masks = venv.observe(), venv.legal_masks()

        def act(features, legal_masks):
            # Reads the enclosing ``epsilon``: each reply moves it along the schedule.
            return epsilon_greedy(self.net, self.actions, self.w, features, legal_masks, epsilon, self.rng)

        while True:
            with obslib.trace.scope(self.trace), obslib.span("actor.round", actor=self.actor) as round_span:
                self.refresh(link)
                round_, obs, masks = acting_round(venv, obs, masks, act)
                with obslib.span("actor.push") as push_span:
                    reply = link.push(round_, epsilon)
            obslib.counter("actor.rounds").inc()
            obslib.counter("actor.env_steps_kept").inc(reply["kept"])
            obslib.histogram("actor.round_seconds").observe(round_span.seconds)
            obslib.histogram("actor.push_seconds").observe(push_span.seconds)
            epsilon = reply["epsilon"]
            self.trace = reply.get("trace") or self.trace
            if reply["stop"]:
                return
            if reply.get("throttle"):
                # Backpressure: the learner is behind on its gradient
                # cadence — yield briefly.
                obslib.counter("actor.throttled_rounds").inc()
                time.sleep(reply["throttle"])
