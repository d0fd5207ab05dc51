"""The training runtime: one stepper, one actor/learner core, checkpoints.

Acting is one path at every size: one epsilon-greedy policy
(:func:`repro.rl.agent.epsilon_greedy` — the sync stepper calls it through
``agent.act_batch``, every actor through its snapshot network), one
collection stepper (:class:`repro.rl.trainer.CollectionLoop`; a bare env is
its one-replica case) and one statement of the gradient cadence
(:func:`repro.rl.trainer.gradient_due`).

The paper's headline scale comes from decoupling experience generation
from learning (Section IV-D): actors step synthesis-evaluated environments
against delayed policy snapshots while one learner consumes a shared
replay buffer. :class:`TrainingRuntime` runs one of two shapes, chosen by
its inputs (a :class:`repro.net.ClusterSpec` makes a cluster run):

- **sync** — no actors at all: the :mod:`repro.rl.trainer` stepper driven
  tick by tick with checkpoint hooks in between. Deterministic (save ->
  resume -> continue is bit-identical to an uninterrupted run);
  ``repro train`` and what :class:`~repro.rl.trainer.Trainer` wraps. A
  :class:`~repro.env.VectorPrefixEnv` gives batched acting and a shared
  synthesis cache inside the one process.
- **cluster** — the learner core
  (:class:`repro.distributed.pipeline.LearnerCore`) served over a
  :class:`repro.net.learner.LearnerServer` to
  :class:`repro.net.actor.RemoteActorWorker` *processes* (``repro actor
  --connect``, ``repro cluster``), whose rounds land in the same
  :class:`repro.rl.replay.ReplayBuffer` ring a sync run fills. The
  learner takes gradient steps whenever ``gradient_due`` says so (the
  sync stepper's predicate), sampling under the ingest lock every push
  holds, and publishes weights every ``publish_every`` of them.
  Environments live in (and are rebuilt by) the actors, so a cluster
  checkpoint carries the learner-owned state only.

Both checkpoint through :class:`repro.rl.checkpoint.CheckpointManager`:
Q-net weights, optimizer moments, the replay ring, every RNG stream,
schedule position, environment and archive state, synthesis-cache
contents and the accumulated :class:`~repro.rl.trainer.TrainingHistory`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro import obs
from repro.rl.agent import ScalarizedDoubleDQN
from repro.rl.checkpoint import CheckpointError, CheckpointManager
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import (
    TrainerConfig,
    TrainingHistory,
    as_vector,
    gradient_due,
    make_loop,
)
from repro.store.api import make_store


@dataclass
class RuntimeConfig:
    """The checkpoint knobs both shapes read.

    Whether a run is a cluster run is not a knob: it is one exactly when
    :class:`TrainingRuntime` is handed a ``ClusterSpec``. A cluster run's
    fleet knobs (actor slots, weight publication, bind address, heartbeat
    window, actor wait, backpressure, curve store) live on that spec's
    :class:`repro.net.ClusterConfig`; the learner reads them there.

    ``stop_after`` halts where the run can be resumed. A sync run on a
    vector env of ``E`` replicas steps all of them per tick, so it halts
    at the first round boundary at or past the step (``stop_after=25``
    with E=3 halts at 27) — the point a resume continues bit-identically
    from. A cluster run halts exactly: ingest keeps at most
    ``min(total, stop_after)`` steps.
    """

    checkpoint_every: int = 0      # env steps between checkpoints (0: only stop/final)
    keep_checkpoints: int = 3      # snapshots retained on disk (0 keeps all)
    stop_after: "int | None" = None  # checkpoint and halt at this env step (preemption)

    def __post_init__(self):
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be nonnegative")
        if self.keep_checkpoints < 0:
            raise ValueError(f"keep_checkpoints must be nonnegative, got {self.keep_checkpoints}")
        if self.stop_after is not None and self.stop_after < 1:
            raise ValueError(f"stop_after must be a positive env step, got {self.stop_after}")


class TrainingRuntime:
    """Actor-learner training with checkpoint/resume.

    Args:
        env: a sync run's collection environment — one :class:`PrefixEnv`
            (held as a one-replica vector env) or :class:`VectorPrefixEnv`.
            None for a cluster run: environments live in the actor
            processes.
        agent: the learner's agent.
        config: :class:`TrainerConfig` (steps, batch size, cadences).
        runtime: :class:`RuntimeConfig` (checkpoint cadence, retention,
            preemption). A cluster run's fleet knobs are not here: they are
            the ``config`` of its ``cluster`` spec.
        checkpoint_dir: root directory for snapshots (required for
            checkpointing/resume; optional otherwise).
        rng: seed or generator for replay sampling.
        cluster: the :class:`repro.net.ClusterSpec` actors receive on join
            (env shape, library, scalarization, network architecture, and
            the learner's fleet knobs as its ``config``); passing one makes
            this a cluster run.
    """

    def __init__(
        self,
        env,
        agent: ScalarizedDoubleDQN,
        config: "TrainerConfig | None" = None,
        runtime: "RuntimeConfig | None" = None,
        checkpoint_dir=None,
        rng=None,
        cluster=None,
    ):
        self.agent = agent
        self.config = config if config is not None else TrainerConfig()
        self.runtime = runtime if runtime is not None else RuntimeConfig()
        self.manager = (
            CheckpointManager(checkpoint_dir, keep_last=self.runtime.keep_checkpoints)
            if checkpoint_dir is not None
            else None
        )
        if cluster is not None:
            if env is not None:
                raise ValueError(
                    "a cluster run takes env=None: environments live in the "
                    "remote actor processes"
                )
            if cluster.width != agent.n:
                raise ValueError(
                    f"ClusterSpec width {cluster.width} != agent width {agent.n}"
                )
            self.env = None
            # In-memory by default; with store_dir, a memory front over a
            # durable DiskStore — a restarted cluster starts warm.
            self._cluster_cache = make_store(cluster.config.store_dir)
        else:
            if env is None:
                raise ValueError(
                    "env=None is a cluster run, which needs a ClusterSpec (cluster=...)"
                )
            if isinstance(env, (list, tuple)):
                raise ValueError("the runtime takes a single environment, not a list")
            self.env = as_vector(env)
        self.buffer = ReplayBuffer(self.config.buffer_capacity, rng=rng)
        self.cluster = cluster
        self._server = None
        self._state = None
        self.preempted = False
        self.membership_stats: "dict | None" = None
        # Fleet-obs totals restored from a checkpoint, applied to the
        # LearnerState once a cluster run creates it.
        self._restored_fleet_obs: "dict | None" = None

    @property
    def mode(self) -> str:
        """``"sync"``, or ``"cluster"`` when built with a ``ClusterSpec``."""
        return "sync" if self.cluster is None else "cluster"

    # ------------------------------------------------------------------
    # Checkpoint assembly
    # ------------------------------------------------------------------

    def _cache_states(self) -> "list[dict]":
        if self.cluster is not None:
            # The learner-owned shared cache service is the only evaluation
            # state a cluster checkpoint can (and needs to) capture; lease
            # bookkeeping is transient — actors reconnect and re-claim.
            return [{"cache": self._cluster_cache.state_dict(), "counters": []}]
        # The env's one backend: store contents plus every cumulative
        # counter (a farm runner's dispatch totals included), so a resumed
        # run's telemetry continues bit-for-bit.
        backend = self.env.backend
        return [] if backend is None else [backend.state_dict()]

    def _restore_caches(self, states: "list[dict]") -> None:
        if self.cluster is not None:
            if len(states) != 1:
                raise CheckpointError(
                    f"cluster checkpoint has {len(states)} synthesis caches, expected 1"
                )
            self._cluster_cache.load_state_dict(states[0]["cache"])
            return
        backend = self.env.backend
        expected = 0 if backend is None else 1
        if len(states) != expected:
            raise CheckpointError(
                f"checkpoint has {len(states)} evaluation-backend records, "
                f"the live environment resolves through {expected}"
            )
        if backend is None:
            return
        (state,) = states
        counters = state.get("counters") or []
        if len(counters) != 1:
            raise CheckpointError(
                f"checkpoint has {len(counters)} backend counter records, expected 1"
            )
        if state.get("cache") is not None and backend.store is None:
            raise CheckpointError(
                "checkpoint carries cache contents for a backend "
                f"({backend.name}) that has no local store"
            )
        backend.load_state_dict(state)

    def _history_state(self, history: TrainingHistory) -> dict:
        return {
            "losses": list(history.losses),
            "episode_returns": list(history.episode_returns),
            "areas": list(history.areas),
            "delays": list(history.delays),
            "epsilon_trace": list(history.epsilon_trace),
            "env_steps": history.env_steps,
            "gradient_steps": history.gradient_steps,
        }

    @staticmethod
    def _history_from_state(state: dict) -> TrainingHistory:
        return TrainingHistory(
            losses=[float(x) for x in state["losses"]],
            episode_returns=[float(x) for x in state["episode_returns"]],
            areas=[float(x) for x in state["areas"]],
            delays=[float(x) for x in state["delays"]],
            epsilon_trace=[float(x) for x in state["epsilon_trace"]],
            env_steps=int(state["env_steps"]),
            gradient_steps=int(state["gradient_steps"]),
        )

    def _snapshot(self, total: int, history: TrainingHistory, loop_state: dict) -> dict:
        state = {
            "mode": self.mode,
            "total": total,
            "trainer_config": asdict(self.config),
            "loop": loop_state,
            "history": self._history_state(history),
            "agent": self.agent.state_dict(),
            "buffer": self.buffer.state_dict(),
            "caches": self._cache_states(),
        }
        if self.cluster is not None:
            # Remote env state lives in (and is rebuilt by) the actor
            # processes; the snapshot carries only what the learner owns.
            state["env_kind"] = "cluster"
            state["env"] = {"num_actors": self.cluster.config.actors}
        else:
            state["env_kind"] = "vector"
            state["env"] = self.env.state_dict()
        # Metrics survive checkpoint/resume: the learner's own registry
        # plus (a cluster run) the merged fleet totals pushed by workers.
        obs_state = {"metrics": obs.REGISTRY.state_dict()}
        if self._state is not None:
            obs_state["fleet"] = self._state.fleet_obs.state_dict()
        state["obs"] = obs_state
        return state

    def _save(self, total: int, history: TrainingHistory, loop_state: dict) -> None:
        if self.manager is None:
            raise CheckpointError(
                "cannot checkpoint: TrainingRuntime was built without a checkpoint_dir"
            )
        self.manager.save(
            self._snapshot(total, history, loop_state),
            step=history.env_steps,
            meta={
                "mode": self.mode,
                "env_steps": history.env_steps,
                "gradient_steps": history.gradient_steps,
                "total": total,
            },
        )

    def _load(self, steps: "int | None"):
        if self.manager is None:
            raise CheckpointError(
                "cannot resume: TrainingRuntime was built without a checkpoint_dir"
            )
        state, _manifest = self.manager.load()
        if state["mode"] == "async":
            raise CheckpointError(
                "checkpoint was taken by the retired 'async' thread-actor runtime, "
                "which cannot be resumed; multi-actor training is `repro cluster`"
            )
        if state["mode"] != self.mode:
            raise CheckpointError(
                f"checkpoint was taken in {state['mode']!r} mode, "
                f"this is a {self.mode!r} run"
            )
        if "shards" in state["buffer"]:
            raise CheckpointError(
                "checkpoint holds the retired sharded replay layout (one ring per "
                "actor slot); the cluster learner now keeps one ring and cannot resume it"
            )
        saved_cfg = state["trainer_config"]
        live_cfg = asdict(self.config)
        drift = {
            k: (saved_cfg.get(k), live_cfg[k])
            for k in live_cfg
            if k != "steps" and saved_cfg.get(k) != live_cfg[k]
        }
        if drift:
            raise CheckpointError(
                "trainer config drifted since the checkpoint (resuming would "
                f"silently change the trajectory): {drift}"
            )
        total = int(state["total"])
        if steps is not None and steps != total:
            raise CheckpointError(
                f"checkpoint targets {total} total steps; pass steps={total} "
                f"(or None) to resume, got {steps}"
            )
        self.agent.load_state_dict(state["agent"])
        self.buffer.load_state_dict(state["buffer"])
        self._restore_caches(state["caches"])
        # A cluster's actors rebuild their environments on reconnect.
        if self.cluster is None:
            # Releases with a separate one-env stepper saved the bare env.
            single = state.get("env_kind") == "single"
            self.env.load_state_dict({"envs": [state["env"]]} if single else state["env"])
        obs_state = state.get("obs")  # absent in pre-obs checkpoints
        if isinstance(obs_state, dict):
            if isinstance(obs_state.get("metrics"), dict):
                obs.REGISTRY.load_state_dict(obs_state["metrics"])
            self._restored_fleet_obs = obs_state.get("fleet")
        history = self._history_from_state(state["history"])
        return total, history, state["loop"]

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, steps: "int | None" = None, resume: bool = False) -> TrainingHistory:
        """Train to the step budget (or ``stop_after``); returns the history.

        ``resume=True`` restores the latest checkpoint and continues to
        its recorded total. A run halted by ``stop_after`` checkpoints
        itself and leaves :attr:`preempted` True, so the caller can tell
        completion from preemption.
        """
        self.preempted = False
        if self.cluster is None:
            return self._run_sync(steps, resume)
        return self._run_cluster(steps, resume)

    def _begin(self, steps: "int | None", resume: bool):
        """``(total, history, loop_state)`` of a fresh or a resumed run."""
        if resume:
            return self._load(steps)
        return steps if steps is not None else self.config.steps, TrainingHistory(), None

    def _checkpoint_due(self, history: TrainingHistory, last_saved: int) -> bool:
        every = self.runtime.checkpoint_every
        return bool(every) and history.env_steps - last_saved >= every

    def _stop_requested(self, history: TrainingHistory) -> bool:
        stop = self.runtime.stop_after
        return stop is not None and history.env_steps >= stop

    def _run_sync(self, steps: "int | None", resume: bool) -> TrainingHistory:
        total, history, loop_state = self._begin(steps, resume)
        loop = make_loop(
            self.env, self.agent, self.buffer, self.config,
            total, self.config.schedule(total), history,
        )
        if loop_state is not None:
            loop.load_state_dict(loop_state)
            loop.resume()
        else:
            loop.start()

        last_saved = history.env_steps
        while not loop.done:
            loop.tick()
            if self._stop_requested(history) and not loop.done:
                self._save(total, history, loop.state_dict())
                self.preempted = True
                return history
            if self._checkpoint_due(history, last_saved):
                self._save(total, history, loop.state_dict())
                last_saved = history.env_steps

        if self.manager is not None:
            self._save(total, history, loop.state_dict())
        backend = self.env.backend
        history.synthesis_stats = None if backend is None else backend.stats()
        return history

    # ------------------------------------------------------------------
    # The cluster learner loop (actors: repro.net)
    # ------------------------------------------------------------------

    def _run_cluster(self, steps: "int | None", resume: bool) -> TrainingHistory:
        """Gradient steps at the synchronous cadence while actors ingest."""
        fleet, cfg = self.cluster.config, self.config
        self.bind()
        core = None
        try:
            total, history, _loop_state = self._begin(steps, resume)
            core = self._attach_cluster(dict(
                agent=self.agent, buffer=self.buffer, history=history, config=cfg, total=total,
                stop_after=self.runtime.stop_after,
                backpressure_lag=fleet.backpressure_lag, throttle_seconds=fleet.throttle_seconds,
            ))

            def save():
                # Holding the ingest lock keeps every round out until the
                # snapshot is written: it sees no half-folded round.
                with core.ingest_lock:
                    self._save(total, history, {"kind": "cluster"})

            last_saved = history.env_steps
            idle_since = time.monotonic()
            while not self._stop_requested(history):
                env_steps = core.env_steps()
                if gradient_due(len(self.buffer), core.gradient_steps(), env_steps, cfg):
                    with core.ingest_lock:
                        batch = self.buffer.sample(cfg.batch_size)
                    loss = self.agent.train_step(batch)
                    core.record_loss(loss)
                    if history.gradient_steps % fleet.publish_every == 0:
                        core.hub.publish()
                    idle_since = time.monotonic()
                elif env_steps >= total:
                    break
                else:
                    if core.ever_joined and core.connected_actors():
                        idle_since = time.monotonic()
                    elif time.monotonic() - idle_since > fleet.cluster_wait:
                        host, port = self._server.address
                        raise RuntimeError(
                            f"no actors connected for {fleet.cluster_wait:.0f}s "
                            f"at env step {env_steps}/{total}; is anything dialing "
                            f"{host}:{port}?"
                        )
                    time.sleep(0.002)
                if self._checkpoint_due(history, last_saved):
                    save()
                    last_saved = history.env_steps

            # Rounds in flight once stop is set are discarded (kept=0): the
            # final snapshot is exactly the state at the halt step. Drain:
            # let connected actors see the stop reply and leave.
            core.stop = True
            deadline = time.monotonic() + fleet.heartbeat_timeout
            while core.connected_actors() and time.monotonic() < deadline:
                time.sleep(0.01)
            if self.manager is not None:
                # Like the sync path: a checkpoint_dir always gets a final (or
                # halt-point) snapshot, so --resume can extend any run.
                save()
            self.preempted = history.env_steps < total
            history.synthesis_stats = self._cluster_synthesis_stats(core)
            self.membership_stats = core.membership_dict()
            return history
        finally:
            if core is not None:
                core.stop = True
            self._detach_cluster()

    # ------------------------------------------------------------------
    # The cluster's server (repro.net)
    # ------------------------------------------------------------------

    def bind(self) -> "tuple[str, int]":
        """Bind the cluster learner server; returns its (host, port).

        Binding is separate from :meth:`run` so launchers can hand the
        address to actor subprocesses first — connections made before the
        training state exists wait on the server's ready gate.
        """
        if self.cluster is None:
            raise RuntimeError("bind() is only meaningful for a cluster run (one built with a ClusterSpec)")
        if self._server is None:
            from repro.net.learner import LearnerServer
            from repro.net.protocol import parse_address

            fleet = self.cluster.config
            self._server = LearnerServer(
                parse_address(fleet.listen),
                heartbeat_timeout=fleet.heartbeat_timeout,
                state_wait=fleet.cluster_wait,
            )
            self._server.start()
        return self._server.address

    def _attach_cluster(self, core_args: dict):
        """Publish the learner state behind the bound server."""
        from repro.net.learner import LearnerState

        state = LearnerState(
            spec=self.cluster,
            cache=self._cluster_cache,
            # Lease reclamation rides the same dead-peer budget as the
            # connection teardown: a wedged holder is reclaimable the
            # moment the heartbeat would have declared it dead.
            lease_timeout=self.cluster.config.heartbeat_timeout,
            **core_args,
        )
        if self._restored_fleet_obs is not None:
            # Rejoin fleet totals from the checkpoint: counters pushed
            # by pre-restart workers stay in the merged view.
            state.fleet_obs.load_state_dict(self._restored_fleet_obs)
            self._restored_fleet_obs = None
        self._state = state
        self._server.attach(state)
        return state

    def _detach_cluster(self) -> None:
        self._state = None
        self._server.stop()
        self._server = None
        # Release the store (and its single-writer lock) so a rerun
        # against the same --store-dir — possibly in this process —
        # can take ownership immediately.
        self._cluster_cache.close()

    @staticmethod
    def _cluster_synthesis_stats(state) -> dict:
        """The learner's view of the cluster's evaluation work, in the
        unified :data:`repro.synth.backend.STATS_KEYS` schema.

        The learner sees one counted claim per unique design an actor
        first sights (actor-side fronts and in-batch dedup never reach
        the wire), so ``designs == unique_designs`` here; ``synthesized``
        is the fulfilled-lease count — the cluster-wide synthesis work
        after claim/lease dedup.
        """
        from repro.synth.backend import cache_counters

        service = state.cache_service
        lease = service.stats()
        cache = cache_counters(service.cache)
        out = {
            "backend": "cluster-service",
            "batches": lease["claim_batches"],
            "designs": lease["claim_keys"],
            "unique_designs": lease["claim_keys"],
            "dedup_saved": 0,
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "synthesized": lease["fulfilled"],
            "cache": cache,
            "lease": lease,
        }
        # A layered (memory-over-disk) shared cache also reports its
        # durable tier: `rewrites` there is the exact "re-paid a synthesis
        # we already had" detector the warm-restart gate asserts on.
        disk = getattr(service.cache, "disk", None)
        if disk is not None:
            out["store"] = disk.stats()
        return out
