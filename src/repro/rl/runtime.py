"""The training runtime: one stepper, checkpoints, resume.

Acting is one path at every size: one epsilon-greedy policy
(:func:`repro.rl.agent.epsilon_greedy`, called through
``agent.act_batch``), one collection stepper
(:class:`repro.rl.trainer.CollectionLoop`; a bare env is its one-replica
case) and one statement of the gradient cadence
(:func:`repro.rl.trainer.gradient_due`).

The paper hides synthesis latency by running many actors (Section IV-D).
Here one process runs ``E`` lockstep replicas of a
:class:`~repro.env.VectorPrefixEnv` (``repro train --envs E``): one stacked
Q-network forward acts for all of them and one batched evaluation
synthesizes their successors, optionally on a
:class:`repro.distributed.SynthesisFarm` runner. :class:`TrainingRuntime`
drives the :mod:`repro.rl.trainer` stepper tick by tick with checkpoint
hooks in between, so it is deterministic: save -> resume -> continue is
bit-identical to an uninterrupted run. ``repro train`` is this runtime,
and :class:`~repro.rl.trainer.Trainer` wraps it without a checkpoint
directory.

Snapshots go through :class:`repro.rl.checkpoint.CheckpointManager`:
Q-net weights, optimizer moments, the replay ring, every RNG stream,
schedule position, environment and archive state, synthesis-cache
contents and the accumulated :class:`~repro.rl.trainer.TrainingHistory`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.rl.agent import ScalarizedDoubleDQN
from repro.rl.checkpoint import CheckpointError, CheckpointManager
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import TrainerConfig, TrainingHistory, as_vector, make_loop


@dataclass
class RuntimeConfig:
    """The runtime's checkpoint knobs.

    ``stop_after`` halts where the run can be resumed. A vector env of
    ``E`` replicas steps all of them per tick, so the run halts at the
    first round boundary at or past the step (``stop_after=25`` with E=3
    halts at 27) — the point a resume continues bit-identically from.
    """

    checkpoint_every: int = 0      # env steps between checkpoints (0: only stop/final)
    stop_after: "int | None" = None  # checkpoint and halt at this env step (preemption)

    def __post_init__(self):
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be nonnegative")
        if self.stop_after is not None and self.stop_after < 1:
            raise ValueError(f"stop_after must be a positive env step, got {self.stop_after}")


class TrainingRuntime:
    """Synchronous training with checkpoint/resume.

    Args:
        env: the collection environment — one :class:`PrefixEnv` (held as
            a one-replica vector env) or a :class:`VectorPrefixEnv`.
        agent: the agent to train.
        config: :class:`TrainerConfig` (steps, batch size, cadences).
        runtime: :class:`RuntimeConfig` (checkpoint cadence, preemption).
        checkpoint_dir: root directory for snapshots (required for
            checkpointing/resume; optional otherwise). The three newest
            snapshots are kept.
        rng: seed or generator for replay sampling.
    """

    def __init__(
        self,
        env,
        agent: ScalarizedDoubleDQN,
        config: "TrainerConfig | None" = None,
        runtime: "RuntimeConfig | None" = None,
        checkpoint_dir=None,
        rng=None,
    ):
        if env is None or isinstance(env, (list, tuple)):
            raise ValueError("the runtime takes a single environment (PrefixEnv or VectorPrefixEnv)")
        self.agent = agent
        self.config = config if config is not None else TrainerConfig()
        self.runtime = runtime if runtime is not None else RuntimeConfig()
        self.manager = CheckpointManager(checkpoint_dir) if checkpoint_dir is not None else None
        self.env = as_vector(env)
        self.buffer = ReplayBuffer(self.config.buffer_capacity, rng=rng)
        self.preempted = False

    # ------------------------------------------------------------------
    # Checkpoint assembly
    # ------------------------------------------------------------------

    def _cache_states(self) -> "list[dict]":
        # The env's one backend: store contents plus every cumulative
        # counter, so a resumed run's telemetry continues bit-for-bit.
        backend = self.env.backend
        return [] if backend is None else [backend.state_dict()]

    def _restore_caches(self, states: "list[dict]") -> None:
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
        return {
            "mode": "sync",
            "total": total,
            "trainer_config": asdict(self.config),
            "loop": loop_state,
            "history": self._history_state(history),
            "agent": self.agent.state_dict(),
            "buffer": self.buffer.state_dict(),
            "caches": self._cache_states(),
            "env_kind": "vector",
            "env": self.env.state_dict(),
        }

    def _save(self, total: int, history: TrainingHistory, loop_state: dict) -> None:
        if self.manager is None:
            raise CheckpointError(
                "cannot checkpoint: TrainingRuntime was built without a checkpoint_dir"
            )
        self.manager.save(
            self._snapshot(total, history, loop_state),
            step=history.env_steps,
            meta={
                "mode": "sync",
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
        retired = {
            "async": "the retired 'async' thread-actor runtime",
            "cluster": "the retired 'cluster' socket-fleet learner, whose environments lived in actor processes",
        }
        if state["mode"] in retired:
            raise CheckpointError(
                f"checkpoint was taken by {retired[state['mode']]}, which cannot be resumed; "
                "multi-replica training is `repro train --envs`"
            )
        if state["mode"] != "sync":
            raise CheckpointError(f"checkpoint was taken in unknown mode {state['mode']!r}")
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
        # Releases with a separate one-env stepper saved the bare env.
        env_state = {"envs": [state["env"]]} if state.get("env_kind") == "single" else state["env"]
        saved, live = len(env_state["envs"]), self.env.num_envs
        if saved != live:
            raise CheckpointError(
                f"checkpoint holds {saved} env replicas, this run steps {live}; "
                f"resume with --envs {saved}"
            )
        self.agent.load_state_dict(state["agent"])
        self.buffer.load_state_dict(state["buffer"])
        self._restore_caches(state["caches"])
        self.env.load_state_dict(env_state)
        history = self._history_from_state(state["history"])
        return total, history, state["loop"]

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _checkpoint_due(self, history: TrainingHistory, last_saved: int) -> bool:
        every = self.runtime.checkpoint_every
        return bool(every) and history.env_steps - last_saved >= every

    def _stop_requested(self, history: TrainingHistory) -> bool:
        stop = self.runtime.stop_after
        return stop is not None and history.env_steps >= stop

    def run(self, steps: "int | None" = None, resume: bool = False) -> TrainingHistory:
        """Train to the step budget (or ``stop_after``); returns the history.

        ``resume=True`` restores the latest checkpoint and continues to
        its recorded total. A run halted by ``stop_after`` checkpoints
        itself and leaves :attr:`preempted` True, so the caller can tell
        completion from preemption.
        """
        self.preempted = False
        if resume:
            total, history, loop_state = self._load(steps)
        else:
            total, history, loop_state = steps if steps is not None else self.config.steps, TrainingHistory(), None
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
