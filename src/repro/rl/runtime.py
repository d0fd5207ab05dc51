"""The training runtime: the one stepper, driven with checkpoints and resume.

The paper hides synthesis latency by running many actors (Section IV-D).
Here one process runs ``E`` lockstep replicas of a
:class:`~repro.env.VectorPrefixEnv` (``repro train --envs E``): one stacked
Q-network forward acts for all of them and one batched evaluation
synthesizes their successors, on a worker process while the learner takes
the gradient steps that need not wait for them (see
:class:`~repro.rl.trainer.CollectionLoop`). :class:`TrainingRuntime`
drives the :class:`~repro.rl.trainer.CollectionLoop` tick by tick with
checkpoint hooks in between, so it is deterministic: save -> resume ->
continue is bit-identical to an uninterrupted run. ``repro train`` is this
runtime, and :class:`~repro.rl.trainer.Trainer` wraps it without a
checkpoint directory. A snapshot (:func:`repro.rl.checkpoint.snapshot`,
read back by :func:`~repro.rl.checkpoint.restore`) holds everything the
loop's next tick depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rl.agent import ScalarizedDoubleDQN
from repro.rl.checkpoint import CheckpointError, CheckpointManager, restore, snapshot
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import CollectionLoop, TrainerConfig, TrainingHistory, as_vector, make_loop


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

    def _manager(self, action: str) -> CheckpointManager:
        if self.manager is None:
            raise CheckpointError(
                f"cannot {action}: TrainingRuntime was built without a checkpoint_dir"
            )
        return self.manager

    def _save(self, loop: CollectionLoop) -> None:
        self._manager("checkpoint").save(snapshot(loop), step=loop.history.env_steps)

    def run(self, steps: "int | None" = None, resume: bool = False) -> TrainingHistory:
        """Train to the step budget (or ``stop_after``); returns the history.

        ``resume=True`` restores the latest checkpoint and continues to
        its recorded total. A run halted by ``stop_after`` checkpoints
        itself and leaves :attr:`preempted` True, so the caller can tell
        completion from preemption.
        """
        self.preempted = False
        if resume:
            state, manifest = self._manager("resume").load()
            loop = restore(state, manifest["version"], self.env, self.agent, self.buffer, self.config, steps)
        else:
            total = steps if steps is not None else self.config.steps
            loop = make_loop(
                self.env, self.agent, self.buffer, self.config,
                total, self.config.schedule(total), TrainingHistory(),
            )
            loop.start()

        history = loop.history
        last_saved = history.env_steps
        every, stop = self.runtime.checkpoint_every, self.runtime.stop_after
        while not loop.done:
            loop.tick()
            if stop is not None and history.env_steps >= stop and not loop.done:
                break
            if every and history.env_steps - last_saved >= every:
                self._save(loop)
                last_saved = history.env_steps

        if self.manager is not None or not loop.done:
            self._save(loop)
        self.preempted = not loop.done
        backend = self.env.backend
        history.synthesis_stats = None if backend is None else backend.stats()
        return history
