"""The single-weight training run.

One :class:`Trainer` runs one agent (one scalarization weight) against one
environment: epsilon-greedy experience collection into the replay buffer,
gradient steps on a fixed cadence, target sync handled by the agent, and
the environment's Pareto archive accumulating every evaluated design.

The paper hides synthesis latency by running many actors (Section IV-D).
Here one process runs ``E`` lockstep replicas of a
:class:`repro.env.VectorPrefixEnv` (``repro train --envs E``). There is one
collection stepper, :class:`CollectionLoop`: one ``agent.act_batch`` call
picks every replica's action (one stacked Q-net forward over the rows that
exploit — Section V-C's batched acting), one batched evaluation
synthesizes their successors on a worker process while the learner takes
the gradient steps that need not wait for them, and a bare
:class:`PrefixEnv` is the ``E`` = 1 case. Each :meth:`~CollectionLoop.tick`
is one round; :class:`Trainer` drives the ticks with checkpoint hooks in
between, so it is deterministic: save -> resume -> continue is
bit-identical to an uninterrupted run. ``repro train`` is this driver. A
snapshot (:func:`snapshot`, read back by :func:`restore`) holds everything
the loop's next tick depends on, in :class:`repro.rl.checkpoint.CheckpointManager`'s
file format.

The stepper is built from three functions — :func:`acting_round` (act,
step, fix the terminal successors, with a hook between act and step where
a tick learns while the successors synthesize;
:class:`repro.distributed.BatchedActor` collects with it too), :func:`fold_round` (account a round in the history
under the step budget) and :func:`push_round` (the kept prefix into a
replay buffer) — and from the one statement of the gradient cadence,
:func:`gradient_due`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.env.environment import PrefixEnv
from repro.env.vector import VectorPrefixEnv
from repro.rl.agent import ScalarizedDoubleDQN
from repro.rl.checkpoint import CheckpointError, CheckpointManager, upgrade
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.schedule import LinearSchedule
from repro.synth.backend import COUNTER_KEYS


@dataclass
class TrainerConfig:
    """Knobs of one training run.

    Defaults are CI-scale; the paper-scale values are noted inline. The
    run's length is not a knob: it is :meth:`Trainer.run`'s ``steps``
    (paper: 5e5 env steps at 64b).
    """

    batch_size: int = 16              # paper: 96 per GPU
    buffer_capacity: int = 10_000     # paper: 4e5
    warmup_steps: int = 32            # learning starts once buffer has this many
    learn_every: int = 1              # gradient step cadence (env steps)
    epsilon_start: float = 1.0
    epsilon_end: float = 0.0          # paper: annealed to zero
    epsilon_anneal_frac: float = 0.8  # fraction of steps to anneal over

    def __post_init__(self):
        for name in ("learn_every", "batch_size", "warmup_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.buffer_capacity < self.warmup_steps:
            raise ValueError(
                f"buffer_capacity {self.buffer_capacity} can never reach "
                f"warmup_steps {self.warmup_steps}: no gradient step would run"
            )
        for name in ("epsilon_start", "epsilon_end", "epsilon_anneal_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    def schedule(self, total_steps: int) -> LinearSchedule:
        """The run's epsilon schedule for a ``total_steps`` budget."""
        return LinearSchedule.annealed(
            self.epsilon_start, self.epsilon_end, total_steps, self.epsilon_anneal_frac
        )


@dataclass
class TrainingHistory:
    """Per-run telemetry collected by :class:`Trainer.run`."""

    losses: "list[float]" = field(default_factory=list)
    episode_returns: "list[float]" = field(default_factory=list)
    areas: "list[float]" = field(default_factory=list)
    delays: "list[float]" = field(default_factory=list)
    epsilon_trace: "list[float]" = field(default_factory=list)
    env_steps: int = 0
    gradient_steps: int = 0


def grads_allowed(env_steps: int, cfg: TrainerConfig) -> int:
    """Gradient steps the cadence permits after ``env_steps``: one per
    (0-indexed) env step ``s`` with ``s % learn_every == 0`` from the step
    that records the ``warmup_steps``-th transition (``s >= warmup - 1``).
    """
    le = cfg.learn_every
    first = -(-(cfg.warmup_steps - 1) // le) * le
    return (env_steps - 1 - first) // le + 1 if env_steps > first else 0


def gradient_due(buffered: int, gradient_steps: int, env_steps: int, cfg: TrainerConfig) -> bool:
    """The gradient cadence, stated once: a step is due while the replay
    buffer holds ``warmup_steps`` transitions and fewer steps were taken
    than :func:`grads_allowed`.
    """
    return buffered >= cfg.warmup_steps and gradient_steps < grads_allowed(env_steps, cfg)


# ----------------------------------------------------------------------
# The lockstep round: act, account, store
# ----------------------------------------------------------------------


def acting_round(venv: VectorPrefixEnv, obs: np.ndarray, masks: np.ndarray, act, overlap=None):
    """One lockstep acting round — the only one in the repo.

    ``obs`` / ``masks`` are the stacked observations the round acts on
    (carried out of the previous round, or ``venv.observe()`` /
    ``venv.legal_masks()`` after a reset or restore) and ``act(obs,
    masks)`` picks one flat action per replica. ``overlap(successors)``,
    when given, runs once the round's successors are known and before any
    of them is evaluated. Returns ``(round, next_obs, next_masks)``:
    ``round`` holds the stacked transition fields, and ``next_obs`` /
    ``next_masks`` are the post-reset stacks the next round acts on.
    """
    actions = act(obs, masks)
    successors = venv.successors(actions)
    if overlap is not None:
        overlap(successors)
    results = venv.step(actions, successors)
    # The per-graph feature/mask memo makes these stacks cheap for
    # replicas whose state was already observed.
    next_obs, next_masks = venv.observe(), venv.legal_masks()
    t_obs, t_masks = next_obs, next_masks
    ended = [i for i, result in enumerate(results) if result.done]
    if ended:
        # The vector env has already reset these replicas; their
        # transition's successor is the terminal state, not the new
        # episode, so featurize it directly.
        t_obs, t_masks = next_obs.copy(), next_masks.copy()
        for i in ended:
            t_obs[i] = venv.envs[i].observe(results[i].next_state)
            t_masks[i] = venv.envs[i].legal_mask(results[i].next_state)
    round_ = {
        "states": obs,
        "actions": np.asarray(actions),
        "rewards": np.stack([r.reward for r in results]),
        "next_states": t_obs,
        "next_masks": t_masks,
        "dones": np.array([r.done for r in results]),
        "areas": np.array([r.info["area"] for r in results]),
        "delays": np.array([r.info["delay"] for r in results]),
    }
    return round_, next_obs, next_masks


def fold_round(history: TrainingHistory, returns: list, w, round_: dict, epsilon: float, limit: int) -> int:
    """Account one acting round in ``history`` under the step budget.

    Replicas are recorded in order until ``history.env_steps`` reaches
    ``limit``; the rest of the round is dropped (those replicas did
    advance — their archives keep the evaluations). ``returns`` holds the
    caller's running per-replica episode returns, scalarized by ``w``.
    Returns how many transitions were kept. A run's env-step history is
    written here, nowhere else.
    """
    kept = 0
    for i, done in enumerate(round_["dones"]):
        if history.env_steps >= limit:
            break
        returns[i] += float(w @ round_["rewards"][i])
        history.areas.append(float(round_["areas"][i]))
        history.delays.append(float(round_["delays"][i]))
        history.epsilon_trace.append(epsilon)
        history.env_steps += 1
        kept += 1
        if done:
            history.episode_returns.append(returns[i])
            returns[i] = 0.0
    return kept


def push_round(buffer: ReplayBuffer, round_: dict, kept: int) -> None:
    """Push the first ``kept`` transitions of a round into ``buffer``."""
    for i in range(kept):
        buffer.push(
            Transition(
                state=round_["states"][i],
                action=int(round_["actions"][i]),
                reward=round_["rewards"][i],
                next_state=round_["next_states"][i],
                next_mask=round_["next_masks"][i],
                done=bool(round_["dones"][i]),
            )
        )


# ----------------------------------------------------------------------
# The resumable collection stepper
# ----------------------------------------------------------------------


def as_vector(env: "PrefixEnv | VectorPrefixEnv") -> VectorPrefixEnv:
    """``env`` itself, or a bare :class:`PrefixEnv` as a one-replica vector env."""
    return env if isinstance(env, VectorPrefixEnv) else VectorPrefixEnv([env])


class CollectionLoop:
    """The collection stepper: one :meth:`tick` = one lockstep round of
    ``E`` env steps (``E`` = 1 for a bare environment) plus the gradient
    steps the cadence then owes.

    A tick acts, then learns while the round's successors synthesize,
    then collects them: it draws every due step's batch indices (over the
    ring's size after this round's push, in step order, from the buffer's
    one stream), prefetches the successors' store misses to a worker
    process, and takes the leading due steps whose draws miss every ring
    slot this round's push will write. Such a batch reads exactly what it
    would read after the push, so the run is byte for byte the serial one
    (act, step, push, train). The env step then collects the curves,
    the round is folded and pushed, and the steps left, those from the
    first batch that reads a slot of this round on, are taken. A tick with
    no step to take early prefetches nothing: there is nothing to overlap.

    Holds only the loop-local state (per-replica running episode returns);
    everything else (env, agent, buffer, history) is owned by the caller
    and captured by their own ``state_dict`` methods, so a checkpoint taken
    between ticks plus :meth:`resume` reproduces the remaining run bit for
    bit.
    """

    def __init__(
        self,
        env: VectorPrefixEnv,
        agent: ScalarizedDoubleDQN,
        buffer: ReplayBuffer,
        config: TrainerConfig,
        total: int,
        schedule: LinearSchedule,
        history: TrainingHistory,
    ):
        self.env = env
        self.agent = agent
        self.buffer = buffer
        self.config = config
        self.total = total
        self.schedule = schedule
        self.history = history
        self.episode_returns = [0.0] * env.num_envs
        self._obs = None
        self._masks = None

    def start(self) -> None:
        """Begin a fresh run (resets every replica)."""
        self.env.reset()
        self.resume()

    def resume(self) -> None:
        """Continue from restored env/agent/buffer/history state."""
        self._obs = self.env.observe()
        self._masks = self.env.legal_masks()

    @property
    def done(self) -> bool:
        return self.history.env_steps >= self.total

    def tick(self) -> None:
        """One lockstep round: E env steps plus the due gradient steps."""
        history = self.history
        epsilon = self.schedule(history.env_steps)
        draws = []

        def overlap(successors):
            # The draws the serial order makes after the push, made now: the
            # buffer's stream has no other reader in between.
            cfg, buffer = self.config, self.buffer
            kept = min(self.env.num_envs, self.total - history.env_steps)
            size, steps = min(len(buffer) + kept, buffer.capacity), history.env_steps + kept
            while gradient_due(size, history.gradient_steps + len(draws), steps, cfg):
                draws.append(buffer.draw(cfg.batch_size, size))
            written = buffer.written(kept)
            early = 0
            while early < len(draws) and not np.isin(draws[early], written).any():
                early += 1
            if early:
                self.env.prefetch(successors)
            for idx in draws[:early]:
                self._learn(idx)
            del draws[:early]

        round_, self._obs, self._masks = acting_round(
            self.env, self._obs, self._masks,
            lambda obs, masks: self.agent.act_batch(obs, masks, epsilon=epsilon),
            overlap,
        )
        # The round stepped every replica, but the budget is exact: the
        # overshoot is dropped.
        kept = fold_round(history, self.episode_returns, self.agent.w, round_, epsilon, self.total)
        push_round(self.buffer, round_, kept)
        for idx in draws:
            self._learn(idx)

    def _learn(self, idx: np.ndarray) -> None:
        """One gradient step on the batch at ring positions ``idx``."""
        self.history.losses.append(self.agent.train_step(self.buffer.gather(idx)))
        self.history.gradient_steps += 1

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> dict:
        """Loop-local state (the rest lives with env/agent/buffer/history)."""
        return {"episode_returns": list(self.episode_returns)}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict`."""
        returns = [float(r) for r in state["episode_returns"]]
        if len(returns) != self.env.num_envs:
            raise ValueError(
                f"loop state has {len(returns)} replicas, env has {self.env.num_envs}"
            )
        self.episode_returns = returns


def make_loop(
    env: "PrefixEnv | VectorPrefixEnv",
    agent: ScalarizedDoubleDQN,
    buffer: ReplayBuffer,
    config: TrainerConfig,
    total: int,
    schedule: LinearSchedule,
    history: TrainingHistory,
) -> CollectionLoop:
    """The collection stepper over ``env`` (a bare env steps as one replica)."""
    return CollectionLoop(as_vector(env), agent, buffer, config, total, schedule, history)


# ----------------------------------------------------------------------
# The training snapshot: one writer, one reader
# ----------------------------------------------------------------------


def snapshot(loop: CollectionLoop) -> dict:
    """The format-2 state of the run ``loop`` steps, taken between ticks."""
    backend = loop.env.backend
    return {
        "total": loop.total,
        "trainer_config": asdict(loop.config),
        "loop": loop.state_dict(),
        "history": asdict(loop.history),
        "agent": loop.agent.state_dict(),
        "buffer": loop.buffer.state_dict(),
        "backend": None if backend is None else backend.state_dict(),
        "env": loop.env.state_dict(),
    }


def restore(state: dict, version: int, env, agent, buffer, config, steps: "int | None" = None) -> CollectionLoop:
    """Load a snapshot of manifest ``version`` into the live ``env`` (a
    :class:`~repro.env.VectorPrefixEnv`), ``agent`` and ``buffer``; returns
    the loop that continues the run. Every refusal is a
    :class:`CheckpointError` raised before anything is loaded."""
    state = upgrade(state, version)
    saved_cfg, live_cfg = state["trainer_config"], asdict(config)
    drift = {k: (saved_cfg.get(k), v) for k, v in live_cfg.items() if saved_cfg.get(k) != v}
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
    saved, live = len(state["env"]["envs"]), env.num_envs
    if saved != live:
        raise CheckpointError(
            f"checkpoint holds {saved} env replicas, this run steps {live}; "
            f"resume with --envs {saved}"
        )
    record, backend = state["backend"], env.backend
    if (record is None) != (backend is None):
        raise CheckpointError(
            f"checkpoint has {int(record is not None)} evaluation-backend records, "
            f"the live environment resolves through {int(backend is not None)}"
        )
    if record is not None:
        unknown = sorted(set(record["counters"]) - set(COUNTER_KEYS))
        if unknown:
            raise CheckpointError(f"checkpoint's backend record counts {unknown}, which no backend counts")
        if record["cache"] is not None and backend.store is None:
            raise CheckpointError(
                f"checkpoint carries cache contents for a backend ({backend.name}) that has no local store"
            )

    saved_agent = state["agent"]
    if int(saved_agent["n"]) != agent.n:
        raise CheckpointError(
            f"checkpoint's agent is {saved_agent['n']} bits wide, this run's is {agent.n}; "
            f"resume with width {saved_agent['n']}"
        )
    for net in ("local", "target"):
        saved = {k: np.shape(v) for k, v in saved_agent[net].items()}
        live = {k: v.shape for k, v in getattr(agent, net).state_arrays().items()}
        if saved != live:
            key = min(k for k in saved.keys() | live.keys() if saved.get(k) != live.get(k))
            raise CheckpointError(
                f"checkpoint's {net} network does not fit this agent: {key} is {saved.get(key, 'absent')} in "
                f"the checkpoint, {live.get(key, 'absent')} here; resume with the checkpoint's --blocks and --channels"
            )

    loop = make_loop(env, agent, buffer, config, total, config.schedule(total), TrainingHistory(**state["history"]))
    loop.load_state_dict(state["loop"])
    agent.load_state_dict(state["agent"])
    buffer.load_state_dict(state["buffer"])
    if backend is not None:
        backend.load_state_dict(record)
    env.load_state_dict(state["env"])
    loop.resume()
    return loop


# ----------------------------------------------------------------------
# The run driver
# ----------------------------------------------------------------------


class Trainer:
    """One training run, checkpointed and resumable when given a directory.

    Args:
        env: a :class:`PrefixEnv` (the paper-faithful sequential loop, held
            as a one-replica vector env) or a :class:`VectorPrefixEnv`.
        agent: the agent to train.
        config: :class:`TrainerConfig` (batch size, cadences, epsilon).
        rng: seed or generator for replay sampling.
        checkpoint_dir: snapshot root, where the three newest snapshots
            are kept; without one the run writes nothing and cannot resume.
        checkpoint_every: env steps between checkpoints (0: only at halt
            and completion).
        stop_after: checkpoint and halt at this env step (preemption). A
            vector env of ``E`` replicas steps all of them per tick, so the
            run halts at the first round boundary at or past the step
            (``stop_after=25`` with E=3 halts at 27) — the point a resume
            continues bit-identically from.
    """

    def __init__(
        self,
        env: "PrefixEnv | VectorPrefixEnv",
        agent: ScalarizedDoubleDQN,
        config: "TrainerConfig | None" = None,
        rng=None,
        *,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        stop_after: "int | None" = None,
    ):
        if env is None or isinstance(env, (list, tuple)):
            raise ValueError("a Trainer takes a single environment (PrefixEnv or VectorPrefixEnv)")
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be nonnegative, got {checkpoint_every}")
        if stop_after is not None and stop_after < 1:
            raise ValueError(f"stop_after must be a positive env step, got {stop_after}")
        if checkpoint_dir is None and (checkpoint_every or stop_after is not None):
            raise ValueError("checkpoint_every and stop_after need a checkpoint_dir to write to")
        self.env = as_vector(env)
        self.agent = agent
        self.config = config if config is not None else TrainerConfig()
        self.buffer = ReplayBuffer(self.config.buffer_capacity, rng=rng)
        self.manager = CheckpointManager(checkpoint_dir) if checkpoint_dir is not None else None
        self.checkpoint_every = checkpoint_every
        self.stop_after = stop_after
        self.preempted = False

    def run(self, steps: "int | None" = None, resume: bool = False) -> TrainingHistory:
        """Train for ``steps`` env steps (or to ``stop_after``); returns the history.

        ``resume=True`` restores the latest checkpoint and continues to
        its recorded total (``steps``, if given, must equal it). A run
        halted by ``stop_after`` checkpoints itself and leaves
        :attr:`preempted` True, so the caller can tell completion from
        preemption.
        """
        self.preempted = False
        if resume:
            if self.manager is None:
                raise ValueError("cannot resume: this Trainer was built without a checkpoint_dir")
            state, manifest = self.manager.load()
            loop = restore(state, manifest["version"], self.env, self.agent, self.buffer, self.config, steps)
        else:
            if steps is None or steps < 0:
                raise ValueError(f"a fresh run needs a nonnegative step count, got steps={steps}")
            loop = make_loop(
                self.env, self.agent, self.buffer, self.config, steps, self.config.schedule(steps), TrainingHistory()
            )
            loop.start()

        history = loop.history
        last_saved = history.env_steps
        while not loop.done:
            loop.tick()
            if self.stop_after is not None and history.env_steps >= self.stop_after and not loop.done:
                break
            if self.checkpoint_every and history.env_steps - last_saved >= self.checkpoint_every:
                self.manager.save(snapshot(loop), step=history.env_steps)
                last_saved = history.env_steps

        if self.manager is not None:
            self.manager.save(snapshot(loop), step=history.env_steps)
        self.preempted = not loop.done
        return history
