"""One dataclass for the cluster/fleet knobs every command shares.

Before this module the ``repro cluster`` / ``serve-learner`` / ``actor``
/ ``farm-worker`` flag sets were four hand-maintained argparse blocks
whose values threaded through positional plumbing. :class:`ClusterConfig`
is now the single source of truth: every knob is a field (the field
default IS the CLI default), :meth:`ClusterConfig.add_arguments`
registers the right subset of flags per command, and
:meth:`ClusterConfig.from_args` reads the parsed namespace back. The CLI
is a thin parser over the dataclass — flags keep their exact names,
defaults and help (asserted by the differential-CLI gate).

The learner carries its config inside the :class:`~repro.net.learner.ClusterSpec`
it ships to joining actors, so fleet-wide knobs (heartbeat window, store
location) are observable wherever the spec travels, and the cluster
:class:`~repro.rl.runtime.TrainingRuntime` reads its fleet knobs there.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class ClusterConfig:
    """Shared cluster/fleet knobs (union across the four commands).

    Field defaults are the CLI defaults. ``heartbeat_timeout`` is the
    learner-side dead-peer cutoff; the standalone ``repro actor`` command
    overrides its own flag default to 300 s (an actor is wire-silent for
    a whole acting round, synthesis included).
    An out-of-range value raises ``ValueError`` naming its field, so a bad
    flag stops the CLI before it binds a socket or spawns a process.
    """

    # fleet shape
    actors: int = 2
    envs_per_actor: int = 4
    publish_every: int = 1
    farm_workers: int = 0
    restart_budget: int = 2
    # wire
    listen: str = "127.0.0.1:0"
    heartbeat_timeout: float = 60.0
    cluster_wait: float = 60.0
    reconnect_attempts: int = 8
    # durability
    store_dir: "str | None" = None
    checkpoint_dir: "str | None" = None
    checkpoint_every: int = 0
    stop_after: "int | None" = None
    resume: bool = False
    # caches
    front_cache: int = 50_000
    # replay-ingest backpressure
    backpressure_lag: int = 64
    throttle_seconds: float = 0.05
    # observability
    obs_dir: "str | None" = None

    def __post_init__(self):
        for name in ("actors", "envs_per_actor", "publish_every", "front_cache"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be positive, got {self.heartbeat_timeout}")
        for name in ("farm_workers", "backpressure_lag", "throttle_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    # Which fields each command exposes as flags (plus per-command default
    # overrides). The launcher commands share the full learner block; the
    # actor and farm-worker daemons expose only what they consume.
    _LEARNER_FIELDS = (
        "actors", "envs_per_actor", "publish_every", "listen",
        "heartbeat_timeout", "cluster_wait", "store_dir", "checkpoint_dir",
        "checkpoint_every", "stop_after", "resume", "backpressure_lag",
        "throttle_seconds", "obs_dir",
    )
    COMMAND_FIELDS = {
        "serve-learner": _LEARNER_FIELDS,
        "cluster": _LEARNER_FIELDS + ("farm_workers", "restart_budget"),
        "actor": (
            "front_cache", "heartbeat_timeout", "reconnect_attempts", "obs_dir",
        ),
        "farm-worker": ("listen", "store_dir", "obs_dir"),
    }
    COMMAND_DEFAULTS = {
        "actor": {"heartbeat_timeout": 300.0},
    }

    @classmethod
    def add_arguments(cls, parser, command: str) -> None:
        """Register ``command``'s cluster flags (names/defaults/help frozen)."""
        if command not in cls.COMMAND_FIELDS:
            raise ValueError(f"unknown cluster command {command!r}")
        wanted = cls.COMMAND_FIELDS[command]
        overrides = cls.COMMAND_DEFAULTS.get(command, {})
        for name in wanted:
            flag = "--" + name.replace("_", "-")
            default = overrides.get(name, _FIELD_DEFAULTS[name])
            spec = _FLAG_SPECS[name]
            kwargs = dict(spec)
            help_text = kwargs.pop("help")
            if command in _COMMAND_HELP and name in _COMMAND_HELP[command]:
                help_text = _COMMAND_HELP[command][name]
            if kwargs.pop("store_true", False):
                parser.add_argument(
                    flag, action="store_true", help=help_text, **kwargs
                )
            else:
                parser.add_argument(
                    flag, default=default, help=help_text, **kwargs
                )

    @classmethod
    def from_args(cls, args) -> "ClusterConfig":
        """Build a config from a parsed namespace (missing attrs keep
        their field defaults, so one namespace serves every command)."""
        kwargs = {}
        for field in fields(cls):
            if hasattr(args, field.name):
                kwargs[field.name] = getattr(args, field.name)
        return cls(**kwargs)


_FIELD_DEFAULTS = {f.name: f.default for f in fields(ClusterConfig)}

# argparse metadata per field: type, action and the frozen help strings
# (these are the exact texts the pre-dataclass CLI shipped — the
# differential-CLI gate diffs them byte-for-byte).
_FLAG_SPECS = {
    "actors": dict(type=int, help="actor process slots (replay shards)"),
    "envs_per_actor": dict(
        type=int, help="lockstep env replicas per actor process"
    ),
    "publish_every": dict(
        type=int, help="gradient steps between weight publications"
    ),
    "farm_workers": dict(
        type=int,
        help="also spawn this many farm-worker daemons and point "
             "every actor's synthesis at them",
    ),
    "restart_budget": dict(
        type=int,
        help="crash respawns allowed per fleet child before its "
             "death counts as a launcher failure",
    ),
    "listen": dict(
        help="learner bind address (default: loopback, ephemeral port)"
    ),
    "heartbeat_timeout": dict(
        type=float,
        help="drop an actor silent this long (seconds); must exceed "
             "one acting round's synthesis time",
    ),
    "cluster_wait": dict(
        type=float,
        help="abort if no actor is connected for this long (seconds)",
    ),
    "reconnect_attempts": dict(
        type=int,
        help="consecutive failed redials tolerated before the "
             "supervised reconnect loop gives up",
    ),
    "store_dir": dict(
        help="persistent content-addressed curve store directory: "
             "synthesized curves are durable across restarts, so a rerun "
             "against the same dir starts warm (default: in-memory only)"
    ),
    "checkpoint_dir": dict(
        help="checkpoint root (cluster checkpoints capture the learner state)"
    ),
    "checkpoint_every": dict(
        type=int,
        help="env steps between checkpoints (0: only at halt/completion)",
    ),
    "stop_after": dict(
        type=int,
        help="checkpoint and halt at this env step (simulated preemption)",
    ),
    "resume": dict(
        store_true=True,
        help="resume from the latest checkpoint in --checkpoint-dir",
    ),
    "front_cache": dict(
        type=int,
        help="actor-local front cache entries over the shared cache",
    ),
    "backpressure_lag": dict(
        type=int,
        help="gradient-cadence deficit beyond which push replies "
             "carry a throttle hint (0 disables backpressure)",
    ),
    "throttle_seconds": dict(
        type=float,
        help="seconds an actor pauses when the learner signals "
             "backpressure",
    ),
    "obs_dir": dict(
        help="write structured observability events (JSONL, one file per "
             "process) under this directory; cluster mode forwards the "
             "flag to every spawned actor and farm worker "
             "(default: off)",
    ),
}

# Per-command help overrides where the historical texts differed.
_COMMAND_HELP = {
    "actor": {
        "heartbeat_timeout": "give up if the learner is silent this long (seconds)",
    },
    "farm-worker": {
        "listen": "bind address (default: loopback, ephemeral port)",
        "store_dir": "persistent curve store directory: serve synth_batch "
                     "tasks from the store when the curve is already known, "
                     "append fresh curves for future runs",
    },
}
