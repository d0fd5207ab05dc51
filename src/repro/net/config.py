"""One dataclass for the cluster/fleet knobs a fleet process reads.

:class:`ClusterConfig` is the single home of each fleet knob: a field
with its default and its range check. The flags that set it are declared
once, in ``repro.cli``'s flag table, which takes each field's default
from here.

The learner carries its config inside the :class:`~repro.net.learner.ClusterSpec`
it ships to joining actors, so fleet-wide knobs (heartbeat window, store
location) are observable wherever the spec travels, and the cluster
:class:`~repro.rl.runtime.TrainingRuntime` reads its fleet knobs there.
Checkpoint knobs are not fleet knobs: they live in
:class:`~repro.rl.runtime.RuntimeConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class ClusterConfig:
    """Shared cluster/fleet knobs (union across the four fleet commands).

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
    # caches
    front_cache: int = 50_000
    # replay-ingest backpressure
    backpressure_lag: int = 64
    throttle_seconds: float = 0.05
    # observability
    obs_dir: "str | None" = None

    def __post_init__(self):
        # NaN compares false, so the range checks below would let it
        # through; socket timeouts and sleeps reject NaN and inf only once
        # the process is up.
        for name in ("heartbeat_timeout", "cluster_wait", "throttle_seconds"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("actors", "envs_per_actor", "publish_every", "front_cache", "heartbeat_timeout", "cluster_wait"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("farm_workers", "restart_budget", "reconnect_attempts", "backpressure_lag", "throttle_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
