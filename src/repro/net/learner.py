"""The learner's network face: replay ingest, weight publication, shared cache.

:class:`LearnerServer` is what ``repro serve-learner`` (and a
``TrainingRuntime`` built with a :class:`ClusterSpec`) listens with. It
exposes the learner's in-process services to remote actor *processes*:

- ``join`` — an actor registers, is assigned an actor slot, and receives
  the :class:`ClusterSpec` (environment + network architecture) so the
  actor CLI needs nothing but ``--connect``;
- ``pull_weights`` — versioned snapshots from the learner's
  :class:`repro.distributed.PolicyHub` (the paper's delayed-parameter
  publication), shipped only when the actor's version *and* content
  digest are both stale (digest-keyed pulls answer "unchanged" without
  re-shipping the npz);
- ``push_batch`` — one acting round's transitions, checked against the
  spec's shapes and action count, then handed to
  :meth:`repro.distributed.pipeline.LearnerCore.ingest`, which answers
  with the next epsilon, the stop flag and a throttle hint — so pausing
  ingest (checkpoint at a round boundary) and stopping the run are
  ordinary replies, not extra machinery;
- ``cache_put`` / ``cache_claim`` — a shared
  :class:`repro.synth.SynthesisCache` service behind a
  :class:`repro.synth.leases.SharedCacheService`: actors route synthesis
  lookups through the learner, which is what makes cache sharing work
  *across processes* and lets cluster checkpoints capture the cache.
  ``cache_claim`` adds the claim/lease protocol: a miss is answered with the value, a
  granted lease ("you synthesize it") or "wait" (someone else already is),
  so concurrent actors never synthesize the same digest twice. Leases die
  with their connection (the per-connection owner token is released on
  disconnect, i.e. on the existing heartbeat timeout) or by age.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import obs
from repro.distributed.pipeline import LearnerCore
from repro.net.config import ClusterConfig
from repro.obs.aggregate import FleetObs
from repro.net.protocol import DEFAULT_HEARTBEAT_TIMEOUT, DEFAULT_MAX_FRAME_BYTES
from repro.net.server import FramedServer
from repro.store.api import CurveStore
from repro.synth.cache import SynthesisCache
from repro.synth.curve import AreaDelayCurve
from repro.synth.leases import SharedCacheService

# The elastic-membership counter schema: every ``_stats`` reply (and the
# cluster's stderr telemetry) carries exactly these keys — pinned by the
# schema test alongside ``repro.synth.backend.STATS_KEYS``.
MEMBERSHIP_KEYS = ("joins", "rejoins", "evictions", "throttled_batches")


# What ``push_batch`` makes of a peer's round, whatever dtype it was sent in
# (None: as sent): states are the network's float32, rewards and metrics float64.
_ROUND_LAYOUT = {
    "states": np.float32,
    "next_states": np.float32,
    "actions": None,
    "next_masks": None,
    "rewards": np.float64,
    "areas": np.float64,
    "delays": np.float64,
    "dones": bool,
}


def _pin_round(batch: dict, n: int, num_actions: int) -> "tuple[dict, float]":
    """A peer's round in :data:`_ROUND_LAYOUT` and its epsilon, or ``ValueError``
    unless every field holds the same ``k >= 1`` rows at the width-``n`` shapes,
    actions are in ``[0, num_actions)``, rewards finite and epsilon in [0, 1]."""
    epsilon = float(batch["epsilon"])
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"malformed round: epsilon {epsilon} is outside [0, 1]")
    round_ = {key: np.asarray(batch[key], dtype=dtype) for key, dtype in _ROUND_LAYOUT.items()}
    k = len(round_["actions"]) if round_["actions"].ndim else 0
    if k < 1:
        raise ValueError("malformed round: it holds no transitions")
    rows = {"states": (4, n, n), "next_states": (4, n, n), "next_masks": (num_actions,), "rewards": (2,)}
    for key, value in round_.items():
        want = (k, *rows.get(key, ()))
        if value.shape != want:
            raise ValueError(f"malformed round: {key} has shape {value.shape}, expected {want}")
    actions = round_["actions"]
    if not np.issubdtype(actions.dtype, np.integer) or actions.min() < 0 or actions.max() >= num_actions:
        raise ValueError(f"malformed round: actions must be integers in [0, {num_actions}), got {actions.tolist()}")
    if not np.isfinite(round_["rewards"]).all():
        raise ValueError("malformed round: rewards must be finite")
    return round_, epsilon


@dataclass
class ClusterSpec:
    """Everything a remote actor needs to rebuild the collection setup.

    Cell libraries and synthesizers are code, not data: only names and
    scalars cross the wire. ``seed`` is the base environment seed; actor
    ``k`` gets ``seed + k * envs_per_actor`` plus a derived exploration
    stream.
    """

    width: int
    horizon: int = 24
    envs_per_actor: int = 4
    library: str = "nangate45"
    w_area: float = 0.5
    w_delay: float = 0.5
    c_area: float = 0.001
    c_delay: float = 10.0
    seed: int = 0
    blocks: int = 2
    channels: int = 16
    # The learner's fleet knobs (actor slots, publication cadence, bind
    # address, heartbeat window, store location, backpressure): the
    # cluster TrainingRuntime reads them here. ``asdict`` flattens the
    # nested dataclass to a plain dict on the wire; actors ignore it.
    config: ClusterConfig = field(default_factory=ClusterConfig)

    @classmethod
    def for_agent(cls, agent, **kwargs) -> "ClusterSpec":
        """Derive width/architecture/scalarization from a live agent; with a
        ``config``, ``envs_per_actor`` defaults to the config's."""
        if "config" in kwargs:
            kwargs.setdefault("envs_per_actor", kwargs["config"].envs_per_actor)
        return cls(
            width=agent.n,
            w_area=float(agent.w[0]),
            w_delay=float(agent.w[1]),
            blocks=agent.local.blocks,
            channels=agent.local.channels,
            **kwargs,
        )


class LearnerState(LearnerCore):
    """The learner core plus what only a wire needs: elastic membership
    (sessions, join/leave, eviction), the fleet's pushed metrics, the
    shared cache service and round-trace minting.

    The learner thread and the per-actor handler threads meet here; the
    locks are the core's.
    """

    def __init__(self, spec: ClusterSpec, cache: "CurveStore | None" = None, lease_timeout: float = 60.0, **core):
        super().__init__(**core)
        self.spec = spec
        self.cache_service = SharedCacheService(
            cache if cache is not None else SynthesisCache(),
            lease_timeout=lease_timeout,
        )
        self.cache = self.cache_service.cache
        self.actors: "dict[int, dict]" = {}
        self.ever_joined = 0
        self._session_ids = itertools.count(1)
        self.joins = 0
        self.rejoins = 0
        self.evictions = 0
        # Fleet observability: worker-pushed metric snapshots (retained
        # across rejoins/respawns) and the run id every round trace
        # minted here carries.
        self.fleet_obs = FleetObs()
        self.obs_run = obs.run_id() or obs.trace.new_id()

    def connected_actors(self) -> int:
        with self.lock:
            return sum(a["connected"] for a in self.actors.values())

    # -- join / leave ----------------------------------------------------

    def join(self, session: "str | None" = None) -> "tuple[int, dict]":
        """Assign (or reassign) an actor slot ("shard"); elastic membership.

        An actor presenting the ``session`` token from an earlier join
        reclaims its own shard — episode-return accumulators survive the
        redial, so a supervised reconnect is invisible to telemetry. The
        token is *rotated* on every join: the old token proves identity
        once, then dies, so a zombie connection still holding it can
        neither push stale rounds nor mark the slot disconnected. A
        fresh join takes the first shard (in slot order) that is either
        never-assigned or held by a dead connection; taking over a dead
        slot *evicts* it — the old session token is invalidated and a
        stale rejoin gets a fresh assignment instead. Only a cluster
        whose every shard is held by a live connection is full.

        Tokens rotate under the ingest lock, so a push's session check
        and its ingest are one step as far as a takeover can tell.
        """
        with self.ingest_lock, self.lock:
            if session is not None:
                for shard, actor in self.actors.items():
                    if actor["session"] == session:
                        # Takeover is legal even while the slot still looks
                        # connected: the old socket is dead or dying, and
                        # its eventual stale leave() is ignored.
                        actor["connected"] = True
                        actor["disconnected_at"] = None
                        actor["session"] = f"sess-{next(self._session_ids)}"
                        self.rejoins += 1
                        return shard, self._join_reply(shard, actor, rejoin=True)
                # Unknown token (learner restarted, or we were evicted):
                # fall through to a fresh assignment.
            shard = None
            for candidate in range(self.spec.config.actors):
                if candidate not in self.actors:
                    shard = candidate
                    break
                if not self.actors[candidate]["connected"]:
                    shard = candidate
                    self.evictions += 1
                    break
            if shard is None:
                raise RuntimeError(
                    f"cluster is full: all {self.spec.config.actors} actor "
                    "slots are taken"
                )
            actor = {
                "connected": True,
                "session": f"sess-{next(self._session_ids)}",
                "disconnected_at": None,
            }
            self.actors[shard] = actor
            self.returns[shard] = [0.0] * self.spec.envs_per_actor
            self.joins += 1
            self.ever_joined += 1
            return shard, self._join_reply(shard, actor)

    def _mint_round_trace(self) -> dict:
        """A fresh trace context for an actor's next acting round.

        Minted learner-side (join and push_batch replies) so every round
        of every actor is rooted in one run's id space; the ``round_trace``
        event is the lineage record that lets a severed round's orphaned
        trace id still be attributed to this run.
        """
        trace = obs.trace.new_trace(self.obs_run)
        obs.emit("round_trace", id=trace["id"])
        return trace

    def _join_reply(self, shard: int, actor: dict, rejoin: bool = False) -> dict:
        # Callers hold self.lock.
        return {
            "actor_id": shard,
            "session": actor["session"],
            "rejoin": rejoin,
            "spec": asdict(self.spec),
            "env_seed": self.spec.seed + shard * self.spec.envs_per_actor,
            "exploration_seed": self.spec.seed + 7_919 * (shard + 1),
            "total": self.total,
            **self._orders(),
            "trace": self._mint_round_trace(),
        }

    def leave(self, actor_id: "int | None", session: "str | None" = None) -> None:
        if actor_id is None:
            return
        with self.lock:
            actor = self.actors.get(actor_id)
            if actor is None:
                return
            if session is not None and actor["session"] != session:
                return  # stale leave from a connection that was taken over
            actor["connected"] = False
            actor["disconnected_at"] = time.monotonic()

    def membership_dict(self) -> dict:
        """The :data:`MEMBERSHIP_KEYS` counters (one schema everywhere)."""
        with self.lock:
            return {key: getattr(self, key) for key in MEMBERSHIP_KEYS}

    # -- ingest ----------------------------------------------------------

    def push_batch(
        self, actor_id: int, batch: dict, session: "str | None" = None
    ) -> dict:
        """One remote acting round into :meth:`ingest`, for the session that
        owns the shard (a malformed round is refused whole, before any of it
        is folded); the reply adds the next round's trace."""
        round_, epsilon = _pin_round(batch, self.spec.width, self.agent.actions.size)
        with self.ingest_lock:
            with self.lock:
                actor = self.actors.get(actor_id)
                if actor is None:
                    raise RuntimeError(f"actor {actor_id} never joined")
                if session is not None and actor["session"] != session:
                    # A rejoining actor took this shard over; the old
                    # connection's in-flight round must not double-ingest.
                    raise RuntimeError(
                        f"stale session for actor {actor_id}: the shard was "
                        "reassigned (rejoin with your session token)"
                    )
            reply = self.ingest(actor_id, round_, epsilon)
        reply["trace"] = self._mint_round_trace()
        return reply


class LearnerServer(FramedServer):
    """The framed-protocol face of a cluster learner.

    Constructed unbound from state: ``repro cluster`` binds the port (so
    actor subprocesses know where to dial) before the runtime has built or
    restored its training state, then :meth:`attach` publishes the state
    and unblocks waiting handlers.
    """

    roles = ("actor", "observer")

    def __init__(
        self,
        address: "tuple[str, int]" = ("127.0.0.1", 0),
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        state_wait: float = 60.0,
    ):
        super().__init__(
            address, max_frame_bytes=max_frame_bytes, heartbeat_timeout=heartbeat_timeout
        )
        self.state: "LearnerState | None" = None
        self.state_wait = state_wait
        # Server-side cap on a long-poll claim park: one third of the
        # heartbeat window, so a parked reply always lands well inside
        # the client's recv timeout.
        self.claim_park_cap = max(0.5, heartbeat_timeout / 3.0)
        self._state_ready = threading.Event()
        self._owner_ids = itertools.count(1)
        self.methods = {
            "join": self._join,
            "pull_weights": self._pull_weights,
            "push_batch": self._push_batch,
            "cache_put": self._cache_put,
            "cache_claim": self._cache_claim,
            "push_obs": self._push_obs,
            "stats": self._stats,
        }

    def attach(self, state: LearnerState) -> None:
        self.state = state
        self._state_ready.set()

    # -- connection hooks ------------------------------------------------

    def on_connect(self, conn, hello):
        if not self._state_ready.wait(timeout=self.state_wait):
            raise RuntimeError("learner is not ready (no training state attached)")
        return {
            "conn": conn,
            "hello": hello,
            "actor_id": None,
            "session": None,
            # Lease-ownership token: dies with the connection, so a peer
            # dropped by the heartbeat timeout frees its leases at once.
            "cache_owner": f"conn-{next(self._owner_ids)}",
        }

    def on_disconnect(self, ctx) -> None:
        if self.state is not None:
            # Session-scoped leave: if a rejoin already took the shard
            # over, this connection's death must not mark it disconnected.
            self.state.leave(ctx.get("actor_id"), ctx.get("session"))
            self.state.cache_service.release_owner(ctx.get("cache_owner"))

    # -- methods ---------------------------------------------------------

    def _join(self, ctx, params) -> dict:
        if ctx["actor_id"] is not None:
            raise RuntimeError(f"connection already joined as actor {ctx['actor_id']}")
        actor_id, reply = self.state.join((params or {}).get("session"))
        ctx["actor_id"] = actor_id
        ctx["session"] = reply["session"]
        return reply

    def _pull_weights(self, ctx, params) -> dict:
        # Digest-keyed: "unchanged" (no weights in the reply) when the
        # client's version *or* content digest matches, so steady-state
        # pulls and reconnects-after-resume never re-ship the full npz.
        version, digest, weights = self.state.pull(
            int(params["have_version"]), params.get("have_digest")
        )
        reply = {"version": version, "digest": digest}
        if weights is not None:
            reply["weights"] = weights
        return reply

    def _push_batch(self, ctx, params) -> dict:
        if ctx["actor_id"] is None:
            raise RuntimeError("push_batch before join")
        # Piggybacked metric snapshot: actors send one every round.
        self.state.fleet_obs.update(params.get("obs_source"), params.get("obs"))
        return self.state.push_batch(
            ctx["actor_id"], params, session=ctx.get("session")
        )

    def _push_obs(self, ctx, params) -> dict:
        """A worker's cumulative metric snapshot, outside the push cadence.

        ``final=True`` (clean teardown) retires the source: its totals are
        folded into the retained fleet aggregate, so a respawned process
        restarting its counters from zero no longer loses the work its
        predecessor reported.
        """
        params = params or {}
        state = self.state
        state.fleet_obs.update(params.get("source"), params.get("snapshot"))
        if params.get("final"):
            state.fleet_obs.retire(params.get("source"))
        return {"ok": True}

    def _cache_put(self, ctx, params) -> dict:
        items = [
            (tuple(key), AreaDelayCurve.from_points(points))
            for key, points in params["items"]
        ]
        self.state.cache_service.put(
            items, owner=ctx["cache_owner"], lease_ids=params.get("leases")
        )
        return {"stored": len(items)}

    def _cache_claim(self, ctx, params) -> dict:
        keys = [tuple(k) for k in params["keys"]]
        kwargs = {}
        if params.get("wait"):
            # Long-poll: park this connection's handler thread at the
            # service until a key resolves. The park is capped well below
            # the heartbeat window (and below any client-requested
            # budget), so the client's recv timeout can never fire
            # mid-park — it just re-claims.
            timeout = self.claim_park_cap
            if params.get("wait_timeout") is not None:
                timeout = min(timeout, float(params["wait_timeout"]))
            kwargs = {"wait": True, "wait_timeout": max(timeout, 0.05)}
        replies = self.state.cache_service.claim(
            keys,
            ctx["cache_owner"],
            counted=bool(params.get("counted", True)),
            **kwargs,
        )
        results = []
        for reply in replies:
            if "curve" in reply:
                results.append({"curve": reply["curve"].points()})
            else:
                results.append(reply)
        return {"results": results}

    def _stats(self, ctx, params) -> dict:
        state = self.state
        with state.lock:
            stats = {
                "env_steps": state.history.env_steps,
                "gradient_steps": state.history.gradient_steps,
                "total": state.total,
                "actors_connected": sum(
                    a["connected"] for a in state.actors.values()
                ),
                "buffer_size": len(state.buffer),
                "cache_entries": len(state.cache),
                "active_leases": state.cache_service.active_leases(),
                "stop": state.stop,
            }
            for key in MEMBERSHIP_KEYS:
                stats[key] = getattr(state, key)
        stats["obs"] = {
            "run": state.obs_run,
            "fleet": state.fleet_obs.merged(),
            "learner": obs.REGISTRY.snapshot(),
            "sources": state.fleet_obs.counts(),
        }
        return stats
