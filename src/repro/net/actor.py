"""The remote actor: experience generation in its own OS process.

:class:`RemoteActorWorker` runs the one
:class:`~repro.distributed.pipeline.ActorLoop` with a socket behind the
link, in its own process (and with its own GIL). It dials a
:class:`repro.net.learner.LearnerServer`, receives the
:class:`~repro.net.learner.ClusterSpec` on ``join``, rebuilds the vector
environment and an inference-only Q-network locally, and runs the loop
with ``pull_weights`` / ``push_batch`` calls as its two link methods;
everything else here is what a wire adds — supervised redial, session
rejoin and obs piggybacking.

Synthesis routes through a :class:`repro.synth.backend.EvaluationBackend`
whose lease service is a :class:`RemoteCacheClient`: misses *claim* at the
learner's shared cache service, so across all actor processes each unique
design is synthesized exactly once (the claim/lease protocol), and designs
this actor is leased are synthesized in-process or — with ``farm_workers`` /
``repro actor --farm`` — fanned out to remote ``repro farm-worker``
daemons, the paper's one-actor-host-drives-many-synthesis-hosts shape.

On a 1-CPU host this buys work reduction, not wall-clock (the repo's
honest-measurement policy; see the ``cluster`` bench section). On real
multi-core/multi-host hardware each actor owns a core — the scaling shape
of the paper's Section V-C.
"""

from __future__ import annotations

import os

import numpy as np

from repro import obs as obslib
from repro.cells import library_by_name
from repro.distributed.pipeline import ActorLoop
from repro.env.actions import ActionSpace
from repro.env.vector import VectorPrefixEnv
from repro.net.backoff import Backoff
from repro.net.protocol import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_MAX_FRAME_BYTES,
    ProtocolError,
    connect,
)
from repro.nn.qnet import QNetwork
from repro.store.api import make_store
from repro.synth.backend import EvaluationBackend
from repro.synth.curve import AreaDelayCurve
from repro.synth.evaluator import SynthesisEvaluator
from repro.utils.rng import ensure_rng


LEARNER_UNREACHABLE_EXIT = 3
"""``repro actor`` exit code for :class:`LearnerUnreachable`.

Distinct from a generic crash (1) so a fleet orchestrator can tell "this
actor lost the dial race" from "this actor is broken": after a run that
completed, a replacement spawned near the end may find the learner
already gone — that is the run ending, not a failure.
"""


class LearnerUnreachable(RuntimeError):
    """The supervised dial loop exhausted its budget without a join."""


class RemoteCacheClient:
    """Wire adapter: a learner's cache service as a backend's lease service.

    The lease owner is implicit — the learner keys leases to this
    connection and releases them when it drops (heartbeat timeout or BYE),
    which is the dead-peer half of lease reclamation. A waiter that dies
    mid-park is the same case: its handler thread's reply send fails, the
    connection tears down, and ``release_owner`` rides the teardown.
    """

    def __init__(self, conn):
        self._conn = conn

    def rebind(self, conn) -> None:
        """Point at a fresh connection after a redial.

        Leases held on the old connection died with it (the learner keys
        them to the connection); in-flight claims simply re-claim on the
        new wire — the protocol is idempotent by design.
        """
        self._conn = conn

    def claim(
        self,
        keys,
        counted: bool = True,
        wait: bool = False,
        wait_timeout: "float | None" = None,
    ):
        params = {"keys": [list(k) for k in keys], "counted": counted}
        if wait:
            # Ask the server to park the reply, bounded safely below this
            # connection's recv timeout so the call cannot time out
            # mid-park; an empty (all-wait) reply just re-claims.
            park = self._conn.timeout / 3.0
            if wait_timeout is not None:
                park = min(park, wait_timeout)
            params["wait"] = True
            params["wait_timeout"] = max(park, 0.05)
        reply = self._conn.call("cache_claim", params)
        out = []
        for result in reply["results"]:
            if "curve" in result:
                out.append({"curve": AreaDelayCurve.from_points(result["curve"])})
            else:
                out.append(result)
        return out

    def put(self, items, lease_ids=None):
        self._conn.call(
            "cache_put",
            {
                "items": [[list(key), curve.points()] for key, curve in items],
                "leases": list(lease_ids) if lease_ids is not None else None,
            },
        )


class RemoteActorWorker:
    """One remote experience generator (the body of ``repro actor``).

    ``farm_workers`` (``host:port`` strings or tuples) points this actor's
    leased synthesis at remote farm-worker daemons instead of its own
    process — ``repro actor --connect ... --farm host:port``.
    """

    def __init__(
        self,
        address: "tuple[str, int]",
        front_cache_entries: int = 50_000,
        farm_workers: "list | None" = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        connect_timeout: float = 30.0,
        reconnect_attempts: int = 8,
        reconnect_base: float = 0.25,
        reconnect_cap: float = 5.0,
        backoff_rng=None,
    ):
        self.address = address
        self.front_cache_entries = front_cache_entries
        self.farm_workers = list(farm_workers) if farm_workers else None
        self.max_frame_bytes = max_frame_bytes
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_base = reconnect_base
        self.reconnect_cap = reconnect_cap
        self.backoff_rng = backoff_rng
        self.actor_id: "int | None" = None
        self.session: "str | None" = None
        self.rounds = 0
        self.env_steps_kept = 0
        self.reconnects = 0
        self.reconnect_seconds = 0.0
        self.rounds_lost = 0
        self.throttled_rounds = 0
        self._conn = None  # the live learner connection behind pull/push
        # Stable per-process obs identity: sessions rotate on every
        # rejoin while this process's cumulative counters survive, so
        # the learner keys pushed snapshots by source, not session.
        self.obs_source = f"actor-{os.getpid()}-{obslib.trace.new_id()[:6]}"

    # -- setup -----------------------------------------------------------

    def _build(self, join: dict, cache_client: RemoteCacheClient):
        spec = join["spec"]
        library = library_by_name(spec["library"])
        # Leased misses run on the farm workers, if any, else in-process.
        runner = None
        if self.farm_workers:
            from repro.net.farm import RemoteFarmPool

            runner = RemoteFarmPool(self.farm_workers, spec["library"])
        # A bounded front store absorbs this actor's own repeats before
        # they reach the wire.
        backend = EvaluationBackend(
            library,
            store=make_store(max_entries=self.front_cache_entries),
            service=cache_client,
            runner=runner,
        )

        # All replicas hold the one evaluator: the vector env batches every
        # round's evaluations through its backend.
        evaluator = SynthesisEvaluator(
            library,
            w_area=spec["w_area"],
            w_delay=spec["w_delay"],
            backend=backend,
            c_area=spec["c_area"],
            c_delay=spec["c_delay"],
        )
        venv = VectorPrefixEnv.make(
            spec["width"],
            evaluator,
            num_envs=spec["envs_per_actor"],
            horizon=spec["horizon"],
            seed=join["env_seed"],
        )
        net = QNetwork(spec["width"], blocks=spec["blocks"], channels=spec["channels"])
        net.eval()
        total = spec["w_area"] + spec["w_delay"]
        w = np.array([spec["w_area"] / total, spec["w_delay"] / total])
        loop = ActorLoop(
            venv, net, ActionSpace(spec["width"]), w, ensure_rng(join["exploration_seed"]), actor=join["actor_id"]
        )
        return loop, backend

    # -- the link --------------------------------------------------------

    def pull(self, have_version: int, have_digest: "str | None"):
        reply = self._conn.call(
            "pull_weights", {"have_version": have_version, "have_digest": have_digest}
        )
        return reply["version"], reply.get("digest"), reply.get("weights")

    def push(self, round_: dict, epsilon: float) -> dict:
        reply = self._conn.call(
            "push_batch",
            # Piggybacked: this process's cumulative metric snapshot.
            {"epsilon": epsilon, **round_, "obs": obslib.REGISTRY.snapshot(), "obs_source": self.obs_source},
        )
        self.rounds += 1
        self.env_steps_kept += reply["kept"]
        if reply.get("throttle") and not reply["stop"]:
            self.throttled_rounds += 1
        return reply

    # -- the supervised run ----------------------------------------------

    def _dial(self):
        return connect(
            self.address,
            role="actor",
            max_frame_bytes=self.max_frame_bytes,
            timeout=self.heartbeat_timeout,
            connect_timeout=self.connect_timeout,
        )

    def run(self) -> dict:
        """Generate experience until the learner says stop; returns stats.

        The loop is supervised: any wire failure — a refused dial, a
        connection severed mid-round, a learner restart — is answered by
        an exponential-backoff redial (shared :class:`Backoff` policy,
        jittered so a fleet that lost the same learner does not redial in
        lockstep) carrying the session token from the previous ``join``.
        A same-session rejoin keeps the built environment, the network
        snapshot and the exploration RNG stream — the shard resumes, not
        restarts; a reassigned shard rebuilds from the new spec. Only
        ``reconnect_attempts`` *consecutive* failed dials give up; any
        successful join resets the budget.
        """
        backoff = Backoff(
            base=self.reconnect_base, cap=self.reconnect_cap, rng=self.backoff_rng
        )
        conn = None
        loop = None  # the ActorLoop of the live session
        backend = None
        cache_client = None
        dial_failures = 0
        try:
            with obslib.span("actor.run") as run_span:
                while True:
                    # -- (re)dial and join -------------------------------
                    try:
                        conn, _welcome = self._dial()
                        join = conn.call("join", {"session": self.session})
                    except (ProtocolError, OSError) as exc:
                        if conn is not None:
                            conn.close()
                            conn = None
                        dial_failures += 1
                        if dial_failures > self.reconnect_attempts:
                            raise LearnerUnreachable(
                                f"actor gave up on "
                                f"{self.address[0]}:{self.address[1]} "
                                f"after {dial_failures} consecutive failed dials"
                            ) from exc
                        self.reconnect_seconds += backoff.sleep()
                        continue
                    dial_failures = 0
                    backoff.reset()
                    # The learner rotates the session token on every join,
                    # so "same shard, resumed" is its explicit rejoin flag
                    # — not a token comparison.
                    rejoined = (
                        loop is not None
                        and join["actor_id"] == self.actor_id
                        and join.get("rejoin", False)
                    )
                    if loop is not None:
                        self.reconnects += 1
                        obslib.counter("actor.reconnects").inc()
                    self.actor_id = join["actor_id"]
                    self.session = join["session"]
                    self._conn = conn
                    obslib.emit(
                        "actor_joined",
                        actor_id=self.actor_id,
                        session=self.session,
                        rejoin=bool(join.get("rejoin", False)),
                    )
                    if rejoined:
                        # Same shard, same session: keep the environment,
                        # the snapshot network and the exploration RNG
                        # stream — only the cache wiring moves to the new
                        # connection.
                        cache_client.rebind(conn)
                    else:
                        if backend is not None:
                            backend.close()
                        cache_client = RemoteCacheClient(conn)
                        loop, backend = self._build(join, cache_client)
                        if not join["stop"]:
                            loop.venv.reset()
                    try:
                        if not join["stop"]:
                            # The learner mints a trace per round (here and
                            # in every push_batch reply); the loop installs
                            # it around the round body, stamping every span
                            # and CALL the round makes.
                            loop.run(self, join["epsilon"], trace=join.get("trace"))
                        break
                    except (ProtocolError, OSError):
                        # The wire died mid-round: that round's transitions
                        # are lost (counted honestly), the episode streams
                        # are not — back off, redial, rejoin with the
                        # session. The lost-round event keeps the severed
                        # trace's lineage: it carries the round trace the
                        # learner minted, so merged JSONL shows the round
                        # as lost, not as an unexplained orphan.
                        conn.close()
                        conn = None
                        self.rounds_lost += 1
                        obslib.counter("actor.rounds_lost").inc()
                        with obslib.trace.scope(loop.trace):
                            obslib.emit("rounds_lost", total=self.rounds_lost)
                        self.reconnect_seconds += backoff.sleep()
            # Clean teardown: ship the final cumulative snapshot so the
            # learner retires this source — fleet totals keep this
            # process's work after it exits (or is respawned).
            if conn is not None:
                try:
                    conn.call(
                        "push_obs",
                        {
                            "source": self.obs_source,
                            "snapshot": obslib.REGISTRY.snapshot(),
                            "final": True,
                        },
                    )
                except (ProtocolError, OSError):
                    pass  # the learner is already gone: nothing to retire into
            return {
                "actor_id": self.actor_id,
                "session": self.session,
                "rounds": self.rounds,
                "env_steps_kept": self.env_steps_kept,
                "wall_seconds": run_span.seconds,
                "reconnects": self.reconnects,
                "reconnect_seconds": self.reconnect_seconds,
                "rounds_lost": self.rounds_lost,
                "throttled_rounds": self.throttled_rounds,
                "cache_hits": backend.cache_hits,
                "cache_misses": backend.cache_misses,
                "backend": backend.stats(),
            }
        finally:
            if backend is not None:
                backend.close()
            if conn is not None:
                conn.close(bye=True)
