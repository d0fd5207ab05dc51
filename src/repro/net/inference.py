"""Shared batched-inference service: one large-batch forward for many actors.

The paper's throughput story (and Circuit Training's production shape) is a
collection/inference split: actor processes do not each run their own small
Q-network forward per round — they ship features to one inference server
that coalesces concurrent requests into a single large-batch ``predict``.
On one CPU that converts many tiny GEMMs into fewer large ones (the recorded
win is the batch-coalescing ratio, not wall-clock — the repo's
honest-measurement policy); on real parallel hardware it is what turns the
cluster wiring into steps/sec.

:class:`InferenceServer` follows the :class:`~repro.net.learner.LearnerServer`
bind-then-attach pattern: ``repro cluster`` binds the port before training
state exists, then attaches the learner's live
:class:`repro.distributed.PolicyHub` — the server refreshes its weights
straight from the hub (digest-keyed, in-process) before every coalesced
forward, so actors served by it never need their own ``pull_weights``
traffic. Requests carry the *scalarization weight vector* per call, so one
server can serve actors with different area/delay trade-offs.

:class:`InferenceClient` is deliberately failure-shaped: any wire trouble
(server absent, killed mid-run, timeout) returns ``None`` and backs off, and
the caller — :class:`repro.net.actor.RemoteActorWorker` — falls back to its
local network. Inference service is an accelerator, never a single point of
failure. Application-level rejections (oversized batch, width mismatch)
arrive as ERROR frames that keep the connection alive.

Exploration stays client-side: actors draw their epsilon decisions from
their own RNG streams and only ship the exploiting rows, so the exploration
trajectory of a run does not depend on which process computed the argmax.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

from repro import obs
from repro.net.backoff import Backoff
from repro.net.protocol import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_MAX_FRAME_BYTES,
    ProtocolError,
    RemoteError,
    connect,
)
from repro.net.server import FramedServer

#: Exactly the keys of :meth:`InferenceServer.stats_dict` (schema pin).
SERVER_STATS_KEYS = (
    "requests",
    "rows",
    "batches",
    "max_coalesced",
    "coalescing",
    "version",
)

#: Exactly the keys of :meth:`InferenceClient.stats` (schema pin).
CLIENT_STATS_KEYS = ("requests", "rows", "wire_failures", "rejected")


class _Pending:
    """One enqueued act request waiting for the batcher to serve it."""

    __slots__ = ("features", "masks", "w", "event", "result", "error")

    def __init__(self, features, masks, w):
        self.features = features
        self.masks = masks
        self.w = w
        self.event = threading.Event()
        self.result = None
        self.error = None


class InferenceServer(FramedServer):
    """Batched act-inference over the framed protocol.

    Handler threads validate and enqueue; a single batcher thread coalesces
    whatever is queued — up to ``max_batch`` rows, waiting at most
    ``max_wait`` seconds for stragglers after the first request arrives —
    into one ``predict`` and answers every request from its slice. A single
    request larger than ``max_batch`` is rejected outright (ERROR reply;
    the client falls back to local inference).
    """

    roles = ("actor",)

    def __init__(
        self,
        address: "tuple[str, int]" = ("127.0.0.1", 0),
        max_batch: int = 256,
        max_wait: float = 0.005,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        state_wait: float = 60.0,
        reply_wait: float = 60.0,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be nonnegative")
        super().__init__(
            address, max_frame_bytes=max_frame_bytes, heartbeat_timeout=heartbeat_timeout
        )
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.state_wait = state_wait
        self.reply_wait = reply_wait
        self._hub = None
        self._net = None
        self._actions = None
        self._version = 0
        self._digest: "str | None" = None
        self._ready = threading.Event()
        self._queue: "queue.Queue[_Pending]" = queue.Queue()
        self._carry: "_Pending | None" = None
        self._batcher: "threading.Thread | None" = None
        self._stats_lock = threading.Lock()
        self.requests = 0
        self.rows = 0
        self.batches = 0
        self.max_coalesced = 0
        self.methods = {
            "act_batch": self._act_batch,
            "stats": self._stats,
        }

    # -- lifecycle -------------------------------------------------------

    def attach(self, hub, network, actions) -> None:
        """Publish the policy source: the learner's hub, an inference
        network of the right architecture, and its action space."""
        network.eval()
        self._hub = hub
        self._net = network
        self._actions = actions
        self._refresh_weights()
        self._ready.set()

    def start(self) -> None:
        super().start()
        self._batcher = threading.Thread(
            target=self._batch_loop, name="inference-batcher", daemon=True
        )
        self._batcher.start()

    def stop(self) -> None:
        super().stop()  # sets self.closing, so the batcher loop exits
        if self._batcher is not None:
            self._batcher.join(timeout=10.0)
            self._batcher = None
        self._fail_queued(RuntimeError("inference server stopped"))

    def _fail_queued(self, exc: BaseException) -> None:
        if self._carry is not None:
            self._carry.error = exc
            self._carry.event.set()
            self._carry = None
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                return
            pending.error = exc
            pending.event.set()

    # -- weight subscription ---------------------------------------------

    def _refresh_weights(self) -> None:
        """Adopt the hub's newest publication (digest-keyed, in-process)."""
        version, digest, weights = self._hub.pull(self._version, self._digest)
        if weights is not None:
            self._net.load_state_arrays(weights)
            self._net.eval()
        self._version = version
        self._digest = digest

    # -- the batcher -----------------------------------------------------

    def _batch_loop(self) -> None:
        while not self.closing:
            if self._carry is not None:
                first, self._carry = self._carry, None
            else:
                try:
                    first = self._queue.get(timeout=0.1)
                except queue.Empty:
                    continue
            batch = [first]
            rows = first.features.shape[0]
            deadline = time.monotonic() + self.max_wait
            while rows < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    nxt = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if rows + nxt.features.shape[0] > self.max_batch:
                    self._carry = nxt  # head of the next coalesced batch
                    break
                batch.append(nxt)
                rows += nxt.features.shape[0]
            try:
                self._serve_batch(batch, rows)
            except BaseException as exc:  # answer, never wedge the waiters
                for pending in batch:
                    pending.error = exc
                    pending.event.set()

    def _serve_batch(self, batch: "list[_Pending]", rows: int) -> None:
        self._refresh_weights()
        features = (
            batch[0].features
            if len(batch) == 1
            else np.concatenate([p.features for p in batch])
        )
        with obs.span("inference.forward", rows=rows, requests=len(batch)) as fwd:
            qmaps = self._net.predict(features)
        flat = self._actions.qmaps_to_flat(qmaps)  # (rows, A, 2)
        offset = 0
        for pending in batch:
            k = pending.features.shape[0]
            sl = flat[offset : offset + k]
            scalar = np.where(pending.masks, sl @ pending.w, -np.inf)
            chosen = np.argmax(scalar, axis=1)
            pending.result = {
                "actions": chosen.astype(np.int64),
                "q": scalar[np.arange(k), chosen],
                "version": self._version,
                "batch_rows": rows,
                "batch_requests": len(batch),
            }
            offset += k
            pending.event.set()
        with self._stats_lock:
            self.batches += 1
            self.requests += len(batch)
            self.rows += rows
            self.max_coalesced = max(self.max_coalesced, rows)
        obs.counter("inference.batches").inc()
        obs.counter("inference.requests").inc(len(batch))
        obs.counter("inference.rows").inc(rows)
        obs.histogram("inference.forward_seconds").observe(fwd.seconds)

    # -- methods ---------------------------------------------------------

    def _act_batch(self, ctx, params) -> dict:
        if not self._ready.wait(timeout=self.state_wait):
            raise RuntimeError("inference server is not ready (no policy attached)")
        features = np.asarray(params["features"])
        masks = np.asarray(params["legal_masks"], dtype=bool)
        w = np.asarray(params["w"], dtype=np.float64)
        n = self._net.n
        if features.ndim != 4 or features.shape[1:] != (4, n, n):
            raise ValueError(
                f"expected (k,4,{n},{n}) features, got {features.shape} "
                "(actor/learner width mismatch?)"
            )
        k = features.shape[0]
        size = self._actions.size
        if masks.shape != (k, size):
            raise ValueError(
                f"expected ({k},{size}) legal masks, got {masks.shape}"
            )
        if w.shape != (2,):
            raise ValueError(f"expected a 2-objective weight vector, got {w.shape}")
        if k == 0:
            raise ValueError("empty act batch")
        if k > self.max_batch:
            raise ValueError(
                f"batch of {k} rows exceeds the server's max_batch={self.max_batch}"
            )
        if not masks.any(axis=1).all():
            raise ValueError("no legal actions available in some state")
        pending = _Pending(features, masks, w)
        self._queue.put(pending)
        if not pending.event.wait(timeout=self.reply_wait):
            raise RuntimeError(
                f"inference batcher did not answer within {self.reply_wait:.0f}s"
            )
        if pending.error is not None:
            raise RuntimeError(f"inference forward failed: {pending.error}")
        return pending.result

    def _stats(self, ctx, params) -> dict:
        return self.stats_dict()

    def stats_dict(self) -> dict:
        """Service counters; ``coalescing`` is mean requests per forward."""
        with self._stats_lock:
            return {
                "requests": self.requests,
                "rows": self.rows,
                "batches": self.batches,
                "max_coalesced": self.max_coalesced,
                "coalescing": self.requests / self.batches if self.batches else 0.0,
                "version": self._version,
            }


class InferenceClient:
    """Actor-side handle: remote act-or-``None`` with lazy dial and backoff.

    ``act_batch`` returns the server's reply dict, or ``None`` whenever the
    service cannot answer — unreachable, killed mid-run, timed out, or an
    application-level rejection — after which the caller should act on its
    local network. Wire failures drop the connection and start a jittered
    exponential backoff window (the shared :class:`~repro.net.backoff.Backoff`
    policy, capped at ``retry_after``) so a fleet of actors that lost the
    same server neither hammers it nor redials in lockstep; a successful
    call resets the backoff. Application errors keep the connection alive.
    """

    def __init__(
        self,
        address: "tuple[str, int]",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        connect_timeout: float = 5.0,
        retry_after: float = 10.0,
        backoff_rng=None,
    ):
        self.address = address
        self.max_frame_bytes = max_frame_bytes
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self.retry_after = retry_after
        self._backoff = Backoff(
            base=min(1.0, retry_after), cap=retry_after, rng=backoff_rng
        )
        self._conn = None
        self._blocked_until = 0.0
        self.requests = 0
        self.rows = 0
        self.wire_failures = 0
        self.rejected = 0

    # -- connection management -------------------------------------------

    def _ensure_conn(self):
        if self._conn is not None:
            return self._conn
        if time.monotonic() < self._blocked_until:
            return None
        try:
            self._conn, _welcome = connect(
                self.address,
                role="actor",
                max_frame_bytes=self.max_frame_bytes,
                timeout=self.heartbeat_timeout,
                connect_timeout=self.connect_timeout,
            )
        except (ProtocolError, OSError):
            self.wire_failures += 1
            self._blocked_until = time.monotonic() + self._backoff.next_delay()
            return None
        return self._conn

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._blocked_until = time.monotonic() + self._backoff.next_delay()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close(bye=True)
            self._conn = None

    # -- the call --------------------------------------------------------

    def act_batch(self, features, legal_masks, w) -> "dict | None":
        """Remote batched act; ``None`` means "fall back to local"."""
        conn = self._ensure_conn()
        if conn is None:
            return None
        features = np.asarray(features)
        try:
            reply = conn.call(
                "act_batch",
                {
                    "features": features,
                    "legal_masks": np.asarray(legal_masks),
                    "w": np.asarray(w, dtype=np.float64),
                },
            )
        except RemoteError:
            # The server answered (it is alive) but rejected this request.
            self.rejected += 1
            obs.counter("inference_client.rejected").inc()
            return None
        except ProtocolError:
            self.wire_failures += 1
            obs.counter("inference_client.wire_failures").inc()
            self._drop()
            return None
        self.requests += 1
        self.rows += features.shape[0]
        obs.counter("inference_client.requests").inc()
        obs.counter("inference_client.rows").inc(features.shape[0])
        self._backoff.reset()
        return reply

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "rows": self.rows,
            "wire_failures": self.wire_failures,
            "rejected": self.rejected,
        }
