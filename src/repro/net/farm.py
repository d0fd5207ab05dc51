"""Remote synthesis farm: worker daemons and the dispatch-side pool.

The multi-host half of :class:`repro.distributed.SynthesisFarm`: instead of
a local process pool, curve tasks ship over the framed protocol to
:class:`FarmWorkerServer` daemons (``repro farm-worker``) running anywhere.

Dispatchers ship *prepared designs*: the adder netlist is built once,
dispatch-side, and its serialized form
(:func:`repro.netlist.serialize.netlist_to_dict`) crosses the wire, so the
worker skips the graph parse/validation and netlist construction entirely
(a ``graph`` JSON payload is still understood — it is the same-host pool's
task form and shares the worker-side task functions of
:mod:`repro.distributed.farm`).

Workers additionally keep a digest-keyed LRU of built netlists (the
ROADMAP's "per-worker prepared caches"), time their per-task setup
(obtaining a Netlist) separately from optimization, and report both — the
``cluster`` bench section records those timings. Curves are
byte-identical across all paths: every one ends in the same
:func:`repro.synth.curve.curve_from_prepared` ladder.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import obs
from repro.cells import LOADED_LIBRARIES, library_by_name
from repro.distributed.farm import synthesize_netlist, synthesize_tasks, task_netlist
from repro.net.protocol import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_MAX_FRAME_BYTES,
    ProtocolError,
    connect,
)
from repro.net.server import FramedServer
from repro.synth.optimizer import Synthesizer


class FarmWorkerServer(FramedServer):
    """One remote synthesis worker daemon.

    Serves ``synth_batch`` calls from any number of dispatchers; each call
    carries its own library name and synthesizer kwargs, so one worker can
    serve several experiments. ``prepared_cache_entries`` bounds the
    digest-keyed netlist LRU (0 disables it — the bench does this so the
    shipped-vs-rebuilt comparison is not contaminated by cache hits).
    """

    roles = ("dispatcher",)

    def __init__(
        self,
        address: "tuple[str, int]" = ("127.0.0.1", 0),
        prepared_cache_entries: int = 10_000,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        store_dir: "str | None" = None,
    ):
        super().__init__(
            address, max_frame_bytes=max_frame_bytes, heartbeat_timeout=heartbeat_timeout
        )
        self.prepared_cache_entries = prepared_cache_entries
        self._prepared: "OrderedDict[str, object]" = OrderedDict()
        self._prepared_lock = threading.Lock()
        self.tasks_served = 0
        # Optional durable curve store: a task whose (digest, library,
        # synthesizer) curve is already on disk is served without touching
        # the optimizer at all, and fresh curves are appended for future
        # runs — a respawned worker restarts warm.
        self.store = None
        self.store_hits = 0
        if store_dir:
            from repro.store.disk import DiskStore

            self.store = DiskStore(store_dir)
        self.methods = {"synth_batch": self._synth_batch, "worker_info": self._worker_info}

    # -- prepared-netlist LRU -------------------------------------------

    def _prepared_get(self, digest: "str | None"):
        if digest is None or not self.prepared_cache_entries:
            return None
        with self._prepared_lock:
            netlist = self._prepared.get(digest)
            if netlist is not None:
                self._prepared.move_to_end(digest)
            return netlist

    def _prepared_put(self, digest: "str | None", netlist) -> None:
        if digest is None or not self.prepared_cache_entries:
            return
        with self._prepared_lock:
            self._prepared[digest] = netlist
            self._prepared.move_to_end(digest)
            while len(self._prepared) > self.prepared_cache_entries:
                self._prepared.popitem(last=False)

    # -- methods ---------------------------------------------------------

    def _obtain_netlist(self, task: dict, library):
        """Task payload -> Netlist, via the prepared cache when possible.

        A *digest-only* task (the dispatcher elided the payload because it
        believes this worker already holds the design) that misses the
        prepared cache returns ``None`` — the dispatcher must re-ship the
        full payload. Anything else without a payload is a protocol error.
        """
        digest = task.get("digest")
        cached = self._prepared_get(digest)
        if cached is not None:
            return cached.clone(), True
        if digest is not None and "netlist" not in task and "graph" not in task:
            return None, False  # elided payload, evicted here: report missing
        netlist = task_netlist(task, library)
        self._prepared_put(digest, netlist.clone())
        return netlist, False

    def _store_key(self, task: dict, params: dict, synthesizer) -> "tuple | None":
        digest = task.get("digest")
        if self.store is None or digest is None:
            return None
        return (digest, params["library"], synthesizer.name)

    def _synth_batch(self, ctx, params: dict) -> dict:
        library = library_by_name(params["library"])
        synthesizer = Synthesizer(**params.get("synth_kwargs", {}))
        points = []
        missing = []
        setup_seconds = 0.0
        opt_seconds = 0.0
        prepared_hits = 0
        store_hits = 0
        for index, task in enumerate(params["tasks"]):
            key = self._store_key(task, params, synthesizer)
            if key is not None:
                stored = self.store.get(key)
                if stored is not None:
                    # Durable hit: no netlist, no optimizer — even a
                    # digest-only (payload-elided) task is servable.
                    store_hits += 1
                    points.append(stored.points())
                    continue
            with obs.span("farm.task_setup") as setup_span:
                netlist, hit = self._obtain_netlist(task, library)
            if netlist is None:
                missing.append(index)
                points.append(None)
                continue
            with obs.span("farm.task_opt") as opt_span:
                curve = synthesize_netlist(netlist, synthesizer)
            setup_seconds += setup_span.seconds
            opt_seconds += opt_span.seconds
            obs.histogram("farm.setup_seconds").observe(setup_span.seconds)
            obs.histogram("farm.opt_seconds").observe(opt_span.seconds)
            prepared_hits += bool(hit)
            points.append(curve.points())
            if key is not None:
                self.store.put(key, curve)
        self.store_hits += store_hits
        self.tasks_served += len(points) - len(missing)
        obs.counter("farm.batches").inc()
        obs.counter("farm.tasks").inc(len(points) - len(missing))
        obs.counter("farm.store_hits").inc(store_hits)
        obs.counter("farm.prepared_hits").inc(prepared_hits)
        return {
            "points": points,
            "missing": missing,
            "setup_seconds": setup_seconds,
            "opt_seconds": opt_seconds,
            "prepared_hits": prepared_hits,
            "prepared_enabled": bool(self.prepared_cache_entries),
            "store_hits": store_hits,
        }

    def _worker_info(self, ctx, params) -> dict:
        return {
            "tasks_served": self.tasks_served,
            "prepared_cache_entries": len(self._prepared),
            "libraries_loaded": sorted(LOADED_LIBRARIES),
            "store": self.store.stats() if self.store is not None else None,
        }

    def server_close(self) -> None:
        super().server_close()
        if self.store is not None:
            self.store.close()  # releases the single-writer lock


class RemoteFarmPool:
    """Dispatch-side view of a set of :class:`FarmWorkerServer` daemons.

    Owns one connection per worker (dialed lazily, redialed after a drop)
    and fans a list of task chunks across them — chunks are assigned
    round-robin and each worker's share runs on its own thread, so
    multi-worker dispatch overlaps while one socket stays strictly
    request/response.

    The pool also keeps a per-worker LRU of *shipped* design digests: a
    task whose digest this worker has already received (and whose prepared
    LRU is enabled) is sent digest-only, eliding the serialized-netlist
    payload. The elision is strictly an optimization with two safety
    valves: a worker that evicted the design answers ``missing`` and the
    full payload is re-shipped on the spot, and any connection drop
    (redial-on-use after an idle timeout, worker restart, wire error)
    clears that worker's shipped LRU *before* the retry payload is built —
    a reconnect therefore never replays a stale prepared id at a worker
    that may no longer hold (or be) what the LRU remembered.
    """

    def __init__(
        self,
        addresses: "list[tuple[str, int]]",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout: float = 300.0,
        shipped_entries: int = 10_000,
    ):
        if not addresses:
            raise ValueError("need at least one worker address")
        self.addresses = list(addresses)
        self.max_frame_bytes = max_frame_bytes
        self.timeout = timeout
        self.shipped_entries = shipped_entries
        self._conns: "list" = [None] * len(addresses)
        self._shipped: "list[OrderedDict[str, None]]" = [
            OrderedDict() for _ in addresses
        ]
        self._elidable = [True] * len(addresses)
        # What the latest synth_chunks call cost, worker-side (the
        # farm folds these into its cumulative totals, key for key).
        self.last = {
            "worker_setup_seconds": 0.0,
            "worker_opt_seconds": 0.0,
            "prepared_hits": 0,
            "shipped_elided": 0,
            "redispatched_tasks": 0,
        }

    def __len__(self) -> int:
        return len(self.addresses)

    def _conn(self, i: int):
        if self._conns[i] is None:
            conn, _welcome = connect(
                self.addresses[i],
                role="dispatcher",
                max_frame_bytes=self.max_frame_bytes,
                timeout=self.timeout,
            )
            self._conns[i] = conn
        return self._conns[i]

    # -- shipped-digest LRU (per worker, touched only by its drive thread) --

    def _elide_task(self, worker: int, task: dict) -> "tuple[dict, bool]":
        """The payload to actually send: digest-only when already shipped."""
        digest = task.get("digest")
        if (
            digest is None
            or not self.shipped_entries
            or not self._elidable[worker]
            or digest not in self._shipped[worker]
        ):
            return task, False
        self._shipped[worker].move_to_end(digest)
        return {"digest": digest}, True

    def _record_shipped(self, worker: int, digest: "str | None") -> None:
        if digest is None or not self.shipped_entries:
            return
        shipped = self._shipped[worker]
        shipped[digest] = None
        shipped.move_to_end(digest)
        while len(shipped) > self.shipped_entries:
            shipped.popitem(last=False)

    def synth_chunks(
        self,
        chunks: "list[list[dict]]",
        library: str,
        synth_kwargs: dict,
    ) -> "list[list[list[tuple[float, float]]]]":
        """Run every chunk of tasks; returns per-chunk curve point lists.

        Dispatch is supervised: a worker whose chunk dies terminally (the
        one-redial retry inside ``call_worker`` already absorbed the
        transient case) is dropped from the alive set and its unfinished
        chunks are *re-dispatched* round-robin over the survivors — the
        lease-reclamation idea applied to dispatch. With no survivors the
        leftovers run through local synthesis (byte-identical curves, just
        slower); tasks are never silently dropped — that would corrupt the
        farm's order contract.
        """
        results: "list" = [None] * len(chunks)
        last = self.last = dict.fromkeys(self.last, 0)
        last_lock = threading.Lock()
        alive = list(range(len(self.addresses)))
        remaining = list(range(len(chunks)))

        def call_worker(worker: int, tasks: "list[dict]", retried: bool = False) -> dict:
            """One chunk through one worker, redialing once on a wire failure.

            Workers drop connections idle beyond their heartbeat timeout;
            a dispatcher coming back after a quiet stretch must not fail
            its first batch on the stale socket. The elided payload is
            rebuilt *per attempt* — :meth:`_drop` has wiped the shipped
            LRU by the time the retry runs, so the reconnect ships full
            payloads instead of replaying now-stale prepared ids.
            """
            conn = self._conn(worker)
            wire_tasks = []
            elided = 0
            for task in tasks:
                sendable, was_elided = self._elide_task(worker, task)
                wire_tasks.append(sendable)
                elided += was_elided
            params = {
                "library": library,
                "synth_kwargs": synth_kwargs,
                "tasks": wire_tasks,
            }
            try:
                reply = conn.call("synth_batch", params)
            except ProtocolError:
                self._drop(worker)
                if retried:
                    raise
                return call_worker(worker, tasks, retried=True)
            missing = reply.get("missing") or []
            if missing:
                # The worker evicted designs we elided: forget them and
                # re-ship the full payloads in one follow-up call. A wire
                # failure here gets the same one-redial treatment as the
                # primary call — the whole chunk is resent full-payload
                # against the wiped LRU.
                for j in missing:
                    self._shipped[worker].pop(tasks[j].get("digest"), None)
                try:
                    retry = conn.call(
                        "synth_batch",
                        {
                            "library": library,
                            "synth_kwargs": synth_kwargs,
                            "tasks": [tasks[j] for j in missing],
                        },
                    )
                except ProtocolError:
                    self._drop(worker)
                    if retried:
                        raise
                    return call_worker(worker, tasks, retried=True)
                if retry.get("missing"):
                    raise ProtocolError(
                        f"worker {self.addresses[worker]} reported full-payload "
                        "tasks as missing"
                    )
                for j, pts in zip(missing, retry["points"]):
                    reply["points"][j] = pts
                reply["setup_seconds"] += retry["setup_seconds"]
                reply["opt_seconds"] += retry["opt_seconds"]
                reply["prepared_hits"] += retry["prepared_hits"]
                elided -= len(missing)
            if not reply.get("prepared_enabled", True):
                # The worker runs without a prepared LRU: eliding against it
                # would bounce every repeat through the missing path.
                self._elidable[worker] = False
                self._shipped[worker].clear()
            else:
                for task in tasks:
                    self._record_shipped(worker, task.get("digest"))
            reply["shipped_elided"] = max(elided, 0)
            return reply

        # Drive threads do not inherit the caller's contextvars: capture
        # the round trace here so every worker CALL (and the farm worker's
        # own spans under it) joins the calling round's tree.
        round_trace = obs.trace.wire_context()

        def drive(worker: int, chunk_ids: "list[int]", dead: list) -> None:
            host, port = self.addresses[worker]
            label = f"{{worker={host}:{port}}}"
            try:
                with obs.trace.scope(round_trace):
                    for c in chunk_ids:
                        with obs.span(
                            "dispatch.chunk", worker=f"{host}:{port}"
                        ) as chunk_span:
                            reply = call_worker(worker, chunks[c])
                        results[c] = reply["points"]
                        obs.counter("dispatch.chunks").inc()
                        obs.counter("dispatch.tasks").inc(len(chunks[c]))
                        obs.counter("dispatch.shipped_elided").inc(
                            reply["shipped_elided"]
                        )
                        obs.histogram(
                            f"dispatch.chunk_seconds{label}"
                        ).observe(chunk_span.seconds)
                        obs.histogram(
                            f"dispatch.worker_opt_seconds{label}"
                        ).observe(reply["opt_seconds"])
                        with last_lock:
                            last["worker_setup_seconds"] += reply["setup_seconds"]
                            last["worker_opt_seconds"] += reply["opt_seconds"]
                            last["prepared_hits"] += reply["prepared_hits"]
                            last["shipped_elided"] += reply["shipped_elided"]
            except BaseException:
                self._drop(worker)
                dead.append(worker)

        # Each iteration either finishes every remaining chunk or shrinks
        # the alive set — the loop is bounded by the worker count.
        while remaining and alive:
            by_worker: "dict[int, list[int]]" = {}
            for pos, c in enumerate(remaining):
                by_worker.setdefault(alive[pos % len(alive)], []).append(c)
            dead: "list[int]" = []
            threads = [
                threading.Thread(target=drive, args=(w, ids, dead), daemon=True)
                for w, ids in by_worker.items()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for worker in dead:
                alive.remove(worker)
            remaining = [c for c in remaining if results[c] is None]
            if dead and remaining:
                moved = sum(len(chunks[c]) for c in remaining)
                last["redispatched_tasks"] += moved
                obs.counter("dispatch.redispatched_tasks").inc(moved)
                obs.emit(
                    "farm_redispatch",
                    tasks=moved,
                    dead_workers=[
                        f"{self.addresses[w][0]}:{self.addresses[w][1]}"
                        for w in dead
                    ],
                )
        # Every worker is gone mid-dispatch: rescue the leftovers locally.
        for c in remaining:
            results[c] = synthesize_tasks(chunks[c], library, synth_kwargs)
        return results

    def _drop(self, i: int) -> None:
        """Sever worker ``i``: close the socket and forget what it holds.

        Clearing the shipped LRU here (not at redial time) is what makes
        the retry path safe — the next payload is built against an empty
        set, so nothing digest-only reaches a worker we cannot vouch for.
        """
        conn = self._conns[i]
        self._conns[i] = None
        self._shipped[i].clear()
        if conn is not None:
            conn.close()

    def close(self) -> None:
        for i in range(len(self._conns)):
            conn = self._conns[i]
            self._conns[i] = None
            self._shipped[i].clear()
            if conn is not None:
                conn.close(bye=True)
