"""Remote synthesis farm: worker daemons and the dispatch-side runner.

The multi-host twin of :class:`repro.distributed.SynthesisFarm`: instead of
a local process pool, curve tasks ship over the framed protocol to
:class:`FarmWorkerServer` daemons (``repro farm-worker``) running anywhere,
and :class:`RemoteFarmPool` is the ``runner`` an
:class:`repro.synth.backend.EvaluationBackend` dispatches its misses to
(``repro actor --farm``).

A task is the same-host pool's: ``{"graph": graph JSON}``, under 1 KB at
n=32. The worker parses it and checks it is a legal prefix graph
(:func:`repro.distributed.farm.task_graph`), then runs
:func:`repro.synth.curve.synthesize_curve`, so curves are byte-identical
on every path. Building the adder is worker work: shipping a built netlist
instead cost the dispatcher — the actor's own core — 1.1-2.5 ms and
13-31 KB per n=32 miss, to save the worker 0.9-1.9 ms. A worker with a
store keys it by the digest of the graph it parsed, which is the
dispatcher backend's own key, so no peer can assert a store key.

Workers time each task's parse separately from its synthesis and report
both.
"""

from __future__ import annotations

import threading

from repro import obs
from repro.cells import LOADED_LIBRARIES, library_by_name
from repro.distributed.farm import chunk_curves, chunk_tasks, synthesize_tasks, task_graph
from repro.net.protocol import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_MAX_FRAME_BYTES,
    ProtocolError,
    connect,
    parse_address,
)
from repro.net.server import FramedServer
from repro.prefix.serialize import graph_digest
from repro.synth.curve import synthesize_curve
from repro.synth.optimizer import Synthesizer


class FarmWorkerServer(FramedServer):
    """One remote synthesis worker daemon.

    Serves ``synth_batch`` calls from any number of dispatchers; each call
    carries its own library name and synthesizer kwargs, so one worker can
    serve several experiments. A task without a legal graph fails the call
    with an ERROR reply; the connection stays open.
    """

    roles = ("dispatcher",)

    def __init__(
        self,
        address: "tuple[str, int]" = ("127.0.0.1", 0),
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        store_dir: "str | None" = None,
    ):
        super().__init__(
            address, max_frame_bytes=max_frame_bytes, heartbeat_timeout=heartbeat_timeout
        )
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

    def _synth_batch(self, ctx, params: dict) -> dict:
        library = library_by_name(params["library"])
        synthesizer = Synthesizer(**params.get("synth_kwargs", {}))
        points = []
        setup_seconds = 0.0
        opt_seconds = 0.0
        store_hits = 0
        for task in params["tasks"]:
            with obs.span("farm.task_setup") as setup_span:
                graph = task_graph(task)
            key = None
            if self.store is not None:
                # The dispatcher backend's EvaluationBackend.key(graph).
                key = (graph_digest(graph), library.name, synthesizer.name)
                stored = self.store.get(key)
                if stored is not None:
                    store_hits += 1
                    points.append(stored.points())
                    continue
            with obs.span("farm.task_opt") as opt_span:
                curve = synthesize_curve(graph, library, synthesizer)
            setup_seconds += setup_span.seconds
            opt_seconds += opt_span.seconds
            obs.histogram("farm.setup_seconds").observe(setup_span.seconds)
            obs.histogram("farm.opt_seconds").observe(opt_span.seconds)
            points.append(curve.points())
            if key is not None:
                self.store.put(key, curve)
        self.store_hits += store_hits
        self.tasks_served += len(points)
        obs.counter("farm.batches").inc()
        obs.counter("farm.tasks").inc(len(points))
        obs.counter("farm.store_hits").inc(store_hits)
        return {
            "points": points,
            "setup_seconds": setup_seconds,
            "opt_seconds": opt_seconds,
            "store_hits": store_hits,
        }

    def _worker_info(self, ctx, params) -> dict:
        return {
            "tasks_served": self.tasks_served,
            "libraries_loaded": sorted(LOADED_LIBRARIES),
            "store": self.store.stats() if self.store is not None else None,
        }

    def server_close(self) -> None:
        super().server_close()
        if self.store is not None:
            self.store.close()  # releases the single-writer lock


class RemoteFarmPool:
    """Run synthesis misses on :class:`FarmWorkerServer` daemons.

    Args:
        addresses: ``host:port`` strings (or ``(host, port)`` tuples), one
            per worker; the runner's ``width`` is their count.
        library_name / synth_kwargs: what every task is synthesized with;
            must match the backend's library and synthesizer name.
        max_frame_bytes / timeout: per-connection wire limits.

    Owns one connection per worker (dialed lazily, redialed after a drop)
    and fans a batch's chunks across them — chunks are assigned round-robin
    and each worker's share runs on its own thread, so multi-worker
    dispatch overlaps while one socket stays strictly request/response.
    """

    def __init__(
        self,
        addresses: list,
        library_name: str = "nangate45",
        synth_kwargs: "dict | None" = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout: float = 300.0,
    ):
        if not addresses:
            raise ValueError("need at least one worker address")
        self.addresses = [parse_address(a) if isinstance(a, str) else tuple(a) for a in addresses]
        self.library_name = library_name
        self.synth_kwargs = dict(synth_kwargs or {})
        self.max_frame_bytes = max_frame_bytes
        self.timeout = timeout
        self._conns: "list" = [None] * len(self.addresses)
        # What the latest synth_chunks call cost, worker-side, and the
        # cumulative sums the backend checkpoints and reports as "remote".
        self.last = {
            "worker_setup_seconds": 0.0,
            "worker_opt_seconds": 0.0,
            "redispatched_tasks": 0,
        }
        self.totals = dict(self.last)

    @property
    def width(self) -> int:
        """Designs in flight at once: the worker count."""
        return len(self.addresses)

    @property
    def name(self) -> str:
        return f"farm-remote[{self.width}]"

    def run(self, graphs) -> "list":
        """Synthesize ``graphs`` on the workers; order matches the input.

        Pure dispatch: the backend has already deduped the batch and
        routed it around the store. One chunk per worker.
        """
        chunk_points = self.synth_chunks(chunk_tasks(graphs, self.width))
        for key, value in self.last.items():
            self.totals[key] += value
        return chunk_curves(chunk_points)

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

    def synth_chunks(self, chunks: "list[list[dict]]") -> "list[list[list[tuple[float, float]]]]":
        """Run every chunk of tasks; returns per-chunk curve point lists.

        Dispatch is supervised: a worker whose chunk dies terminally (the
        one-redial retry inside ``call_worker`` already absorbed the
        transient case) is dropped from the alive set and its unfinished
        chunks are *re-dispatched* round-robin over the survivors — the
        lease-reclamation idea applied to dispatch. With no survivors the
        leftovers run through local synthesis (byte-identical curves, just
        slower); tasks are never silently dropped — that would corrupt the
        runner's order contract.
        """
        library, synth_kwargs = self.library_name, self.synth_kwargs
        results: "list" = [None] * len(chunks)
        last = self.last = dict.fromkeys(self.last, 0)
        last_lock = threading.Lock()
        alive = list(range(len(self.addresses)))
        remaining = list(range(len(chunks)))

        def call_worker(worker: int, tasks: "list[dict]", retried: bool = False) -> dict:
            """One chunk through one worker, redialing once on a wire failure.

            Workers drop connections idle beyond their heartbeat timeout;
            a dispatcher coming back after a quiet stretch must not fail
            its first batch on the stale socket.
            """
            conn = self._conn(worker)
            params = {"library": library, "synth_kwargs": synth_kwargs, "tasks": tasks}
            try:
                return conn.call("synth_batch", params)
            except ProtocolError:
                self._drop(worker)
                if retried:
                    raise
                return call_worker(worker, tasks, retried=True)

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
                        obs.histogram(
                            f"dispatch.chunk_seconds{label}"
                        ).observe(chunk_span.seconds)
                        obs.histogram(
                            f"dispatch.worker_opt_seconds{label}"
                        ).observe(reply["opt_seconds"])
                        with last_lock:
                            last["worker_setup_seconds"] += reply["setup_seconds"]
                            last["worker_opt_seconds"] += reply["opt_seconds"]
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
        """Sever worker ``i``: close the socket; the next call redials."""
        conn = self._conns[i]
        self._conns[i] = None
        if conn is not None:
            conn.close()

    def close(self) -> None:
        """Say goodbye on every open worker connection; idempotent."""
        for i in range(len(self._conns)):
            conn = self._conns[i]
            self._conns[i] = None
            if conn is not None:
                conn.close(bye=True)
