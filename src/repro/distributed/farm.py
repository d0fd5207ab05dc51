"""Parallel synthesis across worker processes (or remote worker daemons).

A :class:`SynthesisFarm` is a *place to run misses*: it owns the pool or
remote-connection lifecycle, slices a batch into per-worker chunks,
dispatches them, and records what each batch cost (:class:`FarmStats`).
Everything else the paper's 192-worker farm needs to survive its
synthesis budget (Sections IV-D / V-C) — digest-level dedup of a batch's
duplicate graphs, cache-aware routing so only misses cross the process
boundary, write-back, cumulative counters — is the
:class:`repro.synth.backend.EvaluationBackend` the farm owns
(``farm.backend``) and is the runner of; :meth:`SynthesisFarm.evaluate_curves`
and :meth:`SynthesisFarm.stats` are views of it.

Tasks ship in ``num_workers`` chunks (one IPC round trip per worker, not
per task) to a pool that is spawned and warmed once and reused across
batches. Workers rebuild the library/synthesizer from registry names
(cell libraries are code, not data, so only names cross the process
boundary), and curves come back as plain sample points. Every transport
ships the same task, ``{"graph": graph JSON}``: the same-host pool, the
``remote_workers`` — :class:`repro.net.farm.FarmWorkerServer` daemons
over the framed socket protocol — and the serial reference all parse it
(:func:`task_graph`, which checks legality) and run
:func:`repro.synth.curve.synthesize_curve`, so the adder build is worker
work and the dispatcher's cost per miss is one small JSON string.

``num_workers=0`` with no remote workers is the un-optimized reference
the Sec. V-C speedup is measured against: the plain per-graph loop, each
graph a batch of its own, so nothing dedups.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

from repro import obs
from repro.cells import library_by_name
from repro.prefix.graph import PrefixGraph
from repro.prefix.serialize import graph_from_json, graph_to_json
from repro.synth.backend import EvaluationBackend
from repro.synth.curve import AreaDelayCurve, synthesize_curve
from repro.synth.optimizer import Synthesizer


def task_graph(task) -> PrefixGraph:
    """The legal prefix graph a farm task carries (``{"graph": graph JSON}``).

    Anything else — a missing graph, malformed JSON, an illegal node set —
    raises ``ValueError`` naming the problem.
    """
    if not isinstance(task, dict) or "graph" not in task:
        got = sorted(task) if isinstance(task, dict) else type(task).__name__
        raise ValueError(f"farm task carries no graph (got {got})")
    try:
        return graph_from_json(task["graph"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"farm task graph is not a legal prefix graph: {exc!r}") from exc


def synthesize_tasks(tasks: "list[dict]", library_name: str, synth_kwargs: dict):
    """The worker-side task function: a chunk of tasks in, sample points out.

    Pool workers, the serial reference and a remote pool's no-survivor
    rescue all run this; the farm-worker daemon runs the same two calls
    per task around its optional store. One :func:`synthesize_curve`
    everywhere, so curves are byte-identical wherever a task lands.
    """
    library = library_by_name(library_name)
    synthesizer = Synthesizer(**synth_kwargs)
    return [synthesize_curve(task_graph(t), library, synthesizer).points() for t in tasks]


def _warm_worker(library_name: str) -> bool:
    """Force worker start-up costs (imports, library build) off the clock."""
    library_by_name(library_name)
    return True


@dataclass
class FarmStats:
    """Throughput and dispatch-accounting record of one batch evaluation."""

    num_graphs: int
    wall_seconds: float
    mode: str
    unique_graphs: int = 0
    cache_hits: int = 0
    dispatched: int = 0
    chunks: int = 0
    worker_setup_seconds: float = 0.0  # remote only: worker-side task parse time
    worker_opt_seconds: float = 0.0    # remote only: worker-side curve synthesis time
    redispatched: int = 0              # remote only: tasks re-dispatched off a dead worker

    @property
    def graphs_per_second(self) -> float:
        return self.num_graphs / self.wall_seconds if self.wall_seconds > 0 else 0.0


class SynthesisFarm:
    """Evaluate batches of graphs with a process pool (or serially).

    Args:
        library_name: registry name (``nangate45`` / ``industrial8nm``).
        num_workers: pool size; 0 means the naive serial in-process loop
            (no dedup) used as the speedup reference.
        synth_kwargs: :class:`repro.synth.Synthesizer` overrides shipped to
            workers (must be picklable).
        cache: optional shared :class:`repro.store.CurveStore` for the
            farm's backend; hits are served locally and results written
            back. Pass one cache to several farms (or batches) to share
            synthesis work between them.
        chunk_size: graphs per worker submission; default splits each
            batch's misses evenly across the pool.
        remote_workers: ``host:port`` addresses (or ``(host, port)``
            tuples) of :class:`repro.net.farm.FarmWorkerServer` daemons;
            mutually exclusive with a local pool (``num_workers`` must be
            0 when given — the farm is then in remote mode). When every
            worker has died mid-dispatch the leftovers are synthesized
            in-process (same curves, slower).

    The pool is created lazily on first pooled evaluation (or eagerly by
    ``with farm: ...``) and reused until :meth:`close`.
    """

    def __init__(
        self,
        library_name: str = "nangate45",
        num_workers: int = 4,
        synth_kwargs: "dict | None" = None,
        cache=None,
        chunk_size: "int | None" = None,
        remote_workers: "list | None" = None,
    ):
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if remote_workers is not None and num_workers:
            raise ValueError(
                "remote_workers and a local pool are mutually exclusive; "
                "pass num_workers=0 with remote_workers"
            )
        self.library_name = library_name
        self.num_workers = num_workers
        self.synth_kwargs = dict(synth_kwargs or {})
        self.chunk_size = chunk_size
        self.remote_workers = None
        self._remote = None
        # Cumulative worker-side accounting only a remote farm has; the
        # backend checkpoints it and reports it as stats()["remote"].
        self.totals: dict = {}
        if remote_workers is not None:
            from repro.net.protocol import parse_address

            self.remote_workers = [
                parse_address(a) if isinstance(a, str) else tuple(a)
                for a in remote_workers
            ]
            if not self.remote_workers:
                raise ValueError("remote_workers must name at least one worker")
            self.totals = {
                "worker_setup_seconds": 0.0,
                "worker_opt_seconds": 0.0,
                "redispatched_tasks": 0,
            }
        self._initial_cache = cache
        self._pool: "ProcessPoolExecutor | None" = None
        self._chunks = 0
        self.last_stats: "FarmStats | None" = None

    @cached_property
    def backend(self) -> EvaluationBackend:
        """The backend this farm is the runner of (dedup, cache routing and
        cumulative counters live there). Built on first use, so an unknown
        library surfaces with the evaluation call, not at construction."""
        return EvaluationBackend(
            library_by_name(self.library_name),
            Synthesizer(**self.synth_kwargs),
            self._initial_cache,
            runner=self,
        )

    @property
    def cache(self):
        return self.backend.store

    @cache.setter
    def cache(self, store) -> None:
        self.backend.store = store

    @property
    def active(self) -> bool:
        """True when the farm has a dispatch layer (pool or remote) —
        the serial num_workers=0 reference mode is not one."""
        return self.num_workers > 0 or self.remote_workers is not None

    @property
    def width(self) -> int:
        """Designs in flight at once: the worker count (1 when serial)."""
        return len(self.remote_workers or []) or self.num_workers or 1

    @property
    def name(self) -> str:
        if self.remote_workers is not None:
            return f"farm-remote[{self.width}]"
        return f"farm-pool[{self.width}]" if self.num_workers else "farm-serial"

    def __enter__(self) -> "SynthesisFarm":
        self._ensure_pool()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> None:
        """Create and warm the worker pool (one-time; reused across batches)."""
        if self.remote_workers is not None and self._remote is None:
            from repro.net.farm import RemoteFarmPool

            self._remote = RemoteFarmPool(self.remote_workers)
        if self.num_workers > 0 and self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.num_workers)
            warmups = [
                self._pool.submit(_warm_worker, self.library_name)
                for _ in range(self.num_workers)
            ]
            for f in warmups:
                try:
                    f.result()
                except KeyError:
                    # Unknown library: surface lazily with the evaluation
                    # call (matching serial-mode behavior), not at pool spin-up.
                    break

    def close(self) -> None:
        """Shut the pool (and any remote connections) down."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._remote is not None:
            self._remote.close()
            self._remote = None

    def _counters(self) -> dict:
        return {**self.backend.counters_dict(), "chunks": self._chunks}

    def evaluate_curves(self, graphs: "list[PrefixGraph]") -> "list[AreaDelayCurve]":
        """Synthesize every graph's curve; order matches the input.

        Pool and remote modes resolve the batch through the farm's
        backend: dedup by digest, serve cache hits locally, and ship only
        the unique misses to the workers in per-worker chunks. Serial mode
        is the naive reference: each graph is a batch of its own.

        The batch is timed by a ``farm.evaluate`` obs span (its measured
        seconds *are* ``FarmStats.wall_seconds`` — one timing source for
        stats and the event log), and :attr:`last_stats` is what the
        backend's (and this farm's) cumulative counters moved by.
        """
        backend = self.backend
        mode = self.name.removeprefix("farm-")
        before = self._counters()
        with obs.span("farm.evaluate", graphs=len(graphs), mode=mode) as batch_span:
            if self.active:
                curves = backend.evaluate_many(graphs)
            else:
                curves = [backend.evaluate_many([g])[0] for g in graphs]
        moved = {key: value - before[key] for key, value in self._counters().items()}
        self.last_stats = FarmStats(
            num_graphs=len(graphs),
            wall_seconds=batch_span.seconds,
            mode=mode,
            unique_graphs=moved["unique_designs"],
            cache_hits=moved["cache_hits"],
            dispatched=moved["synthesized"],
            chunks=moved["chunks"],
            worker_setup_seconds=moved.get("worker_setup_seconds", 0.0),
            worker_opt_seconds=moved.get("worker_opt_seconds", 0.0),
            redispatched=moved.get("redispatched_tasks", 0),
        )
        return curves

    def run(self, graphs: "list[PrefixGraph]") -> "list[AreaDelayCurve]":
        """Synthesize ``graphs`` on the workers; order matches the input.

        The backend's runner face — pure dispatch: the caller has already
        deduped the batch and routed it around the store.
        """
        tasks = [{"graph": graph_to_json(g)} for g in graphs]
        if not self.active:
            chunk_points = [synthesize_tasks(tasks, self.library_name, self.synth_kwargs)]
        else:
            self._ensure_pool()
            # Chunked submission: one future (or one remote call) per slice.
            size = self.chunk_size or max(1, -(-len(tasks) // self.width))
            chunks = [tasks[c : c + size] for c in range(0, len(tasks), size)]
            self._chunks += len(chunks)
            if self.remote_workers is not None:
                chunk_points = self._remote.synth_chunks(
                    chunks, self.library_name, self.synth_kwargs
                )
                for key, value in self._remote.last.items():
                    self.totals[key] += value
            else:
                futures = [
                    self._pool.submit(
                        synthesize_tasks, chunk, self.library_name, self.synth_kwargs
                    )
                    for chunk in chunks
                ]
                chunk_points = [future.result() for future in futures]
        return [
            AreaDelayCurve.from_points(pts) for points in chunk_points for pts in points
        ]

    def stats(self) -> dict:
        """Cumulative counters in the unified backend stats schema
        (:data:`repro.synth.backend.STATS_KEYS`) — the farm's backend's.

        ``dedup_saved`` counts graphs that never even reached the cache
        because an identical graph sat in the same batch; ``synthesized``
        is the dispatched count (every miss crosses to a worker). The
        nested ``cache`` dict reflects the shared store (None when the
        farm runs cacheless); remote farms add a ``remote`` extension.
        Consumed by :class:`repro.rl.Trainer` telemetry and the scaling
        benchmarks.
        """
        return self.backend.stats()
