"""Parallel synthesis on a warm same-host process pool.

A :class:`SynthesisFarm` is a *place to run misses*: the ``runner`` of an
:class:`repro.synth.backend.EvaluationBackend`, which does everything else
the paper's 192-worker farm needs to survive its synthesis budget
(Sections IV-D / V-C) — digest-level dedup of a batch's duplicate graphs,
store routing so only misses reach a runner, write-back and cumulative
counters. Its face is ``run(graphs)``, ``width``, ``name``, ``close()``,
``library_name`` and ``synth_kwargs``.

Each batch ships as at most ``width`` chunks (:func:`chunk_tasks`: one IPC
round trip per worker, not per task) to a pool that is spawned and warmed
once and reused across batches. Workers rebuild the library/synthesizer
from registry names (cell libraries are code, not data, so only names
cross the process boundary), and curves come back as plain sample points.
The task is ``{"graph": graph JSON}``: workers parse it
(:func:`task_graph`, which checks legality) and run
:func:`repro.synth.curve.synthesize_curve`, so the adder build is worker
work and the dispatcher's cost per miss is one small JSON string.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.cells import library_by_name
from repro.prefix.graph import PrefixGraph
from repro.prefix.serialize import graph_from_json, graph_to_json
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


def chunk_tasks(graphs: "list[PrefixGraph]", width: int) -> "list[list[dict]]":
    """The farm tasks for ``graphs``, in at most ``width`` contiguous chunks
    of near-equal size (one per worker); flattening them keeps the order."""
    tasks = [{"graph": graph_to_json(g)} for g in graphs]
    size = max(1, -(-len(tasks) // width))
    return [tasks[c : c + size] for c in range(0, len(tasks), size)]


def chunk_curves(chunk_points) -> "list[AreaDelayCurve]":
    """Per-chunk sample-point lists back to one flat list of curves."""
    return [AreaDelayCurve.from_points(pts) for points in chunk_points for pts in points]


def synthesize_tasks(tasks: "list[dict]", library_name: str, synth_kwargs: dict):
    """The worker-side task function: a chunk of tasks in, sample points out.

    One :func:`synthesize_curve`, so a worker's curves are byte-identical
    to in-process synthesis.
    """
    library = library_by_name(library_name)
    synthesizer = Synthesizer(**synth_kwargs)
    return [synthesize_curve(task_graph(t), library, synthesizer).points() for t in tasks]


def _warm_worker(library_name: str) -> bool:
    """Force worker start-up costs (imports, library build) off the clock."""
    library_by_name(library_name)
    return True


class SynthesisFarm:
    """Run synthesis misses on a warm same-host process pool.

    Args:
        library_name: registry name (``nangate45`` / ``industrial8nm``);
            must match the backend's library.
        num_workers: pool size (>= 1); also the runner's ``width``.
        synth_kwargs: :class:`repro.synth.Synthesizer` overrides shipped to
            workers (must be picklable); the resulting synthesizer name
            must match the backend's.

    The pool is created lazily on the first :meth:`run` (or eagerly, and
    warmed, by ``with farm: ...``) and reused until :meth:`close`.
    """

    def __init__(
        self,
        library_name: str = "nangate45",
        num_workers: int = 4,
        synth_kwargs: "dict | None" = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.library_name = library_name
        self.num_workers = num_workers
        self.synth_kwargs = dict(synth_kwargs or {})
        self._pool: "ProcessPoolExecutor | None" = None

    @property
    def width(self) -> int:
        """Designs in flight at once: the worker count."""
        return self.num_workers

    @property
    def name(self) -> str:
        return f"farm-pool[{self.width}]"

    def __enter__(self) -> "SynthesisFarm":
        self._ensure_pool()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> None:
        """Create and warm the worker pool (one-time; reused across batches)."""
        if self._pool is not None:
            return
        self._pool = ProcessPoolExecutor(max_workers=self.num_workers)
        warmups = [
            self._pool.submit(_warm_worker, self.library_name)
            for _ in range(self.num_workers)
        ]
        for f in warmups:
            try:
                f.result()
            except KeyError:
                # Unknown library: surface with the first run, not at
                # pool spin-up.
                break

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def run(self, graphs: "list[PrefixGraph]") -> "list[AreaDelayCurve]":
        """Synthesize ``graphs`` on the workers; order matches the input.

        Pure dispatch: the backend has already deduped the batch and
        routed it around the store. One future per chunk.
        """
        self._ensure_pool()
        futures = [
            self._pool.submit(synthesize_tasks, chunk, self.library_name, self.synth_kwargs)
            for chunk in chunk_tasks(graphs, self.width)
        ]
        return chunk_curves(future.result() for future in futures)
