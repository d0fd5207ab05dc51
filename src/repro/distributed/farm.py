"""Parallel synthesis on a warm same-host process pool.

A :class:`SynthesisFarm` is a *place to run misses*: the ``runner`` of an
:class:`repro.synth.backend.EvaluationBackend`, which does everything else
the paper's 192-worker farm needs to survive its synthesis budget
(Sections IV-D / V-C) — digest-level dedup of a batch's duplicate graphs,
store routing so only misses reach a runner, write-back and cumulative
counters. Its face is ``run(graphs)``, ``submit(graphs)``, ``width``,
``name``, ``close()``, ``library_name`` and ``synth_kwargs``. A backend
without a runner starts one :meth:`SynthesisFarm.worker` of its own to
prefetch on (:meth:`repro.synth.EvaluationBackend.prefetch`).

Each batch ships as at most ``width`` chunks (:func:`chunk_tasks`: one IPC
round trip per worker, not per task) to a pool that is started once and
reused across batches. Workers rebuild the library/synthesizer from
registry names (cell libraries are code, not data, so only names cross the
process boundary), or, for a :meth:`~SynthesisFarm.worker`, are handed the
exact objects once at start; curves come back as plain sample points.
The task is ``{"graph": graph JSON}``: workers parse it
(:func:`task_graph`, which checks legality) and run
:func:`repro.synth.curve.synthesize_curve`, so the adder build is worker
work and the dispatcher's cost per miss is one small JSON string.

Workers are forked from the caller (:data:`START_METHOD`): a worker starts
in milliseconds with everything the caller already imported, and a script
that trains at top level, without an ``if __name__ == "__main__":`` guard,
is not run again inside it (spawn and forkserver workers re-import the
main module, and a fresh interpreter pays numpy's and the library's
imports). The caller's only other threads at the fork are its BLAS
library's idle workers, which hold nothing a synthesis worker takes;
Python 3.12+ still warns (``DeprecationWarning``) that the process is
multi-threaded. A forked worker inherits the caller's open files, so it
must not outlive the caller: each one exits as soon as its parent is gone
(:func:`_start_worker`), and a :class:`repro.store.DiskStore`'s
one-writer lock is closed in every forked child.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor

from repro.cells import library_by_name
from repro.prefix.graph import PrefixGraph
from repro.prefix.serialize import graph_from_json, graph_to_json
from repro.synth.curve import AreaDelayCurve, synthesize_curve
from repro.synth.optimizer import Synthesizer

#: How pool workers are started: forked where the platform can fork.
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"

# The (library, synthesizer) a SynthesisFarm.worker process was handed at start.
_TOOLS = None


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


def synthesize_tasks(tasks: "list[dict]", library_name: str, synth_kwargs: dict):
    """The worker-side task function: a chunk of tasks in, sample points out.

    One :func:`synthesize_curve`, so a worker's curves are byte-identical
    to in-process synthesis. A :meth:`SynthesisFarm.worker` process uses
    the library and synthesizer it was handed; others build them by name.
    """
    if _TOOLS is not None:
        library, synthesizer = _TOOLS
    else:
        library, synthesizer = library_by_name(library_name), Synthesizer(**synth_kwargs)
    return [synthesize_curve(task_graph(t), library, synthesizer).points() for t in tasks]


def _start_worker(parent: int, tools) -> None:
    """Every pool worker's initializer: keep the ``(library, synthesizer)``
    a :meth:`SynthesisFarm.worker` is handed (None for the others) and
    exit once process ``parent``, the caller, is gone. A pool worker waits
    on a queue the caller's death does not close, and an orphan would hold
    the caller's inherited files (a store's directory, a pipe's write end)
    for good."""
    global _TOOLS
    _TOOLS = tools
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def _exit_with(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.1)
    os._exit(1)


def _warm_worker(library_name: str) -> bool:
    """Force worker start-up costs (imports, library build) off the clock."""
    library_by_name(library_name)
    return True


def collect(handle: "tuple[Future, int]") -> AreaDelayCurve:
    """The curve a :meth:`SynthesisFarm.submit` handle stands for (waits for it)."""
    future, index = handle
    return AreaDelayCurve.from_points(future.result()[index])


def _shutdown(pool: ProcessPoolExecutor) -> None:
    pool.shutdown(wait=True, cancel_futures=True)


class SynthesisFarm:
    """Run synthesis misses on a warm same-host process pool.

    Args:
        library_name: registry name (``nangate45`` / ``industrial8nm``);
            must match the backend's library.
        num_workers: pool size (>= 1); also the runner's ``width``.
        synth_kwargs: :class:`repro.synth.Synthesizer` overrides shipped to
            workers (must be picklable); the resulting synthesizer name
            must match the backend's.

    The pool is created lazily on the first :meth:`submit` (or eagerly, and
    warmed, by ``with farm: ...``) and reused until :meth:`close`, until the
    farm is garbage collected, or until the process exits.
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
        self._tools = None
        self._pool: "ProcessPoolExecutor | None" = None
        self._finalizer = None

    @classmethod
    def worker(cls, library, synthesizer: Synthesizer) -> "SynthesisFarm":
        """One worker process that synthesizes with exactly ``library`` and
        ``synthesizer``, handed to it once when it starts (any library, not
        only a registry one)."""
        farm = cls(library.name, 1)
        farm._tools = (library, synthesizer)
        return farm

    @property
    def width(self) -> int:
        """Designs in flight at once: the worker count."""
        return self.num_workers

    @property
    def name(self) -> str:
        return f"farm-pool[{self.width}]"

    def __enter__(self) -> "SynthesisFarm":
        self._ensure_pool()
        warmups = [self._pool.submit(_warm_worker, self.library_name) for _ in range(self.num_workers)]
        for f in warmups:
            try:
                f.result()
            except KeyError:
                # Unknown library: surface with the first run, not at
                # pool spin-up.
                break
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> None:
        """Create the worker pool (one-time; reused across batches). Returns
        at once: workers start while the caller goes on."""
        if self._pool is not None:
            return
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=multiprocessing.get_context(START_METHOD),
            initializer=_start_worker,
            initargs=(os.getpid(), self._tools),
        )
        self._finalizer = weakref.finalize(self, _shutdown, self._pool)

    def close(self) -> None:
        """Shut the pool down, dropping work not yet started; idempotent."""
        if self._pool is not None:
            self._finalizer()
            self._pool = None

    def submit(self, graphs: "list[PrefixGraph]") -> "list[tuple[Future, int]]":
        """Start synthesizing ``graphs`` on the workers and return at once.

        One future per chunk; the result is one handle per graph, in input
        order, that :func:`collect` turns into its curve.
        """
        self._ensure_pool()
        handles = []
        for chunk in chunk_tasks(graphs, self.width):
            future = self._pool.submit(synthesize_tasks, chunk, self.library_name, self.synth_kwargs)
            handles.extend((future, i) for i in range(len(chunk)))
        return handles

    def run(self, graphs: "list[PrefixGraph]") -> "list[AreaDelayCurve]":
        """Synthesize ``graphs`` on the workers; order matches the input.

        Pure dispatch: the backend has already deduped the batch and
        routed it around the store.
        """
        return [collect(handle) for handle in self.submit(graphs)]
