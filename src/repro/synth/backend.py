"""The evaluation backend: the one seam where curves come from.

Every consumer of area-delay curves — :class:`repro.synth.SynthesisEvaluator`,
:class:`repro.env.VectorPrefixEnv`, :class:`repro.rl.Trainer`,
:class:`repro.rl.runtime.TrainingRuntime` — resolves them through an
:class:`EvaluationBackend`, and the resolution loop (dedup a batch, look up
the store, run the misses, write back, count) lives here, once.

A backend is a **store** and an optional **runner** to run misses on, and
it is built one way: ``EvaluationBackend(library, synthesizer, store,
runner)``. Without a runner, misses are synthesized in this process (what
``repro train`` and plain evaluators get); with one they go to a
:class:`repro.distributed.SynthesisFarm` (a warm same-host process pool).

A caller that knows which designs it will ask for next, and has other work
to do first, calls :meth:`~EvaluationBackend.prefetch`: their store misses
start on the runner, or on one worker process of the backend's own
(started by the first prefetch), and the next :meth:`evaluate_many` of
them collects the curves instead of synthesizing them. A prefetch counts
nothing and moves no store counter or LRU position, so every stat and
every store byte is what the same calls without it would give. A miss
nobody prefetched is synthesized as before; one whose worker died is
synthesized in this process.

Every construction produces byte-identical curves for the same designs
(every path bottoms out in the same synthesis ladder) and reports the same
:data:`STATS_KEYS` counter schema from :meth:`~EvaluationBackend.stats`.

A training run resolves through one backend: the replicas of a
:class:`repro.env.VectorPrefixEnv` hold one evaluator over it (the env
exposes it as ``env.backend``), so its :meth:`~EvaluationBackend.stats` are
the run's ``TrainingHistory.synthesis_stats`` and its
:meth:`~EvaluationBackend.state_dict` is the run checkpoint's one
evaluation record.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor

from repro.prefix.serialize import graph_digest
from repro.synth.curve import AreaDelayCurve, synthesize_curve
from repro.synth.optimizer import Synthesizer

# The unified stats() schema every construction (and
# TrainingHistory.synthesis_stats) reports. "cache" is the store's own
# counters ({"entries", "hits", "misses", "hit_rate"}) or None for a
# storeless backend. These keys are never renamed.
STATS_KEYS = (
    "backend",         # str: which construction produced the numbers
    "batches",         # evaluate_many calls served
    "designs",         # graphs requested (before any dedup)
    "unique_designs",  # after in-batch digest dedup
    "dedup_saved",     # designs - unique_designs
    "cache_hits",      # unique designs served from a store (local or shared)
    "cache_misses",    # unique designs that missed every store
    "synthesized",     # designs this backend actually ran
    "cache",           # store counters dict, or None
)

# The counters a backend accumulates and checkpoints.
COUNTER_KEYS = (
    "batches",
    "designs",
    "unique_designs",
    "cache_hits",
    "cache_misses",
    "synthesized",
)


def cache_counters(cache) -> "dict | None":
    """The ``"cache"`` sub-dict of the stats schema for any cache-like."""
    if cache is None:
        return None
    hits = int(getattr(cache, "hits", 0))
    misses = int(getattr(cache, "misses", 0))
    lookups = hits + misses
    return {
        "entries": len(cache),
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


class EvaluationBackend:
    """Curves for prefix graphs: a store and a runner.

    Args:
        library / synthesizer: what in-process misses are synthesized
            with, and (by name) the identity half of every store key.
        store: a :class:`repro.store.CurveStore` consulted first and
            written back to; ``None`` runs storeless (every unique design
            of a batch is a miss — a cacheless farm).
        runner: where misses run, if not in this process — an object with
            ``run(graphs) -> curves``, ``name``, ``close()``, and the
            ``library_name`` / ``synth_kwargs`` it synthesizes with, which
            must name this backend's library and synthesizer (else
            ``ValueError``: its curves would be stored under the wrong
            keys): a :class:`repro.distributed.SynthesisFarm`.
    """

    def __init__(self, library, synthesizer: "Synthesizer | None" = None, store=None, runner=None):
        self.library = library
        self.synthesizer = synthesizer if synthesizer is not None else Synthesizer()
        if runner is not None:
            if runner.library_name != library.name:
                raise ValueError(
                    f"runner library {runner.library_name!r} != backend library {library.name!r}"
                )
            runner_synth = Synthesizer(**runner.synth_kwargs).name
            if runner_synth != self.synthesizer.name:
                raise ValueError(
                    f"runner synthesizer {runner_synth!r} != backend synthesizer "
                    f"{self.synthesizer.name!r}"
                )
        self.store = store
        self.runner = runner
        for key in COUNTER_KEYS:
            setattr(self, key, 0)
        self._worker = None  # a runner-less backend's prefetch worker, started by the first prefetch
        self._inflight: "dict[tuple, tuple]" = {}  # content key -> submit handle of a prefetched miss

    @property
    def name(self) -> str:
        return self.runner.name if self.runner is not None else "local"

    def key(self, graph) -> tuple:
        """The content key a graph's curve is stored under."""
        return (graph_digest(graph), self.library.name, self.synthesizer.name)

    # -- the one entry point ---------------------------------------------

    def evaluate_many(self, graphs) -> "list[AreaDelayCurve]":
        """Curves for a batch of graphs; order matches the input.

        Duplicate graphs in one batch resolve to a single evaluation (RL
        batches repeat states constantly — the reason the paper caches).
        """
        slots: "dict[bytes, int]" = {}
        unique = []
        order = []
        for graph in graphs:
            slot = slots.setdefault(graph.key(), len(unique))
            if slot == len(unique):
                unique.append(graph)
            order.append(slot)
        self.batches += 1
        self.designs += len(order)
        self.unique_designs += len(unique)
        curves = self._resolve(unique) if unique else []
        return [curves[slot] for slot in order]

    def prefetch(self, graphs) -> None:
        """Start synthesizing the store misses among ``graphs`` off this
        process and return at once; the next :meth:`evaluate_many` that asks
        for them collects the curves. Counts nothing: the store is asked
        with ``contains_many``, which ticks no counter and moves no LRU
        position."""
        fresh = {}
        for graph in graphs:
            key = self.key(graph)
            if key not in self._inflight:
                fresh.setdefault(key, graph)
        if fresh and self.store is not None:
            known = self.store.contains_many(list(fresh))
            fresh = {key: graph for (key, graph), hit in zip(fresh.items(), known) if not hit}
        if not fresh:
            return
        if self.runner is None and self._worker is None:
            from repro.distributed.farm import SynthesisFarm  # the farm imports synthesis

            self._worker = SynthesisFarm.worker(self.library, self.synthesizer)
        try:
            handles = (self.runner or self._worker).submit(list(fresh.values()))
        except BrokenExecutor:
            self._drop_worker()
            return
        self._inflight.update(zip(fresh, handles))

    # -- the one resolution loop -------------------------------------------

    def _resolve(self, graphs) -> "list[AreaDelayCurve]":
        """Store lookup, then run every miss, then write the misses back."""
        keys = [self.key(g) for g in graphs]
        store = self.store
        curves = store.get_many(keys) if store is not None else [None] * len(keys)
        pending = [i for i, curve in enumerate(curves) if curve is None]
        self.cache_hits += len(keys) - len(pending)
        if self._inflight and len(pending) < len(keys):
            for key, curve in zip(keys, curves):
                if curve is not None:  # the store has it now: nothing waits for the prefetch
                    self._inflight.pop(key, None)
        if not pending:
            return curves
        self.cache_misses += len(pending)
        fresh = self._run([graphs[i] for i in pending], [keys[i] for i in pending])
        self.synthesized += len(fresh)
        if store is not None:
            store.put_many([(keys[i], curve) for i, curve in zip(pending, fresh)])
        for i, curve in zip(pending, fresh):
            curves[i] = curve
        return curves

    def _run(self, graphs, keys) -> "list[AreaDelayCurve]":
        """The misses' curves: prefetched ones collected, the rest run here or on the runner."""
        curves = [self._collect(self._inflight.pop(key)) if key in self._inflight else None for key in keys]
        rest = [i for i, curve in enumerate(curves) if curve is None]
        if rest:
            todo = [graphs[i] for i in rest]
            if self.runner is not None:
                done = self.runner.run(todo)
            else:
                done = [synthesize_curve(g, self.library, self.synthesizer) for g in todo]
            for i, curve in zip(rest, done):
                curves[i] = curve
        return curves

    def _collect(self, handle) -> "AreaDelayCurve | None":
        """A prefetched curve, or None when its worker died before handing it over."""
        from repro.distributed.farm import collect

        try:
            return collect(handle)
        except BrokenExecutor:
            self._drop_worker()
            return None

    def _drop_worker(self) -> None:
        """Stop the prefetch worker and forget what it held; the next prefetch starts another."""
        if self._worker is not None:
            self._worker.close()
            self._worker = None
        self._inflight.clear()

    # -- telemetry / persistence ------------------------------------------

    def stats(self) -> dict:
        """Counters in the :data:`STATS_KEYS` schema."""
        return {
            "backend": self.name,
            "batches": self.batches,
            "designs": self.designs,
            "unique_designs": self.unique_designs,
            "dedup_saved": self.designs - self.unique_designs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "synthesized": self.synthesized,
            "cache": cache_counters(self.store),
        }

    def counters_dict(self) -> dict:
        """Every cumulative counter (store state rides apart) — the
        checkpoint record :meth:`load_counters` reads."""
        return {key: getattr(self, key) for key in COUNTER_KEYS}

    def load_counters(self, counters: dict) -> None:
        """Restore the counters ``counters`` names; a key that is not in
        :data:`COUNTER_KEYS` is a ``ValueError``."""
        unknown = sorted(set(counters) - set(COUNTER_KEYS))
        if unknown:
            raise ValueError(f"unknown backend counters {unknown}; a backend counts {list(COUNTER_KEYS)}")
        for key, value in counters.items():
            setattr(self, key, int(value))

    def state_dict(self) -> dict:
        """Checkpointable state: store contents + counters."""
        return {
            "cache": self.store.state_dict() if self.store is not None else None,
            "counters": self.counters_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        if self.store is not None and state["cache"] is not None:
            self.store.load_state_dict(state["cache"])
        self.load_counters(state["counters"])

    def close(self) -> None:
        """Release the runner's and the prefetch worker's processes; idempotent.
        The backend stays usable: a later prefetch or run starts them again."""
        self._drop_worker()
        if self.runner is not None:
            self.runner.close()
