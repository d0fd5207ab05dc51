"""The evaluation backend: the one seam where curves come from.

Every consumer of area-delay curves — :class:`repro.synth.SynthesisEvaluator`,
:class:`repro.env.VectorPrefixEnv`, :class:`repro.rl.Trainer`,
:class:`repro.rl.runtime.TrainingRuntime`,
:class:`repro.net.actor.RemoteActorWorker` — resolves them through an
:class:`EvaluationBackend`, and the resolution loop (dedup a batch, look up
the store, claim or run the misses, write back, count) lives here, once.

A backend is a **store**, an optional **lease service** and an optional
**runner** to run misses on, and it is built one way:
``EvaluationBackend(library, synthesizer, store, service=..., runner=...)``.

- without a service, every store miss is this backend's to run; with one
  (``repro actor``) misses are *claimed* at a learner's
  :class:`repro.synth.leases.SharedCacheService`, so concurrent clients
  never synthesize the same digest twice and ``store`` is a transient
  front;
- without a runner, misses are synthesized in this process (what
  ``repro train`` and plain evaluators get); with one they go to a
  :class:`repro.distributed.SynthesisFarm` (a warm same-host process
  pool) or a :class:`repro.net.farm.RemoteFarmPool` (``repro
  farm-worker`` daemons — ``repro actor --farm``).

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

import time

from repro import obs
from repro.prefix.serialize import graph_digest
from repro.synth.curve import AreaDelayCurve, synthesize_curve
from repro.synth.optimizer import Synthesizer

# The unified stats() schema every construction (and
# TrainingHistory.synthesis_stats) reports. "cache" is the store's own
# counters ({"entries", "hits", "misses", "hit_rate"}) or None for a
# storeless backend. Extension sub-dicts ("lease" with a service, "remote"
# with a remote runner) may be added; these keys are never renamed.
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

# The counters a backend accumulates and checkpoints; the last four only
# move with a lease service attached.
COUNTER_KEYS = (
    "batches",
    "designs",
    "unique_designs",
    "cache_hits",
    "cache_misses",
    "synthesized",
    "lease_granted",
    "lease_waited",
    "wait_hits",
    "reclaimed_grants",
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
    """Curves for prefix graphs: a store, a lease service, a runner.

    Args:
        library / synthesizer: what in-process misses are synthesized
            with, and (by name) the identity half of every store key.
        store: a :class:`repro.store.CurveStore` consulted first and
            written back to; ``None`` runs storeless (every unique design
            of a batch is a miss — a cacheless farm).
        service: optional claim/lease face of a shared cache —
            ``claim(keys, counted=, wait=, wait_timeout=)`` and
            ``put(items, lease_ids=)``:
            :class:`repro.synth.leases.LocalServiceClient` in-process,
            :class:`repro.net.actor.RemoteCacheClient` over the wire.
            ``store`` is then a transient front absorbing this client's
            own repeats; the shared state lives (and is checkpointed)
            behind the service.
        runner: where granted misses run, if not in this process — an
            object with ``run(graphs) -> curves``, ``width`` (designs it
            runs at once), ``name``, ``totals`` (cumulative dispatch
            counters, checkpointed here and reported as ``"remote"``;
            empty for a same-host pool), ``close()``, and the
            ``library_name`` / ``synth_kwargs`` it synthesizes with, which
            must name this backend's library and synthesizer (else
            ``ValueError``: its curves would be stored under the wrong
            keys): a :class:`repro.distributed.SynthesisFarm` or a
            :class:`repro.net.farm.RemoteFarmPool`.
        wait_timeout: seconds to wait on other clients' leases before
            giving up on a batch.

    With a service, each store miss comes back as a value, a granted
    lease (run it and publish) or "wait" (another client is running it;
    the re-claim *parks at the service* until the value arrives —
    long-poll, no client-side sleep). Without one the same loop
    degenerates: every miss is granted, nothing waits. Either way each
    unique digest is synthesized exactly once across every client of the
    shared state.

    One caveat: a *single* synthesis that outlives the service's
    ``lease_timeout`` can still be age-reclaimed and re-run by a waiter —
    duplicate work, never divergent results (curves are deterministic).
    Size the timeout above the slowest single design, exactly like the
    cluster heartbeat it rides on.
    """

    def __init__(
        self,
        library,
        synthesizer: "Synthesizer | None" = None,
        store=None,
        service=None,
        runner=None,
        wait_timeout: float = 300.0,
    ):
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
        self.service = service
        self.runner = runner
        self.wait_timeout = wait_timeout
        for key in COUNTER_KEYS:
            setattr(self, key, 0)

    @property
    def name(self) -> str:
        if self.service is not None:
            return "cluster"
        return self.runner.name if self.runner is not None else "local"

    def key(self, graph) -> tuple:
        """The content key a graph's curve is stored and leased under."""
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
        obs.counter("backend.batches").inc()
        obs.counter("backend.designs").inc(len(order))
        obs.counter("backend.dedup_saved").inc(len(order) - len(unique))
        curves = self._resolve(unique) if unique else []
        return [curves[slot] for slot in order]

    # -- the one resolution loop -------------------------------------------

    def _resolve(self, graphs) -> "list[AreaDelayCurve]":
        """Store lookup, then claim | run | wait until every design has a curve."""
        keys = [self.key(g) for g in graphs]
        store, service = self.store, self.service
        curves = store.get_many(keys) if store is not None else [None] * len(keys)
        pending = [i for i, curve in enumerate(curves) if curve is None]
        self.cache_hits += len(keys) - len(pending)
        obs.counter("backend.cache_hits").inc(len(keys) - len(pending))
        if not pending:
            return curves

        granted: "list[tuple[int, int | None]]" = []  # (index, lease id)
        if service is None:
            # Nobody to share the work with: every miss is ours, and the
            # whole grant runs and is written back in one slice.
            granted = [(i, None) for i in pending]
            self.cache_misses += len(pending)
            waiting: "list[int]" = []
            step = len(pending)
        else:
            replies = service.claim([keys[i] for i in pending], counted=True)
            waiting = self._file_replies(pending, replies, keys, curves, granted, first=True)
            # Publish leased results incrementally (per design in-process,
            # per runner-width slice with a farm) rather than after the
            # whole grant: waiters get values as they exist, and a long
            # batch cannot hold a lease past the service's age-reclamation
            # window just because *later* designs are still synthesizing.
            step = max(self.runner.width, 1) if self.runner is not None else 1

        deadline = time.monotonic() + self.wait_timeout
        while granted or waiting:
            if granted:
                # Useful work first: run what we own while other clients
                # compute what we are waiting on.
                batch, granted = granted[:step], granted[step:]
                idxs = [i for i, _lease in batch]
                fresh = self._run([graphs[i] for i in idxs])
                self.synthesized += len(fresh)
                obs.counter("backend.synthesized").inc(len(fresh))
                items = [(keys[i], curve) for i, curve in zip(idxs, fresh)]
                if service is not None:
                    service.put(items, lease_ids=[lease for _i, lease in batch])
                if store is not None:
                    store.put_many(items)
                for i, curve in zip(idxs, fresh):
                    curves[i] = curve
                continue
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise RuntimeError(
                    f"timed out after {self.wait_timeout:.0f}s waiting on "
                    f"{len(waiting)} leased design(s); the lease holder and "
                    "the service's reclamation both went silent"
                )
            # One blocking re-claim: it parks at the service until a key
            # resolves, a held lease ages out, or the budget passes — the
            # client never sleeps.
            replies = service.claim(
                [keys[i] for i in waiting], counted=False, wait=True, wait_timeout=budget
            )
            waiting = self._file_replies(waiting, replies, keys, curves, granted, first=False)
        return curves

    def _file_replies(self, idxs, replies, keys, curves, granted, first: bool) -> "list[int]":
        """Sort claim replies into values, grants and waits; returns the waits.

        ``first`` tells a first sighting from a re-claim of waited keys: a
        lease arriving on a re-claim means the holder died and the service
        reclaimed it for us.
        """
        arrived = []
        waiting = []
        for i, reply in zip(idxs, replies):
            if "curve" in reply:
                curves[i] = reply["curve"]
                arrived.append((keys[i], reply["curve"]))
                self.cache_hits += 1
                self.wait_hits += not first
            elif "lease" in reply:
                granted.append((i, reply["lease"]))
                self.cache_misses += 1
                if first:
                    self.lease_granted += 1
                else:
                    self.reclaimed_grants += 1
            else:
                waiting.append(i)
                self.lease_waited += first
        if arrived and self.store is not None:
            self.store.put_many(arrived)
        return waiting

    def _run(self, graphs) -> "list[AreaDelayCurve]":
        if self.runner is not None:
            return self.runner.run(graphs)
        return [synthesize_curve(g, self.library, self.synthesizer) for g in graphs]

    # -- telemetry / persistence ------------------------------------------

    def stats(self) -> dict:
        """Counters in the :data:`STATS_KEYS` schema."""
        out = {
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
        if self.service is not None:
            out["lease"] = {
                "granted": self.lease_granted,
                "waited": self.lease_waited,
                "wait_hits": self.wait_hits,
                "reclaimed_grants": self.reclaimed_grants,
            }
        if self.runner is not None and self.runner.totals:
            out["remote"] = {"workers": self.runner.width, **self.runner.totals}
        return out

    def counters_dict(self) -> dict:
        """Every cumulative counter, the runner's included (store state
        rides apart) — the checkpoint record :meth:`load_counters` reads."""
        counters = {key: getattr(self, key) for key in COUNTER_KEYS}
        if self.runner is not None:
            counters.update(self.runner.totals)
        return counters

    def load_counters(self, counters: dict) -> None:
        for key, value in counters.items():
            if key in COUNTER_KEYS:
                setattr(self, key, int(value))
            elif self.runner is not None and key in self.runner.totals:
                self.runner.totals[key] = value

    def state_dict(self) -> dict:
        """Checkpointable state: store contents + counters.

        Behind a service the store is a transient front over state that is
        checkpointed where it lives (the learner), so only counters persist.
        """
        owned = self.store is not None and self.service is None
        return {
            "cache": self.store.state_dict() if owned else None,
            "counters": [self.counters_dict()],
        }

    def load_state_dict(self, state: dict) -> None:
        if self.store is not None and state.get("cache") is not None:
            self.store.load_state_dict(state["cache"])
        counters = state.get("counters") or []
        if counters:
            self.load_counters(counters[0])

    def close(self) -> None:
        """Release the runner's resources (pools, sockets); idempotent."""
        if self.runner is not None:
            self.runner.close()
