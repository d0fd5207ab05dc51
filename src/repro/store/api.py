"""The ``CurveStore`` protocol: one API for every place curves live.

PrefixRL's economics hinge on never paying for the same synthesis twice
(the paper's 64b runs spend ~256 CPU-hours per agent on synthesis), so
the whole stack funnels curve provenance through caches. This module
names the contract those caches share, so consumers stop caring *where*
curves live:

- :class:`repro.synth.SynthesisCache` — the canonical in-memory
  implementation (bounded LRU, the paper's Section IV-D cache);
- :class:`repro.store.DiskStore` — disk-backed content-addressed store
  (append-only segments, atomic compaction, mmap reads, torn-tail
  recovery) that outlives any process;
- :class:`repro.store.LayeredStore` — a memory front over a disk store:
  LRU-speed hits, durable writes.

A store maps a *content key* — the tuple
``(graph_digest, library_name, synthesizer_name)`` used everywhere in
the repo — to an :class:`repro.synth.AreaDelayCurve`. Keys are
content-addressed: the same design synthesized anywhere hashes to the
same key, which is what makes cross-process and cross-run reuse sound.

Every implementation provides::

    get(key) / put(key, value)            # single-key
    get_many(keys) / put_many(items)      # batched, one lock acquisition
    contains_many(keys)                   # batched ``in``: no counter, no LRU move
    hits / misses / hit_rate              # lookup accounting
    stats()                               # uniform counters dict
    state_dict() / load_state_dict()      # checkpoint face
    __len__ / reset_stats / close

:func:`make_store` is the one factory every curve consumer constructs
through (:mod:`repro.synth.backend`, ``repro train --store-dir``):
``store_dir=None`` gives the classic in-memory cache, a path gives a
layered memory-over-disk store.
"""

from __future__ import annotations

#: Base keys every :meth:`CurveStore.stats` reports (schema pin —
#: implementations extend, never rename; see the conformance test in
#: ``tests/synth/test_stats_schema.py``).
STATS_BASE_KEYS = ("entries", "hits", "misses", "hit_rate")


class CurveStore:
    """Protocol base for curve stores (digest-keyed curve persistence).

    Subclasses implement the storage itself; this base supplies the
    derived accounting every implementation shares. ``hits``/``misses``
    are instance attributes maintained by the subclass.
    """

    hits: int = 0
    misses: int = 0

    # -- required surface -------------------------------------------------

    def get(self, key: tuple):
        """The cached curve or None; ticks hit/miss counters."""
        raise NotImplementedError

    def put(self, key: tuple, value) -> None:
        """Store one curve under its content key."""
        raise NotImplementedError

    def get_many(self, keys: "list[tuple]") -> "list":
        """Batched :meth:`get`; a value-or-None list aligned with keys."""
        raise NotImplementedError

    def put_many(self, items: "list[tuple]") -> None:
        """Batched :meth:`put` of ``(key, value)`` pairs."""
        raise NotImplementedError

    def contains_many(self, keys: "list[tuple]") -> "list[bool]":
        """Batched ``in``: which keys the store holds. Ticks no hit/miss
        counter and moves no LRU position, so asking changes nothing a
        later :meth:`get_many` reports."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Checkpointable state, in the one schema all stores share:

        ``{"max_entries", "hits", "misses", "entries"}`` where
        ``entries`` is ``[[key, points], ...]`` for memory-resident
        stores and ``None`` for disk-backed ones (their contents are
        already durable on disk — the checkpoint only carries counters).
        """
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict` (entries=None restores counters only)."""
        raise NotImplementedError

    # -- shared accounting -------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 when nothing has been looked up)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """Uniform counters: at least ``entries/hits/misses/hit_rate``.

        Implementations extend this dict (disk stores add segment and
        recovery counters) but never rename the base keys — the
        ``"cache"`` sub-dict of :data:`repro.synth.backend.STATS_KEYS`
        is built from them.
        """
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def close(self) -> None:
        """Release resources (file handles, mmaps); idempotent."""


def encode_entries(entries: "list[tuple[tuple, object]]") -> "list":
    """``[(key, curve), ...]`` -> the JSON-safe ``[[key, points], ...]``."""
    from repro.synth.curve import AreaDelayCurve

    encoded = []
    for key, value in entries:
        if not isinstance(value, AreaDelayCurve):
            raise TypeError(
                f"cannot serialize curve-store value of type {type(value).__name__}"
            )
        encoded.append([list(key), value.points()])
    return encoded


def decode_entries(encoded: "list") -> "list[tuple[tuple, object]]":
    """Inverse of :func:`encode_entries`."""
    from repro.synth.curve import AreaDelayCurve

    return [
        (tuple(key), AreaDelayCurve.from_points(points)) for key, points in encoded
    ]


def make_store(
    store_dir=None,
    max_entries: int = 400_000,
    front_entries: "int | None" = None,
    sync: bool = False,
):
    """The one curve-store factory every consumer constructs through.

    - ``store_dir=None`` — a :class:`repro.synth.SynthesisCache`
      (bounded in-memory LRU; exactly the pre-store behavior).
    - ``store_dir=<path>`` — a :class:`repro.store.LayeredStore`:
      an LRU memory front (``front_entries``, defaulting to
      ``max_entries``) over a :class:`repro.store.DiskStore` rooted at
      the path. The cache now outlives the process: a warm restart
      against the same directory re-serves every previously synthesized
      design without paying synthesis again.

    ``sync=True`` makes the disk store fsync once per ``put_many``, before
    it returns (crash-durable at batch granularity; the default flushes
    to the OS, which survives process kills — the chaos-tested case — but
    not power loss).
    """
    from repro.synth.cache import SynthesisCache

    if store_dir is None:
        return SynthesisCache(max_entries=max_entries)
    from repro.store.disk import DiskStore
    from repro.store.layered import LayeredStore

    front = SynthesisCache(
        max_entries=front_entries if front_entries is not None else max_entries
    )
    return LayeredStore(front, DiskStore(store_dir, sync=sync))
