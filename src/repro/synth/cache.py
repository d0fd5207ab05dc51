"""Content-hash synthesis cache (Section IV-D).

The paper: "we cache synthesized state designs to reduce redundant
calculations and find that as the exploration parameter epsilon diminishes,
the cache hit percentage becomes 50% in the 32b case and 10% in the 64b
case." Keys combine the graph digest with the library/tool identity so one
cache can serve several experiments. Thread-safe: one lock guards the
entries and counters, so threads of one process may share it; farm
workers are other processes and never see it.

This is the canonical in-memory implementation of the
:class:`repro.store.CurveStore` protocol; the durable tiers live in
:mod:`repro.store` and every consumer constructs through
:func:`repro.store.make_store`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.store.api import CurveStore


class SynthesisCache(CurveStore):
    """Bounded LRU cache with hit-rate accounting."""

    def __init__(self, max_entries: int = 400_000):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._data: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple):
        """Return the cached value or None; updates hit/miss statistics."""
        return self.get_many([key])[0]

    def put(self, key: tuple, value) -> None:
        """Insert (evicting the least recently used entry when full)."""
        self.put_many([(key, value)])

    def get_many(self, keys: "list[tuple]") -> "list":
        """Batched :meth:`get` under one lock acquisition.

        Returns a value-or-None list aligned with ``keys``; hit/miss
        statistics count every key. Used by the evaluation backend to route
        a whole batch before running the misses.
        """
        out = []
        with self._lock:
            for key in keys:
                if key in self._data:
                    self._data.move_to_end(key)
                    self.hits += 1
                    out.append(self._data[key])
                else:
                    self.misses += 1
                    out.append(None)
        return out

    def contains_many(self, keys: "list[tuple]") -> "list[bool]":
        """Batched ``in`` under one lock; no counter, no LRU move."""
        with self._lock:
            return [key in self._data for key in keys]

    def put_many(self, items: "list[tuple]") -> None:
        """Batched :meth:`put` of ``(key, value)`` pairs under one lock."""
        with self._lock:
            for key, value in items:
                self._data[key] = value
                self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (entries are kept)."""
        with self._lock:
            self.hits = 0
            self.misses = 0

    def state_dict(self) -> dict:
        """Checkpoint-ready snapshot (JSON-safe curve points).

        The schema predates the :class:`~repro.store.CurveStore`
        protocol and is frozen for checkpoint compatibility:
        ``{"max_entries", "hits", "misses", "entries"}``.
        """
        from repro.store.api import encode_entries

        with self._lock:
            entries, hits, misses = list(self._data.items()), self.hits, self.misses
        return {
            "max_entries": self.max_entries,
            "hits": hits,
            "misses": misses,
            "entries": encode_entries(entries),
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict` (``entries=None`` restores only
        counters — the form disk-backed stores checkpoint as)."""
        from repro.store.api import decode_entries

        entries = state.get("entries")
        data = None
        if entries is not None:
            # LRU order (oldest first) is kept; an over-full state drops
            # its oldest entries.
            data = OrderedDict((tuple(k), v) for k, v in decode_entries(entries))
            while len(data) > self.max_entries:
                data.popitem(last=False)
        with self._lock:
            if data is not None:
                self._data = data
            self.hits = int(state.get("hits", 0))
            self.misses = int(state.get("misses", 0))

    def __repr__(self) -> str:
        return (
            f"SynthesisCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, hit_rate={self.hit_rate:.1%})"
        )
