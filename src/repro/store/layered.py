"""Memory-over-disk layered curve store.

The shape every curve consumer actually wants when a ``--store-dir`` is
given: LRU-speed repeat hits from a memory front, with every curve also
durable in a :class:`repro.store.DiskStore` behind it. The layering
rules keep both tiers honest:

- **get**: front first (free), then disk; a disk hit is *promoted* into
  the front so the next lookup is memory-speed.
- **put**: write-through — the front gets the working-set copy, the disk
  gets the durable one. A key already on disk is never re-appended
  (promotion is read-side only), so disk ``rewrites`` stay an exact
  re-synthesis detector.
- **counters**: the layered store's own ``hits``/``misses`` describe the
  *combined* outcome (a disk hit is a hit — no synthesis was paid),
  which is what backend telemetry and the warm-restart gate read. Each
  tier additionally keeps its own counters, surfaced under
  ``stats()["front"]`` / ``stats()["disk"]``.
"""

from __future__ import annotations

from repro.store.api import CurveStore


class LayeredStore(CurveStore):
    """A memory front (any :class:`CurveStore`) over a durable back tier."""

    def __init__(self, front: CurveStore, disk: CurveStore):
        self.front = front
        self.disk = disk
        self.hits = 0
        self.misses = 0
        self._closed = False

    def _check_open(self) -> None:
        # Checked here, not left to the disk: front hits never reach it.
        if self._closed:
            raise ValueError(f"curve store {self.disk.root!r} is closed")

    # -- reads -------------------------------------------------------------

    def get(self, key: tuple):
        return self.get_many([key])[0]

    def get_many(self, keys):
        self._check_open()
        keys = [tuple(k) for k in keys]
        out = self.front.get_many(keys)
        missing = [i for i, v in enumerate(out) if v is None]
        if missing:
            from_disk = self.disk.get_many([keys[i] for i in missing])
            promote = []
            for i, value in zip(missing, from_disk):
                if value is not None:
                    out[i] = value
                    promote.append((keys[i], value))
            if promote:
                self.front.put_many(promote)
        for value in out:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return out

    def contains_many(self, keys):
        """The disk tier's answer: it holds every key the front does."""
        self._check_open()
        return self.disk.contains_many([tuple(k) for k in keys])

    # -- writes ------------------------------------------------------------

    def put(self, key: tuple, value) -> None:
        self.put_many([(key, value)])

    def put_many(self, items) -> None:
        self._check_open()
        items = [(tuple(k), v) for k, v in items]
        self.front.put_many(items)
        # Promotion already put read-side copies in the front; only keys
        # the disk has never seen are appended, keeping its `rewrites`
        # counter an exact duplicate-synthesis detector. The filter runs
        # before the append, so a key twice in one batch lands twice.
        known = self.disk.contains_many([k for k, _ in items])
        fresh = [item for item, on_disk in zip(items, known) if not on_disk]
        if fresh:
            self.disk.put_many(fresh)

    def __len__(self) -> int:
        # The disk tier is the superset (the front never holds a key the
        # write-through or promotion didn't also give the disk).
        return len(self.disk)

    # -- telemetry / persistence -------------------------------------------

    def reset_stats(self) -> None:
        super().reset_stats()
        self.front.reset_stats()
        self.disk.reset_stats()

    def stats(self) -> dict:
        out = super().stats()
        out["front"] = self.front.stats()
        out["disk"] = self.disk.stats()
        return out

    def state_dict(self) -> dict:
        """Counters only (``entries=None``): contents are durable on disk."""
        return {
            "max_entries": getattr(self.front, "max_entries", None),
            "hits": self.hits,
            "misses": self.misses,
            "entries": None,
        }

    def load_state_dict(self, state: dict) -> None:
        self.hits = int(state.get("hits", 0))
        self.misses = int(state.get("misses", 0))
        entries = state.get("entries")
        if entries:
            # A memory-cache checkpoint restored onto a layered store:
            # accept it (warm the tiers) rather than losing the curves.
            from repro.store.api import decode_entries

            self.put_many(decode_entries(entries))

    def close(self) -> None:
        self._closed = True
        self.front.close()
        self.disk.close()

    def __repr__(self) -> str:
        return (
            f"LayeredStore(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, front={self.front!r}, disk={self.disk!r})"
        )
