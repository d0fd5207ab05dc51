"""Disk-backed content-addressed curve store (append-only segments).

The durable tier of the curve-store stack: a directory of append-only
segment files mapping content keys to area-delay curves, built so a
trainer restarted against the same ``--store-dir`` starts warm and never
re-pays synthesis for a design it has seen.

On-disk layout::

    <root>/seg-00000001.crv        # sealed (mmap'd for reads)
    <root>/seg-00000002.crv        # active (appends go here)

Each segment is a sequence of self-describing records::

    !4s I I I      magic b"CRV1" | crc32 | key_len | payload_len
    key_len bytes  UTF-8 JSON of the content key (a list of strings)
    payload bytes  big-endian float64 pairs: (delay, area) * n_points

The crc covers key + payload, so every record is independently
verifiable. That buys three durability properties:

- **torn-tail recovery** — a process killed mid-``put_many`` leaves a
  partial batch (whole records, then at most one partial one) at the end
  of the active segment; on reopen the scan stops at the first record
  that fails magic/length/crc validation, truncates the file there, and
  counts the drop (``torn_records``). Everything before the tear is
  byte-identical to what was written.
- **atomic compaction** — :meth:`compact` rewrites the live records into
  ``seg-<next>.crv.tmp``, fsyncs, atomically renames it into place, and
  only then deletes the old segments. A crash anywhere in that sequence
  is safe: ``.tmp`` files are discarded at open, and replay is in
  segment-id order with later records winning, so old+new coexisting is
  read correctly.
- **append-only writes** — a ``put_many`` encodes its batch into one
  buffer and lands it with one write and one flush (split only where a
  record crosses ``max_segment_bytes``, so the segment files are the
  bytes record-at-a-time appends would leave); the index follows the
  write. A key already present gets a new record (later-wins on replay)
  rather than an edit in place; the ``rewrites`` counter it ticks is
  also the exact "re-paid a synthesis we already had" detector the
  warm-restart CI gate asserts on.

Reads are index-backed (the open-time scan builds ``key -> (segment,
offset)``): sealed segments are mmap'd, the active segment is ``pread``.
Thread-safe under one lock, same as :class:`repro.synth.SynthesisCache`.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import threading
import weakref
import zlib

try:  # single-writer guard; POSIX only
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from repro.store.api import CurveStore

MAGIC = b"CRV1"
_HEADER = struct.Struct("!4sIII")

SEGMENT_SUFFIX = ".crv"
TMP_SUFFIX = ".crv.tmp"


def _segment_name(seg_id: int) -> str:
    return f"seg-{seg_id:08d}{SEGMENT_SUFFIX}"


def _parse_segment_id(name: str) -> "int | None":
    if not (name.startswith("seg-") and name.endswith(SEGMENT_SUFFIX)):
        return None
    stem = name[len("seg-") : -len(SEGMENT_SUFFIX)]
    return int(stem) if stem.isdigit() else None


# ``json.dumps(..., separators=...)`` builds a new encoder per call; this one
# is built once and writes the same bytes.
_KEY_JSON = json.JSONEncoder(separators=(",", ":"))

# Every open store that holds its directory's lock.
_LOCKED: "weakref.WeakSet[DiskStore]" = weakref.WeakSet()


def _drop_locks_in_child() -> None:
    """A forked child (a synthesis worker) closes its copies of the lock
    fds: the parent's still hold the flocks, and a child that outlived its
    parent would otherwise keep the store owned."""
    for store in list(_LOCKED):
        if store._lock_fd >= 0:
            os.close(store._lock_fd)
            store._lock_fd = -1


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_locks_in_child)


def encode_record(key: tuple, points: "list[tuple[float, float]]") -> bytes:
    """One self-describing record: header + JSON key + packed points."""
    key_bytes = _KEY_JSON.encode(list(key)).encode("utf-8")
    payload = struct.pack(f"!{2 * len(points)}d", *[float(v) for p in points for v in p])
    crc = zlib.crc32(payload, zlib.crc32(key_bytes)) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, crc, len(key_bytes), len(payload)) + key_bytes + payload


def decode_points(buf: bytes, offset: int = 0) -> "list[tuple[float, float]]":
    """The points packed in ``buf`` from ``offset`` on (whole points only)."""
    flat = struct.unpack_from(f"!{(len(buf) - offset) // 16 * 2}d", buf, offset)
    return list(zip(flat[::2], flat[1::2]))


class _Segment:
    """One on-disk segment: a read fd, mmap'd once sealed."""

    def __init__(self, path: str):
        self.path = path
        self.fd = os.open(path, os.O_RDONLY)
        self.size = os.fstat(self.fd).st_size
        self.mm: "mmap.mmap | None" = None

    def seal(self) -> None:
        """Switch reads to a shared read-only mapping (sealed segments
        never grow, so the mapping stays valid for the store's life)."""
        self.size = os.fstat(self.fd).st_size
        if self.mm is None and self.size > 0:
            self.mm = mmap.mmap(self.fd, self.size, prot=mmap.PROT_READ)

    def read(self, offset: int, length: int) -> bytes:
        if self.mm is not None:
            return bytes(self.mm[offset : offset + length])
        return os.pread(self.fd, length, offset)

    def close(self) -> None:
        if self.mm is not None:
            self.mm.close()
            self.mm = None
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


class DiskStore(CurveStore):
    """Append-only segmented curve store rooted at a directory.

    ``sync=True`` fsyncs once per ``put_many``, before it returns
    (power-loss durable; a batch that rolls a segment also fsyncs the
    segment it seals); the default flushes to the OS page cache, which
    survives process kills — the failure mode the chaos tests inject —
    at a fraction of the cost.
    """

    def __init__(
        self,
        root,
        max_segment_bytes: int = 64 * 1024 * 1024,
        sync: bool = False,
    ):
        if max_segment_bytes < 4096:
            raise ValueError("max_segment_bytes must be at least 4096")
        self.root = os.fspath(root)
        self.max_segment_bytes = max_segment_bytes
        self.sync = sync
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.appends = 0          # records written (fresh keys)
        self.rewrites = 0         # puts of already-present keys (re-paid work)
        self.torn_records = 0     # partial tail records dropped at open
        self.compactions = 0
        # key -> (segment_id, offset, record_length)
        self._index: "dict[tuple, tuple[int, int, int]]" = {}
        self._segments: "dict[int, _Segment]" = {}
        self._active_id = 0
        self._active_file = None  # append handle for the active segment
        os.makedirs(self.root, exist_ok=True)
        # Appends assume exclusive ownership of the directory: concurrent
        # appenders would interleave records under each other's tracked
        # offsets. The kernel drops a flock on any process death —
        # including SIGKILL — and forked children do not keep it, so a
        # crashed owner never wedges the store.
        self._lock_fd = -1
        if fcntl is not None:
            self._lock_fd = os.open(
                os.path.join(self.root, "LOCK"), os.O_CREAT | os.O_RDWR, 0o644
            )
            try:
                fcntl.flock(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(self._lock_fd)
                self._lock_fd = -1
                raise RuntimeError(
                    f"curve store {self.root!r} is owned by another process "
                    "(one writer per store directory; give each process its "
                    "own directory)"
                ) from None
            _LOCKED.add(self)
        self._open_all()

    # -- open / recovery ---------------------------------------------------

    def _open_all(self) -> None:
        seg_ids = []
        for name in os.listdir(self.root):
            if name.endswith(TMP_SUFFIX):
                # A compaction that crashed before its rename; never valid.
                os.unlink(os.path.join(self.root, name))
                continue
            seg_id = _parse_segment_id(name)
            if seg_id is not None:
                seg_ids.append(seg_id)
        # Id order makes replay later-wins, which is what keeps the
        # old-segments + compacted-segment coexistence crash window safe.
        for seg_id in sorted(seg_ids):
            self._recover_segment(seg_id)
        self._active_id = max(seg_ids, default=0)
        if self._active_id == 0:
            self._roll_segment()
        else:
            for seg_id, segment in self._segments.items():
                if seg_id != self._active_id:
                    segment.seal()
            path = os.path.join(self.root, _segment_name(self._active_id))
            self._active_file = open(path, "ab")
            if self._active_file.tell() >= self.max_segment_bytes:
                self._roll_segment()

    def _recover_segment(self, seg_id: int) -> None:
        """Scan one segment, indexing valid records, truncating a torn tail."""
        path = os.path.join(self.root, _segment_name(seg_id))
        segment = _Segment(path)
        offset = 0
        size = segment.size
        while offset < size:
            header = segment.read(offset, _HEADER.size)
            if len(header) < _HEADER.size:
                break
            magic, crc, key_len, payload_len = _HEADER.unpack(header)
            record_len = _HEADER.size + key_len + payload_len
            if magic != MAGIC or offset + record_len > size:
                break
            body = segment.read(offset + _HEADER.size, key_len + payload_len)
            if len(body) < key_len + payload_len:
                break
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                break
            try:
                key = tuple(json.loads(body[:key_len].decode("utf-8")))
            except (UnicodeDecodeError, ValueError):
                break
            self._index[key] = (seg_id, offset, record_len)
            offset += record_len
        if offset < size:
            # Torn tail: drop everything from the first invalid record on.
            self.torn_records += 1
            segment.close()
            with open(path, "r+b") as fh:
                fh.truncate(offset)
            segment = _Segment(path)
        self._segments[seg_id] = segment

    # -- reads -------------------------------------------------------------

    def _check_open(self) -> None:
        # A closed store must not pass for an empty one (its misses would be re-synthesised).
        if self._active_file is None:
            raise ValueError(f"curve store {self.root!r} is closed")

    def _lookup(self, key: tuple):
        from repro.synth.curve import AreaDelayCurve

        loc = self._index.get(tuple(key))
        if loc is None:
            return None
        seg_id, offset, record_len = loc
        record = self._segments[seg_id].read(offset, record_len)
        key_len = _HEADER.unpack_from(record)[2]
        return AreaDelayCurve(decode_points(record, _HEADER.size + key_len))

    def get(self, key: tuple):
        return self.get_many([key])[0]

    def get_many(self, keys):
        out = []
        with self._lock:
            self._check_open()
            for key in keys:
                value = self._lookup(key)
                if value is None:
                    self.misses += 1
                else:
                    self.hits += 1
                out.append(value)
        return out

    def __contains__(self, key) -> bool:
        return self.contains_many([key])[0]

    def contains_many(self, keys) -> "list[bool]":
        """Batched ``in``: one lock acquisition for the whole batch."""
        with self._lock:
            self._check_open()
            index = self._index
            return [tuple(key) in index for key in keys]

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    # -- writes ------------------------------------------------------------

    def _land(self, records: "list[bytes]", placed: dict, end: int) -> None:
        """Write a run of records to the active segment in one write and one
        flush (and one fsync under ``sync``); only then index them."""
        self._active_file.write(b"".join(records))
        self._active_file.flush()
        if self.sync:
            os.fsync(self._active_file.fileno())
        self._index.update(placed)
        # The active segment's read view must see the new bytes.
        self._segments[self._active_id].size = end

    def put(self, key: tuple, value) -> None:
        self.put_many([(key, value)])

    def put_many(self, items) -> None:
        with self._lock:
            self._check_open()
            index = self._index
            records, placed = [], {}
            offset = self._active_file.tell()
            for key, value in items:
                key = tuple(key)
                record = encode_record(key, value.points())
                if key in index or key in placed:
                    self.rewrites += 1
                else:
                    self.appends += 1
                records.append(record)
                placed[key] = (self._active_id, offset, len(record))  # later wins
                offset += len(record)
                # The batch splits exactly where a record-at-a-time append
                # would roll, so the segment files are the same bytes.
                if offset >= self.max_segment_bytes:
                    self._land(records, placed, offset)
                    self._roll_segment()
                    records, placed = [], {}
                    offset = 0
            if records:
                self._land(records, placed, offset)

    def _roll_segment(self) -> None:
        """Seal the active segment and start the next one."""
        if self._active_file is not None:
            self._active_file.close()
            self._segments[self._active_id].seal()
        self._active_id += 1
        path = os.path.join(self.root, _segment_name(self._active_id))
        self._active_file = open(path, "ab")
        self._segments[self._active_id] = _Segment(path)

    # -- compaction --------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite live records into one fresh segment, atomically.

        Sequence: write every live record to ``seg-<next>.crv.tmp``,
        fsync, rename into place (the atomicity point), then delete the
        superseded segments. Crash before the rename: the ``.tmp`` is
        discarded at next open. Crash after: id-ordered later-wins replay
        reads the compacted segment over any stragglers.
        """
        with self._lock:
            self._check_open()
            old_ids = sorted(self._segments)
            new_id = self._active_id + 1
            tmp_path = os.path.join(self.root, _segment_name(new_id) + ".tmp")
            final_path = os.path.join(self.root, _segment_name(new_id))
            new_index: "dict[tuple, tuple[int, int, int]]" = {}
            reclaimed = 0
            with open(tmp_path, "wb") as fh:
                offset = 0
                for key, loc in self._index.items():
                    record_len = loc[2]
                    record = self._segments[loc[0]].read(loc[1], record_len)
                    fh.write(record)
                    new_index[key] = (new_id, offset, record_len)
                    offset += record_len
                live_bytes = offset
                fh.flush()
                os.fsync(fh.fileno())
            os.rename(tmp_path, final_path)
            # Point of no return: the compacted segment is durable; now
            # retire the old ones.
            self._active_file.close()
            for seg_id in old_ids:
                segment = self._segments.pop(seg_id)
                reclaimed += segment.size
                segment.close()
                os.unlink(segment.path)
            self._index = new_index
            self._active_id = new_id
            self._active_file = open(final_path, "ab")
            self._segments[new_id] = _Segment(final_path)
            self.compactions += 1
            if self._active_file.tell() >= self.max_segment_bytes:
                self._roll_segment()
            return {
                "segment": new_id,
                "live_records": len(new_index),
                "reclaimed_bytes": max(0, reclaimed - live_bytes),
            }

    # -- telemetry / persistence -------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            size = sum(seg.size for seg in self._segments.values())
            total = self.hits + self.misses
            return {
                "entries": len(self._index),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "segments": len(self._segments),
                "bytes": size,
                "appends": self.appends,
                "rewrites": self.rewrites,
                "torn_records": self.torn_records,
                "compactions": self.compactions,
            }

    def state_dict(self) -> dict:
        """Counters only — the entries themselves are already durable
        on disk, so checkpoints carry ``entries=None`` (the schema's
        marker for "contents live elsewhere")."""
        with self._lock:
            return {
                "max_entries": None,
                "hits": self.hits,
                "misses": self.misses,
                "entries": None,
            }

    def load_state_dict(self, state: dict) -> None:
        with self._lock:
            self.hits = int(state.get("hits", 0))
            self.misses = int(state.get("misses", 0))

    def close(self) -> None:
        with self._lock:
            if self._active_file is not None:
                self._active_file.close()
                self._active_file = None
            for segment in self._segments.values():
                segment.close()
            self._segments.clear()
            self._index.clear()
            if self._lock_fd >= 0:
                os.close(self._lock_fd)  # releases the flock
                self._lock_fd = -1
                _LOCKED.discard(self)

    def __repr__(self) -> str:
        return (
            f"DiskStore(root={self.root!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
