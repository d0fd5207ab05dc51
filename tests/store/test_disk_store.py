"""DiskStore durability: round trips, torn tails, compaction, crash kills.

The disk tier's contract is byte-identity under every failure the chaos
kit can inject: whatever survives a kill or a truncation must read back
exactly as written, and only a torn tail may be lost.
"""

from __future__ import annotations

import json
import math
import os
import signal
import struct
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.store import DiskStore, LayeredStore
from repro.store.disk import _HEADER, decode_points, encode_record
from repro.synth import AreaDelayCurve, SynthesisCache

SRC = str(Path(__file__).resolve().parents[2] / "src")


def key(i: int) -> tuple:
    return (f"digest-{i:04d}", "nangate45", "openphysyn")


def curve(i: int, n_points: int = 3) -> AreaDelayCurve:
    # Strictly improving staircase: survives AreaDelayCurve cleaning
    # unchanged, so points() -> from_points -> points() is exact.
    return AreaDelayCurve(
        [(0.1 * (j + 1) + i * 1e-3, 100.0 - 10.0 * j + i) for j in range(n_points)]
    )


def segment_files(root) -> "list[Path]":
    return sorted(Path(root).glob("seg-*.crv"))


class TestRoundTrip:
    def test_put_get_byte_identity(self, tmp_path):
        store = DiskStore(tmp_path)
        for i in range(10):
            store.put(key(i), curve(i))
        for i in range(10):
            assert store.get(key(i)).points() == curve(i).points()
        assert len(store) == 10
        store.close()

    def test_reopen_reads_everything(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put_many([(key(i), curve(i)) for i in range(25)])
        store.close()
        reopened = DiskStore(tmp_path)
        assert len(reopened) == 25
        for i in range(25):
            assert reopened.get(key(i)).points() == curve(i).points()
        assert reopened.torn_records == 0
        reopened.close()

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),
                st.floats(min_value=1.0, max_value=1000.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_curves_round_trip_exactly(self, tmp_path_factory, samples):
        root = tmp_path_factory.mktemp("prop")
        value = AreaDelayCurve(samples)
        store = DiskStore(root)
        store.put(key(0), value)
        assert store.get(key(0)).points() == value.points()
        store.close()
        reopened = DiskStore(root)
        assert reopened.get(key(0)).points() == value.points()
        reopened.close()

    def test_rewrite_is_later_wins_and_counted(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(key(0), curve(0))
        store.put(key(0), curve(7))
        assert store.rewrites == 1 and store.appends == 1
        assert store.get(key(0)).points() == curve(7).points()
        store.close()
        reopened = DiskStore(tmp_path)
        assert reopened.get(key(0)).points() == curve(7).points()
        assert len(reopened) == 1
        reopened.close()

    def test_segment_roll_and_replay_across_segments(self, tmp_path):
        store = DiskStore(tmp_path, max_segment_bytes=4096)
        store.put_many([(key(i), curve(i, n_points=8)) for i in range(100)])
        assert len(segment_files(tmp_path)) > 1
        # One batch rolls where record-at-a-time appends would: the same
        # segment files, byte for byte.
        single = tmp_path / "single"
        one_by_one = DiskStore(single, max_segment_bytes=4096)
        for i in range(100):
            one_by_one.put(key(i), curve(i, n_points=8))
        one_by_one.close()
        assert [(p.name, p.read_bytes()) for p in segment_files(single)] == [
            (p.name, p.read_bytes()) for p in segment_files(tmp_path)
        ]
        for i in range(100):
            assert store.get(key(i)).points() == curve(i, n_points=8).points()
        store.close()
        reopened = DiskStore(tmp_path, max_segment_bytes=4096)
        assert len(reopened) == 100
        for i in range(100):
            assert reopened.get(key(i)).points() == curve(i, n_points=8).points()
        reopened.close()


def per_point_record(key: tuple, points) -> bytes:
    """The record codec as first written, one ``struct`` call per point: the
    byte-level oracle the batched codec must match."""
    key_bytes = json.dumps(list(key), separators=(",", ":")).encode("utf-8")
    payload = b"".join(struct.pack("!2d", float(d), float(a)) for d, a in points)
    crc = zlib.crc32(key_bytes + payload) & 0xFFFFFFFF
    return struct.pack("!4sIII", b"CRV1", crc, len(key_bytes), len(payload)) + key_bytes + payload


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestSync:
    """``sync=True`` costs one fsync per batch, and nothing it need not."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    @pytest.mark.parametrize("sync", [True, False])
    def test_one_fsync_per_non_empty_put_many(self, tmp_path, fsyncs, sync):
        store = DiskStore(tmp_path, sync=sync)
        store.put_many([(key(i), curve(i)) for i in range(8)])
        store.put(key(8), curve(8))
        store.put_many([])
        assert len(fsyncs) == (2 if sync else 0)
        store.close()
        reopened = DiskStore(tmp_path)
        assert len(reopened) == 9
        reopened.close()

    def test_a_layered_batch_already_on_disk_never_fsyncs(self, tmp_path, fsyncs):
        layered = LayeredStore(SynthesisCache(), DiskStore(tmp_path, sync=True))
        items = [(key(i), curve(i)) for i in range(8)]
        layered.put_many(items)
        assert len(fsyncs) == 1
        layered.put_many(items)
        assert len(fsyncs) == 1
        assert layered.disk.appends == 8 and layered.disk.rewrites == 0
        layered.close()


class TestCodec:
    @given(
        key=st.lists(st.text(max_size=12), min_size=1, max_size=3).map(tuple),
        points=st.lists(st.tuples(finite, finite), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_record_bytes_and_points_match_the_per_point_codec(self, key, points):
        record = encode_record(key, points)
        assert record == per_point_record(key, points)
        key_len = _HEADER.unpack_from(record)[2]
        payload = record[_HEADER.size + key_len :]
        decoded = decode_points(payload)
        want = [struct.unpack_from("!2d", payload, off) for off in range(0, len(payload), 16)]
        assert type(decoded) is list and all(type(p) is tuple for p in decoded)
        # Float for float by bit pattern, so -0.0 stays -0.0.
        assert [struct.pack("!2d", *p) for p in decoded] == [struct.pack("!2d", *p) for p in want]
        assert [struct.pack("!2d", *p) for p in decoded] == [struct.pack("!2d", d, a) for d, a in points]

    def test_negative_zero_survives(self):
        payload = encode_record(key(0), [(-0.0, 1.0)])[-16:]
        ((d, a),) = decode_points(payload)
        assert math.copysign(1.0, d) == -1.0 and a == 1.0


class TestCompaction:
    def test_compaction_reclaims_rewrites(self, tmp_path):
        store = DiskStore(tmp_path, max_segment_bytes=4096)
        store.put_many([(key(i), curve(i)) for i in range(50)])
        store.put_many([(key(i), curve(i + 500)) for i in range(50)])  # rewrites
        assert store.rewrites == 50
        before = sum(p.stat().st_size for p in segment_files(tmp_path))
        report = store.compact()
        assert report["live_records"] == 50
        assert report["reclaimed_bytes"] > 0
        after = sum(p.stat().st_size for p in segment_files(tmp_path))
        assert after < before
        for i in range(50):
            assert store.get(key(i)).points() == curve(i + 500).points()
        assert not list(Path(tmp_path).glob("*.tmp"))
        store.close()
        reopened = DiskStore(tmp_path)
        assert len(reopened) == 50
        assert reopened.get(key(3)).points() == curve(503).points()
        reopened.close()

    def test_crashed_compaction_tmp_is_discarded_at_open(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(key(0), curve(0))
        store.close()
        # A compaction that died before its rename leaves a .tmp behind.
        stale = Path(tmp_path) / "seg-00000099.crv.tmp"
        stale.write_bytes(b"half-written garbage")
        reopened = DiskStore(tmp_path)
        assert not stale.exists()
        assert reopened.get(key(0)).points() == curve(0).points()
        reopened.close()


class TestTornTail:
    def _write_reference(self, root, count=3):
        store = DiskStore(root)
        store.put_many([(key(i), curve(i)) for i in range(count)])
        store.close()
        (seg,) = segment_files(root)
        return seg, seg.read_bytes()

    def test_truncation_at_every_offset_drops_only_the_tail(self, tmp_path):
        seg, payload = self._write_reference(tmp_path / "ref")
        # Record end offsets, from the known encoding.
        lengths = [len(encode_record(key(i), curve(i).points())) for i in range(3)]
        ends = [sum(lengths[: i + 1]) for i in range(3)]
        boundaries = {0, *ends}
        for cut in range(len(payload)):
            root = tmp_path / f"cut-{cut}"
            root.mkdir()
            (root / seg.name).write_bytes(payload[:cut])
            store = DiskStore(root)
            survivors = [i for i, end in enumerate(ends) if end <= cut]
            assert len(store) == len(survivors), f"cut at {cut}"
            for i in survivors:
                assert store.get(key(i)).points() == curve(i).points()
            # A cut strictly inside a record is a torn tail; a cut exactly
            # on a boundary is a clean (shorter) file.
            assert store.torn_records == (0 if cut in boundaries else 1)
            # The store stays writable after recovery.
            store.put(key(77), curve(77))
            assert store.get(key(77)).points() == curve(77).points()
            store.close()

    def test_corrupt_crc_stops_the_replay(self, tmp_path):
        seg, payload = self._write_reference(tmp_path / "ref")
        # Flip one payload byte of the second record: its crc fails, so
        # record 1 (and everything after) is dropped; record 0 survives.
        first_len = len(encode_record(key(0), curve(0).points()))
        broken = bytearray(payload)
        broken[first_len + _HEADER.size + 4] ^= 0xFF
        root = tmp_path / "broken"
        root.mkdir()
        (root / seg.name).write_bytes(bytes(broken))
        store = DiskStore(root)
        assert len(store) == 1
        assert store.get(key(0)).points() == curve(0).points()
        assert store.torn_records == 1
        store.close()


class TestCrashRecovery:
    @pytest.mark.parametrize("batch", [1, 8])
    def test_sigkill_mid_write_preserves_a_byte_identical_prefix(self, tmp_path, batch):
        """Chaos: SIGKILL a writer process mid-append (``put``, or a
        ``put_many`` of 8 records); reopen must keep a clean prefix of whole
        records of its deterministic record stream, byte-identical."""
        from tests.processes import kill_process, wait_until

        root = tmp_path / "killed"
        script = textwrap.dedent(
            """
            import sys
            from repro.store import DiskStore
            from repro.synth import AreaDelayCurve

            store = DiskStore(sys.argv[1])
            batch = int(sys.argv[2])
            start = 0
            while True:  # write until killed
                items = []
                for i in range(start, start + batch):
                    k = (f"digest-{i:04d}", "nangate45", "openphysyn")
                    c = AreaDelayCurve(
                        [(0.1 * (j + 1) + i * 1e-3, 100.0 - 10.0 * j + i)
                         for j in range(3)]
                    )
                    items.append((k, c))
                store.put_many(items)
                if start == 0:
                    print("started", flush=True)
                start += batch
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(root), str(batch)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert proc.stdout.readline().strip() == "started"
            # Let it write for a moment, then kill it mid-stream.
            wait_until(
                lambda: sum(p.stat().st_size for p in root.glob("seg-*.crv")) > 4096,
                timeout=30.0,
                message="writer never produced 4KiB of records",
            )
        finally:
            kill_process(proc, sig=signal.SIGKILL)
            proc.stdout.close()
        store = DiskStore(root)
        count = len(store)
        assert count > 0
        assert store.torn_records <= 1
        for i in range(count):
            assert store.get(key(i)).points() == curve(i).points(), i
        store.close()


class TestSingleWriter:
    def test_second_writer_is_rejected_until_close(self, tmp_path):
        first = DiskStore(tmp_path)
        with pytest.raises(RuntimeError, match="owned by another process"):
            DiskStore(tmp_path)
        first.close()
        second = DiskStore(tmp_path)  # lock released
        second.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_a_killed_train_leaves_no_owner(self, tmp_path):
        """SIGKILL ``repro train --store-dir D`` once it has forked its
        prefetch worker: the worker never held D's lock (a forked child
        closes it), so D opens at once, and the worker exits with its parent."""
        from tests.processes import kill_process, wait_until

        script = textwrap.dedent(
            """
            import multiprocessing, sys
            from repro import cli
            from repro.synth import EvaluationBackend

            prefetch = EvaluationBackend.prefetch

            def announce(self, graphs):
                prefetch(self, graphs)
                workers = multiprocessing.active_children()
                if workers:  # the first prefetch forked the worker
                    print(*[p.pid for p in workers], flush=True)
                    EvaluationBackend.prefetch = prefetch

            EvaluationBackend.prefetch = announce
            sys.exit(cli.main(sys.argv[1:]))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        root = tmp_path / "store"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "train", "8", "--steps", "100000", "--store-dir", str(root)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            kill_process(proc, sig=signal.SIGKILL)
            proc.stdout.close()
        assert len(workers) == 1
        DiskStore(root).close()  # "owned by another process" if the worker kept the lock

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited
            except FileNotFoundError:
                return False

        wait_until(lambda: not running(workers[0]), timeout=10.0, message="the orphaned worker exited")
