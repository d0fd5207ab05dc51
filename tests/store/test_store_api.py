"""CurveStore protocol conformance across all three implementations.

One behavioral contract — get/put/get_many/put_many/len/stats/
state_dict — checked against the in-memory :class:`SynthesisCache`, the
durable :class:`DiskStore`, and the :class:`LayeredStore` the factory
builds for ``--store-dir`` runs, plus the layering rules themselves.
"""

from __future__ import annotations

import re

import pytest

from repro.store import (
    CurveStore,
    DiskStore,
    LayeredStore,
    decode_entries,
    encode_entries,
    make_store,
)
from repro.synth import AreaDelayCurve, SynthesisCache


def key(i: int) -> tuple:
    return (f"digest-{i:04d}", "nangate45", "openphysyn")


def curve(i: int) -> AreaDelayCurve:
    return AreaDelayCurve([(0.1 * (j + 1), 100.0 - 10.0 * j + i) for j in range(3)])


@pytest.fixture(params=["memory", "disk", "layered"])
def store(request, tmp_path):
    if request.param == "memory":
        built = SynthesisCache()
    elif request.param == "disk":
        built = DiskStore(tmp_path)
    else:
        built = LayeredStore(SynthesisCache(), DiskStore(tmp_path))
    yield built
    built.close()


class TestProtocolConformance:
    def test_is_a_curve_store(self, store):
        assert isinstance(store, CurveStore)

    def test_get_put_and_counters(self, store):
        assert store.get(key(0)) is None
        assert store.misses == 1 and store.hits == 0
        store.put(key(0), curve(0))
        assert store.get(key(0)).points() == curve(0).points()
        assert store.hits == 1
        assert len(store) == 1

    def test_get_many_preserves_order_and_holes(self, store):
        store.put_many([(key(0), curve(0)), (key(2), curve(2))])
        out = store.get_many([key(0), key(1), key(2)])
        assert out[0].points() == curve(0).points()
        assert out[1] is None
        assert out[2].points() == curve(2).points()
        assert (store.hits, store.misses) == (2, 1)

    def test_stats_schema(self, store):
        store.put(key(0), curve(0))
        store.get(key(0))
        stats = store.stats()
        for field in ("entries", "hits", "misses", "hit_rate"):
            assert field in stats
        assert stats["entries"] == 1 and stats["hit_rate"] == 1.0

    def test_state_dict_schema_is_frozen(self, store):
        # The checkpoint schema every store must emit — pinned so old
        # checkpoints keep restoring (`entries=None` marks "contents
        # durable elsewhere").
        store.put(key(0), curve(0))
        state = store.state_dict()
        assert set(state) == {"max_entries", "hits", "misses", "entries"}

    def test_counter_round_trip_through_state_dict(self, store):
        store.put(key(0), curve(0))
        store.get(key(0))
        store.get(key(1))
        state = store.state_dict()
        store.reset_stats()
        # Restoring onto the same store is the resume path.
        store.load_state_dict(state)
        assert (store.hits, store.misses) == (1, 1)
        assert store.get(key(0)) is not None  # contents untouched

    def test_reset_stats(self, store):
        store.get(key(9))
        store.reset_stats()
        assert (store.hits, store.misses) == (0, 0)


CLOSED_CALLS = {
    "get": lambda s: s.get(key(0)),
    "get_many": lambda s: s.get_many([key(0), key(1)]),
    "put": lambda s: s.put(key(2), curve(2)),
    "put_many": lambda s: s.put_many([(key(3), curve(3))]),
    "contains": lambda s: key(0) in s,
    "compact": lambda s: s.compact(),
}


def closed_store(kind: str, root):
    built = DiskStore(root) if kind == "disk" else make_store(root)
    built.put(key(0), curve(0))
    built.get(key(0))
    built.close()
    # A layered store's front still holds key(0): its get must not be a hit.
    assert kind == "disk" or len(built.front) == 1
    return built


class TestClosedStore:
    """A closed durable store refuses every read and write by name: passing
    for an empty one would turn hits into re-syntheses and skew the hit rate."""

    @pytest.mark.parametrize(
        "kind, call",
        [("disk", call) for call in CLOSED_CALLS]
        + [("layered", call) for call in ("get", "get_many", "put", "put_many")],
    )
    def test_every_read_and_write_raises_naming_the_root(self, kind, call, tmp_path):
        store = closed_store(kind, tmp_path)
        with pytest.raises(ValueError, match=f"{re.escape(str(tmp_path))}.*is closed"):
            CLOSED_CALLS[call](store)

    @pytest.mark.parametrize("kind", ["disk", "layered"])
    def test_close_is_idempotent_and_stats_still_answer(self, kind, tmp_path):
        store = closed_store(kind, tmp_path)
        store.close()
        stats = store.stats()
        assert (stats["hits"], stats["misses"]) == (1, 0)
        repr(store)


class TestFactory:
    def test_none_builds_the_canonical_memory_cache(self):
        built = make_store(None)
        assert type(built) is SynthesisCache

    def test_path_builds_memory_over_disk(self, tmp_path):
        built = make_store(tmp_path)
        assert isinstance(built, LayeredStore)
        assert type(built.front) is SynthesisCache
        assert isinstance(built.disk, DiskStore)
        built.close()

    def test_front_entries_bounds_the_front_tier(self, tmp_path):
        built = make_store(tmp_path, front_entries=7)
        assert built.front.max_entries == 7
        built.close()


class TestEncodeDecode:
    def test_entries_round_trip(self):
        entries = encode_entries([(key(0), curve(0)), (key(1), curve(1))])
        decoded = decode_entries(entries)
        assert [k for k, _ in decoded] == [key(0), key(1)]
        assert decoded[0][1].points() == curve(0).points()

    def test_non_curve_values_rejected(self):
        with pytest.raises(TypeError):
            encode_entries([(key(0), [[0.1, 9.0]])])


class TestLayering:
    def test_disk_hit_is_promoted_to_the_front(self, tmp_path):
        disk = DiskStore(tmp_path)
        disk.put(key(0), curve(0))
        layered = LayeredStore(SynthesisCache(), disk)
        assert layered.get(key(0)).points() == curve(0).points()
        assert layered.hits == 1  # a disk hit is a hit: no synthesis paid
        # Promotion: the second read never touches the disk tier.
        disk_hits = disk.hits
        assert layered.get(key(0)).points() == curve(0).points()
        assert disk.hits == disk_hits
        assert layered.front.hits == 1
        layered.close()

    def test_write_through_never_reappends_known_keys(self, tmp_path):
        layered = LayeredStore(SynthesisCache(), DiskStore(tmp_path))
        layered.put(key(0), curve(0))
        # A re-put of a known key (promotion, idempotent producer) must
        # not append to disk: `rewrites` stays an exact re-synthesis
        # detector for the warm-restart gate.
        layered.put(key(0), curve(0))
        assert layered.disk.appends == 1
        assert layered.disk.rewrites == 0
        layered.close()

    def test_a_key_twice_in_one_batch_lands_twice_and_the_later_wins(self, tmp_path):
        # Known keys are filtered before the append, so both copies of a key
        # new to the disk land: one append, one (counted) rewrite.
        layered = LayeredStore(SynthesisCache(), DiskStore(tmp_path))
        layered.put_many([(key(0), curve(0)), (key(0), curve(7))])
        assert layered.disk.appends == 1 and layered.disk.rewrites == 1
        assert layered.get(key(0)).points() == curve(7).points()
        layered.close()
        reopened = LayeredStore(SynthesisCache(), DiskStore(tmp_path))
        assert len(reopened) == 1
        assert reopened.get(key(0)).points() == curve(7).points()
        reopened.close()

    def test_memory_checkpoint_restores_onto_a_layered_store(self, tmp_path):
        # An old in-memory checkpoint (entries inline) restored onto a
        # --store-dir run: the curves must land in both tiers.
        memory = SynthesisCache()
        memory.put(key(0), curve(0))
        state = memory.state_dict()
        layered = LayeredStore(SynthesisCache(), DiskStore(tmp_path))
        layered.load_state_dict(state)
        assert layered.get_many([key(0)])[0].points() == curve(0).points()
        assert len(layered.disk) == 1
        layered.close()

    def test_warm_restart_round_trip(self, tmp_path):
        first = make_store(tmp_path)
        first.put_many([(key(i), curve(i)) for i in range(5)])
        first.close()
        second = make_store(tmp_path)
        out = second.get_many([key(i) for i in range(5)])
        assert all(v is not None for v in out)
        assert second.misses == 0
        assert second.disk.appends == 0 and second.disk.rewrites == 0
        second.close()
