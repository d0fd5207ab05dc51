"""Schema-pin conformance: every ``stats()`` across the codebase reports
exactly its documented keys, with numeric counter values.

The pins live next to the implementations (``STATS_KEYS``,
``STATS_BASE_KEYS`` …); this test walks one instance of each
implementation and fails the moment a key is added, renamed, or dropped
without updating its pin — ``repro train``'s report and the checkpoint
format both read these dicts by key.
"""

from __future__ import annotations

import pytest

from repro.cells import nangate45
from repro.distributed import SynthesisFarm
from repro.store.api import STATS_BASE_KEYS
from repro.store.disk import DiskStore
from repro.store.layered import LayeredStore
from repro.synth import STATS_KEYS, EvaluationBackend, SynthesisCache


@pytest.fixture(scope="module")
def lib():
    return nangate45()


def assert_numeric(stats: dict, keys, *, skip=()) -> None:
    """Every pinned key present, nothing extra, counters int/float."""
    assert set(stats) == set(keys)
    for key in keys:
        if key in skip:
            continue
        value = stats[key]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (
            f"{key}={value!r} is not a plain number"
        )


def assert_backend_schema(stats: dict) -> None:
    """The unified backend schema: exactly STATS_KEYS."""
    assert set(stats) == set(STATS_KEYS)
    assert isinstance(stats["backend"], str)
    for key in STATS_KEYS:
        if key in ("backend", "cache"):
            continue
        value = stats[key]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (
            f"{key}={value!r} is not a plain number"
        )
    # The nested cache dict follows the store base schema (or is None for
    # a cacheless farm).
    if stats["cache"] is not None:
        assert_numeric(stats["cache"], STATS_BASE_KEYS)


class TestBackendSchemas:
    def test_store_only_backend(self, lib):
        assert_backend_schema(EvaluationBackend(lib, store=SynthesisCache()).stats())

    def test_storeless_backend_reports_no_cache(self, lib):
        stats = EvaluationBackend(lib).stats()
        assert_backend_schema(stats)
        assert stats["cache"] is None

    def test_pool_farm_backend(self, lib):
        farm = SynthesisFarm(num_workers=1)  # pool is lazy: nothing spawns
        try:
            assert_backend_schema(EvaluationBackend(lib, runner=farm).stats())
        finally:
            farm.close()

    def test_counters_dict_carries_every_cumulative_counter(self, lib):
        from repro.synth.backend import COUNTER_KEYS

        farm = SynthesisFarm(num_workers=1)
        try:
            assert set(EvaluationBackend(lib, runner=farm).counters_dict()) == set(COUNTER_KEYS)
        finally:
            farm.close()


class TestStoreSchemas:
    def test_in_memory_store_reports_exactly_the_base_keys(self):
        assert_numeric(SynthesisCache().stats(), STATS_BASE_KEYS)

    def test_disk_store_extends_the_base_keys(self, tmp_path):
        store = DiskStore(tmp_path)
        try:
            assert_numeric(
                store.stats(),
                STATS_BASE_KEYS
                + (
                    "segments",
                    "bytes",
                    "appends",
                    "rewrites",
                    "torn_records",
                    "compactions",
                ),
            )
        finally:
            store.close()

    def test_layered_store_nests_per_tier_views(self, tmp_path):
        store = LayeredStore(SynthesisCache(), DiskStore(tmp_path))
        try:
            stats = store.stats()
        finally:
            store.close()
        assert set(stats) == set(STATS_BASE_KEYS) | {"front", "disk"}
        assert_numeric(stats["front"], STATS_BASE_KEYS)
        assert set(stats["disk"]) >= set(STATS_BASE_KEYS)
