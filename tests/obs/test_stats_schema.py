"""Schema-pin conformance: every ``stats()`` across the codebase reports
exactly its documented keys, with numeric counter values.

The pins live next to the implementations (``STATS_KEYS``,
``MEMBERSHIP_KEYS``, ``STATS_BASE_KEYS`` …); this
test walks one instance of each implementation and fails the moment a key
is added, renamed, or dropped without updating its pin — the fleet
aggregation layer (``repro stats``) and the checkpoint format both read
these dicts by key.
"""

from __future__ import annotations

import pytest

from repro.cells import nangate45
from repro.distributed import SynthesisFarm
from repro.net import MEMBERSHIP_KEYS, ClusterSpec, LearnerState, RemoteFarmPool
from repro.rl import ScalarizedDoubleDQN, TrainerConfig
from repro.rl.replay import ReplayBuffer
from repro.rl.trainer import TrainingHistory
from repro.store.api import STATS_BASE_KEYS
from repro.store.disk import DiskStore
from repro.store.layered import LayeredStore
from repro.synth import (
    STATS_KEYS,
    EvaluationBackend,
    LocalServiceClient,
    SharedCacheService,
    SynthesisCache,
)
from repro.synth.leases import STATS_KEYS as LEASE_STATS_KEYS


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


def assert_backend_schema(stats: dict, *, extensions=()) -> None:
    """The unified backend schema: STATS_KEYS plus declared extensions."""
    assert set(stats) == set(STATS_KEYS) | set(extensions)
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

    def test_remote_farm_adds_the_remote_extension(self, lib):
        runner = RemoteFarmPool(["127.0.0.1:1"])
        stats = EvaluationBackend(lib, runner=runner).stats()
        assert_backend_schema(stats, extensions=("remote",))
        assert set(stats["remote"]) == {
            "workers",
            "worker_setup_seconds",
            "worker_opt_seconds",
            "redispatched_tasks",
        }

    def test_lease_service_adds_the_lease_extension(self, lib):
        service = LocalServiceClient(SharedCacheService(), owner="schema-test")
        backend = EvaluationBackend(lib, store=SynthesisCache(), service=service)
        stats = backend.stats()
        assert_backend_schema(stats, extensions=("lease",))
        assert set(stats["lease"]) == {
            "granted",
            "waited",
            "wait_hits",
            "reclaimed_grants",
        }

    def test_lease_service_with_remote_farm_adds_both_extensions(self, lib):
        # The `repro actor --farm` construction (dialing is lazy: no I/O).
        service = LocalServiceClient(SharedCacheService(), owner="schema-test")
        runner = RemoteFarmPool(["127.0.0.1:1"])
        stats = EvaluationBackend(
            lib, store=SynthesisCache(), service=service, runner=runner
        ).stats()
        assert_backend_schema(stats, extensions=("lease", "remote"))
        assert stats["remote"]["workers"] == 1

    def test_counters_dict_carries_every_cumulative_counter(self, lib):
        from repro.synth.backend import COUNTER_KEYS

        runner = RemoteFarmPool(["127.0.0.1:1"])
        backend = EvaluationBackend(lib, runner=runner)
        assert set(backend.counters_dict()) == set(COUNTER_KEYS) | set(runner.totals)
        assert set(runner.totals) == set(backend.stats()["remote"]) - {"workers"}


class TestLeaseServiceSchema:
    def test_shared_cache_service(self):
        assert_numeric(SharedCacheService().stats(), LEASE_STATS_KEYS)


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


class TestMembershipSchema:
    def test_membership_dict(self):
        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        config = TrainerConfig(steps=10, batch_size=4, warmup_steps=4)
        state = LearnerState(
            agent=agent,
            buffer=ReplayBuffer(100, rng=0),
            history=TrainingHistory(),
            config=config,
            total=10,
            spec=ClusterSpec.for_agent(agent, envs_per_actor=2, seed=0),
        )
        assert_numeric(state.membership_dict(), MEMBERSHIP_KEYS)
