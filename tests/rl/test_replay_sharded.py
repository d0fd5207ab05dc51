"""Array-backed replay rings: vectorized sampling, sharding, persistence."""

import threading

import numpy as np
import pytest

from repro.rl import ReplayBuffer, ShardedReplayBuffer, Transition


def make_transition(i=0, n=4, num_actions=12):
    return Transition(
        state=np.full((4, n, n), float(i)),
        action=i % num_actions,
        reward=np.array([float(i), -float(i)]),
        next_state=np.full((4, n, n), float(i) + 0.5),
        next_mask=np.ones(num_actions, dtype=bool),
        done=bool(i % 3 == 0),
    )


class TestVectorizedRing:
    def test_sample_matches_reference_stacking(self):
        """The fancy-index gather returns exactly what per-item stacking did."""
        transitions = [make_transition(i) for i in range(9)]
        buf = ReplayBuffer(20, rng=5)
        for t in transitions:
            buf.push(t)
        idx = np.random.default_rng(5).integers(9, size=6)
        batch = buf.sample(6)
        np.testing.assert_array_equal(
            batch["states"], np.stack([transitions[i].state for i in idx])
        )
        np.testing.assert_array_equal(
            batch["actions"], np.array([transitions[i].action for i in idx])
        )
        np.testing.assert_array_equal(
            batch["rewards"], np.stack([transitions[i].reward for i in idx])
        )
        np.testing.assert_array_equal(
            batch["dones"], np.array([transitions[i].done for i in idx])
        )

    def test_rng_stream_matches_historical_buffer(self):
        """Same seed -> same sampled indices as the list-backed original."""
        buf = ReplayBuffer(10, rng=42)
        for i in range(7):
            buf.push(make_transition(i))
        batch = buf.sample(5)
        expected_idx = np.random.default_rng(42).integers(7, size=5)
        np.testing.assert_array_equal(batch["states"][:, 0, 0, 0], expected_idx.astype(float))

    def test_push_copies_data(self):
        buf = ReplayBuffer(4)
        t = make_transition(1)
        buf.push(t)
        t.state[...] = 99.0
        batch = buf.sample(1)
        assert batch["states"].max() <= 1.5

    def test_state_dict_round_trip(self):
        buf = ReplayBuffer(5, rng=1)
        for i in range(8):  # wraps: ring position matters
            buf.push(make_transition(i))
        buf.sample(3)  # advance the RNG stream
        snap = buf.state_dict()

        other = ReplayBuffer(5, rng=999)
        other.load_state_dict(snap)
        assert len(other) == len(buf)
        a, b = buf.sample(4), other.sample(4)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_state_dict_empty_buffer(self):
        buf = ReplayBuffer(5)
        other = ReplayBuffer(5)
        other.load_state_dict(buf.state_dict())
        assert len(other) == 0
        with pytest.raises(ValueError):
            other.sample(1)

    def test_capacity_mismatch_rejected(self):
        buf = ReplayBuffer(5)
        buf.push(make_transition(0))
        with pytest.raises(ValueError, match="capacity mismatch"):
            ReplayBuffer(6).load_state_dict(buf.state_dict())


class TestShardedBuffer:
    def test_capacity_split(self):
        buf = ShardedReplayBuffer(10, num_shards=3)
        assert [s.capacity for s in buf.shards] == [4, 3, 3]

    def test_push_routes_to_shard(self):
        buf = ShardedReplayBuffer(18, num_shards=3)
        for i in range(6):
            buf.push(make_transition(i), shard=1)
        assert len(buf.shards[1]) == 6
        assert len(buf.shards[0]) == 0 and len(buf.shards[2]) == 0

    def test_round_robin_default(self):
        buf = ShardedReplayBuffer(12, num_shards=3)
        for i in range(7):
            buf.push(make_transition(i))
        assert [len(s) for s in buf.shards] == [3, 2, 2]

    def test_sample_spans_shards(self):
        buf = ShardedReplayBuffer(30, num_shards=3, rng=0)
        for shard in range(3):
            for i in range(5):
                buf.push(make_transition(shard * 5 + i), shard=shard)
        batch = buf.sample(400)
        seen = set(np.unique(batch["states"][:, 0, 0, 0]).astype(int))
        assert seen == set(range(15))  # every stored transition reachable

    def test_sample_preserves_order_across_shards(self):
        """Batch row k corresponds to the k-th drawn global index."""
        buf = ShardedReplayBuffer(8, num_shards=2, rng=7)
        for i in range(4):
            buf.push(make_transition(i), shard=0)
        for i in range(4, 8):
            buf.push(make_transition(i), shard=1)
        flat = np.random.default_rng(7).integers(8, size=10)
        batch = buf.sample(10)
        np.testing.assert_array_equal(batch["states"][:, 0, 0, 0], flat.astype(float))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ShardedReplayBuffer(4, num_shards=2).sample(1)

    def test_bad_layout(self):
        with pytest.raises(ValueError):
            ShardedReplayBuffer(2, num_shards=3)
        with pytest.raises(ValueError):
            ShardedReplayBuffer(4, num_shards=0)

    def test_concurrent_pushes_and_samples(self):
        """Actors hammer their shards while a learner samples; no corruption."""
        buf = ShardedReplayBuffer(200, num_shards=4, rng=3)
        for shard in range(4):
            buf.push(make_transition(shard), shard=shard)
        errors = []

        def actor(shard):
            try:
                for i in range(150):
                    buf.push(make_transition(shard * 1000 + i), shard=shard)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def learner():
            try:
                for _ in range(60):
                    batch = buf.sample(16)
                    assert batch["states"].shape == (16, 4, 4, 4)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=actor, args=(s,)) for s in range(4)]
        threads.append(threading.Thread(target=learner))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(buf) == 200  # all rings full

    def test_state_dict_round_trip(self):
        buf = ShardedReplayBuffer(12, num_shards=3, rng=2)
        for i in range(20):
            buf.push(make_transition(i))
        buf.sample(5)
        snap = buf.state_dict()
        other = ShardedReplayBuffer(12, num_shards=3, rng=11)
        other.load_state_dict(snap)
        a, b = buf.sample(8), other.sample(8)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_a_float64_snapshot_loads_into_float32_shards(self):
        """What a float64 release's checkpoint holds: every shard's ring is this
        tree's dtypes whatever the snapshot's, and the values load by cast."""
        buf = ShardedReplayBuffer(12, num_shards=3, rng=2)
        for i in range(20):
            buf.push(make_transition(i))
        snap = buf.state_dict()
        for shard in snap["shards"]:
            for key in ("states", "next_states"):
                assert shard["arrays"][key].dtype == np.float32
                shard["arrays"][key] = shard["arrays"][key].astype(np.float64)
        other = ShardedReplayBuffer(12, num_shards=3)
        other.load_state_dict(snap)
        a, b = buf.sample(8), other.sample(8)
        for key in a:
            assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key
        assert b["states"].dtype == b["next_states"].dtype == np.float32 and b["rewards"].dtype == np.float64

    def test_layout_mismatch_rejected(self):
        buf = ShardedReplayBuffer(12, num_shards=3)
        buf.push(make_transition(0))
        with pytest.raises(ValueError, match="layout mismatch"):
            ShardedReplayBuffer(12, num_shards=4).load_state_dict(buf.state_dict())
