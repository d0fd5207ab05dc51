"""``QNetwork.predict`` runs each distinct input row once.

The invariant that makes this exact: an inference pass is row-independent
bit for bit (every convolution is the same per-row GEMM whatever the batch,
eval-mode batchnorm, LeakyReLU and the residual add are elementwise), so a
row's Q map does not depend on which other rows share its batch. The
property tests hold that byte for byte over repeats, permutations and call
sizes from 1 to 96 rows; the spy tests hold what ``forward`` is handed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import QNetwork

WIDTHS = (3, 5, 8, 16, 32)


def batchnorm_network(n: int) -> QNetwork:
    net = QNetwork(n, blocks=2, channels=16, rng=n)
    # Non-trivial running statistics, so eval-mode batchnorm is not the identity.
    for stage in (net.body.stages[1], net.head.stages[1]):
        stage.running_mean[...] = np.linspace(-0.5, 0.5, stage.running_mean.size)
        stage.running_var[...] = np.linspace(0.5, 2.0, stage.running_var.size)
    return net


network = lru_cache(maxsize=None)(batchnorm_network)


def rows(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` distinct float32 feature rows."""
    return np.random.default_rng(seed).standard_normal((count, 4, n, n)).astype(np.float32)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def first_seen(idx) -> "list[int]":
    """The distinct values of ``idx`` in first-seen order."""
    return list(dict.fromkeys(int(i) for i in idx))


@st.composite
def batches(draw):
    """(n, distinct row count, index array with repeats or a permutation)."""
    n = draw(st.sampled_from(WIDTHS))
    distinct = draw(st.integers(1, 12))
    if draw(st.booleans()):
        idx = draw(st.permutations(range(distinct)))
    else:
        idx = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=12))
    return n, distinct, np.array(idx, dtype=np.intp)


class TestRowIndependence:
    @settings(max_examples=40, deadline=None)
    @given(batches(), st.integers(0, 2**16))
    # The acting shapes: every row distinct, and lockstep repeats.
    @example((32, 8, np.arange(8)), 0)
    @example((32, 4, np.array([0, 1, 1, 2, 3, 3, 0, 2])), 0)
    @example((16, 16, np.arange(16) % 12), 0)
    def test_float32_rows(self, case, seed):
        n, distinct, idx = case
        net, x = network(n), rows(n, distinct, seed)
        assert same_bytes(net.predict(x)[idx], net.predict(x[idx]))

    @settings(max_examples=25, deadline=None)
    @given(batches(), st.integers(0, 2**16))
    def test_float64_rows_that_round_to_one_float32_row(self, case, seed):
        n, distinct, idx = case
        net, x = network(n), rows(n, distinct, seed)
        # Each repeat differs from the others in float64, below float32's resolution.
        nudge = 1.0 + 1e-12 * np.arange(1, len(idx) + 1)[:, None, None, None]
        x64 = x[idx].astype(np.float64) * nudge
        assert len({row.tobytes() for row in x64}) == len(idx)
        assert same_bytes(net.predict(x)[idx], net.predict(x64))

    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from((8, 16, 32)),
        st.integers(0, 2**16),
        st.lists(st.integers(0, 95), min_size=16, max_size=16, unique=True),
        st.integers(0, 15),
    )
    @example(8, 0, list(range(16)), 0)
    @example(16, 0, list(range(16)), 0)
    @example(32, 0, list(range(16)), 0)
    def test_a_row_is_the_same_from_calls_of_1_16_and_96_rows(self, n, seed, idx16, k):
        # The agent's target memo mixes maps from calls of every size, from
        # one new row up to a whole batch (96 is the paper's per-GPU batch).
        # An uncached network: a 96-row pass at n=32 grows its workspace by
        # ~230 MB, which the rest of the session need not hold.
        net, x, i = batchnorm_network(n), rows(n, 96, seed), idx16[k]
        q96, q16, q1 = net.predict(x), net.predict(x[idx16]), net.predict(x[i:i + 1])
        assert same_bytes(q16, q96[idx16])
        assert same_bytes(q1[0], q96[i])


class TestForwardSeesDistinctRows:
    def spy(self, net, monkeypatch):
        seen = []
        forward = net.forward

        def recording(x):
            seen.append(np.array(x, copy=True))
            return forward(x)

        monkeypatch.setattr(net, "forward", recording)
        return seen

    @settings(max_examples=30, deadline=None)
    @given(batches(), st.integers(0, 2**16))
    def test_once_per_predict_in_first_seen_order(self, case, seed):
        n, distinct, idx = case
        net, x = QNetwork(n, blocks=1, channels=4, rng=0), rows(n, distinct, seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = self.spy(net, monkeypatch)
            q = net.predict(x[idx])
        (handed,) = seen
        assert same_bytes(handed, x[first_seen(idx)])
        assert q.shape == (len(idx), 4, n, n)

    def test_float64_rows_are_keyed_after_the_cast(self, monkeypatch):
        net, x = QNetwork(5, blocks=1, channels=4, rng=0), rows(5, 2, seed=0)
        x64 = x[[0, 1, 0]].astype(np.float64)
        x64[2] *= 1.0 + 1e-12  # not the float64 row 0, but the same float32 row
        seen = self.spy(net, monkeypatch)
        net.predict(x64)
        assert len(seen) == 1 and same_bytes(seen[0], x)

    def test_training_forward_keeps_every_row(self):
        # Batch statistics need every row: [a, a, b] normalizes a differently
        # from [a, b], which is why only predict deduplicates.
        net, x = QNetwork(5, blocks=1, channels=4, rng=0), rows(5, 2, seed=1)
        net.train()
        repeated = net.forward(x[[0, 0, 1]])
        net.drop_caches()
        once = net.forward(x)
        net.drop_caches()
        assert repeated.shape[0] == 3
        assert not np.array_equal(repeated[0], once[0])
