"""The Q-network's numerical contract, held against the test-side oracle.

``repro.nn.functional`` has one path per op (row-unfolded / pointwise GEMM
convolution, fused batchnorm). Each reassociates sums the im2col
convolution and the four-pass batchnorm in ``tests/oracles/nn.py`` take
in another order, so the contract is a stated tolerance per dtype — not
byte equality — on every output and gradient, plus finite-difference
checks that the backward passes are gradients in their own right (full
sweeps live in ``test_gradients.py``). The oracle *network* is the same
``QNetwork`` run with the four functional ops swapped for the oracle's.

Network arrays are born float32. The function-level rows hand the ops
tensors of either dtype (an op computes in the dtype it is handed); a
network's float64 row runs it through ``oracle.in_float64``, which upcasts
its parameters and buffers in place.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import Adam, QNetwork, huber_loss
from repro.nn import functional as F
from tests.oracles import nn as oracle

# Reassociation tolerance per dtype: (rtol, atol).
TOL = {np.float64: (1e-10, 1e-12), np.float32: (1e-3, 1e-5)}
DTYPES = [np.float64, np.float32]
OPS = ("conv2d_forward", "conv2d_backward", "batchnorm_forward", "batchnorm_backward")

CONV_SHAPES = [
    # (batch, c_in, c_out, n, k) — the trainer shapes (3x3 stem, 5x5
    # residual, 16->16 and 16->4 heads) plus deliberately awkward odd sizes.
    (1, 1, 1, 3, 3),
    (2, 3, 4, 5, 3),
    (4, 4, 16, 8, 3),
    (2, 16, 16, 8, 5),
    (3, 5, 7, 11, 5),
    (1, 2, 3, 9, 7),
    (1, 1, 1, 3, 1),
    (2, 16, 16, 8, 1),
    (4, 16, 4, 16, 1),
    (3, 5, 7, 11, 1),
    (8, 16, 4, 32, 1),
    # n = (H, W) with H != W pins the unfold's stride arithmetic: kernel row i
    # is rows i*W .. (i+H)*W of the unfolded matrix.
    (2, 16, 16, (6, 9), 5),
    (3, 5, 7, (11, 4), 3),
    (1, 16, 16, (16, 3), 5),  # narrower than the kernel
    (2, 3, 2, (1, 8), 5),  # a single row
]


def conv_case(rng, shape, dtype=np.float64, bias=True):
    b, c_in, c_out, n, k = shape
    hw = n if isinstance(n, tuple) else (n, n)
    x = rng.normal(size=(b, c_in, *hw)).astype(dtype)
    w = rng.normal(size=(c_out, c_in, k, k)).astype(dtype)
    bias_arr = rng.normal(size=c_out).astype(dtype) if bias else None
    dy = rng.normal(size=(b, c_out, *hw)).astype(dtype)
    return x, w, bias_arr, dy


def bn_case(rng, b=4, c=6, n=8, dtype=np.float64):
    x = rng.normal(size=(b, c, n, n)).astype(dtype)
    gamma = rng.normal(loc=1.0, scale=0.2, size=c).astype(dtype)
    beta = rng.normal(size=c).astype(dtype)
    dy = rng.normal(size=(b, c, n, n)).astype(dtype)
    return x, gamma, beta, dy


def assert_close(got, want, dtype, scale=1.0):
    rtol, atol = TOL[dtype]
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=rtol * scale, atol=atol * scale)


def make_net(dtype, **kwargs):
    net = QNetwork(**kwargs)
    return oracle.in_float64(net) if dtype is np.float64 else net


def spot_check_gradients(objective, pairs, tol, samples=5, eps=1e-6):
    """Central differences of ``objective()`` at ~``samples`` evenly spaced
    coordinates of each ``(array, analytic_gradient)`` pair."""
    for arr, grad in pairs:
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // samples)):
            orig = flat[k]
            flat[k] = orig + eps
            plus = objective()
            flat[k] = orig - eps
            minus = objective()
            flat[k] = orig
            assert abs(gflat[k] - (plus - minus) / (2 * eps)) < tol


@contextmanager
def oracle_numerics():
    """Run every ``QNetwork`` in the block on the oracle's conv and batchnorm."""
    with pytest.MonkeyPatch.context() as patch:
        for name in OPS:
            patch.setattr(F, name, getattr(oracle, name))
        yield


class TestConv:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_forward_and_backward_within_tolerance(self, shape, dtype):
        x, w, bias, dy = conv_case(np.random.default_rng(hash(shape) % (2**32)), shape, dtype)
        y_ref, cache_ref = oracle.conv2d_forward(x, w, bias)
        y, cache = F.conv2d_forward(x, w, bias)
        assert_close(y, y_ref, dtype)
        for got, want in zip(F.conv2d_backward(dy, cache), oracle.conv2d_backward(dy, cache_ref)):
            assert_close(got, want, dtype)
        # Without the input gradient, the parameter gradients are the same bytes.
        dx, *params = F.conv2d_backward(dy, F.conv2d_forward(x, w, bias)[1], input_grad=False)
        assert dx is None
        for got, want in zip(params, F.conv2d_backward(dy, cache)[1:]):
            assert np.array_equal(got, want)

    # The last is the stem (K=3, C_in=4) at B=1 on a non-square input.
    @pytest.mark.parametrize("shape", [(2, 6, 3, 5, 1), (2, 3, 4, 6, 3), (1, 4, 16, (7, 5), 3)])
    def test_no_bias(self, shape):
        x, w, _, dy = conv_case(np.random.default_rng(0), shape, bias=False)
        y_ref, cache_ref = oracle.conv2d_forward(x, w, None)
        y, cache = F.conv2d_forward(x, w, None)
        assert_close(y, y_ref, np.float64)
        dx, dw, db = F.conv2d_backward(dy, cache)
        dx_ref, dw_ref, db_ref = oracle.conv2d_backward(dy, cache_ref)
        assert db is None and db_ref is None
        assert_close(dx, dx_ref, np.float64)
        assert_close(dw, dw_ref, np.float64)

    @pytest.mark.parametrize("k", [3, 5])
    def test_dx_is_the_oracle_convolution_of_dy_with_the_flipped_swapped_kernel(self, k):
        """How ``dx`` is computed, held against the oracle's *forward*: an
        unflipped or un-swapped kernel fails here on its own, C_in != C_out."""
        x, weight, bias, dy = conv_case(np.random.default_rng(k), (2, 3, 6, 7, k))
        dx = F.conv2d_backward(dy, F.conv2d_forward(x, weight, bias)[1])[0]
        flipped = np.ascontiguousarray(weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        assert_close(dx, oracle.conv2d_forward(dy, flipped, None)[0], np.float64)

    @pytest.mark.parametrize("shape", [(2, 3, 2, 4, 1), (2, 3, 4, 5, 3), (2, 2, 3, 6, 5)])
    def test_gradients_numerically(self, shape):
        x, w, bias, dy = conv_case(np.random.default_rng(3), shape)
        _, cache = F.conv2d_forward(x, w, bias)
        grads = F.conv2d_backward(dy, cache)
        spot_check_gradients(
            lambda: float((F.conv2d_forward(x, w, bias)[0] * dy).sum()), zip((x, w, bias), grads), tol=1e-6
        )

    @pytest.mark.parametrize("k", [(2, 2), (3, 5), (4, 4)])
    def test_even_or_rectangular_kernels_rejected(self, k):
        with pytest.raises(ValueError, match="odd square"):
            F.conv2d_forward(np.zeros((1, 2, 6, 6)), np.zeros((3, 2, *k)), None)


class TestBatchnorm:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_oracle_within_tolerance(self, training, dtype):
        x, gamma, beta, dy = bn_case(np.random.default_rng(7), dtype=dtype)
        rm_ref, rv_ref = np.zeros(6, dtype=dtype), np.ones(6, dtype=dtype)
        rm, rv = rm_ref.copy(), rv_ref.copy()
        y_ref, cache_ref = oracle.batchnorm_forward(x, gamma, beta, rm_ref, rv_ref, 0.1, 1e-5, training)
        y, cache = F.batchnorm_forward(x, gamma, beta, rm, rv, 0.1, 1e-5, training)
        assert_close(y, y_ref, dtype)
        # The running variance is the identical expression; the batch mean
        # accumulates in float64, which a float32 oracle's does not.
        assert rv.tobytes() == rv_ref.tobytes()
        assert_close(rm, rm_ref, dtype)
        assert dtype is np.float32 or rm.tobytes() == rm_ref.tobytes()
        for got, want in zip(F.batchnorm_backward(dy, cache), oracle.batchnorm_backward(dy, cache_ref)):
            assert_close(got, want, dtype)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients_numerically(self, training):
        x, gamma, beta, dy = bn_case(np.random.default_rng(13), b=3, c=2, n=4)
        running = np.array([0.3, -0.2]), np.array([1.5, 0.7])

        def forward():
            return F.batchnorm_forward(x, gamma, beta, running[0].copy(), running[1].copy(), 0.1, 1e-5, training)

        grads = F.batchnorm_backward(dy, forward()[1])
        spot_check_gradients(lambda: float((forward()[0] * dy).sum()), zip((x, gamma, beta), grads), tol=1e-5)


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ratio=st.floats(0.0, 30.0), training=st.booleans())
    @example(seed=0, ratio=0.0, training=True)
    @example(seed=1, ratio=3.0, training=True)
    @example(seed=2, ratio=10.0, training=False)
    @example(seed=3, ratio=30.0, training=True)
    @example(seed=4, ratio=30.0, training=False)
    @example(seed=7250203, ratio=12.0, training=False)
    def test_float32_survives_an_off_centre_channel(self, seed, ratio, training):
        """The fused algebra cancels: ``dgamma = inv_std * (sum(dy*x) - mean*sum(dy))``
        and ``shift = beta - mean*scale`` lose digits as |mean|/sigma grows.
        Held at B*H*W = 4096 up to |mean| = 30 sigma against the oracle *in
        float64 on the same inputs* — what the float32 result should be near,
        not another float32 rounding of it. With every per-channel reduction in
        float32 ``dgamma`` reached 1.2x / 2.5x the tolerance at 10 / 30 sigma
        (the textbook float32 batchnorm too: the float32 mean itself carries
        the error). Sums in float64 alone still rounded each ``dy * x`` at the
        size of |mean|: over 600 random draws ``dgamma`` reached 3.0x (the
        last example above, in eval). With the products centred,
        ``dy * (x - mean)``, the worst share over those draws is 0.17 on
        ``dgamma`` and 0.43 on ``y``."""
        rng = np.random.default_rng(seed)
        c = 6
        sigma = rng.uniform(0.5, 2.0, size=c)
        centre = rng.choice([-1.0, 1.0], size=c) * ratio * sigma
        x = (rng.normal(size=(4, c, 32, 32)) * sigma[None, :, None, None] + centre[None, :, None, None]).astype(
            np.float32
        )
        _, gamma, beta, dy = bn_case(rng, c=c, n=32, dtype=np.float32)
        running = (centre.astype(np.float32), (sigma**2).astype(np.float32))
        y, cache = F.batchnorm_forward(x, gamma, beta, *(r.copy() for r in running), 0.1, 1e-5, training)
        y_ref, cache_ref = oracle.batchnorm_forward(
            *(a.astype(np.float64) for a in (x, gamma, beta, *running)), 0.1, 1e-5, training
        )
        want = (y_ref, *oracle.batchnorm_backward(dy.astype(np.float64), cache_ref))
        for got, ref in zip((y, *F.batchnorm_backward(dy, cache)), want):
            assert got.dtype == np.float32
            assert_close(got.astype(np.float64), ref, np.float32)


class TestQNetwork:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_predict_within_tolerance(self, dtype):
        x = np.random.default_rng(2).normal(size=(3, 4, 8, 8))
        net = make_net(dtype, n=8, blocks=1, channels=8, rng=0)
        y = net.predict(x)
        with oracle_numerics():
            y_ref = net.predict(x)
        # Ten layers deep: the per-op tolerance, with headroom to compound.
        assert_close(y, y_ref, dtype, scale=10.0)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_predict_is_batch_invariant(self, dtype):
        """A row's Q-map does not depend on which rows share its batch:
        ``predict(x)[rows]`` and ``predict(x[rows])`` are the same bytes.
        ``epsilon_greedy`` predicts only the rows that exploit, and the
        ``Trainer``-vs-vector same-bytes test steps one replica against
        eight; both rely on this. Every conv GEMM is batched per item and
        eval-mode batchnorm is per-channel constants, so it holds by shape."""
        rng = np.random.default_rng(5)
        net = make_net(dtype, n=8, blocks=2, channels=8, rng=0)
        x = rng.normal(size=(8, 4, 8, 8))
        full = net.predict(x)
        for b in range(1, 9):
            rows = np.sort(rng.choice(8, size=b, replace=False))
            assert net.predict(x[rows]).tobytes() == full[rows].tobytes(), rows

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_three_step_training_trajectory_tracks_oracle(self, dtype):
        rng = np.random.default_rng(21)
        batches = [(rng.normal(size=(4, 4, 8, 8)), rng.normal(size=(4, 4, 8, 8))) for _ in range(3)]

        lr = 1e-3

        def train():
            net = make_net(dtype, n=8, blocks=1, channels=8, rng=0)
            optimizer = Adam(net.parameters(), lr=lr)
            losses = []
            for x, target in batches:
                loss, dpred = huber_loss(net.forward(x), target)
                net.zero_grad()
                net.backward(dpred)
                optimizer.step()
                losses.append(loss)
            return losses, net.parameters()

        losses, params = train()
        with oracle_numerics():
            losses_ref, params_ref = train()
        # float64: ten times the per-op row for the losses, a hundred for what
        # three Adam steps make of them. float32: the per-op row as it stands.
        loss_tol, param_tol = ((1e-9, 1e-11), (1e-8, 1e-10)) if dtype is np.float64 else (TOL[dtype], TOL[dtype])
        np.testing.assert_allclose(losses, losses_ref, rtol=loss_tol[0], atol=loss_tol[1])
        for p, p_ref in zip(params, params_ref):
            assert p.name == p_ref.name and p.value.dtype == p_ref.value.dtype == dtype
            if dtype is np.float32 and p.name == "conv.bias" and p is not params[-1]:
                # A conv bias that feeds a batchnorm has gradient exactly zero (the
                # channel mean is subtracted). At float32 the computed one is ~1e-9
                # of rounding, the size of Adam's eps, so Adam steps on noise: the
                # two runs agree only in that neither outruns lr per step.
                assert max(np.abs(p.value).max(), np.abs(p_ref.value).max()) <= len(batches) * lr
                continue
            np.testing.assert_allclose(p.value, p_ref.value, rtol=param_tol[0], atol=param_tol[1])
