"""Numerical gradient checks for every layer and the full Q-network.

Central differences at eps 1e-6 need float64's digits: the functional ops
are handed float64 tensors, and a module (born float32) is upcast in place
by ``tests.oracles.nn.in_float64`` first.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import QNetwork, huber_loss, mse_loss
from repro.nn.layers import BatchNorm2d, Conv2d, LeakyReLU, ResidualBlock, Sequential
from tests.oracles.nn import in_float64


def numerical_grad(func, x, eps=1e-6):
    """Central-difference gradient of a scalar function of array ``x``."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = func()
        x[idx] = orig - eps
        minus = func()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


@pytest.fixture
def gen():
    return np.random.default_rng(7)


class TestConvGradients:
    def test_conv2d_all_gradients(self, gen):
        x = gen.normal(size=(2, 3, 5, 5))
        w = gen.normal(size=(4, 3, 3, 3))
        b = gen.normal(size=4)
        dy = gen.normal(size=(2, 4, 5, 5))

        def objective():
            y, _ = F.conv2d_forward(x, w, b)
            return float((y * dy).sum())

        _, cache = F.conv2d_forward(x, w, b)
        dx, dw, db = F.conv2d_backward(dy, cache)
        assert np.abs(dx - numerical_grad(objective, x)).max() < 1e-6
        assert np.abs(dw - numerical_grad(objective, w)).max() < 1e-6
        assert np.abs(db - numerical_grad(objective, b)).max() < 1e-6

    def test_conv1x1(self, gen):
        x = gen.normal(size=(2, 3, 4, 4))
        w = gen.normal(size=(2, 3, 1, 1))
        dy = gen.normal(size=(2, 2, 4, 4))

        def objective():
            y, _ = F.conv2d_forward(x, w, None)
            return float((y * dy).sum())

        _, cache = F.conv2d_forward(x, w, None)
        dx, dw, db = F.conv2d_backward(dy, cache)
        assert db is None
        assert np.abs(dx - numerical_grad(objective, x)).max() < 1e-6

    def test_even_kernel_rejected(self, gen):
        with pytest.raises(ValueError):
            F.conv2d_forward(gen.normal(size=(1, 1, 4, 4)), gen.normal(size=(1, 1, 2, 2)), None)

    def test_same_padding_preserves_shape(self, gen):
        for k in (1, 3, 5):
            x = gen.normal(size=(2, 3, 6, 6))
            w = gen.normal(size=(5, 3, k, k))
            y, _ = F.conv2d_forward(x, w, None)
            assert y.shape == (2, 5, 6, 6)


class TestBatchNormGradients:
    def test_training_mode_gradients(self, gen):
        x = gen.normal(size=(3, 4, 4, 4))
        gamma = gen.normal(size=4) + 1.0
        beta = gen.normal(size=4)
        dy = gen.normal(size=(3, 4, 4, 4))

        def objective():
            rm, rv = np.zeros(4), np.ones(4)
            y, _ = F.batchnorm_forward(x, gamma, beta, rm, rv, 0.1, 1e-5, True)
            return float((y * dy).sum())

        rm, rv = np.zeros(4), np.ones(4)
        _, cache = F.batchnorm_forward(x, gamma, beta, rm, rv, 0.1, 1e-5, True)
        dx, dg, db = F.batchnorm_backward(dy, cache)
        assert np.abs(dx - numerical_grad(objective, x)).max() < 1e-5
        assert np.abs(dg - numerical_grad(objective, gamma)).max() < 1e-5
        assert np.abs(db - numerical_grad(objective, beta)).max() < 1e-5

    def test_eval_mode_uses_running_stats(self, gen):
        x = gen.normal(size=(2, 3, 4, 4))
        gamma, beta = np.ones(3), np.zeros(3)
        rm, rv = np.full(3, 5.0), np.full(3, 4.0)
        y, _ = F.batchnorm_forward(x, gamma, beta, rm, rv, 0.1, 0.0, False)
        assert np.allclose(y, (x - 5.0) / 2.0)

    def test_running_stats_updated_in_training(self, gen):
        x = gen.normal(loc=3.0, size=(4, 2, 5, 5))
        rm, rv = np.zeros(2), np.ones(2)
        F.batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv, 0.5, 1e-5, True)
        assert (rm > 1.0).all()  # moved halfway toward ~3

    def test_train_output_normalized(self, gen):
        x = gen.normal(loc=7.0, scale=3.0, size=(8, 2, 6, 6))
        layer = in_float64(BatchNorm2d(2))
        y = layer(x)
        assert abs(float(y.mean())) < 1e-8
        assert float(y.var()) == pytest.approx(1.0, abs=1e-2)


class TestActivationAndBlocks:
    def test_leaky_relu_grad(self, gen):
        x = gen.normal(size=(3, 2, 4, 4))
        dy = gen.normal(size=(3, 2, 4, 4))
        layer = LeakyReLU(0.1)

        def objective():
            y, _ = F.leaky_relu_forward(x, 0.1)
            return float((y * dy).sum())

        layer(x)
        dx = layer.backward(dy)
        assert np.abs(dx - numerical_grad(objective, x)).max() < 1e-7

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_leaky_relu_is_the_masked_select_to_the_bit(self, gen, dtype):
        """``max(slope*x, x)`` forward and sign-of-the-output backward are the
        masked copy they replaced, zeros and signed zeros included."""
        x = gen.normal(size=(3, 2, 4, 4)).astype(dtype)
        x.reshape(-1)[:4] = [0.0, -0.0, np.finfo(dtype).tiny, -np.finfo(dtype).tiny]
        dy = gen.normal(size=x.shape).astype(dtype)
        for slope in (0.01, 0.1, 0.99):
            y, cache = F.leaky_relu_forward(x, slope)
            dx = F.leaky_relu_backward(dy, cache)
            assert y.dtype == dx.dtype == dtype
            assert y.tobytes() == np.where(x > 0, x, x * dtype(slope)).tobytes()
            assert dx.tobytes() == np.where(x > 0, dy, dy * dtype(slope)).tobytes()

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_leaky_relu_slope_outside_the_open_unit_interval_rejected(self, slope):
        with pytest.raises(ValueError, match="slope"):
            LeakyReLU(slope)

    def test_residual_block_gradcheck(self, gen):
        block = in_float64(ResidualBlock(3, kernel_size=3, rng=3))
        block.train()
        x = gen.normal(size=(2, 3, 5, 5))
        dy = gen.normal(size=(2, 3, 5, 5))

        def objective():
            return float((block(x) * dy).sum())

        block(x)
        block.zero_grad()
        dx = block.backward(dy)
        # Check input gradient and one parameter gradient numerically.
        assert np.abs(dx - numerical_grad(objective, x)).max() < 1e-5
        p = block.conv1.weight
        num = numerical_grad(objective, p.value)
        assert np.abs(p.grad - num).max() < 1e-5

    def test_sequential_backward_order(self, gen):
        seq = Sequential(Conv2d(2, 2, 3, rng=0), LeakyReLU(), Conv2d(2, 2, 3, rng=1))
        x = gen.normal(size=(1, 2, 4, 4))
        y = seq(x)
        dx = seq.backward(np.ones_like(y))
        assert dx.shape == x.shape


class TestLosses:
    def test_mse_grad(self, gen):
        pred = gen.normal(size=(3, 4))
        target = gen.normal(size=(3, 4))

        def objective():
            return mse_loss(pred, target)[0]

        _, dpred = mse_loss(pred, target)
        assert np.abs(dpred - numerical_grad(objective, pred)).max() < 1e-7

    def test_huber_grad_both_regimes(self, gen):
        pred = np.array([0.1, 3.0, -2.5, 0.4])
        target = np.zeros(4)

        def objective():
            return huber_loss(pred, target, delta=1.0)[0]

        _, dpred = huber_loss(pred, target, delta=1.0)
        assert np.abs(dpred - numerical_grad(objective, pred)).max() < 1e-7

    def test_masked_loss_ignores_unmasked(self, gen):
        pred = gen.normal(size=(4, 4))
        target = pred.copy()
        target[0, 0] += 10.0
        mask = np.zeros((4, 4))
        loss, dpred = huber_loss(pred, target, mask=mask)
        assert loss == 0.0
        assert not dpred.any()
        mask[0, 0] = 1.0
        loss, dpred = huber_loss(pred, target, mask=mask)
        assert loss > 0
        assert np.count_nonzero(dpred) == 1


class TestQNetworkGradients:
    def test_end_to_end_gradcheck(self, gen):
        net = in_float64(QNetwork(n=5, blocks=1, channels=4, rng=2))
        net.train()
        x = gen.normal(size=(2, 4, 5, 5))
        target = gen.normal(size=(2, 4, 5, 5))
        mask = (gen.random(size=(2, 4, 5, 5)) < 0.25).astype(float)

        def objective():
            y = net.forward(x)
            return huber_loss(y, target, mask=mask)[0]

        y = net.forward(x)
        _, dpred = huber_loss(y, target, mask=mask)
        net.zero_grad()
        net.backward(dpred)
        # Spot-check several parameters across the network.
        for p in (net.parameters()[0], net.parameters()[5], net.parameters()[-1]):
            flat = p.value.reshape(-1)
            gflat = p.grad.reshape(-1)
            for idx in (0, flat.size // 2, flat.size - 1):
                eps = 1e-6
                orig = flat[idx]
                flat[idx] = orig + eps
                plus = objective()
                flat[idx] = orig - eps
                minus = objective()
                flat[idx] = orig
                numeric = (plus - minus) / (2 * eps)
                assert gflat[idx] == pytest.approx(numeric, abs=1e-5)
