"""Module mechanics: modes, parameter collection, optimizers, persistence."""

import numpy as np
import pytest

from repro.nn import Adam, QNetwork, SGD, huber_loss
from repro.nn.layers import BatchNorm2d, Conv2d, Parameter, Sequential


@pytest.fixture
def gen():
    return np.random.default_rng(11)


class TestModuleSystem:
    def test_parameter_collection_counts(self):
        net = QNetwork(n=6, blocks=2, channels=8, rng=0)
        # stem conv(w,b) + stem bn(g,b) + 2 blocks * 2*(conv w,b + bn g,b)
        # + head conv(w,b) + head bn(g,b) + out conv(w,b)
        assert len(net.parameters()) == 4 + 2 * 8 + 4 + 2

    def test_train_eval_propagates(self):
        net = QNetwork(n=6, blocks=1, channels=4, rng=0)
        net.eval()
        assert not net.body.stages[1].training  # stem batchnorm
        net.train()
        assert net.body.stages[1].training

    def test_zero_grad(self, gen):
        net = QNetwork(n=5, blocks=0, channels=4, rng=0)
        x = gen.normal(size=(1, 4, 5, 5))
        y = net.forward(x)
        net.backward(np.ones_like(y))
        assert any(p.grad.any() for p in net.parameters())
        net.zero_grad()
        assert not any(p.grad.any() for p in net.parameters())

    def test_bad_input_shape(self):
        net = QNetwork(n=5, blocks=0, channels=4, rng=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 4, 6, 6)))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            QNetwork(n=5, blocks=-1, channels=4)
        with pytest.raises(ValueError):
            QNetwork(n=5, blocks=1, channels=0)

    def test_predict_restores_mode(self, gen):
        net = QNetwork(n=5, blocks=0, channels=4, rng=0)
        net.train()
        net.predict(gen.normal(size=(1, 4, 5, 5)))
        assert net.training

    def test_predict_leaves_no_layer_holding_a_cache(self, gen):
        def holding(module):
            return (module._cache is not None) + sum(holding(child) for child in module._children())

        net = QNetwork(n=5, blocks=1, channels=4, rng=0)
        net.forward(gen.normal(size=(2, 4, 5, 5)))
        assert holding(net) == 5 + 4 + 4  # every conv, batchnorm and LeakyReLU awaits a backward
        net.predict(gen.normal(size=(1, 4, 5, 5)))
        assert holding(net) == 0

    def test_backward_after_an_interleaved_predict_fails_loudly(self, gen):
        """A predict between a training forward and its backward used to
        swap in its own caches, and backward returned gradients for the
        predict's input. Now the pending forward is gone and backward says so."""
        net = QNetwork(n=5, blocks=0, channels=4, rng=0)
        net.train()
        y = net.forward(gen.normal(size=(2, 4, 5, 5)))
        net.predict(gen.normal(size=(2, 4, 5, 5)))
        with pytest.raises(RuntimeError, match="no pending forward"):
            net.backward(np.ones_like(y))

    def test_passes_reuse_the_workspace_and_hand_out_copies(self, gen):
        """Steady state allocates nothing large: the second same-shape pass
        computes in the first one's arrays. What the caller gets is a copy."""
        net = QNetwork(n=6, blocks=1, channels=4, rng=0)
        xs = gen.normal(size=(3, 2, 4, 6, 6))
        first = net.predict(xs[0])
        kept, held = first.copy(), [id(a) for a in net._workspace]
        second = net.predict(xs[1])
        assert [id(a) for a in net._workspace] == held
        assert np.array_equal(first, kept) and not np.array_equal(second, kept)
        # A smaller batch (acting hands predict only the rows that exploit) is
        # served from leading slices of the same arrays, and so is the next full one.
        wide = gen.normal(size=(2, 8, 4, 6, 6))
        full = net.predict(wide[0])
        full_kept, held = full.copy(), [id(a) for a in net._workspace]
        part = net.predict(wide[1][:6])
        again = net.predict(wide[1])
        assert [id(a) for a in net._workspace] == held
        assert np.array_equal(full, full_kept) and np.allclose(part, again[:6], rtol=1e-12, atol=0)
        assert not np.shares_memory(part, again) and not np.shares_memory(full, again)
        assert not any(np.shares_memory(part, a) for a in net._workspace)
        net.train()
        y = net.forward(xs[2])
        y_kept, forward_arrays = y.copy(), len(net._workspace)
        assert net.backward(np.ones_like(y)) is None  # nothing reads the stem's input gradient
        assert np.array_equal(y, y_kept) and len(net._workspace) > forward_arrays
        assert not any(np.shares_memory(y, a) for a in net._workspace)
        # A layer's dx is still computed for the layer below: the head hands the body its gradient.
        net.forward(xs[2])
        dx = net.head.backward(np.ones_like(y))
        assert dx.shape == (len(xs[2]), net.channels, 6, 6) and dx.dtype == np.float32
        net.drop_caches()

    def test_varying_batch_reuses_workspace_and_scratch(self, gen):
        """Acting's exploit-row count wanders (B = 8, 5, 8, ...): after the
        first full batch neither the per-layer arrays nor the shared conv
        scratch are replaced, and reuse changes no byte of any result."""

        def held(net):
            return [id(a) for a in net._workspace], {k: id(a) for k, a in net._workspace.scratch.items()}

        net = QNetwork(n=6, blocks=1, channels=4, rng=0)
        xs = [gen.normal(size=(b, 4, 6, 6)) for b in (8, 5, 8, 5)]
        got = [net.predict(xs[0])]
        first = held(net)
        assert first[1], "the convolution asked for no scratch"
        for x in xs[1:]:
            got.append(net.predict(x))
            assert held(net) == first
        for x, y in zip(xs, got):
            assert QNetwork(n=6, blocks=1, channels=4, rng=0).predict(x).tobytes() == y.tobytes()

    def test_scratch_is_per_network_not_per_layer(self, gen):
        """Bytes a ``QNetwork`` (blocks=2, channels=16) holds after one n=32,
        B=8 ``predict``: 17,834,496 in float32 (13,419,008 in 26 workspace
        arrays + 4,415,488 in 3 scratch arrays), against what would be 21,283,328
        in 47 workspace arrays if every conv layer kept its own slab and product
        (42,566,656 when they did, in float64). The unfolded matrix is 5x a slab
        but there is one of it, not one per layer."""
        net = QNetwork(n=32, blocks=2, channels=16, rng=0)
        net.predict(gen.normal(size=(8, 4, 32, 32)))
        ws = net._workspace
        assert len(ws.scratch) == 3  # stem unfold, 5x5 unfold, accumulator + product
        assert sum(a.nbytes for a in ws) + sum(a.nbytes for a in ws.scratch.values()) <= 17_834_496

    def test_workspace_changes_no_bytes(self, gen):
        """Same values with and without a workspace, across a change of batch
        size and from two threads with a network each."""
        import threading

        nets = [QNetwork(n=6, blocks=1, channels=4, rng=seed) for seed in (0, 1)]
        # float32 as ``predict`` would cast them: the bare layers compute in what they are handed.
        batches = [gen.normal(size=(b, 4, 6, 6)).astype(np.float32) for b in (2, 5, 2)]

        def bare(net, x):  # the layers outside any workspace: np.empty every time
            net.eval()
            return net.head(net.body(x))

        want = [[bare(net, x) for x in batches] for net in nets]
        got = [[], []]

        def run(k):
            for _ in range(20):
                got[k] = [nets[k].predict(x) for x in batches]

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for k in (0, 1):
            for a, b in zip(want[k], got[k]):
                assert np.array_equal(a, b)

    def test_num_parameters_positive(self):
        net = QNetwork(n=6, blocks=1, channels=8, rng=0)
        assert net.num_parameters() > 1000


class TestOptimizers:
    def _quadratic_problem(self):
        # Minimize ||p - t||^2 via Parameter/optimizer plumbing.
        target = np.array([1.0, -2.0, 3.0])
        p = Parameter(np.zeros(3))
        return p, target

    def test_sgd_converges(self):
        p, target = self._quadratic_problem()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            p.zero_grad()
            p.grad += 2 * (p.value - target)
            opt.step()
        assert np.abs(p.value - target).max() < 1e-3

    def test_sgd_momentum_converges(self):
        p, target = self._quadratic_problem()
        opt = SGD([p], lr=0.05, momentum=0.9)
        for _ in range(200):
            p.zero_grad()
            p.grad += 2 * (p.value - target)
            opt.step()
        assert np.abs(p.value - target).max() < 1e-3

    def test_adam_converges(self):
        p, target = self._quadratic_problem()
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            p.zero_grad()
            p.grad += 2 * (p.value - target)
            opt.step()
        assert np.abs(p.value - target).max() < 1e-2

    def test_adam_grad_clip(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0, grad_clip=0.5)
        p.grad += np.array([1000.0])
        opt.step()
        # First Adam step magnitude is ~lr regardless, but clip must not blow up.
        assert np.isfinite(p.value).all()

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)
        with pytest.raises(ValueError):
            SGD([], lr=-1.0)

    @pytest.mark.parametrize("clip", [0.0, -1.0, float("inf"), float("nan")])
    def test_grad_clip_must_be_finite_positive(self, clip):
        # 0 would clip every gradient to 0; np.clip(g, 1, -1) sets every element to -1.
        with pytest.raises(ValueError, match="grad_clip"):
            Adam([Parameter(np.zeros(3))], grad_clip=clip)

    def test_grad_clip_none_or_positive_builds(self):
        p = Parameter(np.zeros(3))
        assert Adam([p], grad_clip=None).grad_clip is None
        assert Adam([p], grad_clip=1e-3).grad_clip == 1e-3

    def test_training_reduces_loss(self, gen):
        net = QNetwork(n=6, blocks=1, channels=8, rng=3)
        opt = Adam(net.parameters(), lr=1e-3)
        x = gen.normal(size=(4, 4, 6, 6))
        target = gen.normal(size=(4, 4, 6, 6))
        first = last = None
        for _ in range(40):
            y = net.forward(x)
            loss, dpred = huber_loss(y, target)
            if first is None:
                first = loss
            last = loss
            net.zero_grad()
            net.backward(dpred)
            opt.step()
        assert last < first * 0.8


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, gen):
        net = QNetwork(n=6, blocks=1, channels=4, rng=5)
        x = gen.normal(size=(2, 4, 6, 6))
        expected = net.predict(x)
        path = str(tmp_path / "qnet.npz")
        net.save(path)
        loaded = QNetwork.load(path)
        assert np.allclose(loaded.predict(x), expected)

    @pytest.mark.parametrize(
        "stale", [{}, {"__meta_fast_conv": 0}, {"__meta_fast_conv": 1}, {"__meta_dtype": "float64"}]
    )
    def test_load_ignores_the_retired_meta_keys(self, tmp_path, gen, stale):
        """Files written while ``fast_conv`` and ``dtype`` were constructor
        arguments carry ``__meta_fast_conv`` / ``__meta_dtype``; ``save`` no
        longer writes them and ``load`` skips them. A float64 file's arrays
        (exactly the float32 values here) load by cast."""
        net = QNetwork(n=6, blocks=1, channels=4, rng=5)
        path = str(tmp_path / "qnet.npz")
        net.save(path)
        data = dict(np.load(path))
        assert not {"__meta_fast_conv", "__meta_dtype"} & set(data)
        if "__meta_dtype" in stale:
            data = {key: arr.astype(np.float64) if arr.dtype == np.float32 else arr for key, arr in data.items()}
        np.savez(path, **data, **stale)
        x = gen.normal(size=(2, 4, 6, 6))
        assert QNetwork.load(path).predict(x).tobytes() == net.predict(x).tobytes()

    def test_copy_from_synchronizes(self, gen):
        a = QNetwork(n=5, blocks=1, channels=4, rng=1)
        b = QNetwork(n=5, blocks=1, channels=4, rng=2)
        x = gen.normal(size=(1, 4, 5, 5))
        assert not np.allclose(a.predict(x), b.predict(x))
        b.copy_from(a)
        assert np.allclose(a.predict(x), b.predict(x))

    def test_state_mismatch_rejected(self):
        a = QNetwork(n=5, blocks=1, channels=4, rng=1)
        b = QNetwork(n=5, blocks=2, channels=4, rng=1)
        with pytest.raises(ValueError):
            b.copy_from(a)

    def test_state_includes_running_stats(self):
        bn = BatchNorm2d(3)
        seq = Sequential(Conv2d(3, 3, 1, rng=0), bn)
        keys = seq.state_arrays().keys()
        assert any("running_mean" in k for k in keys)
        assert any("running_var" in k for k in keys)
