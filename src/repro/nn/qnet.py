"""The Fig. 2 Q-network.

Body: 3x3 conv stem -> BN -> LReLU -> ``blocks`` residual blocks (5x5).
Head: 1x1 conv -> BN -> LReLU -> 1x1 conv to 4 output planes:
``[Q_area(add), Q_delay(add), Q_area(delete), Q_delay(delete)]`` per grid
cell. The paper uses blocks=32, channels=256 at both 32b and 64b; both are
constructor arguments here so CI-scale runs can shrink them (Table I's
bench records the configuration used).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    LeakyReLU,
    Module,
    ResidualBlock,
    Sequential,
)
from repro.utils.rng import ensure_rng

NUM_INPUT_PLANES = 4
NUM_OUTPUT_PLANES = 4


class QNetwork(Module):
    """Convolutional vector-Q approximator for N-input prefix graphs; float32 throughout (see :mod:`repro.nn`)."""

    def __init__(self, n: int, blocks: int = 2, channels: int = 16, rng=None, slope: float = 0.01):
        super().__init__()
        if blocks < 0 or channels < 1:
            raise ValueError("blocks must be >= 0 and channels >= 1")
        gen = ensure_rng(rng)
        self.n = n
        self.blocks = blocks
        self.channels = channels
        self._workspace = F.Workspace()
        self.body = Sequential(
            Conv2d(NUM_INPUT_PLANES, channels, 3, rng=gen),
            BatchNorm2d(channels),
            LeakyReLU(slope),
            *[ResidualBlock(channels, 5, rng=gen, slope=slope) for _ in range(blocks)],
        )
        self.head = Sequential(
            Conv2d(channels, channels, 1, rng=gen),
            BatchNorm2d(channels),
            LeakyReLU(slope),
            Conv2d(channels, NUM_OUTPUT_PLANES, 1, rng=gen),
        )

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype (float32 as built): read off them, not settable."""
        return self.body.stages[0].weight.value.dtype

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``(B, 4, N, N)`` features -> ``(B, 4, N, N)`` Q-map.

        ``x`` (and ``dy`` in :meth:`backward`) is cast to the parameters' dtype on the way in: every op
        computes in the dtype it is handed, and a float64 batch would carry the whole pass in float64.
        """
        x = self._input(x)
        self._workspace.cursor = 0
        with self._workspace:  # the copy is the caller's; the workspace's array is the next pass's
            return self.head(self.body(x)).copy()

    def _input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1] != NUM_INPUT_PLANES or x.shape[2] != self.n:
            raise ValueError(f"expected (B,4,{self.n},{self.n}) input, got {x.shape}")
        return x

    def backward(self, dy: np.ndarray) -> None:
        """Accumulate every parameter's gradient of the last :meth:`forward`.

        Returns nothing: the input gradient has no reader, so the stem
        convolution's is never computed.
        """
        with self._workspace:
            dy = self.head.backward(np.asarray(dy, dtype=self.dtype))
            stem, *rest = self.body.stages
            for stage in reversed(rest):
                dy = stage.backward(dy)
            stem.backward(dy, input_grad=False)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward that leaves no layer holding a backward cache.

        Each distinct input row runs once: rows are keyed by their bytes in
        the network dtype (float64 rows that round to one float32 row are one
        row), ``forward`` sees the distinct rows in first-seen order, and
        their Q maps are gathered back into the caller's row order. This is
        exact because an inference pass is row-independent bit for bit:
        every convolution is the same per-row GEMM whatever the batch size,
        and eval-mode batchnorm, LeakyReLU and the residual add are
        elementwise. Lockstep replicas that start from the same two graphs
        send many equal rows; a training ``forward`` never deduplicates
        (batch statistics and per-row gradients need every row).

        The caches of a training ``forward`` still awaiting its ``backward``
        are dropped too, so that ``backward`` raises instead of
        differentiating this input. The arrays stay with the workspace, for
        the next pass to compute in.
        """
        x = self._input(x)
        seen: "dict[bytes, int]" = {}
        firsts = [seen.setdefault(row.tobytes(), i) for i, row in enumerate(x)]
        was_training = self.training
        self.eval()
        try:
            if len(seen) == len(x):  # all distinct: copying rows in and out would cost ~1% of the pass
                return self.forward(x)
            first, inverse = np.unique(np.array(firsts, dtype=np.intp), return_inverse=True)
            return self.forward(x[first])[inverse]
        finally:
            self.drop_caches()
            if was_training:
                self.train()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.value.size for p in self.parameters())

    # -- persistence -----------------------------------------------------

    def save(self, path: str) -> None:
        """Save weights and running statistics to an ``.npz`` file."""
        np.savez_compressed(
            path,
            __meta_n=self.n,
            __meta_blocks=self.blocks,
            __meta_channels=self.channels,
            **self.state_arrays(),
        )

    @classmethod
    def load(cls, path: str) -> "QNetwork":
        """Reconstruct a saved network (architecture from metadata)."""
        data = np.load(path)
        net = cls(n=int(data["__meta_n"]), blocks=int(data["__meta_blocks"]), channels=int(data["__meta_channels"]))
        # Every ``__meta_*`` key that is not architecture is skipped, which is how
        # files that carry ``__meta_dtype`` or ``__meta_fast_conv`` still load;
        # float64 arrays load by cast.
        arrays = {k: data[k] for k in data.files if not k.startswith("__meta_")}
        net.load_state_arrays(arrays)
        return net
