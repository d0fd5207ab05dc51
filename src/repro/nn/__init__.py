"""A small numpy deep-learning framework (the paper's GPU-stack substitute).

Implements exactly what the Fig. 2 Q-network needs — stride-1 2-D
convolutions, batch normalization, LeakyReLU, residual blocks, Adam,
Huber loss — with hand-written backward passes that are verified against
numerical gradients in the test suite. Layers follow a explicit tape-free
design: each module caches its forward activations and its ``backward``
consumes them in reverse order, which is sufficient for the
chain-plus-skip topology of the network.

Each op has one numeric path (:mod:`repro.nn.functional`): a row-unfolded
GEMM for K > 1 convolutions, a batched channel-first GEMM for 1x1, and a
fused scale/shift batchnorm. Their contract is a stated tolerance against
the test-side reference implementations plus finite-difference gradient
checks, and same seed -> same bytes across runs. Every array a network
holds is born float32 (parameters, running statistics, Adam moments; the
ops compute in the dtype of the tensors they are handed) and nothing
selects another; saved float64 state loads by cast.
"""

from repro.nn.layers import (
    Module,
    Parameter,
    Conv2d,
    BatchNorm2d,
    LeakyReLU,
    Sequential,
    ResidualBlock,
)
from repro.nn.qnet import QNetwork
from repro.nn.optim import Adam, SGD
from repro.nn.loss import huber_loss, mse_loss

__all__ = [
    "Module",
    "Parameter",
    "Conv2d",
    "BatchNorm2d",
    "LeakyReLU",
    "Sequential",
    "ResidualBlock",
    "QNetwork",
    "Adam",
    "SGD",
    "huber_loss",
    "mse_loss",
]
