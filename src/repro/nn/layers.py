"""Module system: parameterized layers with cached-activation backprop.

Each :class:`Module` caches whatever its backward pass needs during
``forward``; ``backward`` takes that cache exactly once, ``predict`` drops
it unused (:meth:`Module.drop_caches`), and the arrays behind it stay with
the network's :class:`~repro.nn.functional.Workspace`. Modules compose via
:class:`Sequential` and :class:`ResidualBlock`; anything with parameters
exposes them through ``parameters()`` for the optimizers.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.utils.rng import ensure_rng


class Parameter:
    """A trainable float32 array with its gradient accumulator.

    float32 is the one dtype network arrays are born in; every op computes
    in the dtype of the tensors it is handed, so that is what a pass runs in.
    """

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "param"):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class Module:
    """Base class: training-mode flag, parameter collection, fwd/bwd API."""

    def __init__(self):
        self.training = True
        self._cache = None

    def _members(self):
        """``(name, member)`` for own parameters and direct submodules, in attribute order."""
        for key, attr in self.__dict__.items():
            if isinstance(attr, (Parameter, Module)):
                yield key, attr
            elif isinstance(attr, (list, tuple)):
                yield from ((f"{key}.{i}", item) for i, item in enumerate(attr) if isinstance(item, Module))

    def _children(self):
        """Direct submodules."""
        return (member for _, member in self._members() if isinstance(member, Module))

    def parameters(self) -> "list[Parameter]":
        """All trainable parameters (depth-first over submodules)."""
        params: "list[Parameter]" = []
        for _, member in self._members():
            params.extend([member] if isinstance(member, Parameter) else member.parameters())
        return params

    def train(self) -> None:
        """Enable training mode (batchnorm uses batch statistics)."""
        self._set_mode(True)

    def eval(self) -> None:
        """Enable inference mode (batchnorm uses running statistics)."""
        self._set_mode(False)

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for child in self._children():
            child._set_mode(training)

    def drop_caches(self) -> None:
        """Forget every pending backward cache (a forward nobody will backprop)."""
        self._cache = None
        for child in self._children():
            child.drop_caches()

    def _take_cache(self):
        """Hand the last forward's cache to ``backward``, exactly once."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward has no pending forward to differentiate")
        return cache

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- state dict ------------------------------------------------------

    def state_arrays(self) -> "dict[str, np.ndarray]":
        """Flat name -> array map of parameters plus buffers (for save/load)."""
        out: "dict[str, np.ndarray]" = {}
        for name, member in self._members():
            if isinstance(member, Parameter):
                out[name] = member.value
            else:
                out.update((f"{name}.{key}", array) for key, array in member.state_arrays().items())
        out.update((key, attr) for key, attr in self.__dict__.items() if key.startswith("running_"))
        return out

    def check_state_arrays(self, arrays: "dict[str, np.ndarray]") -> None:
        """Raise ``ValueError`` unless ``arrays`` has exactly this module's keys and shapes."""
        own = self.state_arrays()
        if set(own) != set(arrays):
            missing = set(own) ^ set(arrays)
            raise ValueError(f"state mismatch on keys: {sorted(missing)[:5]}...")
        for key, arr in own.items():
            if np.shape(arrays[key]) != arr.shape:
                raise ValueError(f"shape mismatch for {key}: {np.shape(arrays[key])} vs {arr.shape}")

    def load_state_arrays(self, arrays: "dict[str, np.ndarray]") -> None:
        """Inverse of :meth:`state_arrays`; every key and shape is checked
        before any array is written, so a refused state changes nothing."""
        self.check_state_arrays(arrays)
        for key, arr in self.state_arrays().items():
            arr[...] = np.asarray(arrays[key], dtype=arr.dtype)

    def copy_from(self, other: "Module") -> None:
        """Copy parameters/buffers from a same-architecture module (target sync)."""
        self.load_state_arrays(other.state_arrays())


class Conv2d(Module):
    """Same-padded stride-1 convolution with He-initialized weights."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, rng=None, bias: bool = True):
        super().__init__()
        gen = ensure_rng(rng)
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            gen.normal(0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)),
            name=f"conv{kernel_size}x{kernel_size}.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv.bias") if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.value if self.bias is not None else None
        y, self._cache = F.conv2d_forward(x, self.weight.value, bias)
        return y

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> "np.ndarray | None":
        """Accumulate the parameter gradients; return ``dx`` unless ``input_grad`` is False
        (then it is not computed: a network's first layer has no one to hand it to)."""
        dx, dw, db = F.conv2d_backward(dy, self._take_cache(), input_grad)
        self.weight.grad += dw
        if self.bias is not None:
            self.bias.grad += db
        return dx


class BatchNorm2d(Module):
    """Per-channel batch normalization with running statistics."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(channels), name="bn.gamma")
        self.beta = Parameter(np.zeros(channels), name="bn.beta")
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.momentum = momentum
        self.eps = eps

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, self._cache = F.batchnorm_forward(
            x,
            self.gamma.value,
            self.beta.value,
            self.running_mean,
            self.running_var,
            self.momentum,
            self.eps,
            self.training,
        )
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx, dgamma, dbeta = F.batchnorm_backward(dy, self._take_cache())
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        return dx


class LeakyReLU(Module):
    """LeakyReLU activation (the paper's LRELU blocks)."""

    def __init__(self, slope: float = 0.01):
        super().__init__()
        if not 0.0 < slope < 1.0:  # max(x, slope * x) is LeakyReLU only then
            raise ValueError(f"slope must be in (0, 1), got {slope}")
        self.slope = slope

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, self._cache = F.leaky_relu_forward(x, self.slope)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return F.leaky_relu_backward(dy, self._take_cache())


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.stages = list(modules)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for stage in self.stages:
            x = stage(x)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for stage in reversed(self.stages):
            dy = stage.backward(dy)
        return dy


class ResidualBlock(Module):
    """Fig. 2 residual block: conv5x5-BN-LReLU-conv5x5-BN, skip add, LReLU."""

    def __init__(self, channels: int, kernel_size: int = 5, rng=None, slope: float = 0.01):
        super().__init__()
        gen = ensure_rng(rng)
        self.conv1 = Conv2d(channels, channels, kernel_size, rng=gen)
        self.bn1 = BatchNorm2d(channels)
        self.act1 = LeakyReLU(slope)
        self.conv2 = Conv2d(channels, channels, kernel_size, rng=gen)
        self.bn2 = BatchNorm2d(channels)
        self.act_out = LeakyReLU(slope)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.act1(self.bn1(self.conv1(x)))
        y = self.bn2(self.conv2(y))
        return self.act_out(np.add(y, x, out=F.empty(y.shape, y.dtype)))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dsum = self.act_out.backward(dy)
        dbranch = self.conv1.backward(
            self.bn1.backward(self.act1.backward(self.conv2.backward(self.bn2.backward(dsum))))
        )
        return np.add(dbranch, dsum, out=F.empty(dsum.shape, dsum.dtype))
