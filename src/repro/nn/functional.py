"""Low-level tensor ops with explicit forward/backward pairs.

All convolutions are stride 1 with "same" padding — the only configuration
Fig. 2's architecture uses (3x3 stem, 5x5 residual blocks, 1x1 heads).
Tensors are channel-first: ``(batch, channels, height, width)``.

One numeric path per op:

- **Convolution, K > 1** is row-unfolded: the padded channels-last input
  is unfolded along the width only — one strided copy into a
  ``(B, Hp*W, K*C_in)`` matrix, K times the input where im2col is K*K —
  and kernel row i is one batched GEMM of inner dimension ``K*C_in`` over
  rows ``i*W .. (i+H)*W`` of it: a 5x5 layer is 5 GEMMs into one output.
  Backward keeps only the padded input: it unfolds it again for the weight
  gradient (K GEMMs) and gets the input gradient from the forward routine
  itself, on the padded ``dy`` with the flipped, in/out-swapped kernel.
  The unfolded matrix and per-row product are network-wide :func:`scratch`.
- **Convolution, K = 1** is one batched channel-first GEMM straight on
  ``(B, C, H*W)`` views. Why pointwise gets its own layout: unfolded it
  would still pay the padding copy, the unfold copy and two channels-last
  transposes; here no data moves beyond the GEMM itself, and the Q-net
  head is all 1x1.
- **Batchnorm** folds normalize + affine into one per-channel
  scale/shift and never materializes ``xhat``.

The numerical contract is stated, not byte-pinned: every output and
gradient stays within ``rtol 1e-10 / atol 1e-12`` (float64) and
``1e-3 / 1e-5`` (float32) of the unfolded-matrix convolution and the
textbook four-pass batchnorm kept test-side in ``tests/oracles/nn.py``,
and every backward passes finite-difference gradient checks
(``tests/nn/test_numerics.py``, ``tests/nn/test_gradients.py``).
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided


class Workspace(list):
    """The arrays one network computes in, kept from one pass to the next.

    A pass asks for its arrays in the same order every time, so request i is
    served from the array request i got last pass: a leading slice of it
    when only the leading (batch) dimension is smaller, a replacement when
    the request does not fit. Without this every pass mallocs and
    frees its whole working set, the C allocator trims the heap in between
    and the next pass page-faults it back in: at n=32, B=8 that was 4300
    minor faults and 60 instead of 47 ms per ``predict``, and a spread that
    follows the host's memory pressure rather than the program.

    Setting ``cursor = 0`` starts a pass (forward); entering without doing so
    continues it (backward), so what forward cached is intact until the next
    forward. Whatever :func:`empty` hands out inside the block is overwritten
    by the next pass (what :func:`scratch` does, by the next op): copy what
    must outlive it.
    """

    cursor = 0

    def __init__(self) -> None:
        super().__init__()
        self.scratch: "dict[tuple, np.ndarray]" = {}

    def __enter__(self) -> None:
        self.outer, _active.workspace = getattr(_active, "workspace", None), self

    def __exit__(self, *exc) -> None:
        _active.workspace = self.outer


# Per thread: actor threads run their own networks beside the learner's.
_active = threading.local()


def empty(shape, dtype) -> np.ndarray:
    """``np.empty``, served from the active :class:`Workspace` when there is one."""
    ws = getattr(_active, "workspace", None)
    if ws is None:
        return np.empty(shape, dtype)
    index, ws.cursor = ws.cursor, ws.cursor + 1
    lead, rest = shape[0], tuple(shape[1:])
    held = ws[index] if index < len(ws) else None
    if held is None or held.dtype != dtype or held.shape[1:] != rest or held.shape[0] < lead:
        held = np.empty(shape, dtype)
        ws[index : index + 1] = [held]
    return held[:lead]


def scratch(shape, dtype) -> np.ndarray:
    """``np.empty`` for an array nobody reads once the op that asked has returned.

    The active :class:`Workspace` holds one per (trailing shape, dtype) for all
    its layers, lead-sliced as in :func:`empty`: one per layer, or per exact
    batch size while acting's exploit-row count wanders, shows in ``peak_rss_mb``.
    """
    ws = getattr(_active, "workspace", None)
    if ws is None:
        return np.empty(shape, dtype)
    key = (tuple(shape[1:]), np.dtype(dtype))
    held = ws.scratch.get(key)
    if held is None or held.shape[0] < shape[0]:
        held = ws.scratch[key] = np.empty(shape, dtype)
    return held[: shape[0]]


def _pad_channels_last(x: np.ndarray, pad: int, make) -> np.ndarray:
    b, c, h, w = x.shape
    xfull = make((b, h + 2 * pad, w + 2 * pad, c), x.dtype)
    xfull.fill(0)
    xfull[:, pad : pad + h, pad : pad + w, :] = x.transpose(0, 2, 3, 1)
    return xfull


def _unfold_rows(xfull: np.ndarray, kw: int) -> np.ndarray:
    """``(B, Hp, Wp, C)`` -> ``(B, Hp*W, kw*C)``: every width-``kw`` window, already contiguous in ``xfull``."""
    b, hp, wp, c = xfull.shape
    unf = scratch((b, hp, wp - kw + 1, kw * c), xfull.dtype)
    np.copyto(unf, as_strided(xfull, unf.shape, xfull.strides, writeable=False))
    return unf.reshape(b, -1, kw * c)


def _row_conv2d(xfull: np.ndarray, weight: np.ndarray, bias: "np.ndarray | None") -> np.ndarray:
    """Valid correlation of the padded channels-last ``xfull`` with ``weight``, channel-first."""
    c_out, c_in, kh, kw = weight.shape
    b, hp, wp, _ = xfull.shape
    h, w = hp - kh + 1, wp - kw + 1
    unf = _unfold_rows(xfull, kw)
    wmat = weight.transpose(2, 3, 1, 0).reshape(kh, kw * c_in, c_out)
    # Accumulator and per-row product from one request, so neither can be served the other's array.
    pair = scratch((b, 2, h * w, c_out), xfull.dtype)
    out, product = pair[:, 0], pair[:, 1]
    # Kernel row i reads input rows i..i+H: one contiguous run of the unfolded rows per batch item.
    np.matmul(unf[:, : h * w], wmat[0], out=out)
    for i in range(1, kh):
        out += np.matmul(unf[:, i * w : (i + h) * w], wmat[i], out=product)
    if bias is not None:
        out += bias
    y = empty((b, c_out, h, w), xfull.dtype)
    np.copyto(y, out.reshape(b, h, w, c_out).transpose(0, 3, 1, 2))
    return y


def _row_conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: "np.ndarray | None"):
    xfull = _pad_channels_last(x, (weight.shape[2] - 1) // 2, empty)
    return _row_conv2d(xfull, weight, bias), xfull


def _row_conv2d_backward(dy: np.ndarray, xfull: np.ndarray, weight: np.ndarray, x_shape, input_grad: bool):
    c_out, c_in, kh, kw = weight.shape
    b, _, h, w = x_shape
    rows = _unfold_rows(xfull, kw)
    dyf = dy.reshape(b, c_out, h * w)
    dweight = np.empty_like(weight)
    per_item = scratch((b, c_out, kw * c_in), dy.dtype)
    for i in range(kh):
        np.matmul(dyf, rows[:, i * w : (i + h) * w], out=per_item)
        dweight[:, :, i, :] = per_item.sum(axis=0).reshape(c_out, kw, c_in).transpose(0, 2, 1)
    if not input_grad:
        return None, dweight
    # dx is the same correlation, of the padded dy with the flipped kernel, in and out swapped.
    dyp = _pad_channels_last(dy, (kh - 1) // 2, scratch)
    return _row_conv2d(dyp, weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), None), dweight


def _pointwise_conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: "np.ndarray | None"):
    c_out, c_in, _, _ = weight.shape
    b, _, h, w = x.shape
    xf = x.reshape(b, c_in, h * w)
    y = np.matmul(weight.reshape(c_out, c_in), xf, out=empty((b, c_out, h * w), x.dtype))
    if bias is not None:
        y += bias[:, None]
    return y.reshape(b, c_out, h, w), xf


def _pointwise_conv2d_backward(dy: np.ndarray, xf: np.ndarray, weight: np.ndarray, x_shape, input_grad: bool):
    c_out, c_in, _, _ = weight.shape
    b, _, h, w = x_shape
    dyf = dy.reshape(b, c_out, h * w)
    dweight = np.matmul(dyf, xf.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    if not input_grad:
        return None, dweight
    dx = np.matmul(weight.reshape(c_out, c_in).T, dyf, out=empty((b, c_in, h * w), dy.dtype))
    return dx.reshape(b, c_in, h, w), dweight


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: "np.ndarray | None"):
    """Same-padded stride-1 convolution.

    Args:
        x: ``(B, C_in, H, W)``.
        weight: ``(C_out, C_in, K, K)`` with odd ``K``.
        bias: ``(C_out,)`` or None.

    Returns:
        ``(y, cache)`` with ``y`` of shape ``(B, C_out, H, W)``; pass the
        cache to :func:`conv2d_backward`.
    """
    kh, kw = weight.shape[2:]
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"only odd square kernels supported, got {kh}x{kw}")
    forward = _pointwise_conv2d_forward if kh == 1 else _row_conv2d_forward
    y, saved = forward(x, weight, bias)
    return y, (saved, weight, x.shape, bias is not None)


def conv2d_backward(dy: np.ndarray, cache, input_grad: bool = True):
    """Gradients of :func:`conv2d_forward`.

    Returns ``(dx, dweight, dbias)`` (``dbias`` None if no bias; ``dx``
    None, and not computed, if not ``input_grad``: a network's first layer
    has no one to hand it to). The layout follows the kernel size recorded
    in the cache, as in forward.
    """
    saved, weight, x_shape, has_bias = cache
    backward = _pointwise_conv2d_backward if weight.shape[2] == 1 else _row_conv2d_backward
    dx, dweight = backward(dy, saved, weight, x_shape, input_grad)
    dbias = dy.sum(axis=(0, 2, 3)) if has_bias else None
    return dx, dweight, dbias


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
):
    """Per-channel batch normalization over ``(B, H, W)``.

    In training mode, batch statistics are used and the running estimates
    updated in place; in eval mode the running estimates are used and the
    cache is marked accordingly for the backward pass.

    The batch mean and backward's two sums accumulate in float64 whatever
    ``x`` is, and backward forms ``dy * (x - mean)`` rather than ``dy * x``:
    in float32 the uncentred products round at the size of |mean|, and a
    channel with |mean| = 10 sigma left the tolerance. The sums are C
    numbers; every pass over ``x`` or ``dy`` stays in its own dtype.
    """
    if training:
        mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
        var = x.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    # Fold normalize + affine into one per-channel scale/shift: two
    # broadcast passes over x instead of the textbook four, and the cache
    # keeps x itself rather than a materialized xhat.
    scale = gamma * inv_std
    shift = beta - mean * scale
    y = np.multiply(x, _per_channel(scale, x), out=empty(x.shape, x.dtype))
    y += _per_channel(shift, x)
    return y, (x, mean, inv_std, gamma, training)


def _per_channel(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``(C,)`` -> ``(1, C, 1, 1)`` in ``like``'s dtype, so the broadcast pass does not upcast."""
    return values.astype(like.dtype, copy=False)[None, :, None, None]


def batchnorm_backward(dy: np.ndarray, cache):
    """Gradients of :func:`batchnorm_forward`: ``(dx, dgamma, dbeta)``."""
    x, mean, inv_std, gamma, training = cache
    m = x.size // x.shape[1]
    dbeta = dy.sum(axis=(0, 2, 3), dtype=np.float64)
    # dgamma = sum(dy * xhat) with xhat = (x - mean)*inv_std, centred on the
    # mean rounded to x's dtype: the products then round at the size of
    # x - centre, not of |mean|, and (mean - centre) * dbeta puts the
    # rounding back in float64. xhat itself is never materialized.
    centre = mean.astype(x.dtype)
    term = np.subtract(x, _per_channel(centre, x), out=empty(x.shape, x.dtype))
    term *= dy
    dgamma = inv_std * (term.sum(axis=(0, 2, 3), dtype=np.float64) - (mean - centre) * dbeta)
    scale = gamma * inv_std
    dx = np.multiply(dy, _per_channel(scale, dy), out=empty(dy.shape, dy.dtype))
    if training:
        # Textbook dx = (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)) * inv_std
        # regrouped as per-channel  dx = a*dy + b*x + c  (three broadcast passes):
        # mean(dxhat) = gamma*dbeta/m and sum(dxhat*xhat) = gamma*dgamma.
        bb = -scale * inv_std * dgamma / m
        cc = scale * (mean * inv_std * dgamma - dbeta) / m
        dx += np.multiply(x, _per_channel(bb, x), out=term)
        dx += _per_channel(cc, x)
    return dx, dgamma.astype(x.dtype), dbeta.astype(x.dtype)


def leaky_relu_forward(x: np.ndarray, slope: float):
    """LeakyReLU ``max(x, slope * x)``; the identity needs ``0 < slope < 1``."""
    y = np.multiply(x, slope, out=empty(x.shape, x.dtype))
    np.maximum(y, x, out=y)
    return y, (y, slope)


def leaky_relu_backward(dy: np.ndarray, cache):
    """Gradient of :func:`leaky_relu_forward`: the output has the input's sign."""
    y, slope = cache
    dx = np.sign(y, out=empty(dy.shape, dy.dtype))
    np.maximum(dx, slope, out=dx)
    return np.multiply(dx, dy, out=dx)
