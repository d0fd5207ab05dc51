"""Low-level tensor ops with explicit forward/backward pairs.

All convolutions are stride 1 with "same" padding — the only configuration
Fig. 2's architecture uses (3x3 stem, 5x5 residual blocks, 1x1 heads).
Tensors are channel-first: ``(batch, channels, height, width)``.

Two convolution layouts live behind one API:

- The **exact path** (default): the original im2col formulation, preserved
  verbatim in :mod:`repro.nn.reference` and delegated to here so the
  default numerics stay *byte-identical* to what shipped before (the
  ``mode="sync"`` differential-CLI gate depends on this).
- The **fast path** (``fast=True``): a tap-loop GEMM that never
  materializes the ``(B*H*W, C*K*K)`` im2col matrix. Each of the K*K
  kernel taps contributes one exact-size GEMM over a contiguous
  channels-last slab of the padded input; the slabs are retained for the
  backward pass, which reuses them for the weight gradient and scatters
  the input gradient tap-by-tap. Same O(flops), a fraction of the memory
  traffic — 1.2-2.9x on the trainer's forward+backward at repo shapes.
  It reassociates the K*K accumulation, so it is gated on a tested
  numerical tolerance against the oracle, not byte-equality
  (``tests/nn/test_fast_conv.py``).
- 1x1 kernels on the fast path use a third layout: a batched
  channel-first GEMM straight on ``(B, C, H*W)`` views. The reference
  1x1 im2col is already a single GEMM, but it pays two full
  ``ascontiguousarray`` transposes (channels-last in, channels-first
  out); the pointwise path touches no data beyond the GEMM itself.
  BLAS may order the C_in reduction differently, so it sits behind the
  same tolerance gate as the tap loop (``tests/nn/test_fast_conv.py``).
"""

from __future__ import annotations

import numpy as np

from repro.nn import reference


class TapConvCache:
    """Backward-pass state of the fast tap-loop convolution.

    A distinct type so :func:`conv2d_backward` can dispatch on
    ``isinstance`` — the reference cache is a plain tuple whose first
    element is an ndarray, so any value-based tagging would hit
    elementwise-comparison semantics.
    """

    __slots__ = ("slabs", "weight", "x_shape", "pad", "has_bias")

    def __init__(self, slabs, weight, x_shape, pad, has_bias):
        self.slabs = slabs
        self.weight = weight
        self.x_shape = x_shape
        self.pad = pad
        self.has_bias = has_bias


def _tap_conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: "np.ndarray | None"):
    c_out, c_in, kh, kw = weight.shape
    pad = (kh - 1) // 2
    b, _, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    xfull = np.zeros((b, hp, wp, c_in), dtype=x.dtype)
    xfull[:, pad : pad + h, pad : pad + w, :] = x.transpose(0, 2, 3, 1)
    out = np.zeros((b * h * w, c_out), dtype=x.dtype)
    slabs = []
    for i in range(kh):
        for j in range(kw):
            sl = np.ascontiguousarray(xfull[:, i : i + h, j : j + w, :]).reshape(-1, c_in)
            slabs.append(sl)
            out += sl @ weight[:, :, i, j].T
    if bias is not None:
        out += bias
    y = np.ascontiguousarray(out.reshape(b, h, w, c_out).transpose(0, 3, 1, 2))
    return y, TapConvCache(slabs, weight, x.shape, pad, bias is not None)


def _tap_conv2d_backward(dy: np.ndarray, cache: TapConvCache):
    weight = cache.weight
    c_out, c_in, kh, kw = weight.shape
    b, _, h, w = cache.x_shape
    pad = cache.pad
    hp, wp = h + 2 * pad, w + 2 * pad
    dy_flat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(-1, c_out)
    dweight = np.empty_like(weight)
    dxp = np.zeros((b, hp, wp, c_in), dtype=dy.dtype)
    k = 0
    for i in range(kh):
        for j in range(kw):
            dweight[:, :, i, j] = dy_flat.T @ cache.slabs[k]
            dxp[:, i : i + h, j : j + w, :] += (dy_flat @ weight[:, :, i, j]).reshape(b, h, w, c_in)
            k += 1
    dx = np.ascontiguousarray(dxp[:, pad : pad + h, pad : pad + w, :].transpose(0, 3, 1, 2))
    dbias = dy.sum(axis=(0, 2, 3)) if cache.has_bias else None
    return dx, dweight, dbias


class PointwiseConvCache:
    """Backward-pass state of the fast 1x1 (pointwise) convolution.

    Distinct type for the same ``isinstance`` dispatch reason as
    :class:`TapConvCache`.
    """

    __slots__ = ("xf", "weight", "x_shape", "has_bias")

    def __init__(self, xf, weight, x_shape, has_bias):
        self.xf = xf
        self.weight = weight
        self.x_shape = x_shape
        self.has_bias = has_bias


def _pointwise_conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: "np.ndarray | None"):
    c_out, c_in, _, _ = weight.shape
    b, _, h, w = x.shape
    xf = x.reshape(b, c_in, h * w)
    y = np.matmul(weight.reshape(c_out, c_in), xf)
    if bias is not None:
        y += bias[:, None]
    return y.reshape(b, c_out, h, w), PointwiseConvCache(xf, weight, x.shape, bias is not None)


def _pointwise_conv2d_backward(dy: np.ndarray, cache: PointwiseConvCache):
    weight = cache.weight
    c_out, c_in, _, _ = weight.shape
    b, _, h, w = cache.x_shape
    dyf = dy.reshape(b, c_out, h * w)
    dweight = np.matmul(dyf, cache.xf.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    dx = np.matmul(weight.reshape(c_out, c_in).T, dyf).reshape(b, c_in, h, w)
    dbias = dy.sum(axis=(0, 2, 3)) if cache.has_bias else None
    return dx, dweight, dbias


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: "np.ndarray | None", fast: bool = False):
    """Same-padded stride-1 convolution.

    Args:
        x: ``(B, C_in, H, W)``.
        weight: ``(C_out, C_in, K, K)`` with odd ``K``.
        bias: ``(C_out,)`` or None.
        fast: select the tap-loop GEMM layout (tolerance-gated) instead of
            the byte-exact im2col reference path.

    Returns:
        ``(y, cache)`` with ``y`` of shape ``(B, C_out, H, W)``; pass the
        cache to :func:`conv2d_backward` (it dispatches on its type).
    """
    if not fast:
        return reference.conv2d_forward(x, weight, bias)
    c_out, c_in, kh, kw = weight.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"only odd square kernels supported, got {kh}x{kw}")
    if kh == 1:
        # The tap loop degenerates to one tap here; the pointwise layout
        # skips its padding/slab copies (and the reference path's two
        # transpose copies) entirely.
        return _pointwise_conv2d_forward(x, weight, bias)
    return _tap_conv2d_forward(x, weight, bias)


def conv2d_backward(dy: np.ndarray, cache):
    """Gradients of :func:`conv2d_forward`.

    Returns ``(dx, dweight, dbias)`` (``dbias`` None if no bias). The path
    (exact vs fast) follows the cache produced by the forward call.
    """
    if isinstance(cache, TapConvCache):
        return _tap_conv2d_backward(dy, cache)
    if isinstance(cache, PointwiseConvCache):
        return _pointwise_conv2d_backward(dy, cache)
    return reference.conv2d_backward(dy, cache)


class FusedBNCache:
    """Backward-pass state of the fused fast batchnorm (type-dispatched)."""

    __slots__ = ("x", "mean", "inv_std", "gamma", "training")

    def __init__(self, x, mean, inv_std, gamma, training):
        self.x = x
        self.mean = mean
        self.inv_std = inv_std
        self.gamma = gamma
        self.training = training


def _fused_batchnorm_forward(x, gamma, beta, running_mean, running_var, momentum, eps, training):
    if training:
        mean = x.mean(axis=(0, 2, 3))
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
    # broadcast passes over x instead of the reference's four, and the
    # cache keeps x itself rather than a materialized xhat.
    scale = gamma * inv_std
    shift = beta - mean * scale
    y = x * scale[None, :, None, None] + shift[None, :, None, None]
    return y, FusedBNCache(x, mean, inv_std, gamma, training)


def _fused_batchnorm_backward(dy: np.ndarray, cache: FusedBNCache):
    x = cache.x
    mean = cache.mean
    inv_std = cache.inv_std
    gamma = cache.gamma
    b, c, h, w = x.shape
    m = b * h * w
    dbeta = dy.sum(axis=(0, 2, 3))
    # dgamma = sum(dy * xhat) expanded through xhat = (x - mean)*inv_std,
    # so xhat is never materialized.
    dgamma = inv_std * ((dy * x).sum(axis=(0, 2, 3)) - mean * dbeta)
    scale = gamma * inv_std
    if not cache.training:
        dx = dy * scale[None, :, None, None]
        return dx, dgamma, dbeta
    # Reference dx = (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)) * inv_std
    # regrouped as per-channel  dx = a*dy + b*x + c  (three broadcast passes):
    # mean(dxhat) = gamma*dbeta/m and sum(dxhat*xhat) = gamma*dgamma.
    a = scale
    bb = -scale * inv_std * dgamma / m
    cc = scale * (mean * inv_std * dgamma - dbeta) / m
    dx = dy * a[None, :, None, None]
    dx += x * bb[None, :, None, None]
    dx += cc[None, :, None, None]
    return dx, dgamma, dbeta


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
    fast: bool = False,
):
    """Per-channel batch normalization over ``(B, H, W)``.

    In training mode, batch statistics are used and the running estimates
    updated in place; in eval mode the running estimates are used and the
    cache is marked accordingly for the backward pass.

    ``fast=True`` selects the fused scale/shift formulation (identical
    statistics, reassociated elementwise algebra — tolerance-gated
    against this default path, never byte-exact).
    """
    if fast:
        return _fused_batchnorm_forward(
            x, gamma, beta, running_mean, running_var, momentum, eps, training
        )
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    cache = (xhat, inv_std, gamma, training, x.shape)
    return y, cache


def batchnorm_backward(dy: np.ndarray, cache):
    """Gradients of :func:`batchnorm_forward`: ``(dx, dgamma, dbeta)``.

    The path (reference vs fused) follows the cache type, exactly like
    :func:`conv2d_backward`.
    """
    if isinstance(cache, FusedBNCache):
        return _fused_batchnorm_backward(dy, cache)
    xhat, inv_std, gamma, training, x_shape = cache
    b, c, h, w = x_shape
    m = b * h * w
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    if not training:
        dx = dy * (gamma * inv_std)[None, :, None, None]
        return dx, dgamma, dbeta
    dxhat = dy * gamma[None, :, None, None]
    # Standard batchnorm backward: couple through batch mean and variance.
    dx = (
        dxhat
        - dxhat.mean(axis=(0, 2, 3))[None, :, None, None]
        - xhat * (dxhat * xhat).sum(axis=(0, 2, 3))[None, :, None, None] / m
    ) * inv_std[None, :, None, None]
    return dx, dgamma, dbeta


def leaky_relu_forward(x: np.ndarray, slope: float):
    """LeakyReLU: ``max(x, slope * x)``."""
    mask = x > 0
    y = np.where(mask, x, slope * x)
    return y, (mask, slope)


def leaky_relu_backward(dy: np.ndarray, cache):
    """Gradient of :func:`leaky_relu_forward`."""
    mask, slope = cache
    return np.where(mask, dy, slope * dy)
