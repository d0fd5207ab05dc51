"""Reference convolution and batchnorm (executable specification).

The original im2col implementation of ``conv2d_forward`` /
``conv2d_backward`` and the textbook four-pass batchnorm pair, verbatim
as they shipped in ``repro.nn`` before the row-unfolded / pointwise GEMM
and the fused scale/shift algebra became the only path. The production ops
reassociate the K*K accumulation (K GEMMs of inner dimension K*C_in, where
this is one of C_in*K*K) and the elementwise algebra, so they are
pinned to these within a stated per-dtype tolerance — not byte equality —
in ``tests/nn/test_numerics.py``, which also monkeypatches these four
functions into :mod:`repro.nn.functional` to build a whole oracle
``QNetwork``.

float64 lives here and nowhere in ``src/repro/nn``: network arrays are born
float32, and :func:`in_float64` is how a finite-difference check (which
needs the digits) or a tight-tolerance comparison runs a module in double.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np


def in_float64(module):
    """Upcast ``module``'s parameters, gradients and running statistics in place; returns it.

    Every op computes in the dtype of the tensors it is handed, so the module
    then runs in float64 end to end (``QNetwork.forward`` casts its input to
    the parameters' dtype). An optimizer must be built afterwards: it sizes its
    moments from the parameters it is given.
    """
    for param in module.parameters():
        param.value = param.value.astype(np.float64)
        param.grad = np.zeros_like(param.value)
    pending = [module]
    while pending:
        current = pending.pop()
        for key, attr in vars(current).items():
            if key.startswith("running_"):
                setattr(current, key, attr.astype(np.float64))
        pending.extend(current._children())
    return module


def im2col(x: np.ndarray, kh: int, kw: int, pad: int) -> np.ndarray:
    """Unfold sliding windows: ``(B,C,H,W) -> (B*H*W, C*kh*kw)``.

    Stride 1; with ``pad = (k-1)//2`` the output spatial size equals the
    input's. Rows enumerate (batch, out_row, out_col) in C order. A 1x1
    kernel needs no window materialization or padding — that path is one
    channel-last reshape, which matters because the Q-net head is all 1x1.
    """
    b, c, h, w = x.shape
    if kh == 1 and kw == 1 and pad == 0:
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(b * h * w, c)
    # Zero-pad by hand: same values as np.pad without its per-call setup
    # overhead (this runs once per conv per forward).
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    ho, wo = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * ho * wo, c * kh * kw)
    return cols


def col2im(dcols: np.ndarray, x_shape: "tuple[int, int, int, int]", kh: int, kw: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add column gradients back to input."""
    b, c, h, w = x_shape
    if kh == 1 and kw == 1 and pad == 0:
        return np.ascontiguousarray(dcols.reshape(b, h, w, c).transpose(0, 3, 1, 2))
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    dxp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    dsix = dcols.reshape(b, ho, wo, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho, j : j + wo] += dsix[:, :, i, j]
    if pad == 0:
        return dxp
    return dxp[:, :, pad : pad + h, pad : pad + w]


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: "np.ndarray | None"):
    """Same-padded stride-1 convolution via im2col.

    Args:
        x: ``(B, C_in, H, W)``.
        weight: ``(C_out, C_in, K, K)`` with odd ``K``.
        bias: ``(C_out,)`` or None.

    Returns:
        ``(y, cache)`` with ``y`` of shape ``(B, C_out, H, W)``.
    """
    c_out, c_in, kh, kw = weight.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"only odd square kernels supported, got {kh}x{kw}")
    pad = (kh - 1) // 2
    b, _, h, w = x.shape
    cols = im2col(x, kh, kw, pad)
    wmat = weight.reshape(c_out, -1)
    out = cols @ wmat.T
    if bias is not None:
        out += bias
    y = out.reshape(b, h, w, c_out).transpose(0, 3, 1, 2)
    cache = (cols, wmat, x.shape, kh, kw, pad, bias is not None)
    return np.ascontiguousarray(y), cache


def conv2d_backward(dy: np.ndarray, cache, input_grad: bool = True):
    """Gradients of :func:`conv2d_forward`.

    Returns ``(dx, dweight, dbias)`` (``dbias`` None if no bias; ``dx``
    None if not ``input_grad``, as the production op).
    """
    cols, wmat, x_shape, kh, kw, pad, has_bias = cache
    b, c_in, h, w = x_shape
    c_out = wmat.shape[0]
    dout = dy.transpose(0, 2, 3, 1).reshape(b * h * w, c_out)
    dwmat = dout.T @ cols
    dweight = dwmat.reshape(c_out, c_in, kh, kw)
    dbias = dout.sum(axis=0) if has_bias else None
    dcols = dout @ wmat
    dx = col2im(dcols, x_shape, kh, kw, pad)
    return (dx if input_grad else None), dweight, dbias


def batchnorm_forward(x, gamma, beta, running_mean, running_var, momentum, eps, training):
    """Per-channel batch normalization over ``(B, H, W)``: normalize to ``xhat``, then affine."""
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
    """Gradients of :func:`batchnorm_forward`: ``(dx, dgamma, dbeta)``."""
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
