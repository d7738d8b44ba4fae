"""Dense tensor kernels: matmul, the im2col/col2im_add unfolding that nn.Conv
builds its GEMMs on, pooling, ReLU.

Layout convention, used everywhere in this package: arrays are row-major
(C order), channel-last. Images are (H, W, C), batches are (N, H, W, C),
so flat index = ((n*H + row)*W + col)*C + ch. Storage dtype is float32;
the same kernels run in float64 when handed float64 arrays (the gradient
checker relies on this).

All kernels are pure functions of their inputs. matmul and maxpool2 raise
NumericError instead of returning NaN/Inf; the others pass values through
unchecked.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float32


def _check_finite(out: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NumericError(f"{op} produced non-finite values (overflow or NaN input)")
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with 64-bit accumulation, rounded back to the input dtype."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out_dtype = np.result_type(a.dtype, b.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(a.astype(np.float64, copy=False), b.astype(np.float64, copy=False))
        out = out.astype(out_dtype, copy=False)
    return _check_finite(out, "matmul")


def im2col(xp: np.ndarray, k: int) -> tuple[np.ndarray, int, int]:
    """Unfold a padded (N, Hp, Wp, C) array into stride-1 GEMM columns.

    Returns (cols, H', W') with H' = Hp-k+1, W' = Wp-k+1 and cols of shape
    (N*H'*W', k*k*C); column order matches kernels.reshape(k*k*Cin, Cout).
    """
    n, hp, wp, c = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))  # (N, H', W', C, k, k)
    h_out, w_out = windows.shape[1], windows.shape[2]
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * h_out * w_out, k * k * c)
    return np.ascontiguousarray(cols), h_out, w_out


def col2im_add(dcols: np.ndarray, padded_shape: tuple[int, ...], k: int) -> np.ndarray:
    """Scatter-add im2col gradients back onto the padded (N, Hp, Wp, C) input.

    dcols is tap-major, shape (k*k, N*H'*W', C): dcols[i*k + j] holds the
    gradient that tap (i, j) of every window sends to the input pixel it read,
    in window order. Each tap is one add of a contiguous block onto the
    shifted view out[:, i:i+H', j:j+W'], taps in row-major order.
    """
    n, hp, wp, c = padded_shape
    h_out = hp - k + 1
    w_out = wp - k + 1
    d = dcols.reshape(k, k, n, h_out, w_out, c)
    out = np.zeros(padded_shape, dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            out[:, i : i + h_out, j : j + w_out] += d[i, j]
    return out


def _pad_even(x: np.ndarray) -> np.ndarray:
    """Pad odd trailing H/W edges of (N, H, W, C) with -inf, so every window is 2x2."""
    n, h, w, c = x.shape
    if h % 2 == 0 and w % 2 == 0:
        return x
    xp = np.full((n, h + h % 2, w + w % 2, c), -np.inf, dtype=x.dtype)
    xp[:, :h, :w] = x
    return xp


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 per-channel max pool of (N, H, W, C) or (H, W, C).

    Odd trailing edges are padded with -inf. The maximum is taken over the
    four strided views x[:, r::2, s::2], so no window index is stored;
    maxpool2_scatter recovers it from x and the pooled output.
    """
    x = np.asarray(x)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.ndim != 4:
        raise ShapeError(f"maxpool2 expects (N,H,W,C) or (H,W,C), got {x.shape}")
    xp = _pad_even(x)
    out = np.maximum(xp[:, 0::2, 0::2], xp[:, 0::2, 1::2])
    np.maximum(out, xp[:, 1::2, 0::2], out=out)
    np.maximum(out, xp[:, 1::2, 1::2], out=out)
    _check_finite(out, "maxpool2")
    return out[0] if single else out


def maxpool2_scatter(grad: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Route pooled gradients back to the input of maxpool2.

    x is the pooled input and out = maxpool2(x). Each window's gradient goes
    to the first position equal to its maximum, in the order (0,0), (0,1),
    (1,0), (1,1); every other position gets +0.
    """
    single = x.ndim == 3
    if single:
        grad, x, out = grad[None], x[None], out[None]
    h, w = x.shape[1:3]
    xp = _pad_even(x)
    dx = np.empty(xp.shape, dtype=grad.dtype)  # the four strided views below cover it exactly once
    # An integer multiply by the 0/1 mask keeps grad's bits or writes +0; a float
    # multiply would write -0 under a negative gradient.
    bits = f"i{grad.itemsize}"
    free = np.ones(out.shape, dtype=bool)  # windows whose maximum is not yet routed
    for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = xp[:, r::2, s::2] == out
        hit &= free
        free ^= hit
        np.multiply(grad.view(bits), hit, out=dx[:, r::2, s::2].view(bits))
    dx = dx[:, :h, :w]
    return dx[0] if single else dx


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_grad(y: np.ndarray) -> np.ndarray:
    """ReLU derivative as a boolean mask; y may be the ReLU's input or its output
    (same mask). Multiplying a gradient by it casts True/False to 1/0."""
    return y > 0

