"""Dense tensor kernels: matmul, the im2col/col2im_add unfolding that nn.Conv
builds its GEMMs on, and 2x2 max pooling. The pooling kernels view an
even-sized batch as (N, H/2, 2, W/2, 2, C) windows, so each pass reads
contiguous runs of a row. ReLU is elementwise, in nn.ReLU; the backbone
applies it after pooling, to the 4x smaller pooled array.

Layout convention, used everywhere in this package: arrays are row-major
(C order), channel-last. Images are (H, W, C), batches are (N, H, W, C),
so flat index = ((n*H + row)*W + col)*C + ch; the unfolding and pooling
kernels take batches only. Every kernel computes in its operands' dtype, so
the one precision policy is float32 storage and float32 GEMMs; the same
kernels run in float64 when handed float64 arrays (the gradient checker
relies on this).

All kernels are pure functions of their inputs. matmul, every GEMM of the
package, raises NumericError instead of returning NaN/Inf, and keeps numpy's
floating-point warnings silent; the others pass values through unchecked.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericError

DTYPE = np.float32


def matmul(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Finite-checked matrix product a @ b, plus bias added in place when given, in the operands' own dtype
    (the layers check their inputs' shapes)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
        if bias is not None:
            out += bias
    if not np.isfinite(out).all():
        raise NumericError("matmul produced non-finite values (overflow or NaN input)")
    return out


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


def _windows(xp: np.ndarray) -> np.ndarray:
    """View an even (N, H, W, C) array as (N, H/2, 2, W/2, 2, C): [:, i, r, j, s] is tap (r, s) of window (i, j)."""
    n, h, w, c = xp.shape
    return xp.reshape(n, h // 2, 2, w // 2, 2, c)


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 per-channel max pool of an (N, H, W, C) batch.

    Odd trailing edges are padded with -inf. The maximum is taken over each
    window's two rows, then over its two columns, so both passes read runs of
    contiguous memory; no window index is stored, and maxpool2_scatter
    recovers it from x and the pooled output.
    """
    if x.ndim != 4:
        raise DataError(f"maxpool2 expects (N,H,W,C), got {x.shape}")
    win = _windows(_pad_even(x))
    rows = np.maximum(win[:, :, 0], win[:, :, 1])  # (N, H/2, W/2, 2, C)
    return np.maximum(rows[:, :, :, 0], rows[:, :, :, 1])


def maxpool2_scatter(grad: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Route pooled gradients back to the input of maxpool2.

    x is the pooled input and out = maxpool2(x). Each window's gradient goes
    to the first position equal to its maximum, in the order (0,0), (0,1),
    (1,0), (1,1); every other position gets +0.
    """
    h, w = x.shape[1:3]
    xp = _pad_even(x)
    n, hp, wp, c = xp.shape
    rows = xp.reshape(n, hp // 2, 2, wp, c)  # [:, i, r] is row r of window row i
    # One compare of each position against its window's maximum, repeated along
    # the row so that both operands are read in contiguous runs of a whole row.
    # Every window holds at least one hit, so more hits than windows means a tie.
    hit = rows == np.repeat(out, 2, axis=2)[:, :, None]
    if np.count_nonzero(hit) != out.size:  # keep each window's first hit only
        taps = _windows(hit.reshape(xp.shape))
        free = ~taps[:, :, 0, :, 0]  # windows whose maximum is not yet routed
        for r, s in ((0, 1), (1, 0), (1, 1)):
            tap = taps[:, :, r, :, s]
            tap &= free
            free ^= tap
    # An integer multiply by the 0/1 mask keeps grad's bits or writes +0; a float
    # multiply would write -0 under a negative gradient.
    bits = f"i{grad.itemsize}"
    dx = np.empty(xp.shape, dtype=grad.dtype)
    np.multiply(np.repeat(grad.view(bits), 2, axis=2)[:, :, None], hit, out=dx.view(bits).reshape(rows.shape))
    # contiguous, as the elementwise layers return: a strided gradient can change how BLAS sums a Conv's GEMMs
    return np.ascontiguousarray(dx[:, :h, :w])
