"""Dense tensor kernels: matmul, 2-D convolution, pooling, ReLU.

Layout convention, used everywhere in this package: arrays are row-major
(C order), channel-last. Images are (H, W, C), batches are (N, H, W, C),
so flat index = ((n*H + row)*W + col)*C + ch. Storage dtype is float32;
the same kernels run in float64 when handed float64 arrays (the gradient
checker relies on this).

All kernels are pure functions of their inputs and raise NumericError
instead of silently returning NaN/Inf.
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


def _same_pad_amounts(size: int, k: int, stride: int) -> tuple[int, int]:
    # output size ceil(size/stride); total pad split low/high, extra on the high side
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    lo = total // 2
    return lo, total - lo


def conv2d(
    x: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray | None = None,
    padding: str = "same",
    stride: int = 1,
) -> np.ndarray:
    """Cross-correlation of x with a kernel bank (no kernel flip).

    x: (H, W, Cin) or (N, H, W, Cin); kernels: (k, k, Cin, Cout);
    bias: (Cout,) or None. `same` zero-pads so H' = ceil(H/stride) (k must
    be odd); `valid` gives H' = floor((H-k)/stride)+1.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.ndim != 4 or kernels.ndim != 4 or kernels.shape[0] != kernels.shape[1]:
        raise ShapeError(f"conv2d expects (N,H,W,Cin) x (k,k,Cin,Cout), got {x.shape} x {kernels.shape}")
    n, h, w, cin = x.shape
    k, _, kcin, cout = kernels.shape
    if kcin != cin:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if padding == "same":
        if k % 2 == 0:
            raise ShapeError(f"`same` padding requires an odd kernel, got k={k}")
        ph = _same_pad_amounts(h, k, stride)
        pw = _same_pad_amounts(w, k, stride)
        xp = np.pad(x, ((0, 0), ph, pw, (0, 0)))
    elif padding == "valid":
        if k > h or k > w:
            raise ShapeError(f"`valid` conv kernel k={k} exceeds input {h}x{w}")
        xp = x
    else:
        raise ShapeError(f"unknown padding {padding!r} (use 'same' or 'valid')")

    cols, h_out, w_out = im2col(xp, k, stride)
    out = cols @ kernels.reshape(k * k * cin, cout).astype(cols.dtype, copy=False)
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"conv2d bias shape {bias.shape} != ({cout},)")
        out = out + bias.astype(out.dtype, copy=False)
    out = out.reshape(n, h_out, w_out, cout)
    _check_finite(out, "conv2d")
    return out[0] if single else out


def im2col(xp: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Unfold a padded (N, Hp, Wp, C) array into GEMM columns.

    Returns (cols, H', W') with cols of shape (N*H'*W', k*k*C); column order
    matches kernels.reshape(k*k*Cin, Cout).
    """
    n, hp, wp, c = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]  # (N, H', W', C, k, k)
    h_out, w_out = windows.shape[1], windows.shape[2]
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * h_out * w_out, k * k * c)
    return np.ascontiguousarray(cols), h_out, w_out


def col2im_add(
    dcols: np.ndarray, padded_shape: tuple[int, ...], k: int, stride: int
) -> np.ndarray:
    """Scatter-add im2col gradients back onto the padded input. Inverse of im2col."""
    n, hp, wp, c = padded_shape
    h_out = (hp - k) // stride + 1
    w_out = (wp - k) // stride + 1
    d = dcols.reshape(n, h_out, w_out, k, k, c)
    out = np.zeros(padded_shape, dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            out[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += d[:, :, :, i, j]
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
    """ReLU derivative mask; y may be the ReLU's input or its output (same mask)."""
    return (y > 0).astype(y.dtype)

