import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuselab import nn, tensor
from fuselab.errors import DataError, NumericError


# --- oracles -----------------------------------------------------------------


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += float(a[i, l]) * float(b[l, j])
            out[i, j] = acc
    return out


def conv2d_oracle(x, kernels, bias, padding, stride):
    """Brute-force sliding window cross-correlation on a single (H,W,Cin) image."""
    h, w, cin = x.shape
    k, _, _, cout = kernels.shape
    if padding == "same":
        h_out, w_out = -(-h // stride), -(-w // stride)
        ph = max((h_out - 1) * stride + k - h, 0)
        pw = max((w_out - 1) * stride + k - w, 0)
        xp = np.zeros((h + ph, w + pw, cin))
        xp[ph // 2 : ph // 2 + h, pw // 2 : pw // 2 + w] = x
    else:
        xp = x.astype(np.float64)
        h_out, w_out = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.zeros((h_out, w_out, cout))
    for i in range(h_out):
        for j in range(w_out):
            patch = xp[i * stride : i * stride + k, j * stride : j * stride + k, :]
            for c in range(cout):
                out[i, j, c] = np.sum(patch * kernels[:, :, :, c]) + bias[c]
    return out


def maxpool_oracle(x):
    h, w, c = x.shape
    h2, w2 = -(-h // 2), -(-w // 2)
    out = np.full((h2, w2, c), -np.inf)
    for i in range(h):
        for j in range(w):
            out[i // 2, j // 2] = np.maximum(out[i // 2, j // 2], x[i, j])
    return out


def maxpool_scatter_oracle(grad, x):
    """Each window's gradient goes to its first maximum in (0,0), (0,1), (1,0), (1,1) order."""
    h, w, c = x.shape
    back = np.zeros((h, w, c))
    for i in range(grad.shape[0]):
        for j in range(grad.shape[1]):
            for ch in range(c):
                best = None
                for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    row, col = 2 * i + r, 2 * j + s
                    if row < h and col < w and (best is None or x[row, col, ch] > x[best[0], best[1], ch]):
                        best = (row, col)
                back[best[0], best[1], ch] = grad[i, j, ch]
    return back


# --- matmul -------------------------------------------------------------------


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    assert np.array_equal(tensor.matmul(np.eye(2, dtype=np.float32), m), m)


def test_matmul_annihilator():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    assert np.array_equal(tensor.matmul(m, np.zeros((2, 2), dtype=np.float32)), np.zeros((2, 2)))


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    b = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32)
    expected = np.array([[19.0, 22.0], [43.0, 50.0]])
    assert np.array_equal(matmul_oracle(a, b), expected)
    assert np.array_equal(tensor.matmul(a, b), expected.astype(np.float32))


def test_matmul_overflow_raises():
    big = np.full((2, 2), 1e300)
    with pytest.raises(NumericError):
        tensor.matmul(big, big)
    a, b = np.ones((1, 2), dtype=np.float32), np.full((2, 1), 1e38, dtype=np.float32)  # a @ b is 2e38, finite
    assert np.array_equal(tensor.matmul(a, b, np.float32([1])), a @ b + np.float32(1))
    with pytest.raises(NumericError):  # the bias takes it past float32's range
        tensor.matmul(a, b, np.float32([3e38]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_matmul_matches_triple_loop_oracle(seed):
    """Within float32's forward-error bound for inner products of length k:
    |got - want| <= k * 2**-24 * sum_l |a_il| |b_lj| (want accumulates in float64)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)).astype(np.float32)
    b = rng.normal(size=(8, 8)).astype(np.float32)
    got = tensor.matmul(a, b).astype(np.float64)
    want = matmul_oracle(a, b)
    k = a.shape[1]
    bound = k * 2.0**-24 * matmul_oracle(np.abs(a), np.abs(b))
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("m, k, n", [(16, 4096, 128), (16, 128, 5), (4096, 16, 128), (16, 128, 4096), (3, 7, 2)])
def test_matmul_is_the_plain_product_in_the_operands_dtype(m, k, n, rng):
    """float32 operands give float32, bit-equal to np.matmul, at Dense's forward and backward
    shapes (transposed views included); float64 operands give float64."""
    a = rng.normal(size=(k, m)).astype(np.float32).T  # a transposed view, as Dense.backward passes x.T
    b = rng.normal(size=(k, n)).astype(np.float32)
    got = tensor.matmul(a, b)
    assert got.dtype == np.float32 and np.array_equal(got.view(np.int32), np.matmul(a, b).view(np.int32))
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    got64 = tensor.matmul(a64, b64)
    assert got64.dtype == np.float64 and np.array_equal(got64, np.matmul(a64, b64))


# --- conv (nn.Conv, the program's only convolution) ----------------------------


def conv_forward(x, kernels, bias=None):
    """nn.Conv.forward with the given kernels on one (H, W, Cin) image or a batch."""
    k, _, cin, cout = kernels.shape
    conv = nn.Conv(k, cin, cout)
    conv.weights = kernels
    if bias is not None:
        conv.bias = bias
    return conv.forward(x[None])[0] if x.ndim == 3 else conv.forward(x)


def test_conv2d_delta_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 5, 1)).astype(np.float32)
    k = np.zeros((3, 3, 1, 1), dtype=np.float32)
    k[1, 1, 0, 0] = 1.0
    out = conv_forward(x, k, np.zeros(1, dtype=np.float32))
    assert np.array_equal(out, x)


def test_conv2d_zero_kernel_annihilates():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 7, 3)).astype(np.float32)
    k = np.zeros((3, 3, 3, 2), dtype=np.float32)
    out = conv_forward(x, k, np.zeros(2, dtype=np.float32))
    assert np.array_equal(out, np.zeros_like(out))


@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(4, 9),
    w=st.integers(4, 9),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    k=st.sampled_from([1, 3]),
)
@settings(max_examples=60, deadline=None)
def test_conv2d_matches_sliding_window_oracle(seed, h, w, cin, cout, k):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(h, w, cin)).astype(np.float32)
    kern = rng.normal(size=(k, k, cin, cout)).astype(np.float32)
    bias = rng.normal(size=cout).astype(np.float32)
    got = conv_forward(x, kern, bias).astype(np.float64)
    want = conv2d_oracle(x.astype(np.float64), kern.astype(np.float64), bias.astype(np.float64), "same", 1)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_conv2d_is_linear(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 6, 2)).astype(np.float32)
    y = rng.normal(size=(6, 6, 2)).astype(np.float32)
    kern = rng.normal(size=(3, 3, 2, 2)).astype(np.float32)
    a, b = 0.7, -1.3
    lhs = conv_forward((a * x + b * y).astype(np.float32), kern)
    rhs = a * conv_forward(x, kern) + b * conv_forward(y, kern)
    assert np.allclose(lhs, rhs, rtol=1e-5, atol=1e-5)


def test_conv2d_batched_matches_per_image():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(3, 5, 5, 2)).astype(np.float32)
    kern = rng.normal(size=(3, 3, 2, 4)).astype(np.float32)
    bias = rng.normal(size=4).astype(np.float32)
    batched = conv_forward(xs, kern, bias)
    for i in range(3):
        assert np.allclose(batched[i], conv_forward(xs[i], kern, bias), rtol=1e-6, atol=1e-6)


def conv_backward_oracle(x, kernels, dy):
    """dx, kernel and bias gradients of a stride-1 `same` convolution, one pixel and tap at a time."""
    n, h, w, _ = x.shape
    k = kernels.shape[0]
    pad = k // 2
    dx = np.zeros_like(x)
    dkernels = np.zeros_like(kernels)
    for b in range(n):
        for r in range(h):
            for c in range(w):
                for i in range(k):
                    for j in range(k):
                        rr, cc = r + i - pad, c + j - pad
                        if 0 <= rr < h and 0 <= cc < w:
                            dx[b, rr, cc] += kernels[i, j] @ dy[b, r, c]
                            dkernels[i, j] += np.outer(x[b, rr, cc], dy[b, r, c])
    return dx, dkernels, dy.sum(axis=(0, 1, 2))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    cin=st.integers(1, 4),
    cout=st.integers(1, 4),
    k=st.sampled_from([1, 3]),
)
@settings(max_examples=40, deadline=None)
def test_conv_backward_matches_loop_oracle(seed, n, h, w, cin, cout, k):
    rng = np.random.default_rng(seed)
    conv = nn.Conv(k, cin, cout)
    conv.weights = rng.normal(size=(k, k, cin, cout))
    conv.bias = rng.normal(size=cout)
    x = rng.normal(size=(n, h, w, cin))
    dy = rng.normal(size=(n, h, w, cout))
    conv.forward(x)
    dx = conv.backward(dy)
    want = conv_backward_oracle(x, conv.weights, dy)
    for got, expected in zip((dx, conv.grad_weights, conv.grad_bias), want):
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_conv2d_errors():
    x = np.zeros((1, 4, 4, 2), dtype=np.float32)
    with pytest.raises(DataError):  # channel mismatch
        nn.Conv(3, 3, 1).forward(x)


# --- maxpool2 -----------------------------------------------------------------


def test_maxpool2_single_window():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 2, 2, 1)
    out = tensor.maxpool2(x)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 4.0
    back = tensor.maxpool2_scatter(np.ones_like(out), x, out)
    assert np.array_equal(back[0, :, :, 0], [[0.0, 0.0], [0.0, 1.0]])  # lands at (1, 1)


def test_maxpool2_constant():
    x = np.full((2, 6, 6, 2), 2.5, dtype=np.float32)
    out = tensor.maxpool2(x)
    assert out.shape == (2, 3, 3, 2)
    assert np.all(out == 2.5)


def test_maxpool2_ramp_hand_case():
    x = np.arange(1.0, 17.0, dtype=np.float32).reshape(1, 4, 4, 1)
    expected = np.array([[6.0, 8.0], [14.0, 16.0]]).reshape(2, 2, 1)
    assert np.array_equal(maxpool_oracle(x[0]), expected)
    out = tensor.maxpool2(x)
    assert np.array_equal(out, expected[None].astype(np.float32))


def test_maxpool2_rejects_an_unbatched_image():
    with pytest.raises(DataError):
        tensor.maxpool2(np.zeros((4, 4, 1), dtype=np.float32))


@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    c=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_maxpool2_properties(seed, h, w, c):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, h, w, c)).astype(np.float32)
    out = tensor.maxpool2(x)
    assert out.shape == (2, -(-h // 2), -(-w // 2), c)
    for b in range(2):
        assert np.allclose(out[b], maxpool_oracle(x[b]).astype(np.float32))
        # pooled never exceeds the sample's max, and every pooled value exists in its window
        assert out[b].max() <= x[b].max()
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                window = x[b, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                for ch in range(c):
                    assert out[b, i, j, ch] in window[:, :, ch]


def test_maxpool2_scatter_inverts_selection():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 4, 6, 2)).astype(np.float32)
    out = tensor.maxpool2(x)
    grad = np.ones_like(out)
    back = tensor.maxpool2_scatter(grad, x, out)
    assert back.shape == x.shape
    # exactly one unit of gradient lands per window
    assert back.sum() == out.size
    assert np.all((back == 0) | (back == 1))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    c=st.integers(1, 3),
    dtype=st.sampled_from([np.float32, np.float64]),
    distinct=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_maxpool2_scatter_matches_loop_oracle_on_ties(seed, n, h, w, c, dtype, distinct):
    """Distinct values take the kernel's no-tie path; few values tie in most windows and take the tie path."""
    rng = np.random.default_rng(seed)
    if distinct:
        x = (rng.permutation(n * h * w * c) - n * h * w * c // 2).reshape(n, h, w, c).astype(dtype)
    else:
        x = rng.integers(-2, 3, size=(n, h, w, c)).astype(dtype)
    out = tensor.maxpool2(x)
    grad = rng.integers(-4, 5, size=out.shape).astype(dtype)
    back = tensor.maxpool2_scatter(grad, x, out)
    assert back.shape == x.shape and back.dtype == dtype
    for b in range(n):
        assert np.array_equal(out[b], maxpool_oracle(x[b]))
        assert np.array_equal(back[b], maxpool_scatter_oracle(grad[b], x[b]))
    assert not np.signbit(back[back == 0]).any()  # unrouted positions hold +0, never -0
    ones = tensor.maxpool2_scatter(np.ones_like(out), x, out)
    assert ones.sum() == out.size  # exactly one unit per window
    assert np.all((ones == 0) | (ones == 1))



# --- relu ------------------------------------------------------------------------


def test_relu():
    assert np.array_equal(nn.ReLU().forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_relu_grad():
    relu = nn.ReLU()
    relu.forward(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(relu.backward(np.array([3.0, 3.0, 3.0])), [0.0, 0.0, 3.0])
