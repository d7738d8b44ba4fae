import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuselab import data, nn
from fuselab.errors import DataError

from gradcheck import float64_copy, gradient_check


def small_net(rng, cin=2, n_classes=5):
    return nn.Network(
        [
            nn.Conv(3, cin, 3, rng),
            nn.ReLU(),
            nn.MaxPool2(),
            nn.Flatten(),
            nn.Dense(3 * 3 * 3, 8, rng),
            nn.ReLU(),
            nn.Dense(8, n_classes, rng),
            nn.Softmax(),
        ]
    )


def two_branch_net(rng):
    """Branch outputs of unequal widths, 3*3*3 and 3*3*2, so a wrong split of the head's gradient shows."""
    return nn.Network(
        [nn.Conv(3, 2, 3, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Conv(3, 4, 2, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        head=[nn.Dense(3 * 3 * 3 + 3 * 3 * 2, 6, rng), nn.ReLU(), nn.Dense(6, 5, rng), nn.Softmax()],
    )


# makers of a one-branch and a two-branch network, with the input channels of each branch
NETS = pytest.mark.parametrize("make, channels", [(small_net, (2,)), (two_branch_net, (2, 4))])


# --- softmax / forward ----------------------------------------------------------


def test_softmax_output_sums_to_one():
    rng = np.random.default_rng(0)
    net = small_net(rng)
    x = rng.normal(size=(6, 6, 2)).astype(np.float32)
    out = net.infer(x[None])[0]
    assert out.shape == (5,)
    assert abs(out.sum() - 1.0) < 1e-6
    assert np.all(out >= 0) and np.all(out <= 1)


def test_zero_weight_net_is_uniform():
    net = small_net(None)  # all parameters zero
    x = np.random.default_rng(1).normal(size=(6, 6, 2)).astype(np.float32)
    out = net.infer(x[None])[0]
    assert np.allclose(out, 0.2, atol=1e-7)


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(5)
    net = small_net(rng)
    x = rng.normal(size=(6, 6, 2)).astype(np.float32)
    a = net.infer(x[None])[0]
    b = net.infer(x[None])[0]
    assert np.array_equal(a, b)


def test_forward_branch_count_mismatch():
    rng = np.random.default_rng(2)
    net = small_net(rng)
    x = np.zeros((6, 6, 2), dtype=np.float32)
    with pytest.raises(DataError):
        net.infer([x[None], x[None]])


def test_two_branch_net_fed_one_input_raises():
    rng = np.random.default_rng(13)
    net = nn.Network(
        [nn.Conv(3, 2, 2, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Conv(3, 3, 2, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        head=[nn.Dense(2 * 3 * 3 * 2, 5, rng), nn.Softmax()],
    )
    x = np.zeros((6, 6, 2), dtype=np.float32)
    with pytest.raises(DataError):
        net.infer(x[None])


@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-5, 5, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(1, 7)).astype(np.float32)
    sm = nn.Softmax()
    a = sm.forward(logits)
    b = sm.forward(logits + np.float32(shift))
    assert np.allclose(a, b, atol=1e-6)


# --- cross entropy ----------------------------------------------------------------


def test_cross_entropy_perfect_prediction():
    v = np.array([1.0, 0, 0, 0, 0], dtype=np.float32)
    assert nn.cross_entropy(v, 0) <= 1e-6


def test_cross_entropy_uniform_is_ln5():
    pred = np.full(5, 0.2, dtype=np.float32)
    assert abs(nn.cross_entropy(pred, 2) - math.log(5)) < 1e-6


def test_cross_entropy_half_is_ln2():
    pred = np.array([0.5, 0.5, 0, 0, 0], dtype=np.float32)
    assert abs(nn.cross_entropy(pred, 1) - math.log(2)) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_equals_one_hot_formula(dtype):
    rng = np.random.default_rng(16)
    pred = rng.dirichlet(np.ones(5), size=40).astype(dtype)
    classes = rng.integers(0, 5, size=40)
    classes[:4] = [0, 1, 2, 3]
    pred[range(4), classes[:4]] = [1e-9, 0.0, 1.0, 1e-7]  # in and at the clamp's flat region, and certain
    truth = np.eye(5, dtype=dtype)[classes]
    clamped = np.clip(pred, nn.PRED_CLAMP_FLOOR, 1.0)
    assert nn.cross_entropy(pred, classes) == float(-(truth * np.log(clamped)).sum(axis=-1).mean())
    grad = nn.cross_entropy_grad(pred, classes)
    assert grad.dtype == dtype
    assert np.array_equal(grad, np.where(pred >= nn.PRED_CLAMP_FLOOR, -truth / clamped, 0.0) / len(pred))


# --- backward ----------------------------------------------------------------------


def test_zero_upstream_gradient_gives_zero_param_gradients():
    rng = np.random.default_rng(3)
    net = small_net(rng)
    x = rng.normal(size=(1, 6, 6, 2)).astype(np.float32)
    net.forward_batch([x])
    net.backward(np.zeros((1, 5), dtype=np.float32))
    for g in nn.gradients(net):
        assert np.all(g == 0)


def test_dense_gradient_is_outer_product():
    # single Dense layer: dL/dW == x^T @ dy, hand-derivable on a 2x2 case
    layer = nn.Dense(2, 2)
    layer.weights[...] = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    x = np.array([[5.0, 7.0]], dtype=np.float32)
    layer.forward(x)
    dy = np.array([[0.25, -1.0]], dtype=np.float32)
    layer.backward(dy)
    expected = np.array([[5 * 0.25, 5 * -1.0], [7 * 0.25, 7 * -1.0]])
    assert np.allclose(layer.grad_weights, expected)
    assert np.allclose(layer.grad_bias, dy[0])


def finite_difference_grads(net, x, truth, epsilon=1e-3):
    """Independent central-difference oracle over every parameter."""
    out = []
    for p in nn.parameters(net):
        flat = p.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = nn.cross_entropy(net.forward_batch([x]), truth)
            flat[i] = orig - epsilon
            down = nn.cross_entropy(net.forward_batch([x]), truth)
            flat[i] = orig
            g[i] = (up - down) / (2 * epsilon)
        out.append(g.reshape(p.shape))
    return out


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = float64_copy(small_net(rng))
    x = rng.normal(size=(1, 6, 6, 2))
    truth = np.array([1])
    pred = net.forward_batch([x])
    net.backward(nn.cross_entropy_grad(pred, truth))
    analytic = nn.gradients(net)
    fd = finite_difference_grads(net, x, truth)
    for a, f in zip(analytic, fd):
        rel = np.abs(a - f) / np.maximum(np.abs(a) + np.abs(f), 1e-6)
        assert rel.max() < 1e-4


def backward_with_input_gradient(layers, dy):
    """Reference backward that also computes the first layer's dx."""
    for layer in reversed(layers):
        dy = layer.backward(dy)
    return dy


@NETS
def test_network_backward_skips_only_the_input_gradient(make, channels):
    rng = np.random.default_rng(13)
    net = make(rng)
    xs = [rng.normal(size=(3, 6, 6, c)).astype(np.float32) for c in channels]
    dpred = rng.normal(size=(3, 5)).astype(np.float32)
    net.forward_batch(xs)
    net.backward(dpred)
    skipped = [g.copy() for g in nn.gradients(net)]
    net.forward_batch(xs)
    dfeat = backward_with_input_gradient(net.head, dpred)
    widths = [branch[0].cout * 3 * 3 for branch in net.branches]  # each 6x6 branch pools to 3x3
    for branch, dy, x in zip(net.branches, np.split(dfeat, np.cumsum(widths)[:-1], axis=1), xs):
        assert backward_with_input_gradient(branch, dy).shape == x.shape
    for a, b in zip(skipped, nn.gradients(net)):
        assert np.array_equal(a, b)


def conv_block(conv, order):
    """A Conv, MaxPool2 and ReLU block in `order`, with its own Conv holding conv's parameters."""
    own = nn.Conv(conv.k, conv.cin, conv.cout)
    own.weights, own.bias = conv.weights.copy(), conv.bias.copy()
    return [own] + [nn.MaxPool2() if kind == "maxpool2" else nn.ReLU() for kind in order]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    bias=st.sampled_from(["mixed", "negative"]),
    zero_patch=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
)
# width 1: the pool pads each row to 2 and hands the conv a strided slice unless it makes it contiguous
@example(seed=0, n=1, h=4, w=1, cin=1, cout=2, bias="mixed", zero_patch=False, dtype=np.float32)
@example(seed=0, n=1, h=5, w=1, cin=2, cout=1, bias="mixed", zero_patch=False, dtype=np.float32)
@settings(max_examples=100, deadline=None)
def test_pool_first_block_equals_relu_first_block(seed, n, h, w, cin, cout, bias, zero_patch, dtype):
    """relu(maxpool2(x)) == maxpool2(relu(x)): both orders give the same bits, forward and in every
    parameter gradient, on odd sizes, on all-negative windows (a negative bias makes most of them), and
    on exact ties of the pre-ReLU values (a zero input patch makes every conv output over it the bias)."""
    rng = np.random.default_rng(seed)
    conv = nn.Conv(3, cin, cout, rng)
    conv.bias[...] = rng.normal(size=cout) - (3.0 if bias == "negative" else 0.0)
    conv.weights, conv.bias = conv.weights.astype(dtype), conv.bias.astype(dtype)
    x = rng.normal(size=(n, h, w, cin)).astype(dtype)
    if zero_patch:
        x[:, :4, :4] = 0
    pool_first, relu_first = conv_block(conv, ("maxpool2", "relu")), conv_block(conv, ("relu", "maxpool2"))
    y = nn._run_forward(pool_first, x)
    assert y.tobytes() == nn._run_forward(relu_first, x).tobytes()
    dy = rng.normal(size=y.shape).astype(dtype)
    dx = backward_with_input_gradient(pool_first, dy)
    assert np.array_equal(dx, backward_with_input_gradient(relu_first, dy))  # equal values; zeros may differ in sign
    for a, b in zip(pool_first[0].gradients(), relu_first[0].gradients()):
        assert a.dtype == dtype and a.tobytes() == b.tobytes()


def test_single_input_network_is_one_branch():
    rng = np.random.default_rng(14)
    layers = small_net(rng).all_layers()
    net = nn.Network(layers[:4], head=layers[4:])
    assert net.branches == [layers] and net.head == []


def test_conv_backward_returns_dx_unless_told_not_to():
    rng = np.random.default_rng(15)
    layer = nn.Conv(3, 2, 3, rng)
    x = rng.normal(size=(1, 5, 5, 2)).astype(np.float32)
    dy = rng.normal(size=(1, 5, 5, 3)).astype(np.float32)
    layer.forward(x)
    assert layer.backward(dy).shape == x.shape
    full = [g.copy() for g in layer.gradients()]
    layer.forward(x)
    assert layer.backward(dy, need_dx=False) is None
    for a, b in zip(full, layer.gradients()):
        assert np.array_equal(a, b)


# --- gradient_check -----------------------------------------------------------------


def test_gradient_check_passes_fresh_net():
    rng = np.random.default_rng(6)
    net = nn.Network([nn.Flatten(), nn.Dense(8, 6, rng), nn.ReLU(), nn.Dense(6, 3, rng), nn.Softmax()])
    x = rng.normal(size=(2, 2, 2)).astype(np.float32)
    report = gradient_check(net, x, 1, epsilon=1e-3, tolerance=1e-4)
    assert report.passed, str(report)


def test_gradient_check_detects_sign_flip():
    class BrokenDense(nn.Dense):
        def backward(self, dy):
            dx = super().backward(dy)
            self.grad_weights = -self.grad_weights
            return dx

    rng = np.random.default_rng(7)
    net = nn.Network([nn.Flatten(), BrokenDense(8, 3, rng), nn.Softmax()])
    x = rng.normal(size=(2, 2, 2)).astype(np.float32)
    report = gradient_check(net, x, 0)
    assert not report.passed


def test_gradient_check_zero_net_trivially_passes():
    net = nn.Network([nn.Flatten(), nn.Dense(4, 3), nn.Softmax()])  # zero weights
    x = np.zeros((2, 2, 1), dtype=np.float32)
    report = gradient_check(net, x, 2)
    assert report.passed


def test_gradient_check_refuses_large_nets():
    rng = np.random.default_rng(8)
    net = nn.Network([nn.Flatten(), nn.Dense(200, 200, rng), nn.Softmax()])
    with pytest.raises(ValueError):
        gradient_check(net, np.zeros((10, 20, 1)), 0)


# --- checkpoint round trip -------------------------------------------------------------


@NETS
def test_network_checkpoint_round_trip(tmp_path, make, channels):
    rng = np.random.default_rng(10)
    net = make(rng)
    xs = [rng.normal(size=(6, 6, c)).astype(np.float32) for c in channels]
    before = net.infer([x[None] for x in xs])[0]
    path = tmp_path / "net.fnet"
    nn.save_network(path, net)
    loaded = nn.load_network(path)
    assert [len(b) for b in loaded.branches] == [len(b) for b in net.branches]
    assert len(loaded.head) == len(net.head)
    assert np.array_equal(before, loaded.infer([x[None] for x in xs])[0])


def test_checkpoint_version_mismatch(tmp_path):
    rng = np.random.default_rng(12)
    net = nn.Network([nn.Flatten(), nn.Dense(4, 2, rng), nn.Softmax()])
    path = tmp_path / "net.fnet"
    nn.save_network(path, net)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # bump version field
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="checkpoint version 99, expected 1"):
        nn.load_network(path)


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """A directory holding a saved 4x4x3 chip and a saved one- and two-branch network."""
    root = tmp_path_factory.mktemp("saved")
    rng = np.random.default_rng(20)
    data.save_chip(root / "chip.fchp", rng.normal(size=(4, 4, 3)).astype(np.float32))
    nn.save_network(root / "one.fnet", small_net(rng))
    nn.save_network(root / "two.fnet", two_branch_net(rng))
    return root


@pytest.mark.parametrize("name, load", [("chip.fchp", data.load_chip), ("one.fnet", nn.load_network),
                                        ("two.fnet", nn.load_network)])
@given(draw=st.data())
@settings(max_examples=60, deadline=None)
def test_every_proper_prefix_and_appended_tail_is_a_data_error(saved_files, name, load, draw):
    """A file cut short or followed by any bytes is refused as DataError, and by nothing else."""
    blob = (saved_files / name).read_bytes()
    prefix = blob[: draw.draw(st.integers(0, len(blob) - 1), label="prefix length")]
    tail = draw.draw(st.binary(min_size=1, max_size=64) | st.just(b"garbage" + blob), label="tail")
    corrupt = saved_files / f"corrupt-{name}"
    for bad in (prefix, blob + tail):
        corrupt.write_bytes(bad)
        with pytest.raises(DataError):
            load(corrupt)


@NETS
def test_infer_keeps_no_cache_and_leaves_training_unchanged(make, channels):
    rng = np.random.default_rng(15)
    xs = [rng.normal(size=(3, 6, 6, c)).astype(np.float32) for c in channels]
    others = [rng.normal(size=(4, 6, 6, c)).astype(np.float32) for c in channels]
    dpred = rng.normal(size=(3, 5)).astype(np.float32)
    reference = make(np.random.default_rng(16))
    reference.forward_batch(xs)
    reference.backward(dpred)

    net = make(np.random.default_rng(16))
    assert np.array_equal(net.infer(xs), net.forward_batch(xs))
    net.infer(others)
    assert all(layer._cache is None for layer in net.all_layers())
    net.forward_batch(xs)
    net.backward(dpred)
    for a, b in zip(nn.gradients(reference), nn.gradients(net)):
        assert np.array_equal(a, b)
