import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuselab import nn
from fuselab.errors import ShapeError, StaleCacheError, VersionMismatchError


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


# --- softmax / forward ----------------------------------------------------------


def test_softmax_output_sums_to_one():
    rng = np.random.default_rng(0)
    net = small_net(rng)
    x = rng.normal(size=(6, 6, 2)).astype(np.float32)
    out = nn.forward(net, x)
    assert out.shape == (5,)
    assert abs(out.sum() - 1.0) < 1e-6
    assert np.all(out >= 0) and np.all(out <= 1)


def test_zero_weight_net_is_uniform():
    net = small_net(None)  # all parameters zero
    x = np.random.default_rng(1).normal(size=(6, 6, 2)).astype(np.float32)
    out = nn.forward(net, x)
    assert np.allclose(out, 0.2, atol=1e-7)


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(5)
    net = small_net(rng)
    x = rng.normal(size=(6, 6, 2)).astype(np.float32)
    a = nn.forward(net, x)
    b = nn.forward(net, x)
    assert np.array_equal(a, b)


def test_forward_branch_count_mismatch():
    rng = np.random.default_rng(2)
    net = small_net(rng)
    x = np.zeros((6, 6, 2), dtype=np.float32)
    with pytest.raises(ShapeError):
        nn.forward(net, [x, x])


def test_two_branch_net_fed_one_input_raises():
    rng = np.random.default_rng(13)
    net = nn.TwoBranchNetwork(
        [nn.Conv(3, 2, 2, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Conv(3, 3, 2, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Dense(2 * 3 * 3 * 2, 5, rng), nn.Softmax()],
    )
    x = np.zeros((6, 6, 2), dtype=np.float32)
    with pytest.raises(ShapeError):
        nn.forward(net, x)


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
    assert nn.cross_entropy(v, v) <= 1e-6


def test_cross_entropy_uniform_is_ln5():
    pred = np.full(5, 0.2, dtype=np.float32)
    truth = np.array([0, 0, 1.0, 0, 0], dtype=np.float32)
    assert abs(nn.cross_entropy(pred, truth) - math.log(5)) < 1e-6


def test_cross_entropy_half_is_ln2():
    pred = np.array([0.5, 0.5, 0, 0, 0], dtype=np.float32)
    truth = np.array([0, 1.0, 0, 0, 0], dtype=np.float32)
    assert abs(nn.cross_entropy(pred, truth) - math.log(2)) < 1e-6


def test_cross_entropy_rejects_non_one_hot():
    pred = np.full(5, 0.2)
    with pytest.raises(ValueError):
        nn.cross_entropy(pred, np.array([0.5, 0.5, 0, 0, 0]))
    with pytest.raises(ValueError):
        nn.cross_entropy(pred, np.array([1.0, 1.0, 0, 0, 0]))


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
    net = small_net(rng).astype(np.float64)
    x = rng.normal(size=(1, 6, 6, 2))
    truth = np.zeros((1, 5))
    truth[0, 1] = 1.0
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


def test_network_backward_skips_only_the_input_gradient():
    rng = np.random.default_rng(13)
    net = small_net(rng)
    x = rng.normal(size=(3, 6, 6, 2)).astype(np.float32)
    dpred = rng.normal(size=(3, 5)).astype(np.float32)
    net.forward_batch([x])
    net.backward(dpred)
    skipped = [g.copy() for g in nn.gradients(net)]
    net.forward_batch([x])
    dx = backward_with_input_gradient(net.layers, dpred)
    assert dx.shape == x.shape
    for a, b in zip(skipped, nn.gradients(net)):
        assert np.array_equal(a, b)


def test_two_branch_backward_skips_only_the_input_gradients():
    rng = np.random.default_rng(14)
    net = nn.TwoBranchNetwork(
        [nn.Conv(3, 2, 3, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Conv(3, 4, 3, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Dense(2 * 3 * 3 * 3, 6, rng), nn.ReLU(), nn.Dense(6, 5, rng), nn.Softmax()],
    )
    xa = rng.normal(size=(3, 6, 6, 2)).astype(np.float32)
    xb = rng.normal(size=(3, 6, 6, 4)).astype(np.float32)
    dpred = rng.normal(size=(3, 5)).astype(np.float32)
    net.forward_batch([xa, xb])
    net.backward(dpred)
    skipped = [g.copy() for g in nn.gradients(net)]
    net.forward_batch([xa, xb])
    dfeat = backward_with_input_gradient(net.head, dpred)
    assert backward_with_input_gradient(net.branch_a, dfeat[:, :27]).shape == xa.shape
    assert backward_with_input_gradient(net.branch_b, dfeat[:, 27:]).shape == xb.shape
    for a, b in zip(skipped, nn.gradients(net)):
        assert np.array_equal(a, b)


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
    truth = np.array([0, 1.0, 0], dtype=np.float32)
    report = nn.gradient_check(net, x, truth, epsilon=1e-3, tolerance=1e-4)
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
    truth = np.array([1.0, 0, 0], dtype=np.float32)
    report = nn.gradient_check(net, x, truth)
    assert not report.passed


def test_gradient_check_zero_net_trivially_passes():
    net = nn.Network([nn.Flatten(), nn.Dense(4, 3), nn.Softmax()])  # zero weights
    x = np.zeros((2, 2, 1), dtype=np.float32)
    truth = np.array([0, 0, 1.0], dtype=np.float32)
    report = nn.gradient_check(net, x, truth)
    assert report.passed


def test_gradient_check_refuses_large_nets():
    rng = np.random.default_rng(8)
    net = nn.Network([nn.Flatten(), nn.Dense(200, 200, rng), nn.Softmax()])
    with pytest.raises(ValueError):
        nn.gradient_check(net, np.zeros((10, 20, 1)), np.zeros(200))


# --- cache discipline ----------------------------------------------------------------


LAYER_CASES = {  # kind -> (config, input shape)
    "conv": ((3, 2, 3), (1, 4, 4, 2)),
    "maxpool2": ((), (1, 4, 4, 2)),
    "flatten": ((), (1, 4, 4, 2)),
    "dense": ((3, 2), (1, 3)),
    "relu": ((), (1, 4, 4, 2)),
    "softmax": ((), (1, 5)),
}


def make_layer(kind, rng):
    """A `kind` layer with random parameters, and an input for it."""
    cfg, shape = LAYER_CASES[kind]
    layer = nn._LAYER_KINDS[kind](*cfg)
    for p in layer.parameters():
        p[...] = rng.normal(size=p.shape)
    return layer, rng.normal(size=shape).astype(np.float32)


@pytest.mark.parametrize("kind", list(nn._LAYER_KINDS))
def test_backward_before_forward_raises(kind):
    layer, _ = make_layer(kind, np.random.default_rng(9))
    with pytest.raises(StaleCacheError, match=rf"^{type(layer).__name__}\.backward before forward$"):
        layer.backward(np.zeros((1, 2)))


@pytest.mark.parametrize("kind", list(nn._LAYER_KINDS))
def test_double_backward_raises(kind):
    layer, x = make_layer(kind, np.random.default_rng(9))
    dy = np.ones_like(layer.forward(x))
    layer.backward(dy)
    with pytest.raises(StaleCacheError, match=rf"^{type(layer).__name__}\.backward before forward$"):
        layer.backward(dy)


@pytest.mark.parametrize("kind", list(nn._LAYER_KINDS))
def test_layer_astype_copies_every_kind(kind):
    layer, _ = make_layer(kind, np.random.default_rng(11))
    before = [p.copy() for p in layer.parameters()]
    clone = layer.astype(np.float64)
    assert type(clone) is type(layer) and clone.kind == kind
    assert clone.config() == layer.config() == LAYER_CASES[kind][0]
    assert len(clone.parameters()) == len(before) == (2 if kind in ("conv", "dense") else 0)
    for p, q in zip(layer.parameters(), clone.parameters()):
        assert q.dtype == np.float64 and np.array_equal(q, p.astype(np.float64))
        assert not np.shares_memory(p, q)
        q += 1.0
    for p, b in zip(layer.parameters(), before):
        assert p.dtype == np.float32 and np.array_equal(p, b)


# --- checkpoint round trip -------------------------------------------------------------


def test_network_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    net = small_net(rng)
    x = rng.normal(size=(6, 6, 2)).astype(np.float32)
    before = nn.forward(net, x)
    path = tmp_path / "net.fnet"
    nn.save_network(path, net)
    loaded = nn.load_network(path)
    after = nn.forward(loaded, x)
    assert np.array_equal(before, after)


def test_two_branch_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    net = nn.TwoBranchNetwork(
        [nn.Conv(3, 2, 3, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Conv(3, 4, 3, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Dense(2 * 3 * 3 * 3, 6, rng), nn.ReLU(), nn.Dense(6, 5, rng), nn.Softmax()],
    )
    xa = rng.normal(size=(6, 6, 2)).astype(np.float32)
    xb = rng.normal(size=(6, 6, 4)).astype(np.float32)
    before = nn.forward(net, [xa, xb])
    path = tmp_path / "net.fnet"
    nn.save_network(path, net)
    after = nn.forward(nn.load_network(path), [xa, xb])
    assert np.array_equal(before, after)


def test_checkpoint_version_mismatch(tmp_path):
    rng = np.random.default_rng(12)
    net = nn.Network([nn.Flatten(), nn.Dense(4, 2, rng), nn.Softmax()])
    path = tmp_path / "net.fnet"
    nn.save_network(path, net)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # bump version field
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        nn.load_network(path)


def two_branch_net(rng):
    return nn.TwoBranchNetwork(
        [nn.Conv(3, 2, 3, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Conv(3, 4, 3, rng), nn.ReLU(), nn.MaxPool2(), nn.Flatten()],
        [nn.Dense(2 * 3 * 3 * 3, 6, rng), nn.ReLU(), nn.Dense(6, 5, rng), nn.Softmax()],
    )


@pytest.mark.parametrize("make, channels", [(small_net, (2,)), (two_branch_net, (2, 4))])
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
    with pytest.raises(StaleCacheError):
        net.backward(dpred)
    net.forward_batch(xs)
    net.backward(dpred)
    for a, b in zip(nn.gradients(reference), nn.gradients(net)):
        assert np.array_equal(a, b)
