import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuselab import fusion, nn
from fuselab.errors import DataError

from reference_tables import REFERENCE_ALPHA, REFERENCE_BETA, REFERENCE_CONFUSION


def prediction_vectors(n=5):
    return st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n).map(
        lambda v: (np.array(v) / np.sum(v)).astype(np.float64)
    )


def input_stats(mean_a, std_a, mean_b, std_b):
    """InputStats of the given values, in float32 as training and load_model give them."""
    return fusion.InputStats(*map(np.float32, (mean_a, std_a, mean_b, std_b)))


# --- build_model ------------------------------------------------------------------


# Input channels of each network's conv branches, in FusionModel.nets order,
# as the README's paradigm table describes the paradigms, for P=2 and B=13.
BRANCH_CHANNELS = {
    "single-a": [(2,)],
    "single-b": [(13,)],
    "early": [(15,)],
    "joint": [(2, 13)],
    "late-mean": [(2,), (13,)],
    "late-weighted": [(2,), (13,)],
}


def first_conv_cin(net):
    assert all(isinstance(branch[0], nn.Conv) for branch in net.branches)
    return tuple(branch[0].cin for branch in net.branches)


@pytest.mark.parametrize("paradigm", fusion.PARADIGMS)
def test_networks_read_the_modalities_the_readme_states(paradigm, rng):
    m = fusion.build_model(paradigm, 16, 16, 2, 13, 5, seed=1, conv_channels=(4, 8, 8), dense_units=16)
    assert [first_conv_cin(net) for net in m.nets] == BRANCH_CHANNELS[paradigm]
    assert len({id(net) for net in m.nets}) == len(m.nets)  # independent networks
    chips_a = rng.normal(size=(1, 16, 16, 2)).astype(np.float32)
    chips_b = rng.normal(size=(1, 16, 16, 13)).astype(np.float32)
    routed = fusion.network_inputs(m, chips_a, chips_b)
    assert [tuple(x.shape[-1] for x in xs) for xs in routed] == BRANCH_CHANNELS[paradigm]


def test_joint_final_dense_outputs_n_classes():
    m = fusion.build_model("joint", 16, 16, 2, 3, 5, seed=0, conv_channels=(4, 8, 8), dense_units=16)
    head_dense = [l for l in m.nets[0].head if isinstance(l, nn.Dense)]
    assert head_dense[-1].nout == 5
    assert isinstance(m.nets[0].head[-1], nn.Softmax)


def test_build_model_seed_determinism():
    a = fusion.build_model("late-mean", 16, 16, 2, 3, 5, seed=9, conv_channels=(4, 8, 8), dense_units=16)
    b = fusion.build_model("late-mean", 16, 16, 2, 3, 5, seed=9, conv_channels=(4, 8, 8), dense_units=16)
    for na, nb in zip(a.nets, b.nets):
        for p, q in zip(nn.parameters(na), nn.parameters(nb)):
            assert np.array_equal(p, q)


def test_build_model_rejects_tiny_chips():
    with pytest.raises(DataError):
        fusion.build_model("early", 4, 4, 2, 3, 5, seed=0)


def test_parameter_count_ordering():
    kw = dict(seed=0, conv_channels=(4, 8, 8), dense_units=16)
    singles = [fusion.build_model(p, 16, 16, 2, 13, 5, **kw) for p in ("single-a", "single-b")]
    early = fusion.build_model("early", 16, 16, 2, 13, 5, **kw)
    joint = fusion.build_model("joint", 16, 16, 2, 13, 5, **kw)
    late = fusion.build_model("late-mean", 16, 16, 2, 13, 5, **kw)
    def n_params(net):
        return sum(p.size for p in nn.parameters(net))

    early_n = n_params(early.nets[0])
    for s in singles:
        assert early_n > n_params(s.nets[0])
    late_total = sum(n_params(net) for net in late.nets)
    assert n_params(joint.nets[0]) < late_total


# --- aggregation -----------------------------------------------------------------


def test_mean_idempotent_on_equal_predictions():
    p = np.array([0.3, 0.3, 0.2, 0.1, 0.1])
    assert np.allclose(fusion.late_aggregate_mean(p, p), p)


def test_mean_analytic_case():
    a = np.array([1.0, 0, 0, 0, 0])
    b = np.array([0, 1.0, 0, 0, 0])
    assert np.allclose(fusion.late_aggregate_mean(a, b), [0.5, 0.5, 0, 0, 0])


def test_mean_argmax_equals_sum_argmax_1000_pairs():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(5))
        assert np.argmax(fusion.late_aggregate_mean(a, b)) == np.argmax(a + b)


@given(pa=prediction_vectors(), pb=prediction_vectors())
@settings(max_examples=100, deadline=None)
def test_mean_argmax_equals_sum_argmax_property(pa, pb):
    assert np.argmax(fusion.late_aggregate_mean(pa, pb)) == np.argmax(pa + pb)
    out = fusion.late_aggregate_mean(pa, pb)
    assert abs(out.sum() - 1.0) < 1e-9


def test_weighted_identity_weights_returns_pred_a():
    a = np.array([0.1, 0.6, 0.1, 0.1, 0.1])
    b = np.array([0.7, 0.1, 0.05, 0.05, 0.1])
    out = fusion.late_aggregate_weighted(a, b, np.ones(5), np.zeros(5))
    assert np.array_equal(out, a)


def test_weighted_reference_case():
    alpha = np.array([0, 1, 1, 1, 0.0])
    beta = np.array([1, 0, 0, 0, 1.0])
    pred_a = np.array([0.1, 0.6, 0.1, 0.1, 0.1])
    pred_b = np.array([0.7, 0.1, 0.05, 0.05, 0.1])
    out = fusion.late_aggregate_weighted(pred_a, pred_b, alpha, beta)
    assert np.allclose(out, [0.7, 0.6, 0.1, 0.1, 0.1])
    assert np.argmax(out) == 0


def test_weighted_equal_predictions_unchanged():
    p = np.array([0.25, 0.25, 0.2, 0.2, 0.1])
    out = fusion.late_aggregate_weighted(p, p, np.array([0, 1, 0, 1, 1.0]), np.array([1, 0, 1, 0, 0.0]))
    assert np.allclose(out, p)


@given(pa=prediction_vectors(), pb=prediction_vectors(), mask=st.lists(st.booleans(), min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_weighted_binary_equals_componentwise_select(pa, pb, mask):
    alpha = np.array(mask, dtype=float)
    beta = 1.0 - alpha
    out = fusion.late_aggregate_weighted(pa, pb, alpha, beta)
    select = np.where(alpha == 1.0, pa, pb)  # component-wise selection oracle
    assert np.array_equal(out, select)


# --- derive_weights ----------------------------------------------------------------


def test_derive_weights_reproduces_reference_values():
    recall_a = np.diag(REFERENCE_CONFUSION["single-a"])
    recall_b = np.diag(REFERENCE_CONFUSION["single-b"])
    alpha, beta = fusion.derive_weights(recall_a, recall_b)
    assert np.array_equal(alpha, REFERENCE_ALPHA)
    assert np.array_equal(beta, REFERENCE_BETA)


def test_derive_weights_ties_go_to_b():
    alpha, beta = fusion.derive_weights(np.full(5, 0.7), np.full(5, 0.7))
    assert np.array_equal(alpha, np.zeros(5))
    assert np.array_equal(beta, np.ones(5))


def test_derive_weights_extremes():
    alpha, beta = fusion.derive_weights(np.ones(5), np.zeros(5))
    assert np.array_equal(alpha, np.ones(5))
    assert np.array_equal(beta, np.zeros(5))


@given(
    ra=st.lists(st.floats(0, 1, allow_nan=False), min_size=5, max_size=5),
    rb=st.lists(st.floats(0, 1, allow_nan=False), min_size=5, max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_derive_weights_always_binary_complementary(ra, rb):
    alpha, beta = fusion.derive_weights(np.array(ra), np.array(rb))
    assert np.all((alpha == 0) | (alpha == 1))
    assert np.all(alpha + beta == 1.0)


# --- predict routing -----------------------------------------------------------------


def _tiny_models(seed=0):
    kw = dict(seed=seed, conv_channels=(2, 3, 4), dense_units=8)
    return {p: fusion.build_model(p, 8, 8, 2, 3, 5, **kw) for p in fusion.PARADIGMS}


def test_predict_shapes_and_normalization(rng):
    chips_a = rng.normal(size=(1, 8, 8, 2)).astype(np.float32)
    chips_b = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
    for paradigm, model in _tiny_models().items():
        if paradigm == "late-weighted":
            model.alpha, model.beta = np.float32([0, 1, 1, 1, 0]), np.float32([1, 0, 0, 0, 1])
        out = fusion.predict_batch(model, chips_a, chips_b)
        assert out.shape == (1, 5)
        if paradigm != "late-weighted":  # weighted output is deliberately not renormalized
            assert abs(out.sum() - 1.0) < 1e-5


def test_predict_rejects_wrong_chip_shape(rng):
    model = _tiny_models()["early"]
    chips_a = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)  # wrong channel count for A
    with pytest.raises(DataError):
        fusion.predict_batch(model, chips_a, rng.normal(size=(1, 8, 8, 3)).astype(np.float32))


def test_predict_batch_leaves_no_layer_cache(rng):
    chips_a = rng.normal(size=(2, 8, 8, 2)).astype(np.float32)
    chips_b = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
    for paradigm, model in _tiny_models(seed=4).items():
        if paradigm == "late-weighted":
            model.alpha, model.beta = np.ones(5, np.float32), np.zeros(5, np.float32)
        fusion.predict_batch(model, chips_a, chips_b)
        assert all(layer._cache is None for net in model.nets for layer in net.all_layers()), paradigm


def test_late_mean_of_identical_nets_returns_their_output(rng):
    model = fusion.build_model("late-mean", 8, 8, 2, 2, 5, seed=3, conv_channels=(2, 3, 4), dense_units=8)
    model.nets[1] = model.nets[0]  # same network on both modalities
    chip = rng.normal(size=(1, 8, 8, 2)).astype(np.float32)
    single = model.nets[0].forward_batch([chip])
    out = fusion.predict_batch(model, chip, chip)
    assert np.allclose(out, single, atol=1e-7)


def test_late_weighted_predict_is_componentwise_select(rng):
    model = _tiny_models(seed=5)["late-weighted"]
    alpha = np.float32([0, 1, 1, 1, 0])
    model.alpha, model.beta = alpha, 1.0 - alpha
    chips_a = rng.normal(size=(3, 8, 8, 2)).astype(np.float32)
    chips_b = rng.normal(size=(3, 8, 8, 3)).astype(np.float32)
    pred_a = model.nets[0].forward_batch([chips_a])
    pred_b = model.nets[1].forward_batch([chips_b])
    out = fusion.predict_batch(model, chips_a, chips_b)
    assert np.array_equal(out, np.where(alpha == 1.0, pred_a, pred_b))


# --- model bundle round trip ------------------------------------------------------------


def test_model_save_load_round_trip(tmp_path, rng):
    model = _tiny_models(seed=8)["late-weighted"]
    model.alpha, model.beta = np.float32([1, 0, 0, 1, 0]), np.float32([0, 1, 1, 0, 1])
    chips_a = rng.normal(size=(2, 8, 8, 2)).astype(np.float32)
    chips_b = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
    before = fusion.predict_batch(model, chips_a, chips_b)
    fusion.save_model(tmp_path, model)
    loaded = fusion.load_model(tmp_path)
    assert loaded.paradigm == "late-weighted"
    assert np.array_equal(loaded.alpha, model.alpha)
    after = fusion.predict_batch(loaded, chips_a, chips_b)
    assert np.array_equal(before, after)


def test_input_stats_round_trip_and_standardize(tmp_path, rng):
    model = _tiny_models(seed=3)["early"]
    model.input_stats = input_stats([1.0, 2.0], [0.5, 2.0], [0.0, 1.0, -1.0], [1.0, 4.0, 0.25])
    chips_a = rng.normal(size=(2, 8, 8, 2)).astype(np.float32)
    chips_b = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
    assert np.array_equal(model.inputs_a(chips_a), (chips_a - np.float32([1, 2])) / np.float32([0.5, 2]))
    (inputs,) = fusion.network_inputs(model, chips_a, chips_b)
    assert np.array_equal(inputs[0][..., 2:], (chips_b - np.float32([0, 1, -1])) / np.float32([1, 4, 0.25]))
    raw = model.nets[0].infer(inputs)
    before = fusion.predict_batch(model, chips_a, chips_b)
    assert np.array_equal(before, raw)
    fusion.save_model(tmp_path, model)
    loaded = fusion.load_model(tmp_path)
    assert np.array_equal(loaded.input_stats.std_b, model.input_stats.std_b)
    assert np.array_equal(fusion.predict_batch(loaded, chips_a, chips_b), before)


def test_late_model_takes_each_members_input_stats():
    models = _tiny_models(seed=4)
    single_a, single_b = models["single-a"], models["single-b"]
    single_a.input_stats = input_stats([1.0, 1.0], [1.0, 1.0], [0.0] * 3, [1.0] * 3)
    single_b.input_stats = input_stats([0.0, 0.0], [1.0, 1.0], [2.0] * 3, [3.0] * 3)
    stats = fusion.late_model("late-mean", single_a, single_b).input_stats
    assert stats.mean_a.tolist() == [1.0, 1.0] and stats.std_b.tolist() == [3.0] * 3


def test_late_model_takes_its_members_class_names():
    kw = dict(seed=0, conv_channels=(2, 3, 4), dense_units=8)
    names = ("w", "x", "y", "z", "v")
    single_a, single_b = (fusion.build_model(p, 8, 8, 2, 3, 5, class_names=names, **kw) for p in ("single-a", "single-b"))
    late = fusion.late_model("late-weighted", single_a, single_b)
    assert late.class_names == names
    assert all(member.class_names == names for member in fusion.late_members(late))


def test_joint_model_round_trip(tmp_path, rng):
    model = _tiny_models(seed=2)["joint"]
    chips_a = rng.normal(size=(2, 8, 8, 2)).astype(np.float32)
    chips_b = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
    before = fusion.predict_batch(model, chips_a, chips_b)
    fusion.save_model(tmp_path, model)
    after = fusion.predict_batch(fusion.load_model(tmp_path), chips_a, chips_b)
    assert np.array_equal(before, after)


# SHA-256 of each network's .fnet, in model.nets order, for _tiny_models(seed=0); a late model's
# networks are its single-a and single-b models'
TINY_FNET_SHA256 = {
    "single-a": ["46f18fbaaa02eda54a7833ad93e6363a35748342355cb4c16a2454909af4e747"],
    "single-b": ["9402a494855696ce1cda4ba25fa1cb716eaf1735b191a31a7611bf4ba360c116"],
    "early": ["4e603a570fb48d93ff36e45f4d3f26e8b152681b8fdc40efa0d71b3855344876"],
    "joint": ["468c2a8b8d4210e4f549059435afdc00e3acbad6164a8d7cfc2ebb341358abf3"],
}
# The same, as written while each conv block ran Conv, ReLU, MaxPool2 (before blocks pooled first)
RELU_FIRST_FNET_SHA256 = {
    "single-a": ["b2c753c5fc8e3df2ae48443be77b5f117024031d751e22fd2b556a321a690148"],
    "single-b": ["7987b8e81014ee1a1e6df7621d711dea9b285d8bf3a5142edca174e65a6df23d"],
    "early": ["f2dc1a4ee0100bc05178cea655ee61c7c829a3d98111afdf2f8cbf4316961e32"],
    "joint": ["ab8db21f0d802909ceca89111d9c9909cc8e1d14804e05443999f69fda631bbe"],
}
for pins in (TINY_FNET_SHA256, RELU_FIRST_FNET_SHA256):
    pins.update({late: pins["single-a"] + pins["single-b"] for late in fusion.LATE_PARADIGMS})


def layer_kinds(net):
    return [[layer.kind for layer in branch] for branch in net.branches], [layer.kind for layer in net.head]


@pytest.mark.parametrize("paradigm", fusion.PARADIGMS)
def test_fnet_bytes_are_stable_and_round_trip(tmp_path, paradigm):
    model = _tiny_models()[paradigm]
    for i, net in enumerate(model.nets):
        path = tmp_path / f"net_{i}.fnet"
        nn.save_network(path, net)
        blob = path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == TINY_FNET_SHA256[paradigm][i], (paradigm, i)
        loaded = nn.load_network(path)
        assert layer_kinds(loaded) == layer_kinds(net)
        nn.save_network(path, loaded)
        assert path.read_bytes() == blob
    assert len(model.nets) == len(TINY_FNET_SHA256[paradigm])


def relu_first(layers) -> list:
    """The layers with each (MaxPool2, ReLU) pair swapped back to (ReLU, MaxPool2)."""
    out = list(layers)
    for i in range(len(out) - 1):
        if isinstance(out[i], nn.MaxPool2) and isinstance(out[i + 1], nn.ReLU):
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


@pytest.mark.parametrize("paradigm", fusion.PARADIGMS)
def test_relu_first_checkpoints_keep_their_bytes_and_predictions(tmp_path, rng, paradigm):
    """A checkpoint written in the old block order still loads and predicts the pool-first model's bits:
    only the layer tags moved."""
    model, old = _tiny_models()[paradigm], _tiny_models()[paradigm]
    if paradigm == "late-weighted":
        for m in (model, old):
            m.alpha, m.beta = np.float32([0, 1, 1, 1, 0]), np.float32([1, 0, 0, 0, 1])
    for i, net in enumerate(model.nets):
        path = tmp_path / f"net_{i}.fnet"
        nn.save_network(path, nn.Network(*[relu_first(b) for b in net.branches], head=net.head))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == RELU_FIRST_FNET_SHA256[paradigm][i], (paradigm, i)
        old.nets[i] = nn.load_network(path)
        assert [b[1:3] for b in layer_kinds(old.nets[i])[0]] == [["relu", "maxpool2"]] * len(net.branches)
    chips_a = rng.normal(size=(3, 8, 8, 2)).astype(np.float32)
    chips_b = rng.normal(size=(3, 8, 8, 3)).astype(np.float32)
    predicted = fusion.predict_batch(old, chips_a, chips_b)
    assert predicted.tobytes() == fusion.predict_batch(model, chips_a, chips_b).tobytes()
