import csv

import numpy as np
import pytest

from fuselab import data, fusion, nn, train as tr
from fuselab.errors import DataError, NumericError

TINY = dict(conv_channels=(4, 8, 8), dense_units=16)


def tiny_model(paradigm, seed=0, p=2, b=3):
    return fusion.build_model(paradigm, 16, 16, p, b, 5, seed=seed, **TINY)


def tiny_dataset(per_class=12, seed=5):
    samples = data.synth_generate(per_class, width=16, height=16, channels_a=2, channels_b=3, n_classes=5, seed=seed)
    return data.split(samples, seed=seed)


# --- config -------------------------------------------------------------------


def test_train_config_defaults():
    cfg = tr.TrainConfig()
    assert cfg.epochs == 30 and cfg.batch_size == 16 and cfg.learning_rate == 1e-3
    assert cfg.optimizer == "adam"


@pytest.mark.parametrize(
    "kwargs",
    [dict(epochs=-1), dict(batch_size=0), dict(learning_rate=0.0), dict(optimizer="lbfgs")],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        tr.TrainConfig(**kwargs)


# --- update rules ----------------------------------------------------------------


def test_sgd_zero_gradient_is_noop():
    p = np.array([1.0, -2.0], dtype=np.float32)
    tr.SGD([p], 0.1).step([np.zeros_like(p)])
    assert np.array_equal(p, [1.0, -2.0])


def test_sgd_definition():
    p = np.array([1.0], dtype=np.float32)
    tr.SGD([p], 1.0).step([np.array([0.25], dtype=np.float32)])
    assert p[0] == 0.75


def test_adam_zero_gradient_drift_below_1e12():
    p = np.array([1.0, -3.0], dtype=np.float64)
    opt = tr.Adam([p], 1e-3)
    for _ in range(5):
        opt.step([np.zeros_like(p)])
    assert np.max(np.abs(p - [1.0, -3.0])) < 1e-12


@pytest.mark.parametrize("g", [1e-4, 1.0, 1e4])
def test_adam_first_step_is_sign_scaled_unit_step(g):
    # closed form at t=1: update = lr * g / (|g| + eps) ~= lr * sign(g)
    lr = 1e-3
    p = np.array([0.0], dtype=np.float64)
    tr.Adam([p], lr).step([np.array([g])])
    expected = -lr * g / (abs(g) + tr.ADAM_EPS)
    assert abs(p[0] - expected) < 1e-12
    assert abs(abs(p[0]) - lr) < lr * 1e-3


def test_adam_state_tracks_moments():
    p = np.array([1.0])
    g = np.array([0.5])
    opt = tr.Adam([p], 1e-3)
    opt.step([g])
    assert opt.t == 1
    assert np.allclose(opt.m[0], 0.05)  # (1-beta1)*g
    assert np.allclose(opt.v[0], 0.00025)  # (1-beta2)*g^2


# --- train loop -------------------------------------------------------------------


def test_zero_epochs_is_noop():
    model = tiny_model("single-a")
    before = [p.copy() for p in nn.parameters(model.nets[0])]
    history = tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=0))
    assert len(history) == 0
    for p, q in zip(before, nn.parameters(model.nets[0])):
        assert np.array_equal(p, q)


def test_empty_training_set_rejected():
    model = tiny_model("single-a")
    ds = data.DatasetSplit([], [], [], data.class_names_for(5))
    with pytest.raises(DataError, match="training split is empty"):
        tr.train(model, ds, tr.TrainConfig(epochs=1))


def test_overfits_ten_samples():
    samples = data.synth_generate(2, width=16, height=16, channels_a=2, channels_b=3, n_classes=5, seed=21)
    ds = data.DatasetSplit(samples, [], [], data.class_names_for(5))
    model = fusion.build_model("single-a", 16, 16, 2, 3, 5, seed=2, conv_channels=(8, 16, 16), dense_units=32)
    history = tr.train(model, ds, tr.TrainConfig(epochs=60, batch_size=4, seed=0))
    assert history.records[-1].train_accuracy >= 0.99


def test_training_is_bit_deterministic():
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=7)
    ds = tiny_dataset()
    runs = []
    for _ in range(2):
        model = tiny_model("early", seed=4)
        tr.train(model, ds, cfg)
        runs.append([p.copy() for p in nn.parameters(model.nets[0])])
    for p, q in zip(*runs):
        assert np.array_equal(p, q)


def test_learning_happens():
    model = tiny_model("early", seed=3)
    history = tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=10, batch_size=8, seed=1))
    losses = [r.train_loss for r in history.records]
    assert np.mean(losses[:5]) > np.mean(losses[-5:])


def test_one_history_record_per_epoch():
    model = tiny_model("single-b", seed=6)
    history = tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=3, batch_size=8, seed=2))
    assert [r.epoch for r in history.records] == [0, 1, 2]


def test_late_training_keeps_modalities_isolated():
    """Each late network must only ever see its own modality's channel count."""
    seen = {0: set(), 1: set()}
    model = tiny_model("late-mean", seed=8)
    for j, net in enumerate(model.nets):
        for method in ("forward_batch", "infer"):  # training steps, then validation passes
            original = getattr(net, method)

            def spying(inputs, _j=j, _orig=original, _method=method):
                for x in inputs if isinstance(inputs, list) else [inputs]:
                    seen[_j].add((_method, x.shape[-1]))
                return _orig(inputs)

            setattr(net, method, spying)
    tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=1, batch_size=8, seed=3))
    assert seen[0] == {("forward_batch", 2), ("infer", 2)}  # modality A channels only
    assert seen[1] == {("forward_batch", 3), ("infer", 3)}  # modality B channels only


def test_training_sets_per_channel_input_stats():
    ds = tiny_dataset()
    model = tiny_model("joint", seed=12)
    tr.train(model, ds, tr.TrainConfig(epochs=0))
    chips_a = np.stack([s.chip_a for s in ds.train]).astype(np.float64)
    chips_b = np.stack([s.chip_b for s in ds.train]).astype(np.float64)
    stats = model.input_stats
    np.testing.assert_allclose(stats.mean_a, chips_a.mean(axis=(0, 1, 2)), rtol=1e-6)
    np.testing.assert_allclose(stats.std_a, chips_a.std(axis=(0, 1, 2)), rtol=1e-6)
    np.testing.assert_allclose(stats.mean_b, chips_b.mean(axis=(0, 1, 2)), rtol=1e-6)
    np.testing.assert_allclose(stats.std_b, chips_b.std(axis=(0, 1, 2)), rtol=1e-6)
    standardized = model.inputs_a(np.stack([s.chip_a for s in ds.train]))
    np.testing.assert_allclose(standardized.mean(axis=(0, 1, 2)), 0.0, atol=1e-5)
    np.testing.assert_allclose(standardized.std(axis=(0, 1, 2)), 1.0, rtol=1e-5)


def test_constant_channel_is_scaled_by_one():
    chips = [np.full((4, 4, 2), 3.0, dtype=np.float32) for _ in range(3)]
    chips[0][..., 1] = 5.0
    mean, std = tr._channel_stats(chips)
    assert mean[0] == 3.0 and std[0] == 1.0
    assert std[1] > 0 and std[1] != 1.0


def test_training_keeps_input_stats_already_set():
    model = tiny_model("single-a", seed=14)
    model.set_input_stats([1.0, 2.0], [3.0, 4.0], [0.0] * 3, [1.0] * 3)
    tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=0))
    assert model.input_stats.std_a.tolist() == [3.0, 4.0]


def test_late_members_share_the_late_models_input_stats():
    model = tiny_model("late-mean", seed=13)
    tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=0))
    assert all(member.input_stats is model.input_stats for member in fusion.late_members(model))


def test_late_weighted_derives_binary_weights_from_val():
    model = tiny_model("late-weighted", seed=9)
    ds = tiny_dataset(per_class=20, seed=13)
    tr.train(model, ds, tr.TrainConfig(epochs=2, batch_size=8, seed=4))
    assert model.alpha is not None
    assert np.all((model.alpha == 0) | (model.alpha == 1))
    assert np.all(model.alpha + model.beta == 1.0)


def test_late_weighted_without_val_split_rejected():
    model = tiny_model("late-weighted", seed=10)
    samples = data.synth_generate(4, width=16, height=16, channels_a=2, channels_b=3, n_classes=5, seed=1)
    ds = data.DatasetSplit(samples, [], [], data.class_names_for(5))
    with pytest.raises(DataError, match="validation split"):
        tr.train(model, ds, tr.TrainConfig(epochs=1, batch_size=4))


def test_exploding_training_aborts_with_numeric_error():
    model = tiny_model("single-a", seed=11)
    with pytest.raises(NumericError):
        tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=5, batch_size=8, learning_rate=1e12, optimizer="sgd"))


def test_history_csv(tmp_path):
    model = tiny_model("single-a", seed=12)
    history = tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=2, batch_size=8, seed=5))
    path = tmp_path / "history.csv"
    tr.save_history(path, history)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"]
    assert len(rows) == 3
    assert float(rows[1][1]) == history.records[0].train_loss
