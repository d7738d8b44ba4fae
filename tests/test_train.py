import csv

import numpy as np
import pytest

from fuselab import data, fusion, nn, train as tr
from fuselab.errors import DataError, NumericError

TINY = dict(conv_channels=(4, 8, 8), dense_units=16)


def tiny_model(paradigm, seed=0, p=2, b=3):
    return fusion.build_model(paradigm, 16, 16, p, b, 5, seed=seed, **TINY)


def tiny_dataset(per_class=12, seed=5):
    samples = data.synth_generate(per_class, size=16, channels_a=2, channels_b=3, n_classes=5, seed=seed)
    return data.split(samples, seed=seed)


def train_only(samples):
    """A dataset whose train split holds every sample and whose val and test splits are empty."""
    return data.DatasetSplit(samples, samples.take([]), samples.take([]), data.class_names_for(5))


# --- prediction batches -------------------------------------------------------------


@pytest.mark.parametrize(
    "paradigm, size, batch",
    [("late-weighted", 32, 17), ("early", 64, 3), ("single-a", 64, 14), ("joint", 64, 4), ("single-a", 16, 227)],
)
def test_eval_batch_keeps_the_widest_unfolding_within_eval_bytes(paradigm, size, batch):
    """batch is how many samples of the model's widest network EVAL_BYTES holds. Each network's
    batch is the most whole rows, a power of two, that its own budget and EVAL_BATCH allow, at least one."""
    model = fusion.build_model(paradigm, size, size, 2, 13, 5, seed=0)
    fits = [tr.EVAL_BYTES // net.column_bytes(size, size) for net in model.nets]
    assert min(fits) == batch
    for net, samples in zip(model.nets, fits):
        samples = min(samples, tr.EVAL_BATCH)
        for turns in (1, 4):
            rows = tr.batch_rows(net, size, size, turns)
            assert rows & (rows - 1) == 0
            assert rows == 1 or rows * turns <= samples
            assert 2 * rows * turns > samples


@pytest.mark.parametrize(
    "paradigm, size, turns, rows",
    [("late-weighted", 64, 4, [2, 1]), ("late-weighted", 64, 1, [8, 4]), ("late-weighted", 32, 4, [4, 4]),
     ("early", 32, 4, [2]), ("early", 64, 4, [1]), ("joint", 64, 1, [4]), ("single-a", 16, 1, [16])],
)
def test_batch_rows_per_network(paradigm, size, turns, rows):
    model = fusion.build_model(paradigm, size, size, 2, 13, 5, seed=0)
    assert [tr.batch_rows(net, size, size, turns) for net in model.nets] == rows


def test_column_bytes_is_the_widest_conv_not_the_first():
    net = fusion.build_model("single-a", 64, 64, 2, 13, 5, seed=0).nets[0]
    # conv1 unfolds 64*64*9*2 values per sample; conv2, after one pool, 32*32*9*16
    assert net.column_bytes(64, 64) == 32 * 32 * 9 * 16 * 4
    assert net.column_bytes(63, 63) == 32 * 32 * 9 * 16 * 4  # pooling rounds odd sizes up


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
    ds = train_only(tiny_dataset().train.take([]))
    with pytest.raises(DataError, match="training split is empty"):
        tr.train(model, ds, tr.TrainConfig(epochs=1))


def test_overfits_ten_samples():
    samples = data.synth_generate(2, size=16, channels_a=2, channels_b=3, n_classes=5, seed=21)
    ds = train_only(samples)
    model = fusion.build_model("single-a", 16, 16, 2, 3, 5, seed=2, conv_channels=(8, 16, 16), dense_units=32)
    history = tr.train(model, ds, tr.TrainConfig(epochs=60, batch_size=4, seed=0))
    assert history[-1].train_accuracy >= 0.99


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
    losses = [r.train_loss for r in history]
    assert np.mean(losses[:5]) > np.mean(losses[-5:])


def test_one_history_record_per_epoch():
    model = tiny_model("single-b", seed=6)
    history = tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=3, batch_size=8, seed=2))
    assert [r.epoch for r in history] == [0, 1, 2]


def test_late_training_keeps_modalities_isolated(monkeypatch):
    """Each late network must only ever see its own modality's channel count."""
    seen, build_model = {}, fusion.build_model

    def spied(paradigm, *args, **kwargs):  # the single models whose networks the late model takes
        model = build_model(paradigm, *args, **kwargs)
        seen[paradigm] = set()
        for method in ("forward_batch", "infer"):  # training steps, then validation passes
            original = getattr(model.nets[0], method)

            def spying(inputs, _paradigm=paradigm, _orig=original, _method=method):
                for x in inputs if isinstance(inputs, list) else [inputs]:
                    seen[_paradigm].add((_method, x.shape[-1]))
                return _orig(inputs)

            setattr(model.nets[0], method, spying)
        return model

    monkeypatch.setattr(fusion, "build_model", spied)
    model, _, _ = tr.train_paradigm("late-mean", tiny_dataset(), tr.TrainConfig(epochs=1, batch_size=8, seed=3), {})
    assert [net.forward_batch.__name__ for net in model.nets] == ["spying", "spying"]
    assert seen["single-a"] == {("forward_batch", 2), ("infer", 2)}  # modality A channels only
    assert seen["single-b"] == {("forward_batch", 3), ("infer", 3)}  # modality B channels only


def test_training_sets_per_channel_input_stats():
    ds = tiny_dataset()
    model = tiny_model("joint", seed=12)
    tr.train(model, ds, tr.TrainConfig(epochs=0))
    chips_a = ds.train.chips_a.astype(np.float64)
    chips_b = ds.train.chips_b.astype(np.float64)
    stats = model.input_stats
    np.testing.assert_allclose(stats.mean_a, chips_a.mean(axis=(0, 1, 2)), rtol=1e-6)
    np.testing.assert_allclose(stats.std_a, chips_a.std(axis=(0, 1, 2)), rtol=1e-6)
    np.testing.assert_allclose(stats.mean_b, chips_b.mean(axis=(0, 1, 2)), rtol=1e-6)
    np.testing.assert_allclose(stats.std_b, chips_b.std(axis=(0, 1, 2)), rtol=1e-6)
    standardized = model.inputs_a(ds.train.chips_a)
    np.testing.assert_allclose(standardized.mean(axis=(0, 1, 2)), 0.0, atol=1e-5)
    np.testing.assert_allclose(standardized.std(axis=(0, 1, 2)), 1.0, rtol=1e-5)


def test_input_stats_of_augmented_split_sum_each_row_once_in_order():
    """The stats are the float32 values of the rows' float64 stats, summed in order,
    and equal those of every turned chip."""
    train = data.augment(tiny_dataset()).train
    stats = tr.input_stats(train)
    rows = (*tr._channel_stats(list(train.chips_a)), *tr._channel_stats(list(train.chips_b)))
    turned = [[np.rot90(chips[row], k, axes=(0, 1)) for row in range(len(chips)) for k in range(4)]
              for chips in (train.chips_a, train.chips_b)]
    every_turn = (*tr._channel_stats(turned[0]), *tr._channel_stats(turned[1]))
    for got, want_rows, want_turned in zip((stats.mean_a, stats.std_a, stats.mean_b, stats.std_b), rows, every_turn):
        assert got.dtype == np.float32
        assert np.array_equal(got, want_rows.astype(np.float32))
        assert np.array_equal(got, want_turned.astype(np.float32))


def test_constant_channel_is_scaled_by_one():
    chips = [np.full((4, 4, 2), 3.0, dtype=np.float32) for _ in range(3)]
    chips[0][..., 1] = 5.0
    mean, std = tr._channel_stats(chips)
    assert mean[0] == 3.0 and std[0] == 1.0
    assert std[1] > 0 and std[1] != 1.0


def test_training_keeps_input_stats_already_set():
    model = tiny_model("single-a", seed=14)
    model.input_stats = fusion.InputStats(*map(np.float32, ([1.0, 2.0], [3.0, 4.0], [0.0] * 3, [1.0] * 3)))
    tr.train(model, tiny_dataset(), tr.TrainConfig(epochs=0))
    assert model.input_stats.std_a.tolist() == [3.0, 4.0]


def test_late_members_share_the_late_models_input_stats():
    model, _, _ = tr.train_paradigm("late-mean", tiny_dataset(), tr.TrainConfig(epochs=0, seed=13), {})
    assert model.input_stats is not None
    assert all(member.input_stats is model.input_stats for member in fusion.late_members(model))


def test_late_weighted_derives_binary_weights_from_val():
    ds = tiny_dataset(per_class=20, seed=13)
    model, _, _ = tr.train_paradigm("late-weighted", ds, tr.TrainConfig(epochs=2, batch_size=8, seed=4), {})
    assert model.alpha is not None
    assert np.all((model.alpha == 0) | (model.alpha == 1))
    assert np.all(model.alpha + model.beta == 1.0)


def test_late_weighted_without_val_split_rejected():
    samples = data.synth_generate(4, size=16, channels_a=2, channels_b=3, n_classes=5, seed=1)
    ds, trained = train_only(samples), {}
    with pytest.raises(DataError, match="validation split"):
        tr.train_paradigm("late-weighted", ds, tr.TrainConfig(epochs=1, batch_size=4, seed=10), trained)
    assert trained == {}  # refused before any network trained


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
    assert float(rows[1][1]) == history[0].train_loss
