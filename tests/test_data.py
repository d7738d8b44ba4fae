import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuselab import config, data
from fuselab.errors import DataError


# --- split ---------------------------------------------------------------------


def test_split_500_gives_425_50_25(tiny_samples):
    samples = data.synth_generate(100, size=8, channels_a=1, channels_b=1, n_classes=5, seed=0)
    ds = data.split(samples, seed=0)
    assert ds.sizes() == (425, 50, 25)


def test_split_100_single_class():
    samples = data.synth_generate(100, size=8, channels_a=1, channels_b=1, n_classes=1, seed=0)
    ds = data.split(samples, seed=0)
    assert ds.sizes() == (85, 10, 5)


def test_split_deterministic(tiny_samples):
    a = data.split(tiny_samples, seed=9)
    b = data.split(tiny_samples, seed=9)
    assert a.train.records == b.train.records
    assert a.test.records == b.test.records


def test_split_disjoint_and_complete(tiny_samples):
    ds = data.split(tiny_samples, seed=1)
    ids = [r["id"] for r in ds.train.records + ds.val.records + ds.test.records]
    assert len(ids) == len(set(ids)) == len(tiny_samples)


def test_split_copies_each_row_whole(tiny_samples):
    ds = data.split(tiny_samples, seed=1)
    rows = {r["id"]: i for i, r in enumerate(tiny_samples.records)}
    for group in (ds.train, ds.val, ds.test):
        for j, rec in enumerate(group.records):
            i = rows[rec["id"]]
            assert group.classes[j] == tiny_samples.classes[i] and rec == tiny_samples.records[i]
            assert np.array_equal(group.chips_a[j], tiny_samples.chips_a[i])
            assert np.array_equal(group.chips_b[j], tiny_samples.chips_b[i])


@pytest.mark.parametrize("n_classes", [2, 12])
def test_split_names_its_records_classes_as_a_reload_does(tmp_path, n_classes):
    """12 classes name class10 and class11, which sort before class5 when the manifest is read back."""
    samples = data.synth_generate(3, size=8, channels_a=1, channels_b=1, n_classes=n_classes, seed=0)
    ds = data.split(samples, seed=1)
    data.save_dataset(tmp_path, ds)
    loaded = data.load_dataset(tmp_path)
    assert loaded.class_names == ds.class_names
    assert set(ds.class_names) == {rec["class"] for rec in samples.records}
    for name in data.SPLITS:
        saved, reread = getattr(ds, name), getattr(loaded, name)
        assert [rec["id"] for rec in reread.records] == [rec["id"] for rec in saved.records]
        assert [ds.class_names[c] for c in saved.classes] == [rec["class"] for rec in saved.records]
        assert np.array_equal(reread.classes, saved.classes)


def test_split_stratified_keeps_class_counts(tiny_samples):
    ds = data.split(tiny_samples, seed=2, stratified=True)
    for group, expected in ((ds.train, 17), (ds.val, 2), (ds.test, 1)):
        counts = np.bincount(group.classes, minlength=5)
        assert np.all(counts == expected)


def test_split_bad_fractions():
    """Fractions are checked where they enter, by config.parse_fractions; data.split takes them as given."""
    for value in ("1.2,-0.1,-0.1", "0.5,0.3,0.3"):
        with pytest.raises(ValueError):
            config.parse_fractions(value)


@given(seed=st.integers(0, 2**32 - 1), per_class=st.integers(4, 40))
@settings(max_examples=25, deadline=None)
def test_split_stratified_within_one(seed, per_class):
    samples = data.synth_generate(per_class, size=8, channels_a=1, channels_b=1, n_classes=3, seed=seed)
    ds = data.split(samples, seed=seed)
    n = 3 * per_class
    assert ds.sizes()[1] == 3 * int(per_class * 0.10)
    assert ds.sizes()[2] == 3 * int(per_class * 0.05)
    assert sum(ds.sizes()) == n
    classes = np.concatenate([ds.train.classes, ds.val.classes, ds.test.classes])
    assert np.array_equal(np.bincount(classes), [per_class] * 3)


# --- augment ----------------------------------------------------------------------


def test_augment_multiplies_sizes_by_four(tiny_split):
    aug = data.augment(tiny_split)
    assert aug.sizes() == tuple(4 * n for n in tiny_split.sizes())


def test_augment_425_50_25_gives_1700_200_100():
    samples = data.synth_generate(100, size=8, channels_a=1, channels_b=1, n_classes=5, seed=4)
    aug = data.augment(data.split(samples, seed=4))
    assert aug.sizes() == (1700, 200, 100)


def test_rot90_four_times_is_identity(tiny_samples):
    chip = tiny_samples.chips_a[0]
    out = chip
    for _ in range(4):
        out = np.rot90(out, 1, axes=(0, 1))
    assert np.array_equal(out, chip)


def one_row(chip_a, chip_b):
    return data.Samples([{"id": "x"}], np.zeros(1, np.int64), chip_a[None], chip_b[None])


def test_augment_constant_chip_copies_identical():
    s = one_row(np.full((4, 4, 2), 3.0, np.float32), np.full((4, 4, 1), 1.0, np.float32))
    aug = data.augment(data.DatasetSplit(s, s.take([]), s.take([]), ("a", "b")))
    chips_a, _ = aug.train.chips(range(4))
    for chip in chips_a:
        assert np.array_equal(chip, s.chips_a[0])


def test_augment_rotates_both_chips_together(tmp_path, tiny_split):
    data.save_dataset(tmp_path, tiny_split)
    loaded = data.load_dataset(tmp_path)
    aug = data.augment(loaded)
    for name in data.SPLITS:
        rows, turned = getattr(loaded, name), getattr(aug, name)
        assert np.shares_memory(turned.chips_a, rows.chips_a) and np.shares_memory(turned.chips_b, rows.chips_b)
        chips_a, chips_b = turned.chips(range(len(turned)))
        assert np.array_equal(turned.truth(), np.repeat(rows.classes, 4))
        for row in range(len(rows)):
            for k in range(4):
                assert np.array_equal(chips_a[4 * row + k], np.rot90(rows.chips_a[row], k, axes=(0, 1)))
                assert np.array_equal(chips_b[4 * row + k], np.rot90(rows.chips_b[row], k, axes=(0, 1)))


def test_augment_rejects_non_square():
    s = one_row(np.zeros((4, 6, 1), np.float32), np.zeros((4, 6, 1), np.float32))
    with pytest.raises(DataError):
        data.augment(data.DatasetSplit(s, s.take([]), s.take([]), ("a", "b")))


def test_augment_never_mixes_splits(tiny_split):
    aug = data.augment(tiny_split)
    for name in data.SPLITS:
        assert getattr(aug, name).records == getattr(tiny_split, name).records
        assert getattr(aug, name).chips_a is getattr(tiny_split, name).chips_a


# --- synth ------------------------------------------------------------------------


def test_synth_counts_and_shapes():
    samples = data.synth_generate(7, size=12, channels_a=2, channels_b=3, n_classes=5, seed=0)
    assert len(samples) == 35
    counts = np.bincount(samples.classes, minlength=5)
    assert np.all(counts == 7)
    assert samples.chips_a.shape == (35, 12, 12, 2)
    assert samples.chips_b.shape == (35, 12, 12, 3)
    assert samples.chips_a.dtype == np.float32


def test_synth_deterministic():
    a = data.synth_generate(3, size=8, channels_a=2, channels_b=2, n_classes=3, seed=42)
    b = data.synth_generate(3, size=8, channels_a=2, channels_b=2, n_classes=3, seed=42)
    assert a.records == b.records
    assert np.array_equal(a.chips_a, b.chips_a)
    assert np.array_equal(a.chips_b, b.chips_b)


def test_default_plan_visibility():
    """Class 4 hides in A behind class 0 and class 2 hides in B behind class 1; the rest are visible in both."""
    plan = data.default_plan(5)
    assert plan.alias_a == (0, 1, 2, 3, 0)
    assert plan.alias_b == (0, 1, 1, 3, 4)


def bayes_log_likelihoods(samples, plan, size, p, b, n_classes):
    """Closed-form class log-likelihoods under the known generative model."""
    means_a, means_b = data.generative_fields(plan, size, p, b, n_classes)
    sa, sb = data.SPECKLE_SIGMA, data.GAUSS_SIGMA
    log_means_a = np.log(means_a) - sa**2 / 2.0
    lla = np.zeros((len(samples), n_classes))
    llb = np.zeros((len(samples), n_classes))
    for i, (chip_a, chip_b) in enumerate(zip(samples.chips_a, samples.chips_b)):
        log_chip = np.log(chip_a.astype(np.float64))
        for c in range(n_classes):
            lla[i, c] = -np.sum((log_chip - log_means_a[c]) ** 2) / (2 * sa**2)
            llb[i, c] = -np.sum((chip_b.astype(np.float64) - means_b[c]) ** 2) / (2 * sb**2)
    return lla, llb


def test_bayes_oracle_separability_margins():
    n_classes, size, p, b = 5, 16, 2, 3
    plan = data.default_plan(n_classes)
    samples = data.synth_generate(40, size=size, channels_a=p, channels_b=b, n_classes=n_classes, seed=77)
    truths = samples.classes
    lla, llb = bayes_log_likelihoods(samples, plan, size, p, b, n_classes)
    acc_both = float(((lla + llb).argmax(1) == truths).mean())
    acc_a = float((lla.argmax(1) == truths).mean())
    acc_b = float((llb.argmax(1) == truths).mean())
    ceiling = (n_classes - 1) / n_classes  # one aliased pair per single modality
    assert acc_both >= 0.95
    assert acc_a <= ceiling + 0.05
    assert acc_b <= ceiling + 0.05


# --- chip files ----------------------------------------------------------------------


def test_chip_round_trip_bit_exact(tmp_path, rng):
    chip = rng.normal(size=(5, 7, 3)).astype(np.float32)
    path = tmp_path / "c.fchp"
    data.save_chip(path, chip)
    loaded = data.load_chip(path)
    assert loaded.shape == chip.shape
    assert np.array_equal(loaded, chip)
    assert loaded.dtype == np.float32


@given(
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    c=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_chip_round_trip_property(tmp_path_factory, h, w, c, seed):
    chip = np.random.default_rng(seed).normal(size=(h, w, c)).astype(np.float32)
    path = tmp_path_factory.mktemp("chips") / "c.fchp"
    data.save_chip(path, chip)
    assert np.array_equal(data.load_chip(path), chip)


def test_chip_header_layout(tmp_path):
    chip = np.arange(24, dtype=np.float32).reshape(2, 3, 4)  # H=2, W=3, C=4
    path = tmp_path / "c.fchp"
    data.save_chip(path, chip)
    raw = path.read_bytes()
    assert raw[:4] == b"FCHP"
    assert raw[4:6] == b"\x01\x00"  # version 1, little endian
    w, h, c = np.frombuffer(raw[8:20], dtype="<u4")
    assert (w, h, c) == (3, 2, 4)
    assert np.array_equal(np.frombuffer(raw[20:], dtype="<f4"), chip.reshape(-1))


def test_chip_bad_magic(tmp_path):
    path = tmp_path / "c.fchp"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError, match="bad magic"):
        data.load_chip(path)


def test_chip_truncated(tmp_path):
    chip = np.zeros((64, 64, 2), dtype=np.float32)
    path = tmp_path / "c.fchp"
    data.save_chip(path, chip)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError, match="truncated payload"):
        data.load_chip(path)


def test_chip_version_mismatch(tmp_path):
    chip = np.zeros((2, 2, 1), dtype=np.float32)
    path = tmp_path / "c.fchp"
    data.save_chip(path, chip)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="chip format version 9, expected 1"):
        data.load_chip(path)


# --- dataset directory -----------------------------------------------------------------


def test_dataset_round_trip(tmp_path, tiny_split):
    data.save_dataset(tmp_path, tiny_split)
    loaded = data.load_dataset(tmp_path)
    assert loaded.sizes() == tiny_split.sizes()
    assert loaded.class_names == tiny_split.class_names
    for name in data.SPLITS:
        got, ref = getattr(loaded, name), getattr(tiny_split, name)
        assert got.records == [{**rec, "split": name} for rec in ref.records]
        for field in ("classes", "chips_a", "chips_b"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
        assert got.classes.dtype == np.int64 and got.chips_a.dtype == np.float32


def test_manifest_fields(tmp_path, tiny_split):
    import json

    data.save_dataset(tmp_path, tiny_split)
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == sum(tiny_split.sizes())
    rec = json.loads(lines[0])
    assert set(rec) == {"id", "class", "lat", "lon", "chip_a", "chip_b", "split"}
    assert rec["class"] in data.CLASS_NAMES
    assert rec["split"] in ("train", "val", "test")
    assert (tmp_path / rec["chip_a"]).exists() and (tmp_path / rec["chip_b"]).exists()


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        data.load_dataset(tmp_path)


def test_load_dataset_bad_record(tmp_path):
    (tmp_path / "manifest.jsonl").write_text('{"id": "x"}\n')
    with pytest.raises(DataError):
        data.load_dataset(tmp_path)


def test_load_dataset_empty_manifest(tmp_path):
    (tmp_path / "manifest.jsonl").write_text("\n")
    with pytest.raises(DataError, match="manifest.jsonl: no records"):
        data.load_dataset(tmp_path)


@pytest.mark.parametrize("key, value", [("lat", "north"), ("lon", None), ("lat", True), ("lon", [1.0])])
def test_load_dataset_non_numeric_coordinate(tmp_path, tiny_split, key, value):
    import json

    data.save_dataset(tmp_path, tiny_split)
    manifest = tmp_path / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    rec = json.loads(lines[1])
    rec[key] = value
    lines[1] = json.dumps(rec)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="manifest.jsonl:2: lat and lon must be numbers"):
        data.load_dataset(tmp_path)


@pytest.mark.parametrize("key", ["id", "class", "chip_a", "chip_b"])
def test_load_dataset_text_field_must_be_a_string(tmp_path, tiny_split, key):
    import json

    data.save_dataset(tmp_path, tiny_split)
    manifest = tmp_path / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), key: 7})
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"manifest.jsonl:3: {key} must be a string, got 7"):
        data.load_dataset(tmp_path)


def test_stream_split_chunks_hold_the_split_rows_in_order(tmp_path, tiny_split):
    data.save_dataset(tmp_path, tiny_split)
    names, n_rows, chunks = data.stream_split(tmp_path, "train", 16, turns=4)
    chunks = list(chunks)
    assert names == data.CLASS_NAMES and n_rows == 85
    assert [len(c.classes) for c in chunks] == [16] * 5 + [5]
    assert all(c.turns == 4 for c in chunks)
    whole = data.load_dataset(tmp_path).train
    assert sum((c.records for c in chunks), []) == whole.records
    assert np.array_equal(np.concatenate([c.classes for c in chunks]), whole.classes)
    assert np.array_equal(np.concatenate([c.chips_b for c in chunks]), whole.chips_b)


def test_samples_chips_turns_each_sample(tiny_split):
    from dataclasses import replace

    turned = replace(tiny_split.val, turns=4)
    index = [5, 0, 39, 2, 2, 17]
    chips_a, chips_b = turned.chips(index)
    for i, j in enumerate(index):
        row, k = divmod(j, 4)
        assert np.array_equal(chips_a[i], np.rot90(tiny_split.val.chips_a[row], k))
        assert np.array_equal(chips_b[i], np.rot90(tiny_split.val.chips_b[row], k))
