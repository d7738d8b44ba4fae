import argparse
import contextlib
import io
import json
import os
import shlex
import shutil
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuselab import cli, data, evaluation as ev, fusion, nn, train as training
from fuselab.cli import main

from reference_tables import (
    CLASS_NAMES,
    REFERENCE_ALPHA,
    REFERENCE_BETA,
    REFERENCE_CONFUSION,
    REFERENCE_METRICS,
    confusion_from_fractions,
)


def synth_args(out, per_class=20, size=16, b=3, seed=0, extra=()):
    return [
        "dataset", "synth", "--out", str(out), "--per-class", str(per_class),
        "--size", str(size), "--b", str(b), "--seed", str(seed), "--quiet", *extra,
    ]


@pytest.fixture()
def tiny_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "data"
    assert main(synth_args(out)) == 0
    return out


def write_reference_metrics_csv(path):
    tables = {
        name: ev.MetricsTable(
            CLASS_NAMES,
            np.array(m["recall"]),
            np.array(m["precision"]),
            np.array(m["recall"]),
            np.array(m["f1"]),
            np.zeros(5, dtype=bool),
        )
        for name, m in REFERENCE_METRICS.items()
    }
    ev.emit_report(ev.compare_paradigms(tables), "csv", path)
    return path


EXIT_CODES = {"usage": 2, "data": 3, "numeric": 4}


def assert_one_error(capsys, argv, kind, *texts):
    """Run the CLI on argv and assert the error contract: the exit code of `kind`
    and exactly one stderr line, `error[kind]: ...`, that holds every text.
    Returns what the run printed on stdout."""
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == EXIT_CODES[kind], err
    assert len(err) == 1 and err[0].startswith(f"error[{kind}]:"), err
    for text in texts:
        assert text in err[0], (text, err[0])
    return captured.out


# --- dataset synth ---------------------------------------------------------------


def test_synth_writes_manifest_and_chips(tiny_dataset_dir):
    ds = data.load_dataset(tiny_dataset_dir)
    assert sum(ds.sizes()) == 100
    assert ds.sizes() == (85, 10, 5)
    assert (tiny_dataset_dir / "run-config.json").exists()


def test_synth_smoke_tiny(tmp_path):
    out = tmp_path / "d"
    assert main(synth_args(out, per_class=2, size=16)) == 0
    assert sum(data.load_dataset(out).sizes()) == 10


def test_synth_refuses_nonempty_dir_without_force(tmp_path, capsys):
    out = tmp_path / "d"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    assert main(synth_args(out)) == 3
    assert "error[data]" in capsys.readouterr().err
    assert main(synth_args(out, extra=("--force",))) == 0


@pytest.mark.parametrize("flag", ["--p", "--b"])
def test_synth_zero_channels_is_one_usage_error_that_writes_nothing(tmp_path, capsys, flag):
    out = tmp_path / "d"
    assert_one_error(capsys, synth_args(out, extra=(flag, "0")), "usage", "channel counts must be >= 1")
    assert not out.exists()


def test_synth_byte_identical_across_runs(tmp_path):
    out = tmp_path / "a"
    args = synth_args(out, per_class=3, extra=("--force",))
    assert main(args) == 0
    snapshot = {
        p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
    }
    assert main(args) == 0  # identical flags and seed, rerun in place
    rerun = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert snapshot.keys() == rerun.keys()
    for rel, blob in snapshot.items():
        assert rerun[rel] == blob, rel


def test_dataset_resplit(tiny_dataset_dir, tmp_path):
    # copy so we do not disturb the shared fixture
    import shutil

    work = tmp_path / "copy"
    shutil.copytree(tiny_dataset_dir, work)
    assert main(["dataset", "split", "--data", str(work), "--seed", "9", "--quiet"]) == 0
    ds = data.load_dataset(work)
    assert ds.sizes() == (85, 10, 5)


def test_dataset_split_changes_only_each_records_split(tiny_dataset_dir, tmp_path):
    import shutil

    work = tmp_path / "copy"
    shutil.copytree(tiny_dataset_dir, work)
    (work / "sar").mkdir()
    manifest = work / "manifest.jsonl"
    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    for rec in records:  # custom class names and A chips moved out of chips/
        rec["class"] = {"coastline": "forest"}.get(rec["class"], rec["class"])
        moved = "sar/" + Path(rec["chip_a"]).name
        (work / rec["chip_a"]).rename(work / moved)
        rec["chip_a"] = moved
    manifest.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    without_split = sorted(json.dumps({k: v for k, v in rec.items() if k != "split"}) for rec in records)
    for flags in (["--seed", "5"], ["--stratified", "false"]):
        assert main(["dataset", "split", "--data", str(work), *flags, "--quiet"]) == 0
        resplit = [json.loads(line) for line in manifest.read_text().splitlines()]
        assert sorted(json.dumps({k: v for k, v in rec.items() if k != "split"}) for rec in resplit) == without_split
    assert "forest" in data.load_dataset(work).class_names
    assert main(["train", "--data", str(work), "--paradigm", "single-a", "--out", str(tmp_path / "m"),
                 "--epochs", "1", "--quiet"]) == 0


def test_dataset_split_keeps_the_synth_record(tmp_path):
    ds = tmp_path / "ds"
    assert main(["dataset", "synth", "--out", str(ds), "--per-class", "4", "--size", "16", "--b", "3",
                 "--seed", "5", "--quiet"]) == 0
    made = json.loads((ds / "run-config.json").read_text())
    for seed in ("3", "4"):  # a second split keeps the synth record, not the first split's
        assert main(["dataset", "split", "--data", str(ds), "--seed", seed, "--quiet"]) == 0
        record = json.loads((ds / "run-config.json").read_text())
        assert record["synth"] == made
        assert record["seed"] == int(seed) and "fractions" in record and "stratified" in record
    assert {key: made[key] for key in ("per_class", "size", "p", "b", "classes", "seed")} == dict(
        per_class=4, size=16, p=2, b=3, classes=5, seed=5)


@pytest.mark.parametrize("record", ["{", "[1, 2]"])
def test_dataset_split_bad_run_config_is_one_data_error(tiny_dataset_dir, tmp_path, capsys, record):
    ds = tmp_path / "ds"
    shutil.copytree(tiny_dataset_dir, ds)
    (ds / "run-config.json").write_text(record)
    manifest = (ds / "manifest.jsonl").read_text()
    assert_one_error(capsys, ["dataset", "split", "--data", str(ds), "--seed", "3"], "data", "run-config.json")
    assert (ds / "manifest.jsonl").read_text() == manifest


@pytest.mark.parametrize("command", ["train", "eval", "compare", "dataset split"])
def test_empty_manifest_is_one_data_error(tmp_path, capsys, command):
    ds = tmp_path / "d"
    ds.mkdir()
    (ds / "manifest.jsonl").write_text("\n")
    out = str(tmp_path / "o")
    argv = {
        "train": ["train", "--paradigm", "single-a", "--data", str(ds), "--out", out],
        "eval": ["eval", "--model", str(saved_model_dir(tmp_path)), "--data", str(ds), "--out", out],
        "compare": ["compare", "--data", str(ds), "--out", out],
        "dataset split": ["dataset", "split", "--data", str(ds)],
    }[command]
    assert_one_error(capsys, argv, "data", f"{ds / 'manifest.jsonl'}: no records")


# --- train ------------------------------------------------------------------------


def test_train_late_weighted_writes_two_checkpoints_and_weights(tiny_dataset_dir, tmp_path):
    out = tmp_path / "model"
    code = main(
        ["train", "--data", str(tiny_dataset_dir), "--paradigm", "late-weighted",
         "--out", str(out), "--epochs", "1", "--seed", "0", "--quiet"]
    )
    assert code == 0
    meta = json.loads((out / "model.json").read_text())
    assert len(meta["checkpoints"]) == 2
    for name in meta["checkpoints"]:
        assert (out / name).exists()
    weights = json.loads((out / "fusion_weights.json").read_text())
    alpha, beta = np.array(weights["alpha"]), np.array(weights["beta"])
    assert np.all((alpha == 0) | (alpha == 1))
    assert np.all(alpha + beta == 1.0)
    assert (out / "history.csv").exists()


@pytest.fixture(scope="module")
def compares_by_seed(tmp_path_factory):
    """A 16x16 dataset d and its `compare --epochs 1` at seed 0 (in c0) and 1 (in c1)."""
    root = tmp_path_factory.mktemp("rows")
    assert main(synth_args(root / "d", per_class=10)) == 0
    for seed in (0, 1):
        assert main(["compare", "--data", str(root / "d"), "--out", str(root / f"c{seed}"), "--epochs", "1",
                     "--seed", str(seed), "--quiet"]) == 0
    return root


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("paradigm", fusion.PARADIGMS)
def test_compare_row_is_the_train_run_of_its_paradigm(compares_by_seed, tmp_path, paradigm, seed):
    """`train --paradigm P --seed s` writes compare's P row byte for byte, late paradigms included."""
    out = tmp_path / paradigm
    assert main(["train", "--data", str(compares_by_seed / "d"), "--paradigm", paradigm, "--out", str(out),
                 "--epochs", "1", "--seed", str(seed), "--quiet"]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir() if path.name != "run-config.json"}
    nets = [f"net_{i}.fnet" for i in range(len(fusion.NETWORK_INPUTS[paradigm]))]
    weights = ["fusion_weights.json"] if paradigm == "late-weighted" else []
    assert sorted(written) == sorted(["history.csv", "model.json", *nets, *weights])
    for name, blob in written.items():
        assert (compares_by_seed / f"c{seed}" / paradigm / name).read_bytes() == blob, name


SCORED_RUN = ["--epochs", "1", "--learning-rate", "1e-4", "--seed", "1"]


@pytest.fixture(scope="module")
def scored_compare(tmp_path_factory):
    """A 16x16 dataset d of 20 rows a class (seed 1) and its `compare` under SCORED_RUN in c."""
    root = tmp_path_factory.mktemp("scored")
    assert main(synth_args(root / "d", seed=1)) == 0
    assert main(["compare", "--data", str(root / "d"), "--out", str(root / "c"), *SCORED_RUN, "--quiet"]) == 0
    return root


@pytest.mark.parametrize("paradigm", fusion.PARADIGMS)
def test_every_validation_score_of_a_paradigm_is_one_answer(scored_compare, tmp_path, capsys, paradigm):
    """compare's confusion.csv, history.csv's last val_accuracy and the accuracy `train` prints all
    score the paradigm's own validation decisions, late-weighted's weighted ones included."""
    row = scored_compare / "c" / paradigm
    counts = ev.parse_confusion_csv(row / "confusion.csv").counts
    accuracy = np.trace(counts) / counts.sum()
    assert float((row / "history.csv").read_text().splitlines()[-1].rsplit(",", 1)[1]) == accuracy
    capsys.readouterr()
    assert main(["train", "--data", str(scored_compare / "d"), "--paradigm", paradigm, "--out", str(tmp_path / "m"),
                 *SCORED_RUN]) == 0
    assert capsys.readouterr().out == f"trained {paradigm}: final val accuracy {accuracy:.3f}\n"


def test_train_early_first_layer_spans_modalities(tiny_dataset_dir, tmp_path):
    out = tmp_path / "model"
    assert main(
        ["train", "--data", str(tiny_dataset_dir), "--paradigm", "early",
         "--out", str(out), "--epochs", "0", "--quiet"]
    ) == 0
    model = fusion.load_model(out)
    assert model.nets[0].branches[0][0].cin == 2 + 3


def test_train_zero_epochs_checkpoint_equals_initialization(tiny_dataset_dir, tmp_path):
    out = tmp_path / "model"
    assert main(
        ["train", "--data", str(tiny_dataset_dir), "--paradigm", "single-a",
         "--out", str(out), "--epochs", "0", "--seed", "4", "--quiet"]
    ) == 0
    loaded = fusion.load_model(out)
    fresh = fusion.build_model("single-a", 16, 16, 2, 3, 5, seed=4)
    for p, q in zip(nn.parameters(loaded.nets[0]), nn.parameters(fresh.nets[0])):
        assert np.array_equal(p, q)


def test_train_without_validation_split_says_so(tmp_path, capsys):
    ds, out = tmp_path / "ds", tmp_path / "model"
    assert main(synth_args(ds, per_class=3, b=2, extra=("--classes", "2"))) == 0  # 3 rows a class: no val row
    capsys.readouterr()
    assert main(["train", "--data", str(ds), "--paradigm", "single-a", "--epochs", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"trained single-a: {ds} has no validation split to score\n"
    header, row = (out / "history.csv").read_text().splitlines()
    assert header.endswith(",val_loss,val_accuracy") and row.endswith(",nan,nan")


def test_train_unknown_paradigm_lists_options(tiny_dataset_dir, tmp_path, capsys):
    code = main(
        ["train", "--data", str(tiny_dataset_dir), "--paradigm", "middle", "--out", str(tmp_path / "m")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "single-a" in err and "late-weighted" in err



def test_dataset_split_out_is_a_usage_error_that_rewrites_nothing(tiny_dataset_dir, tmp_path, capsys):
    manifest = (tiny_dataset_dir / "manifest.jsonl").read_bytes()
    other = tmp_path / "d2"
    assert_one_error(capsys, ["dataset", "split", "--data", str(tiny_dataset_dir), "--out", str(other), "--quiet"],
                     "usage", "--out")
    assert (tiny_dataset_dir / "manifest.jsonl").read_bytes() == manifest
    assert not other.exists()


# --- eval --------------------------------------------------------------------------


def test_eval_outputs_round_trip(tiny_dataset_dir, tmp_path):
    model_dir = tmp_path / "model"
    assert main(
        ["train", "--data", str(tiny_dataset_dir), "--paradigm", "single-b",
         "--out", str(model_dir), "--epochs", "1", "--quiet"]
    ) == 0
    out = tmp_path / "eval"
    assert main(
        ["eval", "--data", str(tiny_dataset_dir), "--model", str(model_dir),
         "--out", str(out), "--quiet"]
    ) == 0
    cm = ev.parse_confusion_csv(out / "confusion.csv")
    assert cm.total == 40  # 10 val samples augmented 4x
    assert np.allclose(cm.row_normalized.sum(axis=1), 1.0)
    tables = ev.parse_metrics_csv(out / "metrics.csv")
    assert "single-b" in tables


def test_eval_split_choice_and_augment_opt_out(tiny_dataset_dir, tmp_path):
    model_dir = tmp_path / "model"
    main(["train", "--data", str(tiny_dataset_dir), "--paradigm", "single-a",
          "--out", str(model_dir), "--epochs", "0", "--quiet"])
    out = tmp_path / "eval"
    assert main(
        ["eval", "--data", str(tiny_dataset_dir), "--model", str(model_dir), "--out", str(out),
         "--split", "test", "--augment-eval", "false", "--quiet"]
    ) == 0
    cm = ev.parse_confusion_csv(out / "confusion.csv")
    assert cm.total == 5  # unaugmented test split


def test_turned_eval_of_a_network_that_does_not_begin_with_a_conv(tiny_dataset_dir, tmp_path):
    """A branch whose first layer is not a Conv is handed its rows turned: eval's confusion table is that of the
    stacked turned samples' predictions."""
    loaded = data.load_dataset(tiny_dataset_dir)
    layers = [nn.MaxPool2(), nn.Flatten(), nn.Dense(8 * 8 * 2, 5, np.random.default_rng(0)), nn.Softmax()]
    model = fusion.FusionModel("single-a", [nn.Network(layers)], (16, 16, 2), (16, 16, 3), 5,
                               input_stats=training.input_stats(loaded.train), class_names=loaded.class_names)
    fusion.save_model(tmp_path / "model", model)
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(tiny_dataset_dir), "--model", str(tmp_path / "model"), "--out", str(out),
                 "--augment-eval", "true", "--quiet"]) == 0
    val = data.augment(loaded).val
    pred = fusion.predict_batch(model, *val.chips(range(len(val))))
    expected = ev.confusion_csv_text(ev.confusion_matrix(pred, val.truth(), loaded.class_names))
    assert (out / "confusion.csv").read_text() == expected


def test_seven_classes_on_12x12_chips_train_and_eval(tmp_path):
    """Past five classes the synthetic names run class5, class6, ...; 12x12 chips pool to 6x6, 3x3, then 2x2 over
    a padded edge, in training and in eval."""
    assert main(synth_args(tmp_path / "ds", per_class=10, size=12, extra=("--classes", "7"))) == 0
    assert main(["train", "--data", str(tmp_path / "ds"), "--paradigm", "single-a", "--epochs", "1",
                 "--out", str(tmp_path / "model"), "--quiet"]) == 0
    assert main(["eval", "--data", str(tmp_path / "ds"), "--model", str(tmp_path / "model"),
                 "--out", str(tmp_path / "ev"), "--quiet"]) == 0
    names = [*data.CLASS_NAMES, "class5", "class6"]
    assert json.loads((tmp_path / "model" / "model.json").read_text())["class_names"] == names
    assert (tmp_path / "ev" / "confusion.csv").read_text().splitlines()[0] == ",".join(["class", *names])


def test_eval_missing_dataset_is_data_error(tmp_path, capsys):
    assert main(["eval", "--data", str(tmp_path / "nope"), "--model", str(tmp_path), "--out", str(tmp_path / "o")]) == 3
    assert "error[data]" in capsys.readouterr().err


@pytest.mark.parametrize("model_classes, data_classes", [(4, 5), (5, 4)])
def test_eval_class_count_mismatch_is_data_error(tmp_path, capsys, model_classes, data_classes):
    dirs = {}
    for n in {model_classes, data_classes}:
        dirs[n] = tmp_path / f"data{n}"
        assert main(synth_args(dirs[n], per_class=4, extra=("--classes", str(n)))) == 0
    model_dir = tmp_path / "model"
    assert main(["train", "--data", str(dirs[model_classes]), "--paradigm", "single-a",
                 "--out", str(model_dir), "--epochs", "0", "--quiet"]) == 0
    assert_one_error(capsys, ["eval", "--data", str(dirs[data_classes]), "--model", str(model_dir),
                              "--split", "train", "--out", str(tmp_path / "o")], "data", "classes")
    assert not (tmp_path / "o" / "confusion.csv").exists()


@pytest.mark.parametrize("stored", [True, False], ids=["class-names", "no-class-names-key"])
def test_eval_checks_the_models_class_names(tmp_path, capsys, stored):
    """A model refuses a dataset whose class names differ from its own, even in
    the same number; a model.json without class_names is checked by count alone."""
    ds = tmp_path / "data"
    assert main(synth_args(ds, per_class=4)) == 0
    model_dir = tmp_path / "model"
    assert main(["train", "--data", str(ds), "--paradigm", "single-a", "--out", str(model_dir),
                 "--epochs", "0", "--quiet"]) == 0
    meta = json.loads((model_dir / "model.json").read_text())
    assert meta["class_names"] == list(data.CLASS_NAMES)
    renamed = tmp_path / "renamed"
    shutil.copytree(ds, renamed)
    manifest = renamed / data.MANIFEST_NAME
    manifest.write_text(manifest.read_text().replace('"vegetation"', '"forest"'))
    argv = ["eval", "--data", str(renamed), "--model", str(model_dir), "--split", "train",
            "--out", str(tmp_path / "o"), "--quiet"]
    if stored:
        assert_one_error(capsys, argv, "data", str(model_dir), str(list(data.CLASS_NAMES)),
                         str(["city", "coastline", "lake", "river", "forest"]))
        assert not (tmp_path / "o").exists()
    else:
        del meta["class_names"]
        (model_dir / "model.json").write_text(json.dumps(meta))
        assert main(argv) == 0


def saved_model_dir(tmp_path):
    model_dir = tmp_path / "model"
    model = fusion.build_model("single-a", 16, 16, 2, 3, 5, seed=0, conv_channels=(2,), dense_units=4)
    fusion.save_model(model_dir, model)
    return model_dir


def one_layer_fnet(kind, cfg, nparams=0):
    """A sequential .fnet header holding one layer of `kind` with config `cfg`."""
    return b"".join([
        nn.NET_MAGIC,
        struct.pack("<HHB", nn.NET_VERSION, 0, 0),
        struct.pack("<IBB", 1, nn._KIND_TAGS[kind], len(cfg)),
        struct.pack(f"<{len(cfg)}I", *cfg),
        struct.pack("<B", nparams),
    ])


def eval_is_one_data_error(model_dir, tmp_path, capsys, *texts):
    """eval exits 3 with one error[data] line, raised by the model (it is loaded before the data)."""
    argv = ["eval", "--data", str(tmp_path / "data"), "--model", str(model_dir), "--out", str(tmp_path / "o")]
    assert_one_error(capsys, argv, "data", str(model_dir), *texts)


def test_eval_fnet_wrong_config_count_is_data_error(tmp_path, capsys):
    model_dir = saved_model_dir(tmp_path)
    (model_dir / "net_0.fnet").write_bytes(one_layer_fnet("conv", (3, 2)))
    eval_is_one_data_error(model_dir, tmp_path, capsys)


def test_eval_fnet_huge_layer_header_allocates_nothing(tmp_path, capsys):
    model_dir = saved_model_dir(tmp_path)
    (model_dir / "net_0.fnet").write_bytes(one_layer_fnet("dense", (40000, 40000), nparams=2) + b"\x02\x40\x9c")
    tracemalloc.start()
    try:
        eval_is_one_data_error(model_dir, tmp_path, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6  # the layer's 6.4 GB of weights is never allocated


@pytest.mark.parametrize(
    "key, value",
    [("n_classes", None), ("paradigm", None), ("checkpoints", None), ("chip_shape_b", None),
     ("n_classes", "five"), ("chip_shape_a", [16, 16]), ("checkpoints", "net_0.fnet"),
     ("paradigm", "late-mean"), ("alpha", [1, 0, 1, 0, 2]), ("input_stats", [0.0, 1.0]),
     ("input_stats", {"mean_a": [0, 0], "std_a": [1, 1], "mean_b": [0, 0, 0]}),
     ("input_stats", {"mean_a": [0, 0], "std_a": [1, 0], "mean_b": [0, 0, 0], "std_b": [1, 1, 1]}),
     ("input_stats", {"mean_a": [0], "std_a": [1], "mean_b": [0, 0, 0], "std_b": [1, 1, 1]}),
     ("class_names", "city"), ("class_names", ["city", "lake"]), ("class_names", [1, 2, 3, 4, 5]),
     ("chip_shape_a", [2**20, 2**20, 2]), ("chip_shape_a", [10**30, 4, 2]), ("chip_shape_a", [2**31, 2**31, 2]),
     ("chip_shape_b", [32, 32, 3])],
)
def test_eval_bad_model_json_is_data_error(tmp_path, capsys, key, value):
    model_dir = saved_model_dir(tmp_path)
    meta = json.loads((model_dir / "model.json").read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    (model_dir / "model.json").write_text(json.dumps(meta))
    tracemalloc.start()
    try:
        eval_is_one_data_error(model_dir, tmp_path, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the networks are checked on a batch of no chips, whatever size model.json claims


@pytest.mark.parametrize(
    "paradigm, donor, donor_classes, texts",
    [pytest.param("single-a", "single-a", 4, ("5 classes", "gives 4"), id="class-count"),
     pytest.param("joint", "single-a", 5, ("takes 1 input(s), got 2",), id="joint-one-branch"),
     pytest.param("single-b", "joint", 5, ("takes 2 input(s), got 1",), id="single-two-branches"),
     pytest.param("single-a", "single-b", 5, ("Conv(3->2) got input (0, 16, 16, 2)",), id="a-channels"),
     pytest.param("early", "single-b", 5, ("Conv(3->2) got input (0, 16, 16, 5)",), id="ab-channels")],
)
def test_eval_checkpoint_unlike_its_paradigm_is_data_error(tmp_path, capsys, paradigm, donor, donor_classes, texts):
    model_dir = tmp_path / "model"
    kw = dict(seed=0, conv_channels=(2,), dense_units=4)
    fusion.save_model(model_dir, fusion.build_model(paradigm, 16, 16, 2, 3, 5, **kw))
    nn.save_network(model_dir / "net_0.fnet", fusion.build_model(donor, 16, 16, 2, 3, donor_classes, **kw).nets[0])
    eval_is_one_data_error(model_dir, tmp_path, capsys, str(model_dir / "net_0.fnet"), *texts)


def test_eval_first_dense_unlike_the_chip_size_is_data_error(tmp_path, capsys):
    model_dir = saved_model_dir(tmp_path)  # built for 16x16 chips
    meta = json.loads((model_dir / "model.json").read_text())
    meta["chip_shape_a"], meta["chip_shape_b"] = [32, 32, 2], [32, 32, 3]
    (model_dir / "model.json").write_text(json.dumps(meta))
    assert main(synth_args(tmp_path / "data", per_class=4, size=32)) == 0
    eval_is_one_data_error(model_dir, tmp_path, capsys, str(model_dir / "net_0.fnet"),
                           "Dense(128->4) got input (0, 512)")


@pytest.mark.parametrize(
    "index, layer, text",
    [pytest.param(3, nn.Conv(3, 3, 4), "Conv(3->4) got input (0, 8, 8, 2)", id="second-conv-cin"),
     pytest.param(9, nn.Dense(8, 5), "Dense(8->5) got input (0, 4)", id="second-dense-nin")],
)
def test_eval_layers_that_do_not_chain_are_data_error_before_any_chip(tmp_path, capsys, monkeypatch, index,
                                                                       layer, text):
    """Every layer of a checkpoint must read what the layer before it gives, not only the first and last."""
    assert main(synth_args(tmp_path / "data", per_class=4)) == 0
    model_dir = tmp_path / "model"
    model = fusion.build_model("single-a", 16, 16, 2, 3, 5, seed=0, conv_channels=(2, 4), dense_units=4)
    fusion.save_model(model_dir, model)
    layers = model.nets[0].branches[0]
    assert type(layers[index]) is type(layer)
    layers[index] = layer
    nn.save_network(model_dir / "net_0.fnet", nn.Network(layers))

    def no_chip(path):
        raise AssertionError(f"read chip {path}")

    monkeypatch.setattr(data, "load_chip", no_chip)
    argv = ["eval", "--data", str(tmp_path / "data"), "--model", str(model_dir), "--split", "train",
            "--out", str(tmp_path / "o")]
    assert_one_error(capsys, argv, "data", str(model_dir / "net_0.fnet"), text)
    assert not (tmp_path / "o").exists()


def test_eval_late_weighted_model_without_weights_is_data_error_before_any_chip(tmp_path, capsys, monkeypatch):
    assert main(synth_args(tmp_path / "data", per_class=4)) == 0
    single_a, single_b = (fusion.build_model(p, 16, 16, 2, 3, 5, seed=0, conv_channels=(2, 4), dense_units=4)
                          for p in ("single-a", "single-b"))
    model_dir = tmp_path / "model"
    fusion.save_model(model_dir, fusion.late_model("late-weighted", single_a, single_b))

    def no_chip(path):
        raise AssertionError(f"read chip {path}")

    monkeypatch.setattr(data, "load_chip", no_chip)
    argv = ["eval", "--data", str(tmp_path / "data"), "--model", str(model_dir), "--split", "train",
            "--out", str(tmp_path / "o")]
    assert_one_error(capsys, argv, "data", str(model_dir / "model.json"), "alpha or beta is null")
    assert not (tmp_path / "o").exists()


def test_eval_chips_unlike_the_model_are_one_data_error(tmp_path, capsys):
    assert main(synth_args(tmp_path / "data", per_class=4, size=32)) == 0
    argv = ["eval", "--data", str(tmp_path / "data"), "--model", str(saved_model_dir(tmp_path)),
            "--split", "train", "--out", str(tmp_path / "o")]
    assert_one_error(capsys, argv, "data", "(32, 32, 2)", "(16, 16, 2)")
    assert not (tmp_path / "o").exists()


NON_FINITE = ["nan", "inf", "-inf"]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("param", [-1, 0], ids=["last-dense-bias", "first-conv-weight"])
def test_eval_non_finite_checkpoint_is_data_error(tmp_path, capsys, param, value):
    model_dir = saved_model_dir(tmp_path)
    model = fusion.load_model(model_dir)
    nn.parameters(model.nets[0])[param].flat[0] = float(value)
    fusion.save_model(model_dir, model)
    eval_is_one_data_error(model_dir, tmp_path, capsys, "net_0.fnet", "non-finite")
    assert not (tmp_path / "o" / "confusion.csv").exists()


def corrupted_dataset_args(command, tmp_path, corrupt):
    """argv of `command` on a synthetic dataset whose last B chip `corrupt` rewrites; and that chip's path."""
    ds = tmp_path / "d"
    assert main(synth_args(ds, per_class=4)) == 0
    chip = ds / json.loads((ds / "manifest.jsonl").read_text().splitlines()[-1])["chip_b"]
    data.save_chip(chip, corrupt(data.load_chip(chip)))
    out = str(tmp_path / "o")
    if command == "train":
        return ["train", "--data", str(ds), "--paradigm", "single-a", "--out", out, "--epochs", "1"], chip
    return ["eval", "--data", str(ds), "--model", str(saved_model_dir(tmp_path)), "--split", "train", "--out", out], chip


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_chip_is_one_data_error(tmp_path, capsys, command, value):
    def corrupt(chip):
        chip[1, 2, 0] = float(value)
        return chip

    argv, chip = corrupted_dataset_args(command, tmp_path, corrupt)
    assert_one_error(capsys, argv, "data", str(chip), "non-finite")


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_zero_extent_chip_is_one_data_error(tmp_path, capsys, axis):
    argv, chip = corrupted_dataset_args("train", tmp_path, lambda c: c.take(range(0), axis=axis))
    assert_one_error(capsys, argv, "data", str(chip), "holds no value")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_odd_chip_shape_is_one_data_error(tmp_path, capsys, command):
    argv, chip = corrupted_dataset_args(command, tmp_path, lambda c: np.ones((*c.shape[:2], 4), np.float32))
    assert_one_error(capsys, argv, "data", str(chip), "(16, 16, 4)")


@pytest.mark.parametrize(
    "command",
    [["train", "--paradigm", "single-b"], ["train", "--paradigm", "joint"], ["train", "--paradigm", "late-mean"],
     ["compare"], ["eval", "--split", "train"]],
    ids=lambda c: "-".join(c[:3:2]),
)
def test_b_chips_unlike_a_chips_in_size_are_one_data_error(tmp_path, capsys, monkeypatch, command):
    for method in ("forward_batch", "infer"):  # the sizes are checked before any network runs
        monkeypatch.setattr(nn.Network, method, no_forward)
    ds = tmp_path / "d"
    assert main(synth_args(ds, per_class=4)) == 0
    records = [json.loads(line) for line in (ds / "manifest.jsonl").read_text().splitlines()]
    for rec in records:  # every B chip cropped to 8x8 of the 16x16 A chips
        data.save_chip(ds / rec["chip_b"], data.load_chip(ds / rec["chip_b"])[:8, :8])
    out = tmp_path / "o"
    argv = [*command, "--data", str(ds), "--out", str(out), "--epochs", "1", "--quiet"]
    if command[0] == "eval":
        argv = [*command, "--data", str(ds), "--model", str(saved_model_dir(tmp_path)), "--out", str(out)]
    assert_one_error(capsys, argv, "data", str(ds / records[0]["chip_b"]), str(ds / records[0]["chip_a"]),
                     "(8, 8)", "(16, 16)")
    assert not out.exists() or not any(out.iterdir())


@pytest.fixture(scope="module")
def uneven_models(tmp_path_factory):
    """A dataset whose splits (100/10/5 rows) end in part-filled eval batches, and a model per paradigm."""
    root = tmp_path_factory.mktemp("uneven")
    ds = root / "data"
    assert main(synth_args(ds, per_class=23)) == 0
    models = {p: root / p for p in ("single-a", "joint", "late-weighted")}
    for paradigm, model_dir in models.items():
        assert main(["train", "--data", str(ds), "--paradigm", paradigm, "--out", str(model_dir),
                     "--epochs", "1", "--quiet"]) == 0
    return ds, models


@pytest.mark.parametrize("augment", ["true", "false"])
@pytest.mark.parametrize("split", data.SPLITS)
@pytest.mark.parametrize("paradigm", ["single-a", "joint", "late-weighted"])
def test_streamed_eval_scores_the_loaded_split(uneven_models, tmp_path, paradigm, split, augment):
    ds, models = uneven_models
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(ds), "--model", str(models[paradigm]), "--split", split,
                 "--augment-eval", augment, "--out", str(out), "--quiet"]) == 0
    loaded = data.load_dataset(ds)
    samples = getattr(data.augment(loaded) if split == "train" or augment == "true" else loaded, split)
    cm = training.confusion(fusion.load_model(models[paradigm]), [samples], loaded.class_names)
    expected = tmp_path / "expected"
    expected.mkdir()
    cli._write_eval_files(expected, paradigm, cm, ev.metrics_from_cm(cm))
    for name in ("confusion.csv", "metrics.csv"):
        assert (out / name).read_text() == (expected / name).read_text(), name


@pytest.mark.parametrize("bad_split", ["train", "test"])
def test_eval_bad_chip_in_an_unscored_split_is_one_data_error(tmp_path, capsys, bad_split):
    """eval reads every record's chips; the test records come last, after every val batch is predicted."""
    ds = tmp_path / "d"
    assert main(synth_args(ds, per_class=23)) == 0
    records = [json.loads(line) for line in (ds / "manifest.jsonl").read_text().splitlines()]
    chip = ds / [r for r in records if r["split"] == bad_split][-1]["chip_a"]
    chip.write_bytes(chip.read_bytes()[:-4])
    out = tmp_path / "o"
    argv = ["eval", "--data", str(ds), "--model", str(saved_model_dir(tmp_path)), "--split", "val", "--out", str(out)]
    assert_one_error(capsys, argv, "data", str(chip), "truncated payload")
    assert not (out / "confusion.csv").exists()


MALFORMED_RECORDS = {
    "not-an-object": lambda rec: [1, 2],
    "class-not-a-string": lambda rec: {**rec, "class": ["city"]},
}


@pytest.mark.parametrize("record", MALFORMED_RECORDS)
@pytest.mark.parametrize("command", ["train", "eval", "dataset split"])
def test_malformed_manifest_record_is_one_data_error(tmp_path, capsys, command, record):
    ds = tmp_path / "d"
    assert main(synth_args(ds, per_class=4)) == 0
    manifest = ds / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    lines[1] = json.dumps(MALFORMED_RECORDS[record](json.loads(lines[1])))
    manifest.write_text("\n".join(lines) + "\n")
    out = ["--out", str(tmp_path / "o")]
    argv = {
        "train": ["train", "--paradigm", "single-a", "--epochs", "1", *out],
        "eval": ["eval", "--model", str(saved_model_dir(tmp_path)), *out],
        "dataset split": ["dataset", "split"],  # rewrites --data in place: no --out
    }[command]
    assert_one_error(capsys, [*argv, "--data", str(ds), "--quiet"], "data", f"{manifest}:2:")


# --- weights derive -----------------------------------------------------------------


def test_weights_derive_reproduces_reference(tmp_path, capsys):
    cm_a = tmp_path / "cm_a.csv"
    cm_b = tmp_path / "cm_b.csv"
    cm_a.write_text(ev.confusion_csv_text(confusion_from_fractions(REFERENCE_CONFUSION["single-a"], 1000, CLASS_NAMES)))
    cm_b.write_text(ev.confusion_csv_text(confusion_from_fractions(REFERENCE_CONFUSION["single-b"], 1000, CLASS_NAMES)))
    out = tmp_path / "w"
    assert main(["weights", "derive", "--cm-a", str(cm_a), "--cm-b", str(cm_b), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed["alpha"] == REFERENCE_ALPHA
    assert printed["beta"] == REFERENCE_BETA
    saved = json.loads((out / "fusion_weights.json").read_text())
    assert saved == printed


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-3", "1e300"])
def test_weights_derive_bad_confusion_cell_is_data_error(tmp_path, capsys, cell):
    cm = confusion_from_fractions(REFERENCE_CONFUSION["single-a"], 1000, CLASS_NAMES)
    lines = ev.confusion_csv_text(cm).splitlines()
    fields = lines[3].split(",")
    fields[2] = cell
    lines[3] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    good = tmp_path / "good.csv"
    good.write_text(ev.confusion_csv_text(cm))
    out = assert_one_error(capsys, ["weights", "derive", "--cm-a", str(bad), "--cm-b", str(good)], "data",
                           f"error[data]: {bad}:4:", repr(cell))
    assert out == ""



def test_weights_derive_fractions_and_counts_agree(tmp_path, capsys):
    """Fractions keep every decimal place they are written with, so the A and B
    recalls of class x (0.9994 and 0.9991) do not both round to 0.999."""
    printed = {}
    for kind, rows in {"fractions": ("0.9994,0.0006", "0.9991,0.0009"), "counts": ("9994,6", "9991,9")}.items():
        paths = []
        for name, row in zip("ab", rows):
            path = tmp_path / f"{kind}-{name}.csv"
            path.write_text(f"class,x,y\nx,{row}\ny,0,1\n")
            paths.append(str(path))
        capsys.readouterr()
        assert main(["weights", "derive", "--cm-a", paths[0], "--cm-b", paths[1]]) == 0
        printed[kind] = json.loads(capsys.readouterr().out)
    assert printed["fractions"] == printed["counts"] == {"alpha": [1.0, 0.0], "beta": [0.0, 1.0]}


@pytest.mark.parametrize("table_b", ["class,lake,city\nlake,9,1\ncity,5,5\n",
                                     "class,city,lake,river\ncity,5,5,0\nlake,1,9,0\nriver,0,0,1\n"],
                         ids=["reordered", "another-count"])
def test_weights_derive_refuses_tables_of_other_classes(tmp_path, capsys, table_b):
    """Recalls pair up by position: reordered, city's 0.9 in A met lake's 0.9 in B."""
    cm_a, cm_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cm_a.write_text("class,city,lake\ncity,9,1\nlake,2,8\n")
    cm_b.write_text(table_b)
    names_b = table_b.splitlines()[0].split(",")[1:]
    out = assert_one_error(capsys, ["weights", "derive", "--cm-a", str(cm_a), "--cm-b", str(cm_b)], "data",
                           f"{cm_a} has classes ['city', 'lake'], {cm_b} has {names_b}")
    assert out == ""


# --- compare -----------------------------------------------------------------------


def test_compare_from_tables_reproduces_verdict(tmp_path, capsys):
    csv_path = write_reference_metrics_csv(tmp_path / "tables.csv")
    out = tmp_path / "cmp"
    assert main(["compare", "--from-tables", str(csv_path), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "verdict: late-weighted"
    assert (out / "report.csv").exists()
    assert (out / "report.md").exists()
    assert (out / "report.svg").exists()
    md = (out / "report.md").read_text()
    assert "Selected paradigm: late-weighted" in md


def test_compare_from_tables_refuses_blocks_of_other_classes(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--from-tables", str(write_reference_metrics_csv(tmp_path / "tables.csv")),
                 "--out", str(out), "--quiet"]) == 0
    cut = tmp_path / "cut.csv"
    cut.write_text("".join((out / "report.csv").read_text().splitlines(keepends=True)[:-2]))
    last = list(ev.parse_metrics_csv(out / "report.csv"))[-1]  # the block the cut leaves 3 of 5 classes
    assert_one_error(capsys, ["compare", "--from-tables", str(cut), "--out", str(tmp_path / "o")], "data",
                     f"{last} has classes {list(CLASS_NAMES[:3])}")


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-0.1", "1.5"])
def test_compare_from_tables_bad_metric_cell_is_data_error(tmp_path, capsys, cell):
    lines = write_reference_metrics_csv(tmp_path / "tables.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[-1] = cell
    lines[3] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cmp"
    printed = assert_one_error(capsys, ["compare", "--from-tables", str(bad), "--out", str(out)], "data",
                               f"error[data]: {bad}:4:", repr(cell))
    assert printed == ""
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--epochs", "1"), ("--batch-size", "4"),
                                         ("--learning-rate", "0.1"), ("--optimizer", "sgd"),
                                         ("--augment-eval", "false")])
def test_compare_from_tables_refuses_training_flags(tmp_path, capsys, flag, value):
    csv_path = write_reference_metrics_csv(tmp_path / "tables.csv")
    out = tmp_path / "cmp"
    assert_one_error(capsys, ["compare", "--from-tables", str(csv_path), "--out", str(out), flag, value],
                     "usage", flag, "--from-tables")
    assert not out.exists()


def test_compare_from_tables_records_no_training_setting(tmp_path):
    csv_path = write_reference_metrics_csv(tmp_path / "tables.csv")
    out = tmp_path / "cmp"
    assert main(["compare", "--from-tables", str(csv_path), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "run-config.json").read_text()) == {"out": str(out), "quiet": True}


def test_compare_needs_data_or_tables(tmp_path, capsys):
    assert main(["compare", "--out", str(tmp_path / "x")]) == 2
    assert "error[usage]" in capsys.readouterr().err


# --- command line ----------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]


def malformed_argv(tmp_path):
    d, o = str(tmp_path / "d"), str(tmp_path / "o")
    cm = ["--cm-a", str(tmp_path / "a.csv"), "--cm-b", str(tmp_path / "b.csv")]
    return {  # name -> (argv, texts the error line must hold)
        "train-without-data": (["train", "--paradigm", "early", "--out", o], ["fuselab train", "--data"]),
        "unknown-flag": (["train", "--data", d, "--paradigm", "early", "--out", o, "--nope"], ["--nope"]),
        "bad-split": (["eval", "--data", d, "--model", d, "--out", o, "--split", "nope"], ["--split", "'nope'"]),
        "compare-both-inputs": (["compare", "--data", d, "--from-tables", d, "--out", o],
                                ["--data", "--from-tables"]),
        "compare-no-input": (["compare", "--out", o], ["--data", "--from-tables"]),
        # flags that changed nothing but run-config.json (dataset split --out: its own test)
        "eval-seed": (["eval", "--data", d, "--model", d, "--out", o, "--seed", "1"], ["--seed"]),
        "weights-derive-seed": (["weights", "derive", *cm, "--seed", "1"], ["--seed"]),
        "weights-derive-quiet": (["weights", "derive", *cm, "--quiet"], ["--quiet"]),
    }


@pytest.mark.parametrize("case", malformed_argv(Path("tmp")))
def test_malformed_command_line_is_one_usage_error(tmp_path, capsys, case):
    argv, texts = malformed_argv(tmp_path)[case]
    assert_one_error(capsys, argv, "usage", *texts)
    assert not any(tmp_path.iterdir())


def test_help_exits_zero(capsys):
    assert main(["train", "--help"]) == 0
    assert "--paradigm" in capsys.readouterr().out


@pytest.fixture(scope="module")
def error_inputs(tmp_path_factory):
    """ds: a 16x16 dataset of 10 rows a class, so each class has one val row and no test row;
    model and lw: a single-a and a late-weighted model of it, trained for no epoch; ev: model's eval files."""
    t = tmp_path_factory.mktemp("errors")
    assert main(synth_args(t / "ds", per_class=10)) == 0
    for paradigm, out in (("single-a", "model"), ("late-weighted", "lw")):
        assert main(["train", "--data", str(t / "ds"), "--paradigm", paradigm, "--epochs", "0",
                     "--out", str(t / out), "--quiet"]) == 0
    assert main(["eval", "--data", str(t / "ds"), "--model", str(t / "model"), "--out", str(t / "ev"), "--quiet"]) == 0
    return t


def edit_bytes(name, edit):
    """An edit of a copy t of error_inputs: the file t/name's bytes become edit(a bytearray of them)."""
    def apply(t):
        (t / name).write_bytes(bytes(edit(bytearray((t / name).read_bytes()))))
    return apply


def edit_line(name, index, edit):
    """An edit of a copy t of error_inputs: line `index` of the text file t/name becomes edit(that line)."""
    def apply(t):
        lines = (t / name).read_text().splitlines()
        lines[index] = edit(lines[index])
        (t / name).write_text("\n".join(lines) + "\n")
    return apply


def packed(fmt, offset, *values):
    """An edit of bytes that packs values as fmt at offset."""
    def apply(blob):
        struct.pack_into(fmt, blob, offset, *values)
        return blob
    return apply


def edit_json(name, **values):
    """An edit of a copy t of error_inputs: the JSON object in t/name takes the given values."""
    return edit_bytes(name, lambda b: json.dumps({**json.loads(b), **values}).encode())


def edit_input_stat(name, key, edit):
    """An edit of a copy t of error_inputs: input_stats[key] in the model.json t/name becomes edit(its list)."""
    def apply(blob):
        meta = json.loads(blob)
        meta["input_stats"][key] = edit(meta["input_stats"][key])
        return json.dumps(meta).encode()
    return edit_bytes(name, apply)


def first_late_input_stat(value):
    """An edit of a copy t of error_inputs: the first value of input_stats.mean_a in t/lw/model.json becomes value."""
    return edit_input_stat("lw/model.json", "mean_a", lambda values: [value, *values[1:]])


def edit_net(name, edit):
    """An edit of a copy t of error_inputs: edit(the layer list) of the one-branch network in the .fnet
    t/name, which is then saved back."""
    def apply(t):
        net = nn.load_network(t / name)
        edit(net.branches[0])
        nn.save_network(t / name, net)
    return apply


def edit_first_chips(edit):
    """An edit of a copy t of error_inputs: both chips of the manifest's first record become edit(their bytes)."""
    def apply(t):
        record = json.loads((t / MANIFEST).read_text().splitlines()[0])
        for key in ("chip_a", "chip_b"):
            edit_bytes(f"ds/{record[key]}", edit)(t)
    return apply


def edits(*each):
    """The edits of a copy t of error_inputs, in order."""
    def apply(t):
        for edit in each:
            edit(t)
    return apply


def synth(name, **kw):
    """An edit of a copy t of error_inputs that writes the dataset t/name (see synth_args)."""
    def apply(t):
        assert main(synth_args(t / name, **kw)) == 0
    return apply


def pool_after_flatten(layers):
    layers.insert([layer.kind for layer in layers].index("flatten") + 1, nn.MaxPool2())


def even_first_kernel(layers):
    layers[0] = nn.Conv(2, layers[0].cin, layers[0].cout)  # its parameters match its config


def fill_dense_weights(layers):
    for layer in layers:
        if layer.kind == "dense":
            layer.weights.fill(3e38)


def fill_first_conv_weights(layers):
    """Finite weights whose first Conv output overflows: 3e37 times a sum of 18 standardized values."""
    layers[0].weights.fill(3e37)


def conv_ended(layers):
    """Four pools down to 1x1 maps, then a Conv whose every output overflows, read by the softmax through ReLU and
    Flatten: no Dense gives the logits."""
    conv = nn.Conv(3, 2, 5)
    conv.weights.fill(3e38)
    layers[:] = [nn.MaxPool2() for _ in range(4)] + [conv, nn.ReLU(), nn.Flatten(), nn.Softmax()]


def overflow_last_dense(layers):
    """Finite parameters whose last Dense output overflows: its inputs are all 1 (the first Dense gives 1 before
    ReLU), their weighted sum is 2e38 and the bias adds 3e38."""
    first, last = [layer for layer in layers if layer.kind == "dense"]
    first.weights.fill(0)
    first.bias.fill(1)
    last.weights.fill(2e38 / last.nin)
    last.bias.fill(3e38)


CHIP, FNET, MANIFEST = "ds/chips/city-0000_a.fchp", "model/net_0.fnet", "ds/manifest.jsonl"
TRAIN = "train --data {t}/ds --paradigm single-a --epochs 0 --out {t}/o"
EVAL = "eval --data {t}/ds --model {t}/model --out {t}/o"
LATE_EVAL = "eval --data {t}/ds --model {t}/lw --out {t}/o"
DERIVE = "weights derive --cm-a {t}/ev/confusion.csv --cm-b {t}/ev/confusion.csv"
FROM_TABLES = "compare --from-tables {t}/ev/metrics.csv --out {t}/o"
# name -> (edit of a copy t of error_inputs or None, command with leading VAR=value settings of the environment,
# error kind, texts its line must hold). A .fnet holds magic (4 bytes), version and reserved (u16 each), network
# type (u8, offset 8), the layer count (u32), then the first layer's kind tag (u8, offset 13), config count (u8)
# and config values (u32 each, from offset 15).
TYPED_ERRORS = {
    "chip-header-truncated": (edit_bytes(CHIP, lambda b: b[:10]), TRAIN, "data",
                              ["city-0000_a.fchp: header truncated (10 bytes)"]),
    "chip-trailing-bytes": (edit_bytes(CHIP, lambda b: b + bytes(4)), TRAIN, "data",
                            ["city-0000_a.fchp: 4 trailing bytes after payload"]),
    "manifest-invalid-json": (edit_line("ds/manifest.jsonl", 1, lambda line: "{"), TRAIN, "data",
                              ["manifest.jsonl:2: invalid JSON record"]),
    "manifest-bad-split": (edit_line("ds/manifest.jsonl", 1, lambda line: line.replace('"split": "train"',
                                                                                      '"split": "dev"')),
                           TRAIN, "data", ["manifest.jsonl:2: bad split 'dev'"]),
    "synth-no-sample": (None, "dataset synth --out {t}/new --per-class 0", "usage", ["per_class must be >= 1"]),
    "fnet-unknown-layer-tag": (edit_bytes(FNET, packed("<B", 13, 99)), EVAL, "data",
                               ["net_0.fnet: unknown layer kind tag 99"]),
    "fnet-params-unlike-config": (edit_bytes(FNET, packed("<I", 15, 5)), EVAL, "data",
                                  ["net_0.fnet: layer conv(5, 2,", "expects params [(5, 5, 2,"]),
    "fnet-bad-magic": (edit_bytes(FNET, lambda b: b"NOPE" + b[4:]), EVAL, "data",
                       ["net_0.fnet: bad magic, not a network checkpoint"]),
    "fnet-unknown-network-type": (edit_bytes(FNET, packed("<B", 8, 7)), EVAL, "data",
                                  ["net_0.fnet: unknown network type 7"]),
    "fnet-trailing-bytes": (edit_bytes(FNET, lambda b: b + b"garbage" + b), EVAL, "data",
                            ["net_0.fnet: ", " trailing bytes after the last section"]),
    "metrics-row-field-count": (edit_line("ev/metrics.csv", -1, lambda line: line.rsplit(",", 1)[0]),
                                FROM_TABLES, "data", ["metrics.csv:6: expected", "fields, got"]),
    "confusion-no-class-header": (edit_line("ev/confusion.csv", 0, lambda line: line.replace("class", "truth", 1)),
                                  DERIVE, "data", ["confusion.csv: expected a 'class,<names...>' header"]),
    "confusion-row-width": (edit_line("ev/confusion.csv", 1, lambda line: line.rsplit(",", 1)[0]),
                            DERIVE, "data", ["confusion.csv:2: expected 6 fields, got 5"]),
    "confusion-not-square": (edit_line("ev/confusion.csv", -1, lambda line: f"{line}\n{line}"),
                             DERIVE, "data", ["confusion.csv: confusion table must be square"]),
    "no-out": (None, "train --data {t}/ds --paradigm single-a", "usage", ["--out is required"]),
    "eval-split-from-env": (None, "FUSELAB_SPLIT=bogus " + EVAL, "usage",
                            ["--split must be train, val or test, got 'bogus'"]),
    "eval-empty-split": (None, EVAL + " --split test", "data", ["split 'test' of", "is empty"]),
    "compare-one-block": (None, FROM_TABLES, "data", ["metrics.csv: need at least two paradigm blocks"]),
    "augment-eval-not-a-boolean": (None, EVAL + " --augment-eval maybe", "usage", ["not a boolean: 'maybe'"]),
    "two-fractions": (None, "dataset split --data {t}/ds --fractions 0.5,0.5", "usage",
                      ["fractions need three comma-separated values, got '0.5,0.5'"]),
    "config-line-without-equals": (None, TRAIN + " --config {t}/ev/confusion.csv", "usage",
                                   ["confusion.csv:1: expected key = value"]),
    "model-chip-shape-numpy-cannot-describe": (
        edit_bytes("model/model.json", lambda b: json.dumps({**json.loads(b), "chip_shape_a": [10**30, 10**30, 2],
                                                             "chip_shape_b": [10**30, 10**30, 3]}).encode()),
        EVAL, "data", ["model.json: chip shapes"]),
    # bytes that do not decode as text, in each data file read as text
    "manifest-undecodable": (edit_bytes("ds/manifest.jsonl", lambda b: b[:20] + b"\xff" + b[20:]), TRAIN, "data",
                             ["manifest.jsonl: undecodable text", "0xff"]),
    "metrics-undecodable": (edit_bytes("ev/metrics.csv", lambda b: b + b"\xff\n"), FROM_TABLES, "data",
                            ["metrics.csv: undecodable text", "0xff"]),
    "confusion-undecodable": (edit_bytes("ev/confusion.csv", lambda b: b + b"\xff\n"), DERIVE, "data",
                              ["confusion.csv: undecodable text", "0xff"]),
    "config-undecodable": (edit_bytes("ev/confusion.csv", lambda b: b + b"\xff\n"),
                           TRAIN + " --config {t}/ev/confusion.csv", "usage",
                           ["confusion.csv: undecodable text", "0xff"]),
    # JSON nested deeper than the parser recurses
    "manifest-deep-nesting": (edit_line("ds/manifest.jsonl", 1, lambda line: "[" * 200_000), TRAIN, "data",
                              ["manifest.jsonl:2: invalid JSON record", "recursion"]),
    "model-json-deep-nesting": (edit_bytes("model/model.json", lambda b: b"[" * 200_000), EVAL, "data",
                                ["model.json: not valid JSON", "recursion"]),
    "run-config-deep-nesting": (edit_bytes("ds/run-config.json", lambda b: b"[" * 200_000),
                                "dataset split --data {t}/ds", "data",
                                ["run-config.json: not valid JSON", "recursion"]),
    # settings
    "synth-no-class": (None, "dataset synth --out {t}/new --classes 0", "usage", ["classes must be >= 1, got 0"]),
    "synth-negative-classes": (None, "dataset synth --out {t}/new --classes -1", "usage",
                               ["classes must be >= 1, got -1"]),
    "fraction-of-0": (None, "dataset split --data {t}/ds --fractions 0.5,0.5,0", "usage",
                      ["fractions must be three values in (0,1), got (0.5, 0.5, 0.0)"]),
    "fractions-not-summing-to-1": (None, "dataset split --data {t}/ds --fractions 0.5,0.3,0.3", "usage",
                                   ["fractions must sum to 1, got (0.5, 0.3, 0.3)"]),
    "train-negative-epochs": (None, "train --data {t}/ds --paradigm single-a --epochs -1 --out {t}/o", "usage",
                              ["epochs must be >= 0, got -1"]),
    "train-batch-size-0": (None, TRAIN + " --batch-size 0", "usage", ["batch_size must be >= 1, got 0"]),
    "train-learning-rate-0": (None, TRAIN + " --learning-rate 0", "usage", ["learning_rate must be > 0, got 0.0"]),
    "train-optimizer-from-env": (None, "FUSELAB_OPTIMIZER=rmsprop " + TRAIN, "usage",
                                 ["optimizer must be one of ('sgd', 'adam'), got 'rmsprop'"]),
    "synth-negative-seed": (None, "dataset synth --out {t}/new --seed -1", "usage", ["--seed must be >= 0, got -1"]),
    "split-negative-seed-from-env": (None, "FUSELAB_SEED=-2 dataset split --data {t}/ds", "usage",
                                     ["--seed must be >= 0, got -2"]),
    "train-negative-seed": (None, TRAIN + " --seed -1", "usage", ["--seed must be >= 0, got -1"]),
    "compare-negative-seed-from-config": (lambda t: (t / "seed.toml").write_text("seed = -3\n"),
                                          "compare --data {t}/ds --out {t}/o --config {t}/seed.toml", "usage",
                                          ["--seed must be >= 0, got -3"]),
    # datasets
    "train-chips-too-small": (synth("small", per_class=10, size=4),
                              "train --data {t}/small --paradigm single-a --epochs 0 --out {t}/o", "data",
                              ["chips 4x4 too small for 3 pooling stages"]),
    "chip-bad-magic": (edit_bytes(CHIP, lambda b: b"NOPE" + b[4:]), EVAL, "data",
                       ["city-0000_a.fchp: bad magic, not a chip file"]),
    "chip-version-2": (edit_bytes(CHIP, packed("<H", 4, 2)), EVAL, "data",
                       ["city-0000_a.fchp: chip format version 2, expected 1"]),
    "chips-not-square": (edit_first_chips(packed("<II", 8, 32, 8)), EVAL, "data",  # W and H: same byte count
                         ["augmentation needs square chips, got 8x32"]),
    "no-manifest": (lambda t: (t / MANIFEST).unlink(), EVAL, "data", ["ds: no manifest.jsonl found"]),
    "manifest-record-missing-fields": (
        edit_line(MANIFEST, 1, lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "lat"})),
        EVAL, "data", ["manifest.jsonl:2: record missing fields ['lat']"]),
    "manifest-lat-not-a-number": (edit_line(MANIFEST, 1, lambda line: json.dumps({**json.loads(line), "lat": "N"})),
                                  EVAL, "data", ["manifest.jsonl:2: lat and lon must be numbers, got 'N' and "]),
    "model-without-class-names-on-other-classes": (
        edits(edit_json("model/model.json", class_names=None),
              edit_bytes(MANIFEST, lambda b: b.replace(b'"class": "vegetation"', b'"class": "city"'))),
        EVAL, "data", ["/model has 5 classes, dataset", "/ds has 4"]),
    # tables
    "metrics-bad-header": (edit_line("ev/metrics.csv", 0, lambda line: "a,b,c"), FROM_TABLES, "data",
                           ["metrics.csv: expected header paradigm,class,accuracy,precision,recall,f1"]),
    "confusion-counts-past-int64": (  # 13 decimal places: every cell is scaled by 10**13
        edit_line("ev/confusion.csv", 1, lambda line: line.rsplit(",", 1)[0] + ",999999.9999999999999"),
        DERIVE, "data", ["confusion.csv: counts (cells scaled by 10**13) sum past the int64 range"]),
    # models
    "model-weights-not-binary": (edit_json("lw/model.json", alpha=[0.5] * 5, beta=[0.5] * 5), LATE_EVAL, "data",
                                 ["model.json: fusion weights must be binary"]),
    "model-weights-not-complementary": (edit_json("lw/model.json", alpha=[1] * 5, beta=[1] * 5), LATE_EVAL, "data",
                                        ["model.json: fusion weights must be complementary"]),
    "model-weights-of-4-classes": (edit_json("lw/model.json", alpha=[1, 0, 1, 0], beta=[0, 1, 0, 1]), LATE_EVAL,
                                   "data", ["model.json: fusion weights must be length 5, got (4,) and (4,)"]),
    # numbers past float32's range, or past float64's (an integer float() cannot convert)
    "model-input-stat-past-float32": (first_late_input_stat(1e39), LATE_EVAL, "data",
                                      ["lw/model.json: input_stats.mean_a holds a number with no finite float32"]),
    "model-input-stat-past-float64": (first_late_input_stat(10**400), LATE_EVAL, "data",
                                      ["lw/model.json: input_stats.mean_a holds a number with no finite float32"]),
    "model-alpha-past-float64": (edit_json("lw/model.json", alpha=[10**400, 0, 0, 0, 0]), LATE_EVAL, "data",
                                 ["lw/model.json: alpha holds a number with no finite float32"]),
    "model-weights-on-single-a": (edit_json("model/model.json", alpha=[1, 0, 1, 0, 1], beta=[0, 1, 0, 1, 0]),
                                  EVAL, "data", ["model.json: a single-a model takes no fusion weights"]),
    "model-weights-on-late-mean": (edit_json("lw/model.json", paradigm="late-mean", beta=None), LATE_EVAL, "data",
                                   ["model.json: a late-mean model takes no fusion weights"]),
    "fnet-version-2": (edit_bytes(FNET, packed("<H", 4, 2)), EVAL, "data",
                       ["net_0.fnet: checkpoint version 2, expected 1"]),
    "fnet-even-kernel": (edit_net(FNET, even_first_kernel), EVAL, "data",
                         ["net_0.fnet: Conv kernel must be odd for same padding, got 2"]),
    "fnet-maxpool-after-flatten": (edit_net(FNET, pool_after_flatten), EVAL, "data",
                                   ["net_0.fnet: maxpool2 expects (N,H,W,C), got (0, "]),
    "fnet-without-softmax": (edit_net(FNET, list.pop), EVAL, "data",
                             ["model/net_0.fnet: the network must end in a softmax layer"]),
    "late-fnet-without-softmax": (edits(edit_json("lw/model.json", paradigm="late-mean", alpha=None, beta=None),
                                        edit_net("lw/net_0.fnet", list.pop)), LATE_EVAL, "data",
                                  ["lw/net_0.fnet: the network must end in a softmax layer"]),
    "fnet-softmax-after-conv": (edit_net(FNET, conv_ended), EVAL, "data",
                                ["model/net_0.fnet: the network must give its softmax a dense layer's output"]),
    "dense-weights-overflow": (edit_net(FNET, fill_dense_weights), EVAL, "numeric",
                               ["matmul produced non-finite values"]),
    "late-dense-bias-overflow": (edit_net("lw/net_0.fnet", overflow_last_dense), LATE_EVAL, "numeric",
                                 ["matmul produced non-finite values"]),
    "conv-weights-overflow": (edit_net(FNET, fill_first_conv_weights), EVAL, "numeric",
                              ["matmul produced non-finite values"]),
    # a positive float32 whose quotients overflow while the chips are standardized, before any GEMM
    "model-input-std-tiny": (edit_input_stat("model/model.json", "std_a", lambda values: [1e-40] * len(values)),
                             EVAL, "numeric", ["matmul produced non-finite values"]),
}


@pytest.mark.parametrize("case", TYPED_ERRORS)
def test_every_typed_error_is_one_line_and_its_exit_code(error_inputs, tmp_path, capsys, monkeypatch, case):
    """Each input the command line refuses gives its kind's exit code and one error[kind] line naming the fault."""
    for key in [k for k in os.environ if k.startswith("FUSELAB_")]:
        monkeypatch.delenv(key)
    t = tmp_path / "t"
    shutil.copytree(error_inputs, t)
    edit, command, kind, texts = TYPED_ERRORS[case]
    if edit is not None:
        edit(t)
    argv = command.format(t=t).split()
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    assert_one_error(capsys, argv, kind, *texts)


@pytest.fixture(scope="module")
def flip_inputs(error_inputs, tmp_path_factory):
    """A copy of error_inputs whose files a test may rewrite, if it restores them."""
    t = tmp_path_factory.mktemp("flips") / "t"
    shutil.copytree(error_inputs, t)
    return t


# Bit b of byte i is bit 8*i + b of a file. A chip's first value follows its 20-byte header, and its bit 30 is the
# exponent's top bit: the first value of CHIP, 0.72, becomes 2.5e38, finite, which standardizing takes past float32.
@given(name=st.sampled_from([CHIP, FNET]), bit=st.integers(0, 2**32))
@example(name=CHIP, bit=8 * 20 + 30)
@settings(max_examples=100, deadline=None)
def test_a_flipped_bit_is_scored_or_one_error_line(flip_inputs, name, bit):
    """eval of the train split (which holds CHIP's row) with one bit of a chip or of a single-a checkpoint flipped
    exits 0 and prints no error, or exits 3 or 4 with one error line; no warning is raised on the way."""
    path = flip_inputs / name
    blob = path.read_bytes()
    bit %= 8 * len(blob)
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(flipped)
    err = io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(EVAL.format(t=flip_inputs).split() + ["--split", "train", "--quiet"])
    finally:
        path.write_bytes(blob)
    lines = err.getvalue().splitlines()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 3, 4), lines
    assert lines == [] if code == 0 else len(lines) == 1 and lines[0].startswith("error["), lines


def test_readme_cli_lines_parse():
    block = (REPO / "README.md").read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("fuselab ")]
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line, comments=True)
        try:
            cli.build_parser().parse_args(argv[1:])
        except ValueError as exc:
            raise AssertionError(f"README line {line!r}: {exc}") from None


def command_parser(command: str) -> argparse.ArgumentParser:
    parser = cli.build_parser()
    for name in command.split():
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
    return parser


INPUT_DESTS = {"help", "config", "data", "model", "cm_a", "cm_b", "from_tables"}
SETTING_VALUES = {
    "seed": "1", "per_class": "2", "size": "8", "p": "1", "b": "1", "classes": "2", "fractions": "0.5,0.25,0.25",
    "stratified": "false", "paradigm": "single-a", "epochs": "1", "batch_size": "4", "learning_rate": "0.01",
    "optimizer": "sgd", "augment_eval": "false", "split": "train",
}


@pytest.fixture(scope="module")
def recorded_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("recorded")
    assert main(synth_args(root / "d", per_class=10)) == 0
    assert main(["train", "--data", str(root / "d"), "--paradigm", "single-a", "--out", str(root / "m"),
                 "--epochs", "0", "--quiet"]) == 0
    cm = str(root / "m-eval" / "confusion.csv")
    assert main(["eval", "--data", str(root / "d"), "--model", str(root / "m"), "--out", str(root / "m-eval"),
                 "--quiet"]) == 0
    return root, cm


@pytest.mark.parametrize("command", ["dataset synth", "dataset split", "train", "eval", "weights derive", "compare"])
def test_every_setting_flag_is_recorded(recorded_inputs, tmp_path, command):
    """Every flag but the input paths and --config is a setting, and run-config.json holds it."""
    root, cm = recorded_inputs
    data_dir = tmp_path / "d"
    shutil.copytree(root / "d", data_dir)  # dataset split rewrites it
    out = tmp_path / "out"
    argv = command.split() + {
        "dataset split": ["--data", str(data_dir)],
        "train": ["--data", str(data_dir)],
        "eval": ["--data", str(data_dir), "--model", str(root / "m")],
        "weights derive": ["--cm-a", cm, "--cm-b", cm],
        "compare": ["--data", str(data_dir)],
    }.get(command, [])
    settings = [a for a in command_parser(command)._actions if a.option_strings and a.dest not in INPUT_DESTS]
    for action in settings:
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(str(out) if action.dest == "out" else SETTING_VALUES[action.dest])
    assert main(argv) == 0
    record = json.loads(((out if "--out" in argv else data_dir) / "run-config.json").read_text())
    assert [a.option_strings[0] for a in settings if a.dest not in record] == []


def no_forward(self, inputs):
    """Network.forward_batch/infer that lets a batch of no samples through (building and
    loading a model run one) and fails on any batch that holds a sample."""
    if any(len(x) for x in nn._as_input_list(inputs)):
        raise AssertionError("a network ran forward")
    return self._forward(inputs, keep_cache=False)


@pytest.mark.parametrize("empty", ["val", "train"])
@pytest.mark.parametrize("command", [["compare"], ["train", "--paradigm", "late-weighted"]])
def test_empty_split_is_one_data_error(tmp_path, capsys, monkeypatch, command, empty):
    monkeypatch.setattr(nn.Network, "forward_batch", no_forward)  # the split is checked before any training
    ds = tmp_path / "d"
    assert main(synth_args(ds, per_class=4)) == 0  # so few samples that val and test are empty
    if empty == "train":
        manifest = ds / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace('"split": "train"', '"split": "val"'))
    assert data.load_dataset(ds).sizes() == ((20, 0, 0) if empty == "val" else (0, 20, 0))
    out = tmp_path / "o"
    assert_one_error(capsys, [*command, "--data", str(ds), "--out", str(out), "--epochs", "1", "--quiet"], "data", empty)
    assert not any((out / p).exists() for p in fusion.PARADIGMS)
    assert not (out / "model.json").exists()


def test_compare_training_runs_are_byte_identical(tmp_path):
    ds = tmp_path / "d"
    assert main(synth_args(ds, per_class=10, size=16)) == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(
            ["compare", "--data", str(ds), "--out", str(out), "--epochs", "1", "--seed", "3", "--quiet"]
        ) == 0
        outs.append(out)
    for rel in ["report.csv"] + [f"{p}/metrics.csv" for p in fusion.PARADIGMS] + [f"{p}/history.csv" for p in fusion.PARADIGMS]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


@pytest.fixture(scope="module")
def small_compare(tmp_path_factory):
    root = tmp_path_factory.mktemp("compare")
    assert main(synth_args(root / "d", per_class=10, size=16)) == 0
    assert main(["compare", "--data", str(root / "d"), "--out", str(root / "c"), "--epochs", "1",
                 "--seed", "2", "--quiet"]) == 0
    return root / "c"


def test_compare_late_models_reuse_the_single_networks(small_compare):
    for late in fusion.LATE_PARADIGMS:
        meta = json.loads((small_compare / late / "model.json").read_text())
        assert meta["checkpoints"] == ["net_0.fnet", "net_1.fnet"]
        for name, single in zip(meta["checkpoints"], ("single-a", "single-b")):
            assert (small_compare / late / name).read_bytes() == (small_compare / single / "net_0.fnet").read_bytes()


def test_compare_models_store_the_dataset_class_names(small_compare):
    for paradigm in fusion.PARADIGMS:
        meta = json.loads((small_compare / paradigm / "model.json").read_text())
        assert meta["class_names"] == list(data.CLASS_NAMES), paradigm


def test_compare_late_weights_match_weights_derive(small_compare, capsys):
    capsys.readouterr()
    assert main(["weights", "derive", "--cm-a", str(small_compare / "single-a" / "confusion.csv"),
                 "--cm-b", str(small_compare / "single-b" / "confusion.csv")]) == 0
    printed = json.loads(capsys.readouterr().out.strip())
    meta = json.loads((small_compare / "late-weighted" / "model.json").read_text())
    assert printed == {"alpha": meta["alpha"], "beta": meta["beta"]}


def test_compare_scores_equal_eval_of_saved_models(small_compare, tmp_path):
    for paradigm in fusion.PARADIGMS:
        out = tmp_path / paradigm
        assert main(["eval", "--data", str(small_compare.parent / "d"), "--model", str(small_compare / paradigm),
                     "--split", "val", "--out", str(out), "--quiet"]) == 0
        assert (out / "confusion.csv").read_bytes() == (small_compare / paradigm / "confusion.csv").read_bytes(), paradigm


@pytest.mark.parametrize("rate", ["1e30", "inf"])
def test_diverging_training_is_one_numeric_error(tiny_dataset_dir, tmp_path, capsys, recwarn, rate):
    assert_one_error(capsys, ["train", "--data", str(tiny_dataset_dir), "--paradigm", "single-a", "--out",
                              str(tmp_path / "m"), "--epochs", "1", "--learning-rate", rate],
                     "numeric", "at epoch 0, batch ", "(single-a network", "try a lower learning rate")
    assert [str(w.message) for w in recwarn] == []  # numpy's overflow warnings would print beside the error


@pytest.mark.parametrize("augment", ["true", "false"])
@pytest.mark.parametrize("size", [32, 64])
def test_eval_and_compare_decide_as_the_whole_split_is_predicted(tmp_path, monkeypatch, size, augment):
    """A float32 GEMM's rows depend on the batch they are predicted in. The decisions that eval
    streams and that compare scores must still be, bit for bit, those of
    train._model_predictions over the whole split."""
    scored, confusion_matrix = [], training.confusion_matrix  # every decision matrix that is scored
    monkeypatch.setattr(training, "confusion_matrix", lambda pred, *a: scored.append(pred) or confusion_matrix(pred, *a))
    ds, out = tmp_path / "d", tmp_path / "c"
    assert main(synth_args(ds, per_class=10, size=size, b=13)) == 0
    assert main(["dataset", "split", "--data", str(ds), "--fractions", "0.48,0.42,0.1", "--stratified", "false",
                 "--quiet"]) == 0  # 21 validation rows: most batchings end in a batch of 1 to 3 samples
    assert main(["compare", "--data", str(ds), "--out", str(out), "--epochs", "1", "--augment-eval", augment,
                 "--quiet"]) == 0
    val = data.augment(data.load_dataset(ds), augment == "true").val
    models = {paradigm: fusion.load_model(out / paradigm) for paradigm in fusion.PARADIGMS}
    whole = {paradigm: training._model_predictions(model, val).tobytes() for paradigm, model in models.items()}
    members = [training._model_predictions(m, val).tobytes() for m in fusion.late_members(models["late-weighted"])]
    assert [pred.tobytes() for pred in scored] == [*list(whole.values())[:-1], *members, whole["late-weighted"]]
    for paradigm in fusion.PARADIGMS:
        scored.clear()
        assert main(["eval", "--data", str(ds), "--model", str(out / paradigm), "--split", "val",
                     "--augment-eval", augment, "--out", str(tmp_path / paradigm), "--quiet"]) == 0
        assert [pred.tobytes() for pred in scored] == [whole[paradigm]], paradigm


@pytest.mark.parametrize("epochs", [0, 1])
def test_compare_predicts_validation_once_per_network_and_epoch(tmp_path, monkeypatch, epochs):
    """compare predicts the validation split with each network once per epoch, or once after 0
    epochs: the late paradigms aggregate single-a's and single-b's final predictions."""
    predicted, predict_batch = {}, fusion.predict_batch

    def counting(model, chips_a, chips_b, turns=1):
        nets = ("single-a", "single-b") if model.paradigm in fusion.LATE_PARADIGMS else (model.paradigm,)
        for net in nets:  # a late model predicts with single-a's and single-b's networks
            predicted[net] = predicted.get(net, 0) + len(chips_a if chips_a is not None else chips_b) * turns
        return predict_batch(model, chips_a, chips_b, turns)

    monkeypatch.setattr(fusion, "predict_batch", counting)
    ds = tmp_path / "d"
    assert main(synth_args(ds, per_class=10)) == 0
    n_val = len(data.augment(data.load_dataset(ds), True).val.truth())
    assert main(["compare", "--data", str(ds), "--out", str(tmp_path / "c"), "--epochs", str(epochs),
                 "--quiet"]) == 0
    assert predicted == {net: n_val * max(epochs, 1) for net in ("single-a", "single-b", "early", "joint")}


# --- config precedence -----------------------------------------------------------------


def test_env_overrides_default(tiny_dataset_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("FUSELAB_EPOCHS", "0")
    out = tmp_path / "model"
    assert main(["train", "--data", str(tiny_dataset_dir), "--paradigm", "single-a",
                 "--out", str(out), "--quiet"]) == 0
    record = json.loads((out / "run-config.json").read_text())
    assert record["epochs"] == 0
    assert (out / "history.csv").read_text().strip().splitlines() == [
        "epoch,train_loss,train_accuracy,val_loss,val_accuracy"
    ]


def test_flag_overrides_env(tiny_dataset_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("FUSELAB_EPOCHS", "7")
    out = tmp_path / "model"
    assert main(["train", "--data", str(tiny_dataset_dir), "--paradigm", "single-a",
                 "--out", str(out), "--epochs", "0", "--quiet"]) == 0
    assert json.loads((out / "run-config.json").read_text())["epochs"] == 0


def test_config_file_used_when_no_flag_or_env(tiny_dataset_dir, tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    (workdir / "fuselab.toml").write_text("epochs = 0\n# comment line\n")
    monkeypatch.chdir(workdir)
    out = tmp_path / "model"
    assert main(["train", "--data", str(tiny_dataset_dir), "--paradigm", "single-a",
                 "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "run-config.json").read_text())["epochs"] == 0


def test_env_beats_config_file(tiny_dataset_dir, tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    (workdir / "fuselab.toml").write_text("epochs = 5\n")
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("FUSELAB_EPOCHS", "0")
    out = tmp_path / "model"
    assert main(["train", "--data", str(tiny_dataset_dir), "--paradigm", "single-a",
                 "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "run-config.json").read_text())["epochs"] == 0


def test_run_config_has_no_timestamps(tiny_dataset_dir):
    record = json.loads((tiny_dataset_dir / "run-config.json").read_text())
    text = json.dumps(record)
    assert "time" not in text and "date" not in text


def test_load_and_augment_holds_each_chip_once(tmp_path):
    import argparse

    from fuselab import cli, config

    assert main(synth_args(tmp_path / "d", per_class=40, size=32)) == 0
    resolver = config.Resolver(argparse.Namespace())
    tracemalloc.start()
    try:
        dsplit = cli._load_and_augment(resolver, tmp_path / "d")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chip_bytes = sum(getattr(dsplit, name).chips_a.nbytes + getattr(dsplit, name).chips_b.nbytes
                     for name in data.SPLITS)
    assert chip_bytes == 200 * 32 * 32 * (2 + 3) * 4
    assert peak <= 1.1 * chip_bytes + 1e6, (peak, chip_bytes)


def test_eval_memory_does_not_grow_with_the_split(tmp_path, monkeypatch):
    """eval holds one batch of the split it scores, not the dataset: a 4x larger
    dataset may raise its traced peak by at most a quarter of the extra chip bytes."""
    def no_load(*args):
        raise AssertionError("eval loaded the whole dataset")

    monkeypatch.setattr(data, "load_dataset", no_load)
    model = tmp_path / "model"
    fusion.save_model(model, fusion.build_model("single-a", 16, 16, 2, 13, 5, seed=0, conv_channels=(2,), dense_units=4))
    peaks, chip_bytes = [], []
    for per_class in (10, 40):
        ds = tmp_path / f"d{per_class}"
        assert main(["dataset", "synth", "--out", str(ds), "--per-class", str(per_class), "--size", "16", "--quiet"]) == 0
        tracemalloc.start()
        try:
            assert main(["eval", "--data", str(ds), "--model", str(model), "--split", "train",
                         "--out", str(tmp_path / f"o{per_class}"), "--quiet"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        chip_bytes.append(5 * per_class * 16 * 16 * (2 + 13) * 4)
    assert peaks[1] - peaks[0] <= 0.25 * (chip_bytes[1] - chip_bytes[0]), (peaks, chip_bytes)


def test_eval_of_a_64x64_early_model_stays_within_32_mb(tmp_path):
    """eval's prediction batches are sized by the bytes their widest conv
    unfolds: at 64x64 an early network's first conv unfolds 2.1 MB per sample,
    so a 64-sample batch would take 141 MB of columns alone."""
    model = tmp_path / "model"
    fusion.save_model(model, fusion.build_model("early", 64, 64, 2, 13, 5, seed=0))
    ds = tmp_path / "data"
    assert main(synth_args(ds, per_class=4, size=64, b=13)) == 0
    tracemalloc.start()
    try:
        assert main(["eval", "--data", str(ds), "--model", str(model), "--split", "train",
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak
