import json
import struct
import tracemalloc

import numpy as np
import pytest

from fuselab import data, evaluation as ev, fusion, nn
from fuselab.cli import main

from reference_tables import (
    CLASS_NAMES,
    REFERENCE_ALPHA,
    REFERENCE_BETA,
    REFERENCE_CONFUSION,
    REFERENCE_METRICS,
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


def test_train_late_net_0_equals_single_a(tiny_dataset_dir, tmp_path):
    outs = {}
    for paradigm in ("single-a", "late-mean"):
        outs[paradigm] = tmp_path / paradigm
        assert main(
            ["train", "--data", str(tiny_dataset_dir), "--paradigm", paradigm,
             "--out", str(outs[paradigm]), "--epochs", "1", "--seed", "7", "--quiet"]
        ) == 0
    assert (outs["late-mean"] / "net_0.fnet").read_bytes() == (outs["single-a"] / "net_0.fnet").read_bytes()


def test_train_early_first_layer_spans_modalities(tiny_dataset_dir, tmp_path):
    out = tmp_path / "model"
    assert main(
        ["train", "--data", str(tiny_dataset_dir), "--paradigm", "early",
         "--out", str(out), "--epochs", "0", "--quiet"]
    ) == 0
    model = fusion.load_model(out)
    assert model.nets[0].layers[0].cin == 2 + 3


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


def test_train_unknown_paradigm_lists_options(tiny_dataset_dir, tmp_path, capsys):
    code = main(
        ["train", "--data", str(tiny_dataset_dir), "--paradigm", "middle", "--out", str(tmp_path / "m")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "single-a" in err and "late-weighted" in err


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
    capsys.readouterr()
    code = main(["eval", "--data", str(dirs[data_classes]), "--model", str(model_dir), "--split", "train",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error[data]:") and "classes" in err[0]
    assert not (tmp_path / "o" / "confusion.csv").exists()


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


def eval_is_one_data_error(model_dir, tmp_path, capsys):
    """eval exits 3 with one error[data] line, raised by the model (it is loaded before the data)."""
    code = main(["eval", "--data", str(tmp_path / "data"), "--model", str(model_dir), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip().splitlines()
    return code == 3 and len(err) == 1 and err[0].startswith("error[data]:") and str(model_dir) in err[0]


def test_eval_fnet_wrong_config_count_is_data_error(tmp_path, capsys):
    model_dir = saved_model_dir(tmp_path)
    (model_dir / "net_0.fnet").write_bytes(one_layer_fnet("conv", (3, 2)))
    assert eval_is_one_data_error(model_dir, tmp_path, capsys)


def test_eval_fnet_huge_layer_header_allocates_nothing(tmp_path, capsys):
    model_dir = saved_model_dir(tmp_path)
    (model_dir / "net_0.fnet").write_bytes(one_layer_fnet("dense", (40000, 40000), nparams=2) + b"\x02\x40\x9c")
    tracemalloc.start()
    try:
        assert eval_is_one_data_error(model_dir, tmp_path, capsys)
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
     ("input_stats", {"mean_a": [0], "std_a": [1], "mean_b": [0, 0, 0], "std_b": [1, 1, 1]})],
)
def test_eval_bad_model_json_is_data_error(tmp_path, capsys, key, value):
    model_dir = saved_model_dir(tmp_path)
    meta = json.loads((model_dir / "model.json").read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    (model_dir / "model.json").write_text(json.dumps(meta))
    assert eval_is_one_data_error(model_dir, tmp_path, capsys)


# --- weights derive -----------------------------------------------------------------


def test_weights_derive_reproduces_reference(tmp_path, capsys):
    cm_a = tmp_path / "cm_a.csv"
    cm_b = tmp_path / "cm_b.csv"
    cm_a.write_text(ev.confusion_csv_text(ev.confusion_from_fractions(REFERENCE_CONFUSION["single-a"], 1000, CLASS_NAMES)))
    cm_b.write_text(ev.confusion_csv_text(ev.confusion_from_fractions(REFERENCE_CONFUSION["single-b"], 1000, CLASS_NAMES)))
    out = tmp_path / "w"
    assert main(["weights", "derive", "--cm-a", str(cm_a), "--cm-b", str(cm_b), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed["alpha"] == REFERENCE_ALPHA
    assert printed["beta"] == REFERENCE_BETA
    saved = json.loads((out / "fusion_weights.json").read_text())
    assert saved == printed


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-3", "1e300"])
def test_weights_derive_bad_confusion_cell_is_data_error(tmp_path, capsys, cell):
    cm = ev.confusion_from_fractions(REFERENCE_CONFUSION["single-a"], 1000, CLASS_NAMES)
    lines = ev.confusion_csv_text(cm).splitlines()
    fields = lines[3].split(",")
    fields[2] = cell
    lines[3] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    good = tmp_path / "good.csv"
    good.write_text(ev.confusion_csv_text(cm))
    capsys.readouterr()
    assert main(["weights", "derive", "--cm-a", str(bad), "--cm-b", str(good)]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[data]: {bad}:4:") and repr(cell) in err[0]
    assert captured.out == ""


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


def test_compare_needs_data_or_tables(tmp_path, capsys):
    assert main(["compare", "--out", str(tmp_path / "x")]) == 2
    assert "error[usage]" in capsys.readouterr().err


def no_forward(self, inputs):
    raise AssertionError("a network ran forward")


@pytest.mark.parametrize("empty", ["val", "train"])
@pytest.mark.parametrize("command", [["compare"], ["train", "--paradigm", "late-weighted"]])
def test_empty_split_is_one_data_error(tmp_path, capsys, monkeypatch, command, empty):
    for cls in (nn.Network, nn.TwoBranchNetwork):  # the split is checked before any training
        monkeypatch.setattr(cls, "forward_batch", no_forward)
    ds = tmp_path / "d"
    assert main(synth_args(ds, per_class=4)) == 0  # so few samples that val and test are empty
    if empty == "train":
        manifest = ds / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace('"split": "train"', '"split": "val"'))
    assert data.load_dataset(ds).sizes() == ((20, 0, 0) if empty == "val" else (0, 20, 0))
    capsys.readouterr()
    out = tmp_path / "o"
    code = main([*command, "--data", str(ds), "--out", str(out), "--epochs", "1", "--quiet"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error[data]:") and empty in err[0]
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
