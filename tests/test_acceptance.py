"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end comparison
(criterion 7) trains all six paradigms on the default synthetic dataset, which
took 1.3-1.6 min on a 2-vCPU Xeon; everything else is fast.
"""

import time

import numpy as np
import pytest

from fuselab import data, evaluation as ev, fusion, nn
from fuselab.cli import main

from gradcheck import gradient_check
from reference_tables import (
    CLASS_NAMES,
    METRIC_TOLERANCE,
    REFERENCE_ALPHA,
    REFERENCE_AVG_F1,
    REFERENCE_BETA,
    REFERENCE_CONFUSION,
    REFERENCE_METRICS,
    SAMPLES_PER_CLASS,
    confusion_from_fractions,
)
from test_cli import write_reference_metrics_csv


def report_line(criterion, ok, detail=""):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    """Default-scale dataset synthesis plus one full `compare` run, shared by
    the criteria that inspect it."""
    root = tmp_path_factory.mktemp("acceptance")
    ds = root / "dataset"
    assert main(["dataset", "synth", "--out", str(ds), "--seed", "0", "--quiet"]) == 0
    out = root / "compare"
    t0 = time.perf_counter()
    code = main(["compare", "--data", str(ds), "--out", str(out), "--seed", "0", "--quiet"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return ds, out, elapsed


def test_c1_reference_metrics_reproduction():
    t0 = time.perf_counter()
    failures = []
    for name, frac in REFERENCE_CONFUSION.items():
        cm = confusion_from_fractions(frac, SAMPLES_PER_CLASS, CLASS_NAMES)
        table = ev.metrics_from_cm(cm)
        want = REFERENCE_METRICS[name]
        for i in range(len(CLASS_NAMES)):
            for metric, got in (("precision", table.precision[i]), ("recall", table.recall[i]), ("f1", table.f1[i])):
                if abs(got - want[metric][i]) > METRIC_TOLERANCE:
                    failures.append((name, metric, CLASS_NAMES[i], float(got), want[metric][i]))
        if abs(table.macro_f1 - REFERENCE_AVG_F1[name]) > METRIC_TOLERANCE:
            failures.append((name, "avg f1", "-", table.macro_f1, REFERENCE_AVG_F1[name]))
    # spot checks called out explicitly
    tables = {n: ev.metrics_from_cm(confusion_from_fractions(f, SAMPLES_PER_CLASS, CLASS_NAMES))
              for n, f in REFERENCE_CONFUSION.items()}
    spot = (
        abs(tables["single-b"].precision[0] - 0.97) <= METRIC_TOLERANCE
        and tables["single-a"].precision[4] == 1.0
        and abs(tables["joint"].precision[2] - 0.68) <= METRIC_TOLERANCE
    )
    elapsed = time.perf_counter() - t0
    ok = not failures and spot and elapsed < 1.0
    report_line(1, ok, f"90 metric cells + 6 averages within ±{METRIC_TOLERANCE} in {elapsed:.2f}s {failures[:3]}")


def test_c2_weight_derivation_reproduction():
    t0 = time.perf_counter()
    recall_a = np.diag(REFERENCE_CONFUSION["single-a"])
    recall_b = np.diag(REFERENCE_CONFUSION["single-b"])
    alpha, beta = fusion.derive_weights(recall_a, recall_b)
    elapsed = time.perf_counter() - t0
    ok = (
        np.array_equal(alpha, REFERENCE_ALPHA)
        and np.array_equal(beta, REFERENCE_BETA)
        and elapsed < 1.0
    )
    report_line(2, ok, f"alpha={alpha.tolist()} beta={beta.tolist()} in {elapsed:.3f}s")


def test_c3_selection_verdict_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    csv_path = write_reference_metrics_csv(tmp_path / "tables.csv")
    code = main(["compare", "--from-tables", str(csv_path), "--out", str(tmp_path / "cmp"), "--quiet"])
    verdict = capsys.readouterr().out.strip().splitlines()[-1]
    tables = ev.parse_metrics_csv(tmp_path / "cmp" / "report.csv")
    report = ev.compare_paradigms(tables)
    top, runner = report.ranking[0], report.ranking[1]
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and verdict == "verdict: late-weighted"
        and top.paradigm == "late-weighted"
        and runner.paradigm == "joint"
        and abs(top.macro_f1 - runner.macro_f1) <= ev.TIE_EPS
        and abs(top.min_f1 - 0.76) < 1e-9
        and abs(runner.min_f1 - 0.72) < 1e-9
        and elapsed < 1.0
    )
    report_line(3, ok, f"{verdict!r}, tie broken {top.min_f1:.2f} vs {runner.min_f1:.2f} in {elapsed:.2f}s")


def test_c4_dataset_arithmetic():
    t0 = time.perf_counter()
    samples = data.synth_generate(100, seed=0)
    ds = data.split(samples, seed=0)
    aug = data.augment(ds)
    elapsed = time.perf_counter() - t0
    ok = (
        len(samples) == 500
        and ds.sizes() == (425, 50, 25)
        and aug.sizes() == (1700, 200, 100)
        and elapsed < 30.0
    )
    report_line(4, ok, f"500 -> {ds.sizes()} -> {aug.sizes()} in {elapsed:.1f}s")


def test_c5_gradient_correctness_all_architectures():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    xa = rng.normal(size=(8, 8, 2)).astype(np.float32)
    xb = rng.normal(size=(8, 8, 3)).astype(np.float32)
    kw = dict(seed=17, conv_channels=(2, 3, 4), dense_units=8)
    worst = 0.0
    kinds_seen = set()
    for paradigm in fusion.PARADIGMS:
        model = fusion.build_model(paradigm, 8, 8, 2, 3, 5, **kw)
        for net, batch in zip(model.nets, fusion.network_inputs(model, xa[None], xb[None])):
            inputs = [x[0] for x in batch]
            kinds_seen.update(type(l).__name__ for l in net.all_layers())
            rep = gradient_check(net, inputs, 3, epsilon=1e-3, tolerance=1e-4)
            worst = max(worst, rep.max_rel_error)
    elapsed = time.perf_counter() - t0
    all_kinds = {"Conv", "MaxPool2", "Flatten", "Dense", "ReLU", "Softmax"}
    ok = worst < 1e-4 and kinds_seen >= all_kinds and elapsed < 120.0
    report_line(5, ok, f"max rel err {worst:.2e} over {len(fusion.PARADIGMS)} paradigms in {elapsed:.1f}s")


def test_c6_fusion_properties_exact():
    rng = np.random.default_rng(12345)
    select_ok = True
    argmax_ok = True
    for _ in range(1000):
        pa = rng.dirichlet(np.ones(5))
        pb = rng.dirichlet(np.ones(5))
        alpha = rng.integers(0, 2, size=5).astype(float)
        out = fusion.late_aggregate_weighted(pa, pb, alpha, 1.0 - alpha)
        select_ok &= np.array_equal(out, np.where(alpha == 1.0, pa, pb))
        argmax_ok &= int(np.argmax(fusion.late_aggregate_mean(pa, pb))) == int(np.argmax(pa + pb))
    net = fusion.build_model("single-a", 8, 8, 2, 3, 5, seed=5, conv_channels=(2, 3, 4), dense_units=8).nets[0]
    sums = [abs(net.infer(rng.normal(size=(8, 8, 2)).astype(np.float32)[None])[0].sum() - 1.0) for _ in range(20)]
    softmax_ok = max(sums) < 1e-6
    ok = select_ok and argmax_ok and softmax_ok
    report_line(6, ok, f"component-select exact, argmax(mean)==argmax(sum) x1000, softmax dev {max(sums):.1e}")


def test_c7_end_to_end_paradigm_ordering(compare_run):
    _, out, elapsed = compare_run
    tables = ev.parse_metrics_csv(out / "report.csv")
    recalls = {}
    for paradigm in fusion.PARADIGMS:
        cm = ev.parse_confusion_csv(out / paradigm / "confusion.csv")
        recalls[paradigm] = np.diag(cm.row_normalized)
    single_best = max(tables["single-a"].macro_f1, tables["single-b"].macro_f1)
    fusion_wins = {
        p: tables[p].macro_f1 > single_best for p in ("early", "joint", "late-mean", "late-weighted")
    }
    best_single_recall = np.maximum(recalls["single-a"], recalls["single-b"])
    recall_slack = recalls["late-weighted"] - (best_single_recall - 0.05)
    ok = all(fusion_wins.values()) and np.all(recall_slack >= 0) and elapsed < 15 * 60
    report_line(
        7,
        ok,
        f"fusion macroF1 {'/'.join(f'{tables[p].macro_f1:.3f}' for p in ('early', 'joint', 'late-mean', 'late-weighted'))} "
        f"vs best single {single_best:.3f}; min recall slack {recall_slack.min():+.3f}; compare took {elapsed / 60:.1f} min",
    )


def test_c8_compare_determinism(tmp_path):
    ds = tmp_path / "d"
    assert main(["dataset", "synth", "--out", str(ds), "--per-class", "10", "--size", "16",
                 "--b", "3", "--seed", "1", "--quiet"]) == 0
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["compare", "--data", str(ds), "--out", str(out), "--epochs", "1",
                     "--seed", "5", "--quiet"]) == 0
        blobs.append(
            {
                rel: (out / rel).read_bytes()
                for rel in ["report.csv"]
                + [f"{p}/metrics.csv" for p in fusion.PARADIGMS]
                + [f"{p}/confusion.csv" for p in fusion.PARADIGMS]
                + [f"{p}/history.csv" for p in fusion.PARADIGMS]
            }
        )
    same = {rel for rel in blobs[0] if blobs[0][rel] == blobs[1][rel]}
    ok = same == set(blobs[0])
    report_line(8, ok, f"{len(same)}/{len(blobs[0])} CSV artifacts byte-identical across reruns")


def test_c9_round_trips(tmp_path):
    rng = np.random.default_rng(31)
    # chips: bit-exact
    chip = rng.normal(size=(9, 7, 4)).astype(np.float32)
    data.save_chip(tmp_path / "c.fchp", chip)
    chip_ok = np.array_equal(data.load_chip(tmp_path / "c.fchp"), chip)
    # checkpoints: identical predictions
    model = fusion.build_model("joint", 8, 8, 2, 3, 5, seed=6, conv_channels=(2, 3, 4), dense_units=8)
    xa = rng.normal(size=(2, 8, 8, 2)).astype(np.float32)
    xb = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
    before = fusion.predict_batch(model, xa, xb)
    fusion.save_model(tmp_path / "model", model)
    after = fusion.predict_batch(fusion.load_model(tmp_path / "model"), xa, xb)
    ckpt_ok = np.array_equal(before, after)
    # report CSV: re-parse identity
    tables = {
        name: ev.metrics_from_cm(confusion_from_fractions(frac, SAMPLES_PER_CLASS, CLASS_NAMES))
        for name, frac in REFERENCE_CONFUSION.items()
    }
    report = ev.compare_paradigms(tables)
    path = ev.emit_report(report, "csv", tmp_path / "report.csv")
    parsed = ev.parse_metrics_csv(path)
    csv_ok = all(
        np.array_equal(parsed[n].f1, t.f1)
        and np.array_equal(parsed[n].precision, t.precision)
        and np.array_equal(parsed[n].recall, t.recall)
        for n, t in tables.items()
    )
    ok = chip_ok and ckpt_ok and csv_ok
    report_line(9, ok, f"chip={chip_ok} checkpoint={ckpt_ok} report-csv={csv_ok}")
