import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuselab import evaluation as ev
from fuselab.errors import DataError, ShapeError

from reference_tables import (
    CLASS_NAMES,
    METRIC_TOLERANCE,
    REFERENCE_AVG_F1,
    REFERENCE_CONFUSION,
    REFERENCE_METRICS,
    SAMPLES_PER_CLASS,
    confusion_from_fractions,
)


def confusion_oracle(pred_idx, true_idx, c):
    """Per-sample counting oracle."""
    counts = np.zeros((c, c), dtype=np.int64)
    for t, p in zip(true_idx, pred_idx):
        counts[t][p] += 1
    return counts


def reference_tables():
    out = {}
    for name, frac in REFERENCE_CONFUSION.items():
        cm = confusion_from_fractions(frac, SAMPLES_PER_CLASS, CLASS_NAMES)
        out[name] = ev.metrics_from_cm(cm)
    return out


# --- confusion matrix -----------------------------------------------------------


def test_all_correct_gives_identity():
    classes = np.array([0, 1, 2, 3, 0, 2])
    cm = ev.confusion_matrix(np.eye(4)[classes], classes)
    assert np.array_equal(np.diag(np.diag(cm.counts)), cm.counts)
    assert np.allclose(cm.row_normalized, np.eye(4) * (cm.counts.sum(axis=1) > 0)[:, None])


def test_hand_counted_two_class_case():
    preds = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]])
    classes = np.array([0, 1, 1])
    cm = ev.confusion_matrix(preds, classes)
    expected = np.array([[1, 0], [1, 1]])
    assert np.array_equal(cm.counts, expected)
    assert np.array_equal(cm.counts, confusion_oracle(preds.argmax(1), classes, 2))


def test_rows_normalize_to_one_exactly():
    for name, frac in REFERENCE_CONFUSION.items():
        cm = confusion_from_fractions(frac, SAMPLES_PER_CLASS, CLASS_NAMES)
        sums = cm.row_normalized.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-6), name


def test_argmax_ties_break_to_lowest_index():
    preds = np.array([[0.5, 0.5, 0.0]])
    cm = ev.confusion_matrix(preds, [1])
    assert cm.counts[1][0] == 1  # tie went to class 0


def test_length_mismatch():
    with pytest.raises(ShapeError):
        ev.confusion_matrix(np.eye(3)[[0, 1]], [0])


@pytest.mark.parametrize("classes", [[3], [-1], [1.0]], ids=["too-high", "negative", "float"])
def test_class_index_out_of_range(classes):
    with pytest.raises(ValueError, match="class indices"):
        ev.confusion_matrix(np.eye(3)[[0]], np.array(classes))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_confusion_matches_counting_oracle(seed, n):
    rng = np.random.default_rng(seed)
    preds = rng.dirichlet(np.ones(4), size=n)
    classes = rng.integers(0, 4, size=n)
    cm = ev.confusion_matrix(preds, classes)
    assert np.array_equal(cm.counts, confusion_oracle(preds.argmax(1), classes, 4))
    assert cm.total == n


# --- metrics ----------------------------------------------------------------------


def test_identity_cm_gives_perfect_metrics():
    cm = ev.ConfusionMatrix(np.eye(3, dtype=np.int64) * 10, ("a", "b", "c"))
    t = ev.metrics_from_cm(cm)
    for metric in (t.diagonal_accuracy, t.precision, t.recall, t.f1):
        assert np.allclose(metric, 1.0)


def test_reference_spot_checks():
    tables = reference_tables()
    # multispectral single: city precision 0.9/(0.9+0.03) ~= 0.97
    assert abs(tables["single-b"].precision[0] - 0.97) <= METRIC_TOLERANCE
    # SAR single: vegetation precision exactly 1.0 (empty column off-diagonal)
    assert tables["single-a"].precision[4] == 1.0
    # joint: lake precision ~= 0.68
    assert abs(tables["joint"].precision[2] - 0.68) <= METRIC_TOLERANCE


def test_reference_full_reproduction():
    tables = reference_tables()
    for name, t in tables.items():
        want = REFERENCE_METRICS[name]
        for i in range(len(CLASS_NAMES)):
            assert abs(t.precision[i] - want["precision"][i]) <= METRIC_TOLERANCE, (name, "P", i)
            assert abs(t.recall[i] - want["recall"][i]) <= METRIC_TOLERANCE, (name, "R", i)
            assert abs(t.f1[i] - want["f1"][i]) <= METRIC_TOLERANCE, (name, "F1", i)
        assert abs(t.macro_f1 - REFERENCE_AVG_F1[name]) <= METRIC_TOLERANCE, name


def test_diagonal_accuracy_equals_recall():
    for t in reference_tables().values():
        assert np.array_equal(t.diagonal_accuracy, t.recall)


def test_balanced_recall_equals_normalized_diagonal():
    cm = confusion_from_fractions(REFERENCE_CONFUSION["joint"], 1000, CLASS_NAMES)
    t = ev.metrics_from_cm(cm)
    assert np.allclose(t.recall, np.diag(cm.row_normalized))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_f1_is_exact_harmonic_mean_in_rational_arithmetic(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 50, size=(4, 4)).astype(np.int64)
    counts += np.eye(4, dtype=np.int64)  # keep rows non-empty
    cm = ev.ConfusionMatrix(counts, ("a", "b", "c", "d"))
    t = ev.metrics_from_cm(cm)
    for c in range(4):
        tp = int(counts[c, c])
        fp = int(counts[:, c].sum()) - tp
        fn = int(counts[c, :].sum()) - tp
        if tp == 0 and (fp == 0 or fn == 0):
            continue  # degenerate: flagged, reported as 0
        p = Fraction(tp, tp + fp) if tp + fp else None
        r = Fraction(tp, tp + fn) if tp + fn else None
        if p is None or r is None or p + r == 0:
            continue
        f1 = 2 * p * r / (p + r)
        assert f1 * (p + r) == 2 * p * r  # harmonic-mean identity, exact
        assert abs(t.f1[c] - float(f1)) < 1e-12
        assert abs(t.precision[c] - float(p)) < 1e-12
        assert abs(t.recall[c] - float(r)) < 1e-12


def test_degenerate_class_reports_zero_with_flag():
    counts = np.array([[5, 0, 0], [0, 0, 5], [0, 0, 5]], dtype=np.int64)  # nothing predicted as b
    t = ev.metrics_from_cm(ev.ConfusionMatrix(counts, ("a", "b", "c")))
    assert t.precision[1] == 0.0
    assert t.degenerate[1]
    assert not t.degenerate[0]


def test_empty_confusion_matrix_rejected():
    with pytest.raises(ValueError):
        ev.metrics_from_cm(ev.ConfusionMatrix(np.zeros((2, 2), dtype=np.int64), ("a", "b")))


# --- compare ----------------------------------------------------------------------


def test_compare_reference_tables_picks_late_weighted():
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
    report = ev.compare_paradigms(tables)
    assert report.best == "late-weighted"
    top_two = report.ranking[:2]
    assert {e.paradigm for e in top_two} == {"late-weighted", "joint"}
    assert abs(top_two[0].macro_f1 - top_two[1].macro_f1) <= ev.TIE_EPS  # tied on macro F1
    assert abs(top_two[0].min_f1 - 0.76) < 1e-9
    assert abs(top_two[1].min_f1 - 0.72) < 1e-9
    assert [e.paradigm for e in report.ranking[2:]] == ["late-mean", "early", "single-a", "single-b"]


def test_compare_single_entry_wins():
    t = reference_tables()["joint"]
    report = ev.compare_paradigms({"joint": t})
    assert report.best == "joint" and len(report.ranking) == 1


def test_compare_identical_tables_flags_exact_tie():
    t = reference_tables()["joint"]
    report = ev.compare_paradigms({"zeta": t, "alpha": t})
    assert report.best == "alpha"  # name order
    assert report.exact_tie


# --- emit / parse ------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    report = ev.compare_paradigms(reference_tables())
    path = ev.emit_report(report, "csv", tmp_path / "metrics.csv")
    parsed = ev.parse_metrics_csv(path)
    assert set(parsed) == set(report.tables)
    for name, t in report.tables.items():
        q = parsed[name]
        assert np.array_equal(q.precision, t.precision)
        assert np.array_equal(q.recall, t.recall)
        assert np.array_equal(q.f1, t.f1)
        assert np.array_equal(q.diagonal_accuracy, t.diagonal_accuracy)
        assert q.class_names == t.class_names
    # re-emitting parsed tables reproduces the same bytes
    report2 = ev.compare_paradigms(parsed)
    path2 = ev.emit_report(report2, "csv", tmp_path / "metrics2.csv")
    assert path.read_bytes() == path2.read_bytes()


def test_csv_header(tmp_path):
    report = ev.compare_paradigms({"joint": reference_tables()["joint"]})
    path = ev.emit_report(report, "csv", tmp_path / "m.csv")
    assert path.read_text().splitlines()[0] == "paradigm,class,accuracy,precision,recall,f1"


def test_markdown_mirrors_metric_rows(tmp_path):
    report = ev.compare_paradigms(reference_tables())
    text = (ev.emit_report(report, "markdown", tmp_path / "m.md")).read_text()
    for name in REFERENCE_CONFUSION:
        assert f"### {name}" in text
    for row in ("Accuracy", "Precision", "Recall", "F1 Score"):
        assert text.count(row) >= 6
    assert "Selected paradigm" in text


def test_markdown_degenerate_cell_is_na(tmp_path):
    counts = np.array([[5, 0], [5, 0]], dtype=np.int64)
    t = ev.metrics_from_cm(ev.ConfusionMatrix(counts, ("a", "b")))
    report = ev.compare_paradigms({"x": t})
    text = ev.emit_report(report, "markdown", tmp_path / "m.md").read_text()
    assert "n/a" in text


def test_svg_structure(tmp_path):
    report = ev.compare_paradigms(reference_tables())
    path = ev.emit_report(report, "svg", tmp_path / "m.svg")
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    bars = [e for e in root.iter() if e.tag.endswith("rect") and e.find("*") is not None]
    assert len(bars) == 6 * 4  # six paradigms, four metric bars each


def test_svg_escapes_paradigm_names(tmp_path):
    """A --from-tables block may be named anything; the chart still parses and shows the name as given."""
    tables = reference_tables()
    names = ['a&b', '<late>', 'x > y', 'say "hi"']
    report = ev.compare_paradigms(dict(zip(names, [tables["joint"], tables["early"], tables["late-mean"],
                                                   tables["single-a"]])))
    root = ET.fromstring(ev.emit_report(report, "svg", tmp_path / "m.svg").read_text())
    labels = [e.text for e in root.iter() if e.tag.endswith("text") and e.get("text-anchor") == "middle"]
    assert sorted(labels) == sorted(names)
    titles = [e.text for e in root.iter() if e.tag.endswith("title")]
    assert sorted(title.rsplit(": ", 1)[0] for title in titles) == sorted(
        f"{name} {row}" for name in names for row in ev.METRIC_ROWS)


def test_unknown_format_rejected(tmp_path):
    report = ev.compare_paradigms({"joint": reference_tables()["joint"]})
    with pytest.raises(ValueError):
        ev.emit_report(report, "pdf", tmp_path / "m.pdf")


def test_parse_metrics_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        ev.parse_metrics_csv(path)


def test_confusion_csv_round_trip(tmp_path):
    cm = confusion_from_fractions(REFERENCE_CONFUSION["single-a"], 1000, CLASS_NAMES)
    path = tmp_path / "cm.csv"
    path.write_text(ev.confusion_csv_text(cm))
    loaded = ev.parse_confusion_csv(path)
    assert np.array_equal(loaded.counts, cm.counts)
    assert loaded.class_names == cm.class_names


def test_parse_confusion_csv_accepts_fractions(tmp_path):
    path = tmp_path / "cm.csv"
    rows = ["class,a,b", "a,0.9,0.1", "b,0.2,0.8"]
    path.write_text("\n".join(rows) + "\n")
    cm = ev.parse_confusion_csv(path)
    assert np.array_equal(cm.counts, [[900, 100], [200, 800]])


def test_parse_confusion_csv_scales_fractions_by_their_most_decimal_places(tmp_path):
    path = tmp_path / "cm.csv"
    path.write_text("class,a,b\na,0.9994,0.0006\nb,0.25,0.75\n")
    assert np.array_equal(ev.parse_confusion_csv(path).counts, [[9994, 6], [2500, 7500]])


def test_parse_confusion_csv_fraction_overflowing_int64_is_data_error(tmp_path):
    path = tmp_path / "cm.csv"
    path.write_text("class,a,b\na,0.5,0.5\nb,0.0000000000000000001,1\n")  # 1 scales to 10**19 > 2**63
    with pytest.raises(DataError, match="int64"):
        ev.parse_confusion_csv(path)
