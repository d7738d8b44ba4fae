"""Confusion matrices, per-class metrics, paradigm ranking, and report output.

Counts are kept as integers and only turned into rounded decimals at display
time, so identities like F1 being the harmonic mean of precision and recall
hold exactly in rational arithmetic on the counts.

The per-class accuracy that reports write (their `accuracy` column) is
`diagonal_accuracy`: the row-normalized confusion diagonal, numerically equal
to recall, which is what published per-class accuracy tables in this domain
usually contain.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cmp_to_key
from html import escape
from pathlib import Path

import numpy as np

from .config import read_text
from .errors import DataError, ShapeError

TIE_EPS = 1e-9  # macro-F1 differences below this count as a tie

# report row -> (the MetricsTable array it shows, its bar colour in report.svg), in report order
METRIC_ROWS = {
    "Accuracy": ("diagonal_accuracy", "#4c78a8"),
    "Precision": ("precision", "#f58518"),
    "Recall": ("recall", "#54a24b"),
    "F1 Score": ("f1", "#b279a2"),
}


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (C, C) int64, rows = truth, cols = prediction
    class_names: tuple
    row_normalized: np.ndarray = field(init=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        c = len(self.class_names)
        if self.counts.shape != (c, c):
            raise ShapeError(f"confusion counts {self.counts.shape} != ({c}, {c})")
        if (self.counts < 0).any():
            raise ValueError("confusion counts must be non-negative")
        totals = self.counts.sum(axis=1)
        safe = np.where(totals == 0, 1, totals)
        self.row_normalized = self.counts / safe[:, None]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(predictions, classes, class_names=None) -> ConfusionMatrix:
    """Count argmax decisions against true class indices (ValueError if out of range); ties go to the lowest."""
    predictions = np.atleast_2d(np.asarray(predictions))
    classes = np.atleast_1d(np.asarray(classes))
    if len(predictions) != len(classes):
        raise ShapeError(f"{len(predictions)} predictions vs {len(classes)} classes")
    if len(predictions) == 0:
        raise ValueError("need at least one sample")
    c = predictions.shape[1]
    if not np.issubdtype(classes.dtype, np.integer) or ((classes < 0) | (classes >= c)).any():
        raise ValueError(f"class indices must be integers in 0..{c - 1}, got {classes.tolist()}")
    names = tuple(class_names) if class_names else tuple(f"class{i}" for i in range(c))
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (classes, predictions.argmax(axis=1)), 1)
    return ConfusionMatrix(counts, names)


@dataclass
class MetricsTable:
    class_names: tuple
    diagonal_accuracy: np.ndarray  # row-normalized diagonal, == recall
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    degenerate: np.ndarray  # per-class: some denominator was zero

    def macro(self, metric: str) -> float:
        return float(np.asarray(getattr(self, metric)).mean())

    @property
    def macro_f1(self) -> float:
        return self.macro("f1")

    @property
    def min_f1(self) -> float:
        return float(np.asarray(self.f1).min())


def metrics_from_cm(cm: ConfusionMatrix) -> MetricsTable:
    """Per-class one-vs-rest metrics from integer counts.

    Zero denominators yield 0.0 and set the per-class degenerate flag instead
    of raising.
    """
    counts = cm.counts
    c = len(cm.class_names)
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    row = counts.sum(axis=1).astype(np.float64)
    col = counts.sum(axis=0).astype(np.float64)
    fp = col - tp
    fn = row - tp

    degenerate = np.zeros(c, dtype=bool)

    def safe_div(num, den):
        bad = den == 0
        degenerate[bad] = True
        return np.where(bad, 0.0, num / np.where(bad, 1.0, den))

    precision = safe_div(tp, tp + fp)
    recall = safe_div(tp, tp + fn)
    # harmonic mean of P and R, computed straight from counts: 2Tp/(2Tp+Fp+Fn)
    f1 = safe_div(2.0 * tp, 2.0 * tp + fp + fn)
    return MetricsTable(
        class_names=cm.class_names,
        diagonal_accuracy=recall.copy(),
        precision=precision,
        recall=recall,
        f1=f1,
        degenerate=degenerate,
    )


@dataclass
class RankEntry:
    paradigm: str
    macro_f1: float
    min_f1: float


@dataclass
class ParadigmReport:
    tables: dict  # paradigm -> MetricsTable
    ranking: list  # RankEntry, best first
    best: str
    exact_tie: bool  # top spot decided purely by name ordering


def compare_paradigms(tables: dict) -> ParadigmReport:
    """Rank by macro-F1, breaking ties by worst-class F1, then by name.

    Near-equal macro-F1 (within TIE_EPS) counts as a tie so that tables whose
    per-class values sum to the same decimal rank by robustness, not by
    floating-point noise.
    """
    if not tables:
        raise ValueError("no paradigm tables to compare")
    entries = [RankEntry(name, t.macro_f1, t.min_f1) for name, t in tables.items()]

    def cmp(x: RankEntry, y: RankEntry) -> int:
        if abs(x.macro_f1 - y.macro_f1) > TIE_EPS:
            return -1 if x.macro_f1 > y.macro_f1 else 1
        if abs(x.min_f1 - y.min_f1) > TIE_EPS:
            return -1 if x.min_f1 > y.min_f1 else 1
        return -1 if x.paradigm < y.paradigm else (1 if x.paradigm > y.paradigm else 0)

    entries.sort(key=cmp_to_key(cmp))
    exact_tie = (
        len(entries) > 1
        and abs(entries[0].macro_f1 - entries[1].macro_f1) <= TIE_EPS
        and abs(entries[0].min_f1 - entries[1].min_f1) <= TIE_EPS
    )
    return ParadigmReport(tables=dict(tables), ranking=entries, best=entries[0].paradigm, exact_tie=exact_tie)


# --- report emission ---------------------------------------------------------

CSV_COLUMNS = ("paradigm", "class", "accuracy", "precision", "recall", "f1")
_CSV_METRICS = tuple(metric for metric, _ in METRIC_ROWS.values())  # the MetricsTable arrays after paradigm, class


def _fmt(v: float) -> str:
    return repr(float(v))


def _ordered(ranking) -> list:
    return [e.paradigm for e in ranking]


def metrics_csv_text(report: ParadigmReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for paradigm in _ordered(report.ranking):
        t = report.tables[paradigm]
        for i, cls in enumerate(t.class_names):
            writer.writerow([paradigm, cls, *(_fmt(getattr(t, metric)[i]) for metric in _CSV_METRICS)])
    return buf.getvalue()


def _md_cell(value: float, flagged: bool) -> str:
    return "n/a" if flagged else f"{value:.2f}"


def metrics_markdown_text(report: ParadigmReport) -> str:
    lines = []
    for paradigm in _ordered(report.ranking):
        t = report.tables[paradigm]
        lines.append(f"### {paradigm}")
        lines.append("| Metric | " + " | ".join(t.class_names) + " | Average |")
        lines.append("|" + "---|" * (len(t.class_names) + 2))
        for row_name, (metric, _) in METRIC_ROWS.items():
            values = getattr(t, metric)
            cells = [_md_cell(values[i], bool(t.degenerate[i])) for i in range(len(t.class_names))]
            lines.append(f"| {row_name} | " + " | ".join(cells) + f" | {t.macro(metric):.2f} |")
        lines.append("")
    lines.append("### Ranking")
    lines.append("| Rank | Paradigm | Macro F1 | Min class F1 |")
    lines.append("|---|---|---|---|")
    for rank, e in enumerate(report.ranking, 1):
        lines.append(f"| {rank} | {e.paradigm} | {e.macro_f1:.4f} | {e.min_f1:.4f} |")
    tie_note = " (tie broken by worst-class F1)" if len(report.ranking) > 1 and abs(
        report.ranking[0].macro_f1 - report.ranking[1].macro_f1
    ) <= TIE_EPS else ""
    if report.exact_tie:
        tie_note = " (exact tie, resolved by name ordering)"
    lines.append("")
    lines.append(f"**Selected paradigm: {report.best}**{tie_note}")
    return "\n".join(lines) + "\n"


def metrics_svg_text(report: ParadigmReport) -> str:
    """Standalone grouped-bar chart: one group per paradigm, one bar per metric average."""
    paradigms = _ordered(report.ranking)
    bar_w, gap, group_gap, left, top, plot_h = 22, 4, 30, 60, 30, 220
    group_w = len(METRIC_ROWS) * (bar_w + gap) - gap
    width = left + len(paradigms) * (group_w + group_gap) + 40
    height = top + plot_h + 70
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = top + plot_h * (1 - frac)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - 20}" y2="{y:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" font-size="11" text-anchor="end">{frac:.2f}</text>')
    x = left + 10
    for paradigm in paradigms:
        t, name = report.tables[paradigm], escape(paradigm)
        for row_name, (metric, color) in METRIC_ROWS.items():
            v = t.macro(metric)
            h = plot_h * max(0.0, min(1.0, v))
            parts.append(
                f'<rect x="{x:.1f}" y="{top + plot_h - h:.1f}" width="{bar_w}" height="{h:.1f}" '
                f'fill="{color}"><title>{name} {row_name}: {v:.3f}</title></rect>'
            )
            x += bar_w + gap
        x -= gap
        parts.append(
            f'<text x="{x - group_w / 2:.1f}" y="{top + plot_h + 16}" font-size="11" '
            f'text-anchor="middle">{name}</text>'
        )
        x += group_gap
    ly = height - 28
    lx = left
    for row_name, (_, color) in METRIC_ROWS.items():
        parts.append(f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="{ly + 10}" font-size="11">{row_name}</text>')
        lx += 110
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_EMITTERS = {"csv": metrics_csv_text, "markdown": metrics_markdown_text, "svg": metrics_svg_text}


def emit_report(report: ParadigmReport, fmt: str, path) -> Path:
    if fmt not in _EMITTERS:
        raise ValueError(f"unknown report format {fmt!r}; valid: {', '.join(_EMITTERS)}")
    path = Path(path)
    path.write_text(_EMITTERS[fmt](report))
    return path


def parse_metrics_csv(path) -> dict:
    """Read a metrics CSV (as written by metrics_csv_text) back into tables; each metric is a number in
    [0, 1], and every paradigm's block lists the same classes in the same order."""
    rows = list(csv.reader(read_text(path).splitlines()))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise DataError(f"{path}: expected header {','.join(CSV_COLUMNS)}")
    grouped: dict[str, list] = {}  # paradigm -> (class name, metric values) per row
    for ln, row in enumerate(rows[1:], 2):
        if len(row) != len(CSV_COLUMNS):
            raise DataError(f"{path}:{ln}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
        grouped.setdefault(row[0], []).append((row[1], [_number_cell(path, ln, v, 1) for v in row[2:]]))
    tables = {}
    for paradigm, rws in grouped.items():
        columns = np.array([values for _, values in rws]).T.copy()  # one contiguous row per metric
        table = tables[paradigm] = MetricsTable(class_names=tuple(name for name, _ in rws),
                                                **dict(zip(_CSV_METRICS, columns)),
                                                degenerate=np.zeros(len(rws), dtype=bool))
        first, first_table = next(iter(tables.items()))
        if table.class_names != first_table.class_names:
            raise DataError(f"{path}: {paradigm} has classes {list(table.class_names)}, "
                            f"{first} has {list(first_table.class_names)}")
    return tables


def confusion_csv_text(cm: ConfusionMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class", *cm.class_names])
    for i, name in enumerate(cm.class_names):
        writer.writerow([name, *[str(int(v)) for v in cm.counts[i]]])
    return buf.getvalue()


def _number_cell(path, ln: int, text: str, upper: int) -> float:
    """One table cell as a float in [0, upper]; DataError naming the cell otherwise."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value <= upper:  # also rejects nan
        raise DataError(f"{path}:{ln}: cell {text!r} is not a number in [0, {upper}]")
    return value


def parse_confusion_csv(path) -> ConfusionMatrix:
    """Read a truth-by-prediction table of raw counts or of fractions.

    A table with any non-integer cell holds fractions: each cell is scaled
    exactly by 10**max(3, d), d the most decimal places any cell is written
    with, so every digit as written reaches the counts.
    """
    rows = list(csv.reader(read_text(path).splitlines()))
    if len(rows) < 2 or rows[0][0] != "class":
        raise DataError(f"{path}: expected a 'class,<names...>' header")
    names = tuple(rows[0][1:])
    values = []
    for ln, row in enumerate(rows[1:], 2):
        if len(row) != len(names) + 1:
            raise DataError(f"{path}:{ln}: expected {len(names) + 1} fields, got {len(row)}")
        for v in row[1:]:
            _number_cell(path, ln, v, 2**53)  # names a nan, negative or huge cell; the sum check bounds counts
        values.append([Decimal(v) for v in row[1:]])
    if len(values) != len(names):
        raise DataError(f"{path}: confusion table must be square")
    cells = [v for row in values for v in row]
    places = 0
    if any(v != v.to_integral_value() for v in cells):
        places = max(3, max(-v.as_tuple().exponent for v in cells))
    # scaleb rounds only results of over 28 digits, which fail the int64 check below anyway
    counts = [[int(v.scaleb(places)) for v in row] for row in values]
    if sum(map(sum, counts)) > np.iinfo(np.int64).max:  # so no row, column or total wraps either
        raise DataError(f"{path}: counts (cells scaled by 10**{places}) sum past the int64 range")
    return ConfusionMatrix(np.array(counts, dtype=np.int64), names)
