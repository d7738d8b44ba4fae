"""Golden reference values used as oracles for the metrics pipeline.

REFERENCE_CONFUSION holds row-normalized confusion matrices (rows = truth)
for the six classifier variants of a SAR/multispectral land-cover benchmark
with 5 balanced classes. REFERENCE_METRICS holds the per-class metric values
expected when those matrices are scaled to integer counts and pushed through
the metrics pipeline (values carry the benchmark's two-decimal display
rounding, hence the 0.015 comparison tolerance used by the tests).
confusion_from_fractions is that scaling.
"""

import numpy as np

from fuselab.evaluation import ConfusionMatrix

CLASS_NAMES = ("city", "coastline", "lake", "river", "vegetation")

SAMPLES_PER_CLASS = 1000

REFERENCE_CONFUSION = {
    # modality B: multispectral-like single-modality model
    "single-b": [
        [0.90, 0.00, 0.02, 0.000, 0.081],
        [0.00, 0.85, 0.15, 0.000, 0.000],
        [0.00, 0.21, 0.64, 0.100, 0.051],
        [0.00, 0.00, 0.32, 0.660, 0.020],
        [0.03, 0.00, 0.02, 0.099, 0.850],
    ],
    # modality A: SAR-like single-modality model
    "single-a": [
        [0.88, 0.00, 0.000, 0.12, 0.00],
        [0.00, 0.90, 0.090, 0.01, 0.00],
        [0.00, 0.15, 0.710, 0.14, 0.00],
        [0.00, 0.02, 0.059, 0.92, 0.00],
        [0.30, 0.00, 0.000, 0.16, 0.54],
    ],
    "early": [
        [0.89, 0.0000, 0.00, 0.00, 0.110],
        [0.00, 0.7800, 0.17, 0.02, 0.030],
        [0.00, 0.1100, 0.65, 0.21, 0.030],
        [0.00, 0.0099, 0.27, 0.66, 0.059],
        [0.00, 0.0000, 0.00, 0.00, 1.000],
    ],
    "joint": [
        [0.98, 0.000, 0.00, 0.00, 0.0200],
        [0.00, 0.810, 0.13, 0.06, 0.0000],
        [0.00, 0.071, 0.78, 0.14, 0.0100],
        [0.00, 0.000, 0.24, 0.75, 0.0099],
        [0.00, 0.000, 0.00, 0.02, 0.9800],
    ],
    "late-mean": [
        [1.000, 0.0000, 0.00, 0.000, 0.0000],
        [0.000, 0.9500, 0.05, 0.000, 0.0000],
        [0.000, 0.1700, 0.74, 0.071, 0.0200],
        [0.000, 0.0099, 0.28, 0.700, 0.0099],
        [0.059, 0.0000, 0.00, 0.089, 0.8500],
    ],
    "late-weighted": [
        [0.92, 0.00, 0.000, 0.000, 0.0810],
        [0.00, 0.90, 0.090, 0.010, 0.0000],
        [0.00, 0.15, 0.710, 0.120, 0.0200],
        [0.00, 0.02, 0.059, 0.910, 0.0099],
        [0.03, 0.00, 0.000, 0.099, 0.8700],
    ],
}

# per-class metric values the benchmark reports for the matrices above
REFERENCE_METRICS = {
    "single-b": {
        "accuracy": [0.90, 0.85, 0.64, 0.66, 0.85],
        "precision": [0.97, 0.80, 0.55, 0.77, 0.85],
        "recall": [0.90, 0.85, 0.64, 0.66, 0.85],
        "f1": [0.93, 0.82, 0.59, 0.71, 0.85],
    },
    "single-a": {
        "accuracy": [0.88, 0.90, 0.71, 0.92, 0.55],
        "precision": [0.74, 0.84, 0.82, 0.68, 1.00],
        "recall": [0.88, 0.90, 0.71, 0.92, 0.55],
        "f1": [0.81, 0.87, 0.76, 0.78, 0.71],
    },
    "early": {
        "accuracy": [0.88, 0.78, 0.65, 0.66, 1.00],
        "precision": [1.00, 0.87, 0.59, 0.74, 0.81],
        "recall": [0.89, 0.78, 0.65, 0.66, 1.00],
        "f1": [0.94, 0.82, 0.62, 0.70, 0.90],
    },
    "joint": {
        "accuracy": [0.98, 0.81, 0.78, 0.75, 0.98],
        "precision": [1.00, 0.92, 0.68, 0.78, 0.96],
        "recall": [0.98, 0.81, 0.78, 0.75, 0.98],
        "f1": [0.99, 0.86, 0.72, 0.76, 0.97],
    },
    "late-mean": {
        "accuracy": [1.00, 0.95, 0.74, 0.71, 0.85],
        "precision": [0.94, 0.84, 0.69, 0.82, 0.97],
        "recall": [1.00, 0.95, 0.74, 0.70, 0.85],
        "f1": [0.97, 0.89, 0.71, 0.76, 0.91],
    },
    "late-weighted": {
        "accuracy": [0.92, 0.90, 0.71, 0.91, 0.87],
        "precision": [0.97, 0.84, 0.82, 0.80, 0.89],
        "recall": [0.92, 0.90, 0.71, 0.91, 0.87],
        "f1": [0.94, 0.87, 0.76, 0.85, 0.88],
    },
}

REFERENCE_AVG_F1 = {
    "single-b": 0.78,
    "single-a": 0.79,
    "early": 0.80,
    "joint": 0.86,
    "late-mean": 0.85,
    "late-weighted": 0.86,
}

# binary late-fusion weights the benchmark derives from the two single-modality
# models (alpha weights modality A, beta modality B)
REFERENCE_ALPHA = [0.0, 1.0, 1.0, 1.0, 0.0]
REFERENCE_BETA = [1.0, 0.0, 0.0, 0.0, 1.0]

METRIC_TOLERANCE = 0.015


def confusion_from_fractions(fractions, per_class: int, class_names) -> ConfusionMatrix:
    """Scale a row-normalized matrix (e.g. one above) to integer counts, per_class samples a row."""
    counts = np.rint(np.asarray(fractions, dtype=np.float64) * per_class).astype(np.int64)
    return ConfusionMatrix(counts, tuple(class_names))
