"""Supervised training for any fusion model, plus the SGD/Adam optimizers.

A late model is the aggregation of a single-a and a single-b model (see
fusion.late_model): each of its two networks trains as that single-modality
model, on its own RNG stream, and only ever sees its own modality. The late
history pools the two networks' training tallies, and its validation columns
score the mean of the two networks' predictions after each epoch. The weighted
variant derives its per-class binary weights from the two networks' validation
recalls, leaving the test split untouched.

Training first gives a model without input stats those of its training split:
the per-channel mean and standard deviation of each modality, with which the
model standardizes every chip it sees (see fusion.InputStats).

A training step runs a network's forward pass, in which each convolution is
nn.Conv (zero padding, tensor.im2col, one float32 GEMM), backpropagates the
cross-entropy gradient and applies one step of the optimizer that
TrainConfig.optimizer names in OPTIMIZERS.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import fusion, nn
from .errors import DataError, NumericError
from .evaluation import ConfusionMatrix, confusion_matrix

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {tuple(OPTIMIZERS)}, got {self.optimizer!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss_sum: float  # per-sample losses summed over the epoch
    train_correct: int
    train_seen: int
    val_loss: float
    val_accuracy: float
    val_predictions: np.ndarray | None = field(default=None, repr=False)  # what the val columns score

    @property
    def train_loss(self) -> float:
        return self.train_loss_sum / self.train_seen

    @property
    def train_accuracy(self) -> float:
        return self.train_correct / self.train_seen


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)


# --- optimizers --------------------------------------------------------------


class SGD:
    """Vanilla SGD: p <- p - lr * g."""

    def __init__(self, params, learning_rate: float):
        self.params = list(params)
        self.learning_rate = learning_rate

    def step(self, grads):
        for p, g in zip(self.params, grads):
            p -= (self.learning_rate * g).astype(p.dtype, copy=False)


class Adam:
    """Adam with bias-corrected first/second moments kept per parameter."""

    def __init__(self, params, learning_rate: float):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= (self.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)).astype(p.dtype, copy=False)


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


# --- batching ----------------------------------------------------------------

EVAL_BATCH = 64


def _stack_a(samples):
    return np.ascontiguousarray(np.stack([s.chip_a for s in samples]))


def _stack_b(samples):
    return np.ascontiguousarray(np.stack([s.chip_b for s in samples]))


def _labels(samples):
    return np.stack([s.label for s in samples])


def _net_inputs(model: fusion.FusionModel, samples):
    """The standardized input list of a one-network model's network for a batch."""
    paradigm = model.paradigm
    if paradigm == "single-a":
        return [model.inputs_a(_stack_a(samples))]
    if paradigm == "single-b":
        return [model.inputs_b(_stack_b(samples))]
    if paradigm == "early":
        return [np.concatenate([model.inputs_a(_stack_a(samples)), model.inputs_b(_stack_b(samples))], axis=-1)]
    if paradigm == "joint":
        return [model.inputs_a(_stack_a(samples)), model.inputs_b(_stack_b(samples))]
    raise ValueError(f"no single-network input routing for {paradigm!r}")


def _channel_stats(chips) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and standard deviation over (H, W, C) chips.

    One pass, accumulating sums and sums of squares in float64. A channel
    whose standard deviation is below float32 resolution of its mean is
    constant in the chips and is scaled by 1.
    """
    channels = chips[0].shape[2]
    total, total_sq, n = np.zeros(channels), np.zeros(channels), 0
    for chip in chips:
        x = chip.reshape(-1, channels).astype(np.float64)
        total += x.sum(axis=0)
        total_sq += np.einsum("ij,ij->j", x, x)
        n += x.shape[0]
    mean = total / n
    std = np.sqrt(np.maximum(total_sq / n - mean**2, 0.0))
    return mean, np.where(std > 1e-6 * np.abs(mean), std, 1.0)


def input_stats(samples) -> tuple:
    """(mean_a, std_a, mean_b, std_b) of the samples' chips, for FusionModel.set_input_stats."""
    return (*_channel_stats([s.chip_a for s in samples]), *_channel_stats([s.chip_b for s in samples]))


def _model_predictions(model: fusion.FusionModel, samples) -> np.ndarray:
    """Decision vectors in sample order, computed forward-only in EVAL_BATCH chunks."""
    return np.concatenate([
        fusion.predict_batch(model, _stack_a(chunk), _stack_b(chunk))
        for chunk in (samples[i : i + EVAL_BATCH] for i in range(0, len(samples), EVAL_BATCH))
    ])


def confusion(model: fusion.FusionModel, samples, class_names) -> ConfusionMatrix:
    """Confusion matrix of the model's decisions on the samples."""
    return confusion_matrix(_model_predictions(model, samples), _labels(samples), class_names)


def val_confusion(model: fusion.FusionModel, history: TrainHistory, dsplit, member_histories=()) -> ConfusionMatrix:
    """Confusion matrix of the trained model's decisions on the validation split.

    Training predicted the split after its last step, so the history's last
    record already holds those decisions; only after 0 epochs is the split
    predicted afresh. A late history holds the mean of its members'
    predictions, so late-weighted combines member_histories' last
    predictions with its own weights.
    """
    if not history.records:
        return confusion(model, dsplit.val, dsplit.class_names)
    pred = history.records[-1].val_predictions
    if model.paradigm == "late-weighted":
        pred_a, pred_b = (h.records[-1].val_predictions for h in member_histories)
        pred = fusion.late_aggregate_weighted(pred_a, pred_b, model.alpha, model.beta)
    return confusion_matrix(pred, _labels(dsplit.val), dsplit.class_names)


def _record(epoch, loss_sum, correct, seen, val_pred, dsplit) -> EpochRecord:
    if val_pred is None:
        val_loss, val_acc = float("nan"), float("nan")
    else:
        val_truth = _labels(dsplit.val)
        val_loss = nn.cross_entropy(val_pred, val_truth)
        val_acc = float((val_pred.argmax(axis=1) == val_truth.argmax(axis=1)).mean())
    return EpochRecord(epoch, loss_sum, correct, seen, val_loss, val_acc, val_pred)


def _fit(model: fusion.FusionModel, dsplit, config: TrainConfig, stream: int) -> TrainHistory:
    """Train a one-network model in place, shuffling with RNG stream [config.seed, stream]."""
    net = model.nets[0]
    optimizer = OPTIMIZERS[config.optimizer](nn.parameters(net), config.learning_rate)
    rng = np.random.default_rng([config.seed, stream])
    n = len(dsplit.train)
    history = TrainHistory()
    for epoch in range(config.epochs):
        loss_sum = 0.0
        correct = 0
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = [dsplit.train[i] for i in perm[start : start + config.batch_size]]
            xs = _net_inputs(model, batch)
            y = _labels(batch)
            pred = net.forward_batch(xs)
            loss = nn.cross_entropy(pred, y)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, batch {start // config.batch_size} "
                    f"({model.paradigm} network, RNG stream {stream}); try a lower learning rate"
                )
            net.backward(nn.cross_entropy_grad(pred, y))
            optimizer.step(nn.gradients(net))
            loss_sum += loss * len(batch)
            correct += int((pred.argmax(axis=1) == y.argmax(axis=1)).sum())
        val_pred = _model_predictions(model, dsplit.val) if dsplit.val else None
        history.records.append(_record(epoch, loss_sum, correct, n, val_pred, dsplit))
    return history


def fuse_late(model: fusion.FusionModel, histories, dsplit) -> TrainHistory:
    """Finish a late model whose two networks are trained; return its history.

    histories are the training histories of fusion.late_members(model).
    late-weighted needs a non-empty validation split, which train and compare
    check before training anything. It derives its weights from the members'
    validation confusion matrices, the ones `weights derive` reads: those of
    their last epoch's validation predictions, or of a fresh pass after 0
    epochs. The late
    history pools the members' training tallies epoch by epoch, and scores the
    mean of their validation predictions.
    """
    if model.paradigm == "late-weighted":
        preds = [h.records[-1].val_predictions if h.records else _model_predictions(member, dsplit.val)
                 for h, member in zip(histories, fusion.late_members(model))]
        cms = [confusion_matrix(pred, _labels(dsplit.val), dsplit.class_names) for pred in preds]
        model.set_fusion_weights(*fusion.weights_from_confusions(*cms))
    pooled = TrainHistory()
    for ra, rb in zip(histories[0].records, histories[1].records):
        val_pred = None
        if ra.val_predictions is not None:
            val_pred = fusion.late_aggregate_mean(ra.val_predictions, rb.val_predictions)
        pooled.records.append(_record(
            ra.epoch, ra.train_loss_sum + rb.train_loss_sum, ra.train_correct + rb.train_correct,
            ra.train_seen + rb.train_seen, val_pred, dsplit,
        ))
    return pooled


def train(model: fusion.FusionModel, dsplit, config: TrainConfig) -> TrainHistory:
    """Train the model in place; deterministic given config.seed.

    A model without input stats first gets those of the training split. A late
    model's networks train one after the other as its single-a and single-b
    members, on RNG streams [seed, 0] and [seed, 1]; fuse_late then
    aggregates them. Raises NumericError with a diagnostic if the loss goes
    non-finite, and DataError before any training if a split it needs is empty.
    """
    if not dsplit.train:
        raise DataError("training split is empty")
    if model.paradigm == "late-weighted" and not dsplit.val:
        raise DataError("late-weighted needs a non-empty validation split to derive its weights")
    if model.input_stats is None:
        model.set_input_stats(*input_stats(dsplit.train))
    if model.paradigm not in fusion.LATE_PARADIGMS:
        return _fit(model, dsplit, config, stream=0)
    members = fusion.late_members(model)
    histories = [_fit(member, dsplit, config, stream) for stream, member in enumerate(members)]
    return fuse_late(model, histories, dsplit)


def save_history(path, history: TrainHistory) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"])
        for r in history.records:
            writer.writerow([r.epoch, repr(r.train_loss), repr(r.train_accuracy), repr(r.val_loss), repr(r.val_accuracy)])
