"""Supervised training for any fusion paradigm, plus the SGD/Adam optimizers.

train_paradigm trains every paradigm by one seed rule: each network starts as
fusion.build_model(<its single-network paradigm>, ..., seed) and shuffles on
RNG [seed, 0]. A late model is fusion.late_model over the single-a and
single-b models trained by that rule, so each of its networks only ever sees
its own modality, and `train` and `compare` give a paradigm the same model.
It decides by fusion.decisions over its networks' predictions; the weighted
variant derives its per-class binary weights from their validation recalls.

Every validation score of a trained paradigm (its history's val columns, the
accuracy `train` prints, `compare`'s confusion matrix) reads the decisions
train_paradigm hands back. A late history pools its networks' training tallies.

Training first gives a model without input stats those of its training split:
the per-channel mean and standard deviation of each modality, with which the
model standardizes every chip it sees (see fusion.InputStats).

Every split is a data.Samples: a step stacks its batch with Samples.chips
(augmented samples are read turned, and only the modalities the network
reads), and labels are class indices. Prediction follows one batching rule,
batch_rows: each network predicts a split in batches of whole rows. A
prediction batch is a slice of the split's unturned rows, predicted in all
of the split's turns at once (fusion.predict_batch): each network's first
convolution unfolds every row once and applies its kernel in every turn in
one GEMM, so the decisions equal those of the stacked turned samples to
float32 rounding.

A training step runs a network's forward pass, in which each convolution is
nn.Conv (zero padding, tensor.im2col, one float32 GEMM), backpropagates the
cross-entropy gradient and applies one step of the optimizer that
TrainConfig.optimizer names in OPTIMIZERS.
"""

from __future__ import annotations

import csv
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


# --- optimizers --------------------------------------------------------------


class SGD:
    """Vanilla SGD: p <- p - lr * g."""

    def __init__(self, params, learning_rate: float):
        self.params = list(params)
        self.learning_rate = learning_rate

    def step(self, grads):
        for p, g in zip(self.params, grads):
            p -= self.learning_rate * g


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
            p -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


# --- batching ----------------------------------------------------------------

# the most samples one prediction batch holds: at 32 samples a late model's single-a batch
# left ~2 MB of freed heap resident beside its single-b network's wider columns
EVAL_BATCH = 16
# what one prediction batch's widest conv may unfold, unless one row alone unfolds more
# (an augmented 64x64 early row: 8.4 MiB); a batch still holds at least one whole row
EVAL_BYTES = 8 << 20


def batch_rows(net: nn.Network, height: int, width: int, turns: int) -> int:
    """Whole rows per prediction batch of one network on height x width chips
    read in `turns` turns: as many as keep its widest im2col unfolding within
    EVAL_BYTES and its samples within EVAL_BATCH, at least 1, rounded down to a
    power of two so that a model's larger batches are whole multiples of its
    smaller ones. A split is predicted in these batches from its first row.
    A turned first Conv counts `turns` unfoldings per row, though it unfolds a
    row once: kept, as a change would move batch boundaries and so float32
    predictions."""
    samples = min(EVAL_BATCH, EVAL_BYTES // max(net.column_bytes(height, width), 1))
    return 1 << (max(1, samples // turns).bit_length() - 1)


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


def input_stats(samples) -> fusion.InputStats:
    """The input stats of the samples' rows, in float32. Each row is read once, unturned: a quarter
    turn moves a chip's values, it does not change them."""
    stats = (*_channel_stats(samples.chips_a), *_channel_stats(samples.chips_b))
    return fusion.InputStats(*(v.astype(np.float32) for v in stats))


def _model_predictions(model: fusion.FusionModel, samples) -> np.ndarray | None:
    """The model's decision vectors on samples, in sample order, computed forward-only; None for no samples.

    A late model predicts as its two members do. A one-network model predicts
    in batches of batch_rows whole rows: each batch hands fusion.predict_batch
    a slice of the unturned rows of only the chips it reads, and the split's turns.
    """
    if not samples:
        return None
    if model.paradigm in fusion.LATE_PARADIGMS:
        return fusion.decisions(model, [_model_predictions(m, samples) for m in fusion.late_members(model)])
    reads = fusion.modalities(model)
    chips = [arr if name in reads else None for name, arr in (("a", samples.chips_a), ("b", samples.chips_b))]
    rows = batch_rows(model.nets[0], *model.chip_shape_a[:2], samples.turns)
    return np.concatenate([
        fusion.predict_batch(model, *(None if arr is None else arr[r : r + rows] for arr in chips), samples.turns)
        for r in range(0, len(samples.classes), rows)
    ])


def confusion(model: fusion.FusionModel, chunks, class_names) -> ConfusionMatrix:
    """Confusion matrix of the model's decisions on the samples of every Samples in chunks, in order."""
    preds, truth = [], []
    for samples in chunks:
        preds.append(_model_predictions(model, samples))
        truth.append(samples.truth())
    return confusion_matrix(np.concatenate(preds), np.concatenate(truth), class_names)


def val_confusion(decisions, dsplit) -> ConfusionMatrix:
    """Confusion matrix of a trained paradigm's validation decisions (see train_paradigm)."""
    return confusion_matrix(decisions, dsplit.val.truth(), dsplit.class_names)


def _record(epoch, loss_sum, correct, seen, val_pred, dsplit) -> EpochRecord:
    if val_pred is None:
        val_loss, val_acc = float("nan"), float("nan")
    else:
        val_truth = dsplit.val.truth()
        val_loss = nn.cross_entropy(val_pred, val_truth)
        val_acc = float((val_pred.argmax(axis=1) == val_truth).mean())
    return EpochRecord(epoch, loss_sum, correct, seen, val_loss, val_acc, val_pred)


def train(model: fusion.FusionModel, dsplit, config: TrainConfig) -> list[EpochRecord]:
    """Train a one-network model in place, shuffling with RNG [config.seed, 0]; deterministic.

    A model without input stats first gets those of the training split.
    Raises NumericError with a diagnostic if the loss goes non-finite, and
    DataError before any training if the training split is empty.
    """
    if not dsplit.train:
        raise DataError("training split is empty")
    if model.input_stats is None:
        model.input_stats = input_stats(dsplit.train)
    (net,) = model.nets
    optimizer = OPTIMIZERS[config.optimizer](nn.parameters(net), config.learning_rate)
    rng = np.random.default_rng([config.seed, 0])
    n = len(dsplit.train)
    history = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        correct = 0
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            (xs,) = fusion.network_inputs(model, *dsplit.train.chips(batch, fusion.modalities(model)))
            y = dsplit.train.truth(batch)
            try:  # tensor.matmul's non-finite check or numpy's floating-point error ends the run with this diagnostic
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    pred = net.forward_batch(xs)
                    loss = nn.cross_entropy(pred, y)
                    net.backward(nn.cross_entropy_grad(pred, y))
                    optimizer.step(nn.gradients(net))
            except (FloatingPointError, NumericError) as exc:
                raise NumericError(
                    f"training diverged at epoch {epoch}, batch {start // config.batch_size} ({model.paradigm} "
                    f"network): non-finite values; try a lower learning rate"
                ) from exc
            loss_sum += loss * len(batch)
            correct += int((pred.argmax(axis=1) == y).sum())
        history.append(_record(epoch, loss_sum, correct, n, _model_predictions(model, dsplit.val), dsplit))
    return history


def train_paradigm(paradigm: str, dsplit, config: TrainConfig, trained: dict) -> tuple:
    """(model, history, decisions) of the paradigm trained on dsplit by the one seed rule.

    decisions are the model's own (N, C) validation decisions: its last
    epoch's, one pass after 0 epochs, or None without a validation split. A
    late model is built over the single-a and single-b results in `trained`
    (the dsplit's so far), training any that is missing into it.
    """
    if paradigm in fusion.LATE_PARADIGMS:
        if paradigm == "late-weighted" and not dsplit.val:
            raise DataError("late-weighted needs a non-empty validation split to derive its weights")
        (model_a, history_a, dec_a), (model_b, history_b, dec_b) = (
            trained[single] if single in trained else train_paradigm(single, dsplit, config, trained)
            for single in ("single-a", "single-b")
        )
        model = fusion.late_model(paradigm, model_a, model_b)
        if paradigm == "late-weighted":  # from the confusion matrices that `weights derive` reads
            model.alpha, model.beta = fusion.weights_from_confusions(val_confusion(dec_a, dsplit),
                                                                     val_confusion(dec_b, dsplit))

        def decide(pred_a, pred_b):  # the late model's decisions over its members' predictions, if any
            return None if pred_a is None else fusion.decisions(model, (pred_a, pred_b))

        history = [  # the members' tallies pooled epoch by epoch; the val columns score the model's decisions
            _record(ra.epoch, ra.train_loss_sum + rb.train_loss_sum, ra.train_correct + rb.train_correct,
                    ra.train_seen + rb.train_seen, decide(ra.val_predictions, rb.val_predictions), dsplit)
            for ra, rb in zip(history_a, history_b)
        ]
        decisions = decide(dec_a, dec_b)
    else:
        h, w, p = dsplit.train.chips_a.shape[1:]
        model = fusion.build_model(paradigm, w, h, p, dsplit.train.chips_b.shape[3], len(dsplit.class_names),
                                   config.seed, class_names=dsplit.class_names)
        if trained:  # the training split's stats, the same for every model of a run, measured once
            model.input_stats = next(iter(trained.values()))[0].input_stats
        history = train(model, dsplit, config)
        decisions = history[-1].val_predictions if history else _model_predictions(model, dsplit.val)
    if paradigm in ("single-a", "single-b"):  # kept for the late models; other models are freed with their row
        trained[paradigm] = model, history, decisions
    return model, history, decisions


def save_history(path, history: list[EpochRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"])
        for r in history:
            writer.writerow([r.epoch, repr(r.train_loss), repr(r.train_accuracy), repr(r.val_loss), repr(r.val_accuracy)])
