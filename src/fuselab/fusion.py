"""The six classifier variants and the late-fusion aggregation rules.

Paradigms:
  single-a / single-b  one backbone on one modality (the baselines)
  early                one backbone over the channel-concatenated chips
  joint                per-modality conv branches, features concatenated
                       into one shared fully connected head
  late-mean            the single-a and single-b backbones, predictions
                       averaged
  late-weighted        the single-a and single-b backbones, predictions
                       combined per class with binary complementary weights

Modality A is the SAR-like input (speckled, few channels), modality B the
multispectral-like input (many bands). The weighted variant picks, class by
class, whichever single-modality model validated better; see derive_weights.
A late model adds no network of its own: its two networks are a single-a and a
single-b model's (see late_model and late_members).

NETWORK_INPUTS is the one statement of how each paradigm is wired: which
networks it holds and what each network reads. build_model, network_inputs,
decisions and load_model all follow it. build_model and load_model learn what
shape each layer gives by running the networks on a batch of no samples
(_empty_inputs), so every layer's own input check runs.

load_model is the one gate of a model bundle; FusionModel and InputStats are
plain data. It checks each fact model.json states (every number it reads as
float32 must have a finite float32), and refuses a network whose
softmax does not read a Dense output: late fusion combines class
probabilities, and tensor.matmul finite-checks Dense's logits, so no
aggregation rule checks its inputs again.

Every model standardizes its input chips per channel with the mean and
standard deviation of its training chips (InputStats, set by training and
stored in model.json); a model that has none sees the raw chips. A model built
for a dataset also stores the dataset's class names, which eval checks
against the dataset it scores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .config import read_json_object
from .errors import DataError

# paradigm -> the inputs of each of its networks, in FusionModel.nets order:
# "a" and "b" are one modality's chips, "ab" the channel-concatenated pair. A
# network with two inputs has one conv branch per input and one shared head.
NETWORK_INPUTS = {
    "single-a": (("a",),),
    "single-b": (("b",),),
    "early": (("ab",),),
    "joint": (("a", "b"),),
    "late-mean": (("a",), ("b",)),
    "late-weighted": (("a",), ("b",)),
}
PARADIGMS = tuple(NETWORK_INPUTS)
LATE_PARADIGMS = ("late-mean", "late-weighted")

DEFAULT_CONV_CHANNELS = (16, 32, 64)
DEFAULT_DENSE_UNITS = 128


@dataclass(frozen=True)
class InputStats:
    """Per-channel mean and standard deviation (float32) of each modality's training chips."""

    mean_a: np.ndarray
    std_a: np.ndarray
    mean_b: np.ndarray
    std_b: np.ndarray


@dataclass
class FusionModel:
    paradigm: str
    nets: list
    chip_shape_a: tuple  # (H, W, P)
    chip_shape_b: tuple  # (H, W, B)
    n_classes: int
    alpha: np.ndarray | None = None  # late-weighted only: binary complementary float32 weights, set after training
    beta: np.ndarray | None = None
    input_stats: InputStats | None = None  # set by training
    class_names: tuple | None = None  # the training dataset's, one per class, in class-index order

    def inputs_a(self, chips_a: np.ndarray) -> np.ndarray:
        """Modality-A chips as the networks see them: standardized per channel."""
        s = self.input_stats
        return chips_a if s is None else _standardized(chips_a, s.mean_a, s.std_a)

    def inputs_b(self, chips_b: np.ndarray) -> np.ndarray:
        """Modality-B chips as the networks see them: standardized per channel."""
        s = self.input_stats
        return chips_b if s is None else _standardized(chips_b, s.mean_b, s.std_b)


def _standardized(chips: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(chips - mean) / std over (N, H, W, C) chips, in one new array.

    The per-channel vectors are tiled along image rows, so numpy's inner loop
    runs over W*C elements instead of C; the values are the same. An overflow
    gives inf without a warning, and the network's first GEMM reports it.
    """
    n, h, w, c = chips.shape
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.subtract(chips.reshape(n * h, w * c), np.tile(mean, w))
        out /= np.tile(std, w)
    return out.reshape(chips.shape)


def _conv_stack(cin: int, conv_channels, rng) -> list:
    layers = []
    for cout in conv_channels:
        # relu(maxpool2(x)) == maxpool2(relu(x)), and ReLU then runs on the 4x smaller pooled array
        layers += [nn.Conv(3, cin, cout, rng), nn.MaxPool2(), nn.ReLU()]
        cin = cout
    layers.append(nn.Flatten())
    return layers


def _head(n_features: int, dense_units: int, n_classes: int, rng) -> list:
    return [
        nn.Dense(n_features, dense_units, rng),
        nn.ReLU(),
        nn.Dense(dense_units, n_classes, rng),
        nn.Softmax(),
    ]


def build_model(
    paradigm: str,
    width: int,
    height: int,
    channels_a: int,
    channels_b: int,
    n_classes: int,
    seed: int,
    conv_channels=DEFAULT_CONV_CHANNELS,
    dense_units: int = DEFAULT_DENSE_UNITS,
    class_names=None,
) -> FusionModel:
    """Construct an untrained model for the given paradigm; seeded, deterministic.

    A network's parameters are drawn from RNG `seed`, branch by branch, then
    the head. A late model is late_model over the single-a and single-b models
    built with the same seed, so each of its networks starts as that single
    model's does.
    """
    if paradigm in LATE_PARADIGMS:
        return late_model(paradigm, *(build_model(single, width, height, channels_a, channels_b, n_classes, seed,
                                                  conv_channels, dense_units, class_names)
                                      for single in ("single-a", "single-b")))
    if min(width, height) < 2 ** len(conv_channels):
        raise DataError(f"chips {width}x{height} too small for {len(conv_channels)} pooling stages")
    rng = np.random.default_rng(seed)
    model = FusionModel(
        paradigm=paradigm,
        nets=[],
        chip_shape_a=(height, width, channels_a),
        chip_shape_b=(height, width, channels_b),
        n_classes=n_classes,
        class_names=class_names,
    )
    (xs,) = _empty_inputs(model)
    branches = [_conv_stack(x.shape[3], conv_channels, rng) for x in xs]
    n_features = nn.Network(*branches).infer(xs).shape[1]  # the branches' concatenated output width
    model.nets.append(nn.Network(*branches, head=_head(n_features, dense_units, n_classes, rng)))
    return model


def late_model(paradigm: str, single_a: FusionModel, single_b: FusionModel) -> FusionModel:
    """The late model over a single-a and a single-b model; it shares their
    networks and class names and takes each one's input stats for its own modality."""
    model = FusionModel(paradigm, single_a.nets + single_b.nets, single_a.chip_shape_a, single_a.chip_shape_b,
                        single_a.n_classes, class_names=single_a.class_names)
    sa, sb = single_a.input_stats, single_b.input_stats
    if sa is not None and sb is not None:
        model.input_stats = InputStats(sa.mean_a, sa.std_a, sb.mean_b, sb.std_b)
    return model


def late_members(model: FusionModel) -> tuple[FusionModel, FusionModel]:
    """The single-a and single-b models whose networks a late model aggregates (shared, not copied)."""
    return tuple(
        FusionModel(paradigm, [net], model.chip_shape_a, model.chip_shape_b, model.n_classes,
                    input_stats=model.input_stats, class_names=model.class_names)
        for paradigm, net in zip(("single-a", "single-b"), model.nets)
    )


def late_aggregate_mean(pred_a, pred_b) -> np.ndarray:
    """Decision-level fusion by simple mean; argmax-equivalent to summing."""
    return (np.asarray(pred_a) + np.asarray(pred_b)) / 2.0


def late_aggregate_weighted(pred_a, pred_b, alpha, beta) -> np.ndarray:
    """Per-class weighted combination alpha*pred_a + beta*pred_b.

    The output is intentionally not renormalized: decisions take its argmax,
    and late-weighted's history.csv val_loss is the cross-entropy of its rows.
    Weights read from model.json are checked by load_model; derived ones are
    binary and complementary by construction.
    """
    pred_a, pred_b = np.asarray(pred_a), np.asarray(pred_b)
    return np.asarray(alpha, dtype=pred_a.dtype) * pred_a + np.asarray(beta, dtype=pred_b.dtype) * pred_b


def derive_weights(recall_a, recall_b) -> tuple[np.ndarray, np.ndarray]:
    """Binary complementary weights from per-class recalls of the two models.

    alpha[c] = 1 where model A recalled class c strictly better, else 0;
    beta = 1 - alpha, so ties go to model B.
    """
    alpha = (np.asarray(recall_a, dtype=np.float64) > np.asarray(recall_b, dtype=np.float64)).astype(np.float32)
    return alpha, 1.0 - alpha


def weights_from_confusions(cm_a, cm_b) -> tuple[np.ndarray, np.ndarray]:
    """derive_weights over the per-class recalls (row-normalized diagonals) of
    the two models' confusion matrices, e.g. on the validation split."""
    return derive_weights(np.diag(cm_a.row_normalized), np.diag(cm_b.row_normalized))


def _network_input(model: FusionModel, source: str, chips_a: np.ndarray, chips_b: np.ndarray) -> np.ndarray:
    if source == "a":
        return model.inputs_a(chips_a)
    if source == "b":
        return model.inputs_b(chips_b)
    return np.concatenate([model.inputs_a(chips_a), model.inputs_b(chips_b)], axis=-1)


def network_inputs(model: FusionModel, chips_a: np.ndarray, chips_b: np.ndarray) -> list[list[np.ndarray]]:
    """Each network's standardized input list for a batch of paired chips, in model.nets order."""
    return [[_network_input(model, source, chips_a, chips_b) for source in sources]
            for sources in NETWORK_INPUTS[model.paradigm]]


def _empty_inputs(model: FusionModel) -> list[list[np.ndarray]]:
    """network_inputs for a batch of no samples: a network run on them checks
    each layer's input shape and allocates no chip-sized array, whatever the
    chip shapes. Numpy raises ValueError for a shape it cannot describe. Call
    it before input stats are set: standardizing tiles them across the chip width."""
    return network_inputs(model, *(np.zeros((0, *shape), np.float32)
                                   for shape in (model.chip_shape_a, model.chip_shape_b)))


def decisions(model: FusionModel, preds) -> np.ndarray:
    """The model's (N, C) decisions from its networks' outputs, one per network in model.nets order."""
    if model.paradigm == "late-mean":
        return late_aggregate_mean(*preds)
    if model.paradigm == "late-weighted":
        return late_aggregate_weighted(*preds, model.alpha, model.beta)
    (pred,) = preds
    return pred


def modalities(model: FusionModel) -> str:
    """The modalities whose chips the model's networks read: a string holding "a", "b" or both."""
    return "".join(source for sources in NETWORK_INPUTS[model.paradigm] for source in sources)


def predict_batch(model: FusionModel, chips_a: np.ndarray | None, chips_b: np.ndarray | None,
                  turns: int = 1) -> np.ndarray:
    """Route a batch of N paired rows through the model in `turns` quarter turns each; returns
    (N * turns, C) decisions in (row, turn) order, the sample order of a data.Samples read in `turns`.

    The rows are passed unturned, and standardized once; with turns > 1 they
    are square, and the networks turn them (see nn.Network.infer). The chips
    of a modality the model does not read (see modalities) may be None.
    Forward only: the networks keep no layer cache.
    """
    for name, chips, shape in (("A", chips_a, model.chip_shape_a), ("B", chips_b, model.chip_shape_b)):
        if chips is not None and chips.shape[1:] != shape:
            raise DataError(f"modality-{name} chips {chips.shape[1:]} != model spec {shape}")
    inputs = network_inputs(model, chips_a, chips_b)
    return decisions(model, [net.infer(xs, turns) for net, xs in zip(model.nets, inputs)])


# --- on-disk model bundle --------------------------------------------------

MODEL_META = "model.json"


def save_model(out_dir, model: FusionModel) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, net in enumerate(model.nets):
        name = f"net_{i}.fnet"
        nn.save_network(out_dir / name, net)
        names.append(name)
    meta = {
        "paradigm": model.paradigm,
        "chip_shape_a": list(model.chip_shape_a),
        "chip_shape_b": list(model.chip_shape_b),
        "n_classes": model.n_classes,
        "class_names": None if model.class_names is None else list(model.class_names),
        "checkpoints": names,
        "alpha": None if model.alpha is None else [float(v) for v in model.alpha],
        "beta": None if model.beta is None else [float(v) for v in model.beta],
        "input_stats": None if model.input_stats is None else {
            name: [float(v) for v in getattr(model.input_stats, name)] for name in INPUT_STATS_KEYS
        },
    }
    (out_dir / MODEL_META).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _is_shape(value) -> bool:
    return isinstance(value, list) and len(value) == 3 and all(map(_is_count, value))


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)


def _is_weights(value) -> bool:
    return value is None or _is_numbers(value)


INPUT_STATS_KEYS = ("mean_a", "std_a", "mean_b", "std_b")


def _is_input_stats(value) -> bool:
    return value is None or (
        isinstance(value, dict) and set(value) == set(INPUT_STATS_KEYS) and all(map(_is_numbers, value.values()))
    )


# model.json key -> (test of its value, what the test asks for)
_META_KEYS = {
    "paradigm": (lambda v: isinstance(v, str) and v in PARADIGMS, f"one of {', '.join(PARADIGMS)}"),
    "chip_shape_a": (_is_shape, "a list of 3 positive integers"),
    "chip_shape_b": (_is_shape, "a list of 3 positive integers"),
    "n_classes": (_is_count, "a positive integer"),
    "checkpoints": (lambda v: isinstance(v, list) and len(v) > 0 and all(isinstance(n, str) for n in v),
                    "a non-empty list of file names"),
}
_OPTIONAL_META_KEYS = {
    "alpha": (_is_weights, "null or a list of numbers"),
    "beta": (_is_weights, "null or a list of numbers"),
    "input_stats": (_is_input_stats, f"null or an object of number lists {', '.join(INPUT_STATS_KEYS)}"),
    "class_names": (lambda v: v is None or (isinstance(v, list) and all(isinstance(n, str) for n in v)),
                    "null or a list of strings"),
}


def _float32s(meta_path: Path, key: str, numbers: list) -> np.ndarray:
    """model.json's number list at `key` in float32; DataError naming the key for a number whose float32 is not
    finite (NaN, infinite, or past float32's range)."""
    try:
        with np.errstate(over="ignore"):  # a float64 past float32's range casts to inf, refused below
            values = np.asarray(numbers, dtype=np.float64).astype(np.float32)
    except OverflowError:  # an integer past float64's range
        values = None
    if values is None or not np.isfinite(values).all():
        raise DataError(f"{meta_path}: {key} holds a number with no finite float32 (NaN, infinite or past 3.4e38)")
    return values


def load_model(model_dir) -> FusionModel:
    model_dir = Path(model_dir)
    meta_path = model_dir / MODEL_META
    if not meta_path.exists():
        raise DataError(f"{model_dir}: no {MODEL_META} found")
    meta = read_json_object(meta_path)
    missing = sorted(_META_KEYS.keys() - meta.keys())
    if missing:
        raise DataError(f"{meta_path}: missing key(s) {', '.join(missing)}")
    for key, (valid, wanted) in {**_META_KEYS, **_OPTIONAL_META_KEYS}.items():
        if not valid(meta.get(key)):
            raise DataError(f"{meta_path}: {key!r} must be {wanted}, got {meta[key]!r}")
    weighted = meta["paradigm"] == "late-weighted"
    if weighted and (meta.get("alpha") is None or meta.get("beta") is None):
        raise DataError(f"{meta_path}: a late-weighted model needs fusion weights, but alpha or beta is null")
    if not weighted and (meta.get("alpha") is not None or meta.get("beta") is not None):
        raise DataError(f"{meta_path}: a {meta['paradigm']} model takes no fusion weights, but alpha or beta is set")
    if meta["chip_shape_a"][:2] != meta["chip_shape_b"][:2]:  # no dataset pairs such chips
        raise DataError(f"{meta_path}: A chips {meta['chip_shape_a']} and B chips {meta['chip_shape_b']} "
                        f"differ in height and width")
    n_nets = len(NETWORK_INPUTS[meta["paradigm"]])
    if len(meta["checkpoints"]) != n_nets:
        raise DataError(f"{meta_path}: {meta['paradigm']} needs {n_nets} checkpoint(s), got {len(meta['checkpoints'])}")
    nets = [nn.load_network(model_dir / name) for name in meta["checkpoints"]]
    n_classes, class_names = meta["n_classes"], meta.get("class_names")
    if class_names is not None and len(class_names) != n_classes:
        raise DataError(f"{meta_path}: {n_classes} classes need {n_classes} class names, got {class_names}")
    model = FusionModel(meta["paradigm"], nets, tuple(meta["chip_shape_a"]), tuple(meta["chip_shape_b"]), n_classes,
                        class_names=None if class_names is None else tuple(class_names))
    try:
        inputs = _empty_inputs(model)
    except ValueError as exc:  # a chip shape numpy cannot describe
        raise DataError(f"{meta_path}: chip shapes {model.chip_shape_a} and {model.chip_shape_b}: {exc}") from exc
    for name, net, xs in zip(meta["checkpoints"], nets, inputs):
        try:
            out = net.infer(xs)
        except ValueError as exc:  # a layer's DataError or numpy's: a layer cannot read what reaches it
            raise DataError(f"{model_dir / name}: {exc}") from exc
        if out.shape[1:] != (n_classes,):
            raise DataError(f"{model_dir / name}: the network must output {n_classes} classes, it gives "
                            f"{' x '.join(map(str, out.shape[1:]))}")
        last = net.head if len(net.branches) > 1 else net.branches[0]  # the layers that give the output
        tail = [layer.kind for layer in last[-2:]]
        if tail != ["dense", "softmax"]:  # late fusion combines class probabilities; matmul finite-checks logits
            fault = "end in a softmax layer" if tail[-1:] != ["softmax"] else "give its softmax a dense layer's output"
            raise DataError(f"{model_dir / name}: the network must {fault}")
    if weighted:
        alpha, beta = (_float32s(meta_path, key, meta[key]) for key in ("alpha", "beta"))
        if alpha.shape != (n_classes,) or beta.shape != (n_classes,):
            raise DataError(f"{meta_path}: fusion weights must be length {n_classes}, got {alpha.shape} and {beta.shape}")
        if not np.isin([alpha, beta], (0.0, 1.0)).all():
            raise DataError(f"{meta_path}: fusion weights must be binary (0 or 1 per class)")
        if not np.all(alpha + beta == 1.0):
            raise DataError(f"{meta_path}: fusion weights must be complementary: alpha[c] + beta[c] == 1 for every class")
        model.alpha, model.beta = alpha, beta
    if meta.get("input_stats") is not None:
        stats = {key: _float32s(meta_path, f"input_stats.{key}", meta["input_stats"][key])
                 for key in INPUT_STATS_KEYS}
        for (key, value), n in zip(stats.items(), (model.chip_shape_a[2],) * 2 + (model.chip_shape_b[2],) * 2):
            if value.shape != (n,):
                raise DataError(f"{meta_path}: input stats {key} must be {n} values, got {value.tolist()}")
        if not ((stats["std_a"] > 0).all() and (stats["std_b"] > 0).all()):
            raise DataError(f"{meta_path}: input stats std_a and std_b must be positive")
        model.input_stats = InputStats(**stats)
    return model
