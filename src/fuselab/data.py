"""Dataset pipeline: paired two-modality chips, class labels, splits,
augmentation, synthetic generation, and the bit-exact chip file format.

A sample is one geographic location observed by two sensors: a SAR-like
modality A chip (H, W, P) with multiplicative speckle, and a
multispectral-like modality B chip (H, W, B) with additive noise. Its label
is an integer class index into the dataset's class names.

In memory, each split is one Samples: its manifest records, their class
indices, and its chips as two contiguous (N, H, W, C) float32 arrays, held
once.
Augmentation copies no chip: it sets each split's `turns` to split_turns, 4
or 1, and sample j is row j // turns turned (j % turns) quarter turns, read
turned when a batch is stacked.

One reader checks a dataset directory's chips, record by record in manifest
order, for both of its consumers: load_dataset fills every split's arrays from
it, and stream_split hands one split out a few rows at a time, reading and
dropping the other splits' chips, so eval's memory does not grow with the
dataset.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import read_text
from .errors import DataError

CLASS_NAMES = ("city", "coastline", "lake", "river", "vegetation")

SPLITS = ("train", "val", "test")
DEFAULT_FRACTIONS = (0.85, 0.10, 0.05)

# synthetic generative model constants: pattern amplitude and the two noise sigmas
PATTERN_AMP = 0.6
SPECKLE_SIGMA = 0.35
GAUSS_SIGMA = 0.35


def class_names_for(n_classes: int) -> tuple[str, ...]:
    if n_classes <= len(CLASS_NAMES):
        return CLASS_NAMES[:n_classes]
    return CLASS_NAMES + tuple(f"class{i}" for i in range(len(CLASS_NAMES), n_classes))


@dataclass
class Samples:
    """One split: N rows of manifest records and chips, read as turns * N samples; sample j
    is row j // turns turned (j % turns) quarter turns, both chips together."""

    records: list  # (N,) manifest records: id, class, lat, lon, chip_a, chip_b
    classes: np.ndarray  # (N,) int64 indices of the records' classes
    chips_a: np.ndarray  # (N, H, W, P) float32
    chips_b: np.ndarray  # (N, H, W, B) float32
    turns: int = 1

    def __len__(self) -> int:
        return self.turns * len(self.classes)

    def chips(self, index, modalities: str = "ab") -> tuple[np.ndarray | None, np.ndarray | None]:
        """The A and B chips of the samples in index, each stacked into one new (n, H, W, C) array;
        a modality not named in modalities ("a", "b" or "ab") is None.

        Each modality is turned once per turn, as a view, and every sample's chip is copied once
        from its turn's view into the batch.
        """
        rows, turn = np.divmod(np.asarray(index, dtype=np.intp), self.turns)
        samples = list(zip(turn.tolist(), rows.tolist()))

        def stack(arr):
            turned = [np.rot90(arr, k, axes=(1, 2)) for k in range(self.turns)]
            batch = np.empty((len(samples), *arr.shape[1:]), arr.dtype)
            for i, (k, row) in enumerate(samples):
                batch[i] = turned[k][row]
            return batch

        return stack(self.chips_a) if "a" in modalities else None, stack(self.chips_b) if "b" in modalities else None

    def truth(self, index=None) -> np.ndarray:
        """The class index of each sample in index (of every sample by default)."""
        index = np.arange(len(self)) if index is None else np.asarray(index)
        return self.classes[index // self.turns]

    def take(self, rows) -> Samples:
        """The unturned samples of the given rows, copied."""
        return Samples([self.records[i] for i in rows], self.classes[rows], self.chips_a[rows], self.chips_b[rows])


@dataclass
class DatasetSplit:
    train: Samples
    val: Samples
    test: Samples
    class_names: tuple

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.val), len(self.test)


def _partition(classes, n_classes: int, fractions, seed: int, stratified: bool) -> list:
    """Row indices of train, val and test over a non-empty class list; floor sizes, remainder to train."""
    _, f_val, f_test = fractions
    rng = np.random.default_rng(seed)

    def carve(rows):
        rows = rows[rng.permutation(len(rows))]
        n_val = int(len(rows) * f_val)
        n_test = int(len(rows) * f_test)
        n_train = len(rows) - n_val - n_test
        return rows[:n_train], rows[n_train : n_train + n_val], rows[n_train + n_val :]

    if stratified:
        parts = [carve(np.flatnonzero(classes == c)) for c in range(n_classes)]
    else:
        parts = [carve(np.arange(len(classes)))]
    return [np.concatenate([part[i] for part in parts]) for i in range(3)]


def split(samples: Samples, fractions=DEFAULT_FRACTIONS, seed: int = 0, stratified: bool = True) -> DatasetSplit:
    """Deterministic train/val/test partition of unturned samples, stratified by samples.classes. Its
    class names are its records', in the order load_dataset reads them back, and its class indices theirs."""
    names = _class_names(samples.records)
    labelled = _samples(samples.records, names, samples.chips_a, samples.chips_b)
    parts = _partition(samples.classes, len(names), fractions, seed, stratified)
    return DatasetSplit(*(labelled.take(rows) for rows in parts), names)


def _require_square(hw) -> None:
    h, w = hw
    if h != w:
        raise DataError(f"augmentation needs square chips, got {h}x{w}")


def split_turns(name: str, augment_eval: bool) -> int:
    """How many quarter turns of each row the named split is read in: 4 for
    train always, and for val and test unless augment_eval is off; else 1."""
    return 4 if name == "train" or augment_eval else 1


def augment(dsplit: DatasetSplit, augment_eval: bool = True) -> DatasetSplit:
    """Grow each split by its split_turns: every sample plus its 90/180/270 degree
    rotations, or the sample alone. Both chips of a sample rotate together,
    rotated samples never cross split boundaries, and no chip is copied."""
    _require_square(dsplit.train.chips_a.shape[1:3])  # every split's chips share one shape
    return DatasetSplit(*(replace(getattr(dsplit, name), turns=split_turns(name, augment_eval))
                          for name in SPLITS), dsplit.class_names)


# --- synthetic generation ----------------------------------------------------


@dataclass(frozen=True)
class SeparabilityPlan:
    """Which modality carries each class's signature.

    alias_a[c] (and alias_b[c]) name the class whose spatial pattern class c
    wears in that modality. alias_a[c] == c means c is separable there; an
    alias to another class makes c statistically identical to it in that
    modality, so only the other modality can tell them apart.
    """

    alias_a: tuple
    alias_b: tuple


def default_plan(n_classes: int) -> SeparabilityPlan:
    """One class separable only in A, one only in B, the rest in both.

    Defaults mirror the classic SAR/optical trade-off: the last class
    (vegetation) hides in modality A behind class 0, and class 2 (lake)
    hides in modality B behind class 1.
    """
    alias_a = list(range(n_classes))
    alias_b = list(range(n_classes))
    if n_classes >= 2:
        alias_a[n_classes - 1] = 0
    if n_classes >= 3:
        alias_b[2] = 1
    return SeparabilityPlan(tuple(alias_a), tuple(alias_b))


def _ring_pattern(freq: float, size: int) -> np.ndarray:
    # radial sinusoid: invariant under 90-degree rotations of the square chip
    axis = np.arange(size) - (size - 1) / 2.0
    r = np.hypot(axis[:, None], axis[None, :])
    return np.sin(2.0 * np.pi * freq * r / size)


def _channel_gains(n_channels: int) -> np.ndarray:
    return 0.5 + 0.5 * (np.arange(n_channels) + 1) / n_channels


def generative_fields(
    plan: SeparabilityPlan, size: int, channels_a: int, channels_b: int, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free per-class mean fields (C,size,size,P) and (C,size,size,B), float64.

    Aliased classes share a mean field exactly; these fields plus the noise
    sigmas fully determine the generative distribution, which is what the
    Bayes-oracle tests build on.
    """
    gains_a = _channel_gains(channels_a)
    gains_b = _channel_gains(channels_b)
    means_a = np.empty((n_classes, size, size, channels_a))
    means_b = np.empty((n_classes, size, size, channels_b))
    for c in range(n_classes):
        ring_a = _ring_pattern(plan.alias_a[c] + 1.0, size)
        ring_b = _ring_pattern(plan.alias_b[c] + 1.0, size)
        means_a[c] = 1.0 + PATTERN_AMP * ring_a[:, :, None] * gains_a
        means_b[c] = 1.0 + PATTERN_AMP * ring_b[:, :, None] * gains_b
    return means_a, means_b


def synth_generate(
    per_class: int,
    size: int = 64,
    channels_a: int = 2,
    channels_b: int = 13,
    n_classes: int = 5,
    seed: int = 0,
    plan: SeparabilityPlan | None = None,
) -> Samples:
    """Seeded class-conditional random fields on square size x size chips,
    `per_class` samples per class, labelled by class_names_for(n_classes).

    Modality A gets unit-mean lognormal (speckle-like) multiplicative noise,
    modality B additive Gaussian noise.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if n_classes < 1:
        raise ValueError(f"classes must be >= 1, got {n_classes}")
    if min(size, channels_a, channels_b) < 1:
        raise ValueError(f"chip size and channel counts must be >= 1, got {size}x{size}, "
                         f"P={channels_a}, B={channels_b}")
    plan = plan or default_plan(n_classes)
    names = class_names_for(n_classes)
    means_a, means_b = generative_fields(plan, size, channels_a, channels_b, n_classes)
    rng = np.random.default_rng(seed)
    n = n_classes * per_class
    samples = Samples([], np.repeat(np.arange(n_classes), per_class),
                      np.empty((n, size, size, channels_a), np.float32),
                      np.empty((n, size, size, channels_b), np.float32))
    for row, c in enumerate(samples.classes):
        sid = f"{names[c]}-{row % per_class:04d}"
        samples.records.append({"id": sid, "class": names[c], "lat": rng.uniform(-55.0, 70.0),
                                "lon": rng.uniform(-180.0, 180.0), "chip_a": _chip_filename(sid, "a"),
                                "chip_b": _chip_filename(sid, "b")})
        speckle = np.exp(SPECKLE_SIGMA * rng.standard_normal((size, size, channels_a)) - SPECKLE_SIGMA**2 / 2.0)
        samples.chips_a[row] = means_a[c] * speckle
        samples.chips_b[row] = means_b[c] + GAUSS_SIGMA * rng.standard_normal((size, size, channels_b))
    return samples


# --- chip file format (FCHP) -------------------------------------------------
# magic "FCHP", u16 LE version=1, u16 reserved=0, u32 LE W, u32 LE H,
# u32 LE C, then W*H*C float32 LE values, row-major, channel-last.

CHIP_MAGIC = b"FCHP"
CHIP_VERSION = 1
_HEADER = struct.Struct("<4sHHIII")


def save_chip(path, chip: np.ndarray) -> None:
    """Write one (H, W, C) chip."""
    h, w, c = chip.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CHIP_MAGIC, CHIP_VERSION, 0, w, h, c))
        fh.write(np.ascontiguousarray(chip, dtype="<f4").tobytes())


def load_chip(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != CHIP_MAGIC:
        raise DataError(f"{path}: bad magic, not a chip file")
    if len(data) < _HEADER.size:
        raise DataError(f"{path}: header truncated ({len(data)} bytes)")
    _, version, _, w, h, c = _HEADER.unpack_from(data)
    if version != CHIP_VERSION:
        raise DataError(f"{path}: chip format version {version}, expected {CHIP_VERSION}")
    if 0 in (w, h, c):
        raise DataError(f"{path}: header claims a {w}x{h}x{c} chip, which holds no value")
    expected = _HEADER.size + 4 * w * h * c
    if len(data) < expected:
        raise DataError(
            f"{path}: truncated payload, header claims {w}x{h}x{c} ({expected} bytes), file has {len(data)}"
        )
    if len(data) > expected:
        raise DataError(f"{path}: {len(data) - expected} trailing bytes after payload")
    chip = np.frombuffer(data, dtype="<f4", offset=_HEADER.size).reshape(h, w, c)
    if not np.isfinite(chip).all():
        raise DataError(f"{path}: {chip.size - np.isfinite(chip).sum()} non-finite value(s) in the payload")
    return chip.copy()


# --- dataset directory: chips/ + manifest.jsonl -------------------------------

MANIFEST_NAME = "manifest.jsonl"


def _chip_filename(sample_id: str, modality: str) -> str:
    return f"chips/{sample_id.replace('#', '_')}_{modality}.fchp"


def _write_manifest(manifest: Path, groups) -> None:
    """Write each split's records, train then val then test, one sorted-key JSON object a line."""
    manifest.write_text("".join(json.dumps({**rec, "split": name}, sort_keys=True) + "\n"
                                for name in SPLITS for rec in groups[name]))


def save_dataset(out_dir, dsplit: DatasetSplit) -> None:
    """Write each record's chips to its chip_a and chip_b paths under out_dir, then the manifest."""
    out_dir = Path(out_dir)
    (out_dir / "chips").mkdir(parents=True, exist_ok=True)
    for name in SPLITS:
        samples = getattr(dsplit, name)
        for rec, chip_a, chip_b in zip(samples.records, samples.chips_a, samples.chips_b):
            save_chip(out_dir / rec["chip_a"], chip_a)
            save_chip(out_dir / rec["chip_b"], chip_b)
    _write_manifest(out_dir / MANIFEST_NAME, {name: getattr(dsplit, name).records for name in SPLITS})


def _read_manifest(dataset_dir: Path) -> tuple[Path, list, tuple]:
    """The manifest's path, its records in file order and the dataset's class names; DataError if it has none."""
    manifest = dataset_dir / MANIFEST_NAME
    if not manifest.exists():
        raise DataError(f"{dataset_dir}: no {MANIFEST_NAME} found")
    records = []
    for ln, line in enumerate(read_text(manifest).splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested deeper than the parser recurses
            raise DataError(f"{manifest}:{ln}: invalid JSON record: {exc}") from exc
        if not isinstance(rec, dict):
            raise DataError(f"{manifest}:{ln}: a record must be a JSON object, got {type(rec).__name__}")
        missing = {"id", "class", "lat", "lon", "chip_a", "chip_b", "split"} - rec.keys()
        if missing:
            raise DataError(f"{manifest}:{ln}: record missing fields {sorted(missing)}")
        for key in ("id", "class", "chip_a", "chip_b"):
            if not isinstance(rec[key], str):
                raise DataError(f"{manifest}:{ln}: {key} must be a string, got {rec[key]!r}")
        if rec["split"] not in SPLITS:
            raise DataError(f"{manifest}:{ln}: bad split {rec['split']!r}")
        if any(isinstance(rec[k], bool) or not isinstance(rec[k], (int, float)) for k in ("lat", "lon")):
            raise DataError(f"{manifest}:{ln}: lat and lon must be numbers, got {rec['lat']!r} and {rec['lon']!r}")
        records.append(rec)
    if not records:
        raise DataError(f"{manifest}: no records")
    return manifest, records, _class_names(records)


def _class_names(records) -> tuple:
    """The classes the records name: those of CLASS_NAMES in its order, then the others sorted."""
    present = {r["class"] for r in records}
    return tuple([n for n in CLASS_NAMES if n in present] + sorted(present - set(CLASS_NAMES)))


def _read_pairs(dataset_dir: Path, records):
    """Yield (record, chip A, chip B) for each record, in order, reading and checking its chips.

    Each chip passes load_chip's checks and has the shape of its modality's
    first chip, and each B chip has its A chip's height and width.
    """
    first = {}  # chip key -> (shape, path) of the modality's first chip
    for rec in records:
        pair = []
        for key in ("chip_a", "chip_b"):
            path = dataset_dir / rec[key]
            chip = load_chip(path)
            shape, first_path = first.setdefault(key, (chip.shape, path))
            if chip.shape != shape:
                raise DataError(f"{path}: chip shape {chip.shape} differs from {shape} of {first_path}")
            pair.append(chip)
        chip_a, chip_b = pair
        if chip_b.shape[:2] != chip_a.shape[:2]:  # the modalities observe one location on one grid
            raise DataError(f"{dataset_dir / rec['chip_b']}: chip height and width {chip_b.shape[:2]} differ "
                            f"from {chip_a.shape[:2]} of {dataset_dir / rec['chip_a']}")
        yield rec, chip_a, chip_b


def _samples(records, class_names, chips_a, chips_b, turns: int = 1) -> Samples:
    """The Samples of the given manifest records, holding the given chips."""
    return Samples(list(records), np.array([class_names.index(r["class"]) for r in records], dtype=np.int64),
                   chips_a, chips_b, turns)


def load_dataset(dataset_dir) -> DatasetSplit:
    """Read a dataset directory; each split's chips go into its own preallocated arrays."""
    dataset_dir = Path(dataset_dir)
    _, records, class_names = _read_manifest(dataset_dir)
    groups = {name: [r for r in records if r["split"] == name] for name in SPLITS}
    splits = {}
    filled = dict.fromkeys(SPLITS, 0)
    for rec, chip_a, chip_b in _read_pairs(dataset_dir, records):
        if not splits:  # the first pair fixes the chip shapes
            splits = {name: _samples(group, class_names, np.empty((len(group), *chip_a.shape), np.float32),
                                     np.empty((len(group), *chip_b.shape), np.float32))
                      for name, group in groups.items()}
        samples, row = splits[rec["split"]], filled[rec["split"]]
        samples.chips_a[row], samples.chips_b[row] = chip_a, chip_b
        filled[rec["split"]] += 1
    return DatasetSplit(*(splits[name] for name in SPLITS), class_names)


def stream_split(dataset_dir, name: str, rows: int, turns: int = 1) -> tuple[tuple, int, Iterator[Samples]]:
    """Read one split of a dataset directory in chunks of rows, holding no other chip.

    Returns the dataset's class names and the split's row count, both from the
    manifest, and a generator of the split's Samples, `rows` rows each (the
    last may hold fewer) with `turns` set. The generator reads and checks
    every record's chips in manifest order, as load_dataset does, keeps only
    the split's, and ends after the last record's chips. The chips must be
    square, as augment requires (models train on augmented splits).
    """
    dataset_dir = Path(dataset_dir)
    _, records, class_names = _read_manifest(dataset_dir)

    def chunk(held) -> Samples:
        recs, chips_a, chips_b = zip(*held)
        return _samples(recs, class_names, np.stack(chips_a), np.stack(chips_b), turns)

    def chunks():
        held = []
        for rec, chip_a, chip_b in _read_pairs(dataset_dir, records):
            _require_square(chip_a.shape[:2])
            if rec["split"] != name:
                continue
            held.append((rec, chip_a, chip_b))
            if len(held) == rows:
                yield chunk(held)
                held = []
        if held:
            yield chunk(held)

    return class_names, sum(r["split"] == name for r in records), chunks()


def resplit(dataset_dir, fractions=DEFAULT_FRACTIONS, seed: int = 0, stratified: bool = True) -> tuple:
    """Reassign the split of every record in a dataset's manifest, as split() would
    partition the loaded dataset, and return the new split sizes.

    Each record keeps every other field as read (class name, chip paths,
    coordinates); records are written grouped by their new split.
    """
    manifest, records, class_names = _read_manifest(Path(dataset_dir))
    records.sort(key=lambda r: SPLITS.index(r["split"]))  # load_dataset's sample order
    classes = np.array([class_names.index(r["class"]) for r in records])
    parts = _partition(classes, len(class_names), fractions, seed, stratified)
    _write_manifest(manifest, {name: [records[i] for i in rows] for name, rows in zip(SPLITS, parts)})
    return tuple(len(rows) for rows in parts)
