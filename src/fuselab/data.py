"""Dataset pipeline: paired two-modality chips, labels, splits, augmentation,
synthetic generation, and the bit-exact chip file format.

A sample is one geographic location observed by two sensors: a SAR-like
modality A chip (H, W, P) with multiplicative speckle, and a
multispectral-like modality B chip (H, W, B) with additive noise. Labels are
one-hot over the land-cover classes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadMagicError, DataError, ShapeError, TruncatedPayloadError, VersionMismatchError

CLASS_NAMES = ("city", "coastline", "lake", "river", "vegetation")

DEFAULT_FRACTIONS = (0.85, 0.10, 0.05)

# synthetic generative model knobs
PATTERN_AMP = 0.6
SPECKLE_SIGMA = 0.35
GAUSS_SIGMA = 0.35


def class_names_for(n_classes: int) -> tuple[str, ...]:
    if n_classes <= len(CLASS_NAMES):
        return CLASS_NAMES[:n_classes]
    return CLASS_NAMES + tuple(f"class{i}" for i in range(len(CLASS_NAMES), n_classes))


@dataclass
class SamplePair:
    id: str
    lat: float
    lon: float
    class_index: int
    chip_a: np.ndarray  # (H, W, P) float32
    chip_b: np.ndarray  # (H, W, B) float32
    label: np.ndarray  # one-hot (C,)


@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list
    class_names: tuple

    def all_samples(self) -> list:
        return self.train + self.val + self.test

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.val), len(self.test)


def one_hot(class_index: int, n_classes: int) -> np.ndarray:
    if not 0 <= class_index < n_classes:
        raise ValueError(f"class index {class_index} out of range 0..{n_classes - 1}")
    label = np.zeros(n_classes, dtype=np.float32)
    label[class_index] = 1.0
    return label


def split(samples, fractions=DEFAULT_FRACTIONS, seed: int = 0, stratified: bool = True) -> DatasetSplit:
    """Deterministic train/val/test partition; floor sizes, remainder to train."""
    if not samples:
        raise ValueError("cannot split an empty sample list")
    if len(fractions) != 3 or any(not 0.0 < f < 1.0 for f in fractions):
        raise ValueError(f"fractions must be three values in (0,1), got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    _, f_val, f_test = fractions
    n_classes = len(samples[0].label)
    rng = np.random.default_rng(seed)

    def carve(group):
        order = rng.permutation(len(group))
        n_val = int(len(group) * f_val)
        n_test = int(len(group) * f_test)
        n_train = len(group) - n_val - n_test
        shuffled = [group[i] for i in order]
        return (
            shuffled[:n_train],
            shuffled[n_train : n_train + n_val],
            shuffled[n_train + n_val :],
        )

    if stratified:
        train, val, test = [], [], []
        for c in range(n_classes):
            group = [s for s in samples if s.class_index == c]
            tr, va, te = carve(group)
            train += tr
            val += va
            test += te
    else:
        train, val, test = carve(list(samples))
    return DatasetSplit(train, val, test, class_names_for(n_classes))


_ROT_SUFFIX = {1: "#r90", 2: "#r180", 3: "#r270"}


def _rotations(sample: SamplePair) -> list:
    out = [sample]
    for k, suffix in _ROT_SUFFIX.items():
        out.append(
            SamplePair(
                id=sample.id + suffix,
                lat=sample.lat,
                lon=sample.lon,
                class_index=sample.class_index,
                chip_a=np.rot90(sample.chip_a, k, axes=(0, 1)),
                chip_b=np.rot90(sample.chip_b, k, axes=(0, 1)),
                label=sample.label,
            )
        )
    return out


def augment(dsplit: DatasetSplit) -> DatasetSplit:
    """Grow every split 4x: each sample plus its 90/180/270 degree rotations.

    Both chips of a sample rotate together. Applied to train, val and test
    alike; rotated copies never cross split boundaries.
    """
    for s in dsplit.all_samples():
        h, w = s.chip_a.shape[:2]
        if h != w:
            raise ShapeError(f"augmentation needs square chips, sample {s.id} is {h}x{w}")
    return DatasetSplit(
        train=[r for s in dsplit.train for r in _rotations(s)],
        val=[r for s in dsplit.val for r in _rotations(s)],
        test=[r for s in dsplit.test for r in _rotations(s)],
        class_names=dsplit.class_names,
    )


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

    def visibility(self, c: int) -> str:
        vis_a = self.alias_a[c] == c
        vis_b = self.alias_b[c] == c
        if vis_a and vis_b:
            return "both"
        return "a_only" if vis_a else "b_only"


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


def _ring_pattern(freq: float, height: int, width: int) -> np.ndarray:
    # radial sinusoid: invariant under 90-degree rotations of a square chip
    rows = np.arange(height) - (height - 1) / 2.0
    cols = np.arange(width) - (width - 1) / 2.0
    r = np.hypot(rows[:, None], cols[None, :])
    return np.sin(2.0 * np.pi * freq * r / max(height, width))


def _channel_gains(n_channels: int) -> np.ndarray:
    return 0.5 + 0.5 * (np.arange(n_channels) + 1) / n_channels


def generative_fields(
    plan: SeparabilityPlan,
    width: int,
    height: int,
    channels_a: int,
    channels_b: int,
    n_classes: int,
    amp: float = PATTERN_AMP,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free per-class mean fields (C,H,W,P) and (C,H,W,B), float64.

    Aliased classes share a mean field exactly; these fields plus the noise
    sigmas fully determine the generative distribution, which is what the
    Bayes-oracle tests build on.
    """
    gains_a = _channel_gains(channels_a)
    gains_b = _channel_gains(channels_b)
    means_a = np.empty((n_classes, height, width, channels_a))
    means_b = np.empty((n_classes, height, width, channels_b))
    for c in range(n_classes):
        ring_a = _ring_pattern(plan.alias_a[c] + 1.0, height, width)
        ring_b = _ring_pattern(plan.alias_b[c] + 1.0, height, width)
        means_a[c] = 1.0 + amp * ring_a[:, :, None] * gains_a
        means_b[c] = 1.0 + amp * ring_b[:, :, None] * gains_b
    return means_a, means_b


def synth_generate(
    per_class: int,
    width: int = 64,
    height: int = 64,
    channels_a: int = 2,
    channels_b: int = 13,
    n_classes: int = 5,
    seed: int = 0,
    plan: SeparabilityPlan | None = None,
    amp: float = PATTERN_AMP,
    speckle_sigma: float = SPECKLE_SIGMA,
    gauss_sigma: float = GAUSS_SIGMA,
) -> list:
    """Seeded class-conditional random fields, `per_class` samples per class.

    Modality A gets unit-mean lognormal (speckle-like) multiplicative noise,
    modality B additive Gaussian noise.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    plan = plan or default_plan(n_classes)
    names = class_names_for(n_classes)
    means_a, means_b = generative_fields(plan, width, height, channels_a, channels_b, n_classes, amp)
    rng = np.random.default_rng(seed)
    samples = []
    for c in range(n_classes):
        label = one_hot(c, n_classes)
        for i in range(per_class):
            lat = float(rng.uniform(-55.0, 70.0))
            lon = float(rng.uniform(-180.0, 180.0))
            speckle = np.exp(
                speckle_sigma * rng.standard_normal((height, width, channels_a)) - speckle_sigma**2 / 2.0
            )
            chip_a = (means_a[c] * speckle).astype(np.float32)
            chip_b = (means_b[c] + gauss_sigma * rng.standard_normal((height, width, channels_b))).astype(
                np.float32
            )
            samples.append(
                SamplePair(
                    id=f"{names[c]}-{i:04d}",
                    lat=lat,
                    lon=lon,
                    class_index=c,
                    chip_a=chip_a,
                    chip_b=chip_b,
                    label=label,
                )
            )
    return samples


# --- chip file format (FCHP) -------------------------------------------------
# magic "FCHP", u16 LE version=1, u16 reserved=0, u32 LE W, u32 LE H,
# u32 LE C, then W*H*C float32 LE values, row-major, channel-last.

CHIP_MAGIC = b"FCHP"
CHIP_VERSION = 1
_HEADER = struct.Struct("<4sHHIII")


def save_chip(path, chip: np.ndarray) -> None:
    chip = np.asarray(chip)
    if chip.ndim != 3:
        raise ShapeError(f"chips are (H, W, C) arrays, got shape {chip.shape}")
    h, w, c = chip.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CHIP_MAGIC, CHIP_VERSION, 0, w, h, c))
        fh.write(np.ascontiguousarray(chip, dtype="<f4").tobytes())


def load_chip(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != CHIP_MAGIC:
        raise BadMagicError(f"{path}: bad magic, not a chip file")
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: header truncated ({len(data)} bytes)")
    _, version, _, w, h, c = _HEADER.unpack_from(data)
    if version != CHIP_VERSION:
        raise VersionMismatchError(f"{path}: chip format version {version}, expected {CHIP_VERSION}")
    expected = _HEADER.size + 4 * w * h * c
    if len(data) < expected:
        raise TruncatedPayloadError(
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


def save_manifest(out_dir, dsplit: DatasetSplit) -> None:
    lines = []
    for split_name, group in (("train", dsplit.train), ("val", dsplit.val), ("test", dsplit.test)):
        for s in group:
            lines.append(
                json.dumps(
                    {
                        "id": s.id,
                        "class": dsplit.class_names[s.class_index],
                        "lat": s.lat,
                        "lon": s.lon,
                        "chip_a": _chip_filename(s.id, "a"),
                        "chip_b": _chip_filename(s.id, "b"),
                        "split": split_name,
                    },
                    sort_keys=True,
                )
            )
    (Path(out_dir) / MANIFEST_NAME).write_text("\n".join(lines) + "\n")


def save_dataset(out_dir, dsplit: DatasetSplit) -> None:
    out_dir = Path(out_dir)
    (out_dir / "chips").mkdir(parents=True, exist_ok=True)
    for s in dsplit.all_samples():
        save_chip(out_dir / _chip_filename(s.id, "a"), s.chip_a)
        save_chip(out_dir / _chip_filename(s.id, "b"), s.chip_b)
    save_manifest(out_dir, dsplit)


def load_dataset(dataset_dir) -> DatasetSplit:
    dataset_dir = Path(dataset_dir)
    manifest = dataset_dir / MANIFEST_NAME
    if not manifest.exists():
        raise DataError(f"{dataset_dir}: no {MANIFEST_NAME} found")
    records = []
    for ln, line in enumerate(manifest.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest}:{ln}: invalid JSON record: {exc}") from exc
        missing = {"id", "class", "lat", "lon", "chip_a", "chip_b", "split"} - rec.keys()
        if missing:
            raise DataError(f"{manifest}:{ln}: record missing fields {sorted(missing)}")
        if rec["split"] not in ("train", "val", "test"):
            raise DataError(f"{manifest}:{ln}: bad split {rec['split']!r}")
        records.append(rec)
    present = {r["class"] for r in records}
    known = [n for n in CLASS_NAMES if n in present]
    class_names = tuple(known + sorted(present - set(CLASS_NAMES)))
    index = {n: i for i, n in enumerate(class_names)}
    groups = {"train": [], "val": [], "test": []}
    first = {}  # chip key -> (shape, path) of the modality's first chip

    def chip(rec, key):
        path = dataset_dir / rec[key]
        arr = load_chip(path)
        shape, first_path = first.setdefault(key, (arr.shape, path))
        if arr.shape != shape:
            raise DataError(f"{path}: chip shape {arr.shape} differs from {shape} of {first_path}")
        return arr

    for rec in records:
        c = index[rec["class"]]
        chip_a, chip_b = chip(rec, "chip_a"), chip(rec, "chip_b")
        if chip_b.shape[:2] != chip_a.shape[:2]:  # the modalities observe one location on one grid
            raise DataError(f"{dataset_dir / rec['chip_b']}: chip height and width {chip_b.shape[:2]} differ "
                            f"from {chip_a.shape[:2]} of {dataset_dir / rec['chip_a']}")
        groups[rec["split"]].append(
            SamplePair(
                id=rec["id"],
                lat=rec["lat"],
                lon=rec["lon"],
                class_index=c,
                chip_a=chip_a,
                chip_b=chip_b,
                label=one_hot(c, len(class_names)),
            )
        )
    return DatasetSplit(groups["train"], groups["val"], groups["test"], class_names)
