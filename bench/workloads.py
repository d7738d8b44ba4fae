"""The benchmark's workloads: how each one sets up, runs and is checked.

Every fuselab command goes through `fuselab.cli.main` in the calling process.
A workload's inputs come only from `dataset synth` with seeds derived from the
workload seed; the timed commands receive nothing but the generated files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path
from statistics import mean

ROOT = Path(__file__).resolve().parent.parent  # the checkout whose src/fuselab is measured
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_process() -> None:
    """Cap BLAS threads at nproc and make `import fuselab` load ROOT/src.

    Must run before numpy is imported. Exits with an error message (status 1)
    when the checkout holds no fuselab sources. FUSELAB_* variables are
    dropped so the caller's environment cannot change the workload.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(nproc, int(current)) if current.isdigit() and int(current) > 0 else nproc)
    for var in [v for v in os.environ if v.startswith("FUSELAB_")]:
        del os.environ[var]
    package = ROOT / "src" / "fuselab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no fuselab sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import fuselab

    if Path(fuselab.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported fuselab from {fuselab.__file__}, expected {package}")


# Fixed description of what `compare` trains, used to count samples from the
# workload's shape: networks per paradigm (late fusion trains two backbones).
PARADIGM_NETS = {"single-a": 1, "single-b": 1, "early": 1, "joint": 1, "late-mean": 2, "late-weighted": 2}
FUSION_PARADIGMS = ("early", "joint", "late-mean", "late-weighted")
AUGMENT_FACTOR = 4  # each sample plus its three rotations


class CheckFailed(Exception):
    """A command exited non-zero or its outputs are wrong."""


def call(argv) -> str:
    """Run one fuselab command in-process; return its stdout, raise on non-zero exit."""
    from fuselab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"`fuselab {' '.join(map(str, argv))}` exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def split_sizes(data_dir) -> dict:
    """Records per split in a dataset manifest."""
    sizes = {"train": 0, "val": 0, "test": 0}
    for line in (Path(data_dir) / "manifest.jsonl").read_text().splitlines():
        if line.strip():
            sizes[json.loads(line)["split"]] += 1
    return sizes


def last_train_loss(history_csv) -> float:
    rows = list(csv.DictReader(Path(history_csv).read_text().splitlines()))
    if not rows:
        raise CheckFailed(f"{history_csv} has no epochs")
    return float(rows[-1]["train_loss"])


def confusion_total(path) -> int:
    from fuselab import evaluation

    return evaluation.parse_confusion_csv(path).total


class CompareLite:
    """`dataset synth`, then `compare` and an `eval` of the selected paradigm.

    The command users wait on, at the default geometry (64x64, P=2/B=13,
    5 classes, batch 16, Adam) with 10 samples per class and one epoch: the
    least that still gives every class a validation sample. Its time goes to
    conv forward/backward, the optimizer and batch stacking.
    """

    name = "compare-lite"

    def __init__(self, tiny: bool):
        self.size = 16 if tiny else 64
        self.per_class = 10
        self.epochs = 1

    def setup(self, seed: int, root: Path) -> None:
        call(["dataset", "synth", "--out", root / "data", "--seed", seed,
              "--per-class", self.per_class, "--size", self.size, "--quiet"])

    def samples(self, root: Path) -> int:
        """Training presentations (per network) plus validation samples evaluated.

        Per paradigm: every epoch trains each network on the augmented train
        split and validates once; `compare` validates once more at the end;
        the `eval` of the selected paradigm scores the validation split again.
        """
        sizes = split_sizes(root / "data")
        n_train = AUGMENT_FACTOR * sizes["train"]
        n_val = AUGMENT_FACTOR * sizes["val"]
        trained = sum(PARADIGM_NETS.values()) * self.epochs * n_train
        validated = len(PARADIGM_NETS) * (self.epochs + 1) * n_val + n_val
        return trained + validated

    def run(self, root: Path, out: Path) -> str:
        stdout = call(["compare", "--data", root / "data", "--out", out / "compare",
                       "--seed", 0, "--epochs", self.epochs, "--quiet"])
        verdicts = [ln.split(":", 1)[1].strip() for ln in stdout.splitlines() if ln.startswith("verdict:")]
        if len(verdicts) != 1:
            raise CheckFailed(f"compare printed no verdict line: {stdout!r}")
        verdict = verdicts[0]
        if verdict not in PARADIGM_NETS:
            raise CheckFailed(f"compare verdict {verdict!r} is not a paradigm")
        call(["eval", "--data", root / "data", "--model", out / "compare" / verdict,
              "--out", out / "eval", "--split", "val", "--quiet"])
        return verdict

    def check(self, root: Path, out: Path, verdict: str) -> dict:
        from fuselab import evaluation

        tables = evaluation.parse_metrics_csv(out / "compare" / "report.csv")
        if set(tables) != set(PARADIGM_NETS):
            raise CheckFailed(f"report.csv holds paradigms {sorted(tables)}, expected all six")
        if verdict not in FUSION_PARADIGMS:
            raise CheckFailed(f"verdict {verdict!r} is not a fusion paradigm")
        if evaluation.compare_paradigms(tables).best != verdict:
            raise CheckFailed("report.csv does not rank the printed verdict first")
        saved = (out / "compare" / verdict / "confusion.csv").read_text()
        if (out / "eval" / "confusion.csv").read_text() != saved:
            raise CheckFailed("eval of the saved verdict model disagrees with compare's confusion.csv")
        n_val = AUGMENT_FACTOR * split_sizes(root / "data")["val"]
        if confusion_total(out / "eval" / "confusion.csv") != n_val:
            raise CheckFailed(f"eval confusion.csv does not sum to {n_val} validation samples")
        losses = [last_train_loss(out / "compare" / p / "history.csv") for p in PARADIGM_NETS]
        return {"macro_f1": tables[verdict].macro_f1, "train_loss": mean(losses)}


class EvalBulk:
    """`eval --split train` of a trained late-weighted model over many small chips.

    Forward only, at the eval batch of 64, with no backward and no optimizer.
    Its time goes to loading and augmenting chips, `fusion.predict_batch` and
    evaluation. The model is trained during set-up on a separate small dataset.
    """

    name = "eval-bulk"

    def __init__(self, tiny: bool):
        self.size = 16 if tiny else 32
        self.train_per_class = 10
        self.train_epochs = 1 if tiny else 3
        self.eval_per_class = 10 if tiny else 200

    def setup(self, seed: int, root: Path) -> None:
        call(["dataset", "synth", "--out", root / "train-data", "--seed", 2 * seed,
              "--per-class", self.train_per_class, "--size", self.size, "--quiet"])
        call(["train", "--data", root / "train-data", "--paradigm", "late-weighted", "--out", root / "model",
              "--epochs", self.train_epochs, "--seed", 0, "--quiet"])
        call(["dataset", "synth", "--out", root / "data", "--seed", 2 * seed + 1,
              "--per-class", self.eval_per_class, "--size", self.size, "--quiet"])

    def samples(self, root: Path) -> int:
        """Samples evaluated: the augmented train split."""
        return AUGMENT_FACTOR * split_sizes(root / "data")["train"]

    def run(self, root: Path, out: Path) -> None:
        call(["eval", "--data", root / "data", "--model", root / "model", "--out", out / "eval",
              "--split", "train", "--quiet"])

    def check(self, root: Path, out: Path, _result) -> dict:
        from fuselab import evaluation

        expected = self.samples(root)
        total = confusion_total(out / "eval" / "confusion.csv")
        if total != expected:
            raise CheckFailed(f"confusion.csv sums to {total}, expected {expected} evaluated samples")
        tables = evaluation.parse_metrics_csv(out / "eval" / "metrics.csv")
        if list(tables) != ["late-weighted"]:
            raise CheckFailed(f"metrics.csv holds {sorted(tables)}, expected late-weighted")
        return {
            "macro_f1": tables["late-weighted"].macro_f1,
            "train_loss": last_train_loss(root / "model" / "history.csv"),
        }


WORKLOADS = {w.name: w for w in (CompareLite, EvalBulk)}
