"""Command-line entry point.

Subcommands: dataset synth | dataset split | train | eval | weights derive |
compare. Each command takes only the flags it reads, and records every
setting it resolved in run-config.json in its output directory (`dataset
split` in the dataset it rewrites, keeping the record of the `dataset synth`
that made it under "synth"). Exit codes: 0 ok, 2 usage, 3 data error,
4 numeric failure. Every failure, a malformed command line included, prints
a single `error[kind]: message` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data, evaluation, fusion, train as training
from .config import Resolver, parse_bool, parse_fractions, parse_seed, read_json_object
from .errors import DataError, NumericError

COMPARE_EPOCHS_DEFAULT = 3
# compare --data's settings that compare --from-tables, which trains nothing, refuses
TRAINING_SETTINGS = ("seed", "epochs", "batch_size", "learning_rate", "optimizer", "augment_eval")

_RUN_FLAGS = {
    "seed": dict(help="run seed (default 0)"),
    "out": dict(help="output directory"),
    "quiet": dict(action="store_const", const="true", help="suppress progress output"),
}


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as ValueError, which main reports as error[usage]."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _say(resolver, *parts):
    if not resolver.resolved.get("quiet"):
        print(*parts)


def _add_run_flags(p: argparse.ArgumentParser, *names: str):
    """The named run flags (seed, out, quiet) plus --config, which every command reads."""
    for name in names:
        p.add_argument(f"--{name}", **_RUN_FLAGS[name])
    p.add_argument("--config", help="key=value config file (default ./fuselab.toml if present)")


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--epochs")
    p.add_argument("--batch-size", dest="batch_size")
    p.add_argument("--learning-rate", dest="learning_rate")
    p.add_argument("--optimizer", choices=training.OPTIMIZERS)
    p.add_argument("--augment-eval", dest="augment_eval", help="also augment val/test 4x (true/false, default true)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuselab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="synthesize or re-split chip datasets")
    ds_sub = ds.add_subparsers(dest="dataset_command", required=True)

    synth = ds_sub.add_parser("synth", help="generate a synthetic two-modality dataset")
    _add_run_flags(synth, "seed", "out", "quiet")
    synth.add_argument("--per-class", dest="per_class")
    synth.add_argument("--size")
    synth.add_argument("--p", help="modality-A channel count")
    synth.add_argument("--b", help="modality-B channel count")
    synth.add_argument("--classes")
    synth.add_argument("--force", action="store_const", const="true")
    synth.set_defaults(func=cmd_dataset_synth)

    resplit = ds_sub.add_parser("split", help="rewrite the train/val/test assignment in a dataset's manifest")
    _add_run_flags(resplit, "seed", "quiet")
    resplit.add_argument("--data", required=True, help="dataset directory whose manifest is rewritten in place")
    resplit.add_argument("--fractions")
    resplit.add_argument("--stratified")
    resplit.set_defaults(func=cmd_dataset_split)

    tr = sub.add_parser("train", help="train one paradigm on a dataset directory")
    _add_run_flags(tr, "seed", "out", "quiet")
    tr.add_argument("--data", required=True)
    tr.add_argument("--paradigm", required=True, choices=fusion.PARADIGMS)
    _add_train_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a trained model on a dataset split")
    _add_run_flags(ev, "out", "quiet")
    ev.add_argument("--data", required=True)
    ev.add_argument("--model", required=True, help="model directory written by `train`")
    ev.add_argument("--split", choices=("train", "val", "test"))
    ev.add_argument("--augment-eval", dest="augment_eval")
    ev.set_defaults(func=cmd_eval)

    wt = sub.add_parser("weights", help="late-fusion weight utilities")
    wt_sub = wt.add_subparsers(dest="weights_command", required=True)
    derive = wt_sub.add_parser("derive", help="derive binary weights from two confusion matrices")
    _add_run_flags(derive, "out")
    derive.add_argument("--cm-a", dest="cm_a", required=True, help="confusion CSV for the modality-A model")
    derive.add_argument("--cm-b", dest="cm_b", required=True, help="confusion CSV for the modality-B model")
    derive.set_defaults(func=cmd_weights_derive)

    cp = sub.add_parser(
        "compare",
        help="train and rank all six paradigms, late fusion over the single-modality networks "
        "(or rank supplied tables)",
    )
    _add_run_flags(cp, "seed", "out", "quiet")
    source = cp.add_mutually_exclusive_group(required=True)
    source.add_argument("--data")
    source.add_argument("--from-tables", dest="from_tables", help="metrics CSV to rank instead of training")
    _add_train_flags(cp)
    cp.set_defaults(func=cmd_compare)
    return parser


# --- shared helpers ------------------------------------------------------------


def _require_out(resolver) -> Path:
    out = resolver.get("out", str, None)
    if out is None:
        raise ValueError("--out is required (or set FUSELAB_OUT)")
    return Path(out)


def _load_and_augment(resolver, data_dir) -> data.DatasetSplit:
    return data.augment(data.load_dataset(data_dir), resolver.get("augment_eval", parse_bool, True))


def _train_config(resolver, **defaults) -> training.TrainConfig:
    """The resolved seed and training settings; unset ones take `defaults`, else TrainConfig's own defaults."""
    base = training.TrainConfig(**defaults)
    return training.TrainConfig(
        seed=resolver.get("seed", parse_seed, base.seed),
        epochs=resolver.get("epochs", int, base.epochs),
        batch_size=resolver.get("batch_size", int, base.batch_size),
        learning_rate=resolver.get("learning_rate", float, base.learning_rate),
        optimizer=resolver.get("optimizer", str, base.optimizer),
    )


def _fusion_weights_line(alpha, beta) -> str:
    """fusion_weights.json's one line, without its newline; `weights derive` also prints it."""
    return '{"alpha": %s, "beta": %s}' % ([float(v) for v in alpha], [float(v) for v in beta])


def _save_trained(out_dir: Path, model: fusion.FusionModel, history) -> None:
    """A trained paradigm's files: the model, history.csv, and fusion_weights.json for late-weighted."""
    fusion.save_model(out_dir, model)
    training.save_history(out_dir / "history.csv", history)
    if model.alpha is not None:
        (out_dir / "fusion_weights.json").write_text(_fusion_weights_line(model.alpha, model.beta) + "\n")


def _write_eval_files(out_dir: Path, paradigm: str, cm, table) -> None:
    report = evaluation.compare_paradigms({paradigm: table})
    (out_dir / "confusion.csv").write_text(evaluation.confusion_csv_text(cm))
    evaluation.emit_report(report, "csv", out_dir / "metrics.csv")
    evaluation.emit_report(report, "markdown", out_dir / "metrics.md")


# --- commands -------------------------------------------------------------------


def cmd_dataset_synth(args) -> int:
    resolver = Resolver(args)
    out = _require_out(resolver)
    seed = resolver.get("seed", parse_seed, 0)
    per_class = resolver.get("per_class", int, 100)
    size = resolver.get("size", int, 64)
    p = resolver.get("p", int, 2)
    b = resolver.get("b", int, 13)
    n_classes = resolver.get("classes", int, 5)
    force = resolver.get("force", parse_bool, False)
    resolver.get("quiet", parse_bool, False)
    if out.exists() and any(out.iterdir()) and not force:
        raise DataError(f"output directory {out} is not empty (use --force to overwrite)")
    samples = data.synth_generate(per_class, size=size, channels_a=p, channels_b=b, n_classes=n_classes, seed=seed)
    dsplit = data.split(samples, seed=seed, stratified=True)
    data.save_dataset(out, dsplit)
    resolver.write_record(out)
    _say(resolver, f"wrote {len(samples)} samples ({'/'.join(map(str, dsplit.sizes()))} train/val/test) to {out}")
    return 0


def cmd_dataset_split(args) -> int:
    resolver = Resolver(args)
    seed = resolver.get("seed", parse_seed, 0)
    fractions = resolver.get("fractions", parse_fractions, data.DEFAULT_FRACTIONS)
    stratified = resolver.get("stratified", parse_bool, True)
    resolver.get("quiet", parse_bool, False)
    data_dir = Path(args.data)
    record = data_dir / "run-config.json"  # dataset synth's, or an earlier split's that keeps it under "synth"
    made = read_json_object(record) if record.exists() else {}
    resolver.resolved["synth"] = made.get("synth", made if "per_class" in made else None)
    sizes = data.resplit(data_dir, fractions=fractions, seed=seed, stratified=stratified)
    resolver.write_record(data_dir)
    _say(resolver, f"re-split {data_dir}: {'/'.join(map(str, sizes))} train/val/test")
    return 0


def cmd_train(args) -> int:
    resolver = Resolver(args)
    out = _require_out(resolver)
    cfg = _train_config(resolver)
    resolver.resolved["paradigm"] = args.paradigm
    resolver.get("quiet", parse_bool, False)
    dsplit = _load_and_augment(resolver, args.data)
    model, history, decisions = training.train_paradigm(args.paradigm, dsplit, cfg, {})
    _save_trained(out, model, history)
    resolver.write_record(out)
    if decisions is None:
        _say(resolver, f"trained {args.paradigm}: {args.data} has no validation split to score")
    else:
        accuracy = (decisions.argmax(axis=1) == dsplit.val.truth()).mean()
        _say(resolver, f"trained {args.paradigm}: final val accuracy {accuracy:.3f}")
    return 0


def cmd_eval(args) -> int:
    """Score a saved model on one split of a dataset directory.

    The split is read (data.stream_split) in chunks of the model's largest
    prediction batch (train.batch_rows), which hold whole batches of every
    network, so each network predicts in the batches that validation uses.
    A chunk holds unturned rows; each batch of them is predicted in all of
    the split's turns at once (fusion.predict_batch), as validation predicts.
    eval holds one chunk of chips, the predictions and the class indices.
    Every record's chips are still read and checked, as train reads them,
    before any output file is written.
    """
    resolver = Resolver(args)
    out = _require_out(resolver)
    split_name = resolver.get("split", str, "val")
    resolver.get("quiet", parse_bool, False)
    if split_name not in ("train", "val", "test"):
        raise ValueError(f"--split must be train, val or test, got {split_name!r}")
    model = fusion.load_model(args.model)
    turns = data.split_turns(split_name, resolver.get("augment_eval", parse_bool, True))  # as train reads it
    rows = max(training.batch_rows(net, *model.chip_shape_a[:2], turns) for net in model.nets)
    class_names, n_rows, chunks = data.stream_split(args.data, split_name, rows, turns)
    if not n_rows:
        raise DataError(f"split {split_name!r} of {args.data} is empty")
    if model.class_names is not None and model.class_names != class_names:
        raise DataError(
            f"model {args.model} was trained on classes {list(model.class_names)}, "
            f"dataset {args.data} has classes {list(class_names)}"
        )
    if model.n_classes != len(class_names):
        raise DataError(f"model {args.model} has {model.n_classes} classes, dataset {args.data} has {len(class_names)}")
    cm = training.confusion(model, chunks, class_names)  # reads every chip before anything is written
    table = evaluation.metrics_from_cm(cm)
    out.mkdir(parents=True, exist_ok=True)
    _write_eval_files(out, model.paradigm, cm, table)
    resolver.write_record(out)
    _say(resolver, f"evaluated {model.paradigm} on {split_name}: macro F1 {table.macro_f1:.3f}")
    return 0


def cmd_weights_derive(args) -> int:
    resolver = Resolver(args)
    cm_a = evaluation.parse_confusion_csv(args.cm_a)
    cm_b = evaluation.parse_confusion_csv(args.cm_b)
    if cm_a.class_names != cm_b.class_names:  # recalls pair up by position
        raise DataError(f"{args.cm_a} has classes {list(cm_a.class_names)}, "
                        f"{args.cm_b} has {list(cm_b.class_names)}")
    alpha, beta = fusion.weights_from_confusions(cm_a, cm_b)
    line = _fusion_weights_line(alpha, beta)
    out = resolver.get("out", str, None)
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "fusion_weights.json").write_text(line + "\n")
        resolver.write_record(out_dir)
    print(line)
    return 0


def cmd_compare(args) -> int:
    resolver = Resolver(args)
    out = _require_out(resolver)
    resolver.get("quiet", parse_bool, False)
    if args.from_tables:
        given = [f"--{key.replace('_', '-')}" for key in TRAINING_SETTINGS if getattr(args, key) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be used with --from-tables, which trains nothing")
        tables = evaluation.parse_metrics_csv(args.from_tables)
        if len(tables) < 2:
            raise DataError(f"{args.from_tables}: need at least two paradigm blocks to compare")
        report = evaluation.compare_paradigms(tables)
    else:
        cfg = _train_config(resolver, epochs=COMPARE_EPOCHS_DEFAULT)
        dsplit = _load_and_augment(resolver, args.data)
        for name in ("train", "val"):  # every paradigm trains on the one and is scored on the other
            if not getattr(dsplit, name):
                raise DataError(
                    f"compare needs non-empty train and val splits; split {name!r} of {args.data} is empty"
                )
        tables, trained = {}, {}  # every row is its paradigm's `train` run; the late rows reuse the singles
        for idx, paradigm in enumerate(fusion.PARADIGMS):
            model, history, decisions = training.train_paradigm(paradigm, dsplit, cfg, trained)
            _save_trained(out / paradigm, model, history)
            cm = training.val_confusion(decisions, dsplit)
            table = evaluation.metrics_from_cm(cm)
            _write_eval_files(out / paradigm, paradigm, cm, table)
            tables[paradigm] = table
            _say(resolver, f"[{idx + 1}/{len(fusion.PARADIGMS)}] {paradigm}: macro F1 {table.macro_f1:.3f}")
            del model, history, decisions  # so the next paradigm trains without this one's parameters
        report = evaluation.compare_paradigms(tables)

    out.mkdir(parents=True, exist_ok=True)
    evaluation.emit_report(report, "csv", out / "report.csv")
    evaluation.emit_report(report, "markdown", out / "report.md")
    evaluation.emit_report(report, "svg", out / "report.svg")
    resolver.write_record(out)
    ranked = " > ".join(e.paradigm for e in report.ranking)
    _say(resolver, f"ranking: {ranked}")
    print(f"verdict: {report.best}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except NumericError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
