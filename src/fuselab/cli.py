"""Command-line entry point.

Subcommands: dataset synth | dataset split | train | eval | weights derive |
compare. Exit codes: 0 ok, 2 usage, 3 data error, 4 numeric failure. Every
failure prints a single `error[kind]: message` line on stderr, and every
output directory receives the fully resolved run-config.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import data, evaluation, fusion, train as training
from .config import Resolver, parse_bool, parse_fractions
from .errors import DataError, NumericError, ShapeError

COMPARE_EPOCHS_DEFAULT = 3
TRAIN_EPOCHS_DEFAULT = 30


def _say(resolver, *parts):
    if not resolver.resolved.get("quiet"):
        print(*parts)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", help="run seed (default 0)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--quiet", action="store_const", const="true", help="suppress progress output")
    p.add_argument("--config", help="key=value config file (default ./fuselab.toml if present)")


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--epochs")
    p.add_argument("--batch-size", dest="batch_size")
    p.add_argument("--learning-rate", dest="learning_rate")
    p.add_argument("--optimizer", choices=training.OPTIMIZERS)
    p.add_argument("--augment-eval", dest="augment_eval", help="also augment val/test 4x (true/false, default true)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuselab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="synthesize or re-split chip datasets")
    ds_sub = ds.add_subparsers(dest="dataset_command", required=True)

    synth = ds_sub.add_parser("synth", help="generate a synthetic two-modality dataset")
    _add_common(synth)
    synth.add_argument("--per-class", dest="per_class")
    synth.add_argument("--size")
    synth.add_argument("--p", help="modality-A channel count")
    synth.add_argument("--b", help="modality-B channel count")
    synth.add_argument("--classes")
    synth.add_argument("--force", action="store_const", const="true")
    synth.set_defaults(func=cmd_dataset_synth)

    resplit = ds_sub.add_parser("split", help="recompute the train/val/test assignment in a manifest")
    _add_common(resplit)
    resplit.add_argument("--data", required=True)
    resplit.add_argument("--fractions")
    resplit.add_argument("--stratified")
    resplit.set_defaults(func=cmd_dataset_split)

    tr = sub.add_parser("train", help="train one paradigm on a dataset directory")
    _add_common(tr)
    tr.add_argument("--data", required=True)
    tr.add_argument("--paradigm", required=True, choices=fusion.PARADIGMS)
    _add_train_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a trained model on a dataset split")
    _add_common(ev)
    ev.add_argument("--data", required=True)
    ev.add_argument("--model", required=True, help="model directory written by `train`")
    ev.add_argument("--split", choices=("train", "val", "test"))
    ev.add_argument("--augment-eval", dest="augment_eval")
    ev.set_defaults(func=cmd_eval)

    wt = sub.add_parser("weights", help="late-fusion weight utilities")
    wt_sub = wt.add_subparsers(dest="weights_command", required=True)
    derive = wt_sub.add_parser("derive", help="derive binary weights from two confusion matrices")
    _add_common(derive)
    derive.add_argument("--cm-a", dest="cm_a", required=True, help="confusion CSV for the modality-A model")
    derive.add_argument("--cm-b", dest="cm_b", required=True, help="confusion CSV for the modality-B model")
    derive.set_defaults(func=cmd_weights_derive)

    cp = sub.add_parser(
        "compare",
        help="train and rank all six paradigms, late fusion over the single-modality networks "
        "(or rank supplied tables)",
    )
    _add_common(cp)
    cp.add_argument("--data")
    cp.add_argument("--from-tables", dest="from_tables", help="metrics CSV to rank instead of training")
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
    dsplit = data.load_dataset(data_dir)
    if resolver.get("augment_eval", parse_bool, True):
        return data.augment(dsplit)
    aug_train = data.augment(data.DatasetSplit(dsplit.train, [], [], dsplit.class_names))
    return data.DatasetSplit(aug_train.train, dsplit.val, dsplit.test, dsplit.class_names)


def _train_config(resolver, epochs_default: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        epochs=resolver.get("epochs", int, epochs_default),
        batch_size=resolver.get("batch_size", int, 16),
        learning_rate=resolver.get("learning_rate", float, 1e-3),
        optimizer=resolver.get("optimizer", str, "adam"),
        seed=seed,
    )


def _model_for_dataset(paradigm: str, dsplit: data.DatasetSplit, seed: int) -> fusion.FusionModel:
    probe = (dsplit.train + dsplit.val + dsplit.test)[0]
    h, w, p = probe.chip_a.shape
    _, _, b = probe.chip_b.shape
    return fusion.build_model(paradigm, w, h, p, b, len(dsplit.class_names), seed)


def _split_samples(dsplit: data.DatasetSplit, name: str):
    return {"train": dsplit.train, "val": dsplit.val, "test": dsplit.test}[name]


def _write_eval_files(out_dir: Path, paradigm: str, cm, table) -> None:
    report = evaluation.compare_paradigms({paradigm: table})
    (out_dir / "confusion.csv").write_text(evaluation.confusion_csv_text(cm))
    evaluation.emit_report(report, "csv", out_dir / "metrics.csv")
    evaluation.emit_report(report, "markdown", out_dir / "metrics.md")


# --- commands -------------------------------------------------------------------


def cmd_dataset_synth(args) -> int:
    resolver = Resolver(args)
    out = _require_out(resolver)
    seed = resolver.get("seed", int, 0)
    per_class = resolver.get("per_class", int, 100)
    size = resolver.get("size", int, 64)
    p = resolver.get("p", int, 2)
    b = resolver.get("b", int, 13)
    n_classes = resolver.get("classes", int, 5)
    force = resolver.get("force", parse_bool, False)
    resolver.get("quiet", parse_bool, False)
    if out.exists() and any(out.iterdir()) and not force:
        raise DataError(f"output directory {out} is not empty (use --force to overwrite)")
    samples = data.synth_generate(
        per_class, width=size, height=size, channels_a=p, channels_b=b, n_classes=n_classes, seed=seed
    )
    dsplit = data.split(samples, seed=seed, stratified=True)
    data.save_dataset(out, dsplit)
    resolver.write_record(out)
    _say(resolver, f"wrote {len(samples)} samples ({'/'.join(map(str, dsplit.sizes()))} train/val/test) to {out}")
    return 0


def cmd_dataset_split(args) -> int:
    resolver = Resolver(args)
    seed = resolver.get("seed", int, 0)
    fractions = resolver.get("fractions", parse_fractions, data.DEFAULT_FRACTIONS)
    stratified = resolver.get("stratified", parse_bool, True)
    resolver.get("quiet", parse_bool, False)
    data_dir = Path(args.data)
    dsplit = data.load_dataset(data_dir)
    new_split = data.split(dsplit.all_samples(), fractions=fractions, seed=seed, stratified=stratified)
    data.save_manifest(data_dir, new_split)
    resolver.write_record(data_dir)
    _say(resolver, f"re-split {data_dir}: {'/'.join(map(str, new_split.sizes()))} train/val/test")
    return 0


def cmd_train(args) -> int:
    resolver = Resolver(args)
    out = _require_out(resolver)
    seed = resolver.get("seed", int, 0)
    cfg = _train_config(resolver, TRAIN_EPOCHS_DEFAULT, seed)
    resolver.resolved["paradigm"] = args.paradigm
    resolver.get("quiet", parse_bool, False)
    dsplit = _load_and_augment(resolver, args.data)
    model = _model_for_dataset(args.paradigm, dsplit, seed)
    history = training.train(model, dsplit, cfg)
    out.mkdir(parents=True, exist_ok=True)
    fusion.save_model(out, model)
    training.save_history(out / "history.csv", history)
    if model.alpha is not None:
        (out / "fusion_weights.json").write_text(
            '{"alpha": %s, "beta": %s}\n'
            % ([float(v) for v in model.alpha], [float(v) for v in model.beta])
        )
    resolver.write_record(out)
    if history.records:
        last = history.records[-1]
        _say(resolver, f"trained {args.paradigm}: final val accuracy {last.val_accuracy:.3f}")
    else:
        _say(resolver, f"trained {args.paradigm}: 0 epochs (checkpoint equals initialization)")
    return 0


def cmd_eval(args) -> int:
    resolver = Resolver(args)
    out = _require_out(resolver)
    resolver.get("seed", int, 0)
    split_name = resolver.get("split", str, "val")
    resolver.get("quiet", parse_bool, False)
    if split_name not in ("train", "val", "test"):
        raise ValueError(f"--split must be train, val or test, got {split_name!r}")
    model = fusion.load_model(args.model)
    dsplit = _load_and_augment(resolver, args.data)
    samples = _split_samples(dsplit, split_name)
    if not samples:
        raise DataError(f"split {split_name!r} of {args.data} is empty")
    probe = samples[0]
    if probe.chip_a.shape != model.chip_shape_a or probe.chip_b.shape != model.chip_shape_b:
        raise ShapeError(
            f"dataset chips {probe.chip_a.shape}/{probe.chip_b.shape} do not match "
            f"model spec {model.chip_shape_a}/{model.chip_shape_b}"
        )
    if model.n_classes != len(dsplit.class_names):
        raise ShapeError(
            f"model {args.model} has {model.n_classes} classes, dataset {args.data} has {len(dsplit.class_names)}"
        )
    cm = training.confusion(model, samples, dsplit.class_names)
    table = evaluation.metrics_from_cm(cm)
    out.mkdir(parents=True, exist_ok=True)
    _write_eval_files(out, model.paradigm, cm, table)
    resolver.write_record(out)
    _say(resolver, f"evaluated {model.paradigm} on {split_name}: macro F1 {table.macro_f1:.3f}")
    return 0


def cmd_weights_derive(args) -> int:
    resolver = Resolver(args)
    resolver.get("seed", int, 0)
    resolver.get("quiet", parse_bool, False)
    cm_a = evaluation.parse_confusion_csv(args.cm_a)
    cm_b = evaluation.parse_confusion_csv(args.cm_b)
    alpha, beta = fusion.weights_from_confusions(cm_a, cm_b)
    line = '{"alpha": %s, "beta": %s}' % ([float(v) for v in alpha], [float(v) for v in beta])
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
    seed = resolver.get("seed", int, 0)
    resolver.get("quiet", parse_bool, False)
    out.mkdir(parents=True, exist_ok=True)

    if args.from_tables:
        tables = evaluation.parse_metrics_csv(args.from_tables)
        if len(tables) < 2:
            raise DataError(f"{args.from_tables}: need at least two paradigm blocks to compare")
        report = evaluation.compare_paradigms(tables)
    else:
        if not args.data:
            raise ValueError("compare needs --data (or --from-tables)")
        cfg_probe = _train_config(resolver, COMPARE_EPOCHS_DEFAULT, seed)
        dsplit = _load_and_augment(resolver, args.data)
        for name in ("train", "val"):  # every paradigm trains on the one and is scored on the other
            if not _split_samples(dsplit, name):
                raise DataError(
                    f"compare needs non-empty train and val splits; split {name!r} of {args.data} is empty"
                )
        stats = training.input_stats(dsplit.train)  # the same for every model, so measured once
        tables = {}
        trained = {}  # single-a / single-b: (model, history), which the late paradigms aggregate
        for idx, paradigm in enumerate(fusion.PARADIGMS):
            pdir = out / paradigm
            pdir.mkdir(parents=True, exist_ok=True)
            members = ()
            if paradigm in fusion.LATE_PARADIGMS:
                (model_a, history_a), (model_b, history_b) = trained["single-a"], trained["single-b"]
                model = fusion.late_model(paradigm, model_a, model_b)
                members = (history_a, history_b)
                history = training.fuse_late(model, members, dsplit)
            else:
                cfg = dataclasses.replace(cfg_probe, seed=seed + 10 * (idx + 1))
                model = _model_for_dataset(paradigm, dsplit, seed + idx)
                model.set_input_stats(*stats)
                history = training.train(model, dsplit, cfg)
                if paradigm in ("single-a", "single-b"):
                    trained[paradigm] = model, history
            fusion.save_model(pdir, model)
            training.save_history(pdir / "history.csv", history)
            cm = training.val_confusion(model, history, dsplit, members)  # scores training's last val pass
            table = evaluation.metrics_from_cm(cm)
            _write_eval_files(pdir, paradigm, cm, table)
            tables[paradigm] = table
            _say(resolver, f"[{idx + 1}/{len(fusion.PARADIGMS)}] {paradigm}: macro F1 {table.macro_f1:.3f}")
        report = evaluation.compare_paradigms(tables)

    evaluation.emit_report(report, "csv", out / "report.csv")
    evaluation.emit_report(report, "markdown", out / "report.md")
    evaluation.emit_report(report, "svg", out / "report.svg")
    resolver.write_record(out)
    ranked = " > ".join(e.paradigm for e in report.ranking)
    _say(resolver, f"ranking: {ranked}")
    print(f"verdict: {report.best}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 4
    except (DataError, ShapeError, OSError) as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
