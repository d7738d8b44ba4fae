"""In-memory span tracer that instruments fuselab from outside.

The tracer replaces public functions and methods of fuselab's modules with
wrappers that record one span per call: name, start, end, the index of the
enclosing span, and a few shape-derived facts (bytes, FLOP). Spans stay in
memory until the benchmark takes them; `summarize` turns one unit of spans
(one set-up or one timed iteration) into per-layer metrics.

Span names are `<module>.<qualname>`; the module part is one of the layers in
LAYERS. A layer's self time is the time its spans do not spend in child spans.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from statistics import median

LAYERS = ("cli", "config", "data", "tensor", "nn", "fusion", "train", "evaluation")
OPTIMIZER_SPANS = ("train.SGD.step", "train.Adam.step")
# children of train.train that end a run of training steps (validation passes)
STEP_BREAKS = ("train._model_predictions",)
STEP_BATCH = 16  # batch size of the per-conv medians (the default training batch)

# Per-layer metrics in the order they are printed, with their units. The
# COMPUTED ones are derived from array shapes and file sizes, not timed, so
# they repeat exactly between runs of the same code.
PER_LAYER = {
    "tensor.im2col_s": "s",
    "tensor.im2col.bytes": "bytes",
    "tensor.col2im_add_s": "s",
    "tensor.maxpool2_s": "s",
    "tensor.maxpool2_scatter_s": "s",
    "tensor.matmul_s": "s",
    "tensor.conv_gflop": "GFLOP",
    "tensor.self_s": "s",
    **{
        f"nn.{kind}.{what}": unit
        for kind in ("conv", "maxpool2", "relu", "dense", "softmax")
        for what, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))
    },
    **{f"nn.conv{i}.{d}_s": "s" for i in (1, 2, 3) for d in ("fwd", "bwd")},
    "nn.cross_entropy_s": "s",
    "nn.save_network_s": "s",
    "nn.load_network_s": "s",
    "nn.self_s": "s",
    "train.steps": "count",
    "train.step_s": "s",
    "train.optimizer_s": "s",
    "train.backbone_equivalents": "count",
    "train.self_s": "s",
    "fusion.predict_batch_s": "s",
    "fusion.predict_batch.calls": "count",
    "fusion.build_model_s": "s",
    "fusion.save_model_s": "s",
    "fusion.load_model_s": "s",
    "fusion.self_s": "s",
    "data.load_dataset_s": "s",
    "data.load_chip_s": "s",
    "data.load_chip.calls": "count",
    "data.bytes_read": "bytes",
    "data.augment_s": "s",
    "data.resident_bytes": "bytes",
    "data.synth_generate_s": "s",
    "data.save_dataset_s": "s",
    "data.self_s": "s",
    "evaluation.confusion_matrix_s": "s",
    "evaluation.metrics_from_cm_s": "s",
    "evaluation.compare_paradigms_s": "s",
    "evaluation.emit_report_s": "s",
    "evaluation.self_s": "s",
    "cli.self_s": "s",
    "config.self_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED = (
    "tensor.im2col.bytes",
    "tensor.conv_gflop",
    "train.backbone_equivalents",
    "data.bytes_read",
    "data.resident_bytes",
)
# metrics that are a median over steps or calls, not a sum over a unit
MEDIANS = ("train.step_s",) + tuple(f"nn.conv{i}.{d}_s" for i in (1, 2, 3) for d in ("fwd", "bwd"))
MAXIMA = ("data.resident_bytes",)

# span name -> (time metric, call-count metric or None)
_TIMED = {
    "tensor.im2col": ("tensor.im2col_s", None),
    "tensor.col2im_add": ("tensor.col2im_add_s", None),
    "tensor.maxpool2": ("tensor.maxpool2_s", None),
    "tensor.maxpool2_scatter": ("tensor.maxpool2_scatter_s", None),
    "tensor.matmul": ("tensor.matmul_s", None),
    **{
        f"nn.{cls}.{method}": (f"nn.{kind}.{d}_s", f"nn.{kind}.calls" if d == "fwd" else None)
        for cls, kind in (("Conv", "conv"), ("MaxPool2", "maxpool2"), ("ReLU", "relu"), ("Dense", "dense"), ("Softmax", "softmax"))
        for method, d in (("forward", "fwd"), ("backward", "bwd"))
    },
    "nn.cross_entropy": ("nn.cross_entropy_s", None),
    "nn.cross_entropy_grad": ("nn.cross_entropy_s", None),
    "nn.save_network": ("nn.save_network_s", None),
    "nn.load_network": ("nn.load_network_s", None),
    "train.SGD.step": ("train.optimizer_s", "train.steps"),
    "train.Adam.step": ("train.optimizer_s", "train.steps"),
    "fusion.predict_batch": ("fusion.predict_batch_s", "fusion.predict_batch.calls"),
    "fusion.build_model": ("fusion.build_model_s", None),
    "fusion.save_model": ("fusion.save_model_s", None),
    "fusion.load_model": ("fusion.load_model_s", None),
    "data.load_dataset": ("data.load_dataset_s", None),
    "data.load_chip": ("data.load_chip_s", "data.load_chip.calls"),
    "data.augment": ("data.augment_s", None),
    "data.synth_generate": ("data.synth_generate_s", None),
    "data.save_dataset": ("data.save_dataset_s", None),
    "evaluation.confusion_matrix": ("evaluation.confusion_matrix_s", None),
    "evaluation.metrics_from_cm": ("evaluation.metrics_from_cm_s", None),
    "evaluation.compare_paradigms": ("evaluation.compare_paradigms_s", None),
    "evaluation.emit_report": ("evaluation.emit_report_s", None),
}


# --- facts recorded with a span (all derived from shapes and sizes) ----------


def _conv_gemm_flop(layer, n, h, w) -> int:
    k, _, cin, cout = layer.weights.shape
    return 2 * n * h * w * k * k * cin * cout


def _conv_forward_info(args, out):
    layer, x = args[0], args[1]
    n, h, w, _ = x.shape
    return {"n": n, "cout": layer.weights.shape[3], "flop": _conv_gemm_flop(layer, n, h, w)}


def _conv_backward_info(args, out):
    layer, dy = args[0], args[1]
    n, h, w, _ = dy.shape
    # weight-gradient GEMM always; input-gradient GEMM only when dx is returned
    gemms = 1 + (out is not None)
    return {"n": n, "cout": layer.weights.shape[3], "flop": gemms * _conv_gemm_flop(layer, n, h, w)}


def _im2col_info(args, out):
    return {"bytes": out[0].nbytes}


def _chip_info(args, out):
    return {"bytes": os.path.getsize(args[0])}


def _resident_bytes(obj) -> int:
    """Bytes of the distinct array buffers reachable from obj (views count once)."""
    import numpy as np

    owners = {}
    todo = [obj]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            owners[id(item)] = item.nbytes
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif hasattr(item, "__dict__"):
            todo.extend(vars(item).values())
    return sum(owners.values())


def _augment_info(args, out):
    return {"bytes": _resident_bytes(out)}


def _train_info(args, out):
    from fuselab import fusion, nn

    model = args[0]
    convs = sum(isinstance(layer, nn.Conv) for net in model.nets for layer in net.all_layers())
    return {"paradigm": model.paradigm, "backbones": convs / len(fusion.DEFAULT_CONV_CHANNELS)}


def _targets():
    """(module, attribute path, info function) for every call the tracer records.

    Paths are resolved when the tracer is installed; a path this version of
    fuselab lacks is skipped and listed in Tracer.missing, so refactors of
    fuselab's internals cannot break the benchmark.
    """
    from fuselab import cli, config, data, evaluation, fusion, nn, tensor, train

    layer_methods = [
        (nn, f"{cls}.{method}", info)
        for cls, fwd_info, bwd_info in (
            ("Conv", _conv_forward_info, _conv_backward_info),
            ("MaxPool2", None, None),
            ("Flatten", None, None),
            ("ReLU", None, None),
            ("Dense", None, None),
            ("Softmax", None, None),
        )
        for method, info in (("forward", fwd_info), ("backward", bwd_info))
    ]
    plain = {
        cli: ("main",),
        config: ("read_config_file", "Resolver.__init__", "Resolver.get", "Resolver.write_record"),
        data: ("synth_generate", "split", "save_dataset", "save_manifest", "load_dataset"),
        tensor: ("col2im_add", "maxpool2", "maxpool2_scatter", "matmul"),
        nn: ("Network.forward_batch", "Network.backward", "TwoBranchNetwork.forward_batch",
             "TwoBranchNetwork.backward", "cross_entropy", "cross_entropy_grad", "gradients",
             "save_network", "load_network"),
        fusion: ("build_model", "predict_batch", "derive_weights", "save_model", "load_model"),
        train: ("SGD.step", "Adam.step", "_model_predictions", "_net_predictions", "_stack_a",
                "_stack_b", "_net_inputs", "_labels", "save_history"),
        evaluation: ("confusion_matrix", "metrics_from_cm", "compare_paradigms", "emit_report",
                     "confusion_csv_text", "parse_metrics_csv", "parse_confusion_csv"),
    }
    return [
        (data, "load_chip", _chip_info),
        (data, "augment", _augment_info),
        (tensor, "im2col", _im2col_info),
        (train, "train", _train_info),
        *layer_methods,
        *[(module, path, None) for module, paths in plain.items() for path in paths],
    ]


class Tracer:
    """Wraps fuselab's functions once; records spans only while `enabled`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, info dict or None]
        self.enabled = False
        self.missing = []  # targets absent from this fuselab, or whose facts failed
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, info_fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info_fn is not None:
                try:
                    rec[4] = info_fn(args, out)
                except Exception:  # instrumentation must never change the program's behaviour
                    if f"facts of {name}" not in tracer.missing:
                        tracer.missing.append(f"facts of {name}")
            return out

        return traced

    def install(self) -> None:
        targets = _targets()  # imports every fuselab module before the rebinding scan
        modules = [m for key, m in list(sys.modules.items()) if key == "fuselab" or key.startswith("fuselab.")]
        for module, path, info_fn in targets:
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{path}"
            if original is None:
                self.missing.append(name)
            elif isinstance(owner, type):
                self._restore.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, self._wrap(name, original, info_fn))
            else:
                # module function: rebind it in every fuselab module that imported it by name
                wrapped = self._wrap(name, original, info_fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


# --- turning spans into metrics -------------------------------------------------


def _conv_ordinal(cout) -> int | None:
    from fuselab import fusion

    channels = tuple(getattr(fusion, "DEFAULT_CONV_CHANNELS", ()))
    return channels.index(cout) + 1 if cout in channels else None


def _training_steps(spans, children, train_index):
    """Durations of the steps of one train.train span.

    A step runs from the end of the previous optimizer update (or validation
    pass, or the start of training) to the end of its own optimizer update:
    batch assembly, forward, loss, backward and update.
    """
    start = spans[train_index][1]
    steps = []
    for child in children[train_index]:
        name, c_start, c_end = spans[child][:3]
        if name in OPTIMIZER_SPANS:
            steps.append(c_end - start)
            start = c_end
        elif name in STEP_BREAKS:
            start = c_end
    return steps


def summarize(spans):
    """Per-layer metrics of one unit of spans.

    Returns (sums, samples): sums maps metric -> total over the unit (or the
    maximum, for MAXIMA); samples maps metric -> list of per-call values that
    are reduced by a median across units (MEDIANS and per-paradigm steps).
    """
    children = defaultdict(list)
    child_time = [0.0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
            child_time[parent] += end - start
    sums = defaultdict(float)
    samples = defaultdict(list)
    for i, (name, start, end, _, info) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        if name not in OPTIMIZER_SPANS:  # optimizer time is reported on its own
            sums[f"{layer}.self_s"] += dur - child_time[i]
        if name in _TIMED:
            time_metric, calls_metric = _TIMED[name]
            sums[time_metric] += dur
            if calls_metric:
                sums[calls_metric] += 1
        if info is None:
            continue
        if name == "tensor.im2col":
            sums["tensor.im2col.bytes"] += info["bytes"]
        elif name in ("nn.Conv.forward", "nn.Conv.backward"):
            sums["tensor.conv_gflop"] += info["flop"] / 1e9
            ordinal = _conv_ordinal(info["cout"])
            if ordinal is not None and info["n"] == STEP_BATCH:
                d = "fwd" if name.endswith("forward") else "bwd"
                samples[f"nn.conv{ordinal}.{d}_s"].append(dur)
        elif name == "data.load_chip":
            sums["data.bytes_read"] += info["bytes"]
        elif name == "data.augment":
            sums["data.resident_bytes"] = max(sums["data.resident_bytes"], info["bytes"])
        elif name == "train.train":
            sums["train.backbone_equivalents"] += info["backbones"]
            steps = _training_steps(spans, children, i)
            samples["train.step_s"].extend(steps)
            samples[f"train.step_s.{info['paradigm']}"].extend(steps)
    return dict(sums), dict(samples)


def combine(phases):
    """Per-layer metrics of one pass of a workload: one set-up plus one iteration.

    phases is a list of unit lists (e.g. [set-up units, traced iterations]);
    each unit is a `summarize` result. Sums take the median across the units
    of a phase and add the phases; MAXIMA take the maximum; MEDIANS take the
    median of all per-call values of all units.
    """
    out = {}
    names = {k for units in phases for sums, samples in units for k in (*sums, *samples)}
    for name in sorted(names):
        if name in MAXIMA:
            out[name] = max(sums.get(name, 0) for units in phases for sums, _ in units)
        elif name in MEDIANS or name.startswith("train.step_s."):
            values = [v for units in phases for _, samples in units for v in samples.get(name, ())]
            out[name] = median(values) if values else 0.0
        else:
            out[name] = sum(median(sums.get(name, 0.0) for sums, _ in units) for units in phases if units)
    return out
