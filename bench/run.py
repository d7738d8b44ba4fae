#!/usr/bin/env python3
"""fuselab benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 bench/run.py --workload compare-lite --seed 0 --seconds 40 --trace 0
    python3 bench/run.py                 # every workload, untraced
    python3 bench/run.py --smoke         # every workload at miniature size, both modes, checked

One client drives fuselab in this process as a closed loop: it sets up the
workload's inputs (three times, in child processes, to time the set-up), then
runs the workload's commands through `fuselab.cli.main` one after another
until --seconds have passed, checking the outputs of every iteration.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json. With
--trace 1 it wraps fuselab's functions (tracer.py), traces the set-ups and
every other iteration, and reports the per-layer metrics of one pass (one
set-up plus one iteration, each the median of its units) and the tracing
overhead: traced minus untraced median wall time. Spans are written to
.bench_run/trace-<workload>-seed<seed>.json.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
RUN_DIR = workloads.ROOT / ".bench_run"
SETUPS = 3
DEFAULT_SECONDS = 40
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "macro_f1": "ratio",
    "train_loss": "nats",
}


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_VARS},
    }


def set_up(name, seed, tiny, work, trace):
    """Run the set-up SETUPS times in child processes; keep the last inputs.

    Returns (seconds per set-up as the child measured them, spans per set-up,
    inputs dir).
    """
    times, units = [], []
    for i in range(SETUPS):
        root = work / f"setup-{i}"
        spans_file = work / f"setup-{i}.spans.json"
        cmd = [sys.executable, str(BENCH / "prepare.py"), name, str(seed), str(root)]
        cmd += ["--tiny"] if tiny else []
        cmd += ["--trace-out", str(spans_file)] if trace else []
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up of {name} failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(float(proc.stdout))
        if trace:
            units.append(json.loads(spans_file.read_text()))
        if i < SETUPS - 1:
            shutil.rmtree(root)
    return times, units, root


def timed_loop(workload, inputs, work, seconds, spans):
    """Closed loop: one iteration after another while the next one is expected
    to end nearer to the deadline than stopping now would.

    With a tracer, odd iterations are traced and even ones are not (so the
    process's first iteration, which pays its warm-up, is never traced); at
    least one of each runs. Returns one record per iteration.
    """
    records, cycles = [], []
    deadline = time.perf_counter() + seconds
    while True:
        i = len(records)
        traced = spans is not None and i % 2 == 1
        out = work / f"iter-{i}"
        if spans is not None:
            spans.enabled = traced
        start = time.perf_counter()
        error, quality = None, {}
        try:
            result = workload.run(inputs, out)
        except Exception:  # a failed command is counted, never fatal
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        if spans is not None:
            spans.enabled = False
        if error is None:
            try:
                quality = workload.check(inputs, out, result)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"iteration {i} failed:\n{error}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        records.append({
            "wall": wall,
            "traced": traced,
            "ok": error is None,
            "quality": quality,
            "spans": spans.take() if spans is not None else [],
        })
        cycles.append(time.perf_counter() - start)
        need_both = spans is not None and len(records) < 2
        if not need_both and time.perf_counter() + median(cycles) / 2 > deadline:
            return records


def end_to_end(workload, inputs, setup_times, records) -> dict:
    ok = [r for r in records if r["ok"]] or records
    wall = median(r["wall"] for r in ok)
    quality = [r["quality"] for r in ok if r["quality"]]
    return {
        "setup_s": median(setup_times),
        "wall_s": wall,
        "samples_per_s": workload.samples(inputs) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "macro_f1": median(q["macro_f1"] for q in quality) if quality else 0.0,
        "train_loss": median(q["train_loss"] for q in quality) if quality else 0.0,
    }


def per_layer(setup_units, records) -> dict:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    layers = tracer.combine([
        [tracer.summarize(spans) for spans in setup_units],
        [tracer.summarize(r["spans"]) for r in traced],
    ])
    layers["trace.overhead_s"] = median(r["wall"] for r in traced) - median(r["wall"] for r in untraced)
    return layers


def print_breakdown(layers, records) -> None:
    traced_wall = median(r["wall"] for r in records if r["traced"])
    print(f"# traced iteration median wall {traced_wall:.4f} s; self time per layer (one pass, set-up included):")
    for layer in tracer.LAYERS:
        self_s = layers.get(f"{layer}.self_s", 0.0)
        if layer == "train":  # train.self_s leaves the optimizer out
            self_s += layers.get("train.optimizer_s", 0.0)
        print(f"#   {layer:<11} {self_s:10.4f} s")
    for key in sorted(k for k in layers if k.startswith("train.step_s.")):
        print(f"#   median step {key[len('train.step_s.'):]:<14} {layers[key] * 1e3:9.2f} ms")


def write_trace(path, env, args, setup_units, records, layers) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    units = [{"phase": "setup", "spans": s} for s in setup_units]
    units += [{"phase": "iteration", "wall_s": r["wall"], "spans": r["spans"]} for r in records if r["traced"]]
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "span_fields": ["name", "start", "end", "parent", "info"],
        "units": units,
        "per_layer": layers,
    }))


def run_one(args) -> dict:
    workloads.prepare_process()
    workload = workloads.WORKLOADS[args.workload](args.smoke)
    env = environment()
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RUN_DIR))
    spans = None
    try:
        setup_times, setup_units, inputs = set_up(args.workload, args.seed, args.smoke, work, args.trace)
        if args.trace:
            spans = tracer.Tracer()
            spans.install()
        records = timed_loop(workload, inputs, work, args.seconds, spans)
        if args.trace:
            metrics, units = per_layer(setup_units, records), tracer.PER_LAYER
        else:
            metrics, units = end_to_end(workload, inputs, setup_times, records), END_TO_END
    finally:
        if spans is not None:
            spans.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# env: cpu {env['cpu']!r}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']}, {threads}")
    print(f"# iterations {len(records)}, failed {failed}, failed_frac {failed / len(records):g} (ratio); "
          "wall per iteration: " + " ".join(f"{r['wall']:.3f}" for r in records) + " s")
    for name, unit in units.items():
        tag = "  (computed)" if name in tracer.COMPUTED else ""
        print(f"{name:<34} {metrics.get(name, 0.0):>16.6g} {unit}{tag}")
    if args.trace:
        print_breakdown(metrics, records)
        if spans.missing:
            print(f"# tracer gaps (absent from this fuselab, or facts not recorded): {', '.join(spans.missing)}")
        path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, env, args, setup_units, records, metrics)
        print(f"# spans written to {path.relative_to(workloads.ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return result


def smoke_problems(result, trace) -> list:
    """Why a smoke result is unacceptable (empty when it passes)."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = [] if result["correct"] and result["failed"] == 0 else ["outputs failed their checks"]
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        if trace and m["value"] == 0:
            problems.append(f"per-layer metric {name!r} is 0: its calls were not traced")
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        if not UNIT_RE.fullmatch(str(m.get("unit", ""))) or m["unit"] != declared.get(name, m["unit"]):
            problems.append(f"metric {name!r} has unit {m.get('unit')!r}, BENCHMARK.json says {declared.get(name)!r}")
    return problems


def run_all(args) -> int:
    """Each workload in its own process (so peak memory is its own)."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1) if args.smoke else (args.trace,):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help=f"measuring time per run (default {DEFAULT_SECONDS}, smoke 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="miniature sizes; check metric names and units against BENCHMARK.json")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 1 if args.smoke else DEFAULT_SECONDS
    if args.workload == "all":
        return run_all(args)
    result = run_one(args)
    if args.smoke:
        problems = smoke_problems(result, args.trace)
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
