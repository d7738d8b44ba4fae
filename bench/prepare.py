#!/usr/bin/env python3
"""Set up one workload's inputs in a fresh process.

    python3 bench/prepare.py WORKLOAD SEED DIR [--tiny] [--trace-out FILE]

Running the set-up in its own process keeps its memory out of the timed
commands' peak. Prints the wall time of the set-up commands in seconds
(interpreter start-up and imports excluded, as their jitter on a small VM
exceeds the set-up itself). With --trace-out the set-up is traced and its
spans are written to FILE as JSON.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import tracer
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("dir", type=Path)
    ap.add_argument("--tiny", action="store_true", help="miniature sizes for the smoke mode")
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()
    workloads.prepare_process()

    workload = workloads.WORKLOADS[args.workload](args.tiny)
    spans = tracer.Tracer()
    if args.trace_out:
        spans.install()
        spans.enabled = True
    start = time.perf_counter()
    try:
        workload.setup(args.seed, args.dir)
    except workloads.CheckFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    print(time.perf_counter() - start)
    if args.trace_out:
        spans.enabled = False
        args.trace_out.write_text(json.dumps(spans.take()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
