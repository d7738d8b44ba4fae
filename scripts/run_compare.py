#!/usr/bin/env python3
"""Desk-scale experiment: synthesize the default dataset, train the four
paradigms that own networks (single-a, single-b, early, joint), build the two
late paradigms from the single-a and single-b networks, and emit the ranked
report over all six.

Equivalent to:
    fuselab dataset synth --out runs/dataset --seed 0
    fuselab compare --data runs/dataset --out runs/compare --seed 0
"""

import argparse
import sys

from fuselab.cli import main as cli


def run():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default="runs", help="directory for dataset and results")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--epochs", default=None, help="override compare's default epoch count")
    args = ap.parse_args()

    ds = f"{args.root}/dataset"
    code = cli(["dataset", "synth", "--out", ds, "--seed", args.seed, "--force"])
    if code != 0:
        return code
    compare_args = ["compare", "--data", ds, "--out", f"{args.root}/compare", "--seed", args.seed]
    if args.epochs is not None:
        compare_args += ["--epochs", args.epochs]
    return cli(compare_args)


if __name__ == "__main__":
    sys.exit(run())
