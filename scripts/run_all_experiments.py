#!/usr/bin/env python3
"""Run every registered experiment at one seed and collect the summary table.

Usage: python3 scripts/run_all_experiments.py [--seed S] [--out DIR]
"""

import argparse
import os
import sys

from smoothconvex.cli import EXPERIMENTS, RunConfig, run, write_summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=os.environ.get("SMOOTHCONVEX_OUT", "results"))
    args = ap.parse_args()
    write_summary(args.out, [run(RunConfig(experiment=name, seed=args.seed,
                                           output_dir=args.out))
                             for name in sorted(EXPERIMENTS)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
