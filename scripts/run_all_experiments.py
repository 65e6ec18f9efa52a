#!/usr/bin/env python3
"""Run every registered experiment at one or more seeds and collect the
summary table.

Usage: python3 scripts/run_all_experiments.py [--seed S[,S2,...]] [--out DIR]

`--seed` takes one seed or a comma list, as the CLI does; each experiment
runs once per seed.  The experiment CSVs are byte-identical for the same code
and seeds, so two checkouts compare with one run each and
`diff -r -x summary.csv DIR1 DIR2` (summary.csv carries wall times).
"""

import argparse
import os
import sys

from smoothconvex.cli import EXPERIMENTS, RunConfig, _seed, run, write_summary
from smoothconvex.core import ConfigurationError


def seed_list(text: str) -> list[int]:
    """The comma list as seeds, each checked against the CLI's range."""
    try:
        return [_seed(s) for s in text.split(",")]
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=seed_list, default=[1])
    ap.add_argument("--out", default=os.environ.get("SMOOTHCONVEX_OUT", "results"))
    args = ap.parse_args()
    write_summary(args.out, [run(RunConfig(experiment=name, seed=seed,
                                           output_dir=args.out))
                             for name in sorted(EXPERIMENTS) for seed in args.seed])
    return 0


if __name__ == "__main__":
    sys.exit(main())
