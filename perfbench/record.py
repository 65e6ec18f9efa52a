#!/usr/bin/env python3
"""Record the reference CSVs the correctness check compares against.

    python3 perfbench/record.py

Runs one repetition of every workload, in every size profile, at the
reference seed and stores its experiment CSVs under
perfbench/reference/<size>/<workload>/. Re-record only for a change that is
meant to alter output bytes, and say so in CHANGES.md.
"""

import shutil
import sys

import run
import workloads as W


def main() -> int:
    cli = run.prepare()
    for size in W.SIZES:
        for workload in W.WORKLOADS:
            invs = W.invocations(workload, size, W.REFERENCE_SEED)
            tmp = run.OUT / "record" / size / workload
            shutil.rmtree(tmp, ignore_errors=True)
            _, codes = run.run_rep(cli, invs, tmp)
            if any(code != 0 for code in codes):
                print(f"error: {workload} ({size}) exit codes {codes}", file=sys.stderr)
                return 1
            dest = run.BENCH / "reference" / size / workload
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for i, argv in enumerate(invs):
                for seed in W.seeds_of(argv):
                    name = f"{argv[1]}_{seed}.csv"
                    shutil.copyfile(tmp / str(i) / name, dest / name)
            shutil.rmtree(tmp)
            print(f"recorded {size}/{workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
