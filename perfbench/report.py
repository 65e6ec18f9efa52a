#!/usr/bin/env python3
"""Run every workload untraced and traced; print the end-to-end table.

    python3 perfbench/report.py [--seed 0] [--seconds N]

Each run is a fresh `perfbench/run.py` process. Prints run_s, setup_s,
peak_rss_mb and ops_failed (failed runs / attempted runs) with units per
workload, and writes every metric of every run, per-layer ones included, to
.perfbench_out/report.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    report = {}
    header = f"{'workload':14}{'run_s':>12}{'setup_s':>12}{'peak_rss_mb':>14}{'ops_failed':>12}"
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        report[workload] = {"untraced": untraced, "traced": traced}
        m = untraced["metrics"]
        failed = untraced["failed"] + traced["failed"]
        attempted = untraced["attempted"] + traced["attempted"]
        print(f"{workload:14}{m['run_s']['value']:>10.3f} s{m['setup_s']['value']:>10.3f} s"
              f"{m['peak_rss_mb']['value']:>11.1f} MB{failed / attempted:>12.3f}")
    out = ROOT / ".perfbench_out" / "report.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"ops_failed is a share of runs attempted; per-layer metrics in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
