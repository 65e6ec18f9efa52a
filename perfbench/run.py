#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload mixed-rate --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports smoothconvex from that
checkout's `src` and drives `smoothconvex.cli.main`, writing only under
`.perfbench_out/` in the checkout. Every repetition runs in a process forked
from this one after the imports, so imports are paid once here but no state
the program keeps carries from one repetition to the next, as with a fresh
CLI process.

--trace 0 measures the end-to-end metrics with tracing off: one untimed
repetition of the full profile at the reference seed (warm-up and full
reference check), then repetitions at --seed for --seconds seconds; `run_s`
is the median of their wall times scaled to nominal machine speed
(calibrate.py). Between repetitions, fresh set-up probe processes are
spawned, spread over the run; `setup_s` is the median of their times,
each scaled by reference processes spawned around it (SetupProbe).

--trace 1 gives the per-layer metrics: a repetition at the reference seed
(checked in full against the reference CSVs), an untraced and a traced
repetition at --seed (their CSVs must be byte-identical), and the kernel
table. It ignores --seconds. Spans go to
`.perfbench_out/<workload>/spans.npz`, per-layer figures to `layers.json`.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPAWNS = 12  # set-up probe processes per --trace 0 run
NOMINAL_REFERENCE_S = 0.15  # SetupProbe's reference process on the benchmark VM, rounded


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def prepare():
    """Pin BLAS threads and import the checkout's CLI; call before numpy loads."""
    if not (SRC / "smoothconvex" / "cli.py").is_file():
        raise SystemExit(f"error: no smoothconvex sources under {SRC}; "
                         "run from the root of a checkout")
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads())
    sys.path.insert(0, str(SRC))
    import smoothconvex.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported smoothconvex from {cli.__file__}, not {SRC}")
    return cli


def run_rep(cli, invs, outdir: Path):
    """Run one repetition in this process; returns (wall seconds, exit codes)."""
    codes = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for i, argv in enumerate(invs):
            try:
                codes.append(cli.main([*argv, "--out", str(outdir / str(i))]))
            except Exception:  # a traceback is a failed run, not a benchmark crash
                traceback.print_exc()
                codes.append(None)
    return time.perf_counter() - t0, codes


def in_child(fn):
    """Run fn() in a process forked from this one; returns (fn's result, or
    None if the child died, and the child's resource usage)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(fn()))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        print(f"forked process ended with status {status}", file=sys.stderr)
        return None, usage
    return pickle.loads(payload), usage


def forked_rep(cli, invs, outdir: Path, probe: bool = False):
    """One repetition in a forked process: (wall seconds, exit codes, speed
    probe samples, peak RSS in MB). A child that dies fails every run."""
    def rep():
        if not probe:
            return (*run_rep(cli, invs, outdir), [])
        import calibrate
        with calibrate.SpeedProbe() as speed:
            seconds, codes = run_rep(cli, invs, outdir)
        return seconds, codes, speed.samples

    result, usage = in_child(rep)
    seconds, codes, samples = result or (math.nan, [None] * len(invs), [])
    return seconds, codes, samples, usage.ru_maxrss / 1024.0


class Checker:
    """Checks each run (one experiment at one seed) and tallies failures."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.csv_identical = True

    def check(self, size: str, invs, outdir: Path, codes, expect: dict | None = None) -> dict:
        """Check one repetition of the `size` profile against its reference;
        `expect` holds CSV bytes it must reproduce.

        Returns {run key: CSV bytes} of the runs that passed.
        """
        ref_invs = W.invocations(self.workload, size, W.REFERENCE_SEED)
        refdir = BENCH / "reference" / size / self.workload
        written = {}
        for i, (argv, ref_argv, code) in enumerate(zip(invs, ref_invs, codes)):
            exp = argv[1]
            for seed, ref_seed in zip(W.seeds_of(argv), W.seeds_of(ref_argv)):
                self.attempted += 1
                key = f"{i}/{exp}_{seed}.csv"
                data, reason = self._check_run(outdir / str(i), exp, seed, code,
                                               refdir / f"{exp}_{ref_seed}.csv",
                                               full=seed == ref_seed)
                if reason is None and expect is not None and expect.get(key) != data:
                    reason = "CSV bytes differ from an earlier repetition at this seed"
                if reason is None:
                    written[key] = data
                else:
                    self.failures.append(f"{exp} seed={seed}: {reason}")
                    print(f"FAIL {exp} seed={seed}: {reason}", file=sys.stderr)
        return written

    def _check_run(self, rundir: Path, exp: str, seed: int, code, ref_path: Path,
                   full: bool):
        if code != 0:
            return None, f"exit code {code}"
        path, summary = rundir / f"{exp}_{seed}.csv", rundir / "summary.csv"
        if not path.is_file() or not summary.is_file():
            return None, "no CSV written"
        metric = checks.final_metric(summary.read_bytes(), seed)
        if metric is None or not math.isfinite(metric):
            return None, f"final metric {metric} is missing or not finite"
        data, ref = path.read_bytes(), ref_path.read_bytes()
        reason = checks.csv_disagreement(data, ref, None if full else W.SEED_FREE_COLUMNS[exp])
        if reason is not None:
            return None, f"disagrees with the reference: {reason}"
        if full and data != ref:
            self.csv_identical = False
        return data, None


class SetupProbe:
    """Times fresh set-up probe processes (probe.py): wall seconds from spawn
    to the `ready` line, which a CLI invocation reaches just before its first
    experiment starts (interpreter, imports, config resolution).

    Process start-up on the benchmark VM slowed by up to 2x in spells, and a
    compute loop such as calibrate.py's did not slow alike. So probe
    processes alternate with a reference process that starts the interpreter
    and imports numpy and the standard modules the CLI imports, the same kind
    of work in code outside this repository, and each probe time is scaled by
    NOMINAL_REFERENCE_S / (mean of the reference times right before and after
    it).
    """

    REFERENCE = ("import numpy, argparse, concurrent.futures, csv, dataclasses, "
                 "warnings; print('ready', flush=True)")

    def __init__(self, invs):
        self.cmd = [sys.executable, str(BENCH / "probe.py"), json.dumps(invs)]
        self.reference = [sys.executable, "-c", self.REFERENCE]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.seconds: list[float] = []
        self.reference_seconds: list[float] = []
        self.scaled: list[float] = []

    def _time(self, cmd) -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe {cmd[1]} exited with code {code}")
        return elapsed

    def catch_up(self, share: float) -> None:
        """Spawn probes until `share` of SETUP_SPAWNS (rounded up) have run, so
        that they spread over the run; back-to-back probes share a reference."""
        due = min(SETUP_SPAWNS, math.ceil(share * SETUP_SPAWNS)) - len(self.seconds)
        if due <= 0:
            return
        before = self._time(self.reference)
        for _ in range(due):
            seconds = self._time(self.cmd)
            after = self._time(self.reference)
            reference = 0.5 * (before + after)
            self.seconds.append(seconds)
            self.reference_seconds.append(reference)
            self.scaled.append(seconds * NOMINAL_REFERENCE_S / reference)
            before = after


def reference_rep(cli, checker: Checker, size: str, tmp: Path) -> None:
    """One checked repetition at the reference seed."""
    invs = W.invocations(checker.workload, size, W.REFERENCE_SEED)
    _, codes, _, _ = forked_rep(cli, invs, tmp / f"reference-{size}")
    checker.check(size, invs, tmp / f"reference-{size}", codes)


def timed_pass(cli, args, checker: Checker, tmp: Path):
    import calibrate

    invs = W.invocations(args.workload, args.size, args.seed)
    setup = SetupProbe(invs)
    setup.catch_up(1 / SETUP_SPAWNS)
    reference_rep(cli, checker, args.size, tmp)  # warm-up and full check
    exponent = W.PROBE_EXPONENT[args.workload]
    raw, scaled, probe_s, rss, first = [], [], [], [], None
    start = time.perf_counter()
    while not rss or time.perf_counter() < start + args.seconds:
        setup.catch_up((time.perf_counter() - start) / args.seconds)
        outdir = tmp / f"rep{len(rss)}"
        seconds, codes, samples, peak_mb = forked_rep(cli, invs, outdir, probe=True)
        rss.append(peak_mb)
        if samples:  # the child lived
            raw.append(seconds)
            scaled.append(calibrate.scaled(seconds, samples, exponent))
            probe_s.append(statistics.fmean(samples))
        written = checker.check(args.size, invs, outdir, codes, expect=first)
        first = first or written
        shutil.rmtree(outdir, ignore_errors=True)
    setup.catch_up(1.0)
    if not scaled:
        raise SystemExit("error: every timed repetition died")
    metrics = {"run_s": (statistics.median(scaled), "s"),
               "setup_s": (statistics.median(setup.scaled), "s"),
               "peak_rss_mb": (max(rss), "MB")}
    return metrics, {"rep_wall_s": raw, "rep_scaled_s": scaled, "mean_probe_s": probe_s,
                     "rep_peak_rss_mb": rss, "setup_wall_s": setup.seconds,
                     "setup_reference_s": setup.reference_seconds,
                     "setup_scaled_s": setup.scaled}


def traced_pass(cli, args, checker: Checker, tmp: Path, work: Path):
    import kernels
    import layers
    import spans

    reference_rep(cli, checker, args.size, tmp)
    invs = W.invocations(args.workload, args.size, args.seed)
    untraced_s, codes, _, _ = forked_rep(cli, invs, tmp / "untraced")
    untraced = checker.check(args.size, invs, tmp / "untraced", codes)
    kernel, _ = in_child(lambda: kernels.kernel_table(args.seed))

    def traced_rep():
        tracer = spans.Tracer(hooks=layers.HOOKS)
        with tracer:
            seconds, codes = run_rep(cli, invs, tmp / "traced")
        recorded = tracer.spans()
        recorded.save(work / "spans.npz")
        return (seconds, codes, layers.per_layer(recorded), recorded.table(),
                len(recorded.name_id))

    traced = in_child(traced_rep)[0]
    if kernel is None or traced is None:
        raise SystemExit("error: the traced pass died")
    traced_s, codes, layer_metrics, table, n_spans = traced
    checker.check(args.size, invs, tmp / "traced", codes, expect=untraced)
    metrics = {**layer_metrics, **kernel,
               "cli.csv_identical": (int(checker.csv_identical), "bool"),
               "trace.overhead_s": (traced_s - untraced_s, "s")}
    (work / "layers.json").write_text(json.dumps(
        {"metrics": {k: v for k, (v, _) in metrics.items()}, "spans": table}, indent=1))
    return metrics, {"untraced_s": untraced_s, "traced_s": traced_s, "spans": n_spans}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=W.SIZES, default="full",
                    help="workload profile; `small` is for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = prepare()
    import numpy as np

    work = OUT / args.workload
    tmp = work / f"tmp-trace{args.trace}"
    shutil.rmtree(tmp, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    checker = Checker(args.workload)
    try:
        if args.trace:
            metrics, info = traced_pass(cli, args, checker, tmp, work)
        else:
            metrics, info = timed_pass(cli, args, checker, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = len(checker.failures)
    info.update(workload=args.workload, size=args.size, seed=args.seed, trace=args.trace,
                blas_threads=blas_threads(), python=platform.python_version(),
                numpy=np.__version__, attempted=checker.attempted, failed=failed,
                failures=checker.failures, csv_identical=checker.csv_identical)
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(info, indent=1))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={info['blas_threads']} ops_failed={failed}/{checker.attempted} "
          f"csv_identical={int(checker.csv_identical)}")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
