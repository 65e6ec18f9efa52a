"""Workload definitions: the CLI invocations each workload makes.

A workload is a list of invocations of `smoothconvex.cli.main`. Each
invocation is a function of the workload seed and returns the argv after
`run`; the seed reaches the program only as `--seed`.

Why these three (see perfbench/README.md for the full rationale):

- mixed-rate: bound by the `mixed_grad` solver loop (one anchored component
  difference and one two-ball projection per step) and by the 100k-step AGD
  `reference_optimum`; problem construction is about 1% of it.
- setup-scale: bound by problem construction (dense -> tuples -> dense data,
  1,001 full component-gradient passes in `estimate_constants` per build);
  the solver does only 10k steps per seed.
- online-sweep: every online experiment, bound by per-round learner updates,
  adversary generation and regret evaluation; no `problems` or `stochastic`
  call, and projections go one ball at a time.

`small` is a reduced profile for the smoke test; benchmark runs use `full`.
"""

from __future__ import annotations

REFERENCE_SEED = 0
SIZES = ("full", "small")

ONLINE_EXPERIMENTS = ("gv_regret_sweep", "soft_constraints", "ogd_vs_omp_adversary",
                      "hinge_mistakes", "expert_switch", "bandit_estimate",
                      "penalty_impossibility")

# Reduced round counts for the small profile, per online experiment.
_ONLINE_SMALL = {"gv_regret_sweep": ["--T=1000"], "soft_constraints": ["--T=1000"],
                 "ogd_vs_omp_adversary": ["--T=1000", "--gv_target=800.0"],
                 "hinge_mistakes": ["--T=500"], "expert_switch": ["--T=500"],
                 "bandit_estimate": ["--T=50"], "penalty_impossibility": ["--T=500"]}


def _mixed_rate(size):
    m_max = 7 if size == "full" else 5
    return [lambda s: ["mixedgrad_rate", f"--m_max={m_max}", "--seed", str(s)]]


def _setup_scale(size):
    n, d, T = (5000, 50, 1000) if size == "full" else (500, 10, 100)
    return [lambda s: ["emgd_variance", f"--n={n}", f"--d={d}", f"--T={T}",
                       "--seed", f"{s},{s + 1}"]]


def _online_sweep(size):
    def invocation(exp):
        extra = [] if size == "full" else _ONLINE_SMALL[exp]
        return lambda s: [exp, *extra, "--seed", str(s)]
    return [invocation(exp) for exp in ONLINE_EXPERIMENTS]


WORKLOADS = {"mixed-rate": _mixed_rate, "setup-scale": _setup_scale,
             "online-sweep": _online_sweep}

# How a workload's repetition time follows the speed probe's time across the
# VM's speed spells: time ~ probe time ** exponent (calibrate.scaled). The
# solver loop and the online learners are Python-driven numpy on short
# vectors, as is the probe, and follow it in proportion. setup-scale's
# gradient passes stream 2 MB arrays and slowed less: over 94 repetitions the
# slope of log time on log probe time was 0.57, and the spread of run_s
# between runs was smallest near 0.7. The exponent is a noise setting only:
# both commits of a comparison are scaled alike.
PROBE_EXPONENT = {"mixed-rate": 1.0, "setup-scale": 0.7, "online-sweep": 1.0}

# CSV columns that do not depend on the seed: at any seed they must agree with
# the reference. Other columns are compared only at REFERENCE_SEED.
SEED_FREE_COLUMNS = {
    "mixedgrad_rate": ("iter", "calls_full", "calls_stochastic"),
    "emgd_variance": ("iter", "calls_full", "calls_stochastic"),
    "gv_regret_sweep": ("egv", "regret", "regret_iftrl"),
    "soft_constraints": ("variant",),
    "ogd_vs_omp_adversary": ("egv", "regret", "regret_omp", "margin"),
    "hinge_mistakes": ("iter",),
    "expert_switch": ("iter",),
    "bandit_estimate": ("iter", "bound", "queries", "expected_queries"),
    "penalty_impossibility": ("iter", "violation", "threshold"),
}


def invocations(workload: str, size: str, seed: int) -> list[list[str]]:
    """The CLI argv lists (after `run`) one repetition of a workload makes."""
    return [["run", *make(seed)] for make in WORKLOADS[workload](size)]


def seeds_of(argv: list[str]) -> list[int]:
    return [int(s) for s in argv[argv.index("--seed") + 1].split(",")]
