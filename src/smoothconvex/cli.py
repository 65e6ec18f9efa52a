"""Batch experiment runner: dispatch named experiments, write CSV traces and a
summary table.

Each experiment's parameters, with their types and lower bounds, are
declared once in `EXPERIMENTS`; `resolve_params` checks them all, floats
finite, before any output directory is created or any worker starts.

CSV conventions: '.' decimal, '\n' line endings, no quoting (fields never
contain commas); identical config+seed produces byte-identical files.

The online chapter (`online`, `adversary`) is imported by the experiments
that run it, on their first call, so a solver run never loads it.

The command line's seeds, and the independent parts of `gv_regret_sweep`,
`soft_constraints` and `expert_switch`, map through
`_fork_map`, which runs on W = min(C, items) processes, where C is
`usable_cpus()`, the affinity mask, or within a share of an enclosing map that
map's C // W. `run()`, `scripts/run_all_experiments.py` and a direct call of an
experiment follow the same rule.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import sys
import time
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import ConfigurationError, Domain, InputError, NumericError, make_rng
from . import metrics, problems, stochastic

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC = 0, 2, 3
SEED_MAX = 2 ** 64 - 1  # make_rng keeps a seed's low 64 bits


class RunConfig(NamedTuple):
    experiment: str
    seed: int = 0
    overrides: dict = MappingProxyType({})  # read-only: resolve_params only reads it
    output_dir: str = "results"

    def __str__(self) -> str:  # how a failure message names the run
        return f"{self.experiment} seed {self.seed}"


class ExperimentResult(NamedTuple):
    rows: list              # dicts whose keys, in order, are the CSV columns
    final_metric: float
    slope: float = math.nan


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return repr(float(v))


class Param(NamedTuple):
    """One experiment parameter: its type, default and lower bound. A grid is
    a ';'-separated list whose entries each have type `kind` and the bound."""
    kind: type              # int or float
    default: object
    least: float | str = -math.inf  # a number, or a parameter declared earlier
    positive: bool = False  # the bound is "greater than 0", not `least`
    grid: bool = False


def write_csv(path: str, rows) -> None:
    """One line per row dict; the header is the first row's keys."""
    columns = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def exp_emgd_variance(seed: int, p: dict) -> ExperimentResult:
    data = problems.synthetic_classification(p["n"], p["d"], seed=7,
                                             row_norm=p["row_norm"])
    prob = problems.logistic_problem(data, lam=p["lam"])
    tr = stochastic.emgd(prob, Domain.ball(p["radius"]), seed=seed, T=p["T"],
                         m=p["epochs"], probe_variance=True, Delta1=p["Delta1"])
    rows = [{"iter": r["epoch"], "objective": r["objective"],
             "calls_full": r["calls_full"], "calls_stochastic": r["calls_stochastic"],
             "variance_sgd": r["variance_sgd"], "variance_mixed": r["variance_mixed"]}
            for r in tr.records]
    vm = tr.column("variance_mixed")
    if not vm[0] > 0:
        raise NumericError(f"epoch 1's variance_mixed is {float(vm[0])!r}; the ratio needs > 0")
    return ExperimentResult(rows, final_metric=float(vm[-1] / vm[0]),
                            slope=metrics.loglog_slope(np.arange(1, len(vm) + 1), vm))


def exp_mixedgrad_rate(seed: int, p: dict) -> ExperimentResult:
    m_min, m_max = p["m_min"], p["m_max"]
    data = problems.synthetic_regression(p["n"], p["d"], seed=11, noise=0.3,
                                         row_norm=1.0)
    prob = problems.least_squares_problem(data, lam=0.0)
    beta = prob.constants.L_comp
    wopt = np.linalg.lstsq(prob.X, prob.y, rcond=None)[0]
    dom = Domain.ball(2.0 * float(np.linalg.norm(wopt)))
    fstar = metrics.reference_optimum(prob, dom)["F"]
    # lambda1 is scaled to the averaged objective's smoothness: with the
    # worst-case 16*beta setting the shrinking-domain schedule outruns the
    # regularization path at this dimension and the rate never shows.
    # With T1 fixed, the run at m is the first m epochs of the run at m_max,
    # and epoch m's record holds that run's counters and full_value(final_point).
    tr = stochastic.mixed_grad(prob, dom, seed=seed, T1=p["T1"], m=m_max,
                               lambda1=p["lambda1_factor"] * prob.constants.L_full,
                               eta=p["eta_factor"] / beta)
    rows = [{"iter": r["epoch"], "calls_full": r["calls_full"],
             "calls_stochastic": r["calls_stochastic"],
             "suboptimality": r["objective"] - fstar}
            for r in tr.records[m_min - 1:]]
    subs = [r["suboptimality"] for r in rows]
    calls = [r["calls_stochastic"] for r in rows]
    slope = metrics.loglog_slope(calls, subs)
    return ExperimentResult(rows, final_metric=subs[-1], slope=slope)


def exp_clippedsgd_target(seed: int, p: dict) -> ExperimentResult:
    prob = problems.onedim_target_risk_problem(p["delta"])
    target = p["target_factor"] * prob.eps_opt
    tr = stochastic.clipped_sgd(prob, Domain.ball(1.0), seed=seed, m=p["stages"],
                                T1=p["T1"], target_risk=target, epsilon=p["epsilon"],
                                tau=p["tau"])
    rows = [{"iter": r["stage"], "objective": r["objective"], "delta": r["delta"],
             "calls_stochastic": r["calls_stochastic"]} for r in tr.records]
    risk = prob.full_value(tr.final_point)
    bound = (1.0 + p["tau"] / (1.0 - p["epsilon"])) * target
    return ExperimentResult(rows, final_metric=risk / bound)


def _oneproj_setup(p):
    center = np.array([p["center_x"], 0.0])
    obj = problems.NoisyQuadratic(center=center, noise=p["noise"])
    dom = Domain.ball(p["radius"])
    ref = metrics.reference_optimum(obj, dom)
    return obj, dom, ref["F"]


def exp_oneproj_general(seed: int, p: dict) -> ExperimentResult:
    obj, dom, fstar = _oneproj_setup(p)
    rows, subs, Ts = [], [], []
    for T in p["T_grid"]:
        tr = stochastic.sgd_pd(obj, dom, seed=seed, T=T)
        sub = obj.full_value(tr.final_point) - fstar
        rows.append({"iter": T, "suboptimality": sub, "violation": dom.g(tr.final_point),
                     "calls_stochastic": tr.calls_stochastic, "projections": tr.projections})
        subs.append(sub)
        Ts.append(T)
    return ExperimentResult(rows, final_metric=subs[-1],
                            slope=metrics.loglog_slope(Ts, subs))


def exp_oneproj_strong(seed: int, p: dict) -> ExperimentResult:
    obj, dom, fstar = _oneproj_setup(p)
    rows, ratios = [], []
    for T in p["T_grid"]:
        tr = stochastic.sgd_st(obj, dom, seed=seed, T=T, lam=1.0)
        sub = obj.full_value(tr.final_point) - fstar
        ratio = sub * T / math.log(T)
        rows.append({"iter": T, "suboptimality": sub, "violation": dom.g(tr.final_point),
                     "projections": tr.projections})
        ratios.append(ratio)
    return ExperimentResult(rows, final_metric=max(ratios) / min(ratios))


def _regret(learner, losses, best: float) -> float:
    """`learner`'s regret after a round on each of `losses`, against the best
    fixed point's total loss `best`; the learner prices its own decisions.
    `play` computes each round that does not repeat an earlier state and
    loss, and copies the records of those that do: the same floats as an
    observe loop, bit for bit."""
    learner.play(losses)
    return sum(learner.loss_values) - best


def exp_gv_regret_sweep(seed: int, p: dict) -> ExperimentResult:
    from . import adversary, online
    T, d, egvs = p["T"], p["d"], p["egv_grid"]
    dom = Domain.ball(1.0)

    def level(egv):  # one grid level, independent of the others
        seq = adversary.alternating_linear(egv, T, d)
        measured = adversary.measure_egv_exact(seq)
        omp = online.OMP(dom, L=1.0, eta=online.OMP.tuned_eta(1.0, measured), dim=d)
        ift = online.IFTRL(dom, L=1.0, eta=min(1.0, 1.0 / math.sqrt(measured)), dim=d)
        _, best = metrics.comparator_minimum(seq, dom)
        return {"egv": measured, "regret": _regret(omp, seq, best),
                "regret_iftrl": _regret(ift, seq, best)}

    rows = _fork_map(level, egvs)
    regs = [max(r["regret"], 1e-12) for r in rows]
    return ExperimentResult(rows, final_metric=regs[-1] / regs[0],
                            slope=metrics.loglog_slope(egvs, regs))


def exp_ogd_vs_omp_adversary(seed: int, p: dict) -> ExperimentResult:
    from . import adversary, online
    T, eta = p["T"], p["eta_ogd"]
    seq = adversary.ftrl_adversary(eta, T, gv_target=p["gv_target"])
    dom = Domain.ball(1.0)
    egv = adversary.measure_egv_exact(seq)
    ogd = online.OGD(dom, eta, dim=1)
    omp = online.OMP(dom, L=1.0, eta=online.OMP.tuned_eta(1.0, egv), dim=1)
    _, best = metrics.comparator_minimum(seq, dom)
    # both learners replay most rounds: forking costs more than the rounds
    r_ogd, r_omp = _regret(ogd, seq, best), _regret(omp, seq, best)
    margin = r_ogd - 5.0 * r_omp  # nonnegative iff the 5x separation holds
    rows = [{"egv": egv, "regret": r_ogd, "regret_omp": r_omp, "margin": margin}]
    return ExperimentResult(rows, final_metric=margin)


def exp_expert_switch(seed: int, p: dict) -> ExperimentResult:
    from . import adversary, online
    T = p["T"]
    rng = make_rng(seed)
    # every m's costs drawn first, in grid order, so the grid points can split
    costs = [(rng.uniform(0.0, 1.0, size=m), rng.uniform(0.0, 1.0, size=m))
             for m in p["m_grid"]]

    def point(i):
        c1, c2 = costs[i]
        m = len(c1)
        losses = [online.RoundLoss.from_linear(c1)] * (T // 2)
        losses += [online.RoundLoss.from_linear(c2)] * (T - T // 2)
        egv_inf = adversary.measure_egv_inf(losses)
        learner = online.ExpertOMP(m, eta=online.ExpertOMP.tuned_eta(m, egv_inf))
        _, best = metrics.comparator_minimum(losses, Domain.simplex(m))
        bound = math.sqrt(2.0 * egv_inf * math.log(m))
        return {"iter": m, "egv": egv_inf, "regret": _regret(learner, losses, best),
                "bound": bound}

    rows = _fork_map(point, range(len(costs)))
    worst = max([0.0] + [r["regret"] / r["bound"] for r in rows])
    return ExperimentResult(rows, final_metric=worst)


def exp_bandit_estimate(seed: int, p: dict) -> ExperimentResult:
    from . import online
    rows, worst = [], 0.0
    T = p["T"]
    for d in p["d_grid"]:
        rng = make_rng(seed + d)
        dom = Domain.ball(1.0)
        delta = p["delta"]
        learner = online.BanditOMP(dom, G=2.0, delta=delta, eta=delta / (4 * d * math.sqrt(2)),
                                   dim=d)
        centers = [rng.standard_normal(d) * 0.3 for _ in range(T)]
        max_err = 0.0
        for c in centers:
            l = online.RoundLoss.from_quadratic(c)
            x = learner.predict()
            learner.observe(l)
            err = float(np.linalg.norm(learner.last_estimate - l.grad(x)))
            max_err = max(max_err, err)
        bound = math.sqrt(d) * 1.0 * delta / 2.0
        rows.append({"iter": d, "max_error": max_err, "bound": bound,
                     "queries": learner.value_queries, "expected_queries": (d + 1) * T})
        worst = max(worst, max_err / bound)
    return ExperimentResult(rows, final_metric=worst)


def _soft_instance(seed: int, p: dict):
    from . import online
    T, R = p["T"], p["radius_R"]
    rng = make_rng(seed)
    r_c = p["constraint_radius"]
    rc2 = r_c * r_c
    # x.dot(x) is x @ x bit for bit: a sum of squares has no signed zero; the
    # gradient's 2 is a 0-d array, as `online` binds its step constants
    two = np.array(2.0)
    g = (lambda x: float(x.dot(x)) - rc2, lambda x: two * x)
    # the rounds share one read-only (T, 2) copy of the centers; math.cos and
    # math.sin, since np.cos and np.sin need not round alike
    losses = online.RoundLoss.quadratic_rounds(
        [(0.9 * math.cos(0.001 * t), 0.9 * math.sin(0.001 * t)) for t in range(T)])
    G = max(2.0 * R, R + 0.9)  # gradient bounds for losses and constraint over RB
    F = 0.5 * (R + 0.9) ** 2
    cons = online.ConstraintSet.from_samples([g], dim=2, ball_radius=R, loss_bound=F,
                                             grad_bound=G, rng=rng)
    return losses, cons, T, R


def exp_soft_constraints(seed: int, p: dict) -> ExperimentResult:
    from . import online
    losses, cons, T, R = _soft_instance(seed, p)
    dom_true = Domain.ball(p["constraint_radius"])
    soft = online.SoftConstraintOGD(cons, T, R=R, dim=2)
    zero = online.ZeroViolationOGD(cons, T, R=R, dim=2)
    _, best = metrics.comparator_minimum(losses, dom_true)

    def play(lr):  # one learner's regret and summed violations
        regret = _regret(lr, losses, best)
        return regret, float(np.sum(lr.violations[:, 0] if lr is soft else lr.raw_violations))

    (reg_soft, viol_soft), (reg_zero, viol_zero) = _fork_map(play, [soft, zero])
    a, delta = soft.a, soft.delta
    m = cons.m
    reg_bound = a * math.sqrt(T)
    viol_bound = math.sqrt(2 * (cons.F * T + a * math.sqrt(T)) * math.sqrt(T)
                           * (delta * R * R / a + m * a / (R * R)))
    rows = [
        {"variant": "soft", "regret": reg_soft, "regret_bound": reg_bound,
         "violation": viol_soft, "violation_bound": viol_bound},
        {"variant": "zero_violation", "regret": reg_zero, "regret_bound": reg_bound,
         "violation": viol_zero, "violation_bound": 0.0},
    ]
    return ExperimentResult(rows, final_metric=max(reg_soft / reg_bound,
                                                   viol_soft / viol_bound))


def exp_penalty_impossibility(seed: int, p: dict) -> ExperimentResult:
    from . import online
    T = p["T"]
    v = np.array([1.0, 0.0])
    loss = online.RoundLoss.from_linear(v)
    cons = online.ConstraintSet(
        funcs=[(lambda x: 1.0 - float(v @ x), lambda x: -v)], D=3.0, G=1.0, F=2.0)
    learner = online.PenaltyOGD(cons, p["eta"], delta=p["delta_penalty"], R=2.0, dim=2)
    learner.play([loss] * T)   # x settles on the boundary: play copies the later rounds
    viol = float(np.sum(np.maximum(learner.violations[:, 0], 0.0)))
    rows = [{"iter": T, "violation": viol, "threshold": 0.5 * T}]
    return ExperimentResult(rows, final_metric=viol / T)


def exp_psi_transform_table(seed: int, p: dict) -> ExperimentResult:
    rows = []
    for gamma in p["gamma_grid"]:
        for eta in [round(0.1 * k, 1) for k in range(1, 10)]:
            rows.append({"eta": eta, "gamma": gamma,
                         "psi": problems.psi_transform(eta, gamma)})
    return ExperimentResult(rows, final_metric=rows[-1]["psi"])


def exp_hinge_mistakes(seed: int, p: dict) -> ExperimentResult:
    from . import adversary, online
    T = p["T"]
    # d = 2: the comparator search below covers a 2-D grid
    examples = adversary.classification_stream(p["drift"], T, 2, seed=seed)
    learner = online.HingeClassifierPD(2, R=p["radius_R"])
    for gx in examples:
        learner.round(gx, 1.0)  # stream stores y·x, so the label is +1
    mistakes = learner.mistakes
    # best fixed comparator over a 2-D grid (coarse + refinement)
    best = _best_hinge(examples, p["radius_R"])
    egv = 0.0
    prev = None
    for gx in learner.mistake_examples:
        dv = gx - (np.zeros_like(gx) if prev is None else prev)
        egv += float(dv @ dv)
        prev = gx
    bound = best + math.sqrt(2.0) * (p["radius_R"] ** 2 + 1.0) * max(2.0, math.sqrt(egv))
    rows = [{"iter": T, "mistakes": mistakes, "hinge_best": best, "egv": egv,
             "bound": bound}]
    return ExperimentResult(rows, final_metric=mistakes / bound)


def _best_hinge(examples: np.ndarray, R: float) -> float:
    """A grid estimate, from above, of the least total hinge loss of the
    (T, 2) examples over the radius-R disc: the first least point of a grid
    of step 0.05·R, then the least value of a grid of step 0.002·R within
    ±0.06·R of it, so the number of points tried does not grow with R.  It
    can miss the minimum: at the defaults, seed 7, it gives 672.9035 where
    the least is 668.6204.

    A point is priced only if it can win.  Each term max(0, 1 − ⟨x_t, w⟩) is
    at least 1 − ⟨x_t, w⟩, so total(w) ≥ T − ⟨s, w⟩ with s = Σ_t x_t, and a
    point whose bound, less a margin, is not below the best total so far
    would fail the scan's strict `<`.  The margin covers the rounding of
    both sides: with S = T + 2R·Σ_t‖x_t‖₁, which bounds each side's terms
    on every grid point (each coordinate is within 2R), the sums of at most
    T terms, the products and the subtractions put each side off its exact
    value by at most about (T + 3)·u·S (u = ε/2, in any summation order),
    so the two differ by less than (T + 4)·ε·S beyond the exact inequality;
    the margin 2·(T + 2)·ε·S leaves T·ε·S to spare for rounding the
    comparison.
    A bound that is not finite (an infinite or NaN example, or an overflow)
    prices its point.  The points priced, the scan order and each total are
    those of the full scan, so the result is its float, bit for bit."""
    buf = np.empty(len(examples))

    def total(w):  # np.sum(np.maximum(0.0, 1.0 - examples @ w)) bit for bit
        np.matmul(examples, w, out=buf)
        np.subtract(1.0, buf, out=buf)
        np.maximum(0.0, buf, out=buf)
        return float(np.add.reduce(buf))

    T, s = len(examples), examples.sum(axis=0)
    S = T + 2.0 * R * float(np.abs(examples).sum())
    margin = 2.0 * (T + 2) * sys.float_info.epsilon * S
    best_w, best_v = np.zeros(2), total(np.zeros(2))
    for half, res in ((R, 0.05 * R), (0.06 * R, 0.002 * R)):
        center, grid = best_w, np.arange(-half, half + res / 2, res)
        # each point's bound T − ⟨s, w⟩ − margin, one row of the grid a row;
        # −inf where it is not finite
        with np.errstate(all="ignore"):
            floors = T - (s[0] * (center[0] + grid)[:, None]
                          + s[1] * (center[1] + grid)) - margin
        floors[~np.isfinite(floors)] = -np.inf
        for a, row in zip(grid, floors.tolist()):
            for b, floor in zip(grid, row):
                if floor < best_v:
                    w = center + np.array([a, b])
                    if w @ w <= R * R:
                        v = total(w)
                        if v < best_v:
                            best_w, best_v = w, v
    return best_v


# what _oneproj_setup reads
_ONEPROJ = {"center_x": Param(float, 1.2), "noise": Param(float, 0.5, least=0),
            "radius": Param(float, 0.8, positive=True)}

EXPERIMENTS = {
    "emgd_variance": (exp_emgd_variance, {
        "n": Param(int, 500, least=1), "d": Param(int, 20, least=1),
        "lam": Param(float, 1e-2, positive=True), "T": Param(int, 10_000, least=1),
        "epochs": Param(int, 10, least=1), "row_norm": Param(float, 1.0, positive=True),
        "Delta1": Param(float, 2.0, positive=True),
        "radius": Param(float, 2.0, positive=True)}),
    "mixedgrad_rate": (exp_mixedgrad_rate, {
        "n": Param(int, 200, least=1), "d": Param(int, 10, least=1),
        "m_min": Param(int, 4, least=1), "m_max": Param(int, 8, least="m_min"),
        "T1": Param(int, 30, least=1), "lambda1_factor": Param(float, 1.0, positive=True),
        "eta_factor": Param(float, 0.25, positive=True)}),
    "clippedsgd_target": (exp_clippedsgd_target, {
        "delta": Param(float, 0.05, positive=True),
        "target_factor": Param(float, 2.0, positive=True),
        "stages": Param(int, 10, least=1), "T1": Param(int, 4000, least=1),
        "epsilon": Param(float, 0.5, positive=True), "tau": Param(float, 0.1, positive=True)}),
    "oneproj_general": (exp_oneproj_general, {
        "T_grid": Param(int, "1000;10000;100000", least=1, grid=True), **_ONEPROJ}),
    "oneproj_strong": (exp_oneproj_strong, {
        # the ratio divides by log T
        "T_grid": Param(int, "1000;10000;100000", least=2, grid=True), **_ONEPROJ}),
    "gv_regret_sweep": (exp_gv_regret_sweep, {
        "T": Param(int, 10_000, least=1), "d": Param(int, 5, least=1),
        "egv_grid": Param(float, "1;4;16;64", positive=True, grid=True)}),
    "ogd_vs_omp_adversary": (exp_ogd_vs_omp_adversary, {
        "T": Param(int, 10_000, least=1), "eta_ogd": Param(float, 0.2, positive=True),
        "gv_target": Param(float, 8000.0, least=0)}),
    "expert_switch": (exp_expert_switch, {
        # the bound's log m must be positive
        "T": Param(int, 2000, least=1), "m_grid": Param(int, "4;16", least=2, grid=True)}),
    "bandit_estimate": (exp_bandit_estimate, {
        "T": Param(int, 100, least=1), "d_grid": Param(int, "2;5;10", least=1, grid=True),
        "delta": Param(float, 0.05, positive=True)}),
    "soft_constraints": (exp_soft_constraints, {
        "T": Param(int, 10_000, least=1), "radius_R": Param(float, 1.0, positive=True),
        "constraint_radius": Param(float, 0.7, positive=True)}),
    "penalty_impossibility": (exp_penalty_impossibility, {
        "T": Param(int, 1000, least=1), "eta": Param(float, 0.05, positive=True),
        "delta_penalty": Param(float, 0.5, least=0)}),
    "psi_transform_table": (exp_psi_transform_table, {
        "gamma_grid": Param(float, "1;10;100", positive=True, grid=True)}),
    "hinge_mistakes": (exp_hinge_mistakes, {
        "T": Param(int, 2000, least=1), "drift": Param(float, 0.1, least=0),
        "radius_R": Param(float, 1.0, positive=True)}),
}


# ---------------------------------------------------------------------------
# Runner plumbing
# ---------------------------------------------------------------------------


def parse_config_file(path: str) -> dict:
    """Flat `key = value` text with '#' comments."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"config line {lineno}: expected key = value")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _resolve(key: str, spec: Param, raw, resolved: dict):
    """`raw`, a string or not, as `spec`'s type (a list for a grid), refused
    unless finite and within its bound; `resolved` holds the values of the
    parameters declared before it."""
    try:
        value = ([spec.kind(v) for v in str(raw).split(";")] if spec.grid
                 else spec.kind(str(raw)))
    except ValueError:
        raise ConfigurationError(f"{key} expects ';'-separated numbers, got {raw!r}"
                                 if spec.grid else f"bad value for {key}: {raw!r}") from None
    subject = f"{key} entries" if spec.grid else key
    least, name = spec.least, ""
    if isinstance(least, str):
        least, name = resolved[least], f"{least}="
    for v in value if spec.grid else [value]:
        if not math.isfinite(v):
            raise ConfigurationError(f"{subject} must be finite, got {raw!r}")
        if spec.positive and not v > 0:
            raise ConfigurationError(f"{subject} must be positive, got {raw!r}")
        if v < least:
            raise ConfigurationError(f"{subject} must be at least {name}{least}, got {raw!r}")
    return value


def resolve_params(experiment: str, overrides: dict) -> dict:
    """The experiment's parameters: each override or default, checked
    against its declaration in `EXPERIMENTS`."""
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {experiment!r}; registry: "
                                 + ", ".join(sorted(EXPERIMENTS)))
    _, specs = EXPERIMENTS[experiment]
    for k in overrides:
        if k not in specs:
            raise ConfigurationError(
                f"unknown key {k!r}; valid keys: {', '.join(sorted(specs))}")
    resolved: dict = {}
    for k, spec in specs.items():
        resolved[k] = _resolve(k, spec, overrides.get(k, spec.default), resolved)
    return resolved


def run(config: RunConfig) -> dict:
    """Execute one experiment run; returns the summary row.  A seed outside
    0..SEED_MAX is refused, as on the command line."""
    seed = _seed(config.seed, "seed")
    params = resolve_params(config.experiment, config.overrides)
    fn, _ = EXPERIMENTS[config.experiment]
    where = f"{config.experiment} seed={seed}"
    t0 = time.perf_counter()
    try:
        result = fn(seed, params)
    except (ArithmeticError, NumericError, np.linalg.LinAlgError) as exc:
        # a float `**` that overflows raises OverflowError(errno, text)
        overflow = isinstance(exc, OverflowError) and len(exc.args) == 2
        raise NumericError(f"{where}: {exc.args[1] if overflow else exc}") from exc
    except ChildProcessError as exc:  # a worker on its parts died
        raise ChildProcessError(f"{where}: {exc}") from exc
    runtime_ms = int(round((time.perf_counter() - t0) * 1000.0))
    if not math.isfinite(result.final_metric):
        raise NumericError(f"{where}: non-finite final metric")
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, f"{config.experiment}_{seed}.csv")
    write_csv(path, result.rows)
    return {"experiment": config.experiment, "seed": seed,
            "final_metric": result.final_metric, "slope": result.slope,
            "runtime_ms": runtime_ms}


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one; 1 where it cannot fork, so every map runs serially."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread, once a process: set again
    after a fork, it starts a server thread that spins for OpenBLAS's timeout.
    A forked child inherits both the count and this cache. Nothing where numpy
    has no bundled OpenBLAS."""
    import ctypes
    import glob
    found = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                   "libscipy_openblas64_*.so"))
    if found:  # the copy numpy loaded: dlopen shares it
        put = ctypes.CDLL(found[0]).scipy_openblas_set_num_threads64_
        put.argtypes, put.restype = [ctypes.c_int], None
        put(1)


_share_cpus = None  # within a share of a fork map: the CPUs that share may use


def _fork_map(fn, items) -> list:
    """[fn(x) for x in items], on W = min(C, len(items)) processes, where C is
    `usable_cpus()` or, within a share of an enclosing map, that map's C // W.
    This process maps items[0::W]; each of W − 1 forked children maps
    items[k::W] and pipes back, pickled, its results up to its first failure
    and that exception. The first failure in item order is raised, as a
    serial map raises it. Before it forks, this process sets numpy's OpenBLAS
    to one thread for good, so each process runs one."""
    global _share_cpus
    C = usable_cpus() if _share_cpus is None else _share_cpus
    W = min(C, len(items))

    def share(k, catch=Exception):
        out = []
        for x in items[k::W]:
            try:
                out.append(fn(x))
            except catch as exc:
                return out + [exc]
        return out

    if W > 1:
        _one_blas_thread()  # here, not in a child: there it would start a thread pool
    sys.stdout.flush()
    sys.stderr.flush()
    children, shares, outer = [], [], _share_cpus
    try:
        _share_cpus = C // W  # the children inherit it
        for k in range(1, W):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:  # the child reports and exits, never returns
                try:
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(share(k, BaseException)))
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        shares.append(share(0))
        for k, (_, pipe) in enumerate(children, 1):
            data = pipe.read()
            shares.append(pickle.loads(data) if data else [ChildProcessError(
                f"the worker from {items[k]} on ended without a result")])
    finally:
        _share_cpus = outer
        for pid, pipe in children:
            pipe.close()
            if len(shares) < W:  # stopped early: stop the children too
                os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    results = [shares[i % W][i // W] for i in range(len(items))
               if i // W < len(shares[i % W])]
    for r in results:
        if isinstance(r, BaseException):
            raise r
    return results


def write_summary(outdir: str, summaries) -> None:
    """Write one row per run to `outdir/summary.csv` and echo it to stdout."""
    write_csv(os.path.join(outdir, "summary.csv"), summaries)
    for row in summaries:
        print(f"{row['experiment']} seed={row['seed']} "
              f"final_metric={row['final_metric']:.6g} slope={row['slope']:.4g} "
              f"runtime_ms={row['runtime_ms']}")


def _int(flag: str, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"{flag} expects an integer, got {text!r}") from None


def _seed(text, name: str = "--seed") -> int:
    """`text`, a string or an int, as a seed in 0..SEED_MAX; `name` is how
    the caller gave it.  make_rng keeps a seed's low 64 bits, so a seed
    outside that range would alias onto one inside it."""
    seed = _int(name, text)
    if not 0 <= seed <= SEED_MAX:
        raise ConfigurationError(f"{name} must lie in 0..{SEED_MAX}, got {text!r}")
    return seed


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _main_inner(argv)
    except (ConfigurationError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _main_inner(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return EXIT_OK
    if argv[0] != "run":
        raise ConfigurationError(f"unknown command {argv[0]!r}; try: run <experiment>")
    if len(argv) < 2:
        raise ConfigurationError(
            "missing experiment; registry: " + ", ".join(sorted(EXPERIMENTS)))
    experiment = argv[1]
    seed_text = None
    outdir = os.environ.get("SMOOTHCONVEX_OUT", "results")
    from_files: dict = {}
    explicit: dict = {}
    i = 2
    while i < len(argv):
        arg = argv[i]
        flag, eq, value = arg.partition("=")
        if flag in ("--seed", "--config", "--out"):
            # `--flag value` or `--flag=value`, the same either way
            if not eq:
                if i + 1 == len(argv):
                    raise ConfigurationError(f"{arg} needs a value")
                i += 1
                value = argv[i]
            if flag == "--seed":
                seed_text = value
            elif flag == "--config":
                from_files.update(parse_config_file(value))
            else:
                outdir = value
        elif arg.startswith("--") and eq:
            explicit[flag[2:]] = value
        else:
            raise ConfigurationError(f"unrecognized argument {arg!r}")
        i += 1
    # config-file values first, explicit flags on top, whatever their order
    overrides = {**from_files, **explicit}
    file_seed = overrides.pop("seed", "0")
    seeds = [_seed(s) for s in (file_seed if seed_text is None else seed_text).split(",")]
    resolve_params(experiment, overrides)  # every parameter error before any output
    tasks = [RunConfig(experiment, s, overrides, outdir) for s in seeds]
    write_summary(outdir, _fork_map(run, tasks))
    return EXIT_OK


def _usage() -> str:
    return ("usage: smoothconvex run <experiment> [--seed S[,S2,...]] "
            "[--config FILE] [--out DIR] [--key=value ...]\n"
            "seeds run in parallel, one process per seed and usable CPU at most, and the\n"
            "CPUs they leave split the parts of gv_regret_sweep, soft_constraints and\n"
            "expert_switch; the affinity mask caps all these processes, as it does for\n"
            "scripts/run_all_experiments.py and the library's run(), and\n"
            "`taskset -c 0 smoothconvex run ...` runs serially. Only the calling process\n"
            "writes summary.csv.\n"
            "experiments: " + ", ".join(sorted(EXPERIMENTS)))


if __name__ == "__main__":
    sys.exit(main())
