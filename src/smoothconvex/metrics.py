"""Comparator minima and final regret over loss sequences, certified
reference optima, and log-log slopes.  All functions are pure."""

from __future__ import annotations

import numpy as np

from .core import Domain, NumericError, UnsupportedDomainError
from .stochastic import agd


def comparator_minimum(sequence, domain: Domain):
    """min over the domain of Σ_t f_t(x), in closed form: for linear losses
    over a ball or simplex, and for shifted quadratics ½‖x − c_t‖² (the
    projection of the mean center).  Linear losses over another kind, and a
    sequence that mixes the two kinds, are refused with
    UnsupportedDomainError.  Neither form reads boundary constants (Ball's
    alone) or an outer radius (the halfspace cut's alone); g is membership."""
    losses = list(sequence)
    if all(l.linear is not None for l in losses):
        total = np.sum([l.linear for l in losses], axis=0)
        x = domain.linear_minimizer(total)
        return x, float(total @ x)
    if all(l.quad_center is not None for l in losses):
        # np.array, not np.stack: no view object per round, same C-ordered array
        centers = np.array([l.quad_center for l in losses])
        x = domain.project(centers.mean(axis=0))
        val = 0.5 * float(np.sum((x[None, :] - centers) ** 2))
        return x, val
    raise UnsupportedDomainError(
        "comparator needs all-linear or all-quadratic losses")


def final_regret(decisions, sequence, comparator_domain: Domain) -> float:
    """Σ_t f_t(x_t) minus the comparator minimum, for the decisions x_t as a
    learner's (rounds, d) `decisions` array or any sequence of points."""
    losses = list(sequence)
    learner = sum(float(l.value(x)) for l, x in zip(losses, decisions))
    _, best = comparator_minimum(losses, comparator_domain)
    return learner - best


CERTIFICATE_TOL = 1e-12   # certificate at which reference_optimum stops early
_FIRST_BUDGET = 1_000     # AGD steps tried before the full cap


def reference_optimum(problem, domain: Domain, steps: int = 100_000) -> dict:
    """Certified deterministic solve; returns the point, value, and a
    projected-gradient-norm certificate at the smoothness AGD ran with.

    AGD first runs min(steps, 1000) steps; if the certificate is then at most
    CERTIFICATE_TOL that answer is returned, otherwise AGD runs again with the
    full `steps` (the first run is a prefix of that one).
    """
    budgets = [steps] if steps <= _FIRST_BUDGET else [_FIRST_BUDGET, steps]
    L = problem.constants.L_full
    for budget in budgets:
        w = agd(problem, domain, T=budget).final_point
        g = problem.full_grad(w)
        pg = (w - domain.project(w - g / L)) * L
        certificate = float(np.linalg.norm(pg))
        if certificate <= CERTIFICATE_TOL:
            break
    return {"w": w, "F": problem.full_value(w), "certificate": certificate}


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x; a value that is not
    positive has no logarithm and is refused with NumericError.  Fewer than
    two distinct xs fix no slope: NaN, the summary's "no slope"."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    if not (np.all(xs > 0) and np.all(ys > 0)):
        raise NumericError("log-log slope needs positive values")
    if xs.size < 2 or xs.min() == xs.max():  # np.unique would load numpy.ma
        return np.nan
    lx, ly = np.log(xs), np.log(ys)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(sol[0])
