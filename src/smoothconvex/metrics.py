"""Comparator minima and final regret over loss sequences, certified
reference optima, and log-log slopes.  All functions are pure."""

from __future__ import annotations

import numpy as np

from .core import Domain, UnsupportedDomainError
from .stochastic import agd


def comparator_minimum(sequence, domain: Domain):
    """min over the domain of Σ_t f_t(x), in closed form: for linear losses
    over a set with a linear-minimization routine, and for shifted quadratics
    ½‖x − c_t‖² (the projection of the mean center).  Any other sequence,
    such as hinge losses, is refused with UnsupportedDomainError."""
    losses = list(sequence)
    if all(l.linear is not None for l in losses):
        total = np.sum([l.linear for l in losses], axis=0)
        x = domain.linear_minimizer(total)
        return x, float(total @ x)
    if all(l.quad_center is not None for l in losses):
        centers = np.stack([l.quad_center for l in losses])
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
        w = agd(problem, domain, T=budget, snapshot_every=budget).final_point
        g = problem.full_grad(w)
        pg = (w - domain.project(w - g / L)) * L
        certificate = float(np.linalg.norm(pg))
        if certificate <= CERTIFICATE_TOL:
            break
    return {"w": w, "F": problem.full_value(w), "certificate": certificate}


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(sol[0])
