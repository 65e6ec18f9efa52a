"""Comparator minima and final regret over loss sequences, certified
reference optima, and log-log slopes.  All functions are pure."""

from __future__ import annotations

import math

import numpy as np

from .core import Domain, UnsupportedDomainError
from .stochastic import _smoothness, agd


def comparator_minimum(sequence, domain: Domain, grid_resolution: float = 1e-3,
                       dim: int | None = None):
    """min over the domain of Σ_t f_t(x): closed form for linear losses over
    sets with a linear-minimization routine and for shifted quadratics over
    balls/boxes; dense grid with a refinement pass for d ≤ 3 otherwise."""
    losses = list(sequence)
    if all(l.linear is not None for l in losses):
        total = np.sum([l.linear for l in losses], axis=0)
        try:
            x = domain.linear_minimizer(total)
            return x, float(total @ x)
        except UnsupportedDomainError:
            pass
    if all(l.quad_center is not None for l in losses):
        centers = np.stack([l.quad_center for l in losses])
        x = domain.project(centers.mean(axis=0))
        val = 0.5 * float(np.sum((x[None, :] - centers) ** 2))
        return x, val
    d = dim if dim is not None else (domain.dim or _sequence_dim(losses))
    if d > 3:
        raise UnsupportedDomainError("grid comparator only supported for d <= 3")
    return _grid_minimize(lambda x: sum(l.value(x) for l in losses), domain, d,
                          grid_resolution)


def _sequence_dim(losses) -> int:
    l = losses[0]
    if l.linear is not None:
        return l.linear.shape[0]
    if l.quad_center is not None:
        return l.quad_center.shape[0]
    raise UnsupportedDomainError("cannot infer dimension for unstructured losses")


def _grid_minimize(fun, domain: Domain, d: int, res: float):
    """Staged grid refinement down to ~1e-5 accuracy.

    Enumerating a flat 1e-3 lattice is intractable beyond d=1, so each stage
    scans ~41 points per axis and shrinks the window around the best cell
    until both the target resolution and the 1e-5 refinement are reached.
    """
    R = domain.outer_radius
    n = 41
    center = np.zeros(d)
    span = R
    best_x, best_v = None, math.inf
    target = min(res, 1e-5 * max(1.0, R))
    while True:
        lo = center - span
        step = 2 * span / (n - 1)
        for x, v in _grid_scan_box(fun, domain, d, lo, 2 * span, n):
            if v < best_v:
                best_x, best_v = x, v
        if best_x is None:
            raise UnsupportedDomainError("grid found no feasible point")
        center = best_x
        if step <= target:
            return best_x, best_v
        span = 2.0 * step  # keep the true optimum inside the next window


def _grid_scan_box(fun, domain, d, lo, width, n):
    axes = [np.linspace(lo[k], lo[k] + width, n) for k in range(d)]
    for idx in np.ndindex(*(n,) * d):
        x = np.array([axes[k][idx[k]] for k in range(d)])
        if domain.contains(x, tol=1e-9):
            yield x, fun(x)


def final_regret(decisions, sequence, comparator_domain: Domain) -> float:
    losses = list(sequence)
    learner = sum(float(l.value(x)) for l, x in zip(losses, decisions))
    d = len(np.asarray(decisions[0]).reshape(-1)) if len(decisions) else None
    _, best = comparator_minimum(sequence, comparator_domain, dim=d)
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
    for budget in budgets:
        w = agd(problem, domain, T=budget, snapshot_every=budget).final_point
        L = _smoothness(problem, None, "full")
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
