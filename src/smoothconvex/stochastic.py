"""Stochastic and deterministic solvers returning per-iteration Traces.

Each solver is called as `solver(problem, domain, *, ...)` with keyword-only
parameters, exactly the values some experiment sets; any other name raises
TypeError.  Every other constant is the thesis's prescription from the
objective: smoothness and strong convexity from `problem.constants`, and
sgd_pd's and sgd_st's gradient bound G1 and noise level from the objective's
`grad_bound` and `noise`.  An unset parameter takes the solver's default, and
a set step, radius, weight or target is refused unless > 0, NaN included.
sgd, sgd_pd and sgd_st record about 200 points, gd and agd none.
clipped_sgd and mixed_grad require the first epoch's length `T1`.

Every solver counts full-gradient calls, stochastic calls and projections
onto the domain exactly.  The step loops (sgd, gd, agd: one oracle call and
one projection a step) and the two single-projection solvers (one stochastic
call a step, one projection in all) set their counts once, from the horizon,
after the loop.  The epoch-based methods (the clipped-gradient solver and
both mixed-oracle solvers) add one call and one projection per stochastic
step once per epoch, so each epoch's record reads the running count.  The
step loops bind the domain's projection (Domain.projector) once per run; only
the start point goes through the checked Domain.project.

All five epoch and single-projection solvers refuse any domain but a ball with
ConfigurationError before any work (`_ball_radius`): sgd_pd and sgd_st read
boundary constants, which Ball alone has (every kind's g is only membership,
and the outer radius is the halfspace cut's alone).  The three epoch methods
share one inner loop (`_epoch`): each epoch binds a step closure over its
anchor, its projector and its step size, and the loop sums the iterates the
steps start from.  Each epoch projects onto the domain ∩ that epoch's ball,
and the projector, a core.two_ball_projector, is built once per epoch, so each
step pays only for projecting its point.  Every step hands the projector a
fresh point that the solver owns, which the kernel may return as is.  The
mixed-oracle solvers likewise bind the anchored difference once per epoch
(FiniteSumProblem.anchored_diff), and hold their per-epoch scalar factors as
0-d arrays, which numpy multiplies into a vector faster than a Python float
with the same products.  An epoch count or epoch length below one is refused,
as is a horizon below one step in the step loops and sgd_pd, or below two in
sgd_st (core._at_least, one rule for all three).

With `probe_variance`, emgd takes gradient_variance_probe at each epoch's end
and anchor.  The probe walks the data in row blocks (problems.row_blocks), so
its working memory grows with the block size, not with n.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (ConfigurationError, Domain, NumericError, Point, _at_least,
                   _norm, clip_component, make_rng, two_ball_projector)
from .problems import row_blocks


_DELTA = 0.1  # failure probability of the prescribed emgd epoch length and sgd_pd gamma


class Trace:
    """Per-iteration log of a solver run, its oracle and projection counts
    and its final point."""

    def __init__(self):
        self.records: list[dict] = []
        self.calls_full = self.calls_stochastic = 0
        self.projections = 0  # projections onto the true domain K
        self.final_point: Point | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.records if name in r])

    def add(self, **kv) -> None:
        self.records.append(kv)


def _given_step(name: str, value: float | None) -> float | None:
    """A parameter that must be positive (a step, radius, weight or target)
    when it is set, refused unless > 0, NaN too; None when unset, so
    `... or default` takes the default only then."""
    if value is not None and not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def _declared(objective, attr: str):
    """objective.<attr>, which a prescribed constant reads, or refusal."""
    if not hasattr(objective, attr):
        raise ConfigurationError(f"{type(objective).__name__} has no {attr}")
    return getattr(objective, attr)


def _stride(T: int) -> int:
    """Steps between records: about 200 records in all."""
    return max(1, T // 200)


def _ball_radius(domain: Domain, solver: str) -> float:
    """The radius of `solver`'s domain, which must be a ball at the origin:
    an epoch's domain ∩ ball is the exact two-ball kernel only for a ball,
    and only Ball has the boundary constants sgd_pd and sgd_st read (every
    kind's g is only membership; the outer radius is the halfspace cut's)."""
    if domain.kind != "ball":
        raise ConfigurationError(f"{solver} needs a ball domain, got {domain.kind!r}")
    return domain.r


_DRAW_BLOCK = 1024  # indices drawn per generator call; bounds the buffer


def _component_draws(problem, rng: np.random.Generator, count: int):
    """Yield `count` component indices, drawn in blocks of at most _DRAW_BLOCK.

    The stream equals `count` calls of `problem.component(rng)`.
    """
    for start in range(0, count, _DRAW_BLOCK):
        yield from problem.components(rng, min(_DRAW_BLOCK, count - start))


def _epoch(w: Point, draws, step) -> tuple[Point, Point]:
    """The epoch solvers' inner loop: from w, move to step(w, draw) for each
    draw.  Returns the last point and the sum of the points the steps started
    from (the last point is not in it).  w is only read; step must return a
    new array."""
    ssum = np.zeros_like(w)
    for draw in draws:
        ssum += w
        w = step(w, draw)
    return w, ssum


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def sgd(problem, domain: Domain, *, seed: int = 0, T: int = 1000,
        eta: float | None = None, keep_iterates: bool = False) -> Trace:
    """Projected stochastic gradient descent from the projected origin with
    step eta/√t at step t (eta = 1 by default) and uniform iterate averaging;
    records about 200 objectives, or every iterate with `keep_iterates`."""
    T = _at_least("horizon T", T)
    rng = make_rng(seed)
    eta = _given_step("eta", eta) or 1.0
    trace = Trace()
    project = domain.projector()
    w = domain.project(np.zeros(problem.d))
    avg = np.zeros_like(w)
    stride = _stride(T)
    for t in range(1, T + 1):
        avg += w
        if keep_iterates or t % stride == 1 or stride == 1:
            rec = {"iter": t, "objective": problem.full_value(w)}
            if keep_iterates:
                rec["w"] = w.copy()
            trace.add(**rec)
        g = problem.stochastic_grad(w, rng)
        w = project(w - eta / math.sqrt(t) * g)
    trace.calls_stochastic = trace.projections = T
    avg /= T
    trace.final_point = avg
    if keep_iterates:
        trace.add(iter=T + 1, objective=problem.full_value(w), w=w.copy())
    return trace


def gd(problem, domain: Domain, *, T: int = 1000) -> Trace:
    """Projected full-gradient descent from the projected origin with step
    1/L, L = problem.constants.L_full; records nothing."""
    T = _at_least("horizon T", T)
    eta = 1.0 / problem.constants.L_full
    trace = Trace()
    project = domain.projector()
    w = domain.project(np.zeros(problem.d))
    for _ in range(T):
        g = problem.full_grad(w)
        w = project(w - eta * g)
    trace.calls_full = trace.projections = T
    trace.final_point = w
    return trace


def agd(problem, domain: Domain, *, T: int = 1000) -> Trace:
    """Accelerated projected gradient (two-sequence averaging scheme) from
    the projected origin: theta_0 = 1, theta_s = 2/(s+2), and the prox step
    uses 1/(theta_s L), L = problem.constants.L_full, so the scheme attains
    the 1/T^2 smooth rate on constrained problems.  Records nothing."""
    T = _at_least("horizon T", T)
    L = problem.constants.L_full
    trace = Trace()
    project = domain.projector()
    h = domain.project(np.zeros(problem.d))
    f = h.copy()
    for s in range(T):
        theta = 1.0 if s == 0 else 2.0 / (s + 2.0)
        g_pt = (1.0 - theta) * h + theta * f
        grad = problem.full_grad(g_pt)
        f = project(f - grad / (theta * L))
        h = (1.0 - theta) * h + theta * f
    trace.calls_full = trace.projections = T
    trace.final_point = h
    return trace


# ---------------------------------------------------------------------------
# Clipped-gradient stages toward a known target risk
# ---------------------------------------------------------------------------


def clipped_sgd(problem, domain: Domain, *, seed: int = 0, m: int | None = None,
                T1: int, epsilon: float = 0.5, tau: float = 0.1, target_risk: float) -> Trace:
    """Fixed-size stages with componentwise gradient clipping and domain shrinking.

    Per stage k: clip level gamma_k = 2·xi·beta·Delta_k, projection onto
    domain ∩ ball(center_k, Delta_k) with step eta, stage-end averaging, and
    Delta_{k+1} = sqrt(eps·Delta_k² + tau·target_risk).

    `T1` is the stage length.  With beta = problem.constants.L_comp and
    alpha = problem.constants.lam, the clip-level factor is
    xi = 4·beta/(alpha·tau) and the step eta = 1/(2·xi·beta·√T1).
    """
    R = _ball_radius(domain, "clipped_sgd")
    if _given_step("target_risk", target_risk) is None:
        raise ConfigurationError("clipped_sgd needs a positive target risk")
    if not (0 < epsilon < 1 and 0 < tau < 1):
        raise ConfigurationError("epsilon and tau must lie in (0, 1)")
    beta, alpha = problem.constants.L_comp, problem.constants.lam
    if not alpha > 0:
        raise ConfigurationError("clipped_sgd needs a strongly convex problem")
    xi = 4.0 * beta / (alpha * tau)
    m = _at_least("epoch or stage count m", 8 if m is None else m)
    T1 = _at_least("epoch length", T1)
    eta = 1.0 / (2.0 * xi * beta * math.sqrt(T1))

    trace = Trace()
    rng = make_rng(seed)
    center = np.zeros(problem.d)
    origin = np.zeros(problem.d)
    Delta = R
    fixed_point = math.sqrt(tau * target_risk / (1.0 - epsilon))
    for k in range(1, m + 1):
        gamma_k = 2.0 * xi * beta * Delta
        project = two_ball_projector(origin, R, center, Delta)

        def step(w, _):
            v = clip_component(gamma_k, problem.stochastic_grad(w, rng))
            return project(w - eta * v)

        _, ssum = _epoch(center, range(T1), step)
        trace.calls_stochastic += T1
        trace.projections += T1
        center = ssum / T1
        new_Delta = math.sqrt(epsilon * Delta**2 + tau * target_risk)
        if abs(new_Delta - fixed_point) > abs(Delta - fixed_point) + 1e-12:
            raise NumericError("stage-radius recursion moved away from its fixed point")
        Delta = new_Delta
        trace.add(stage=k, delta=Delta, gamma_k=gamma_k, objective=problem.full_value(center),
                  calls_stochastic=trace.calls_stochastic)
    trace.final_point = center
    return trace


# ---------------------------------------------------------------------------
# Mixed-oracle epoch solvers
# ---------------------------------------------------------------------------


def mixed_grad(problem, domain: Domain, *, seed: int = 0, m: int | None = None,
               T1: int, eta: float | None = None, lambda1: float | None = None) -> Trace:
    """Epoch solver mixing one full gradient per epoch with anchored
    stochastic gradients; regularization, step size, and domain all shrink by
    gamma = 2 while epoch length grows by gamma².

    Works in shifted coordinates: epoch k optimizes over
    {w : w + center ∈ domain, ‖w‖ ≤ Delta_k}, which is the intersection of
    two balls only when the domain is a ball; other domains are refused.

    `T1` is the first epoch's length (required); its radius is the domain's
    R, and its step `eta` and regularization `lambda1` are by default
    1/(2·beta·√(3·T1)) and 16·beta, with beta = problem.constants.L_comp.
    """
    R = _ball_radius(domain, "mixed_grad")
    gamma = 2.0
    beta = problem.constants.L_comp
    m = _at_least("epoch count m", 5 if m is None else m)
    T1 = _at_least("epoch length", T1)
    lam = _given_step("lambda1", lambda1) or 16.0 * beta
    Delta = R
    eta = _given_step("eta", eta) or 1.0 / (2.0 * beta * math.sqrt(3.0 * T1))

    trace = Trace()
    rng = make_rng(seed)
    center = np.zeros(problem.d)
    origin = np.zeros(problem.d)
    Tk = T1
    for k in range(1, m + 1):
        g_full = problem.full_grad(center)
        trace.calls_full += 1
        g_anchor = lam * center + g_full
        project = two_ball_projector(-center, R, origin, Delta)
        diff = problem.anchored_diff(center)
        # a 0-d float64 array times a short vector gives the same IEEE
        # products as a Python float, but skips numpy's per-call conversion
        # of the float, which costs more than the product at this size
        eta_k, lam_k = np.array(eta), np.array(lam)

        def step(w, i):
            ghat = g_anchor + diff(i, w + center)
            return project(w - eta_k * (ghat + lam_k * w))

        w, ssum = _epoch(origin, _component_draws(problem, rng, Tk), step)
        trace.calls_stochastic += Tk
        trace.projections += Tk
        ssum += w
        wtilde = ssum / (Tk + 1)
        center = center + wtilde
        trace.add(epoch=k, objective=problem.full_value(center),
                  delta=Delta, calls_full=trace.calls_full,
                  calls_stochastic=trace.calls_stochastic)
        Delta /= gamma
        lam /= gamma
        eta /= gamma
        Tk = int(round(Tk * gamma * gamma))
    trace.final_point = center
    return trace


def emgd(problem, domain: Domain, *, seed: int = 0, T: int = 1000, m: int | None = None,
         T1: int | None = None, Delta1: float | None = None,
         probe_variance: bool = False) -> Trace:
    """Fixed-length epochs: one full gradient each, anchored stochastic
    gradients within, iterate averaging, and a domain radius halving in square
    every epoch (Delta ← Delta/√2).

    `T1` is the epoch length, by default the prescribed
    1152·(L/lam)²·log(1/δ) capped at `T`, with L and lam the L_comp and lam
    of problem.constants; `Delta1` is the first epoch's radius, by default
    twice the domain's.
    """
    R = _ball_radius(domain, "emgd")
    L, lam = problem.constants.L_comp, problem.constants.lam
    if not lam > 0:
        raise ConfigurationError("strong convexity required; use mixed_grad instead")
    m = _at_least("epoch count m", 8 if m is None else m)
    T_presc = math.ceil(1152.0 * (L / lam) ** 2 * math.log(1.0 / _DELTA))
    T = _at_least("epoch length", T1 if T1 is not None else min(T_presc, T))
    eta = 1.0 / (L * math.sqrt(T))
    Delta = _given_step("Delta1", Delta1) or 2.0 * R

    trace = Trace()
    rng = make_rng(seed)
    eta_0d = np.array(eta)  # 0-d: see mixed_grad
    center = np.zeros(problem.d)
    origin = np.zeros(problem.d)
    # the probe's coefficients at each new anchor serve the next epoch: m + 1 in all
    coefs = problem.loss_coefs(center) if probe_variance else None
    for k in range(1, m + 1):
        g_full = (problem.full_grad(center) if coefs is None
                  else problem.grad_from_coefs(center, coefs))
        trace.calls_full += 1
        project = two_ball_projector(origin, R, center, Delta)
        diff = problem.anchored_diff(center)

        def step(w, i):
            return project(w - eta_0d * (g_full + diff(i, w)))

        w, ssum = _epoch(center, _component_draws(problem, rng, T), step)
        trace.calls_stochastic += T
        trace.projections += T
        ssum += w
        new_center = ssum / (T + 1)
        rec = {"epoch": k, "objective": problem.full_value(new_center),
               "delta": Delta, "calls_full": trace.calls_full,
               "calls_stochastic": trace.calls_stochastic}
        if probe_variance:
            new_coefs = problem.loss_coefs(new_center)
            probe = gradient_variance_probe(problem, new_center, center,
                                            _coefs=(new_coefs, coefs))
            rec["variance_mixed"] = probe["mixed_var"]
            rec["variance_sgd"] = probe["sgd_var"]
            coefs = new_coefs
        trace.add(**rec)
        center = new_center
        Delta /= math.sqrt(2.0)
    trace.final_point = center
    return trace


def gradient_variance_probe(problem, point: Point, center: Point, *, _coefs=None) -> dict:
    """Exact one-sample variances of the plain and anchored stochastic gradients.

    Both are full sums over the n components (no sampling): the plain variance
    is E‖∇f_i(w)‖² − ‖∇F(w)‖², the anchored one uses the differenced
    components against `center`.  Rows c_i·x_i + λ_reg·w (c = problem.loss_coefs)
    are built a row block at a time; row 0 of the buffer carries the column
    sums so far, so every sum is the n × d matrix form's, bit for bit.
    """
    X, n = problem.X, problem.n
    blocks = row_blocks(n, problem.d)
    coefs = _coefs or (problem.loss_coefs(point), problem.loss_coefs(center))
    regs = problem.lam_reg * point, problem.lam_reg * center
    # one buffer: the block's gradient rows at point and at center, and squares
    gw, gc, sq = buf = np.empty((3, blocks[0].stop + 1, problem.d))
    row_w, row_d = np.empty(n), np.empty(n)
    for b in blocks:
        k = b.stop - b.start + 1
        for g, c, r in zip(buf, coefs, regs):
            np.multiply(c[b, None], X[b], out=g[1:k])
            g[1:k] += r
        np.sum(np.square(gw[1:k], out=sq[1:k]), axis=1, out=row_w[b])
        np.square(np.subtract(gw[1:k], gc[1:k], out=sq[1:k]), out=sq[1:k])
        np.sum(sq[1:k], axis=1, out=row_d[b])
        first = 1 if b.start == 0 else 0   # row 0 holds no sum yet
        gw[0], gc[0] = np.add.reduce(gw[first:k]), np.add.reduce(gc[first:k])
    mean_w, mean_diff = gw[0] / n, gw[0] / n - gc[0] / n
    sgd_var = float(np.mean(row_w) - mean_w @ mean_w)
    mixed_var = float(np.mean(row_d) - mean_diff @ mean_diff)
    return {"sgd_var": max(sgd_var, 0.0), "mixed_var": max(mixed_var, 0.0)}


# ---------------------------------------------------------------------------
# Single-projection solvers
# ---------------------------------------------------------------------------


def sgd_pd(objective, domain: Domain, *, seed: int = 0, T: int = 1000) -> Trace:
    """Primal-dual stochastic descent touching the true domain exactly once.

    Iterates stay in the unit-ball surrogate via renormalization; the dual
    ascent on the regularized Lagrangian replaces per-step projections, and
    the averaged iterate is projected onto the domain at output time only.
    The dual regularization gamma = G2²/√((G1² + C2² + (1 + log(2/δ))σ²)·T)
    reads the unit ball's gradient bound G1 = objective.grad_bound(1.0) and
    σ = objective.noise; the step is eta = gamma/(2·G2²).
    """
    _ball_radius(domain, "sgd_pd")
    T = _at_least("horizon T", T)
    G1 = _declared(objective, "grad_bound")(1.0)
    sigma = _declared(objective, "noise")
    G2, C2 = domain.G2, domain.C2
    gamma = G2 * G2 / math.sqrt(
        (G1 * G1 + C2 * C2 + (1.0 + math.log(2.0 / _DELTA)) * sigma * sigma) * T)
    eta = gamma / (2.0 * G2 * G2)

    trace = Trace()
    rng = make_rng(seed)
    x = np.zeros(objective.d)
    lam = 0.0
    xbar = np.zeros_like(x)
    stride = _stride(T)
    for t in range(1, T + 1):
        xbar += x
        g = objective.stochastic_grad(x, rng)
        gx = domain.g(x)
        xp = x - eta * (g + lam * domain.g_grad(x))
        x = xp / max(_norm(xp), 1.0)
        lam = max((1.0 - gamma * eta) * lam + eta * gx, 0.0)
        if t % stride == 0 or t == T:
            trace.add(iter=t, objective=objective.full_value(x), constraint=gx, dual=lam)
    xbar /= T
    trace.final_point = domain.project(xbar)
    trace.calls_stochastic, trace.projections = T, 1
    return trace


def sgd_st(objective, domain: Domain, *, seed: int = 0, T: int = 1000) -> Trace:
    """Single-projection stochastic descent for strongly convex objectives.

    The domain constraint enters through a softmax smoothing of the penalty;
    each step follows the smoothed gradient with a logistic constraint weight,
    and only the averaged output is projected.  The step at t is
    1/(2·alpha·t), alpha = objective.constants.lam; the smoothing is
    gamma = log(T)/T and the penalty weight lambda0 = 1.05·G1/rho (G1 as in
    sgd_pd), just above the G1/rho the guarantee needs.
    """
    _ball_radius(domain, "sgd_st")
    alpha = objective.constants.lam
    if not alpha > 0:
        raise ConfigurationError("sgd_st needs a strongly convex objective")
    # gamma = log(T)/T is positive only from T = 2 on
    T = _at_least("horizon T", T, 2)
    gamma = math.log(T) / T
    lam0 = 1.05 * _declared(objective, "grad_bound")(1.0) / domain.rho

    trace = Trace()
    rng = make_rng(seed)
    x = np.zeros(objective.d)
    xbar = np.zeros_like(x)
    stride = _stride(T)
    for t in range(1, T + 1):
        xbar += x
        g = objective.stochastic_grad(x, rng)
        gx = domain.g(x)
        z = lam0 * gx / gamma
        weight = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        eta_t = 1.0 / (2.0 * alpha * t)
        xp = x - eta_t * (g + weight * lam0 * domain.g_grad(x))
        x = xp / max(_norm(xp), 1.0)
        if t % stride == 0 or t == T:
            trace.add(iter=t, objective=objective.full_value(x), constraint=gx, weight=weight)
    xbar /= T
    trace.final_point = domain.project(xbar)
    trace.calls_stochastic, trace.projections = T, 1
    return trace
