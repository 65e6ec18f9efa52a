"""Stochastic and deterministic solvers returning per-iteration Traces.

Each solver is called as `solver(problem, domain, *, ...)` with keyword-only
parameters, exactly the values it reads; any other name raises TypeError.  An
unset parameter takes the solver's default.  `L` is always a smoothness
constant and `lam` a strong-convexity modulus (refused unless positive when
set); `snapshot_every` is the number of steps between records (0: about 200).

Every solver counts full-gradient calls, stochastic calls and projections
onto the domain exactly: the step loops (sgd, gd, agd) one projection per
step, the epoch-based methods (the clipped-gradient solver and both
mixed-oracle solvers) one per stochastic step, added once per epoch, and the
two single-projection solvers their one projection each.  The step loops bind
the domain's projection (Domain.projector) once per run; only the start point
goes through the checked Domain.project.

The three epoch methods share one inner loop (`_epoch`): each epoch binds a
step closure over its anchor, its projector and its step size, and the loop
sums the iterates the steps start from.  The projector is built once per
epoch for the intersection of the domain with that epoch's ball
(core.two_ball_projector when the domain is a ball), so each step pays only
for projecting its point.  Every step hands the projector a fresh point that
the solver owns, which the kernel may return as is.  The mixed-oracle
solvers likewise bind the anchored difference once per epoch
(FiniteSumProblem.anchored_diff), and hold their per-epoch scalar factors as
0-d arrays, which numpy multiplies into a vector faster than a Python float
with the same products.  An epoch length below
one step is refused, as is a horizon below one step in every solver that
averages its iterates over the horizon.

With `probe_variance`, emgd computes the n × d component-gradient matrix once
per epoch anchor: the matrix at an epoch's output is the next epoch's anchor
matrix, so m epochs take m + 1 matrices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (ConfigurationError, Domain, NumericError, Point,
                   StepSchedule, clip_component, dykstra, make_rng,
                   project_ball, two_ball_projector)


@dataclass
class Trace:
    """Per-iteration log of a solver run."""

    header: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    calls_full: int = 0
    calls_stochastic: int = 0
    projections: int = 0      # projections onto the true domain K
    final_point: Point | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.records if name in r])

    def add(self, **kv) -> None:
        self.records.append(kv)


def _smoothness(problem, L: float | None, flavor: str = "component") -> float:
    """Pick the smoothness constant a solver should run with: `L` when set.

    flavor="component": the stochastic-oracle functions' constant (epoch
    solvers); flavor="full": the averaged objective's constant (full-gradient
    step sizes).  Both come from the objective's `constants`.
    """
    if L is not None:
        return L
    c = problem.constants
    return c.L_comp if flavor == "component" else c.L_full


def _strong_convexity(problem, lam: float | None) -> float:
    """`lam` when it is set, refused unless positive; otherwise the
    objective's `constants.lam` (0 when it is not strongly convex)."""
    if lam is not None:
        if not lam > 0:
            raise ConfigurationError(f"strong convexity lam must be positive, got {lam!r}")
        return lam
    return problem.constants.lam


def _start(problem, w0: Point | None) -> Point:
    if w0 is not None:
        return np.asarray(w0, dtype=np.float64).copy()
    return np.zeros(problem.d)


def _horizon(T: int, least: int = 1) -> int:
    """T, refused unless it is at least `least` steps."""
    if T < least:
        raise ConfigurationError(f"horizon T must be at least {least}, got T={T}")
    return T


def _epoch_length(T1: int) -> int:
    """A resolved epoch or stage length, refused unless at least one step."""
    if T1 < 1:
        raise ConfigurationError(f"epoch length must be at least 1 step, got {T1}")
    return T1


def _epoch_count(m: int | None, default: int) -> int:
    """m, or `default` when it is unset; at least one epoch."""
    m = default if m is None else m
    if m < 1:
        raise ConfigurationError(f"need at least one epoch or stage, got m={m}")
    return m


def _given_step(name: str, value: float | None) -> float | None:
    """A step size `eta`, step parameter `gamma` or first-epoch radius
    `Delta1` when it is set, refused unless positive; None when unset, so
    `... or default` takes the default only then."""
    if value is not None and not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def _declared(objective, attr: str, param: str):
    """objective.<attr>, which the default of `param` reads; an objective
    that does not declare it is refused, naming the parameter to set."""
    if not hasattr(objective, attr):
        raise ConfigurationError(f"{type(objective).__name__} has no {attr}; "
                                 f"set {param}")
    return getattr(objective, attr)


def _stride(T: int, snapshot_every: int) -> int:
    """Steps between records: `snapshot_every`, or about 200 records when 0."""
    if snapshot_every > 0:
        return snapshot_every
    return max(1, T // 200)


def _intersection_projector(domain: Domain, center: Point, radius: float):
    """Projection onto domain ∩ ball(center, radius), for one epoch's center
    and radius."""
    if domain.kind == "ball":
        return two_ball_projector(np.zeros_like(center), domain.r, center, radius)
    return lambda x: dykstra(x, [domain.project, lambda v: project_ball(v, radius, center)])


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
        schedule: StepSchedule | None = None, eta: float | None = None,
        w0: Point | None = None, snapshot_every: int = 0,
        keep_iterates: bool = False) -> Trace:
    """Projected stochastic gradient descent with uniform iterate averaging."""
    T = _horizon(T)
    rng = make_rng(seed)
    sched = schedule or StepSchedule.inverse_sqrt(_given_step("eta", eta) or 1.0)
    trace = Trace(header={"solver": "sgd"})
    project = domain.projector()
    w = domain.project(_start(problem, w0))
    avg = np.zeros_like(w)
    stride = _stride(T, snapshot_every)
    for t in range(1, T + 1):
        avg += w
        if keep_iterates or t % stride == 1 or stride == 1:
            rec = {"iter": t, "objective": problem.full_value(w)}
            if keep_iterates:
                rec["w"] = w.copy()
            trace.add(**rec)
        g = problem.stochastic_grad(w, rng)
        trace.calls_stochastic += 1
        w = project(w - sched.at(t) * g)
        trace.projections += 1
    avg /= T
    trace.final_point = avg
    if keep_iterates:
        trace.add(iter=T + 1, objective=problem.full_value(w), w=w.copy())
    return trace


def gd(problem, domain: Domain, *, T: int = 1000, eta: float | None = None,
       w0: Point | None = None, L: float | None = None, snapshot_every: int = 0) -> Trace:
    """Projected full-gradient descent, eta = 1/L by default."""
    L = _smoothness(problem, L, "full")
    eta = _given_step("eta", eta) or 1.0 / L
    trace = Trace(header={"solver": "gd", "eta": eta})
    project = domain.projector()
    w = domain.project(_start(problem, w0))
    stride = _stride(T, snapshot_every)
    for t in range(1, T + 1):
        g = problem.full_grad(w)
        trace.calls_full += 1
        w = project(w - eta * g)
        trace.projections += 1
        if t % stride == 0 or t == T:
            trace.add(iter=t, objective=problem.full_value(w))
    trace.final_point = w
    return trace


def agd(problem, domain: Domain, *, T: int = 1000, w0: Point | None = None,
        L: float | None = None, snapshot_every: int = 0) -> Trace:
    """Accelerated projected gradient (two-sequence averaging scheme).

    theta_0 = 1, theta_s = 2/(s+2); the prox step uses 1/(theta_s L) so the
    scheme attains the 1/T^2 smooth rate on constrained problems.
    """
    L = _smoothness(problem, L, "full")
    trace = Trace(header={"solver": "agd"})
    project = domain.projector()
    h = domain.project(_start(problem, w0))
    f = h.copy()
    stride = _stride(T, snapshot_every)
    for s in range(T):
        theta = 1.0 if s == 0 else 2.0 / (s + 2.0)
        g_pt = (1.0 - theta) * h + theta * f
        grad = problem.full_grad(g_pt)
        trace.calls_full += 1
        f = project(f - grad / (theta * L))
        trace.projections += 1
        h = (1.0 - theta) * h + theta * f
        if (s + 1) % stride == 0 or s + 1 == T:
            trace.add(iter=s + 1, objective=problem.full_value(h))
    trace.final_point = h
    return trace


# ---------------------------------------------------------------------------
# Clipped-gradient stages toward a known target risk
# ---------------------------------------------------------------------------


def clipped_sgd(problem, domain: Domain, *, seed: int = 0, T: int = 1000,
                m: int | None = None, T1: int | None = None, eta: float | None = None,
                L: float | None = None, lam: float | None = None, xi: float | None = None,
                epsilon: float = 0.5, tau: float = 0.1, target_risk: float | None = None,
                delta: float = 0.1) -> Trace:
    """Fixed-size stages with componentwise gradient clipping and domain shrinking.

    Per stage k: clip level gamma_k = 2·xi·beta·Delta_k, projection onto
    domain ∩ ball(center_k, Delta_k), stage-end averaging, and
    Delta_{k+1} = sqrt(eps·Delta_k² + tau·target_risk).

    `xi` is the clip-level factor above, by default 4·beta/(lam·tau).
    """
    if target_risk is None or target_risk <= 0:
        raise ConfigurationError("clipped_sgd needs a positive target risk")
    if not (0 < epsilon < 1 and 0 < tau < 1):
        raise ConfigurationError("epsilon and tau must lie in (0, 1)")
    beta = _smoothness(problem, L)
    alpha = _strong_convexity(problem, lam)
    if alpha <= 0:
        raise ConfigurationError("clipped_sgd needs a strongly convex problem")
    xi = xi if xi is not None else 4.0 * beta / (alpha * tau)
    R = domain.r if domain.kind == "ball" else domain.outer_radius
    m = _epoch_count(m, 8)
    d = problem.d
    stage_count = max(1, math.ceil(math.log2(max(xi * beta * R * R / target_risk, 2.0))))
    T1_presc = math.ceil(4 * max(
        (xi**3 * beta * d + 2.0 * xi * beta * math.sqrt(d))
        / (epsilon * alpha) * math.log(max(m * stage_count / delta, 2.0)),
        16.0 * xi**2 * beta**2 / (alpha**2 * epsilon**2)))
    T1 = _epoch_length(T1 if T1 is not None else min(T1_presc, max(1, T // m)))
    eta = _given_step("eta", eta) or 1.0 / (2.0 * xi * beta * math.sqrt(T1))

    trace = Trace(header={
        "solver": "clipped_sgd", "xi": xi, "T1": T1, "eta": eta,
        "stage_count_prescribed": stage_count,
        "T1_prescribed": T1_presc, "T1_capped": T1 < T1_presc,
    })
    rng = make_rng(seed)
    # a feasible start keeps every average, and so the answer, feasible
    center = domain.project(np.zeros(d))
    Delta = R
    fixed_point = math.sqrt(tau * target_risk / (1.0 - epsilon))
    for k in range(1, m + 1):
        gamma_k = 2.0 * xi * beta * Delta
        project = _intersection_projector(domain, center, Delta)

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
        rec = {"stage": k, "delta": Delta, "gamma_k": gamma_k,
               "objective": problem.full_value(center),
               "calls_stochastic": trace.calls_stochastic}
        trace.add(**rec)
    trace.final_point = center
    return trace


# ---------------------------------------------------------------------------
# Mixed-oracle epoch solvers
# ---------------------------------------------------------------------------


def mixed_grad(problem, domain: Domain, *, seed: int = 0, T: int = 1000,
               m: int | None = None, T1: int | None = None, eta: float | None = None,
               L: float | None = None, Delta1: float | None = None,
               lambda1: float | None = None, gamma_shrink: float = 2.0,
               delta: float = 0.1) -> Trace:
    """Epoch solver mixing one full gradient per epoch with anchored
    stochastic gradients; regularization, step size, and domain all shrink by
    gamma while epoch length grows by gamma².

    Works in shifted coordinates: epoch k optimizes over
    {w : w + center ∈ domain, ‖w‖ ≤ Delta_k}, which is the intersection of
    two balls only when the domain is a ball; other domains are refused.

    `Delta1`, `lambda1`: first epoch's radius and regularization (R, 16·L).
    """
    if domain.kind != "ball":
        raise ConfigurationError(f"mixed_grad needs a ball domain, got {domain.kind!r}")
    gamma = gamma_shrink
    if gamma <= 1.0:
        raise ConfigurationError("shrink factor must exceed 1")
    beta = _smoothness(problem, L)
    R = domain.r
    m = _epoch_count(m, 5)
    T1_presc = math.ceil(300.0 * math.log(m / delta))
    budget_T1 = max(1, math.floor(T * (gamma**2 - 1) / (gamma ** (2 * m) - 1)))
    T1 = _epoch_length(T1 if T1 is not None else min(T1_presc, budget_T1))
    lam = lambda1 if lambda1 is not None else 16.0 * beta
    Delta = _given_step("Delta1", Delta1) or R
    eta = _given_step("eta", eta) or 1.0 / (2.0 * beta * math.sqrt(3.0 * T1))

    trace = Trace(header={
        "solver": "mixed_grad", "T1": T1, "lambda1": lam, "eta1": eta,
        "T1_prescribed": T1_presc, "T1_capped": T1 < T1_presc,
    })
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
         T1: int | None = None, eta: float | None = None, L: float | None = None,
         lam: float | None = None, Delta1: float | None = None, delta: float = 0.1,
         probe_variance: bool = False) -> Trace:
    """Fixed-length epochs: one full gradient each, anchored stochastic
    gradients within, iterate averaging, and a domain radius halving in square
    every epoch (Delta ← Delta/√2).

    `Delta1` is the first epoch's radius, by default twice the domain's.
    """
    L = _smoothness(problem, L)
    lam = _strong_convexity(problem, lam)
    if lam <= 0:
        raise ConfigurationError("strong convexity required; use mixed_grad instead")
    m = _epoch_count(m, 8)
    T_presc = math.ceil(1152.0 * (L / lam) ** 2 * math.log(1.0 / delta))
    T = _epoch_length(T1 if T1 is not None else min(T_presc, T))
    eta = _given_step("eta", eta) or 1.0 / (L * math.sqrt(T))
    R = domain.r if domain.kind == "ball" else domain.outer_radius
    Delta = _given_step("Delta1", Delta1) or 2.0 * R

    trace = Trace(header={
        "solver": "emgd", "T_per_epoch": T, "eta": eta,
        "T_prescribed": T_presc, "T_capped": T < T_presc,
    })
    rng = make_rng(seed)
    eta_0d = np.array(eta)  # 0-d: see mixed_grad
    # a feasible start keeps every average, and so the answer, feasible
    center = domain.project(np.zeros(problem.d))
    # the gradient matrix at an epoch's output is the next epoch's anchor matrix
    grads_center = problem.all_component_grads(center) if probe_variance else None
    for k in range(1, m + 1):
        g_full = problem.full_grad(center)
        trace.calls_full += 1
        project = _intersection_projector(domain, center, Delta)
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
            grads_new = problem.all_component_grads(new_center)
            probe = _variances(grads_new, grads_center)
            rec["variance_mixed"] = probe["mixed_var"]
            rec["variance_sgd"] = probe["sgd_var"]
            grads_center = grads_new
        trace.add(**rec)
        center = new_center
        Delta /= math.sqrt(2.0)
    trace.final_point = center
    return trace


def gradient_variance_probe(problem, point: Point, center: Point) -> dict:
    """Exact one-sample variances of the plain and anchored stochastic gradients.

    Both are full sums over the n components (no sampling): the plain variance
    is E‖∇f_i(w)‖² − ‖∇F(w)‖², the anchored one uses the differenced
    components against `center`.
    """
    return _variances(problem.all_component_grads(point),
                      problem.all_component_grads(center))


def _variances(grads_w: np.ndarray, grads_c: np.ndarray) -> dict:
    """gradient_variance_probe from the component-gradient matrices at the
    point (grads_w) and at the anchor (grads_c)."""
    mean_w = grads_w.mean(axis=0)
    mean_c = grads_c.mean(axis=0)
    buf = np.square(grads_w)
    sgd_var = float(np.mean(np.sum(buf, axis=1)) - mean_w @ mean_w)
    np.square(np.subtract(grads_w, grads_c, out=buf), out=buf)
    mean_diff = mean_w - mean_c
    mixed_var = float(np.mean(np.sum(buf, axis=1)) - mean_diff @ mean_diff)
    return {"sgd_var": max(sgd_var, 0.0), "mixed_var": max(mixed_var, 0.0)}


# ---------------------------------------------------------------------------
# Single-projection solvers
# ---------------------------------------------------------------------------


def sgd_pd(objective, domain: Domain, *, seed: int = 0, T: int = 1000,
           eta: float | None = None, gamma: float | None = None, G1: float | None = None,
           delta: float = 0.1, snapshot_every: int = 0) -> Trace:
    """Primal-dual stochastic descent touching the true domain exactly once.

    Iterates stay in the unit-ball surrogate via renormalization; the dual
    ascent on the regularized Lagrangian replaces per-step projections, and
    the averaged iterate is projected onto the domain at output time only.

    `G1` bounds the gradient on the unit ball, by default objective.grad_bound(1.0).
    """
    if domain.rho <= 0:
        raise ConfigurationError("boundary gradient bound rho must be positive")
    T = _horizon(T)
    G1 = G1 if G1 is not None else _declared(objective, "grad_bound", "G1")(1.0)
    G2, C2 = domain.G2, domain.C2
    gamma = _given_step("gamma", gamma)
    if gamma is None:
        sigma = _declared(objective, "noise", "gamma")
        gamma = G2 * G2 / math.sqrt(
            (G1 * G1 + C2 * C2 + (1.0 + math.log(2.0 / delta)) * sigma * sigma) * T)
    eta = _given_step("eta", eta) or gamma / (2.0 * G2 * G2)

    trace = Trace(header={"solver": "sgd_pd", "gamma": gamma, "eta": eta})
    rng = make_rng(seed)
    x = np.zeros(objective.d)
    lam = 0.0
    xbar = np.zeros_like(x)
    stride = _stride(T, snapshot_every)
    for t in range(1, T + 1):
        xbar += x
        g = objective.stochastic_grad(x, rng)
        trace.calls_stochastic += 1
        gx = domain.g(x)
        xp = x - eta * (g + lam * domain.g_grad(x))
        x = xp / max(np.linalg.norm(xp), 1.0)
        lam = max((1.0 - gamma * eta) * lam + eta * gx, 0.0)
        if t % stride == 0 or t == T:
            trace.add(iter=t, objective=objective.full_value(x), constraint=gx, dual=lam)
    xbar /= T
    trace.final_point = domain.project(xbar)
    trace.projections += 1
    return trace


def sgd_st(objective, domain: Domain, *, seed: int = 0, T: int = 1000,
           eta: float | None = None, gamma: float | None = None, G1: float | None = None,
           lam: float | None = None, lambda0: float | None = None,
           snapshot_every: int = 0) -> Trace:
    """Single-projection stochastic descent for strongly convex objectives.

    The domain constraint enters through a softmax smoothing of the penalty;
    each step follows the smoothed gradient with a logistic constraint weight,
    and only the averaged output is projected.

    `lambda0` weighs the penalty, by default 1.05·G1/rho (`G1` as in sgd_pd).
    """
    alpha = _strong_convexity(objective, lam)
    eta = _given_step("eta", eta)
    if eta is None and alpha <= 0:
        raise ConfigurationError("sgd_st's default step needs a strongly convex objective")
    gamma = _given_step("gamma", gamma)
    # the default gamma = log(T)/T is positive only from T = 2 on
    T = _horizon(T, least=1 if gamma else 2)
    gamma = gamma or math.log(T) / T
    G1 = G1 if G1 is not None else _declared(objective, "grad_bound", "G1")(1.0)
    lam0 = lambda0 if lambda0 is not None else 1.05 * G1 / domain.rho
    if lam0 <= G1 / domain.rho:
        warnings.warn("lambda0 <= G1/rho: the convergence guarantee is void",
                      RuntimeWarning)

    trace = Trace(header={"solver": "sgd_st", "gamma": gamma, "lambda0": lam0})
    rng = make_rng(seed)
    x = np.zeros(objective.d)
    xbar = np.zeros_like(x)
    stride = _stride(T, snapshot_every)
    for t in range(1, T + 1):
        xbar += x
        g = objective.stochastic_grad(x, rng)
        trace.calls_stochastic += 1
        gx = domain.g(x)
        z = lam0 * gx / gamma
        weight = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        eta_t = eta or 1.0 / (2.0 * alpha * t)
        xp = x - eta_t * (g + weight * lam0 * domain.g_grad(x))
        x = xp / max(np.linalg.norm(xp), 1.0)
        if t % stride == 0 or t == T:
            trace.add(iter=t, objective=objective.full_value(x), constraint=gx, weight=weight)
    xbar /= T
    trace.final_point = domain.project(xbar)
    trace.projections += 1
    return trace
