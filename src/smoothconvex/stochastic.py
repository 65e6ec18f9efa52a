"""Stochastic and deterministic solvers returning per-iteration Traces.

Every solver counts full-gradient calls, stochastic calls and projections
onto the domain exactly: the step loops (sgd, gd, agd, mirror_descent) one
projection per step, the epoch-based methods (the clipped-gradient solver and
both mixed-oracle solvers) one per stochastic step, added once per epoch, and
the two single-projection solvers their one projection each.

The epoch methods build one projector per epoch for the intersection of the
domain with that epoch's ball (core.two_ball_projector when the domain is a
ball), so each step pays only for projecting its point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (ConfigurationError, Domain, MirrorMap, NumericError,
                   Point, StepSchedule, clip_component, dykstra,
                   make_rng, project_ball, prox_step, two_ball_projector)


@dataclass
class Trace:
    """Per-iteration log of a solver run."""

    header: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    seed: int = 0
    calls_full: int = 0
    calls_stochastic: int = 0
    projections: int = 0      # projections onto the true domain K
    final_point: Point | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.records if name in r])

    def add(self, **kv) -> None:
        self.records.append(kv)


@dataclass
class SolverConfig:
    """Flat configuration shared by all solvers; unused fields are ignored."""

    seed: int = 0
    T: int = 1000
    schedule: StepSchedule | None = None
    eta: float | None = None
    w0: Point | None = None
    snapshot_every: int = 0          # 0 = auto stride
    keep_iterates: bool = False
    # epoch/stage methods
    m: int | None = None
    T1: int | None = None
    Delta1: float | None = None
    lambda1: float | None = None
    gamma_shrink: float = 2.0
    # clipped-gradient stages
    epsilon: float = 0.5
    tau: float = 0.1
    xi: float | None = None
    target_risk: float | None = None
    # single-projection methods
    gamma: float | None = None
    lambda0: float | None = None
    delta: float = 0.1               # failure-probability knob in prescriptions
    # constant overrides
    L: float | None = None
    lam: float | None = None
    probe_variance: bool = False

    def stride(self) -> int:
        if self.snapshot_every > 0:
            return self.snapshot_every
        return max(1, self.T // 200)


def _smoothness(problem, config: SolverConfig, flavor: str = "component") -> float:
    """Pick the smoothness constant a solver should run with.

    flavor="component": the stochastic-oracle functions' constant (epoch
    solvers); flavor="full": the averaged objective's constant (full-gradient
    step sizes).  An objective without constants supplies its `beta`.
    """
    if config.L is not None:
        return config.L
    c = getattr(problem, "constants", None)
    if c is None:
        return problem.beta
    return c.L_comp if flavor == "component" else c.L_full


def _strong_convexity(problem, config: SolverConfig) -> float:
    if config.lam is not None:
        return config.lam
    if getattr(problem, "constants", None) is not None:
        return problem.constants.lam
    return getattr(problem, "alpha", 0.0)


def _start(problem, domain: Domain, config: SolverConfig) -> Point:
    if config.w0 is not None:
        return np.asarray(config.w0, dtype=np.float64).copy()
    d = getattr(problem, "d", None) or domain.dim
    return np.zeros(d)


def _horizon(config: SolverConfig, least: int = 1) -> int:
    """config.T, refused unless it is at least `least` steps."""
    if config.T < least:
        raise ConfigurationError(f"horizon T must be at least {least}, got T={config.T}")
    return config.T


def _epoch_count(config: SolverConfig, default: int) -> int:
    """config.m, or `default` when it is unset; at least one epoch."""
    m = default if config.m is None else config.m
    if m < 1:
        raise ConfigurationError(f"need at least one epoch or stage, got m={m}")
    return m


def _given_step(config: SolverConfig, name: str) -> float | None:
    """config.<name> (a step size `eta` or step parameter `gamma`) when it is
    set, refused unless positive; None when unset, so `... or default` takes
    the default only then."""
    value = getattr(config, name)
    if value is not None and not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


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


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def sgd(problem, domain: Domain, config: SolverConfig,
        mirror_map: MirrorMap | None = None) -> Trace:
    """Projected stochastic (mirror) descent with uniform iterate averaging."""
    rng = make_rng(config.seed)
    mm = mirror_map or MirrorMap.euclidean()
    sched = config.schedule or StepSchedule.inverse_sqrt(_given_step(config, "eta") or 1.0)
    trace = Trace(seed=config.seed, header={"solver": "sgd"})
    w = domain.project(_start(problem, domain, config))
    avg = np.zeros_like(w)
    stride = config.stride()
    for t in range(1, config.T + 1):
        avg += w
        if config.keep_iterates or t % stride == 1 or stride == 1:
            rec = {"iter": t, "objective": _objective(problem, w)}
            if config.keep_iterates:
                rec["w"] = w.copy()
            trace.add(**rec)
        g = problem.stochastic_grad(w, rng)
        trace.calls_stochastic += 1
        w = prox_step(mm, domain, w, g, sched.at(t))
        trace.projections += 1
    avg /= config.T
    trace.final_point = avg
    if config.keep_iterates:
        trace.add(iter=config.T + 1, objective=_objective(problem, w), w=w.copy())
    return trace


def _objective(problem, w: Point) -> float:
    if hasattr(problem, "full_value"):
        return problem.full_value(w)
    if hasattr(problem, "expected_loss"):
        return problem.expected_loss(w)
    if hasattr(problem, "value"):
        return problem.value(w)
    return math.nan


def gd(problem, domain: Domain, config: SolverConfig) -> Trace:
    """Projected full-gradient descent, eta = 1/L by default."""
    L = _smoothness(problem, config, "full")
    eta = _given_step(config, "eta") or 1.0 / L
    trace = Trace(seed=config.seed, header={"solver": "gd", "eta": eta})
    w = domain.project(_start(problem, domain, config))
    stride = config.stride()
    for t in range(1, config.T + 1):
        g = problem.full_grad(w)
        trace.calls_full += 1
        w = domain.project(w - eta * g)
        trace.projections += 1
        if t % stride == 0 or t == config.T:
            trace.add(iter=t, objective=_objective(problem, w))
    trace.final_point = w
    return trace


def agd(problem, domain: Domain, config: SolverConfig) -> Trace:
    """Accelerated projected gradient (two-sequence averaging scheme).

    theta_0 = 1, theta_s = 2/(s+2); the prox step uses 1/(theta_s L) so the
    scheme attains the 1/T^2 smooth rate on constrained problems.
    """
    L = _smoothness(problem, config, "full")
    trace = Trace(seed=config.seed, header={"solver": "agd"})
    h = domain.project(_start(problem, domain, config))
    f = h.copy()
    stride = config.stride()
    for s in range(config.T):
        theta = 1.0 if s == 0 else 2.0 / (s + 2.0)
        g_pt = (1.0 - theta) * h + theta * f
        grad = problem.full_grad(g_pt)
        trace.calls_full += 1
        f = domain.project(f - grad / (theta * L))
        trace.projections += 1
        h = (1.0 - theta) * h + theta * f
        if (s + 1) % stride == 0 or s + 1 == config.T:
            trace.add(iter=s + 1, objective=_objective(problem, h))
    trace.final_point = h
    return trace


def cgd(problem, domain: Domain, config: SolverConfig) -> Trace:
    """Projection-free conditional-gradient descent, eta_t = 2/(t+1)."""
    trace = Trace(seed=config.seed, header={"solver": "cgd"})
    w = domain.project(_start(problem, domain, config))
    eta = _given_step(config, "eta")
    stride = config.stride()
    for t in range(1, config.T + 1):
        g = problem.full_grad(w)
        trace.calls_full += 1
        p = domain.linear_minimizer(g)  # raises for unsupported domains
        eta_t = eta or 2.0 / (t + 1.0)
        w = (1.0 - eta_t) * w + eta_t * p
        if t % stride == 0 or t == config.T:
            trace.add(iter=t, objective=_objective(problem, w))
    trace.final_point = w
    return trace


def mirror_descent(problem, domain: Domain, config: SolverConfig,
                   mirror_map: MirrorMap | None = None) -> Trace:
    """Full-gradient mirror descent with uniform averaging."""
    mm = mirror_map or MirrorMap.euclidean()
    sched = config.schedule or StepSchedule.constant(_given_step(config, "eta") or 0.1)
    trace = Trace(seed=config.seed, header={"solver": "mirror_descent"})
    if mm.kind == "entropy" and domain.kind == "simplex":
        w = np.full(domain.dim, 1.0 / domain.dim)
    else:
        w = domain.project(_start(problem, domain, config))
    avg = np.zeros_like(w)
    stride = config.stride()
    for t in range(1, config.T + 1):
        avg += w
        g = problem.full_grad(w)
        trace.calls_full += 1
        w = prox_step(mm, domain, w, g, sched.at(t))
        trace.projections += 1
        if t % stride == 0 or t == config.T:
            trace.add(iter=t, objective=_objective(problem, w))
    trace.final_point = avg / config.T
    return trace


# ---------------------------------------------------------------------------
# Clipped-gradient stages toward a known target risk
# ---------------------------------------------------------------------------


def clipped_sgd(problem, domain: Domain, config: SolverConfig) -> Trace:
    """Fixed-size stages with componentwise gradient clipping and domain shrinking.

    Per stage k: clip level gamma_k = 2·xi·beta·Delta_k, projection onto
    domain ∩ ball(center_k, Delta_k), stage-end averaging, and
    Delta_{k+1} = sqrt(eps·Delta_k² + tau·target_risk).
    """
    if config.target_risk is None or config.target_risk <= 0:
        raise ConfigurationError("clipped_sgd needs a positive target risk")
    if not (0 < config.epsilon < 1 and 0 < config.tau < 1):
        raise ConfigurationError("epsilon and tau must lie in (0, 1)")
    beta = _smoothness(problem, config)
    alpha = _strong_convexity(problem, config)
    xi = config.xi if config.xi is not None else 4.0 * beta / (alpha * config.tau)
    R = domain.r if domain.kind == "ball" else domain.outer_radius
    m = _epoch_count(config, 8)
    d = getattr(problem, "d", 1)
    stage_count = max(1, math.ceil(math.log2(max(xi * beta * R * R / config.target_risk, 2.0))))
    T1_presc = math.ceil(4 * max(
        (xi**3 * beta * d + 2.0 * xi * beta * math.sqrt(d))
        / (config.epsilon * alpha) * math.log(max(m * stage_count / config.delta, 2.0)),
        16.0 * xi**2 * beta**2 / (alpha**2 * config.epsilon**2)))
    T1 = config.T1 if config.T1 is not None else min(T1_presc, max(1, config.T // m))
    eta = _given_step(config, "eta") or 1.0 / (2.0 * xi * beta * math.sqrt(T1))

    trace = Trace(seed=config.seed, header={
        "solver": "clipped_sgd", "xi": xi, "T1": T1, "eta": eta,
        "stage_count_prescribed": stage_count,
        "T1_prescribed": T1_presc, "T1_capped": T1 < T1_presc,
    })
    rng = make_rng(config.seed)
    # a feasible start keeps every average, and so the answer, feasible
    center = domain.project(np.zeros(getattr(problem, "d", 1)))
    Delta = R
    fixed_point = math.sqrt(config.tau * config.target_risk / (1.0 - config.epsilon))
    for k in range(1, m + 1):
        gamma_k = 2.0 * xi * beta * Delta
        project = _intersection_projector(domain, center, Delta)
        w = center.copy()
        ssum = np.zeros_like(w)
        for _ in range(T1):
            ssum += w
            g = problem.stochastic_grad(w, rng)
            v = clip_component(gamma_k, g)
            w = project(w - eta * v)
        trace.calls_stochastic += T1
        trace.projections += T1
        center = ssum / T1
        new_Delta = math.sqrt(config.epsilon * Delta**2 + config.tau * config.target_risk)
        if abs(new_Delta - fixed_point) > abs(Delta - fixed_point) + 1e-12:
            raise NumericError("stage-radius recursion moved away from its fixed point")
        Delta = new_Delta
        rec = {"stage": k, "delta": Delta, "gamma_k": gamma_k,
               "objective": _objective(problem, center),
               "calls_stochastic": trace.calls_stochastic}
        trace.add(**rec)
    trace.final_point = center
    return trace


# ---------------------------------------------------------------------------
# Mixed-oracle epoch solvers
# ---------------------------------------------------------------------------


def mixed_grad(problem, domain: Domain, config: SolverConfig) -> Trace:
    """Epoch solver mixing one full gradient per epoch with anchored
    stochastic gradients; regularization, step size, and domain all shrink by
    gamma while epoch length grows by gamma².

    Works in shifted coordinates: epoch k optimizes over
    {w : w + center ∈ domain, ‖w‖ ≤ Delta_k}, which is the intersection of
    two balls only when the domain is a ball; other domains are refused.
    """
    if domain.kind != "ball":
        raise ConfigurationError(f"mixed_grad needs a ball domain, got {domain.kind!r}")
    gamma = config.gamma_shrink
    if gamma <= 1.0:
        raise ConfigurationError("shrink factor must exceed 1")
    beta = _smoothness(problem, config)
    R = domain.r
    m = _epoch_count(config, 5)
    T1_presc = math.ceil(300.0 * math.log(m / config.delta))
    budget_T1 = max(1, math.floor(config.T * (gamma**2 - 1) / (gamma ** (2 * m) - 1)))
    T1 = config.T1 if config.T1 is not None else min(T1_presc, budget_T1)
    lam = config.lambda1 if config.lambda1 is not None else 16.0 * beta
    Delta = config.Delta1 if config.Delta1 is not None else R
    eta = _given_step(config, "eta") or 1.0 / (2.0 * beta * math.sqrt(3.0 * T1))

    trace = Trace(seed=config.seed, header={
        "solver": "mixed_grad", "T1": T1, "lambda1": lam, "eta1": eta,
        "T1_prescribed": T1_presc, "T1_capped": T1 < T1_presc,
    })
    rng = make_rng(config.seed)
    diff = problem.anchored_component_diff
    center = np.zeros(problem.d)
    origin = np.zeros(problem.d)
    Tk = T1
    for k in range(1, m + 1):
        g_full = problem.full_grad(center)
        trace.calls_full += 1
        g_anchor = lam * center + g_full
        project = two_ball_projector(-center, R, origin, Delta)
        w = np.zeros_like(center)
        ssum = np.zeros_like(center)
        for i in _component_draws(problem, rng, Tk):
            ssum += w
            ghat = g_anchor + diff(i, w + center, center)
            w = project(w - eta * (ghat + lam * w))
        trace.calls_stochastic += Tk
        trace.projections += Tk
        ssum += w
        wtilde = ssum / (Tk + 1)
        center = center + wtilde
        trace.add(epoch=k, objective=_objective(problem, center),
                  delta=Delta, calls_full=trace.calls_full,
                  calls_stochastic=trace.calls_stochastic)
        Delta /= gamma
        lam /= gamma
        eta /= gamma
        Tk = int(round(Tk * gamma * gamma))
    trace.final_point = center
    return trace


def emgd(problem, domain: Domain, config: SolverConfig) -> Trace:
    """Fixed-length epochs: one full gradient each, anchored stochastic
    gradients within, iterate averaging, and a domain radius halving in square
    every epoch (Delta ← Delta/√2)."""
    L = _smoothness(problem, config)
    lam = _strong_convexity(problem, config)
    if lam <= 0:
        raise ConfigurationError("strong convexity required; use mixed_grad instead")
    m = _epoch_count(config, 8)
    T_presc = math.ceil(1152.0 * (L / lam) ** 2 * math.log(1.0 / config.delta))
    T = config.T1 if config.T1 is not None else min(T_presc, config.T)
    eta = _given_step(config, "eta") or 1.0 / (L * math.sqrt(T))
    R = domain.r if domain.kind == "ball" else domain.outer_radius
    Delta = config.Delta1 if config.Delta1 is not None else 2.0 * R

    trace = Trace(seed=config.seed, header={
        "solver": "emgd", "T_per_epoch": T, "eta": eta,
        "T_prescribed": T_presc, "T_capped": T < T_presc,
    })
    rng = make_rng(config.seed)
    diff = problem.anchored_component_diff
    # a feasible start keeps every average, and so the answer, feasible
    center = domain.project(np.zeros(problem.d))
    for k in range(1, m + 1):
        g_full = problem.full_grad(center)
        trace.calls_full += 1
        project = _intersection_projector(domain, center, Delta)
        w = center.copy()
        ssum = np.zeros_like(w)
        for i in _component_draws(problem, rng, T):
            ssum += w
            gtilde = g_full + diff(i, w, center)
            w = project(w - eta * gtilde)
        trace.calls_stochastic += T
        trace.projections += T
        ssum += w
        new_center = ssum / (T + 1)
        rec = {"epoch": k, "objective": _objective(problem, new_center),
               "delta": Delta, "calls_full": trace.calls_full,
               "calls_stochastic": trace.calls_stochastic}
        if config.probe_variance and hasattr(problem, "all_component_grads"):
            probe = gradient_variance_probe(problem, new_center, center)
            rec["variance_mixed"] = probe["mixed_var"]
            rec["variance_sgd"] = probe["sgd_var"]
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
    grads_w = problem.all_component_grads(point)
    grads_c = problem.all_component_grads(center)
    mean_w = grads_w.mean(axis=0)
    mean_c = grads_c.mean(axis=0)
    sgd_var = float(np.mean(np.sum(grads_w**2, axis=1)) - mean_w @ mean_w)
    diff = grads_w - grads_c
    mean_diff = mean_w - mean_c
    mixed_var = float(np.mean(np.sum(diff**2, axis=1)) - mean_diff @ mean_diff)
    return {"sgd_var": max(sgd_var, 0.0), "mixed_var": max(mixed_var, 0.0)}


# ---------------------------------------------------------------------------
# Single-projection solvers
# ---------------------------------------------------------------------------


def sgd_pd(objective, domain: Domain, config: SolverConfig) -> Trace:
    """Primal-dual stochastic descent touching the true domain exactly once.

    Iterates stay in the unit-ball surrogate via renormalization; the dual
    ascent on the regularized Lagrangian replaces per-step projections, and
    the averaged iterate is projected onto the domain at output time only.
    """
    if domain.rho <= 0:
        raise ConfigurationError("boundary gradient bound rho must be positive")
    T = _horizon(config)
    G1 = config.L if config.L is not None else objective.grad_bound(1.0)
    sigma = getattr(objective, "noise", 0.0)
    G2, C2 = domain.G2, domain.C2
    gamma = _given_step(config, "gamma") or (G2 * G2 / math.sqrt(
        (G1 * G1 + C2 * C2 + (1.0 + math.log(2.0 / config.delta)) * sigma * sigma) * T))
    eta = _given_step(config, "eta") or gamma / (2.0 * G2 * G2)

    trace = Trace(seed=config.seed, header={"solver": "sgd_pd", "gamma": gamma, "eta": eta})
    rng = make_rng(config.seed)
    x = np.zeros(objective.d)
    lam = 0.0
    xbar = np.zeros_like(x)
    stride = config.stride()
    for t in range(1, T + 1):
        xbar += x
        g = objective.stochastic_grad(x, rng)
        trace.calls_stochastic += 1
        gx = domain.g(x)
        xp = x - eta * (g + lam * domain.g_grad(x))
        x = xp / max(np.linalg.norm(xp), 1.0)
        lam = max((1.0 - gamma * eta) * lam + eta * gx, 0.0)
        if t % stride == 0 or t == T:
            trace.add(iter=t, objective=objective.value(x), constraint=gx, dual=lam)
    xbar /= T
    trace.final_point = domain.project(xbar)
    trace.projections += 1
    return trace


def sgd_st(objective, domain: Domain, config: SolverConfig) -> Trace:
    """Single-projection stochastic descent for strongly convex objectives.

    The domain constraint enters through a softmax smoothing of the penalty;
    each step follows the smoothed gradient with a logistic constraint weight,
    and only the averaged output is projected.
    """
    beta = _strong_convexity(objective, config) or getattr(objective, "beta")
    gamma = _given_step(config, "gamma")
    # the default gamma = log(T)/T is positive only from T = 2 on
    T = _horizon(config, least=1 if gamma else 2)
    gamma = gamma or math.log(T) / T
    G1 = config.L if config.L is not None else objective.grad_bound(1.0)
    lam0 = config.lambda0 if config.lambda0 is not None else 1.05 * G1 / domain.rho
    if lam0 <= G1 / domain.rho:
        warnings.warn("lambda0 <= G1/rho: the convergence guarantee is void",
                      RuntimeWarning)

    trace = Trace(seed=config.seed,
                  header={"solver": "sgd_st", "gamma": gamma, "lambda0": lam0})
    rng = make_rng(config.seed)
    x = np.zeros(objective.d)
    xbar = np.zeros_like(x)
    eta = _given_step(config, "eta")
    stride = config.stride()
    for t in range(1, T + 1):
        xbar += x
        g = objective.stochastic_grad(x, rng)
        trace.calls_stochastic += 1
        gx = domain.g(x)
        z = lam0 * gx / gamma
        weight = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        eta_t = eta or 1.0 / (2.0 * beta * t)
        xp = x - eta_t * (g + weight * lam0 * domain.g_grad(x))
        x = xp / max(np.linalg.norm(xp), 1.0)
        if t % stride == 0 or t == T:
            trace.add(iter=t, objective=objective.value(x), constraint=gx, weight=weight)
    xbar /= T
    trace.final_point = domain.project(xbar)
    trace.projections += 1
    return trace
