"""Online learners with a pull-based round protocol.

Every learner exposes predict() -> decision and observe(loss) -> None, which
supports full-information and bandit feedback with one harness.  Decisions are
recorded on the learner for regret evaluation: `decisions` holds the learner's
own arrays, not copies, so callers treat them (and what predict returns) as
read-only.  Each learner binds its domain's projection or prox step once, at
construction (Domain.projector, ball_projector, prox_map), and calls the bare
kernel every round on the fresh point it has just built.  OGD is the one
projected-step loop: SoftConstraintOGD, ZeroViolationOGD and PenaltyOGD are OGD
subclasses that choose only the round's direction.  OMP is the one
extra-gradient loop: ExpertOMP and BanditOMP are OMP subclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ConfigurationError, Domain, InputError, MirrorMap, Point,
                   StepSchedule, UnsupportedDomainError, ball_projector,
                   prox_map, prox_step_hnorm)


@dataclass
class MaxStructure:
    """Saddle decomposition of a non-smooth loss: smooth part plus
    max over a dual domain of ⟨A x, u⟩ − dual-smooth part."""

    A: np.ndarray                       # m × d coupling matrix
    f_hat_grad: object = None           # gradient of the smooth primal part
    phi_hat_grad: object = None         # gradient of the smooth dual part

    def fg(self, x):
        return np.zeros(self.A.shape[1]) if self.f_hat_grad is None else self.f_hat_grad(x)

    def pg(self, u):
        return np.zeros(self.A.shape[0]) if self.phi_hat_grad is None else self.phi_hat_grad(u)


def _frozen(v) -> np.ndarray:
    v = np.array(v, dtype=np.float64)
    v.flags.writeable = False
    return v


@dataclass
class RoundLoss:
    """One round's cost: value/gradient access plus optional structure.

    The constructors store a read-only copy of the cost vector or center, so
    one RoundLoss can serve many rounds.  A linear loss's grad returns that
    read-only cost vector itself, so a write into it raises ValueError; a
    quadratic loss's grad returns a fresh array.
    """

    value: object                        # Point -> float
    grad: object                         # Point -> Point
    linear: Point | None = None          # cost vector when the loss is linear
    quad_center: Point | None = None     # center when the loss is ½‖x−c‖²
    max_parts: MaxStructure | None = None

    @classmethod
    def from_linear(cls, f: Point) -> "RoundLoss":
        f = _frozen(f)
        # `.dot` is `@` up to the sign of a zero; `+ 0.0` gives `@`'s +0.0
        return cls(value=lambda x, f=f: float(f.dot(x)) + 0.0,
                   grad=lambda x, f=f: f, linear=f)

    @classmethod
    def from_quadratic(cls, c: Point) -> "RoundLoss":
        c = _frozen(c)

        def value(x, c=c):
            r = x - c
            return 0.5 * float(r.dot(r))

        return cls(value=value, grad=lambda x, c=c: x - c, quad_center=c)


class BaseLearner:
    """Common bookkeeping: decisions and per-round loss values.

    A decision is recorded as the learner's own array, without a copy: every
    learner builds a new array for each round's point and never changes one
    in place once it is recorded.
    """

    def __init__(self):
        self.decisions: list[Point] = []
        self.loss_values: list[float] = []

    def _record(self, x: Point, loss: RoundLoss) -> None:
        self.decisions.append(x)
        self.loss_values.append(float(loss.value(x)))


# ---------------------------------------------------------------------------
# Gradient-descent family
# ---------------------------------------------------------------------------


class OGD(BaseLearner):
    """Projected online gradient descent, the one projected-step loop: a
    subclass only chooses the round's direction through _gradient."""

    def __init__(self, domain: Domain, schedule: StepSchedule, dim: int | None = None):
        super().__init__()
        self.domain = domain
        self.schedule = schedule
        d = domain.dim if domain.dim is not None else dim
        self.x = domain.project(np.zeros(d))
        self.t = 0
        self._project = domain.projector()

    def predict(self) -> Point:
        return self.x

    def observe(self, loss: RoundLoss) -> None:
        self.t += 1
        self._record(self.x, loss)
        g = self._gradient(self.x, loss)
        self.x = self._project(self.x - self.schedule.at(self.t) * g)

    def _gradient(self, x: Point, loss: RoundLoss) -> Point:
        """The round's descent direction at the decision x."""
        return loss.grad(x)


# sets where argmin ⟨x, G⟩ + (c/2)‖x‖² is the projection of −G/c
_LEADER_KINDS = ("ball", "box", "simplex")


class IFTRL(BaseLearner):
    """Regularized-leader learner whose decision steps off the leader point
    with the previous round's gradient (two gradient evaluations per round)."""

    def __init__(self, domain: Domain, L: float, eta: float, dim: int | None = None):
        super().__init__()
        if not 0.0 < eta <= 1.0:
            raise ConfigurationError("eta must lie in (0, 1]")
        if domain.kind not in _LEADER_KINDS:
            raise UnsupportedDomainError(f"no closed-form leader solve for {domain.kind}")
        self.domain, self.L, self.eta = domain, L, eta
        d = domain.dim if domain.dim is not None else dim
        self.z = domain.project(np.zeros(d))
        self.grad_sum = np.zeros(d)
        self.stale_grad = np.zeros(d)   # ∇f_{t-1}(z_{t-1}); zero for round 1
        self._project = domain.projector()

    def predict(self) -> Point:
        return self._project(self.z - (self.eta / self.L) * self.stale_grad)

    def observe(self, loss: RoundLoss) -> None:
        x = self.predict()
        self._record(x, loss)
        self.grad_sum += loss.grad(self.z)
        # the leader, with c = L/η; G/(−c) is −G/c bit for bit in one operation
        self.z = self._project(self.grad_sum / -(self.L / self.eta))
        self.stale_grad = loss.grad(self.z)


class OMP(BaseLearner):
    """Two-prox extra-gradient learner; one new gradient evaluation per round."""

    def __init__(self, domain: Domain, L: float, eta: float, dim: int | None = None,
                 mirror_map: MirrorMap | None = None):
        super().__init__()
        if eta <= 0:
            raise ConfigurationError("eta must be positive")
        self.domain, self.L, self.eta = domain, L, eta
        self.map = mirror_map or MirrorMap.euclidean()
        d = domain.dim if domain.dim is not None else dim
        if self.map.kind == "entropy" and domain.kind == "simplex":
            self.z = np.full(d, 1.0 / d)
        else:
            self.z = domain.project(np.zeros(d))
        self.prev_grad = np.zeros(d)
        self._prox = prox_map(self.map, domain)

    @staticmethod
    def tuned_eta(L: float, egv: float) -> float:
        return 0.5 * min(1.0 / math.sqrt(2.0), L / math.sqrt(max(egv, 1e-300)))

    def predict(self) -> Point:
        return self._prox(self.z, self.prev_grad, self.eta / self.L)

    def observe(self, loss: RoundLoss) -> None:
        x = self.predict()
        self._record(x, loss)
        g = self._gradient(x, loss)
        self.z = self._prox(self.z, g, self.eta / self.L)
        self.prev_grad = g

    def _gradient(self, x: Point, loss: RoundLoss) -> Point:
        """The round's gradient at the decision x."""
        return loss.grad(x)


class ExpertOMP(OMP):
    """OMP with the entropy map on the m-expert simplex (multiplicative
    weights); observe also takes a plain cost vector."""

    def __init__(self, m: int, eta: float, L: float = 1.0):
        super().__init__(Domain.simplex(m), L, eta, mirror_map=MirrorMap.entropy())

    @staticmethod
    def tuned_eta(m: int, egv_inf: float) -> float:
        return math.sqrt(math.log(m) / max(egv_inf, 1e-300))

    def observe(self, loss) -> None:
        if not isinstance(loss, RoundLoss):
            loss = RoundLoss.from_linear(loss)
        if np.any(loss.linear < 0):
            raise InputError("expert losses must be nonnegative")
        super().observe(loss)


class StrictlyConvexOMP(BaseLearner):
    """Extra-gradient learner in an adaptive quadratic metric built from the
    outer products of observed gradients (dense solves; small d only)."""

    def __init__(self, domain: Domain, beta: float, G: float, dim: int):
        super().__init__()
        if dim > 50:
            raise ConfigurationError("adaptive-metric learner limited to d <= 50")
        if domain.kind != "ball":
            raise UnsupportedDomainError("adaptive-metric prox implemented for balls")
        self.domain, self.beta, self.G = domain, beta, G
        self.H = (1.0 + beta * G * G) * np.eye(dim)
        self.z = np.zeros(dim)
        self.prev_grad = np.zeros(dim)

    def predict(self) -> Point:
        return prox_step_hnorm(self.z, self.prev_grad, self.H, self.domain.r)

    def observe(self, loss: RoundLoss) -> None:
        x = self.predict()
        self._record(x, loss)
        g = loss.grad(x)
        self.z = prox_step_hnorm(self.z, g, self.H, self.domain.r)
        self.H = self.H + self.beta * np.outer(g, g)
        self.prev_grad = g


class BanditOMP(OMP):
    """Deterministic multi-point bandit learner: OMP on the shrunk ball
    (1−alpha)·W with L = G, whose gradient is estimated from d+1 value
    queries on a coordinate stencil."""

    def __init__(self, domain: Domain, G: float, delta: float, eta: float,
                 dim: int):
        if domain.kind != "ball":
            raise UnsupportedDomainError("bandit learner requires a ball domain")
        if delta >= domain.r:
            raise ConfigurationError("query offset must stay below the ball radius")
        super().__init__(Domain.ball(domain.r * (1.0 - delta / domain.r)), G, eta, dim=dim)
        self.delta = delta
        self.value_queries = 0
        self.last_estimate: Point | None = None

    def _gradient(self, x: Point, loss: RoundLoss) -> Point:
        d = x.shape[0]
        f0 = float(loss.value(x))
        self.value_queries += 1
        g = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = self.delta
            g[i] = (float(loss.value(x + e)) - f0) / self.delta
            self.value_queries += 1
        self.last_estimate = g
        return g


# ---------------------------------------------------------------------------
# Adaptive step sizes without prior variation knowledge
# ---------------------------------------------------------------------------


class DoublingWrapper(BaseLearner):
    """Runs a factory-built learner in epochs with eta_k = eta0/2^k, starting a
    fresh epoch (and burning its first round) whenever the running
    gradient-deviation sum exceeds L²/eta_k²."""

    def __init__(self, learner_factory, L: float, eta0: float = 2.0):
        super().__init__()
        self.factory = learner_factory
        self.L, self.eta0 = L, eta0
        self.k = 1
        self.inner = learner_factory(eta0 / 2.0)
        self.epoch_sum = 0.0
        self.prev_loss: RoundLoss | None = None
        self.boundaries: list[int] = [1]
        self.t = 0
        self.fresh_epoch = True

    @property
    def eta_k(self) -> float:
        return self.eta0 / (2.0 ** self.k)

    def predict(self) -> Point:
        return self.inner.predict()

    def observe(self, loss: RoundLoss) -> None:
        self.t += 1
        x = self.inner.predict()
        self._record(x, loss)
        if not self.fresh_epoch and self.prev_loss is not None:
            zp = self.inner.z
            dev = loss.grad(zp) - self.prev_loss.grad(zp)
            self.epoch_sum += float(dev @ dev)
        if self.epoch_sum > (self.L / self.eta_k) ** 2:
            # invariant broke at this round: boundary recorded, round burned
            self.k += 1
            self.boundaries.append(self.t)
            self.inner = self.factory(self.eta_k)
            self.epoch_sum = 0.0
            self.fresh_epoch = True
        else:
            self.fresh_epoch = False
        self.inner.observe(loss)
        self.prev_loss = loss


# ---------------------------------------------------------------------------
# Explicit max structure (primal-dual)
# ---------------------------------------------------------------------------


class ExplicitMaxPD(BaseLearner):
    """Four-update primal-dual extra-gradient learner for losses
    f̂_t(x) + max_u ⟨A_t x, u⟩ − φ̂_t(u)."""

    def __init__(self, primal: Domain, dual: Domain, L1: float, L2: float,
                 eta: float, dim: int, dual_dim: int):
        super().__init__()
        self.W, self.Q = primal, dual
        self.L1, self.L2, self.eta = L1, L2, eta
        self.z = primal.project(np.zeros(dim))
        self.x = self.z.copy()
        self.v = dual.project(np.zeros(dual_dim))
        self.u = self.v.copy()
        self.prev = MaxStructure(A=np.zeros((dual_dim, dim)))
        self.prev_fg = np.zeros(dim)
        self.prev_pg = np.zeros(dual_dim)
        self.duals: list[Point] = []
        em = MirrorMap.euclidean()
        self._prox_primal, self._prox_dual = prox_map(em, primal), prox_map(em, dual)

    def predict(self) -> Point:
        # dual ascent on the stale coupling, then primal descent on the stale gradient
        dual_dir = self.prev.A @ self.x - self.prev_pg
        u_t = self._prox_dual(self.v, -dual_dir, self.eta / self.L2)
        x_t = self._prox_primal(self.z, self.prev_fg + self.prev.A.T @ self.u,
                                self.eta / self.L1)
        self._u_pending = u_t
        return x_t

    def observe(self, loss: RoundLoss) -> None:
        if loss.max_parts is None:
            raise InputError("explicit-max learner needs a max-structured loss")
        parts = loss.max_parts
        x_t = self.predict()
        u_t = self._u_pending
        if parts.A.shape[1] != x_t.shape[0]:
            raise InputError("coupling matrix dimension mismatch")
        self._record(x_t, loss)
        self.duals.append(u_t)
        self.v = self._prox_dual(self.v, -(parts.A @ x_t - parts.pg(u_t)), self.eta / self.L2)
        self.z = self._prox_primal(self.z, parts.fg(x_t) + parts.A.T @ u_t, self.eta / self.L1)
        self.x, self.u = x_t, u_t
        self.prev = parts
        self.prev_fg = parts.fg(x_t)
        self.prev_pg = parts.pg(u_t)


class HingeClassifierPD(BaseLearner):
    """Mistake-driven online classifier from the explicit-max updates
    specialized to the hinge loss; predicts before updating and updates only
    on mistakes."""

    def __init__(self, dim: int, R: float = 1.0, eta: float | None = None):
        super().__init__()
        self.eta = eta if eta is not None else 1.0 / (2.0 * math.sqrt(2.0))
        if self.eta > 1.0 / (2.0 * math.sqrt(2.0)) + 1e-12:
            raise ConfigurationError("step size must not exceed 1/(2*sqrt(2))")
        self.w = np.zeros(dim)
        self.wp = np.zeros(dim)
        self.alpha = 0.0
        self.beta = 0.0
        self.mistakes = 0
        self.mistake_examples: list[Point] = []
        self._project = ball_projector(R)

    def round(self, x: Point, y: float) -> float:
        """Returns the prediction score; updates internally on a mistake."""
        score = float(self.w @ x)
        if score * y <= 0:
            self.mistakes += 1
            gx = y * np.asarray(x, dtype=np.float64)
            self.mistake_examples.append(gx)
            margin = 1.0 - float(self.w @ gx)
            alpha_old = self.alpha
            self.beta = min(max(self.beta + self.eta * margin, 0.0), 1.0)
            self.wp = self._project(self.wp + self.eta * alpha_old * gx)
            self.alpha = min(max(self.beta + self.eta * margin, 0.0), 1.0)
            self.w = self._project(self.wp + self.eta * alpha_old * gx)
        return score


# ---------------------------------------------------------------------------
# Long-term (soft) constraints
# ---------------------------------------------------------------------------


@dataclass
class ConstraintSet:
    """m scalar constraints g_i ≤ 0 with subgradients."""

    funcs: list          # list of (g, grad) callables
    D: float             # bound on |g_i| over the ball
    G: float             # bound on gradient norms (losses and constraints)
    F: float             # bound on the per-round loss range

    @property
    def m(self) -> int:
        return len(self.funcs)

    def values(self, x: Point) -> np.ndarray:
        return np.array([g(x) for g, _ in self.funcs])

    @classmethod
    def from_samples(cls, funcs, dim: int, ball_radius: float, loss_bound: float,
                     grad_bound: float, rng) -> "ConstraintSet":
        """D estimated from 1000 sampled ball points; G and F supplied by the
        caller."""
        D = 0.0
        for _ in range(1000):
            v = rng.standard_normal(dim)
            v *= ball_radius * rng.uniform() ** (1.0 / dim) / max(np.linalg.norm(v), 1e-15)
            for g, _ in funcs:
                D = max(D, abs(float(g(v))))
        return cls(funcs=funcs, D=D, G=grad_bound, F=loss_bound)


class SoftConstraintOGD(OGD):
    """Primal-dual descent-ascent meeting the constraints only in the long run.

    OGD on the radius-R ball with a constant step eta, whose direction is the
    loss gradient plus the dual-weighted constraint subgradients; the duals
    are kept nonnegative and damped by a quadratic regularizer so the
    constraint weights adapt to the accumulated violation.
    """

    def __init__(self, constraints: ConstraintSet, T: int, R: float = 1.0,
                 eta: float | None = None, delta: float | None = None,
                 dim: int | None = None):
        ball = Domain.ball(R)   # refuses R <= 0 before R divides below
        self.cons = constraints
        m, G, D = constraints.m, constraints.G, constraints.D
        self.a = R * math.sqrt((m + 1) * G * G + 2 * m * D * D)
        self.eta = eta if eta is not None else R * R / (self.a * math.sqrt(T))
        self.delta = delta if delta is not None else 2.0 * (m + 1) * G * G
        super().__init__(ball, StepSchedule.constant(self.eta), dim=dim)
        self.lam = np.zeros(m)
        self.violations: list[np.ndarray] = []

    def _terms(self, x: Point):
        """The constraint values and Σ lam_i ∇g_i(x) at x."""
        vals = self.cons.values(x)
        grad = np.zeros(x.shape)
        for lam_i, (_, gg) in zip(self.lam, self.cons.funcs):
            if lam_i != 0.0:
                grad = grad + lam_i * gg(x)
        return vals, grad

    def _gradient(self, x: Point, loss: RoundLoss) -> Point:
        vals, cons_grad = self._terms(x)
        self.violations.append(vals)
        glam = vals - self.eta * self.delta * self.lam
        self.lam = np.maximum(self.lam + self.eta * glam, 0.0)
        return loss.grad(x) + cons_grad


def zero_violation_tuning(G: float, D: float, F: float, R: float, T: int,
                          iters: int = 50) -> dict:
    """Fixed point of the coupled (a, b) tuning for the tightened-constraint
    variant: delta = 4G², gamma = b·T^(−1/4)."""
    if R <= 0:
        raise ConfigurationError("ball radius must be positive")
    delta = 4.0 * G * G
    b = 0.0
    a = R * math.sqrt(2 * G * G + 3 * D * D)
    for _ in range(iters):
        b = 2.0 * math.sqrt(F * (delta * R * R / a + a / (R * R)))
        a = R * math.sqrt(2 * G * G + 3 * (D * D + b * b))
    return {"a": a, "b": b, "delta": delta, "gamma": b * T ** (-0.25)}


class ZeroViolationOGD(SoftConstraintOGD):
    """Soft-constraint learner on the single tightened constraint
    g(x) + gamma ≤ 0 with g = max_i g_i, which clears the long-run constraint
    exactly at the price of a larger regret.  `cons` holds the raw
    constraints; one dual weights the subgradient of the first maximal g_i."""

    def __init__(self, constraints: ConstraintSet, T: int, R: float = 1.0,
                 dim: int | None = None):
        tun = zero_violation_tuning(constraints.G, constraints.D, constraints.F, R, T)
        super().__init__(constraints, T, R=R, dim=dim,
                         eta=R * R / (tun["a"] * math.sqrt(T)), delta=tun["delta"])
        self.lam = np.zeros(1)
        self.a = tun["a"]
        self.gamma_tighten = tun["gamma"]
        self.raw_violations: list[float] = []

    def _terms(self, x: Point):
        # one evaluation of the raw constraints serves the violation record,
        # the tightened value and the subgradient
        vals = [float(g(x)) for g, _ in self.cons.funcs]
        g_max = max(vals)
        self.raw_violations.append(g_max)
        grad = np.zeros(x.shape)
        if self.lam[0] != 0.0:
            grad = grad + self.lam[0] * self.cons.funcs[vals.index(g_max)][1](x)
        return np.array([g_max + self.gamma_tighten]), grad


class PenaltyOGD(OGD):
    """OGD on the radius-R ball down the penalized loss f_t + delta·Σ[g_i]₊
    with a fixed weight; the baseline whose violation cannot vanish."""

    def __init__(self, constraints: ConstraintSet, schedule: StepSchedule,
                 delta: float, R: float = 1.0, dim: int | None = None):
        super().__init__(Domain.ball(R), schedule, dim=dim)
        self.cons = constraints
        self.delta = delta
        self.violations: list[np.ndarray] = []

    def _gradient(self, x: Point, loss: RoundLoss) -> Point:
        vals = self.cons.values(x)
        self.violations.append(vals)
        g = loss.grad(x)
        for v, (_, gg) in zip(vals, self.cons.funcs):
            if v > 0:
                g = g + self.delta * gg(x)
        return g
