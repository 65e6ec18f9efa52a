"""Shared numerical foundations.

Points are plain 1-D numpy arrays.  This module provides feasible sets with
exact projections (one Domain subclass per kind, built as Domain.ball(...)
and the like), gradient clipping, seeded counter-based randomness, and the
entropy prox step on a ball (MirrorMap.entropy() with prox_step), which
only the benchmark's kernel table calls: each online learner owns its step.

Projections come in two forms.  The checked form (`Domain.project`,
`project_ball`) validates its input on every call and returns a fresh array.
The bound form (`Domain.projector`, `ball_projector`) settles the checks and
any dispatch once and returns the bare kernel for a loop to call each step;
the checked form is those checks plus the same kernel.
Every kind's `g` is its membership test, which `contains` reads; the
boundary constants rho, G2 and C2 belong to Ball alone, and the outer radius
to the halfspace cut alone.  Ball's and the cut's (g, g_grad) pairs are
array kernels of a 1-D float64 point, each one `online.ConstraintSet`
constraint.  Ball's pair, which sgd_pd and sgd_st call every step, is bare
like its projector: it neither checks nor converts its point.

`_at_least` is the one rule for a horizon, an epoch count or an epoch
length, such as the `T1` that stochastic.clipped_sgd and stochastic.mixed_grad
require.  No solver takes a smoothness or strong-convexity constant: each
reads its own from the problem's constants.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

Point = np.ndarray

EPS_LOG = 1e-300  # clamp floor before logs in the entropy map


class InputError(ValueError):
    """Bad runtime input (dimension mismatch, malformed data)."""


class ConfigurationError(ValueError):
    """Invalid parameter choice detected at construction/run time."""


class DomainError(ValueError):
    """Point outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """An iterative inner solve failed to converge."""


class UnsupportedDomainError(ValueError):
    """Operation has no implementation for this feasible-set kind."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator; bit-reproducible across platforms."""
    return np.random.Generator(np.random.Philox(int(seed) & 0xFFFFFFFFFFFFFFFF))


def as_point(x) -> Point:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"point must be a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("point has non-finite entries")
    return x


def _at_least(what: str, value, least: int = 1):
    """`value`, a horizon, epoch length or epoch count named by `what`,
    refused unless it is at least `least` (a NaN is refused too)."""
    if not value >= least:
        raise ConfigurationError(f"{what} must be at least {least}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Closed-form projections
# ---------------------------------------------------------------------------


def project_simplex(x: Point) -> Point:
    """Euclidean projection onto the probability simplex (sort-and-threshold)."""
    d = x.shape[0]
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, d + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(x - theta, 0.0)


def project_l1_ball(x: Point, r: float) -> Point:
    """Euclidean projection onto {‖x‖₁ ≤ r} via simplex projection of |x|."""
    if np.abs(x).sum() <= r:
        return x.copy()
    mags = project_simplex(np.abs(x) / r) * r
    return np.sign(x) * mags


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, bit-identical to np.linalg.norm at under half its call
    cost.  The ravel is required: it hands ddot a contiguous vector, as
    np.linalg.norm does; on a strided view ddot sums in another order."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


def _onto_ball(r: float, y: Point) -> Point:
    """y itself when ‖y‖ ≤ r, else y scaled onto the sphere of radius r.  y
    must be contiguous and 1-D, so that ddot sums in np.linalg.norm's order."""
    n = math.sqrt(y.dot(y))
    return y if n <= r else y * (r / n)


def ball_projector(r: float):
    """Projection onto the radius-r ball at the origin as a bare kernel: no
    check, no ravel, no copy.  The caller passes a fresh, contiguous 1-D
    float64 point that it owns; the kernel returns that very array when it is
    inside the ball."""
    return functools.partial(_onto_ball, r)


def project_ball(x: Point, r: float, center: Point | None = None) -> Point:
    """Projection onto ball(center, r); a fresh array, also for a point inside."""
    # x − center is a new contiguous array; x itself may be a strided view
    y = x.ravel() if center is None else x - center
    p = _onto_ball(r, y)
    if p is y:
        return x.copy()
    return p if center is None else p + center


def two_ball_projector(c1: Point, r1: float, c2: Point, r2: float):
    """Exact Euclidean projection onto ball(c1,r1) ∩ ball(c2,r2) as a bare
    kernel of the point; the gap ‖c1−c2‖, the emptiness check and which
    centers are zero are settled once, so a loop with fixed balls builds one
    projector.

    As with ball_projector, the caller passes a fresh, contiguous 1-D float64
    point that it owns: the kernel returns that very array when it lies in
    both balls, and never writes into it.  The path most steps take, the
    point or its ball-1 projection lying in ball 2, makes no nested call.
    When c2 is zero and c1 is not (mixed_grad's shifted frame), the kernel
    takes ‖x‖ first: a point with ‖x‖ + ‖c1‖ safely below r1 skips the
    ball-1 test, which it cannot fail, and ‖x‖ serves the ball-2 test.  The
    result is bit for bit what the full tests give.

    Intersection must be nonempty (‖c1−c2‖ ≤ r1+r2).  Falls back to the
    sphere-sphere ring when both constraints are active.
    """
    gap = _norm(c1 - c2)
    if gap > r1 + r2 + 1e-12:
        raise DomainError("empty ball intersection")
    tol1, tol2 = r1 + 1e-12, r2 + 1e-12
    # x − c1 is x bit for bit when c1 is all +0.0 (the epoch solvers' domain
    # ball); a −0.0 would turn x's −0.0 into +0.0, so only +0.0 is skipped
    c1_zero = not (c1.any() or np.signbit(c1).any())
    # ‖p1 − c2‖ equals ‖p1‖ bit for bit when c2 is zero (mixed_grad's c2)
    c2_zero = not np.count_nonzero(c2)
    pretest = c2_zero and not c1_zero
    # The pre-test ‖x‖ ≤ inner implies that the ball-1 test n ≤ r1 below
    # passes.  With u = 2⁻⁵³ and γ = d·u/(1 − d·u), a computed dot of d
    # squares is within a factor 1 ± γ of the exact one (any summation
    # order), and each subtraction, product and sqrt adds a factor 1 ± u.  So
    # the computed ‖x‖ and ‖c1‖ are at least (1 − u)·√(1 − γ) times the
    # exact norms, and the exact ‖x‖ + ‖c1‖ is at most (1 + u)³·r1·m over
    # that factor, m = 1 − 8(d + 4)·u.  By the triangle inequality
    # ‖x − c1‖ ≤ ‖x‖ + ‖c1‖, and the computed n of y = fl(x − c1) is at most
    # (1 + u)²·√(1 + γ) times it.  Together n ≤ r1·m·(1 + 2(d + 4)·u) < r1
    # while d·u ≤ 0.01.  Underflow adds at most √d·2⁻⁵³⁷ to each computed
    # norm; subtracting 2⁻⁵⁰⁰ covers that, and disables the pre-test only for
    # radii near 2⁻⁵⁰⁰ or below.  With c2 zero, gap is ‖c1‖.
    inner = (r1 * (1.0 - 4 * (c1.size + 4) * 2.0**-52) - gap - 2.0**-500
             if pretest else -math.inf)

    def project(x: Point) -> Point:
        n2 = math.sqrt(x.dot(x)) if pretest else math.inf
        if n2 <= inner:
            p1 = x
        else:
            y = x if c1_zero else x - c1
            n = math.sqrt(y.dot(y))
            # the outside branch keeps `+ c1`, which maps −0.0 to +0.0
            p1 = x if n <= r1 else y * (r1 / n) + c1
            if p1 is not x or not pretest:
                u = p1 if c2_zero else p1 - c2
                n2 = math.sqrt(u.dot(u))
        if n2 <= tol2:
            return p1
        p2 = project_ball(x, r2, c2)
        if _norm(p2 - c1) <= tol1:
            return p2
        # both boundaries active: project onto the (d-2)-sphere where they meet
        n = (c2 - c1) / gap
        # offset h of the ring plane from c1 along n
        h = (gap * gap + r1 * r1 - r2 * r2) / (2.0 * gap)
        return _onto_ring(x, c1 + h * n, n, math.sqrt(max(r1 * r1 - h * h, 0.0)))

    return project


def _onto_ring(x: Point, q: Point, n: Point, rho: float) -> Point:
    """x's nearest point on the radius-rho ring about q in the plane normal to unit n."""
    v = x - q
    v_perp = v - np.dot(v, n) * n
    nv = _norm(v_perp)
    if nv < 1e-15:
        # degenerate: any ring point is nearest; pick a deterministic axis
        e = np.zeros_like(x)
        e[int(np.argmin(np.abs(n)))] = 1.0
        v_perp = e - np.dot(e, n) * n
        nv = _norm(v_perp)
        if nv == 0.0:
            return q  # 1-D: the ring is the point q
    return q + rho * (v_perp / nv)


def project_two_balls(x: Point, c1: Point, r1: float, c2: Point, r2: float) -> Point:
    """Exact Euclidean projection onto ball(c1,r1) ∩ ball(c2,r2); a fresh
    array, also for a point inside.  See two_ball_projector."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    p = two_ball_projector(c1, r1, c2, r2)(x)
    return p.copy() if p is x else p


def dykstra(x: Point, projections, rounds: int = 100, tol: float = 1e-10) -> Point:
    """Dykstra alternating projections onto an intersection of convex sets.

    Warns (RuntimeWarning) when `rounds` end before a round moves the point
    by at most `tol`, and returns the last iterate.
    """
    y = x.copy()
    increments = [np.zeros_like(x) for _ in projections]
    step = math.inf
    for _ in range(rounds):
        y_prev = y.copy()
        for i, proj in enumerate(projections):
            z = y + increments[i]
            y = proj(z)
            increments[i] = z - y
        step = np.linalg.norm(y - y_prev)
        if step <= tol:
            return y
    warnings.warn(f"dykstra did not converge in {rounds} rounds: last step "
                  f"{step:.3g} > tol {tol:.3g}", RuntimeWarning, stacklevel=2)
    return y


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------


class Domain:
    """Feasible set with membership, exact projection, and a scalar constraint.

    One subclass per kind, holding only its own fields and refusing bad ones
    when built: Domain.ball, .box, .simplex, .l1_ball and .halfspace_cut are
    Ball, Box, Simplex, L1Ball and HalfspaceCut, and `kind` names each.

    Every kind's scalar constraint g is its membership test (x is in the set
    ⇔ g(x) ≤ 0), which `contains` reads.  Ball alone carries the boundary
    constants of the single-projection solvers: rho lower-bounding ‖∇g‖ on
    the boundary, G2 upper-bounding ‖∇g‖ and C2 upper-bounding |g| over the
    ball of radius max(1, r).  The halfspace cut alone has an outer radius.
    """

    dim: int | None = None  # None: points of any dimension

    def contains(self, x: Point, tol: float = 1e-10) -> bool:
        return self.g(x) <= tol

    def project(self, x: Point) -> Point:
        """Euclidean projection onto the set; a fresh array, also for a point
        inside.  The dimension check plus the kernel of `projector`, which
        takes a contiguous 1-D float64 point of the set's dimension that the
        caller owns and checks nothing: the ball kernel returns that very
        array when it is inside (see ball_projector), the others a new one."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        self._check_dim(x)
        p = self.projector()(x)
        return p.copy() if p is x else p

    def _check_dim(self, x: Point) -> Point:
        if x.ndim != 1:
            raise InputError(f"point must be a 1-D vector, got shape {x.shape}")
        if self.dim is not None and x.shape[0] != self.dim:
            raise InputError(f"dimension mismatch: domain is {self.dim}-d, point is {x.shape[0]}-d")
        return x

    def linear_minimizer(self, c: Point) -> Point:
        """argmin over the set of ⟨c, x⟩ (the step direction oracle), if the kind has one."""
        raise UnsupportedDomainError(f"no linear-minimization routine for {self.kind}")


class Ball(Domain):
    """{‖x‖ ≤ r}, g(x) = ‖x‖² − r², with boundary constants over radius max(1, r)."""

    kind = "ball"

    def __init__(self, r: float):
        if not r > 0:
            raise ConfigurationError("ball radius must be positive")
        self.r = float(r)

    def g(self, x: Point) -> float:
        # x.dot(x) is x @ x bit for bit: a sum of squares has no signed zero
        return float(x.dot(x)) - self.r * self.r

    def g_grad(self, x: Point) -> Point:
        return x + x   # 2.0 * x bit for bit, without converting the 2.0 each call

    @property
    def rho(self) -> float:
        return 2.0 * self.r

    @property
    def G2(self) -> float:
        return 2.0 * max(1.0, self.r)

    @property
    def C2(self) -> float:
        R = max(1.0, self.r)
        return max(self.r * self.r, R * R - self.r * self.r)

    def projector(self):
        return ball_projector(self.r)

    def linear_minimizer(self, c: Point) -> Point:
        c = self._check_dim(np.asarray(c, dtype=np.float64))
        n = _norm(c)
        return np.zeros_like(c) if n == 0 else -(self.r / n) * c

    def sample(self, rng: np.random.Generator, dim: int | None = None) -> Point:
        if dim is None:
            raise InputError("dimension required to sample this domain")
        v = rng.standard_normal(dim)
        v /= max(np.linalg.norm(v), 1e-15)
        return v * self.r * rng.uniform() ** (1.0 / dim)


class Box(Domain):
    """{lo ≤ x ≤ hi}, g the largest bound violation."""

    kind = "box"

    def __init__(self, lo, hi):
        lo, hi = as_point(lo), as_point(hi)
        if lo.shape != hi.shape:
            raise InputError("box bounds must have equal dimension")
        if np.any(lo > hi):
            raise ConfigurationError("empty box: lo > hi")
        self.lo, self.hi, self.dim = lo, hi, lo.shape[0]

    def g(self, x: Point) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(np.max(np.maximum(self.lo - x, x - self.hi)))

    def projector(self):
        lo, hi = self.lo, self.hi
        return lambda x: np.clip(x, lo, hi)

    def sample(self, rng: np.random.Generator, dim: int | None = None) -> Point:
        return rng.uniform(self.lo, self.hi)


class Simplex(Domain):
    """The probability simplex in `dim` dimensions."""

    kind = "simplex"

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigurationError("simplex needs dim >= 1")
        self.dim = dim

    def g(self, x: Point) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(max(np.max(-x), abs(x.sum() - 1.0)))

    def projector(self):
        return project_simplex

    def linear_minimizer(self, c: Point) -> Point:
        c = self._check_dim(np.asarray(c, dtype=np.float64))
        out = np.zeros_like(c)
        out[int(np.argmin(c))] = 1.0
        return out

    def sample(self, rng: np.random.Generator, dim: int | None = None) -> Point:
        return rng.dirichlet(np.ones(self.dim))


class L1Ball(Domain):
    """{‖x‖₁ ≤ r}, g(x) = ‖x‖₁ − r, of any dimension unless `dim` is given."""

    kind = "l1_ball"

    def __init__(self, r: float, dim: int | None = None):
        if not r > 0:
            raise ConfigurationError("l1 radius must be positive")
        self.r, self.dim = float(r), dim

    def g(self, x: Point) -> float:
        return float(np.abs(np.asarray(x, dtype=np.float64)).sum() - self.r)

    def projector(self):
        return functools.partial(project_l1_ball, r=self.r)

    def sample(self, rng: np.random.Generator, dim: int | None = None) -> Point:
        d = self.dim if self.dim is not None else dim
        if d is None:
            raise InputError("dimension required to sample this domain")
        p = rng.dirichlet(np.ones(d)) * self.r * rng.uniform() ** (1.0 / d)
        return p * rng.choice([-1.0, 1.0], size=d)


class HalfspaceCut(Domain):
    """{⟨a, x⟩ ≤ b} within the unit ball (`outer_radius` 1), g(x) = ⟨a, x⟩ − b;
    a must be nonzero.  No linear-minimization routine."""

    kind = "halfspace_cut"

    def __init__(self, a, b: float):
        a = as_point(a)
        if np.linalg.norm(a) == 0:
            raise ConfigurationError("halfspace normal must be nonzero")
        if not math.isfinite(b):
            raise ConfigurationError(f"halfspace offset must be finite, got {b!r}")
        self.a, self.b, self.dim, self.outer_radius = a, float(b), a.shape[0], 1.0

    def g(self, x: Point) -> float:
        return float(self.a @ np.asarray(x, dtype=np.float64) - self.b)

    def g_grad(self, x: Point) -> Point:
        return self.a.copy()

    def contains(self, x: Point, tol: float = 1e-10) -> bool:
        return super().contains(x, tol) and np.linalg.norm(x) <= self.outer_radius + tol

    def projector(self):
        return self._project

    def _project(self, x: Point) -> Point:
        a, b, r = self.a, self.b, self.outer_radius
        if self.contains(x):
            return x.copy()
        p1 = project_ball(x, r)
        if a @ p1 - b <= 1e-14:
            return p1
        na2 = float(a @ a)
        p2 = x - max(a @ x - b, 0.0) / na2 * a
        if np.linalg.norm(p2) <= r + 1e-14:
            return p2
        # both active: nearest point on the sphere ∩ hyperplane ring
        rho2 = r * r - b * b / na2
        if rho2 < 0:
            raise DomainError("halfspace does not intersect the outer sphere")
        return _onto_ring(x, (b / na2) * a, a / math.sqrt(na2), math.sqrt(rho2))

    def sample(self, rng: np.random.Generator, dim: int | None = None) -> Point:
        ball = Ball(self.outer_radius)
        for _ in range(10_000):
            v = ball.sample(rng, self.dim)
            if self.contains(v):
                return v
        raise NumericError("rejection sampling failed; halfspace cut too thin")


Domain.ball, Domain.box, Domain.simplex = Ball, Box, Simplex
Domain.l1_ball, Domain.halfspace_cut = L1Ball, HalfspaceCut


# ---------------------------------------------------------------------------
# The entropy prox step on a ball
# ---------------------------------------------------------------------------


class MirrorMap(NamedTuple):
    """A strongly convex potential, named by kind; entropy() is the negative
    entropy Σ xᵢ log xᵢ, the one map prox_step takes."""

    kind: str

    @classmethod
    def entropy(cls) -> "MirrorMap":
        return cls("entropy")


def prox_step(mirror_map: MirrorMap, domain: Domain, z: Point, g: Point,
              eta: float) -> Point:
    """argmin over the ball of η⟨u, g⟩ + KL(u, z) for the entropy map: the
    multiplicative update z·exp(−ηg), then its KL projection onto the ball by
    bisection on a norm multiplier; a new array.  After the input checks,
    any other map or domain is refused with UnsupportedDomainError."""
    if eta <= 0:
        raise ConfigurationError("prox step size must be positive")
    z = np.asarray(z, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if z.shape != g.shape:
        raise InputError("prox_step: dimension mismatch")
    domain._check_dim(z)
    if mirror_map.kind != "entropy" or domain.kind != "ball":
        raise UnsupportedDomainError(
            f"prox step not available for the {mirror_map.kind} map on {domain.kind}")
    r = domain.r
    u = np.exp(np.minimum(np.log(np.maximum(z, EPS_LOG)) - eta * g, 700.0))
    if np.linalg.norm(u) <= r:
        return u

    def candidate(nu):
        # solve log(v/u) + 2 nu v = 0 per coordinate by Newton in log v
        w = np.log(u)
        for _ in range(100):
            v = np.exp(w)
            f = w - np.log(u) + 2.0 * nu * v
            fp = 1.0 + 2.0 * nu * v
            w -= f / fp
        return np.exp(w)

    lo_nu, hi_nu = 0.0, 1.0
    for _ in range(200):
        if np.linalg.norm(candidate(hi_nu)) <= r:
            break
        hi_nu *= 2.0
    else:
        raise NumericError("entropy projection: no bracketing multiplier found")
    for _ in range(200):
        mid = 0.5 * (lo_nu + hi_nu)
        if np.linalg.norm(candidate(mid)) > r:
            lo_nu = mid
        else:
            hi_nu = mid
        if hi_nu - lo_nu <= 1e-14 * max(1.0, hi_nu):
            break
    v = candidate(hi_nu)
    if abs(np.linalg.norm(v) - r) > 1e-6 * max(1.0, r):
        raise NumericError("entropy projection bisection did not converge")
    return v


# ---------------------------------------------------------------------------
# Gradient clipping
# ---------------------------------------------------------------------------


def clip_component(gamma: float, g: Point) -> Point:
    """Componentwise sign(g_i)·min(gamma, |g_i|); ‖result‖∞ ≤ gamma."""
    if not gamma > 0:
        raise ConfigurationError("clip level must be positive")
    g = np.asarray(g, dtype=np.float64)
    return np.sign(g) * np.minimum(gamma, np.abs(g))
