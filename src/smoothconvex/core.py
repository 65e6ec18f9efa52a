"""Shared numerical foundations.

Points are plain 1-D numpy arrays.  This module provides feasible sets with
exact projections, mirror maps with Bregman divergences, the extra-gradient
prox step used by every mirror-prox learner, gradient clipping, and seeded
counter-based randomness.

Projections and the prox step come in two forms.  The checked form
(`Domain.project`, `project_ball`, `prox_step`) validates its input on every
call and returns a fresh array.  The bound form (`Domain.projector`,
`ball_projector`, `prox_map`) runs the checks and the kind dispatch once and
returns the bare kernel for a loop to call each step; the checked form is
those checks plus the same kernel.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepSchedule:
    """eta_t for t = 1, 2, ...; always positive."""

    kind: str  # constant | inverse_sqrt | inverse_t
    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ConfigurationError("schedule constant must be positive")
        if self.kind not in ("constant", "inverse_sqrt", "inverse_t"):
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")

    def at(self, t: int) -> float:
        if t < 1:
            raise InputError("schedule index starts at t=1")
        if self.kind == "constant":
            return self.c
        if self.kind == "inverse_sqrt":
            return self.c / math.sqrt(t)
        return self.c / t

    @classmethod
    def constant(cls, eta: float) -> "StepSchedule":
        return cls("constant", eta)

    @classmethod
    def inverse_sqrt(cls, c: float) -> "StepSchedule":
        return cls("inverse_sqrt", c)

    @classmethod
    def inverse_t(cls, c: float) -> "StepSchedule":
        return cls("inverse_t", c)


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
        q = c1 + h * n
        rho2 = r1 * r1 - h * h
        rho = math.sqrt(max(rho2, 0.0))
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
                return q  # 1-D: the balls touch only at q
        return q + rho * (v_perp / nv)

    return project


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


@dataclass
class Domain:
    """Feasible set with membership, exact projection, and a scalar constraint.

    The scalar constraint g with its subgradient and the boundary constants
    (rho lower-bounding ‖∇g‖ on the boundary, G2 upper-bounding ‖∇g‖ and C2
    upper-bounding |g| over the outer ball of radius `outer_radius`) feed the
    single-projection and long-term-constraint solvers.
    """

    kind: str  # ball | box | simplex | l1_ball | halfspace_cut
    r: float = 1.0
    lo: Point | None = None
    hi: Point | None = None
    a: Point | None = None
    b: float = 0.0
    dim: int | None = None
    outer_radius: float = 1.0

    # -- constructors -------------------------------------------------------

    @classmethod
    def ball(cls, r: float, outer_radius: float | None = None) -> "Domain":
        if r <= 0:
            raise ConfigurationError("ball radius must be positive")
        return cls("ball", r=float(r), outer_radius=float(outer_radius or max(1.0, r)))

    @classmethod
    def box(cls, lo, hi) -> "Domain":
        lo, hi = as_point(lo), as_point(hi)
        if lo.shape != hi.shape:
            raise InputError("box bounds must have equal dimension")
        if np.any(lo > hi):
            raise ConfigurationError("empty box: lo > hi")
        return cls("box", lo=lo, hi=hi, dim=lo.shape[0],
                   outer_radius=float(max(np.linalg.norm(lo), np.linalg.norm(hi))))

    @classmethod
    def simplex(cls, dim: int) -> "Domain":
        if dim < 1:
            raise ConfigurationError("simplex needs dim >= 1")
        return cls("simplex", dim=dim, outer_radius=1.0)

    @classmethod
    def l1_ball(cls, r: float, dim: int | None = None) -> "Domain":
        if r <= 0:
            raise ConfigurationError("l1 radius must be positive")
        return cls("l1_ball", r=float(r), dim=dim, outer_radius=float(max(1.0, r)))

    @classmethod
    def halfspace_cut(cls, a, b: float, outer_radius: float = 1.0) -> "Domain":
        a = as_point(a)
        if np.linalg.norm(a) == 0:
            raise ConfigurationError("halfspace normal must be nonzero")
        return cls("halfspace_cut", a=a, b=float(b), dim=a.shape[0],
                   outer_radius=float(outer_radius))

    # -- scalar constraint ---------------------------------------------------

    def g(self, x: Point) -> float:
        """Constraint value; membership ⇔ g(x) ≤ 0 (within the outer ball)."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "ball":
            return float(x @ x - self.r * self.r)
        if self.kind == "halfspace_cut":
            return float(self.a @ x - self.b)
        if self.kind == "box":
            return float(np.max(np.maximum(self.lo - x, x - self.hi)))
        if self.kind == "simplex":
            return float(max(np.max(-x), abs(x.sum() - 1.0)))
        if self.kind == "l1_ball":
            return float(np.abs(x).sum() - self.r)
        raise UnsupportedDomainError(self.kind)

    def g_grad(self, x: Point) -> Point:
        """A subgradient of g at x."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "ball":
            return 2.0 * x
        if self.kind == "halfspace_cut":
            return self.a.copy()
        if self.kind == "box":
            viol_lo = self.lo - x
            viol_hi = x - self.hi
            out = np.zeros_like(x)
            if np.max(viol_lo) >= np.max(viol_hi):
                out[int(np.argmax(viol_lo))] = -1.0
            else:
                out[int(np.argmax(viol_hi))] = 1.0
            return out
        if self.kind == "simplex":
            s = x.sum() - 1.0
            if abs(s) >= np.max(-x):
                return np.full_like(x, math.copysign(1.0, s))
            out = np.zeros_like(x)
            out[int(np.argmax(-x))] = -1.0
            return out
        if self.kind == "l1_ball":
            return np.sign(x)
        raise UnsupportedDomainError(self.kind)

    # -- boundary constants ---------------------------------------------------

    @property
    def rho(self) -> float:
        if self.kind == "ball":
            return 2.0 * self.r
        if self.kind == "halfspace_cut":
            return float(np.linalg.norm(self.a))
        return 1.0  # piecewise-linear g: unit-norm subgradients on facets

    @property
    def G2(self) -> float:
        if self.kind == "ball":
            return 2.0 * self.outer_radius
        if self.kind == "halfspace_cut":
            return float(np.linalg.norm(self.a))
        if self.kind in ("l1_ball", "simplex"):
            d = self.dim if self.dim else 1
            return math.sqrt(d)
        return 1.0

    @property
    def C2(self) -> float:
        R = self.outer_radius
        if self.kind == "ball":
            return max(self.r * self.r, R * R - self.r * self.r)
        if self.kind == "halfspace_cut":
            return float(np.linalg.norm(self.a)) * R + abs(self.b)
        if self.kind == "l1_ball":
            d = self.dim if self.dim else 1
            return math.sqrt(d) * R + self.r
        return 2.0 * R + 1.0

    # -- membership / projection ----------------------------------------------

    def contains(self, x: Point, tol: float = 1e-10) -> bool:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "halfspace_cut":
            return (self.g(x) <= tol) and (np.linalg.norm(x) <= self.outer_radius + tol)
        return self.g(x) <= tol

    def project(self, x: Point) -> Point:
        """Euclidean projection onto the set; a fresh array, also for a point
        inside.  The dimension check plus the kernel of `projector`."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        self._check_dim(x)
        p = self.projector()(x)
        return p.copy() if p is x else p

    def projector(self):
        """The projection as a bare kernel, for a loop that projects every
        step: the kind dispatch runs here, once, and the kernel checks
        nothing.  It takes a contiguous 1-D float64 point of the set's
        dimension that the caller owns; the ball kernel returns that very
        array when it is inside (see ball_projector), the others a new one.
        """
        if self.kind == "ball":
            return ball_projector(self.r)
        if self.kind == "box":
            lo, hi = self.lo, self.hi
            return lambda x: np.clip(x, lo, hi)
        if self.kind == "simplex":
            return project_simplex
        if self.kind == "l1_ball":
            return functools.partial(project_l1_ball, r=self.r)
        if self.kind == "halfspace_cut":
            return self._project_halfspace_cut
        raise UnsupportedDomainError(self.kind)

    def _project_halfspace_cut(self, x: Point) -> Point:
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
        c0 = (b / na2) * a
        rho2 = r * r - b * b / na2
        if rho2 < 0:
            raise DomainError("halfspace does not intersect the outer sphere")
        xh = x - (a @ x - b) / na2 * a
        v = xh - c0
        nv = np.linalg.norm(v)
        if nv < 1e-15:
            e = np.zeros_like(x)
            e[int(np.argmin(np.abs(a)))] = 1.0
            v = e - (a @ e) / na2 * a
            nv = np.linalg.norm(v)
        return c0 + math.sqrt(rho2) * v / nv

    def _check_dim(self, x: Point) -> None:
        if x.ndim != 1:
            raise InputError(f"point must be a 1-D vector, got shape {x.shape}")
        if self.dim is not None and x.shape[0] != self.dim:
            raise InputError(f"dimension mismatch: domain is {self.dim}-d, point is {x.shape[0]}-d")

    # -- extras used by solvers -------------------------------------------------

    def linear_minimizer(self, c: Point) -> Point:
        """argmin over the set of ⟨c, x⟩ (the step direction oracle)."""
        c = np.asarray(c, dtype=np.float64)
        self._check_dim(c)
        if self.kind == "ball":
            n = _norm(c)
            return np.zeros_like(c) if n == 0 else -(self.r / n) * c
        if self.kind == "box":
            return np.where(c > 0, self.lo, np.where(c < 0, self.hi, self.lo))
        if self.kind == "simplex":
            out = np.zeros_like(c)
            out[int(np.argmin(c))] = 1.0
            return out
        if self.kind == "l1_ball":
            out = np.zeros_like(c)
            i = int(np.argmax(np.abs(c)))
            if c[i] != 0:
                out[i] = -math.copysign(self.r, c[i])
            return out
        raise UnsupportedDomainError(f"no linear-minimization routine for {self.kind}")

    def sample(self, rng: np.random.Generator, dim: int | None = None) -> Point:
        """A random feasible point."""
        d = self.dim if self.dim is not None else dim
        if d is None:
            raise InputError("dimension required to sample this domain")
        if self.kind == "ball":
            v = rng.standard_normal(d)
            v /= max(np.linalg.norm(v), 1e-15)
            return v * self.r * rng.uniform() ** (1.0 / d)
        if self.kind == "box":
            return rng.uniform(self.lo, self.hi)
        if self.kind == "simplex":
            return rng.dirichlet(np.ones(d))
        if self.kind == "l1_ball":
            p = rng.dirichlet(np.ones(d)) * self.r * rng.uniform() ** (1.0 / d)
            return p * rng.choice([-1.0, 1.0], size=d)
        if self.kind == "halfspace_cut":
            for _ in range(10_000):
                v = rng.standard_normal(d)
                v /= max(np.linalg.norm(v), 1e-15)
                v = v * self.outer_radius * rng.uniform() ** (1.0 / d)
                if self.contains(v):
                    return v
            raise NumericError("rejection sampling failed; halfspace cut too thin")
        raise UnsupportedDomainError(self.kind)


# ---------------------------------------------------------------------------
# Mirror maps and Bregman divergences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MirrorMap:
    """A strongly convex potential, named by kind: ½‖x‖² (euclidean) or the
    negative entropy Σ xᵢ log xᵢ (entropy); bregman and the prox step read it."""

    kind: str  # euclidean | entropy
    alpha: float = 1.0  # strong-convexity modulus in the map's own norm

    @classmethod
    def euclidean(cls) -> "MirrorMap":
        return cls("euclidean", 1.0)

    @classmethod
    def entropy(cls) -> "MirrorMap":
        return cls("entropy", 1.0)


def bregman(mirror_map: MirrorMap, x: Point, y: Point) -> float:
    """B(x, y) = Φ(x) − Φ(y) − ⟨∇Φ(y), x−y⟩; nonnegative, zero iff x = y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise InputError("bregman: dimension mismatch")
    if mirror_map.kind == "euclidean":
        d = x - y
        return 0.5 * float(d @ d)
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("entropy map requires strictly positive coordinates")
    return float(np.sum(x * np.log(x / y)) - x.sum() + y.sum())


def prox_step(mirror_map: MirrorMap, domain: Domain, z: Point, g: Point,
              eta: float) -> Point:
    """argmin over the domain of η⟨u, g⟩ + B(u, z): the input checks plus the
    step of prox_map."""
    if eta <= 0:
        raise ConfigurationError("prox step size must be positive")
    z = np.asarray(z, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if z.shape != g.shape:
        raise InputError("prox_step: dimension mismatch")
    domain._check_dim(z)
    return prox_map(mirror_map, domain)(z, g, eta)


def prox_map(mirror_map: MirrorMap, domain: Domain):
    """The prox step with its map and domain bound: step(z, g, eta) =
    argmin over the domain of η⟨u, g⟩ + B(u, z).  The map and domain kinds
    are dispatched here, once; step checks nothing, so z and g must be 1-D
    float64 arrays of one shape and eta > 0, and it returns a new array.

    Euclidean map: a projected gradient step.  Entropy map: multiplicative
    update followed by the Bregman projection (closed form on the simplex and
    on nonnegative boxes; bisection on a norm multiplier otherwise).
    """
    if mirror_map.kind == "euclidean":
        project = domain.projector()
        return lambda z, g, eta: project(z - eta * g)
    # entropy: unconstrained solution z * exp(-eta g)
    if domain.kind == "simplex":
        def step(z, g, eta):
            logu = np.log(np.maximum(z, EPS_LOG)) - eta * g
            logu -= logu.max()
            u = np.exp(logu)
            return u / u.sum()
        return step

    def unconstrained(z, g, eta):
        return np.exp(np.minimum(np.log(np.maximum(z, EPS_LOG)) - eta * g, 700.0))

    if domain.kind == "box":
        if np.any(domain.lo < 0):
            raise DomainError("entropy map needs a nonnegative box")
        lo, hi = np.maximum(domain.lo, EPS_LOG), domain.hi
        return lambda z, g, eta: np.clip(unconstrained(z, g, eta), lo, hi)
    if domain.kind in ("ball", "l1_ball"):
        return lambda z, g, eta: _entropy_norm_projection(unconstrained(z, g, eta), domain)
    raise UnsupportedDomainError(f"entropy prox not available for {domain.kind}")


def _entropy_norm_projection(u: Point, domain: Domain) -> Point:
    """KL projection of u > 0 onto a ball/l1 ball via bisection on the multiplier."""
    norm = (lambda v: float(np.linalg.norm(v))) if domain.kind == "ball" else (
        lambda v: float(np.abs(v).sum()))
    if norm(u) <= domain.r:
        return u
    # candidate(nu): per-coordinate minimizer of KL + nu * constraint surrogate
    if domain.kind == "l1_ball":
        def candidate(nu):
            return u * math.exp(-nu)
    else:
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
        if norm(candidate(hi_nu)) <= domain.r:
            break
        hi_nu *= 2.0
    else:
        raise NumericError("entropy projection: no bracketing multiplier found")
    for _ in range(200):
        mid = 0.5 * (lo_nu + hi_nu)
        if norm(candidate(mid)) > domain.r:
            lo_nu = mid
        else:
            hi_nu = mid
        if hi_nu - lo_nu <= 1e-14 * max(1.0, hi_nu):
            break
    v = candidate(hi_nu)
    if abs(norm(v) - domain.r) > 1e-6 * max(1.0, domain.r):
        raise NumericError("entropy projection bisection did not converge")
    return v


# ---------------------------------------------------------------------------
# Gradient clipping
# ---------------------------------------------------------------------------


def clip_component(gamma: float, g: Point) -> Point:
    """Componentwise sign(g_i)·min(gamma, |g_i|); ‖result‖∞ ≤ gamma."""
    if gamma <= 0:
        raise ConfigurationError("clip level must be positive")
    g = np.asarray(g, dtype=np.float64)
    return np.sign(g) * np.minimum(gamma, np.abs(g))
