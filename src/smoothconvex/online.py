"""Online learners with a pull-based round protocol.

Every learner but HingeClassifierPD exposes predict() -> decision and
observe(loss) -> None, which supports full-information and bandit feedback
with one harness; HingeClassifierPD takes one example y·x per round(gx).
Each learner refuses a non-positive step size, radius or query offset at
construction, and a missing or non-positive dimension (`dim`, when the
domain has none); the soft-constraint learners refuse constraint bounds
that their tunings cannot use; and ExpertOMP refuses a round that is not a
linear RoundLoss, or whose cost has the wrong length or a negative or NaN
entry.  Each observe records the round's decision and the loss it
paid (`decisions`, `loss_values`) as it plays the round, in flat float64
records, so a long run keeps no Python object per round: the loss values
are an array('d'), and each decision is copied into one growable buffer of d
floats a round, which `decisions` reads back as a fresh read-only (rounds, d)
array.  The constraint learners record their m violation values a round the
same way (`violations`, (rounds, m)); ZeroViolationOGD's `raw_violations` is
an array('d').

`play(losses)` observes a whole sequence and skips the rounds that repeat.
OGD, OMP, IFTRL and PenaltyOGD name the arrays that, with a round's loss,
fix the rest of the run (`_state`).  Before each round play keys their bytes
with the identity of the round's loss.  Where a key recurs after P rounds,
play copies the records of every whole period ahead in which each loss is
the very object of P rounds before, instead of computing those rounds: the
two every learner keeps, and any other it declares in `_records`
(PenaltyOGD's violations).  It compares bytes and identities, never values,
so its records and final state are an observe loop's, bit for bit;
sequences that share a few RoundLoss objects (`adversary.alternating_linear`,
`ftrl_adversary`) compute a handful of rounds.  A learner whose rounds
change more than its state and its records (BanditOMP, SoftConstraintOGD,
ZeroViolationOGD) names no state and plays every round.  So does ExpertOMP,
whose weights do not repeat on `expert_switch`'s costs; there its rounds are
cheap instead: OMP's second prox step, along the round's gradient, has the
first step's inputs whenever that gradient is the very array of the round
before (a linear loss served again returns its cost vector itself), so its
result is the decision and it is not computed, and ExpertOMP checks a
RoundLoss once, not each time the same object comes back.

A RoundLoss is one of two slot-based kinds: linear (a cost vector) or
quadratic ½‖x − c‖² (a center).  Each computes value and grad in methods
over its read-only vector, so a round holds no closure, and value_grad
gives the two from the same operations at once: a quadratic round prices
its residual x − c once.  OGD and OMP take a round's value and gradient
from value_grad, and OGD's subclasses choose their direction from that
gradient.  `RoundLoss.quadratic_rounds` builds T quadratic rounds over one
read-only (T, d) copy of their centers, each round a row view of it.

Each learner binds its domain's projection once, at construction
(Domain.projector, ball_projector), and calls the bare kernel every round on
the fresh point it has just built.  The step constants a round applies to a
vector (OGD's constant step, OMP's and IFTRL's η, IFTRL's −1/η,
PenaltyOGD's weight) are bound once as 0-d float64 arrays: the same IEEE
operations as with the Python floats, without numpy converting a float on
every call.  The soft-constraint duals are a list of Python floats, updated
one at a time by the operations of the array form in its order; `lam` reads
them as a fresh array, and each weighs its subgradient through a 0-d
buffer that holds it.

OGD is the one projected-step loop: SoftConstraintOGD, ZeroViolationOGD and
PenaltyOGD are OGD subclasses that choose only the round's direction.  OMP is
the one extra-gradient loop, whose step is a projected gradient step:
BanditOMP is an OMP subclass with that step that runs OMP's round through
_feedback, which estimates the gradient from value queries, and ExpertOMP
one whose step is the multiplicative update on the simplex.
Every learner here is run by an experiment in `cli`.
"""

from __future__ import annotations

import math
from operator import is_
from typing import NamedTuple

import numpy as np

from .core import (EPS_LOG, ConfigurationError, Domain, InputError, Point,
                   UnsupportedDomainError, _at_least, _norm)


def _frozen(v) -> np.ndarray:
    v = np.array(v, dtype=np.float64)
    v.flags.writeable = False
    return v


class RoundLoss:
    """One round's cost: value(x), grad(x) and value_grad(x), the two at
    once, plus the cost vector or the center when the loss is linear or
    quadratic.

    A RoundLoss is of one of two kinds, built by from_linear, from_quadratic
    and quadratic_rounds: subclasses whose value and grad are methods over a
    read-only float64 cost vector or center, so one RoundLoss can serve many
    rounds.  A linear loss's grad returns that read-only cost vector itself,
    so a write into it raises ValueError; a quadratic loss's grad returns a
    fresh array.
    """

    __slots__ = ()
    linear: Point | None = None          # cost vector when the loss is linear
    quad_center: Point | None = None     # center when the loss is ½‖x−c‖²

    @classmethod
    def from_linear(cls, f: Point) -> "RoundLoss":
        return _LinearLoss(_frozen(f))

    @classmethod
    def from_quadratic(cls, c: Point) -> "RoundLoss":
        return _QuadraticLoss(_frozen(c))

    @classmethod
    def quadratic_rounds(cls, centers) -> list:
        """One quadratic round per row of the (T, d) `centers`: the rounds
        share one read-only float64 copy, each holding a row view of it."""
        centers = _frozen(centers)
        if centers.ndim != 2:
            raise InputError(f"centers must be a (T, d) array, got shape {centers.shape}")
        return [_QuadraticLoss(c) for c in centers]


class _LinearLoss(RoundLoss):
    """⟨f, x⟩ for the read-only cost vector f."""

    __slots__ = ("linear",)

    def __init__(self, f: Point):
        self.linear = f

    def value(self, x: Point) -> float:
        # `.dot` is `@` up to the sign of a zero; `+ 0.0` gives `@`'s +0.0
        return float(self.linear.dot(x)) + 0.0

    def grad(self, x: Point) -> Point:
        return self.linear

    def value_grad(self, x: Point) -> tuple:
        """(value(x), grad(x)) by the same operations."""
        return float(self.linear.dot(x)) + 0.0, self.linear


class _QuadraticLoss(RoundLoss):
    """½‖x − c‖² for the read-only center c."""

    __slots__ = ("quad_center",)

    def __init__(self, c: Point):
        self.quad_center = c

    def value(self, x: Point) -> float:
        r = x - self.quad_center
        return 0.5 * float(r.dot(r))

    def grad(self, x: Point) -> Point:
        return x - self.quad_center

    def value_grad(self, x: Point) -> tuple:
        """(value(x), grad(x)) from one residual x − c: the same operations
        as the two calls, which compute it twice."""
        r = x - self.quad_center
        return 0.5 * float(r.dot(r)), r


def _record():
    """An empty flat float64 record, an array('d').  The array module is
    imported here, not with the package, so a process that builds no learner
    (a stochastic experiment) does not load it."""
    from array import array
    return array("d")


def _rows(record, width: int) -> np.ndarray:
    """A flat float64 record, `width` values a round, as a fresh read-only
    (rounds, width) array."""
    rows = np.array(record, dtype=np.float64).reshape(-1, width)
    rows.flags.writeable = False
    return rows


def _repeats(losses, r: int, P: int) -> int:
    """How many rounds from round r on each play the very loss (`is`) of P
    rounds before: compared in C a doubling chunk at a time, so the count
    costs time in proportion to itself, not to the rounds left."""
    n, step = 0, 1
    while r + n < len(losses):
        a = r + n
        same = list(map(is_, losses[a:a + step], losses[a - P:a - P + step]))
        if not all(same):
            return n + same.index(False)
        n, step = n + len(same), 2 * step
    return n


def _dim(d):
    if d is None or not d >= 1:
        raise ConfigurationError(f"a learner needs dim >= 1, got dim={d!r}")
    return d


_CHUNK = 4096  # floats a replayed record grows by at a time


def _append_copies(record, a: int, b: int, k: int) -> None:
    """Append k copies of record[a:b], about _CHUNK floats at a time, so no
    temporary copy grows with k."""
    window = record[a:b]
    per = max(1, _CHUNK // len(window))
    for done in range(0, k, per):
        record.extend(window * min(per, k - done))


class BaseLearner:
    """Common bookkeeping: the decision played and the loss paid each round,
    which each learner's observe appends as it plays the round.

    Both records are flat float64: `loss_values` is an array('d') of one
    float a round, and each decision, a float64 d-vector, is copied into one
    growable buffer of d floats a round, which `decisions` reads back.  The
    dimension d is the domain's when it has one, else `dim`; a missing d or
    one below 1 is refused.

    `_state` names the float64 arrays that, with a round's loss, fix the
    round's records and every later state; `play` replays a round only for a
    learner that names them.  A learner whose rounds change anything else
    names none.  `_records` names the flat records a round appends to, each
    with its width in floats a round: the two above, and any other that a
    learner keeps and declares there.
    """

    _state: tuple = ()

    def __init__(self, dim: int | None, domain: Domain):
        self.dim = _dim(dim if domain.dim is None else domain.dim)
        self._decisions = _record()
        self.loss_values = _record()

    @property
    def decisions(self) -> np.ndarray:
        """The decisions played, one row a round: a fresh read-only
        (rounds, d) array."""
        return _rows(self._decisions, self.dim)

    def _records(self) -> tuple:
        """(attribute, floats a round) of each record a round appends to."""
        return (("loss_values", 1), ("_decisions", self.dim))

    def play(self, losses) -> None:
        """Observe each of the sequence `losses` in turn, as observe would,
        bit for bit, without computing a round that repeats an earlier one.

        Before round r the learner's state bytes and the loss's identity
        form a key; if round r0 < r had the same key, each of the whole
        periods P = r − r0 ahead in which every loss is the loss P rounds
        before it plays rounds r0..r−1 again: their records are copied, and
        the state after them is the state now: each of `_records` grows by
        k copies of those rounds' rows.  Only bytes and identities are
        compared, never values.  A learner that names no state observes
        every round."""
        names = self._state
        if not names:
            for loss in losses:
                self.observe(loss)
            return
        records = [(getattr(self, a), width) for a, width in self._records()]
        seen, base, r = {}, len(self.loss_values), 0
        while r < len(losses):
            key = (id(losses[r]), b"".join([getattr(self, a).tobytes() for a in names]))
            P = r - seen.get(key, r)
            seen[key] = r
            k = P and _repeats(losses, r, P) // P
            if k:
                a, b = base + r - P, base + r
                for record, width in records:
                    _append_copies(record, a * width, b * width, k)
                r += k * P
            else:
                self.observe(losses[r])
                r += 1


# ---------------------------------------------------------------------------
# Gradient-descent family
# ---------------------------------------------------------------------------


class OGD(BaseLearner):
    """Projected online gradient descent with the constant step `eta`, the
    one projected-step loop: a subclass only turns the round's loss gradient
    into its direction, through _direction.  A step that is not positive,
    NaN included, is refused."""

    _state = ("x",)

    def __init__(self, domain: Domain, eta: float, dim: int | None = None):
        if not eta > 0:
            raise ConfigurationError(f"step size eta must be positive, got {eta!r}")
        super().__init__(dim, domain)
        self.x = domain.project(np.zeros(self.dim))
        self._project = domain.projector()
        self._step = np.array(eta)

    def predict(self) -> Point:
        return self.x

    def observe(self, loss: RoundLoss) -> None:
        x = self.x
        self._decisions.frombytes(x.tobytes())
        value, g = loss.value_grad(x)
        self.loss_values.append(value)
        self.x = self._project(x - self._step * self._direction(x, g))

    def _direction(self, x: Point, g: Point) -> Point:
        """The round's descent direction at the decision x, whose loss
        gradient is g."""
        return g


# sets where argmin ⟨x, G⟩ + (c/2)‖x‖² is the projection of −G/c
_LEADER_KINDS = ("ball", "box", "simplex")


class IFTRL(BaseLearner):
    """Regularized-leader learner whose decision steps off the leader point
    with the previous round's gradient (two gradient evaluations per round),
    with the step η in (0, 1]; the leader is weighted by 1/η."""

    _state = ("z", "grad_sum", "stale_grad")

    def __init__(self, domain: Domain, eta: float, dim: int | None = None):
        super().__init__(dim, domain)
        if not 0.0 < eta <= 1.0:
            raise ConfigurationError("eta must lie in (0, 1]")
        if domain.kind not in _LEADER_KINDS:
            raise UnsupportedDomainError(f"no closed-form leader solve for {domain.kind}")
        d = self.dim
        self.z = domain.project(np.zeros(d))
        self.grad_sum = np.zeros(d)
        self.stale_grad = np.zeros(d)   # ∇f_{t-1}(z_{t-1}); zero for round 1
        self._project = domain.projector()
        # the leader's c = 1/η enters as G/(−c), which is −G/c bit for bit in
        # one operation
        self._step, self._neg_c = np.array(eta), np.array(-(1.0 / eta))

    def predict(self) -> Point:
        return self._project(self.z - self._step * self.stale_grad)

    def observe(self, loss: RoundLoss) -> None:
        x = self.predict()
        self._decisions.frombytes(x.tobytes())
        self.loss_values.append(float(loss.value(x)))
        self.grad_sum += loss.grad(self.z)
        self.z = self._project(self.grad_sum / self._neg_c)
        self.stale_grad = loss.grad(self.z)


class OMP(BaseLearner):
    """Two-prox extra-gradient learner; one new gradient evaluation per round.
    Both prox steps are _prox, a projected gradient step with step η.  The
    first steps from z along the previous gradient to the decision x, the
    second from z along the round's gradient g; when g is the very array of
    the previous round (a linear loss's cost vector, served again), the
    second has the first's inputs, so its result is x and it is not
    computed.  A subclass takes the round's value and gradient another way
    by overriding _feedback, as OGD's override _direction."""

    _state = ("z", "prev_grad")

    def __init__(self, domain: Domain, eta: float, dim: int | None = None):
        super().__init__(dim, domain)
        if not eta > 0:
            raise ConfigurationError("eta must be positive")
        self.z = domain.project(np.zeros(self.dim))
        self.prev_grad = np.zeros(self.dim)
        self._project = domain.projector()
        self._step = np.array(eta)

    @staticmethod
    def tuned_eta(egv: float) -> float:
        """The step ½·min(1/√2, 1/√egv) for the gradual variation egv."""
        return 0.5 * min(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(max(egv, 1e-300)))

    def predict(self) -> Point:
        return self._prox(self.z, self.prev_grad)

    def observe(self, loss: RoundLoss) -> None:
        x = self.predict()
        self._decisions.frombytes(x.tobytes())
        value, g = self._feedback(loss, x)
        self.loss_values.append(value)
        self.z = x if g is self.prev_grad else self._prox(self.z, g)
        self.prev_grad = g

    def _feedback(self, loss: RoundLoss, x: Point) -> tuple:
        """The round's recorded value and its gradient, at the decision x."""
        return loss.value_grad(x)

    def _prox(self, z: Point, g: Point) -> Point:
        """The step from z along −g: a new array."""
        return self._project(z - self._step * g)


class ExpertOMP(OMP):
    """OMP on the m-expert simplex whose step is the multiplicative update
    (the entropy map's prox step), from uniform weights, the projection of
    the origin.  A round must be a linear RoundLoss whose cost has one entry
    per expert, each nonnegative; anything else, a plain cost vector and NaN
    included, is refused with InputError before the weights move.  A
    RoundLoss's cost vector is read-only, so a loss is checked once: the
    very object served again on the next round is not checked again.  Its
    weights move every round on the `expert_switch` costs, so keying them
    for `play` costs more than it saves: it names no state to replay."""

    _state = ()

    def __init__(self, m: int, eta: float):
        super().__init__(Domain.simplex(m), eta)
        self._checked = None   # the last loss that passed the checks

    def _prox(self, z: Point, g: Point) -> Point:
        """z·exp(−η·g), normalised, in the log domain: a new array."""
        logu = np.log(np.maximum(z, EPS_LOG)) - self._step * g
        logu -= logu.max()
        u = np.exp(logu)
        return u / u.sum()

    @staticmethod
    def tuned_eta(m: int, egv_inf: float) -> float:
        return math.sqrt(math.log(m) / max(egv_inf, 1e-300))

    def observe(self, loss: RoundLoss) -> None:
        if loss is not self._checked:
            f = getattr(loss, "linear", None)
            if f is None:
                raise InputError("expert losses must be linear: one cost per expert")
            if f.shape != self.z.shape:
                raise InputError(f"expert losses need shape {self.z.shape}, got {f.shape}")
            if not f.min() >= 0:    # also false for a NaN cost
                raise InputError("expert losses must be nonnegative numbers")
            self._checked = loss
        super().observe(loss)


class BanditOMP(OMP):
    """Deterministic multi-point bandit learner: OMP with step eta on the
    shrunk ball (1−alpha)·W, whose gradient is estimated from d+1 value
    queries on a coordinate stencil; the value it records is the stencil's
    center query.  Its rounds also count queries and keep the last estimate,
    so it names no state to replay."""

    _state = ()

    def __init__(self, domain: Domain, delta: float, eta: float, dim: int):
        if domain.kind != "ball":
            raise UnsupportedDomainError("bandit learner requires a ball domain")
        if not 0.0 < delta < domain.r:
            raise ConfigurationError("query offset must lie in (0, ball radius)")
        super().__init__(Domain.ball(domain.r * (1.0 - delta / domain.r)), eta, dim=dim)
        self.delta = delta
        self.value_queries = 0
        self.last_estimate: Point | None = None

    def _feedback(self, loss: RoundLoss, x: Point) -> tuple:
        """The center query's value and the forward-difference gradient: a
        new array, never the round before's, so OMP takes its second step."""
        f0 = float(loss.value(x))
        self.value_queries += 1
        d = x.shape[0]
        g = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = self.delta
            g[i] = (float(loss.value(x + e)) - f0) / self.delta
            self.value_queries += 1
        self.last_estimate = g
        return f0, g


# ---------------------------------------------------------------------------
# Hinge-loss classification (primal-dual)
# ---------------------------------------------------------------------------


class HingeClassifierPD:
    """Mistake-driven online classifier: primal-dual extra-gradient updates on
    the hinge loss max over alpha in [0, 1] of alpha·(1 − ⟨w, y x⟩), with w
    on the radius-R ball at the thesis's fixed step eta = 1/(2√2).  Each
    round takes the example times its label, gx = y·x; it predicts before
    updating and updates only on mistakes, which it keeps: it has no `play`
    and no per-round records."""

    eta = 1.0 / (2.0 * math.sqrt(2.0))

    def __init__(self, dim: int, R: float = 1.0):
        dim = _dim(dim)
        self._project = Domain.ball(R).projector()   # refuses R <= 0
        self.w = np.zeros(dim)
        self.wp = np.zeros(dim)
        self.alpha = 0.0
        self.beta = 0.0
        self.mistakes = 0
        self.mistake_examples: list[Point] = []

    def round(self, gx: Point) -> None:
        """Play the example gx = y·x: a score ⟨w, gx⟩ of at most 0 is a
        mistake, which keeps a float64 copy of gx and updates."""
        score = float(self.w @ gx)
        if score <= 0:
            self.mistakes += 1
            gx = np.array(gx, dtype=np.float64)
            self.mistake_examples.append(gx)
            margin = 1.0 - score
            alpha_old = self.alpha
            self.beta = min(max(self.beta + self.eta * margin, 0.0), 1.0)
            self.wp = self._project(self.wp + self.eta * alpha_old * gx)
            self.alpha = min(max(self.beta + self.eta * margin, 0.0), 1.0)
            self.w = self._project(self.wp + self.eta * alpha_old * gx)


# ---------------------------------------------------------------------------
# Long-term (soft) constraints
# ---------------------------------------------------------------------------


class ConstraintSet(NamedTuple):
    """m scalar constraints g_i ≤ 0 with subgradients, such as a domain's (g, g_grad)."""

    funcs: list          # list of (g, grad) callables
    D: float             # bound on |g_i| over the ball
    G: float             # bound on gradient norms (losses and constraints)
    F: float             # bound on the per-round loss range

    @property
    def m(self) -> int:
        return len(self.funcs)

    def values(self, x: Point) -> list[float]:
        """The m constraint values at x, as Python floats."""
        return [float(g(x)) for g, _ in self.funcs]

    @classmethod
    def from_samples(cls, funcs, dim: int, ball_radius: float, loss_bound: float,
                     grad_bound: float, rng) -> "ConstraintSet":
        """D estimated from 1000 sampled ball points; G and F supplied by the
        caller."""
        D = 0.0
        for _ in range(1000):
            v = rng.standard_normal(dim)
            v *= ball_radius * rng.uniform() ** (1.0 / dim) / max(_norm(v), 1e-15)
            for g, _ in funcs:
                D = max(D, abs(float(g(v))))
        return cls(funcs=funcs, D=D, G=grad_bound, F=loss_bound)


class SoftConstraintOGD(OGD):
    """Primal-dual descent-ascent meeting the constraints only in the long run.

    OGD on the radius-R ball with the step eta = R²/(a·√T), whose direction
    is the loss gradient plus the dual-weighted constraint subgradients; the
    duals are kept nonnegative and damped by a quadratic regularizer of
    weight delta so the constraint weights adapt to the accumulated
    violation; _tuning gives (a, delta).  A horizon T below one round is
    refused, as are no constraints, G ≤ 0 and a negative or NaN D or F.  Its
    rounds also move the duals and record violations, so it and
    ZeroViolationOGD name no state to replay.
    """

    _state = ()

    def __init__(self, constraints: ConstraintSet, T: int, R: float = 1.0,
                 dim: int | None = None):
        _at_least("horizon T", T)
        ball = Domain.ball(R)   # refuses R <= 0 before R divides below
        c = constraints
        if not (c.m >= 1 and c.G > 0 and c.D >= 0 and c.F >= 0):
            raise ConfigurationError(f"constraints need m >= 1, G > 0, D >= 0 and F >= 0, "
                                     f"got m={c.m}, G={c.G!r}, D={c.D!r}, F={c.F!r}")
        self.cons = constraints
        self.a, self.delta = self._tuning(R, T)
        self.eta = R * R / (self.a * math.sqrt(T))
        super().__init__(ball, self.eta, dim=dim)
        self._eta_delta = self.eta * self.delta
        self._zero = _frozen(np.zeros(self.x.shape))
        self._dual = np.array(0.0)   # the dual that weighs a subgradient
        self._lam = [0.0] * c.m
        self._violations = _record()

    def _tuning(self, R: float, T: int) -> tuple:
        """(a, delta) = (R·√((m+1)G² + 2mD²), 2(m+1)G²) for `cons`."""
        m, G, D = self.cons.m, self.cons.G, self.cons.D
        return R * math.sqrt((m + 1) * G * G + 2 * m * D * D), 2.0 * (m + 1) * G * G

    @property
    def lam(self) -> np.ndarray:
        """The duals, held as Python floats: a fresh float64 array."""
        return np.array(self._lam)

    @property
    def violations(self) -> np.ndarray:
        """One row a round of the constrained values, one per dual: a fresh
        read-only (rounds, m) array."""
        return _rows(self._violations, len(self._lam))

    def _terms(self, x: Point):
        """The constrained values as floats (the round's violations record)
        and Σ lam_i ∇g_i(x) at x; with every dual zero, a shared read-only
        zero vector.  Each dual weighs its subgradient through a 0-d array:
        the same IEEE operations as with the float, for less than numpy
        takes to convert one."""
        vals = self.cons.values(x)
        grad, dual = self._zero, self._dual
        for lam_i, (_, gg) in zip(self._lam, self.cons.funcs):
            if lam_i != 0.0:
                dual[()] = lam_i
                grad = grad + dual * gg(x)
        return vals, grad

    def _direction(self, x: Point, g: Point) -> Point:
        vals, cons_grad = self._terms(x)
        self._violations.extend(vals)
        # lam ← max(lam + η(g − ηδ·lam), 0) one dual at a time in Python
        # floats: the IEEE operations of the array form, in its order; the
        # clamp is np.maximum(u, 0.0) bit for bit (+0.0 for −0.0, NaN kept)
        eta, eta_delta = self.eta, self._eta_delta
        lam = []
        for l, v in zip(self._lam, vals):
            u = l + eta * (v - eta_delta * l)
            lam.append(u if u > 0.0 or u != u else 0.0)
        self._lam = lam
        return g + cons_grad


_TUNING_ITERS = 50  # fixed-point sweeps of zero_violation_tuning


def zero_violation_tuning(G: float, D: float, F: float, R: float, T: int) -> dict:
    """Fixed point of the coupled (a, b) tuning for the tightened-constraint
    variant, after _TUNING_ITERS sweeps: delta = 4G², gamma = b·T^(−1/4)."""
    if not R > 0:
        raise ConfigurationError("ball radius must be positive")
    _at_least("horizon T", T)
    delta = 4.0 * G * G
    b = 0.0
    a = R * math.sqrt(2 * G * G + 3 * D * D)
    for _ in range(_TUNING_ITERS):
        b = 2.0 * math.sqrt(F * (delta * R * R / a + a / (R * R)))
        a = R * math.sqrt(2 * G * G + 3 * (D * D + b * b))
    return {"a": a, "b": b, "delta": delta, "gamma": b * T ** (-0.25)}


class ZeroViolationOGD(SoftConstraintOGD):
    """Soft-constraint learner on the single tightened constraint
    g(x) + gamma ≤ 0 with g = max_i g_i, which clears the long-run constraint
    exactly at the price of a larger regret.  Its (a, delta) and the margin
    gamma are zero_violation_tuning's.  `cons` holds the raw constraints;
    one dual weights the subgradient of the first maximal g_i."""

    def __init__(self, constraints: ConstraintSet, T: int, R: float = 1.0,
                 dim: int | None = None):
        super().__init__(constraints, T, R=R, dim=dim)
        self._lam = [0.0]
        self.raw_violations = _record()

    def _tuning(self, R: float, T: int) -> tuple:
        c = self.cons
        tun = zero_violation_tuning(c.G, c.D, c.F, R, T)
        self.gamma_tighten = tun["gamma"]
        return tun["a"], tun["delta"]

    def _terms(self, x: Point):
        # one evaluation of the raw constraints serves the violation record,
        # the tightened value and the subgradient
        vals = self.cons.values(x)
        g_max = max(vals)
        self.raw_violations.append(g_max)
        grad = self._zero
        lam = self._lam[0]
        if lam != 0.0:
            self._dual[()] = lam
            grad = grad + self._dual * self.cons.funcs[vals.index(g_max)][1](x)
        return [g_max + self.gamma_tighten], grad


class PenaltyOGD(OGD):
    """OGD with the constant step `eta` on the radius-R ball down the
    penalized loss f_t + delta·Σ[g_i]₊ with a fixed weight; the baseline
    whose violation cannot vanish.  A negative or NaN weight is refused.
    A round's violations are a function of its decision x, so x with the
    loss fixes all three records: `play` replays it, violations too."""

    _state = ("x",)

    def __init__(self, constraints: ConstraintSet, eta: float,
                 delta: float, R: float = 1.0, dim: int | None = None):
        if not delta >= 0:
            raise ConfigurationError(f"penalty weight delta must be nonnegative, got {delta!r}")
        super().__init__(Domain.ball(R), eta, dim=dim)
        self.cons = constraints
        self.delta = delta
        self._delta = np.array(delta)
        self._violations = _record()

    @property
    def violations(self) -> np.ndarray:
        """One row a round of the m constraint values: a fresh read-only
        (rounds, m) array."""
        return _rows(self._violations, self.cons.m)

    def _records(self) -> tuple:
        return super()._records() + (("_violations", self.cons.m),)

    def _direction(self, x: Point, g: Point) -> Point:
        vals = self.cons.values(x)
        self._violations.extend(vals)
        for v, (_, gg) in zip(vals, self.cons.funcs):
            if v > 0:
                g = g + self._delta * gg(x)
        return g
