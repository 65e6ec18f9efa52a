"""Deterministic, seedable loss-sequence generators with controllable
gradual variation, plus the variation measures themselves.

A sequence is a plain list of T RoundLoss objects, round t at index t − 1,
and every generator builds its round data up front.  Rounds with the same
loss may share one RoundLoss object, and drifting_quadratics' rounds
share one read-only (T, d) array of centers, each round a row view of it;
every cost vector and center is read-only, so no learner can change one round
through another.  classification_stream returns no losses: its examples are
the rows of one read-only (T, d) array.  Every generator refuses T < 1 and
d < 1 with InputError; ftrl_adversary's sequence is 1-D.

The closed-form variation measures (measure_egv_exact, measure_egv_inf)
price each distinct pair of consecutive RoundLoss objects once and add the
terms in round order, so a sequence built from a few shared rounds costs a
dict lookup a round, with the float sum unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .core import InputError, _norm, make_rng
from .online import RoundLoss


def _check_sizes(T: int, d: int) -> None:
    if T < 1 or d < 1:
        raise InputError(f"a sequence needs T >= 1 rounds in d >= 1 dimensions, "
                         f"got T={T}, d={d}")


def alternating_linear(egv: float, T: int, d: int) -> list:
    """±f alternating every round, with ‖f‖ sized so the gradual variation
    hits `egv`; the flip-dominated family where tracking gains vanish and
    regret actually scales with the variation."""
    _check_sizes(T, d)
    if not egv > 0:
        raise InputError("target variation must be positive")
    f = np.zeros(d)
    f[0] = math.sqrt(egv / (4.0 * T - 3.0))
    pair = (RoundLoss.from_linear(f), RoundLoss.from_linear(-f))
    return [pair[t % 2] for t in range(T)]


def ftrl_adversary(eta: float, T: int, gv_target: float) -> list:
    """Leader-punishing 1-D linear sequence keyed on s = ⌊1/eta⌋, with the
    variation budget gv_target: a finite number ≥ 0, else InputError.

    s ≥ √T: play f = +1 for ⌊s/2⌋ rounds, zeros after.
    0 < s < √T: flip f every s rounds for as many of the ⌊T/(2s)⌋ periods as
    ⌊gv_target/4⌋ allows, zeros after.
    s = 0: start with −f, then alternate ±f every round for as many of the
    T − 1 rounds as ⌊gv_target/4⌋ allows, zeros after.
    """
    _check_sizes(T, 1)
    if not eta > 0:
        raise InputError("adversary needs the learner step size eta > 0")
    if not 0 <= gv_target < math.inf:
        raise InputError(f"variation budget gv_target must be finite and >= 0, "
                         f"got {gv_target!r}")
    f = np.ones(1)
    plus, minus = RoundLoss.from_linear(f), RoundLoss.from_linear(-f)
    s, flips = math.floor(1.0 / eta), int(gv_target // 4)
    if s >= math.sqrt(T):
        losses = [plus] * min(s // 2, T)
    elif s > 0:
        losses = ([plus] * s + [minus] * s) * min(T // (2 * s), flips)
    else:
        losses = [minus] + [(plus, minus)[k % 2] for k in range(min(T - 1, flips))]
    losses += [RoundLoss.from_linear(np.zeros(1))] * (T - len(losses))
    return losses[:T]


def drifting_quadratics(speed: float, T: int, d: int, radius: float = 0.5) -> list:
    """f_t(x) = ½‖x − c_t‖² with the center moving on a circle by `speed`
    radians per round (smooth with unit curvature); the T rounds share one
    read-only (T, d) array of centers."""
    _check_sizes(T, d)
    if not speed >= 0:
        raise InputError("drift speed must be nonnegative")
    centers = np.zeros((T, d))
    # math.cos and math.sin, since np.cos and np.sin need not round alike
    for t in range(T):
        ang = speed * t
        centers[t, 0] = radius * math.cos(ang)
        if d > 1:
            centers[t, 1] = radius * math.sin(ang)
    return RoundLoss.quadratic_rounds(centers)


def classification_stream(drift: float, T: int, d: int, seed: int = 0) -> np.ndarray:
    """Unit vectors y_t·x_t random-walking on the sphere with step `drift`,
    one a row of a read-only (T, d) float64 array; round t's hinge loss is
    max(0, 1 − ⟨w, y_t x_t⟩)."""
    _check_sizes(T, d)
    if not drift >= 0:
        raise InputError("drift must be nonnegative")
    rng = make_rng(seed)
    v = rng.standard_normal(d)
    v /= _norm(v)   # np.linalg.norm bit for bit, without its wrapper
    examples = np.empty((T, d))
    for t in range(T):
        examples[t] = v
        if drift > 0:
            u = rng.standard_normal(d)
            u -= (u @ v) * v
            nu = _norm(u)
            if nu > 1e-12:
                step = (drift / nu) * u
                v = v + step
                v /= _norm(v)
    examples.flags.writeable = False
    return examples


# ---------------------------------------------------------------------------
# Variation measures
# ---------------------------------------------------------------------------


def _pair_sum(sequence: list, term) -> float:
    """Σ_t term(prev, cur) over the rounds in order, prev None for round 1
    and the round before otherwise.  Each distinct (prev, cur) pair of
    RoundLoss objects, which hash by identity, is priced once; the cached
    terms add in round order, so the total is the float that pricing every
    round gives."""
    terms: dict = {}
    total, prev = 0.0, None
    for cur in sequence:
        key = (prev, cur)
        v = terms.get(key)
        if v is None:
            v = terms[key] = term(prev, cur)
        total += v
        prev = cur
    return total


def _origin_sq(prev, cur) -> float:
    """‖∇f_t(0) − ∇f_{t−1}(0)‖² of two rounds, f_0 ≡ 0: a linear round's
    gradient is its cost vector, a quadratic round's is 0 − c.  The origin
    is the scalar 0.0, which broadcasts as a vector of +0.0 would."""
    g = cur.grad(0.0)
    d = g - (np.zeros_like(g) if prev is None else prev.grad(0.0))
    return float(d.dot(d))


def _inf_sq(prev, cur) -> float:
    """‖f_t − f_{t−1}‖∞² of two linear rounds, f_0 ≡ 0."""
    f = cur.linear
    if f is None:
        raise InputError("infinity-norm variation needs linear losses")
    p = np.zeros_like(f) if prev is None else prev.linear
    # ‖·‖∞ by the array methods, which skip np.max's dispatch; the square is
    # taken on the numpy scalar, since Python's pow and numpy's square need
    # not round alike
    return float(abs(f - p).max() ** 2)


def measure_egv_exact(sequence: list) -> float:
    """Gradual variation Σ_t ‖∇f_t − ∇f_{t−1}‖², f_0 ≡ 0, for families whose
    gradient differences do not depend on the point (all-linear or
    all-quadratic losses), so each term is taken at the origin.  A sequence
    that mixes the two kinds is refused with InputError: its differences do
    depend on the point."""
    if not (all(l.linear is not None for l in sequence)
            or all(l.quad_center is not None for l in sequence)):
        raise InputError("closed-form variation needs all-linear or all-quadratic losses")
    return _pair_sum(sequence, _origin_sq)


def measure_egv_inf(sequence: list) -> float:
    """Infinity-norm gradual variation for linear losses over experts."""
    return _pair_sum(sequence, _inf_sq)
