"""Deterministic, seedable loss-sequence generators with controllable
gradual variation, plus the variation measures themselves.

A sequence is a plain list of T RoundLoss objects, round t at index t − 1,
and every generator builds its round data up front.  Rounds with the same
loss may share one RoundLoss object, and drifting_quadratics' rounds
share one read-only (T, d) array of centers, each round a row view of it;
every cost vector and center is read-only, so no learner can change one round
through another.  classification_stream returns no losses: its examples are
the rows of one read-only (T, d) array.  Every generator refuses T < 1 and
d < 1 with InputError.

The closed-form variation measures (measure_egv_exact's linear branch,
measure_egv_inf) price each distinct pair of consecutive RoundLoss objects
once and add the terms in round order, so a sequence built from a few shared
rounds costs a dict lookup a round, with the float sum unchanged.
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


def ftrl_adversary(eta: float, T: int, gv_target: float | None = None,
                   d: int = 1) -> list:
    """Leader-punishing linear sequence keyed on s = ⌊1/eta⌋.

    s ≥ √T: play a fixed unit vector for ⌊s/2⌋ rounds, zeros after.
    0 < s < √T: flip the vector every s rounds for as many periods as the
    variation budget (gv_target, default 4·⌊T/(2s)⌋) allows, zeros after.
    s = 0: start with −f then alternate ±f every round.
    """
    _check_sizes(T, d)
    if not eta > 0:
        raise InputError("adversary needs the learner step size eta > 0")
    f = np.zeros(d)
    f[0] = 1.0
    plus, minus = RoundLoss.from_linear(f), RoundLoss.from_linear(-f)
    s = math.floor(1.0 / eta)
    if s >= math.sqrt(T):
        losses = [plus] * min(s // 2, T)
    elif s > 0:
        max_periods = T // (2 * s)
        tau = max_periods if gv_target is None else min(max_periods, int(gv_target // 4))
        losses = ([plus] * s + [minus] * s) * tau
    else:
        budget = T - 1 if gv_target is None else min(T - 1, int(gv_target // 4))
        losses = [minus] + [(plus, minus)[k % 2] for k in range(budget)]
    losses += [RoundLoss.from_linear(np.zeros(d))] * (T - len(losses))
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


def measure_egv(sequence: list, probe_points) -> float:
    """Point-form gradual variation Σ_{t=0}^{T−1} ‖∇f_{t+1}(y_t) − ∇f_t(y_t)‖²
    with f₀ ≡ 0 over the T rounds of `sequence`; probe_points supplies
    y_0..y_{T−1}."""
    pts = [np.asarray(p, dtype=np.float64) for p in probe_points]
    if len(pts) < len(sequence):
        raise InputError("need one probe point per round (y_0 .. y_{T-1})")
    total = 0.0
    for t in range(len(sequence)):
        y = pts[t]
        g_next = sequence[t].grad(y)
        g_prev = np.zeros_like(g_next) if t == 0 else sequence[t - 1].grad(y)
        d = g_next - g_prev
        total += float(d @ d)
    return total


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


def _linear_sq(prev, cur) -> float:
    """‖f_t − f_{t−1}‖² of two linear rounds, f_0 ≡ 0."""
    f = cur.linear
    d = f - (np.zeros_like(f) if prev is None else prev.linear)
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
    """Sup-form gradual variation for families whose gradient differences do
    not depend on the probe point (all-linear or all-quadratic losses), so the
    origin serves as every round's probe.  A sequence that mixes the two kinds
    is refused with InputError: its differences do depend on the probe."""
    if all(l.linear is not None for l in sequence):
        # ∇f_t(y) = linear for every y: measure_egv's terms without the probes
        return _pair_sum(sequence, _linear_sq)
    if all(l.quad_center is not None for l in sequence):
        origin = np.zeros_like(sequence[0].quad_center)
        return measure_egv(sequence, [origin] * len(sequence))
    raise InputError("closed-form variation needs all-linear or all-quadratic losses")


def measure_egv_inf(sequence: list) -> float:
    """Infinity-norm gradual variation for linear losses over experts."""
    return _pair_sum(sequence, _inf_sq)
