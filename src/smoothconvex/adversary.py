"""Deterministic, seedable loss-sequence generators with controllable
gradual variation, plus the variation measures themselves.

Sequences are pure: querying round t twice yields bitwise-identical losses
because every generator precomputes its round data up front.  Rounds with the
same loss may share one RoundLoss object, and drifting_quadratics' rounds
share one read-only (T, d) array of centers, each round a row view of it;
every cost vector and center is read-only, so no learner can change one round
through another.  The linear and quadratic losses hold no closures; only
classification_stream's hinge rounds wrap two callables each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import InputError, _norm, make_rng
from .online import RoundLoss


@dataclass
class LossSequence:
    """T rounds of losses; loss(t) is 1-indexed and pure.  A loss list whose
    length is not T is refused, so iterating the sequence gives its T rounds."""

    T: int
    kind: str
    _losses: list = field(repr=False, default_factory=list)
    egv_target: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self._losses) != self.T:
            raise InputError(f"a sequence of T={self.T} rounds got "
                             f"{len(self._losses)} losses")

    def loss(self, t: int) -> RoundLoss:
        if not 1 <= t <= self.T:
            raise InputError(f"round index {t} outside 1..{self.T}")
        return self._losses[t - 1]

    def __iter__(self):
        return iter(self._losses)


def alternating_linear(egv: float, T: int, d: int) -> LossSequence:
    """±f alternating every round, with ‖f‖ sized so the gradual variation
    hits `egv`; the flip-dominated family where tracking gains vanish and
    regret actually scales with the variation."""
    if egv <= 0:
        raise InputError("target variation must be positive")
    scale = math.sqrt(egv / (4.0 * T - 3.0))
    f = np.zeros(d)
    f[0] = scale
    pair = (RoundLoss.from_linear(f), RoundLoss.from_linear(-f))
    losses = [pair[t % 2] for t in range(T)]
    return LossSequence(T=T, kind="alternating_linear", _losses=losses,
                        egv_target=float(egv), meta={"scale": scale})


def ftrl_adversary(eta: float, T: int, gv_target: float | None = None,
                   d: int = 1) -> LossSequence:
    """Leader-punishing linear sequence keyed on s = ⌊1/eta⌋.

    s ≥ √T: play a fixed unit vector for ⌊s/2⌋ rounds, zeros after.
    0 < s < √T: flip the vector every s rounds for as many periods as the
    variation budget (gv_target, default 4·⌊T/(2s)⌋) allows, zeros after.
    s = 0: start with −f then alternate ±f every round.
    """
    if eta <= 0:
        raise InputError("adversary needs the learner step size eta > 0")
    f = np.zeros(d)
    f[0] = 1.0
    plus, minus = RoundLoss.from_linear(f), RoundLoss.from_linear(-f)
    s = math.floor(1.0 / eta)
    if s >= math.sqrt(T):
        case = "I"
        losses = [plus] * min(s // 2, T)
    elif s > 0:
        case = "II"
        max_periods = T // (2 * s)
        tau = max_periods if gv_target is None else min(max_periods, int(gv_target // 4))
        losses = ([plus] * s + [minus] * s) * tau
    else:
        case = "III"
        budget = T - 1 if gv_target is None else min(T - 1, int(gv_target // 4))
        losses = [minus] + [(plus, minus)[k % 2] for k in range(budget)]
    losses += [RoundLoss.from_linear(np.zeros(d))] * (T - len(losses))
    return LossSequence(T=T, kind=f"ftrl_adversary_case_{case}",
                        _losses=losses[:T], egv_target=gv_target,
                        meta={"s": s, "case": case})


def drifting_quadratics(speed: float, T: int, d: int, radius: float = 0.5) -> LossSequence:
    """f_t(x) = ½‖x − c_t‖² with the center moving on a circle by `speed`
    radians per round (smooth with unit curvature); the T rounds share one
    read-only (T, d) array of centers."""
    if speed < 0:
        raise InputError("drift speed must be nonnegative")
    centers = np.zeros((T, d))
    for t in range(T):
        ang = speed * t
        centers[t, 0] = radius * math.cos(ang)
        if d > 1:
            centers[t, 1] = radius * math.sin(ang)
    losses = RoundLoss.quadratic_rounds(centers)
    egv = radius * radius  # first-round term at the origin
    if T > 1:
        step = 2.0 * radius * math.sin(speed / 2.0)
        egv += (T - 1) * step * step
    return LossSequence(T=T, kind="drifting_quadratics", _losses=losses,
                        egv_target=float(egv), meta={"speed": speed, "radius": radius})


def classification_stream(drift: float, T: int, d: int, seed: int = 0) -> LossSequence:
    """Unit vectors y_t·x_t random-walking on the sphere with step `drift`;
    each round is the hinge loss max(0, 1 − ⟨w, y_t x_t⟩)."""
    if drift < 0:
        raise InputError("drift must be nonnegative")
    rng = make_rng(seed)
    v = rng.standard_normal(d)
    v /= _norm(v)   # np.linalg.norm bit for bit, without its wrapper
    examples = []
    for _ in range(T):
        examples.append(v.copy())
        if drift > 0:
            u = rng.standard_normal(d)
            u -= (u @ v) * v
            nu = _norm(u)
            if nu > 1e-12:
                step = (drift / nu) * u
                v = v + step
                v /= _norm(v)
    losses = []
    for gx in examples:
        def value(w, gx=gx):
            return max(0.0, 1.0 - float(gx @ w))

        def grad(w, gx=gx):
            return -gx if 1.0 - float(gx @ w) > 0 else np.zeros_like(gx)

        losses.append(RoundLoss(value=value, grad=grad))
    return LossSequence(T=T, kind="classification_stream", _losses=losses,
                        meta={"drift": drift, "examples": examples})


# ---------------------------------------------------------------------------
# Variation measures
# ---------------------------------------------------------------------------


def measure_egv(sequence: LossSequence, probe_points) -> float:
    """Point-form gradual variation Σ_{t=0}^{T−1} ‖∇f_{t+1}(y_t) − ∇f_t(y_t)‖²
    with f₀ ≡ 0; probe_points supplies y_0..y_{T−1}."""
    pts = [np.asarray(p, dtype=np.float64) for p in probe_points]
    if len(pts) < sequence.T:
        raise InputError("need one probe point per round (y_0 .. y_{T-1})")
    total = 0.0
    for t in range(sequence.T):
        y = pts[t]
        g_next = sequence.loss(t + 1).grad(y)
        g_prev = np.zeros_like(g_next) if t == 0 else sequence.loss(t).grad(y)
        d = g_next - g_prev
        total += float(d @ d)
    return total


def measure_egv_exact(sequence: LossSequence) -> float:
    """Sup-form gradual variation for families whose gradient differences do
    not depend on the probe point (linear and shifted-quadratic losses), so
    the origin serves as every round's probe."""
    first = sequence.loss(1)
    if all(l.linear is not None for l in sequence):
        # ∇f_t(y) = linear for every y: measure_egv's terms without the probes
        total, prev = 0.0, np.zeros_like(first.linear)
        for l in sequence:
            f = l.linear
            d = f - prev
            total += float(d.dot(d))
            prev = f
        return total
    d = first.linear.shape[0] if first.linear is not None else first.quad_center.shape[0]
    origin = np.zeros(d)
    if all(l.linear is not None or l.quad_center is not None for l in sequence):
        return measure_egv(sequence, [origin] * sequence.T)
    raise InputError("closed-form variation is only available for linear/quadratic losses")


def measure_egv_inf(sequence: LossSequence) -> float:
    """Infinity-norm gradual variation for linear losses over experts."""
    total = 0.0
    prev = None
    for l in sequence:
        if l.linear is None:
            raise InputError("infinity-norm variation needs linear losses")
        f = l.linear
        p = np.zeros_like(f) if prev is None else prev
        # ‖·‖∞ by the array methods, which skip np.max's dispatch; the square
        # is taken on the numpy scalar, since Python's pow and numpy's square
        # need not round alike
        total += float(abs(f - p).max() ** 2)
        prev = f
    return total

