"""Deterministic, seedable loss-sequence generators with controllable
gradual variation, plus the variation measures themselves.

Sequences are pure: querying round t twice yields bitwise-identical losses
because every generator precomputes its round data up front.  Rounds with the
same loss may share one RoundLoss object; its cost vector or center is
read-only, so no learner can change one round through another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import InputError, make_rng
from .online import MaxStructure, RoundLoss


@dataclass
class LossSequence:
    """T rounds of losses; loss(t) is 1-indexed and pure."""

    T: int
    kind: str
    _losses: list = field(repr=False, default_factory=list)
    egv_target: float | None = None
    meta: dict = field(default_factory=dict)

    def loss(self, t: int) -> RoundLoss:
        if not 1 <= t <= self.T:
            raise InputError(f"round index {t} outside 1..{self.T}")
        return self._losses[t - 1]

    def __iter__(self):
        return iter(self._losses)


def switching_linear(f, g, T: int) -> LossSequence:
    """⟨f,·⟩ for the first half, ⟨g,·⟩ for the rest (odd T: the second half
    gets the extra round)."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    half = T // 2
    losses = [RoundLoss.from_linear(f)] * half + [RoundLoss.from_linear(g)] * (T - half)
    egv = float(f @ f) + float((g - f) @ (g - f))
    return LossSequence(T=T, kind="switching_linear", _losses=losses,
                        egv_target=egv, meta={"f": f, "g": g})


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


def blocked_linear(egv: float, T: int, d: int, switches: int = 16,
                   seed: int = 0) -> LossSequence:
    """Piecewise-constant unit cost vectors with `switches` direction changes
    sized so the gradual variation hits `egv` (which must be ≥ 1, the
    first-round term)."""
    if egv < 1.0:
        raise InputError("target variation must be at least the first-round term 1")
    chord = math.sqrt((egv - 1.0) / switches) if switches > 0 else 0.0
    if chord > 2.0:
        raise InputError("per-switch change cannot exceed the unit-vector diameter 2")
    rng = make_rng(seed)
    vecs = []
    v = np.zeros(d)
    v[0] = 1.0
    vecs.append(v)
    for _ in range(switches):
        # rotate by the angle whose chord is `chord`, in a random 2-plane
        u = rng.standard_normal(d)
        u -= (u @ v) * v
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            u = np.zeros(d)
            u[(int(np.argmax(np.abs(v))) + 1) % d] = 1.0
            u -= (u @ v) * v
            nu = np.linalg.norm(u)
        u /= nu
        angle = 2.0 * math.asin(min(chord / 2.0, 1.0))
        v = math.cos(angle) * v + math.sin(angle) * u
        v /= np.linalg.norm(v)
        vecs.append(v)
    block = T // (switches + 1)
    losses = []
    for j, vec in enumerate(vecs):
        span = block if j < switches else T - block * switches
        losses += [RoundLoss.from_linear(vec)] * span
    return LossSequence(T=T, kind="blocked_linear", _losses=losses,
                        egv_target=float(egv), meta={"switches": switches})


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
    radians per round (smooth with unit curvature)."""
    if speed < 0:
        raise InputError("drift speed must be nonnegative")
    centers = []
    for t in range(T):
        ang = speed * t
        c = np.zeros(d)
        c[0] = radius * math.cos(ang)
        if d > 1:
            c[1] = radius * math.sin(ang)
        centers.append(c)
    losses = [RoundLoss.from_quadratic(c) for c in centers]
    egv = radius * radius  # first-round term at the origin
    if T > 1:
        step = 2.0 * radius * math.sin(speed / 2.0)
        egv += (T - 1) * step * step
    return LossSequence(T=T, kind="drifting_quadratics", _losses=losses,
                        egv_target=float(egv), meta={"speed": speed, "radius": radius,
                                                     "centers": centers})


def classification_stream(drift: float, T: int, d: int, seed: int = 0) -> LossSequence:
    """Unit vectors y_t·x_t random-walking on the sphere with step `drift`;
    each round is a hinge loss max(0, 1 − ⟨w, y_t x_t⟩) in max structure."""
    if drift < 0:
        raise InputError("drift must be nonnegative")
    rng = make_rng(seed)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    examples = []
    for _ in range(T):
        examples.append(v.copy())
        if drift > 0:
            u = rng.standard_normal(d)
            u -= (u @ v) * v
            nu = np.linalg.norm(u)
            if nu > 1e-12:
                step = (drift / nu) * u
                v = v + step
                v /= np.linalg.norm(v)
    losses = []
    for gx in examples:
        A = -gx[None, :]  # hinge: max over alpha in [0,1] of alpha(1 - <w, yx>)

        def value(w, gx=gx):
            return max(0.0, 1.0 - float(gx @ w))

        def grad(w, gx=gx):
            return -gx if 1.0 - float(gx @ w) > 0 else np.zeros_like(gx)

        parts = MaxStructure(A=A, phi_hat_grad=lambda u: np.array([-1.0]))
        losses.append(RoundLoss(value=value, grad=grad, max_parts=parts))
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
        for t in range(1, sequence.T + 1):
            f = sequence.loss(t).linear
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
    for i, l in enumerate(sequence):
        if l.linear is None:
            raise InputError("infinity-norm variation needs linear losses")
        f = l.linear
        p = np.zeros_like(f) if prev is None else prev
        total += float(np.max(np.abs(f - p)) ** 2)
        prev = f
    return total

