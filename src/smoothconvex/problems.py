"""Loss functions, data ingestion, exact problem constants, and synthetic problems.

Datasets, iterates and per-problem matrices are all dense, which is the right
trade at desk scale.  Every objective has `d`, `full_value`, `stochastic_grad`
and `constants`, the `Constants` record the solvers read, set at construction:
computed exactly by `estimate_constants` for a finite-sum problem, declared by
the others.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigurationError, DomainError, InputError, Point, make_rng


class ParseError(InputError):
    """Malformed dataset text; message carries the 1-based line number."""


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class LabeledDataset:
    X: np.ndarray       # n × d dense features
    labels: np.ndarray  # n labels

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def is_classification(self) -> bool:
        return bool(np.all(np.isin(self.labels, (-1.0, 1.0))))


def load_libsvm(path, normalize: bool = False) -> LabeledDataset:
    """Read a text file with one example per line: "label idx:val idx:val ...".

    Comments after '#' are ignored; indices are 1-based and must be strictly
    increasing within a row; a zero label is rejected.  The features are
    returned dense, with d the largest index seen.  With normalize=True every
    nonzero row is scaled to unit l2 norm.
    """
    rows, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"line {lineno}: bad label {parts[0]!r}") from None
            if label == 0.0:
                raise ParseError(f"line {lineno}: zero label")
            row = []
            prev = 0
            for tok in parts[1:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad feature token {tok!r}") from None
                if idx <= prev:
                    raise ParseError(f"line {lineno}: feature indices must increase (got {idx} after {prev})")
                prev = idx
                row.append((idx, val))
            rows.append(row)
            labels.append(label)
    if not rows:
        raise InputError("no examples")
    X = np.zeros((len(rows), max((row[-1][0] for row in rows if row), default=0)))
    for i, row in enumerate(rows):
        for idx, val in row:
            X[i, idx - 1] = val
    if normalize:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        np.divide(X, norms, out=X, where=norms > 0)
    return LabeledDataset(X=X, labels=np.asarray(labels, dtype=np.float64))


# ---------------------------------------------------------------------------
# Finite-sum problems
# ---------------------------------------------------------------------------


@dataclass
class Constants:
    L_comp: float  # smoothness bound covering every component f_i
    L_full: float  # smoothness of the averaged objective F
    lam: float     # strong-convexity modulus of F


@dataclass
class FiniteSumProblem:
    """F(w) = (1/n) Σ f_i(w) + (λ/2)‖w‖², components carrying the regularizer.

    loss: "logistic" with f_i(w) = log(1+exp(−y_i⟨w,x_i⟩)), or
          "squared"  with f_i(w) = (y_i − ⟨w,x_i⟩)².
    """

    X: np.ndarray
    y: np.ndarray
    lam_reg: float
    loss: str
    constants: Constants = field(init=False)

    def __post_init__(self):
        if self.X.ndim != 2 or 0 in self.X.shape:
            raise InputError("need at least one example and one feature, "
                             f"got X of shape {self.X.shape}")
        if self.loss not in ("logistic", "squared"):
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if self.lam_reg < 0:
            raise ConfigurationError("regularizer must be nonnegative")
        self.constants = estimate_constants(self)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @functools.cached_property
    def _min_abs_x(self) -> float:
        """min|x_ij|, which anchored_diff's regularizer skip reads; computed
        on first use, like `constants` it assumes X is not changed after."""
        return float(np.min(np.abs(self.X)))

    # -- per-component access (regularizer included) -------------------------

    def component_grad(self, i: int, w: Point) -> Point:
        if self.loss == "logistic":
            m = float(self.y[i] * (self.X[i] @ w))
            coef = -self.y[i] / (1.0 + math.exp(min(m, 700.0)))
            base = coef * self.X[i]
        else:
            base = -2.0 * float(self.y[i] - self.X[i] @ w) * self.X[i]
        return base + self.lam_reg * w

    # -- full objective -------------------------------------------------------

    def full_value(self, w: Point) -> float:
        z = self.X @ w
        if self.loss == "logistic":
            base = float(np.mean(np.logaddexp(0.0, -self.y * z)))
        else:
            base = float(np.mean((self.y - z) ** 2))
        return base + 0.5 * self.lam_reg * float(w @ w)

    def full_grad(self, w: Point) -> Point:
        z = self.X @ w
        if self.loss == "logistic":
            coefs = -self.y / (1.0 + np.exp(np.minimum(self.y * z, 700.0)))
        else:
            coefs = -2.0 * (self.y - z)
        return (self.X.T @ coefs) / self.n + self.lam_reg * w

    def all_component_grads(self, w: Point) -> np.ndarray:
        """n × d matrix of component gradients (regularizer included)."""
        z = self.X @ w
        if self.loss == "logistic":
            coefs = -self.y / (1.0 + np.exp(np.minimum(self.y * z, 700.0)))
        else:
            coefs = -2.0 * (self.y - z)
        grads = coefs[:, None] * self.X
        grads += self.lam_reg * w
        return grads

    def anchored_component_diff(self, i: int, w: Point, center: Point) -> Point:
        """∇f_i(w) − ∇f_i(center), the variance-reduced stochastic part."""
        return self.anchored_diff(center)(i, w)

    def anchored_diff(self, center: Point):
        """anchored_component_diff bound to one anchor, as a bare kernel
        diff(i, w): the loss branch and the regularizer's skip are settled
        once, so an epoch solver binds one per epoch.  center is only read,
        and each call returns a new array."""
        X, y = self.X, self.y
        lam_reg = np.array(self.lam_reg)  # 0-d: see stochastic.mixed_grad
        if self.loss == "squared":
            # With lam_reg zero and u finite, lam_reg·u is a signed zero, which
            # changes c·x_ij only where that product is a zero.  Rounding is
            # monotone, so |c·x_ij| ≥ fl(|c|·min|X|) > 0; and a finite c means
            # a finite u (a non-finite u_j times a nonzero x_ij makes the dot
            # non-finite).  So the term is skipped exactly in that case.
            xmin = self._min_abs_x if self.lam_reg == 0 else 0.0

            def diff(i: int, w: Point) -> Point:
                xi = X[i]
                u = w - center
                # `.dot` is `@` up to the sign of a zero; `+ 0.0` gives `@`'s +0.0
                c = 2.0 * (float(xi.dot(u)) + 0.0)
                if 0.0 < abs(c) * xmin < math.inf:
                    return c * xi
                return c * xi + lam_reg * u
            return diff

        def diff(i: int, w: Point) -> Point:
            xi = X[i]
            yi = float(y[i])
            mw = yi * float(xi.dot(w))
            mc = yi * float(xi.dot(center))
            coef = (-yi / (1.0 + math.exp(min(mw, 700.0)))
                    + yi / (1.0 + math.exp(min(mc, 700.0))))
            return coef * xi + lam_reg * (w - center)
        return diff

    # -- stochastic access ----------------------------------------------------

    def component(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.n))

    def components(self, rng: np.random.Generator, count: int) -> list:
        """`count` uniform component indices: on the Philox generator, the
        same stream as `count` calls of `component`."""
        return rng.integers(self.n, size=count).tolist()

    def stochastic_grad(self, w: Point, rng: np.random.Generator) -> Point:
        return self.component_grad(self.component(rng), w)


def estimate_constants(problem: FiniteSumProblem) -> Constants:
    """Exact (L_comp, L_full, λ) of a finite-sum problem.

    With c = 2 for squared loss and c = 1/4 for logistic (the loss's curvature
    bound in the margin): L_comp = c·max_i‖x_i‖² + λ_reg and
    L_full = c·λ_max(XᵀX/n) + λ_reg.  λ is 2·λ_min(XᵀX/n) + λ_reg for squared
    loss and λ_reg for logistic.
    """
    X, reg = problem.X, problem.lam_reg
    evals = np.linalg.eigvalsh(X.T @ X / problem.n)
    max_row = float(np.max(np.sum(X**2, axis=1)))
    if problem.loss == "squared":
        c = 2.0
        lam = 2.0 * max(float(evals[0]), 0.0) + reg
    else:
        c = 0.25
        lam = reg
    return Constants(L_comp=c * max_row + reg, L_full=c * float(evals[-1]) + reg,
                     lam=lam)


def logistic_problem(data: LabeledDataset, lam: float) -> FiniteSumProblem:
    """Regularized logistic regression over a labeled dataset."""
    if not data.is_classification():
        raise InputError("logistic loss needs labels in {-1, +1}")
    return from_arrays(data.X, data.labels, lam, "logistic")


def least_squares_problem(data: LabeledDataset, lam: float) -> FiniteSumProblem:
    """Squared-loss regression over a labeled dataset."""
    return from_arrays(data.X, data.labels, lam, "squared")


def from_arrays(X: np.ndarray, y: np.ndarray, lam: float, loss: str) -> FiniteSumProblem:
    """Build a finite-sum problem directly from dense arrays."""
    return FiniteSumProblem(X=np.asarray(X, float), y=np.asarray(y, float),
                            lam_reg=float(lam), loss=loss)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def synthetic_classification(n: int, d: int, seed: int, row_norm: float = 1.0) -> LabeledDataset:
    """Gaussian features scaled to a fixed row norm, labels from a planted vector."""
    rng = make_rng(seed)
    X = rng.standard_normal((n, d))
    X *= row_norm / np.linalg.norm(X, axis=1, keepdims=True)
    wstar = rng.standard_normal(d)
    margins = X @ wstar + 0.3 * rng.standard_normal(n)
    y = np.where(margins >= 0, 1.0, -1.0)
    return LabeledDataset(X=X, labels=y)


def synthetic_regression(n: int, d: int, seed: int, noise: float = 0.1,
                         row_norm: float | None = None) -> LabeledDataset:
    rng = make_rng(seed)
    X = rng.standard_normal((n, d))
    if row_norm is not None:
        X *= row_norm / np.linalg.norm(X, axis=1, keepdims=True)
    wstar = rng.standard_normal(d)
    y = X @ wstar + noise * rng.standard_normal(n)
    return LabeledDataset(X=X, labels=y)


@dataclass
class OneDimTargetRisk:
    """Scalar stochastic regression ℓ(w; b) = (w − b)² with a rare high target.

    b = 1 with probability delta², else b = delta.  The expected loss, its
    minimizer, and the optimal risk are all available in closed form, which
    makes this the reference instance for target-risk-driven solvers.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")

    # ℓ is 2-smooth and E[ℓ] 2-strongly convex
    constants: Constants = field(init=False, default_factory=lambda: Constants(2.0, 2.0, 2.0))

    @property
    def d(self) -> int:
        return 1

    def sample_b(self, rng: np.random.Generator) -> float:
        return 1.0 if rng.uniform() < self.delta ** 2 else self.delta

    def stochastic_grad(self, w: Point, rng: np.random.Generator) -> Point:
        b = self.sample_b(rng)
        return np.array([2.0 * (w[0] - b)])

    def full_value(self, w) -> float:
        """The expected loss E[ℓ(w; b)]."""
        w0 = float(np.asarray(w).reshape(-1)[0])
        d2 = self.delta ** 2
        return d2 * (w0 - 1.0) ** 2 + (1.0 - d2) * (w0 - self.delta) ** 2

    @property
    def wstar(self) -> float:
        d2 = self.delta ** 2
        return d2 * 1.0 + (1.0 - d2) * self.delta

    @property
    def eps_opt(self) -> float:
        return self.full_value(np.array([self.wstar]))


def onedim_target_risk_problem(delta: float) -> OneDimTargetRisk:
    return OneDimTargetRisk(delta=delta)


@dataclass
class NoisyQuadratic:
    """f(x) = ½‖x − center‖² with bounded spherical gradient noise.

    f is 1-smooth and 1-strongly convex.  The noise is uniform on the σ-sphere
    so the stochastic gradient has a hard norm bound (needed by the
    strongly-convex single-projection analysis) and zero mean.
    """

    center: np.ndarray
    noise: float = 0.0
    constants: Constants = field(init=False, default_factory=lambda: Constants(1.0, 1.0, 1.0))

    @property
    def d(self) -> int:
        return self.center.shape[0]

    def full_value(self, x: Point) -> float:
        d = x - self.center
        return 0.5 * float(d @ d)

    def full_grad(self, x: Point) -> Point:
        return x - self.center

    def stochastic_grad(self, x: Point, rng: np.random.Generator) -> Point:
        g = self.full_grad(x)
        if self.noise > 0:
            u = rng.standard_normal(self.d)
            g = g + self.noise * u / max(np.linalg.norm(u), 1e-15)
        return g

    def grad_bound(self, radius: float = 1.0) -> float:
        return radius + float(np.linalg.norm(self.center)) + self.noise


# ---------------------------------------------------------------------------
# Smoothed hinge loss and its risk transform
# ---------------------------------------------------------------------------


def smoothed_hinge_value(z, gamma: float):
    """(1/γ)·log(1 + exp(γ(1 − z))); stable for large γ(1−z)."""
    if gamma <= 0:
        raise ConfigurationError("smoothing parameter must be positive")
    u = gamma * (1.0 - np.asarray(z, dtype=np.float64))
    return np.logaddexp(0.0, u) / gamma


def smoothed_hinge_grad(z, gamma: float):
    """dφ/dz = −exp(γ(1−z)) / (1 + exp(γ(1−z))) ∈ [−1, 0]."""
    if gamma <= 0:
        raise ConfigurationError("smoothing parameter must be positive")
    u = gamma * (1.0 - np.asarray(z, dtype=np.float64))
    return -_sigmoid(u)


def _sigmoid(u):
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def psi_transform(eta: float, gamma: float) -> float:
    """Surrogate-to-binary excess-risk transform of the smoothed hinge loss.

    ψ(η) = φ(0) − min_α [(1+η)/2·φ(α) + (1−η)/2·φ(−α)], φ the smoothed hinge.
    Closed form, evaluated in log-space so large γ never overflows; symmetric
    in eta and zero at eta = 0.

    Minorant: with e = |η| and
    c(e) = ½[(1+e)·log((1+e)/(2e)) + (1−e)·log(2e/(1−e))], for all
    e ∈ (0, 1) and γ > 0

        ψ(η) ≥ e − c(e)/γ − (1−e)/(2γ)·log(1 + (1−e)/(2e)·e^{−2γ}).

    Proof: evaluate the minimand at α* = 1 − u/γ, u = log((1−e)/(2e)), and
    use φ(0) ≥ 1 and log(1 + eˣ) = x + log(1 + e⁻ˣ). ψ exceeds the bound by
    φ(0) − 1 = log(1 + e^{−γ})/γ plus a term of order e^{−2γ}.

    Erratum: the thesis states the simplified minorant e − log(1/e)/γ. As
    γ → ∞ it holds only while c(e) ≤ log(1/e), i.e. for e ≤ 0.6545; for
    larger |η| the exact transform dips below it.
    """
    if gamma <= 0:
        raise ConfigurationError("smoothing parameter must be positive")
    if not -1.0 < eta < 1.0:
        raise DomainError("eta must lie in (-1, 1)")
    e = abs(float(eta))
    if e == 0.0:
        return 0.0
    # s = e^{-γ}·sqrt(e²e^{2γ} + 1 − e²); the two closed-form roots are
    # C1 = e^γ(s − e) and C2 = e^γ(s + e), with s − e evaluated via its
    # rationalized form to dodge cancellation.
    s = math.sqrt(e * e + (1.0 - e * e) * math.exp(-2.0 * gamma))
    log1p_exp_gamma = np.logaddexp(0.0, gamma)  # log(1 + e^γ)
    # term 1: log(1 + e^γ C1/(1+e)) with e^γ C1/(1+e) = (1−e)/(s+e)
    t1 = math.log1p((1.0 - e) / (s + e)) - log1p_exp_gamma
    # term 2: log(1 + e^γ C2/(1−e)) with e^γ C2/(1−e) = e^{2γ}(s+e)/(1−e)
    t2 = np.logaddexp(0.0, 2.0 * gamma + math.log((s + e) / (1.0 - e))) - log1p_exp_gamma
    return float(-(1.0 + e) / (2.0 * gamma) * t1 - (1.0 - e) / (2.0 * gamma) * t2)
