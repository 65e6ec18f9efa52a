"""Frozen per-call copies of the epoch solvers' two kernels, as they stood
before the two-ball projector was built once per epoch and before the
anchored difference subtracted its anchor once; and of the online learners'
round updates, as they stood before each learner bound its projection once
and recorded its decisions without a copy, before ExpertOMP and
BanditOMP ran through OMP's round, and before OMP took its first prox step's
result for the second when a round's gradient is the round before's array.

Also the matrix forms of the exact variance probe, as they stood before it
walked the data in row blocks: the n × d component-gradient matrix and the
variances taken from two of them.

Also the two closed-form variation loops, as they stood before they priced
each distinct pair of consecutive rounds once, and the hinge comparator's
grid search, as it stood before its rows were split over processes and
before it skipped the points whose lower bound shows they cannot win: it
prices every point in the disc.

Also the per-round observe loop that ran every learner over its sequence,
as it stood before `play` replayed the rounds that repeat an earlier state
and loss.

The bitwise tests compare against these copies, not against the library, so
that they keep pinning the original floats.  np.linalg.norm stands in for
core._norm, which is bit-identical to it (see test_core.py::TestNorm).
"""

import math

import numpy as np


def project_ball(x, r, center=None):
    y = x if center is None else x - center
    n = np.linalg.norm(y)
    if n <= r:
        return x.copy()
    y = y * (r / n)
    return y if center is None else y + center


def project_two_balls_branch(x, c1, r1, c2, r2):
    """The projection onto ball(c1,r1) ∩ ball(c2,r2) and the branch that gave
    it: "ball1", "p2", "ring" or "axis" (the ring's degenerate axis)."""
    gap = np.linalg.norm(c1 - c2)
    if gap > r1 + r2 + 1e-12:
        raise ValueError("empty ball intersection")
    p1 = project_ball(x, r1, c1)
    if np.linalg.norm(p1 - c2) <= r2 + 1e-12:
        return p1, "ball1"
    p2 = project_ball(x, r2, c2)
    if np.linalg.norm(p2 - c1) <= r1 + 1e-12:
        return p2, "p2"
    n = (c2 - c1) / gap
    h = (gap * gap + r1 * r1 - r2 * r2) / (2.0 * gap)
    q = c1 + h * n
    rho2 = r1 * r1 - h * h
    rho = math.sqrt(max(rho2, 0.0))
    v = x - q
    v_perp = v - np.dot(v, n) * n
    nv = np.linalg.norm(v_perp)
    branch = "ring"
    if nv < 1e-15:
        e = np.zeros_like(x)
        e[int(np.argmin(np.abs(n)))] = 1.0
        v_perp = e - np.dot(e, n) * n
        nv = np.linalg.norm(v_perp)
        branch = "axis"
    return q + rho * (v_perp / nv), branch


def project_two_balls(x, c1, r1, c2, r2):
    return project_two_balls_branch(x, c1, r1, c2, r2)[0]


def anchored_component_diff(prob, i, w, center):
    """∇f_i(w) − ∇f_i(center) of a FiniteSumProblem, by the per-call formula."""
    xi = prob.X[i]
    if prob.loss == "squared":
        return (2.0 * float(xi @ (w - center))) * xi + prob.lam_reg * (w - center)
    mw = float(prob.y[i] * (xi @ w))
    mc = float(prob.y[i] * (xi @ center))
    coef = (-prob.y[i] / (1.0 + math.exp(min(mw, 700.0)))
            + prob.y[i] / (1.0 + math.exp(min(mc, 700.0))))
    return coef * xi + prob.lam_reg * (w - center)


def all_component_grads(prob, w):
    """n × d matrix of a FiniteSumProblem's component gradients (regularizer
    included)."""
    z = prob.X @ w
    if prob.loss == "logistic":
        coefs = -prob.y / (1.0 + np.exp(np.minimum(prob.y * z, 700.0)))
    else:
        coefs = -2.0 * (prob.y - z)
    grads = coefs[:, None] * prob.X
    grads += prob.lam_reg * w
    return grads


def variances(grads_w, grads_c):
    """gradient_variance_probe from the component-gradient matrices at the
    point (grads_w) and at the anchor (grads_c)."""
    mean_w = grads_w.mean(axis=0)
    mean_c = grads_c.mean(axis=0)
    buf = np.square(grads_w)
    sgd_var = float(np.mean(np.sum(buf, axis=1)) - mean_w @ mean_w)
    np.square(np.subtract(grads_w, grads_c, out=buf), out=buf)
    mean_diff = mean_w - mean_c
    mixed_var = float(np.mean(np.sum(buf, axis=1)) - mean_diff @ mean_diff)
    return {"sgd_var": max(sgd_var, 0.0), "mixed_var": max(mixed_var, 0.0)}


def gradient_variance_probe(prob, point, center):
    return variances(all_component_grads(prob, point), all_component_grads(prob, center))


# ---------------------------------------------------------------------------
# Online learners: one function per learner runs its rounds over `losses`
# and returns what the learner records.  Domains are balls or boxes.
# ---------------------------------------------------------------------------


def domain_project(domain, x):
    if domain.kind == "ball":
        return project_ball(x, domain.r)
    if domain.kind == "box":
        return np.clip(x, domain.lo, domain.hi)
    raise ValueError(domain.kind)


def observe_rounds(learner, losses):
    """`learner` observes each of `losses` in turn, computing every round."""
    for loss in losses:
        learner.observe(loss)


def ogd_rounds(domain, eta, dim, losses):
    x = domain_project(domain, np.zeros(dim))
    decisions, values = [], []
    for loss in losses:
        decisions.append(x.copy())
        values.append(float(loss.value(x)))
        g = loss.grad(x)
        x = domain_project(domain, x - eta * g)
    return {"decisions": decisions, "loss_values": values}


def iftrl_rounds(domain, L, eta, dim, losses):
    z = domain_project(domain, np.zeros(dim))
    grad_sum, stale_grad = np.zeros(dim), np.zeros(dim)
    decisions, values = [], []
    for loss in losses:
        x = domain_project(domain, z - (eta / L) * stale_grad)
        decisions.append(x.copy())
        values.append(float(loss.value(x)))
        grad_sum = grad_sum + loss.grad(z)
        z = domain_project(domain, -grad_sum / (L / eta))
        stale_grad = loss.grad(z)
    return {"decisions": decisions, "loss_values": values}


def omp_rounds(domain, L, eta, dim, losses):
    """OMP on the Euclidean map: each prox step is a projected step."""
    z = domain_project(domain, np.zeros(dim))
    prev_grad = np.zeros(dim)
    decisions, values = [], []
    for loss in losses:
        x = domain_project(domain, z - (eta / L) * prev_grad)
        decisions.append(x.copy())
        values.append(float(loss.value(x)))
        g = loss.grad(x)
        z = domain_project(domain, z - (eta / L) * g)
        prev_grad = g
    return {"decisions": decisions, "loss_values": values}


def expert_omp_rounds(m, eta, L, losses):
    """ExpertOMP with its own multiplicative update; losses are linear."""
    def mult_update(w, f):
        logw = np.log(np.maximum(w, 1e-300)) - (eta / L) * f
        logw -= logw.max()
        out = np.exp(logw)
        return out / out.sum()

    z, prev_f = np.full(m, 1.0 / m), np.zeros(m)
    decisions, values = [], []
    for loss in losses:
        f = loss.linear
        x = mult_update(z, prev_f)
        decisions.append(x.copy())
        values.append(float(loss.value(x)))
        z = mult_update(z, f)
        prev_f = f
    return {"decisions": decisions, "loss_values": values}


def bandit_omp_rounds(r, G, delta, eta, dim, losses):
    inner_r = r * (1.0 - delta / r)
    z, prev_g = np.zeros(dim), np.zeros(dim)
    decisions, values, estimates = [], [], []
    for loss in losses:
        x = project_ball(z - (eta / G) * prev_g, inner_r)
        decisions.append(x.copy())
        values.append(float(loss.value(x)))
        f0 = float(loss.value(x))
        g = np.zeros(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = delta
            g[i] = (float(loss.value(x + e)) - f0) / delta
        estimates.append(g)
        z = project_ball(z - (eta / G) * g, inner_r)
        prev_g = g
    return {"decisions": decisions, "loss_values": values, "estimates": estimates}


def _soft_loop(losses, terms, eta, delta, R, dim, m):
    """SoftConstraintOGD's rounds; terms(x, lam) gives the constraint values
    and the dual-weighted constraint subgradient at x."""
    x, lam = np.zeros(dim), np.zeros(m)
    out = {"decisions": [], "loss_values": [], "violations": []}
    for loss in losses:
        vals, cons_grad = terms(x, lam)
        out["decisions"].append(x.copy())
        out["loss_values"].append(float(loss.value(x)))
        out["violations"].append(vals.copy())
        gx = loss.grad(x) + cons_grad
        glam = vals - eta * delta * lam
        x = project_ball(x - eta * gx, R)
        lam = np.maximum(lam + eta * glam, 0.0)
    out["lam"] = lam
    return out


def soft_constraint_rounds(funcs, G, D, T, R, dim, losses):
    """SoftConstraintOGD at its default eta and delta; funcs are (g, grad)."""
    m = len(funcs)
    a = R * math.sqrt((m + 1) * G * G + 2 * m * D * D)

    def terms(x, lam):
        vals = np.array([g(x) for g, _ in funcs])
        grad = np.zeros(x.shape)
        for lam_i, (_, gg) in zip(lam, funcs):
            if lam_i != 0.0:
                grad = grad + lam_i * gg(x)
        return vals, grad

    return _soft_loop(losses, terms, R * R / (a * math.sqrt(T)), 2.0 * (m + 1) * G * G,
                      R, dim, m)


def zero_violation_rounds(funcs, tuning, T, R, dim, losses):
    """ZeroViolationOGD; `tuning` is zero_violation_tuning's dict."""
    raw_violations = []

    def terms(x, lam):
        vals = [float(g(x)) for g, _ in funcs]
        g_max = max(vals)
        i = vals.index(g_max)
        raw_violations.append(g_max)
        grad = np.zeros(x.shape)
        if lam[0] != 0.0:
            grad = grad + lam[0] * funcs[i][1](x)
        return np.array([g_max + tuning["gamma"]]), grad

    out = _soft_loop(losses, terms, R * R / (tuning["a"] * math.sqrt(T)), tuning["delta"],
                     R, dim, 1)
    out["raw_violations"] = raw_violations
    return out


def penalty_rounds(funcs, eta, delta, R, dim, losses):
    x = np.zeros(dim)
    decisions, values, violations = [], [], []
    for loss in losses:
        decisions.append(x.copy())
        values.append(float(loss.value(x)))
        vals = np.array([g(x) for g, _ in funcs])
        violations.append(vals.copy())
        g = loss.grad(x)
        for v, (_, gg) in zip(vals, funcs):
            if v > 0:
                g = g + delta * gg(x)
        x = project_ball(x - eta * g, R)
    return {"decisions": decisions, "loss_values": values, "violations": violations}


def measure_egv_exact_linear(sequence):
    """adversary.measure_egv_exact on an all-linear sequence."""
    total, prev = 0.0, np.zeros_like(sequence[0].linear)
    for l in sequence:
        f = l.linear
        d = f - prev
        total += float(d.dot(d))
        prev = f
    return total


def measure_egv_inf(sequence):
    total = 0.0
    prev = None
    for l in sequence:
        f = l.linear
        p = np.zeros_like(f) if prev is None else prev
        total += float(abs(f - p).max() ** 2)
        prev = f
    return total


def best_hinge(examples, R):
    """cli._best_hinge, serial: the coarse grid's first least point, then the
    least value of the fine grid around it."""

    def total(w):
        return float(np.sum(np.maximum(0.0, 1.0 - examples @ w)))

    best_w, best_v = np.zeros(2), total(np.zeros(2))
    res = 0.05 * R
    grid = np.arange(-R, R + res / 2, res)
    for a in grid:
        for b in grid:
            w = np.array([a, b])
            if w @ w <= R * R:
                v = total(w)
                if v < best_v:
                    best_w, best_v = w, v
    res = 0.002 * R
    grid = np.arange(-0.06 * R, 0.06 * R + res / 2, res)
    for a in grid:
        for b in grid:
            w = best_w + np.array([a, b])
            if w @ w <= R * R:
                v = total(w)
                best_v = min(best_v, v)
    return best_v
