"""Frozen per-call copies of the epoch solvers' two kernels, as they stood
before the two-ball projector was built once per epoch and before the
anchored difference subtracted its anchor once.

The solvers' bitwise tests compare against these copies, not against the
library, so that they keep pinning the original floats.  np.linalg.norm
stands in for core._norm, which is bit-identical to it (see
test_core.py::TestNorm).
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
