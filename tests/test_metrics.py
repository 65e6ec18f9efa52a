"""Comparator minima, final regret, slopes and the reference-optimum solver."""

import math
import tracemalloc

import numpy as np
import pytest

from smoothconvex.core import Domain, NumericError, make_rng
from smoothconvex.metrics import (CERTIFICATE_TOL, comparator_minimum, final_regret,
                                  loglog_slope, reference_optimum)
from smoothconvex.online import RoundLoss
from smoothconvex.problems import (from_arrays, least_squares_problem,
                                   synthetic_regression)
from smoothconvex.stochastic import agd


def linear(v):
    return RoundLoss.from_linear(np.asarray(v, dtype=float))


class TestRegret:
    def test_single_linear_loss_on_ball(self):
        seq = [linear([0.6, 0.8])]
        _, best = comparator_minimum(seq, Domain.ball(1.0))
        assert best == pytest.approx(-1.0)

    def test_quadratic_comparator_closed_form_vs_grid(self):
        rng = make_rng(0)
        centers = [rng.uniform(-1, 1, size=2) for _ in range(7)]
        seq = [RoundLoss.from_quadratic(c) for c in centers]
        dom = Domain.ball(0.6)
        x_cf, v_cf = comparator_minimum(seq, dom)
        # grid cross-check: the points of a 601×601 grid that pass contains's
        # rule ‖x‖² − r² ≤ 1e-10, each valued by Σ ½‖x − c‖²
        xs = np.linspace(-0.6, 0.6, 601)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        grid = grid[np.sum(grid * grid, axis=1) - dom.r * dom.r <= 1e-10]
        best = float(sum(0.5 * np.sum((grid - c) ** 2, axis=1) for c in centers).min())
        assert v_cf <= best + 1e-9
        assert abs(v_cf - best) < 1e-4

    def test_linear_comparator_attains_the_best_vertex(self):
        # a linear loss attains its minimum over a polytope at a vertex
        rng = make_rng(2)
        vecs = [rng.uniform(-1, 1, size=3) for _ in range(5)]
        seq = [linear(v) for v in vecs]
        dom = Domain.simplex(3)
        x, best = comparator_minimum(seq, dom)
        assert dom.contains(x)
        assert best == pytest.approx(np.min(np.eye(3) @ np.sum(vecs, axis=0)))

    def test_final_matches_definition(self):
        rng = make_rng(1)
        vecs = [rng.uniform(-1, 1, size=2) for _ in range(9)]
        seq = [linear(v) for v in vecs]
        decisions = [rng.uniform(-0.5, 0.5, size=2) for _ in range(9)]
        dom = Domain.ball(1.0)
        total = np.sum(vecs, axis=0)
        best = -np.linalg.norm(total)
        learner = sum(float(v @ x) for v, x in zip(vecs, decisions))
        assert final_regret(decisions, seq, dom) == pytest.approx(learner - best)


class TestReferenceOptimum:
    def test_identity_quadratic(self):
        prob = from_arrays(np.eye(3), np.zeros(3), 0.0, "squared")
        ref = reference_optimum(prob, Domain.ball(1.0), steps=2000)
        assert np.linalg.norm(ref["w"]) < 1e-9
        assert ref["certificate"] <= 1e-9

    def test_least_squares_matches_normal_equations(self):
        data = synthetic_regression(40, 5, seed=3, noise=0.2)
        prob = least_squares_problem(data, lam=0.0)
        wls = np.linalg.lstsq(prob.X, prob.y, rcond=None)[0]
        dom = Domain.ball(2.0 * float(np.linalg.norm(wls)))
        ref = reference_optimum(prob, dom)
        assert np.linalg.norm(ref["w"] - wls) <= 1e-6 * max(1.0, np.linalg.norm(wls))
        assert ref["certificate"] <= 1e-9

    def test_easy_problem_certifies_at_short_budget(self):
        data = synthetic_regression(200, 10, seed=11, noise=0.3, row_norm=1.0)
        prob = least_squares_problem(data, lam=0.0)
        wls = np.linalg.lstsq(prob.X, prob.y, rcond=None)[0]
        dom = Domain.ball(2.0 * float(np.linalg.norm(wls)))
        ref = reference_optimum(prob, dom)
        assert ref["certificate"] <= CERTIFICATE_TOL
        short = agd(prob, dom, T=1000)
        assert np.array_equal(ref["w"], short.final_point)

    def test_uncertified_problem_gets_full_budget_answer(self):
        # condition number 1e6: AGD is far from certified after 1000 steps
        prob = from_arrays(np.diag([1.0, 1e-2, 1e-3]), np.ones(3), 0.0, "squared")
        dom = Domain.ball(2000.0)
        steps = 3000
        ref = reference_optimum(prob, dom, steps=steps)
        full = agd(prob, dom, T=steps)
        assert ref["certificate"] > CERTIFICATE_TOL
        assert np.array_equal(ref["w"], full.final_point)
        assert ref["F"] == prob.full_value(full.final_point)

    def test_onedim_target_risk_matches_analytic(self):
        # least squares built on the two-point mixture reproduces the closed form
        from smoothconvex.problems import onedim_target_risk_problem
        prob = onedim_target_risk_problem(0.1)
        # expected loss is an explicit quadratic: solve by its calculus minimum
        grid = np.linspace(0, 1, 2_000_001)
        vals = prob.delta**2 * (grid - 1) ** 2 + (1 - prob.delta**2) * (grid - prob.delta) ** 2
        assert abs(grid[np.argmin(vals)] - prob.wstar) <= 1e-6


class TestSlope:
    def test_exact_powers(self):
        xs = np.array([1e2, 1e3, 1e4])
        assert loglog_slope(xs, 5.0 / xs) == pytest.approx(-1.0)
        assert loglog_slope(xs, 2.0 / np.sqrt(xs)) == pytest.approx(-0.5)

    def test_noisy_slope_recovery(self):
        rng = make_rng(4)
        xs = np.logspace(2, 5, 12)
        ys = 3.0 * xs ** (-0.7) * np.exp(rng.normal(0, 0.05, size=12))
        assert abs(loglog_slope(xs, ys) + 0.7) <= 0.05

    @pytest.mark.parametrize("xs, ys", [([10.0], [3.0]), ([5.0, 5.0], [1.0, 2.0])],
                             ids=["one-point", "one-x"])
    def test_one_distinct_x_has_no_slope(self, xs, ys):
        # a line through one x has any slope: NaN, the summary's "no slope"
        assert math.isnan(loglog_slope(xs, ys))

    @pytest.mark.parametrize("xs, ys", [([1.0, 2.0], [1.0, 0.0]), ([0.0, 2.0], [1.0, 2.0]),
                                        ([1.0, 2.0], [-1.0, 2.0]), ([1.0, 2.0], [np.nan, 1.0])])
    def test_nonpositive_values_refused(self, xs, ys):
        # log 0 and log of a negative are no slope: refused, with no numpy warning
        with pytest.raises(NumericError, match="positive"):
            loglog_slope(xs, ys)


class TestComparatorLimits:
    def test_quadratic_rounds_peak_under_1_mb(self):
        """10,000 quadratic rounds, as soft_constraints builds: the centers
        are one (10,000, 2) array, with no view object per round as np.stack
        made (a 1.9 MB transient); (x, val) is np.stack's form bit for bit."""
        losses = RoundLoss.quadratic_rounds(make_rng(12).uniform(-1, 1, size=(10_000, 2)))
        dom = Domain.ball(0.7)
        comparator_minimum(losses[:10], dom)  # warm-up
        tracemalloc.start()
        try:
            x, val = comparator_minimum(losses, dom)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak / 1e6:.2f} MB"
        centers = np.stack([l.quad_center for l in losses])
        want = dom.project(centers.mean(axis=0))
        assert x.tobytes() == want.tobytes()
        assert val.hex() == (0.5 * float(np.sum((want[None, :] - centers) ** 2))).hex()

    def test_mixed_linear_and_quadratic_rejected(self):
        # neither closed form applies to a sequence that mixes the two kinds
        from smoothconvex.core import UnsupportedDomainError
        seq = [RoundLoss.from_linear(np.array([1.0, 0.0])),
               RoundLoss.from_quadratic(np.array([0.0, 0.5]))]
        with pytest.raises(UnsupportedDomainError, match="all-linear or all-quadratic"):
            comparator_minimum(seq, Domain.ball(1.0))

    def test_linear_without_linear_minimizer_rejected(self):
        # linear losses need the domain's linear-minimization routine, which
        # only a ball and a simplex have
        from smoothconvex.core import UnsupportedDomainError
        seq = [RoundLoss.from_linear(np.array([1.0, -1.0]))] * 2
        for dom in (Domain.halfspace_cut(np.array([1.0, 1.0]), 0.5),
                    Domain.box(-np.ones(2), np.ones(2)), Domain.l1_ball(1.5, dim=2)):
            with pytest.raises(UnsupportedDomainError, match=dom.kind):
                comparator_minimum(seq, dom)
