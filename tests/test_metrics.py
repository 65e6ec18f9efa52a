"""Regret/violation/slope metrics and the reference-optimum solver."""

import math

import numpy as np
import pytest

from smoothconvex.core import Domain, make_rng
from smoothconvex.adversary import LossSequence
from smoothconvex.metrics import (CERTIFICATE_TOL, comparator_minimum, final_regret,
                                  loglog_slope, reference_optimum, regret, violation)
from smoothconvex.online import ConstraintSet, RoundLoss
from smoothconvex.problems import (from_arrays, least_squares_problem,
                                   synthetic_regression)
from smoothconvex.stochastic import SolverConfig, agd


def linear(v):
    return RoundLoss.from_linear(np.asarray(v, dtype=float))


class TestRegret:
    def test_zero_losses(self):
        seq = LossSequence(T=3, kind="z", _losses=[linear(np.zeros(2))] * 3)
        out = regret([np.zeros(2)] * 3, seq, Domain.ball(1.0))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_single_linear_loss_on_ball(self):
        seq = LossSequence(T=1, kind="l", _losses=[linear([0.6, 0.8])])
        _, best = comparator_minimum(seq, Domain.ball(1.0))
        assert best == pytest.approx(-1.0)

    def test_quadratic_comparator_closed_form_vs_grid(self):
        rng = make_rng(0)
        centers = [rng.uniform(-1, 1, size=2) for _ in range(7)]
        seq = LossSequence(T=7, kind="q",
                           _losses=[RoundLoss.from_quadratic(c) for c in centers])
        dom = Domain.ball(0.6)
        x_cf, v_cf = comparator_minimum(seq, dom)
        # grid cross-check
        xs = np.linspace(-0.6, 0.6, 601)
        best = math.inf
        for a in xs:
            for b in xs:
                x = np.array([a, b])
                if dom.contains(x):
                    val = sum(l.value(x) for l in seq)
                    best = min(best, val)
        assert v_cf <= best + 1e-9
        assert abs(v_cf - best) < 1e-4

    def test_monotone_when_losses_dominate_prefix_minimum(self):
        # nonnegative losses with comparator value 0: cumulative regret grows
        seq = LossSequence(T=5, kind="q",
                           _losses=[RoundLoss.from_quadratic(np.zeros(2))] * 5)
        decisions = [np.array([0.5, 0.0])] * 5
        out = regret(decisions, seq, Domain.ball(1.0))
        assert np.all(np.diff(out) >= -1e-12)

    def test_final_matches_definition(self):
        rng = make_rng(1)
        vecs = [rng.uniform(-1, 1, size=2) for _ in range(9)]
        seq = LossSequence(T=9, kind="lin", _losses=[linear(v) for v in vecs])
        decisions = [rng.uniform(-0.5, 0.5, size=2) for _ in range(9)]
        dom = Domain.ball(1.0)
        total = np.sum(vecs, axis=0)
        best = -np.linalg.norm(total)
        learner = sum(float(v @ x) for v, x in zip(vecs, decisions))
        assert final_regret(decisions, seq, dom) == pytest.approx(learner - best)
        assert regret(decisions, seq, dom)[-1] == pytest.approx(learner - best)


class TestViolation:
    def cons(self):
        return ConstraintSet(funcs=[(lambda x: float(x @ x) - 0.25,
                                     lambda x: 2 * x)], D=1.0, G=1.0, F=1.0)

    def test_feasible_decisions_nonpositive(self):
        out = violation([np.zeros(2)] * 4, self.cons())
        assert np.all(out <= 0)

    def test_single_infeasible_round_adds_exactly(self):
        decisions = [np.zeros(2), np.array([1.0, 0.0]), np.zeros(2)]
        out = violation(decisions, self.cons())
        np.testing.assert_allclose(out[:, 0], [-0.25, 0.5, 0.25])

    def test_matches_bruteforce_reevaluation(self):
        rng = make_rng(2)
        decisions = [rng.uniform(-1, 1, size=2) for _ in range(20)]
        out = violation(decisions, self.cons())
        brute = np.cumsum([float(x @ x) - 0.25 for x in decisions])
        np.testing.assert_allclose(out[:, 0], brute, atol=1e-12)


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
        short = agd(prob, dom, SolverConfig(seed=0, T=1000, snapshot_every=1000))
        assert np.array_equal(ref["w"], short.final_point)

    def test_uncertified_problem_gets_full_budget_answer(self):
        # condition number 1e6: AGD is far from certified after 1000 steps
        prob = from_arrays(np.diag([1.0, 1e-2, 1e-3]), np.ones(3), 0.0, "squared")
        dom = Domain.ball(2000.0)
        steps = 3000
        ref = reference_optimum(prob, dom, steps=steps)
        full = agd(prob, dom, SolverConfig(seed=0, T=steps, snapshot_every=steps))
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


class TestComparatorLimits:
    def test_high_dimensional_unstructured_rejected(self):
        from smoothconvex.core import UnsupportedDomainError
        losses = [RoundLoss(value=lambda x: float(np.sum(np.cos(x))),
                            grad=lambda x: -np.sin(x)) for _ in range(3)]
        seq = LossSequence(T=3, kind="odd", _losses=losses)
        with pytest.raises(UnsupportedDomainError):
            comparator_minimum(seq, Domain.ball(1.0), dim=4)

    def test_low_dimensional_unstructured_uses_grid(self):
        # 1-D smooth non-quadratic loss: grid comparator vs calculus minimum
        losses = [RoundLoss(value=lambda x: float(np.cosh(x[0] - 0.3)),
                            grad=lambda x: np.sinh(x - 0.3))]
        seq = LossSequence(T=1, kind="odd", _losses=losses)
        x, v = comparator_minimum(seq, Domain.ball(1.0), dim=1)
        assert abs(x[0] - 0.3) < 1e-3
        assert abs(v - 1.0) < 1e-6
