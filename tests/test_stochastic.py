"""Solver behavior: hand recursions, oracle accounting, rates, determinism."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothconvex.core import (ConfigurationError, Domain, DomainError,
                               UnsupportedDomainError, clip_component, make_rng)
from smoothconvex.metrics import loglog_slope, reference_optimum
from smoothconvex.problems import (NoisyQuadratic, from_arrays,
                                   onedim_target_risk_problem, row_blocks,
                                   synthetic_classification, synthetic_regression,
                                   least_squares_problem, logistic_problem)
from smoothconvex.stochastic import (_DELTA, _DRAW_BLOCK, Trace,
                                     _component_draws, agd, clipped_sgd, emgd, gd,
                                     gradient_variance_probe, mixed_grad, sgd,
                                     sgd_pd, sgd_st)

import frozen_kernels
from test_acceptance import run_experiment


def traces_equal(a: Trace, b: Trace) -> bool:
    if (a.calls_full, a.calls_stochastic, a.projections) != (
            b.calls_full, b.calls_stochastic, b.projections):
        return False
    if not np.array_equal(a.final_point, b.final_point):
        return False
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
        if set(ra) != set(rb):
            return False
        for k in ra:
            va, vb = ra[k], rb[k]
            if isinstance(va, np.ndarray):
                if not np.array_equal(va, vb):
                    return False
            elif va != vb:
                return False
    return True


class TestSgd:
    def test_hand_recursion_zero_variance(self):
        # F(w) = w^2 from w = 1, as F(u) = (u + 1)^2 from the origin: u = w - 1
        prob = from_arrays([[1.0]], [-1.0], 0.0, "squared")
        tr = sgd(prob, Domain.ball(10.0), seed=1, T=2, eta=0.25, keep_iterates=True)
        us = [r["w"][0] for r in tr.records if "w" in r]
        assert us == [0.0, -0.5, -0.5 - 0.25 / math.sqrt(2.0)]

    def test_final_average_feasible(self):
        data = synthetic_regression(30, 3, seed=0)
        prob = least_squares_problem(data, lam=0.0)
        dom = Domain.ball(0.5)
        tr = sgd(prob, dom, seed=2, T=500, eta=0.2)
        assert dom.contains(tr.final_point, tol=1e-10)
        assert tr.calls_stochastic == 500

    def test_noisy_least_squares_slope_half(self):
        # underdetermined design (no strong convexity) with label noise large
        # enough that the stochastic term dominates the smooth transient
        rng = make_rng(21)
        X = rng.standard_normal((20, 40))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = X @ rng.standard_normal(40) * 0.3 + 3.0 * rng.standard_normal(20)
        prob = from_arrays(X, y, 0.0, "squared")
        dom = Domain.ball(1.0)
        ref = reference_optimum(prob, dom)
        Ts = [100, 1000, 10_000, 100_000]
        subs = []
        for T in Ts:
            tr = sgd(prob, dom, seed=6, T=T, eta=0.2)
            subs.append(prob.full_value(tr.final_point) - ref["F"])
        slope = loglog_slope(Ts, subs)
        assert -0.65 <= slope <= -0.35

    def test_seed_determinism(self):
        data = synthetic_regression(20, 3, seed=7)
        prob = least_squares_problem(data, lam=0.01)
        dom = Domain.ball(1.0)
        cfg = dict(seed=11, T=300, eta=0.1, keep_iterates=True)
        assert traces_equal(sgd(prob, dom, **cfg), sgd(prob, dom, **cfg))


class TestFullGradientBaselines:
    def test_agd_contracts_on_identity_quadratic(self):
        # from w0 toward 0, as from the origin toward -w0 (y = -X·w0)
        d = 5
        w0 = np.ones(d) / math.sqrt(d)
        prob = from_arrays(np.eye(d), -w0, 0.0, "squared")
        tr = agd(prob, Domain.ball(10.0), T=200)
        assert np.linalg.norm(tr.final_point + w0) <= 1e-8

    def test_agd_beats_gd_on_ill_conditioned(self):
        rng = make_rng(8)
        d = 20
        evals = np.concatenate([[1e-3], rng.uniform(0.5, 1.0, d - 2), [1.0]])
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        X = Q @ np.diag(np.sqrt(evals)) @ Q.T  # X^T X has condition 1e3
        w0 = rng.standard_normal(d)
        w0 /= np.linalg.norm(w0)
        # F(w) = ‖Xw‖²/d from w0, as F(u) = ‖X(u + w0)‖²/d from the origin
        prob = from_arrays(X, -X @ w0, 0.0, "squared")
        dom = Domain.ball(10.0)
        sub_gd = gd(prob, dom, T=300).final_point
        sub_ag = agd(prob, dom, T=300).final_point
        f_gd, f_ag = prob.full_value(sub_gd), prob.full_value(sub_ag)
        assert f_gd >= 10.0 * f_ag

    def test_gd_smooth_rate_bound(self):
        data = synthetic_regression(30, 4, seed=9)
        prob = least_squares_problem(data, lam=0.0)
        dom = Domain.ball(5.0)
        ref = reference_optimum(prob, dom)
        w0 = np.zeros(4)
        for T in (50, 200):
            tr = gd(prob, dom, T=T)
            bound = 2.0 * prob.constants.L_full * np.linalg.norm(w0 - ref["w"]) ** 2 / T
            assert prob.full_value(tr.final_point) - ref["F"] <= bound + 1e-12

    @pytest.mark.parametrize("domain", [Domain.ball(0.5), Domain.box(np.full(3, 0.2),
                                                                      np.full(3, 0.6))],
                             ids=["ball", "box"])
    @pytest.mark.parametrize("solver", [gd, agd], ids=lambda s: s.__name__)
    def test_steps_with_the_objectives_smoothness(self, solver, domain):
        # from the projected origin, which the box does not hold, at the
        # objective's L_full: set to 3x its own, so only a read of
        # constants.L_full can match the hand recursion
        prob = least_squares_problem(synthetic_regression(20, 3, seed=5), lam=0.1)
        prob.constants = prob.constants._replace(L_full=3.0 * prob.constants.L_full)
        L, project = prob.constants.L_full, domain.projector()
        h = f = domain.project(np.zeros(3))
        for s in range(25):
            if solver is gd:
                f = project(f - 1.0 / L * prob.full_grad(f))
                continue
            theta = 1.0 if s == 0 else 2.0 / (s + 2.0)
            grad = prob.full_grad((1.0 - theta) * h + theta * f)
            f = project(f - grad / (theta * L))
            h = (1.0 - theta) * h + theta * f
        want = f if solver is gd else h
        assert np.array_equal(solver(prob, domain, T=25).final_point, want)

    def test_cgd_simplex_vertex_step(self):
        assert np.array_equal(Domain.simplex(3).linear_minimizer(np.array([3.0, 1.0, 2.0])),
                              [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("solver", [gd, agd])
    def test_one_projection_counted_per_step(self, solver):
        prob = from_arrays(np.eye(3), np.ones(3), 0.0, "squared")
        tr = solver(prob, Domain.ball(0.5), T=37)
        assert tr.projections == 37


class TestClippedSgd:
    def test_radius_recursion_value(self):
        prob = onedim_target_risk_problem(0.05)
        tr = clipped_sgd(prob, Domain.ball(1.0), seed=3, m=1, T1=20, target_risk=0.01,
                         epsilon=0.5, tau=0.1)
        assert abs(tr.records[0]["delta"] - math.sqrt(0.501)) < 1e-12
        assert tr.calls_stochastic == 1 * 20  # stages x fixed stage length

    def test_clip_level_formula(self):
        prob = onedim_target_risk_problem(0.05)
        # first stage: Delta_1 = R of the ball; xi = 4·beta/(alpha·tau)
        beta, alpha = prob.constants.L_comp, prob.constants.lam
        tr = clipped_sgd(prob, Domain.ball(0.5), seed=3, m=1, T1=5, target_risk=0.01,
                         epsilon=0.5, tau=0.1)
        xi = 4.0 * beta / (alpha * 0.1)
        assert abs(tr.records[0]["gamma_k"] - 2.0 * xi * beta * 0.5) < 1e-12

    def test_requires_positive_target(self):
        prob = onedim_target_risk_problem(0.05)
        with pytest.raises(TypeError, match="target_risk"):
            clipped_sgd(prob, Domain.ball(1.0), seed=0, m=2, T1=5)
        with pytest.raises(ConfigurationError, match="positive target risk"):
            clipped_sgd(prob, Domain.ball(1.0), seed=0, m=2, T1=5, target_risk=None)

    def test_reaches_target_risk_neighborhood(self):
        # clippedsgd_target's final_metric is the risk over (1 + tau/(1 − eps))·target
        good = sum(run_experiment("clippedsgd_target", seed, delta=0.05, target_factor=2.0,
                                  stages=10, T1=4000, epsilon=0.5, tau=0.1).final_metric
                   <= 1.10 for seed in range(10))
        assert good >= 9


class TestMixedGrad:
    def test_oracle_accounting_geometric(self):
        prob = from_arrays(make_rng(0).standard_normal((20, 4)), np.zeros(20),
                           0.0, "squared")
        tr = mixed_grad(prob, Domain.ball(1.0), seed=0, T1=3, m=4)
        assert tr.calls_stochastic == 3 * (4 ** 4 - 1) // 3 == 255
        assert tr.calls_full == 4

    def test_first_inner_step_uses_anchor_gradient_exactly(self):
        # at w = 0 the anchored stochastic difference vanishes
        prob = from_arrays(make_rng(1).standard_normal((10, 3)),
                           make_rng(2).standard_normal(10), 0.0, "squared")
        for i in range(10):
            z = prob.anchored_component_diff(i, np.zeros(3), np.zeros(3))
            assert np.array_equal(z, np.zeros(3))

    @pytest.mark.parametrize("solver", [mixed_grad, emgd, clipped_sgd],
                             ids=lambda s: s.__name__)
    def test_rejects_non_ball_domain(self, solver):
        # mixed_grad projecting onto the box's outer ball instead returned
        # max|w| = 0.0656; each epoch solver refuses the box before it reads
        # the problem, so a problem of None is never touched
        box = Domain.box(-0.05 * np.ones(5), 0.05 * np.ones(5))
        extra = {"target_risk": 0.05} if solver is clipped_sgd else {}   # required there
        with pytest.raises(ConfigurationError, match=f"{solver.__name__} needs a ball"):
            solver(None, box, seed=0, T1=20, m=3, **extra)

    def test_determinism(self):
        data = synthetic_regression(25, 3, seed=12)
        prob = least_squares_problem(data, lam=0.0)
        a = mixed_grad(prob, Domain.ball(2.0), seed=5, T1=5, m=3)
        b = mixed_grad(prob, Domain.ball(2.0), seed=5, T1=5, m=3)
        assert traces_equal(a, b)


class TestEmgd:
    def test_radius_halving_in_square(self):
        data = synthetic_regression(20, 3, seed=13)
        prob = least_squares_problem(data, lam=0.5)
        tr = emgd(prob, Domain.ball(2.0), seed=0, T1=10, m=6, Delta1=1.0)
        deltas = tr.column("delta")
        np.testing.assert_allclose(deltas, [2.0 ** (-k / 2) for k in range(6)],
                                   atol=1e-12)
        assert abs(deltas[-1] * (1 / math.sqrt(2.0)) - 1.0 / 8.0) < 1e-12

    def test_rejects_zero_strong_convexity(self):
        prob = from_arrays(np.eye(3), np.zeros(3), 0.0, "squared")
        prob.constants = prob.constants._replace(lam=0.0)  # Constants is immutable
        with pytest.raises(ConfigurationError):
            emgd(prob, Domain.ball(1.0), seed=0, T1=5, m=2)

    def test_budget_accounting(self):
        data = synthetic_regression(20, 3, seed=14)
        prob = least_squares_problem(data, lam=0.2)
        tr = emgd(prob, Domain.ball(2.0), seed=0, T1=50, m=4)
        assert tr.calls_full == 4
        assert tr.calls_stochastic == 4 * 50

    def test_mixed_variance_collapse_invariant(self):
        data = synthetic_classification(200, 8, seed=15, row_norm=1.0)
        prob = logistic_problem(data, lam=1e-2)
        tr = emgd(prob, Domain.ball(2.0), seed=1, T1=4000, m=10, probe_variance=True,
                  Delta1=2.0)
        vm = tr.column("variance_mixed")
        vs = tr.column("variance_sgd")
        assert np.all(np.diff(vm) <= 1e-15)
        assert vm[9] <= 1e-3 * vm[0]
        assert vs.max() / vs.min() < 10.0


def per_call_mixed_grad(prob, R, seed, T1, m, lam, eta, Delta, gamma=2.0):
    """mixed_grad's epochs with one generator call, negation and zero vector
    per step, on the frozen per-call kernels: the loop the solver must keep
    reproducing bit for bit."""
    rng = make_rng(seed)
    center = np.zeros(prob.d)
    Tk = T1
    for _ in range(m):
        g_anchor = lam * center + prob.full_grad(center)
        w = np.zeros_like(center)
        ssum = np.zeros_like(center)
        for _ in range(Tk):
            ssum += w
            i = prob.component(rng)
            ghat = g_anchor + frozen_kernels.anchored_component_diff(
                prob, i, w + center, center)
            w = frozen_kernels.project_two_balls(w - eta * (ghat + lam * w),
                                                 -center, R, np.zeros_like(w), Delta)
        ssum += w
        center = center + ssum / (Tk + 1)
        Delta, lam, eta = Delta / gamma, lam / gamma, eta / gamma
        Tk = int(round(Tk * gamma * gamma))
    return center


def per_call_emgd(prob, R, seed, T, m, eta, Delta):
    """emgd's epochs on a ball with one generator call per step, on the frozen
    per-call kernels."""
    rng = make_rng(seed)
    center = np.zeros(prob.d)
    for _ in range(m):
        g_full = prob.full_grad(center)
        w = center.copy()
        ssum = np.zeros_like(w)
        for _ in range(T):
            ssum += w
            i = prob.component(rng)
            gtilde = g_full + frozen_kernels.anchored_component_diff(prob, i, w, center)
            w = frozen_kernels.project_two_balls(w - eta * gtilde, np.zeros_like(w), R,
                                                 center, Delta)
        ssum += w
        center = ssum / (T + 1)
        Delta /= math.sqrt(2.0)
    return center


def prescribed_clip(prob, tau, T1):
    """clipped_sgd's clip-level factor xi and step eta from prob's constants."""
    beta, alpha = prob.constants.L_comp, prob.constants.lam
    xi = 4.0 * beta / (alpha * tau)
    return xi, 1.0 / (2.0 * xi * beta * math.sqrt(T1))


def per_call_clipped_sgd(prob, R, seed, m, T1, eta, xi, L, target_risk, epsilon, tau):
    """clipped_sgd's stages on a ball, on the frozen per-call projection."""
    rng = make_rng(seed)
    center, Delta = np.zeros(prob.d), R
    for _ in range(m):
        gamma_k = 2.0 * xi * L * Delta
        w = center.copy()
        ssum = np.zeros_like(w)
        for _ in range(T1):
            ssum += w
            v = clip_component(gamma_k, prob.stochastic_grad(w, rng))
            w = frozen_kernels.project_two_balls(w - eta * v, np.zeros_like(w), R,
                                                 center, Delta)
        center = ssum / T1
        Delta = math.sqrt(epsilon * Delta**2 + tau * target_risk)
    return center


class TestEpochLoops:
    """Invariants the epoch solvers' batched sampling and per-epoch counting keep."""

    @pytest.mark.parametrize("n", [7, 200, 5000])
    def test_block_draws_equal_per_call_draws(self, n):
        prob = from_arrays(np.ones((n, 1)), np.zeros(n), 0.0, "squared")
        for count in (1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 3):
            blocked, per_call = make_rng(count), make_rng(count)
            got = list(_component_draws(prob, blocked, count))
            assert got == [prob.component(per_call) for _ in range(count)]
            assert all(type(i) is int for i in got)
            # the generators are left in the same state
            assert blocked.integers(1 << 62) == per_call.integers(1 << 62)

    # (R, step factor) pairs: the first makes the domain ball and the
    # two-ball ring bind, the second each ball alone and the ring
    @pytest.mark.parametrize("R,step", [(1.0, 0.25), (2.0, 2.0)])
    def test_mixed_grad_matches_per_call_loop(self, R, step):
        data = synthetic_regression(40, 5, seed=17, noise=0.3, row_norm=1.0)
        prob = least_squares_problem(data, lam=0.0)
        lam, eta = prob.constants.L_full, step / prob.constants.L_comp
        # epochs of 300, 1200, 4800 steps cross the draw-block boundary; the
        # first epoch's radius is the domain's
        tr = mixed_grad(prob, Domain.ball(R), seed=4, T1=300, m=3, lambda1=lam, eta=eta)
        want = per_call_mixed_grad(prob, R, seed=4, T1=300, m=3, lam=lam, eta=eta, Delta=R)
        assert np.array_equal(tr.final_point, want)

    @pytest.mark.parametrize("R,Delta1", [(2.0, 2.0), (0.3, 0.2)])
    def test_emgd_matches_per_call_loop(self, R, Delta1):
        data = synthetic_classification(60, 4, seed=18, row_norm=1.0)
        prob = logistic_problem(data, lam=1e-2)
        L = prob.constants.L_comp
        T = 1500
        tr = emgd(prob, Domain.ball(R), seed=6, T1=T, m=3, Delta1=Delta1)
        want = per_call_emgd(prob, R, seed=6, T=T, m=3, eta=1.0 / (L * math.sqrt(T)),
                             Delta=Delta1)
        assert np.array_equal(tr.final_point, want)

    def test_shorter_mixed_grad_runs_are_epoch_prefixes(self):
        # mixedgrad_rate reads its runs at m < m_max off one run at m_max
        data = synthetic_regression(30, 4, seed=16, noise=0.3, row_norm=1.0)
        prob = least_squares_problem(data, lam=0.0)
        dom = Domain.ball(3.0)
        centers = []
        full_grad = prob.full_grad
        prob.full_grad = lambda w: centers.append(w.copy()) or full_grad(w)

        def run(m):
            return mixed_grad(prob, dom, seed=7, T1=5, m=m, lambda1=prob.constants.L_full,
                              eta=0.25 / prob.constants.L_comp)

        longest = run(5)
        ends = centers[1:] + [longest.final_point]  # center after each epoch
        for m in range(1, 6):
            tr = run(m)
            rec = longest.records[m - 1]
            assert np.array_equal(tr.final_point, ends[m - 1])
            assert tr.records == longest.records[:m]
            assert rec["objective"] == prob.full_value(tr.final_point)
            assert (tr.calls_full, tr.calls_stochastic) == (rec["calls_full"],
                                                           rec["calls_stochastic"])

    @pytest.mark.parametrize("solver", [mixed_grad, emgd])
    def test_one_projection_counted_per_stochastic_step(self, solver):
        data = synthetic_regression(20, 3, seed=19)
        prob = least_squares_problem(data, lam=0.2)
        tr = solver(prob, Domain.ball(2.0), seed=0, T1=7, m=3)
        assert tr.projections == tr.calls_stochastic > 0

    def test_clipped_sgd_counts_projections(self):
        prob = onedim_target_risk_problem(0.05)
        tr = clipped_sgd(prob, Domain.ball(1.0), seed=0, m=3, T1=40,
                         target_risk=2.0 * prob.eps_opt)
        assert tr.projections == tr.calls_stochastic == 3 * 40

    @pytest.mark.parametrize("R", [1.0, 0.3])
    def test_clipped_sgd_matches_per_call_loop(self, R):
        prob = onedim_target_risk_problem(0.05)
        target, eps, tau, T1 = 2.0 * prob.eps_opt, 0.5, 0.1, 200
        xi, eta = prescribed_clip(prob, tau, T1)
        tr = clipped_sgd(prob, Domain.ball(R), seed=8, m=4, T1=T1,
                         target_risk=target, epsilon=eps, tau=tau)
        rng = make_rng(8)
        center, Delta = np.zeros(1), R
        for _ in range(4):
            gamma_k = 2.0 * xi * prob.constants.L_comp * Delta
            w = center.copy()
            ssum = np.zeros_like(w)
            for _ in range(T1):
                ssum += w
                v = clip_component(gamma_k, prob.stochastic_grad(w, rng))
                w = frozen_kernels.project_two_balls(w - eta * v, np.zeros(1), R,
                                                     center, Delta)
            center = ssum / T1
            Delta = math.sqrt(eps * Delta**2 + tau * target)
        assert np.array_equal(tr.final_point, center)

    @pytest.mark.parametrize("R", [2.0, 0.01])
    def test_clipped_sgd_matches_per_call_loop_on_finite_sum(self, R):
        # several coordinates; at the prescribed step, R = 0.01 makes the
        # domain ball and the ring between the balls bind
        data = synthetic_classification(60, 4, seed=23, row_norm=1.0)
        prob = logistic_problem(data, lam=5e-2)
        params = dict(seed=9, m=4, T1=600, target_risk=0.05, epsilon=0.5, tau=0.1)
        tr = clipped_sgd(prob, Domain.ball(R), **params)
        xi, eta = prescribed_clip(prob, 0.1, 600)
        assert np.array_equal(tr.final_point, per_call_clipped_sgd(
            prob, R, eta=eta, xi=xi, L=prob.constants.L_comp, **params))


def _epoch_solver_run(name, m, **params):
    if name == "clipped_sgd":
        prob = onedim_target_risk_problem(0.05)
        base = dict(target_risk=2.0 * prob.eps_opt)
        return clipped_sgd(prob, Domain.ball(1.0), seed=0, m=m, T1=5, **{**base, **params})
    prob = least_squares_problem(synthetic_regression(20, 3, seed=19), lam=0.2)
    solver = {"mixed_grad": mixed_grad, "emgd": emgd}[name]
    return solver(prob, Domain.ball(2.0), seed=0, T1=3, m=m, **params)


def _step_solver_run(name, **params):
    if name in ("mixed_grad", "emgd", "clipped_sgd"):
        return _epoch_solver_run(name, None, **params)
    solver = {"sgd": sgd, "gd": gd, "agd": agd, "sgd_pd": sgd_pd, "sgd_st": sgd_st}[name]
    obj = NoisyQuadratic(center=np.array([1.2, 0.0]), noise=0.4)
    return solver(obj, Domain.ball(0.8), T=5, **params)


class TestEpochCount:
    """An explicit epoch or stage count is used as given; only an unset one
    takes the solver's default."""

    @pytest.mark.parametrize("m", [0, -1])
    @pytest.mark.parametrize("name", ["mixed_grad", "emgd", "clipped_sgd"])
    def test_nonpositive_count_refused(self, name, m):
        with pytest.raises(ConfigurationError, match="epoch"):
            _epoch_solver_run(name, m)

    @pytest.mark.parametrize("name,default", [("mixed_grad", 5), ("emgd", 8),
                                              ("clipped_sgd", 8)])
    def test_unset_count_takes_the_default(self, name, default):
        assert len(_epoch_solver_run(name, None).records) == default
        assert len(_epoch_solver_run(name, 1).records) == 1


class TestHorizon:
    """A horizon or an epoch length below one step is refused, not divided by."""

    @pytest.mark.parametrize("solver", [sgd, gd, agd], ids=lambda s: s.__name__)
    def test_zero_horizon_refused(self, solver):
        # sgd's iterate average divided by T = 0 and returned [nan nan]; the
        # step loops set their counts from T
        obj = NoisyQuadratic(center=np.array([1.2, 0.0]), noise=0.4)
        with pytest.raises(ConfigurationError, match="horizon"):
            solver(obj, Domain.ball(0.8), T=0)

    @pytest.mark.parametrize("solver,params", [
        (mixed_grad, {"T1": 0}), (emgd, {"T1": 0}), (emgd, {"T": 0}),
        (clipped_sgd, {"T1": 0})],
        ids=["mixed_grad-T1", "emgd-T1", "emgd-T", "clipped_sgd-T1"])
    def test_zero_epoch_length_refused(self, solver, params):
        # the default step divided by sqrt(0)
        if solver is clipped_sgd:
            prob = onedim_target_risk_problem(0.05)
            params = dict(target_risk=2.0 * prob.eps_opt, **params)
        else:
            prob = least_squares_problem(synthetic_regression(20, 3, seed=19), lam=0.2)
        with pytest.raises(ConfigurationError, match="epoch length"):
            solver(prob, Domain.ball(1.0), seed=0, m=2, **params)


class TestStepSize:
    """An explicit step size `eta`, first-epoch radius `Delta1`, target risk
    or regularization `lambda1` is used as given and refused unless
    positive, NaN too; only an unset one takes the default."""

    # the ids from clipped_sgd-target_risk on ran to NaN, divided by zero or
    # ran on with a zero constant before their check
    @pytest.mark.parametrize("name,field", [
        ("sgd", "eta"), ("mixed_grad", "eta"), ("emgd", "Delta1"),
        ("clipped_sgd", "target_risk"), ("mixed_grad", "lambda1")])
    def test_nonpositive_step_refused(self, name, field):
        for value in (0.0, -0.5, math.nan):
            with pytest.raises(ConfigurationError, match=f"{field} must be positive"):
                _step_solver_run(name, **{field: value})
        _step_solver_run(name, **{field: 0.05})


class TestStrongConvexity:
    """A solver whose prescribed step or clip level divides by the
    strong-convexity modulus refuses a problem whose constants.lam is not
    positive, NaN too."""

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("solver", [clipped_sgd, emgd, sgd_st], ids=lambda s: s.__name__)
    def test_nonpositive_modulus_refused(self, solver, lam):
        obj = NoisyQuadratic(center=np.array([1.2, 0.0]), noise=0.4)
        obj.constants = obj.constants._replace(lam=lam)  # Constants is immutable
        extra = {clipped_sgd: {"target_risk": 0.05, "T1": 4, "m": 2},
                 emgd: {"T1": 4, "m": 2}, sgd_st: {"T": 20}}[solver]
        with pytest.raises(ConfigurationError, match="strongly convex|strong convexity"):
            solver(obj, Domain.ball(0.8), **extra)

    def test_clipped_sgd_refuses_problem_without_modulus(self):
        # unregularized logistic loss is not strongly convex: its modulus is
        # lam = lam_reg = 0; sgd_st's step 1/(2·lam·t) needs it too
        prob = from_arrays(np.eye(3), [1.0, -1.0, 1.0], 0.0, "logistic")
        assert prob.constants.lam == 0.0
        ball = Domain.ball(0.8)
        with pytest.raises(ConfigurationError, match="strongly convex"):
            clipped_sgd(prob, ball, T1=4, m=2, target_risk=0.05)
        with pytest.raises(ConfigurationError, match="strongly convex"):
            sgd_st(prob, ball, T=10)


_ALL_SOLVERS = [sgd, gd, agd, clipped_sgd, mixed_grad, emgd, sgd_pd, sgd_st]

# each solver's keyword-only parameters: exactly the values some experiment
# sets; every constant the objective fixes is read from it
_PARAMETERS = {
    sgd: {"seed", "T", "eta", "keep_iterates"},
    gd: {"T"},
    agd: {"T"},
    clipped_sgd: {"seed", "m", "T1", "epsilon", "tau", "target_risk"},
    mixed_grad: {"seed", "m", "T1", "eta", "lambda1"},
    emgd: {"seed", "T", "m", "T1", "Delta1", "probe_variance"},
    sgd_pd: {"seed", "T"},
    sgd_st: {"seed", "T"},
}
# names that only overrode what the objective or the thesis fixes
_FIXED = {"w0", "L", "lam", "xi", "Delta1", "gamma_shrink", "gamma", "G1", "lambda0",
          "snapshot_every"}


@pytest.mark.parametrize("solver", _ALL_SOLVERS, ids=lambda s: s.__name__)
def test_solver_takes_only_the_parameters_it_reads(solver):
    params = inspect.signature(solver).parameters
    assert list(params)[:2] in (["problem", "domain"], ["objective", "domain"])
    assert {n for n, p in params.items() if p.kind is p.KEYWORD_ONLY} == _PARAMETERS[solver]
    assert len(params) == 2 + len(_PARAMETERS[solver])
    # every name another solver takes, or that the objective fixes, is
    # refused, not silently ignored
    for name in sorted(set().union(_FIXED, *_PARAMETERS.values()) - _PARAMETERS[solver]):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            solver(None, None, **{name: 1})


@pytest.mark.parametrize("solver", _ALL_SOLVERS, ids=lambda s: s.__name__)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**16),
       lo=st.floats(-0.5, 0.4), width=st.floats(0.05, 0.6),
       radius=st.floats(0.1, 2.0), cut=st.floats(-0.6, 0.6))
def test_final_point_feasible_or_domain_refused(solver, d, seed, lo, width, radius, cut):
    """Every solver returns a point inside each domain kind it accepts, or
    refuses the domain."""
    rng = make_rng(seed)
    domains = [Domain.ball(radius), Domain.box(np.full(d, lo), np.full(d, lo + width)),
               Domain.simplex(d), Domain.l1_ball(radius, dim=d),
               Domain.halfspace_cut(np.ones(d) / math.sqrt(d), cut)]
    if solver in (mixed_grad, emgd):
        prob = from_arrays(rng.standard_normal((8, d)), rng.standard_normal(8), 0.1,
                           "squared")
        params = dict(seed=seed, T1=4, m=3)
    else:
        prob = NoisyQuadratic(center=rng.uniform(-1.5, 1.5, size=d), noise=0.3)
        params = {sgd: dict(seed=seed, T=12), gd: dict(T=12), agd: dict(T=12),
                  clipped_sgd: dict(seed=seed, T1=4, m=3, target_risk=0.05),
                  sgd_pd: dict(seed=seed, T=12), sgd_st: dict(seed=seed, T=12)}[solver]
    for domain in domains:
        try:
            tr = solver(prob, domain, **params)
        except (ConfigurationError, UnsupportedDomainError, DomainError):
            continue
        assert domain.contains(tr.final_point, tol=1e-9), (domain.kind, tr.final_point)


class TestVarianceProbe:
    def test_zero_at_anchor(self):
        data = synthetic_classification(30, 4, seed=16)
        prob = logistic_problem(data, lam=0.05)
        w = make_rng(3).standard_normal(4)
        probe = gradient_variance_probe(prob, w, w)
        assert probe["mixed_var"] == 0.0

    def test_single_component_zero_variance(self):
        prob = from_arrays([[1.0, 2.0]], [1.0], 0.1, "squared")
        probe = gradient_variance_probe(prob, np.array([0.3, -0.2]), np.zeros(2))
        assert probe["sgd_var"] == 0.0

    def test_matches_monte_carlo(self):
        data = synthetic_classification(40, 3, seed=17)
        prob = logistic_problem(data, lam=0.0)
        rng = make_rng(18)
        w = rng.standard_normal(3) * 0.5
        c = rng.standard_normal(3) * 0.5
        probe = gradient_variance_probe(prob, w, c)
        n = 1_000_000
        idx = rng.integers(prob.n, size=n)
        gw = frozen_kernels.all_component_grads(prob, w)
        gc = frozen_kernels.all_component_grads(prob, c)
        plain = gw[idx]
        anchored = (gw - gc)[idx]
        for got, sample in ((probe["sgd_var"], plain), (probe["mixed_var"], anchored)):
            sq = np.sum((sample - sample.mean(axis=0)) ** 2, axis=1)
            se = sq.std(ddof=1) / math.sqrt(n)
            assert abs(got - sq.mean()) <= 3 * se + 1e-12

    @pytest.mark.parametrize("lam_reg", [0.0, 0.05])
    @pytest.mark.parametrize("loss", ["logistic", "squared"])
    @pytest.mark.parametrize("n_case", ["1", "rows-1", "rows", "rows+1", "5000"])
    @pytest.mark.parametrize("d", [1, 2, 3, 50])
    def test_equals_the_matrix_form_bit_for_bit(self, d, n_case, loss, lam_reg):
        # rows: one row block; at d = 1 the block is the whole column
        rows = row_blocks(5000, d)[0].stop
        n = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
             "5000": 5000}[n_case]
        rng = make_rng(1000 * d + n)
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        prob = from_arrays(X, np.sign(y) if loss == "logistic" else y, lam_reg, loss)
        w, c = rng.standard_normal((2, d))
        for point, center in ((w, c), (w, w)):
            got = gradient_variance_probe(prob, point, center)
            want = frozen_kernels.gradient_variance_probe(prob, point, center)
            assert {k: v.hex() for k, v in got.items()} == \
                {k: v.hex() for k, v in want.items()}
        assert gradient_variance_probe(prob, w, w)["mixed_var"] == 0.0

    def test_emgd_probe_columns_equal_the_probe_at_end_and_anchor(self):
        data = synthetic_classification(50, 4, seed=24, row_norm=1.0)
        prob = logistic_problem(data, lam=1e-2)
        points = []
        loss_coefs = prob.loss_coefs
        prob.loss_coefs = lambda w: points.append(w.copy()) or loss_coefs(w)
        tr = emgd(prob, Domain.ball(2.0), seed=2, T1=200, m=5, probe_variance=True)
        # one X @ w per anchor, m + 1 in all: epoch k runs from points[k] to points[k + 1]
        assert len(points) == 6 and points[-1].tobytes() == tr.final_point.tobytes()
        for rec, center, end in zip(tr.records, points[:-1], points[1:], strict=True):
            probe = gradient_variance_probe(prob, end, center)
            assert rec["variance_mixed"].hex() == probe["mixed_var"].hex()
            assert rec["variance_sgd"].hex() == probe["sgd_var"].hex()

    def test_emgd_probe_run_holds_under_1_mb_above_the_problem(self):
        """emgd with probe_variance at 5000 × 50: about 5.8 MB above the live
        problem when the probe built n × d gradient matrices."""
        prob = logistic_problem(synthetic_classification(5000, 50, seed=7), lam=1e-3)
        emgd(prob, Domain.ball(10.0), T1=5, m=1, probe_variance=True)  # warm-up
        tracemalloc.start()
        try:
            tr = emgd(prob, Domain.ball(10.0), seed=0, T1=50, m=3, probe_variance=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tr.records) == 3
        assert peak < 1_000_000, f"{peak / 1e6:.2f} MB above the problem"


def prescribed_pd_gamma(obj, dom, T):
    """sgd_pd's dual regularization gamma from obj's and dom's constants."""
    G1, sigma, G2, C2 = obj.grad_bound(1.0), obj.noise, dom.G2, dom.C2
    return G2 * G2 / math.sqrt(
        (G1 * G1 + C2 * C2 + (1.0 + math.log(2.0 / _DELTA)) * sigma * sigma) * T)


class TestOneProjection:
    def setup_method(self):
        self.obj = NoisyQuadratic(center=np.array([1.2, 0.0]), noise=0.4)
        self.dom = Domain.ball(0.8)

    @pytest.mark.parametrize("dom", [
        Domain.box(-np.ones(2), np.ones(2)), Domain.simplex(2), Domain.l1_ball(1.0, dim=2),
        Domain.halfspace_cut(np.array([1.0, 0.0]), 0.5)], ids=lambda d: d.kind)
    @pytest.mark.parametrize("solver", [sgd_pd, sgd_st], ids=lambda s: s.__name__)
    def test_rejects_non_ball_domain(self, solver, dom):
        # refused before the objective is read: None stands in for it
        with pytest.raises(ConfigurationError, match="needs a ball"):
            solver(None, dom)

    def test_exactly_one_projection_and_feasible(self):
        for solver in (sgd_pd, sgd_st):
            tr = solver(self.obj, self.dom, seed=0, T=2000)
            assert tr.projections == 1
            assert self.dom.g(tr.final_point) <= 1e-10

    def test_default_without_its_source_refused(self):
        # OneDimTargetRisk declares neither grad_bound (G1) nor noise (read
        # by sgd_pd's gamma); Bounded declares only grad_bound
        obj, ball = onedim_target_risk_problem(0.3), Domain.ball(0.8)
        for solver in (sgd_pd, sgd_st):
            with pytest.raises(ConfigurationError, match="has no grad_bound"):
                solver(obj, ball, T=5)

        class Bounded:
            def grad_bound(self, radius):
                return radius

        with pytest.raises(ConfigurationError, match="Bounded has no noise"):
            sgd_pd(Bounded(), ball, T=5)

    def test_dual_stays_zero_when_deep_feasible(self):
        obj = NoisyQuadratic(center=np.zeros(2), noise=0.1)
        dom = Domain.ball(0.95)
        tr = sgd_pd(obj, dom, seed=1, T=500)
        assert np.all(tr.column("dual") == 0.0)

    def test_dual_follows_its_update_when_the_constraint_binds(self):
        # the prescribed gamma is 0.096 here; the step is gamma/(2·G2²), and
        # T = 200 records every step
        obj, dom = NoisyQuadratic(center=np.array([1.2, 0.0]), noise=0.5), Domain.ball(0.8)
        tr = sgd_pd(obj, dom, seed=0, T=200)
        gamma = prescribed_pd_gamma(obj, dom, 200)
        eta = gamma / (2.0 * dom.G2 * dom.G2)
        assert len(tr.records) == 200
        assert sum(r["dual"] > 0 for r in tr.records) > 0
        prev = 0.0
        for r in tr.records:
            assert r["dual"] == max((1.0 - gamma * eta) * prev + eta * r["constraint"], 0.0)
            prev = r["dual"]

    def test_pd_reduces_to_plain_sgd_when_dual_zero(self):
        obj = NoisyQuadratic(center=np.zeros(2), noise=0.1)
        dom = Domain.ball(0.95)
        tr = sgd_pd(obj, dom, seed=2, T=200)
        # replay the plain recursion x <- renormalize(x - eta g) with the same rng
        rng = make_rng(2)
        eta = prescribed_pd_gamma(obj, dom, 200) / (2.0 * dom.G2 * dom.G2)
        x = np.zeros(2)
        objs = tr.column("objective")
        for t in range(1, 201):
            g = obj.stochastic_grad(x, rng)
            xp = x - eta * g
            x = xp / max(np.linalg.norm(xp), 1.0)
            assert abs(obj.full_value(x) - objs[t - 1]) < 1e-15

    def test_smoothing_weight_formula(self):
        # boundary point (g = 0): weight exactly 1/2; deeply feasible point
        # (lambda0*g/gamma = -40): weight < 1e-17 so the step follows f alone
        obj = NoisyQuadratic(center=np.array([2.0, 0.0]), noise=0.0)
        dom = Domain.ball(1.0)
        tr = sgd_st(obj, dom, seed=0, T=3)
        # first iterate x1 = 0 has g(x1) = -1, weight = sigmoid(-lambda0/gamma)
        # with lambda0 = 1.05·G1/rho and gamma = log(T)/T
        lambda0, gamma = 1.05 * obj.grad_bound(1.0) / dom.rho, math.log(3) / 3
        assert dom.g(np.zeros(2)) == -1.0
        assert abs(tr.records[0]["weight"] - 1.0 / (1.0 + math.exp(lambda0 / gamma))) < 1e-15
        assert math.exp(-40.0) / (1.0 + math.exp(-40.0)) < 1e-17
        z = 0.0
        assert 1.0 / (1.0 + math.exp(-z)) == 0.5

    def test_pd_suboptimality_slope(self):
        ref = reference_optimum(self.obj, self.dom)
        subs, Ts = [], [1000, 10_000, 100_000]
        for T in Ts:
            tr = sgd_pd(self.obj, self.dom, seed=3, T=T)
            subs.append(self.obj.full_value(tr.final_point) - ref["F"])
        slope = loglog_slope(Ts, subs)
        assert -0.65 <= slope <= -0.35

    @pytest.mark.parametrize("solver,T", [(sgd_st, 1), (sgd_st, 0), (sgd_pd, 0)])
    def test_too_short_horizon_refused(self, solver, T):
        # sgd_st's gamma = log(T)/T is zero at T = 1 and undefined at T = 0
        with pytest.raises(ConfigurationError, match="horizon"):
            solver(self.obj, self.dom, seed=0, T=T)

    def test_one_step_horizon_runs(self):
        tr = sgd_pd(self.obj, self.dom, seed=0, T=1)
        assert tr.calls_stochastic == 1 and tr.projections == 1

    def test_st_log_over_t_ratio_bounded(self):
        ref = reference_optimum(self.obj, self.dom)
        ratios = []
        for T in (1000, 10_000, 100_000):
            tr = sgd_st(self.obj, self.dom, seed=3, T=T)
            sub = self.obj.full_value(tr.final_point) - ref["F"]
            ratios.append(sub * T / math.log(T))
        assert max(ratios) / min(ratios) <= 3.0


class TestRateBounds:
    def test_agd_quadratic_rate_bound(self):
        data = synthetic_regression(25, 4, seed=20)
        prob = least_squares_problem(data, lam=0.0)
        dom = Domain.ball(5.0)
        ref = reference_optimum(prob, dom)
        w0 = np.zeros(4)
        L = prob.constants.L_full
        for T in (20, 60, 180):
            tr = agd(prob, dom, T=T)
            bound = 2.0 * L * np.linalg.norm(w0 - ref["w"]) ** 2 / T ** 2
            assert prob.full_value(tr.final_point) - ref["F"] <= bound + 1e-12

    def test_anchored_difference_vanishes_at_any_anchor(self):
        data = synthetic_regression(12, 3, seed=21)
        for lam in (0.0, 0.3):
            prob = least_squares_problem(data, lam=lam)
            rng = make_rng(22)
            for i in range(12):
                c = rng.standard_normal(3)
                np.testing.assert_array_equal(
                    prob.anchored_component_diff(i, c, c), np.zeros(3))

    def test_one_projection_budget_counters(self):
        obj = NoisyQuadratic(center=np.array([1.2, 0.0]), noise=0.3)
        dom = Domain.ball(0.8)
        for solver in (sgd_pd, sgd_st):
            tr = solver(obj, dom, seed=0, T=750)
            assert tr.calls_stochastic == 750

