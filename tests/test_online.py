"""Round-protocol learners: hand recursions, structural guarantees, bounds."""

import math
import struct

import numpy as np
import pytest

from smoothconvex.core import (ConfigurationError, Domain, InputError,
                               MirrorMap, StepSchedule, UnsupportedDomainError,
                               make_rng)
from smoothconvex.adversary import (LossSequence, alternating_linear,
                                    classification_stream, ftrl_adversary)
from smoothconvex.metrics import comparator_minimum, final_regret
from smoothconvex.online import (OGD, OMP, IFTRL, BanditOMP, ConstraintSet,
                                 DoublingWrapper, ExpertOMP, ExplicitMaxPD,
                                 HingeClassifierPD, MaxStructure, PenaltyOGD,
                                 RoundLoss, SoftConstraintOGD, StrictlyConvexOMP,
                                 ZeroViolationOGD)

UNIT = Domain.ball(1.0)


def linear(v):
    return RoundLoss.from_linear(np.asarray(v, dtype=float))


def const_seq(v, T):
    return LossSequence(T=T, kind="const", _losses=[linear(v)] * T)


class TestOGD:
    def test_zero_losses_never_move(self):
        ogd = OGD(UNIT, StepSchedule.constant(0.5), dim=3)
        for _ in range(5):
            ogd.observe(linear(np.zeros(3)))
        assert all(np.array_equal(x, np.zeros(3)) for x in ogd.decisions)

    def test_hand_recursion_clipped(self):
        dom = Domain.box([-1.0], [1.0])
        ogd = OGD(dom, StepSchedule.constant(0.5))
        xs = []
        for _ in range(4):
            xs.append(ogd.predict()[0])
            ogd.observe(linear([1.0]))
        assert xs == [0.0, -0.5, -1.0, -1.0]

    def test_alternating_movement_until_clipping(self):
        # +/- alternating linear losses: each step moves by eta*|f| inside the ball
        dom = Domain.ball(1.0)
        ogd = OGD(dom, StepSchedule.constant(0.3), dim=1)
        f = np.array([0.5])
        prev = ogd.predict().copy()
        moves = []
        for t in range(6):
            ogd.observe(linear(f if t % 2 == 0 else -f))
            cur = ogd.predict().copy()
            moves.append(abs(cur[0] - prev[0]))
            prev = cur
        assert all(abs(m - 0.15) < 1e-12 for m in moves)


class TestIFTRL:
    def test_round_one_at_origin(self):
        assert np.array_equal(IFTRL(UNIT, L=1.0, eta=1.0, dim=2).predict(), np.zeros(2))

    def test_eta_range_enforced(self):
        with pytest.raises(ConfigurationError):
            IFTRL(UNIT, L=1.0, eta=1.5, dim=2)

    def test_unsupported_leader_domain(self):
        lr = IFTRL(Domain.l1_ball(1.0, dim=2), L=1.0, eta=0.5, dim=2)
        with pytest.raises(UnsupportedDomainError):
            lr.observe(linear([1.0, 0.0]))

    def test_constant_losses_regret_T_independent(self):
        f = np.array([1.0, 0.0])  # exactly representable geometry
        egv = float(f @ f)
        eta = min(1.0, 1.0 / math.sqrt(egv))
        regs = []
        for T in (100, 10_000):
            lr = IFTRL(UNIT, L=1.0, eta=eta, dim=2)
            seq = const_seq(f, T)
            for l in seq:
                lr.observe(l)
            regs.append(final_regret(lr.decisions, seq, UNIT))
        assert abs(regs[0] - regs[1]) < 1e-9
        assert regs[1] <= max(1.0, math.sqrt(egv)) + 1e-9

    def test_two_phase_regret_bounded_by_variation(self):
        f = np.array([0.8, 0.0])
        g = np.array([0.0, 0.6])
        T = 200
        egv = float(f @ f) + float((g - f) @ (g - f))
        lr = IFTRL(UNIT, L=1.0, eta=min(1.0, 1.0 / math.sqrt(egv)), dim=2)
        losses = [linear(f)] * (T // 2) + [linear(g)] * (T // 2)
        seq = LossSequence(T=T, kind="two_phase", _losses=losses)
        for l in seq:
            lr.observe(l)
        measured = final_regret(lr.decisions, seq, UNIT)
        # exhaustive best-fixed-point search on a fine polar grid of the disc
        learner_loss = sum(float(l.linear @ x) for l, x in zip(seq, lr.decisions))
        best = math.inf
        for rr in np.linspace(0, 1, 201):
            for th in np.linspace(0, 2 * math.pi, 721):
                x = rr * np.array([math.cos(th), math.sin(th)])
                val = (T // 2) * float(f @ x) + (T // 2) * float(g @ x)
                best = min(best, val)
        assert abs((learner_loss - best) - measured) < 1e-2  # grid-resolution limited
        assert measured <= 2.0 * math.sqrt(egv) + 1.0 + 1e-9


class TestOMP:
    def test_zero_losses_fixed(self):
        omp = OMP(UNIT, L=1.0, eta=0.5, dim=2)
        for _ in range(3):
            omp.observe(linear(np.zeros(2)))
        assert all(np.array_equal(x, np.zeros(2)) for x in omp.decisions)

    def test_constant_losses_regret_T_independent(self):
        f = np.array([1.0, 0.0])
        egv = float(f @ f)
        eta = OMP.tuned_eta(1.0, egv)
        regs = []
        for T in (100, 10_000):
            omp = OMP(UNIT, L=1.0, eta=eta, dim=2)
            seq = const_seq(f, T)
            for l in seq:
                omp.observe(l)
            regs.append(final_regret(omp.decisions, seq, UNIT))
        assert abs(regs[0] - regs[1]) < 1e-9
        assert regs[1] <= 2.0 * max(math.sqrt(2.0), math.sqrt(egv)) + 1e-9

    def test_one_gradient_evaluation_per_round(self):
        calls = [0]

        def grad(x):
            calls[0] += 1
            return np.array([1.0, 0.0])

        loss = RoundLoss(value=lambda x: float(x[0]), grad=grad)
        omp = OMP(UNIT, L=1.0, eta=0.5, dim=2)
        for _ in range(10):
            omp.observe(loss)
        assert calls[0] == 10

    def test_entropy_single_round_multiplicative(self):
        omp = OMP(Domain.simplex(3), L=1.0, eta=1.0,
                  mirror_map=MirrorMap.entropy(), dim=3)
        omp.observe(linear([1.0, 0.0, 0.0]))
        want = np.array([math.exp(-1.0), 1.0, 1.0])
        want /= want.sum()
        np.testing.assert_allclose(omp.z, want, atol=1e-14)


class TestExpertOMP:
    def test_uniform_losses_keep_decision(self):
        e = ExpertOMP(3, eta=0.7)
        d0 = e.predict().copy()
        e.observe(np.array([0.4, 0.4, 0.4]))
        np.testing.assert_allclose(e.predict(), d0, atol=1e-15)

    def test_two_expert_closed_form(self):
        e = ExpertOMP(2, eta=math.log(2.0))
        e.observe(np.array([1.0, 0.0]))
        np.testing.assert_allclose(e.z, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_normalization_exact(self):
        rng = make_rng(0)
        e = ExpertOMP(6, eta=0.3)
        for _ in range(200):
            e.observe(rng.uniform(0, 1, size=6))
            assert abs(e.predict().sum() - 1.0) <= 1e-12

    def test_negative_losses_rejected(self):
        with pytest.raises(InputError):
            ExpertOMP(2, eta=0.1).observe(np.array([-0.1, 0.2]))

    def test_one_switch_regret_bound(self):
        rng = make_rng(1)
        T = 2000
        for m in (4, 16):
            c1 = rng.uniform(0, 1, size=m)
            c2 = rng.uniform(0, 1, size=m)
            losses = [linear(c1)] * (T // 2) + [linear(c2)] * (T // 2)
            egv_inf = float(np.max(np.abs(c1)) ** 2 + np.max(np.abs(c2 - c1)) ** 2)
            e = ExpertOMP(m, eta=ExpertOMP.tuned_eta(m, egv_inf))
            total = np.zeros(m)
            loss_sum = 0.0
            for l in losses:
                x = e.predict()
                e.observe(l)
                loss_sum += float(l.linear @ x)
                total += l.linear
            best_expert = float(total.min())  # exhaustive over the m vertices
            assert loss_sum - best_expert <= math.sqrt(2 * egv_inf * math.log(m)) * 1.10


class TestStrictlyConvexOMP:
    def test_initial_metric_scaled_identity(self):
        sc = StrictlyConvexOMP(UNIT, beta=0.5, G=2.0, dim=3)
        np.testing.assert_allclose(sc.H, (1 + 0.5 * 4.0) * np.eye(3), atol=1e-15)

    def test_rank_one_metric_update(self):
        sc = StrictlyConvexOMP(UNIT, beta=0.5, G=1.0, dim=2)
        H1 = sc.H.copy()
        loss = linear([0.3, -0.4])
        sc.observe(loss)
        g = loss.linear
        np.testing.assert_allclose(sc.H, H1 + 0.5 * np.outer(g, g), atol=1e-14)

    def test_dimension_cap(self):
        with pytest.raises(ConfigurationError):
            StrictlyConvexOMP(UNIT, beta=0.1, G=1.0, dim=51)

    def test_slow_drift_log_regret_ratio(self):
        cs = []
        for T in (500, 1000, 2000):
            sc = StrictlyConvexOMP(UNIT, beta=0.25, G=2.0, dim=2)
            centers = [0.5 * np.array([math.cos(0.01 * t / T), math.sin(0.01 * t / T)])
                       for t in range(T)]
            seq = LossSequence(T=T, kind="q",
                               _losses=[RoundLoss.from_quadratic(c) for c in centers])
            for l in seq:
                sc.observe(l)
            r = final_regret(sc.decisions, seq, UNIT)
            cs.append(r / math.log(T))
        assert all(c > 0 for c in cs)
        assert max(cs) / min(cs) <= 2.0


class TestBanditOMP:
    def test_linear_estimate_exact(self):
        b = BanditOMP(UNIT, G=1.0, delta=0.05, eta=0.01, dim=3)
        c = np.array([0.3, -0.2, 0.7])
        b.observe(linear(c))
        np.testing.assert_allclose(b.last_estimate, c, atol=1e-10)

    def test_quadratic_estimate_hits_bound_exactly(self):
        d, delta = 3, 0.1
        b = BanditOMP(UNIT, G=1.0, delta=delta, eta=0.01, dim=d)
        loss = RoundLoss(value=lambda x: 0.5 * float(x @ x), grad=lambda x: x.copy())
        x = b.predict()
        b.observe(loss)
        err = np.linalg.norm(b.last_estimate - x)
        np.testing.assert_allclose(b.last_estimate - x, np.full(d, delta / 2.0),
                                   atol=1e-12)
        assert abs(err - math.sqrt(d) * 1.0 * delta / 2.0) < 1e-12

    def test_query_accounting_and_feasibility(self):
        T, d = 50, 4
        b = BanditOMP(Domain.ball(0.9), G=1.0, delta=0.05, eta=0.02, dim=d)
        rng = make_rng(2)
        for _ in range(T):
            x = b.predict()
            assert np.linalg.norm(x) <= 0.9 - 0.05 + 1e-12  # query stencil stays in W
            b.observe(RoundLoss.from_quadratic(rng.standard_normal(d) * 0.2))
        assert b.value_queries == (d + 1) * T

    def test_smooth_loss_estimate_error_bound(self):
        d, delta, L = 2, 0.05, 1.0
        rng = make_rng(3)
        b = BanditOMP(UNIT, G=2.0, delta=delta, eta=0.01, dim=d)
        for _ in range(100):
            c = rng.standard_normal(d) * 0.4
            loss = RoundLoss.from_quadratic(c)
            x = b.predict()
            b.observe(loss)
            err = np.linalg.norm(b.last_estimate - loss.grad(x))
            assert err <= math.sqrt(d) * L * delta / 2.0 + 1e-12

    def test_offset_must_fit_radius(self):
        with pytest.raises(ConfigurationError):
            BanditOMP(Domain.ball(0.1), G=1.0, delta=0.2, eta=0.01, dim=2)


class TestDoubling:
    def factory(self, eta):
        return IFTRL(UNIT, L=1.0, eta=min(eta, 1.0), dim=2)

    def test_zero_variation_single_epoch(self):
        dw = DoublingWrapper(self.factory, L=1.0)
        for l in const_seq(np.array([0.5, 0.0]), 200):
            dw.observe(l)
        assert dw.boundaries == [1]

    def test_engineered_boundary_and_burn(self):
        # gradient jumps of squared size 0.36 from round 2 on; the epoch-1
        # budget L^2/eta_1^2 = 1 is first exceeded at round 4
        vecs = [np.array([0.3, 0.0])]
        for k in range(9):
            vecs.append(vecs[-1] + (0.6 if k % 2 == 0 else -0.6) * np.array([1.0, 0.0]))
        dw = DoublingWrapper(self.factory, L=1.0)
        for v in vecs:
            dw.observe(linear(v))
        assert dw.boundaries == [1, 4]

    def test_within_constant_factor_of_tuned(self):
        T = 3000
        for seed in range(10):
            egv = float(make_rng(seed).uniform(4.0, 64.0))
            seq = alternating_linear(egv, T, 2)
            tuned = IFTRL(UNIT, L=1.0, eta=min(1.0, 1.0 / math.sqrt(egv)), dim=2)
            dw = DoublingWrapper(self.factory, L=1.0)
            for l in seq:
                tuned.observe(l)
                dw.observe(l)
            r_tuned = final_regret(tuned.decisions, seq, UNIT)
            r_dw = final_regret(dw.decisions, seq, UNIT)
            assert r_dw <= 8.0 * max(r_tuned, 1.0 / math.sqrt(T))
            assert len(dw.boundaries) <= math.floor(math.log2(max(egv, 2.0))) + 2


class TestExplicitMaxPD:
    def test_dimension_mismatch_rejected(self):
        lr = ExplicitMaxPD(UNIT, Domain.box([0.0], [1.0]), L1=1.0, L2=1.0,
                           eta=0.1, dim=2, dual_dim=1)
        bad = RoundLoss(value=lambda x: 0.0, grad=lambda x: np.zeros(2),
                        max_parts=MaxStructure(A=np.zeros((1, 3))))
        with pytest.raises(InputError):
            lr.observe(bad)

    def test_hinge_no_update_when_correct(self):
        h = HingeClassifierPD(2, R=1.0, eta=0.1)
        h.w = np.array([0.5, 0.0])
        w_before = h.w.copy()
        s = h.round(np.array([1.0, 0.0]), 1.0)  # correct confident prediction
        assert s > 0 and h.mistakes == 0
        np.testing.assert_array_equal(h.w, w_before)

    def test_hinge_single_mistake_updates(self):
        h = HingeClassifierPD(2, R=1.0, eta=0.1)
        h.round(np.array([1.0, 0.0]), 1.0)  # score 0 counts as a mistake
        assert h.mistakes == 1
        assert h.beta == 0.1
        assert h.alpha == pytest.approx(0.2)
        np.testing.assert_array_equal(h.w, np.zeros(2))  # alpha_1 was 0

    def test_step_size_cap(self):
        with pytest.raises(ConfigurationError):
            HingeClassifierPD(2, eta=0.5)

    def test_mistake_bound_on_drifting_stream(self):
        T, d = 2000, 2
        seq = classification_stream(0.02, T, d, seed=7)
        h = HingeClassifierPD(d, R=1.0)
        for gx in seq.meta["examples"]:
            h.round(gx, 1.0)
        # best fixed comparator by grid over the 2-D disc
        pts = np.stack(seq.meta["examples"])

        def hinge_total(w):
            return float(np.sum(np.maximum(0.0, 1.0 - pts @ w)))

        best = min(hinge_total(r * np.array([math.cos(t), math.sin(t)]))
                   for r in np.linspace(0, 1, 101)
                   for t in np.linspace(0, 2 * math.pi, 361))
        egv = 0.0
        prev = np.zeros(d)
        for gx in h.mistake_examples:
            egv += float((gx - prev) @ (gx - prev))
            prev = gx
        bound = best + math.sqrt(2.0) * (1.0 + 1.0) * max(2.0, math.sqrt(egv))
        assert h.mistakes <= bound * 1.10
        assert h.mistakes > 0


def ball_constraint(r):
    return (lambda x: float(x @ x) - r * r, lambda x: 2.0 * x)


class TestSoftConstraints:
    def make_cons(self, r=0.7):
        return ConstraintSet(funcs=[ball_constraint(r)], D=1.0, G=2.5, F=2.5)

    def test_feasible_zero_losses_keep_duals_zero(self):
        cons = self.make_cons()
        lr = SoftConstraintOGD(cons, T=100, R=1.0, dim=2)
        for _ in range(100):
            lr.observe(linear(np.zeros(2)))
        assert np.all(lr.lam == 0.0)

    def test_dual_update_formula(self):
        cons = ConstraintSet(funcs=[(lambda x: -1.0, lambda x: np.zeros(2))],
                             D=1.0, G=1.0, F=1.0)
        lr = SoftConstraintOGD(cons, T=100, R=1.0, dim=2, eta=0.1, delta=1.0)
        lr.lam = np.array([0.2])
        lr.observe(linear(np.zeros(2)))
        # lam' = [0.2*(1 - 0.1*0.1*1... ) ...] with eta=0.1, delta=1, g=-1:
        # lam + eta*(g - eta*delta*lam) = 0.2 + 0.1*(-1 - 0.1*0.2) = 0.098
        assert lr.lam[0] == pytest.approx(0.2 + 0.1 * (-1.0 - 0.1 * 1.0 * 0.2))

    def test_violation_trace_reproducible_from_decisions(self):
        cons = self.make_cons()
        rng = make_rng(9)
        lr = SoftConstraintOGD(cons, T=200, R=1.0, dim=2)
        losses = [RoundLoss.from_quadratic(rng.standard_normal(2)) for _ in range(200)]
        for l in losses:
            lr.observe(l)
        recomputed = [cons.values(x) for x in lr.decisions]
        np.testing.assert_allclose(np.array(lr.violations), np.array(recomputed),
                                   atol=0)

    def test_zero_violation_variant_clears_budget(self):
        cons = self.make_cons()
        T = 4000
        lr = ZeroViolationOGD(cons, T=T, R=1.0, dim=2)
        rng = make_rng(10)
        for t in range(T):
            c = 0.9 * np.array([math.cos(0.001 * t), math.sin(0.001 * t)])
            lr.observe(RoundLoss.from_quadratic(c))
        assert float(np.sum(lr.raw_violations)) <= 0.0

    def test_penalty_baseline_linear_violation(self):
        v = np.array([1.0, 0.0])
        cons = ConstraintSet(funcs=[(lambda x: 1.0 - float(v @ x), lambda x: -v)],
                             D=3.0, G=1.0, F=2.0)
        T = 1000
        lr = PenaltyOGD(cons, StepSchedule.constant(0.05), delta=0.5, R=2.0, dim=2)
        for _ in range(T):
            lr.observe(linear(v))
        viol = float(np.sum(np.maximum([x[0] for x in lr.violations], 0.0)))
        assert viol >= 0.5 * T
        # hand recursion: x evolves as x_{t+1} = x_t - eta(1-delta) v while infeasible
        xs = [np.zeros(2)]
        for _ in range(T - 1):
            xs.append(xs[-1] - 0.05 * (1 - 0.5) * v)
        manual = sum(max(1.0 - float(v @ x), 0.0) for x in
                     [np.clip(x, -2, 2) if np.linalg.norm(x) <= 2 else x * 2 / np.linalg.norm(x) for x in xs])
        assert viol >= 0.5 * manual  # same linear-order growth


class TestFeasibilityAcrossLearners:
    def test_every_round_feasible_for_hard_constrained_learners(self):
        rng = make_rng(11)
        T = 60
        for make in (
            lambda: OGD(UNIT, StepSchedule.inverse_sqrt(0.4), dim=3),
            lambda: OMP(UNIT, L=1.0, eta=0.3, dim=3),
            lambda: IFTRL(UNIT, L=1.0, eta=0.5, dim=3),
            lambda: StrictlyConvexOMP(UNIT, beta=0.2, G=2.0, dim=3),
        ):
            lr = make()
            for _ in range(T):
                lr.observe(RoundLoss.from_quadratic(rng.standard_normal(3)))
            for x in lr.decisions:
                assert UNIT.g(x) <= 1e-10


class TestEgvScalingInvariant:
    def test_iftrl_and_omp_ratio_across_variation_levels(self):
        T, d = 10_000, 5
        egvs = [1.0, 4.0, 16.0, 64.0]
        for make, tune in (
            (lambda eta: OMP(UNIT, L=1.0, eta=eta, dim=d), OMP.tuned_eta),
            (lambda eta: IFTRL(UNIT, L=1.0, eta=eta, dim=d),
             lambda L, e: min(1.0, L / math.sqrt(e))),
        ):
            regs = []
            for egv in egvs:
                seq = alternating_linear(egv, T, d)
                lr = make(tune(1.0, egv))
                for l in seq:
                    lr.observe(l)
                regs.append(final_regret(lr.decisions, seq, UNIT))
            ratio = regs[-1] / regs[0]
            assert 4.0 <= ratio <= 16.0


class TestGeneralNormTuning:
    def test_entropy_learner_with_tuned_eta_runs(self):
        dom = Domain.simplex(4)
        lr = OMP(dom, L=1.0, eta=0.3535533905932738, mirror_map=MirrorMap.entropy(),
                 dim=4)
        rng = make_rng(12)
        for _ in range(50):
            lr.observe(linear(rng.uniform(0, 1, size=4)))
        for x in lr.decisions:
            assert abs(x.sum() - 1.0) < 1e-12 and np.all(x >= 0)


class TestExplicitMaxFunctional:
    def test_constant_saddle_losses_reach_constrained_optimum(self):
        # f(x) = ½‖x − c‖²·(smooth part) + max_{u∈[0,1]} ⟨a·x, u⟩ − ½u²;
        # the max term is an increasing huber-style penalty on a·x
        a = np.array([1.0, 0.5])
        c = np.array([0.8, 0.0])

        def fhat_value(x):
            return 0.5 * float((x - c) @ (x - c))

        def fhat_grad(x):
            return x - c

        def gpen(s):
            u = min(max(s, 0.0), 1.0)
            return s * u - 0.5 * u * u

        def value(x):
            return fhat_value(x) + gpen(float(a @ x))

        parts = MaxStructure(A=a[None, :], f_hat_value=fhat_value,
                             f_hat_grad=fhat_grad,
                             phi_hat_value=lambda u: 0.5 * float(u[0] ** 2),
                             phi_hat_grad=lambda u: u.copy())
        loss = RoundLoss(value=value, grad=lambda x: None, max_parts=parts)
        dom = Domain.ball(1.0)
        dual = Domain.box([0.0], [1.0])
        lr = ExplicitMaxPD(dom, dual, L1=1.0, L2=1.0, eta=0.2, dim=2, dual_dim=1)
        T = 3000
        for _ in range(T):
            lr.observe(loss)
        xbar = np.mean(lr.decisions[T // 2:], axis=0)
        # reference optimum by dense polar grid over the disc
        best = math.inf
        for r in np.linspace(0, 1, 201):
            for th in np.linspace(0, 2 * math.pi, 721):
                x = r * np.array([math.cos(th), math.sin(th)])
                best = min(best, value(x))
        assert value(xbar) - best <= 5e-3
        # feasibility of both sequences throughout
        for x, u in zip(lr.decisions, lr.duals):
            assert dom.g(x) <= 1e-10
            assert 0.0 - 1e-12 <= u[0] <= 1.0 + 1e-12


class TestRoundLossReadOnly:
    def test_cost_vector_and_center_are_read_only_copies(self):
        f, c = np.array([0.3, -0.4]), np.array([1.0, 2.0])
        lin, quad = RoundLoss.from_linear(f), RoundLoss.from_quadratic(c)
        f[0], c[0] = 9.0, 9.0   # the caller's arrays stay writable and detached
        assert lin.linear[0] == 0.3 and quad.quad_center[0] == 1.0
        with pytest.raises(ValueError):
            lin.linear[0] = 1.0
        with pytest.raises(ValueError):
            quad.quad_center[0] = 1.0

    def test_grad_is_a_fresh_writable_array(self):
        seq = alternating_linear(4.0, 10, 3)
        g = seq.loss(1).grad(np.zeros(3))
        g[0] = 5.0
        assert seq.loss(1).linear[0] != 5.0 and seq.loss(3).linear[0] != 5.0

    def test_shared_round_cannot_be_written_through(self):
        seq = alternating_linear(4.0, 10, 3)
        assert seq.loss(1) is seq.loss(3)
        with pytest.raises(ValueError):
            seq.loss(1).linear[0] = 1.0

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 37, 64])
    def test_values_equal_the_matmul_forms(self, n):
        def bits(v):
            return struct.pack("d", v)

        rng = make_rng(n)
        draws = [tuple(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                       for _ in range(3)) for _ in range(50)]
        # signed zeros, where `.dot` and `@` can differ in the sign of the result
        for zf, zx in ((0.0, -0.0), (-0.0, 0.0), (1.0, -0.0), (-1.0, -0.0), (-0.0, 1.0)):
            draws.append((np.full(n, zf), np.full(n, -zx), np.full(n, zx)))
        for f, c, x in draws:
            assert bits(RoundLoss.from_linear(f).value(x)) == bits(float(f @ x))
            assert bits(RoundLoss.from_quadratic(c).value(x)) == bits(
                0.5 * float((x - c) @ (x - c)))

    def test_full_omp_run_leaves_every_round_intact(self):
        seq = alternating_linear(4.0, 200, 3)
        omp = OMP(UNIT, L=1.0, eta=0.3, dim=3)
        for l in seq:
            omp.observe(l)
        fresh = alternating_linear(4.0, 200, 3)
        for t in range(1, 201):
            np.testing.assert_array_equal(seq.loss(t).linear, fresh.loss(t).linear)


def _soft_rounds(T):
    return LossSequence(T=T, kind="soft", _losses=[
        RoundLoss.from_quadratic(0.9 * np.array([math.cos(0.01 * t), math.sin(0.01 * t)]))
        for t in range(T)])


def _soft_cons():
    return ConstraintSet(funcs=[ball_constraint(0.7),
                                (lambda x: float(x[1]) - 0.3, lambda x: np.array([0.0, 1.0]))],
                         D=1.0, G=2.5, F=2.5)


def _priced_run(kind):
    """(learner, sequence, comparator domain) after a full run."""
    dom = UNIT
    if kind == "OMP":
        seq = alternating_linear(4.0, 300, 3)
        lr = OMP(UNIT, L=1.0, eta=OMP.tuned_eta(1.0, 4.0), dim=3)
    elif kind == "IFTRL":
        seq = alternating_linear(4.0, 300, 3)
        lr = IFTRL(UNIT, L=1.0, eta=0.5, dim=3)
    elif kind == "OGD":
        seq = ftrl_adversary(0.2, 300, gv_target=200.0)
        lr = OGD(UNIT, StepSchedule.constant(0.2), dim=1)
    elif kind == "ExpertOMP":
        rng = make_rng(4)
        c1, c2 = rng.uniform(0, 1, size=5), rng.uniform(0, 1, size=5)
        seq = LossSequence(T=300, kind="experts",
                           _losses=[linear(c1)] * 150 + [linear(c2)] * 150)
        lr, dom = ExpertOMP(5, eta=0.4), Domain.simplex(5)
    else:
        seq = _soft_rounds(300)
        learner = SoftConstraintOGD if kind == "SoftConstraintOGD" else ZeroViolationOGD
        lr, dom = learner(_soft_cons(), 300, R=1.0, dim=2), Domain.ball(0.7)
    for l in seq:
        lr.observe(l)
    return lr, seq, dom


class TestRegretFromLossValues:
    @pytest.mark.parametrize("kind", ["OMP", "IFTRL", "OGD", "SoftConstraintOGD",
                                      "ZeroViolationOGD", "ExpertOMP"])
    def test_recorded_losses_price_the_final_regret_exactly(self, kind):
        lr, seq, dom = _priced_run(kind)
        _, best = comparator_minimum(seq, dom)
        assert sum(lr.loss_values) - best == final_regret(lr.decisions, seq, dom)


class TestZeroViolationRound:
    def test_raw_constraints_evaluated_once_per_round(self):
        calls = []
        g, gg = ball_constraint(0.7)
        cons = ConstraintSet(funcs=[(lambda x: calls.append(1) or g(x), gg)],
                             D=1.0, G=2.5, F=2.5)
        lr = ZeroViolationOGD(cons, T=200, R=1.0, dim=2)
        for l in _soft_rounds(200):
            lr.observe(l)
        assert np.any(lr.lam > 0)   # the subgradient branch ran too
        assert len(calls) == 200

    def test_tie_takes_the_first_maximal_constraint(self):
        g, gg = ball_constraint(0.7)
        tied = ConstraintSet(funcs=[(g, gg), (g, lambda x: np.zeros(2))],
                             D=1.0, G=2.5, F=2.5)
        alone = ConstraintSet(funcs=[(g, gg)], D=1.0, G=2.5, F=2.5)
        a = ZeroViolationOGD(tied, T=200, R=1.0, dim=2)
        b = ZeroViolationOGD(alone, T=200, R=1.0, dim=2)
        for l in _soft_rounds(200):
            a.observe(l)
            b.observe(l)
        assert np.any(a.lam > 0)
        np.testing.assert_array_equal(a.x, b.x)

    def test_matches_generic_learner_on_the_tightened_set(self):
        T = 400
        cons = _soft_cons()
        zero = ZeroViolationOGD(cons, T=T, R=1.0, dim=2)
        ref = SoftConstraintOGD(zero.cons, T, R=1.0, eta=zero.eta, delta=zero.delta,
                                dim=2)
        for l in _soft_rounds(T):
            zero.observe(l)
            ref.observe(l)
        assert np.any(zero.lam > 0)
        for a, b in zip(zero.decisions, ref.decisions):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.array(zero.violations), np.array(ref.violations))
        np.testing.assert_array_equal(zero.lam, ref.lam)
        assert zero.raw_violations == [max(float(g(x)) for g, _ in cons.funcs)
                                       for x in zero.decisions]
        # both constraints attain the max at some round
        assert {int(np.argmax([float(g(x)) for g, _ in cons.funcs]))
                for x in zero.decisions} == {0, 1}
