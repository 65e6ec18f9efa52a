"""Round-protocol learners: hand recursions, structural guarantees, bounds."""

import copy
import inspect
import math
import struct
import tracemalloc

import numpy as np
import pytest

from smoothconvex import cli
from smoothconvex.core import (ConfigurationError, Domain, InputError,
                               UnsupportedDomainError, make_rng)
from smoothconvex.adversary import (alternating_linear, classification_stream,
                                    ftrl_adversary)
from smoothconvex.metrics import comparator_minimum, final_regret
from smoothconvex.online import (OGD, OMP, IFTRL, BanditOMP, BaseLearner, ConstraintSet,
                                 ExpertOMP, HingeClassifierPD, PenaltyOGD,
                                 RoundLoss, SoftConstraintOGD, ZeroViolationOGD,
                                 zero_violation_tuning)

import frozen_kernels

UNIT = Domain.ball(1.0)


def linear(v):
    return RoundLoss.from_linear(np.asarray(v, dtype=float))


def const_seq(v, T):
    return [linear(v)] * T


class TestOGD:
    def test_zero_losses_never_move(self):
        ogd = OGD(UNIT, 0.5, dim=3)
        for _ in range(5):
            ogd.observe(linear(np.zeros(3)))
        assert all(np.array_equal(x, np.zeros(3)) for x in ogd.decisions)

    def test_hand_recursion_clipped(self):
        dom = Domain.box([-1.0], [1.0])
        ogd = OGD(dom, 0.5)
        xs = []
        for _ in range(4):
            xs.append(ogd.predict()[0])
            ogd.observe(linear([1.0]))
        assert xs == [0.0, -0.5, -1.0, -1.0]

    def test_alternating_movement_until_clipping(self):
        # +/- alternating linear losses: each step moves by eta*|f| inside the ball
        dom = Domain.ball(1.0)
        ogd = OGD(dom, 0.3, dim=1)
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
        assert np.array_equal(IFTRL(UNIT, eta=1.0, dim=2).predict(), np.zeros(2))

    def test_eta_range_enforced(self):
        with pytest.raises(ConfigurationError):
            IFTRL(UNIT, eta=1.5, dim=2)

    def test_unsupported_leader_domain(self):
        with pytest.raises(UnsupportedDomainError):
            IFTRL(Domain.l1_ball(1.0, dim=2), eta=0.5, dim=2)

    def test_constant_losses_regret_T_independent(self):
        f = np.array([1.0, 0.0])  # exactly representable geometry
        egv = float(f @ f)
        eta = min(1.0, 1.0 / math.sqrt(egv))
        regs = []
        for T in (100, 10_000):
            lr = IFTRL(UNIT, eta=eta, dim=2)
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
        lr = IFTRL(UNIT, eta=min(1.0, 1.0 / math.sqrt(egv)), dim=2)
        seq = [linear(f)] * (T // 2) + [linear(g)] * (T // 2)
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
        omp = OMP(UNIT, eta=0.5, dim=2)
        for _ in range(3):
            omp.observe(linear(np.zeros(2)))
        assert all(np.array_equal(x, np.zeros(2)) for x in omp.decisions)

    def test_constant_losses_regret_T_independent(self):
        f = np.array([1.0, 0.0])
        egv = float(f @ f)
        eta = OMP.tuned_eta(egv)
        regs = []
        for T in (100, 10_000):
            omp = OMP(UNIT, eta=eta, dim=2)
            seq = const_seq(f, T)
            for l in seq:
                omp.observe(l)
            regs.append(final_regret(omp.decisions, seq, UNIT))
        assert abs(regs[0] - regs[1]) < 1e-9
        assert regs[1] <= 2.0 * max(math.sqrt(2.0), math.sqrt(egv)) + 1e-9

    def test_one_gradient_evaluation_per_round(self, monkeypatch):
        loss, calls = linear([1.0, 0.0]), []
        for name in ("grad", "value_grad"):   # either way of asking for one
            method = getattr(type(loss), name)
            monkeypatch.setattr(type(loss), name, lambda self, x, method=method:
                                calls.append(x) or method(self, x))
        omp = OMP(UNIT, eta=0.5, dim=2)
        for _ in range(10):
            omp.observe(loss)
        assert len(calls) == 10

    def test_entropy_single_round_multiplicative(self):
        omp = ExpertOMP(3, eta=1.0)
        omp.observe(linear([1.0, 0.0, 0.0]))
        want = np.array([math.exp(-1.0), 1.0, 1.0])
        want /= want.sum()
        np.testing.assert_allclose(omp.z, want, atol=1e-14)


class TestExpertOMP:
    def test_uniform_losses_keep_decision(self):
        e = ExpertOMP(3, eta=0.7)
        d0 = e.predict().copy()
        e.observe(linear([0.4, 0.4, 0.4]))
        np.testing.assert_allclose(e.predict(), d0, atol=1e-15)

    def test_two_expert_closed_form(self):
        e = ExpertOMP(2, eta=math.log(2.0))
        e.observe(linear([1.0, 0.0]))
        np.testing.assert_allclose(e.z, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_zero_cost_is_a_fixed_point(self):
        e = ExpertOMP(2, eta=3.7)
        e.observe(linear(np.zeros(2)))
        np.testing.assert_allclose(e.z, [0.5, 0.5], atol=1e-15)

    def test_step_is_the_multiplicative_update(self):
        z, f = np.array([0.2, 0.3, 0.5]), np.array([1.5, 0.0, 0.5])
        e = ExpertOMP(3, eta=0.7)
        e.z = z
        e.observe(linear(f))
        want = z * np.exp(-0.7 * f)
        want /= want.sum()
        np.testing.assert_allclose(e.z, want, atol=1e-14)

    def test_normalization_exact(self):
        rng = make_rng(0)
        e = ExpertOMP(6, eta=0.3)
        for _ in range(200):
            e.observe(linear(rng.uniform(0, 1, size=6)))
            assert abs(e.predict().sum() - 1.0) <= 1e-12

    def test_negative_losses_rejected(self):
        with pytest.raises(InputError):
            ExpertOMP(2, eta=0.1).observe(linear([-0.1, 0.2]))

    @pytest.mark.parametrize("cost", [
        linear([np.nan, 0.2, 0.1]),
        linear([0.2, np.nan, 0.1]),
        RoundLoss.from_quadratic(np.zeros(3)),
        linear([0.2, 0.1]),
        linear([0.2, 0.1, 0.3, 0.4]),
        np.array([0.2, 0.1, 0.3]),
    ], ids=["nan", "nan-roundloss", "quadratic", "short", "long", "plain-vector"])
    def test_bad_cost_refused_before_the_weights_move(self, cost):
        e = ExpertOMP(3, eta=0.5)
        e.observe(linear([0.3, 0.1, 0.2]))
        z, prev = e.z.tobytes(), e.prev_grad.tobytes()
        with pytest.raises(InputError):
            e.observe(cost)
        assert (e.z.tobytes(), e.prev_grad.tobytes()) == (z, prev)
        assert len(e.decisions) == len(e.loss_values) == 1

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


class TestBanditOMP:
    def test_linear_estimate_exact(self):
        b = BanditOMP(UNIT, delta=0.05, eta=0.01, dim=3)
        c = np.array([0.3, -0.2, 0.7])
        b.observe(linear(c))
        np.testing.assert_allclose(b.last_estimate, c, atol=1e-10)

    def test_quadratic_estimate_hits_bound_exactly(self):
        d, delta = 3, 0.1
        b = BanditOMP(UNIT, delta=delta, eta=0.01, dim=d)
        loss = RoundLoss.from_quadratic(np.zeros(d))   # ½‖x‖²
        x = b.predict()
        b.observe(loss)
        err = np.linalg.norm(b.last_estimate - x)
        np.testing.assert_allclose(b.last_estimate - x, np.full(d, delta / 2.0),
                                   atol=1e-12)
        assert abs(err - math.sqrt(d) * 1.0 * delta / 2.0) < 1e-12

    def test_query_accounting_and_feasibility(self):
        T, d = 50, 4
        b = BanditOMP(Domain.ball(0.9), delta=0.05, eta=0.02, dim=d)
        rng = make_rng(2)
        for _ in range(T):
            x = b.predict()
            assert np.linalg.norm(x) <= 0.9 - 0.05 + 1e-12  # query stencil stays in W
            b.observe(RoundLoss.from_quadratic(rng.standard_normal(d) * 0.2))
        assert b.value_queries == (d + 1) * T

    def test_smooth_loss_estimate_error_bound(self):
        d, delta, L = 2, 0.05, 1.0
        rng = make_rng(3)
        b = BanditOMP(UNIT, delta=delta, eta=0.01 / 2.0, dim=d)
        for _ in range(100):
            c = rng.standard_normal(d) * 0.4
            loss = RoundLoss.from_quadratic(c)
            x = b.predict()
            b.observe(loss)
            err = np.linalg.norm(b.last_estimate - loss.grad(x))
            assert err <= math.sqrt(d) * L * delta / 2.0 + 1e-12

    def test_offset_must_fit_radius(self):
        with pytest.raises(ConfigurationError):
            BanditOMP(Domain.ball(0.1), delta=0.2, eta=0.01, dim=2)


class TestHingeClassifierPD:
    def test_hinge_no_update_when_correct(self):
        h = HingeClassifierPD(2, R=1.0)
        h.w = np.array([0.5, 0.0])
        w_before = h.w.copy()
        h.round(np.array([1.0, 0.0]))  # correct confident prediction: score 0.5
        assert h.mistakes == 0
        np.testing.assert_array_equal(h.w, w_before)

    def test_hinge_single_mistake_updates(self):
        h = HingeClassifierPD(2, R=1.0)
        eta = 1.0 / (2.0 * math.sqrt(2.0))
        h.round(np.array([1.0, 0.0]))  # score 0 counts as a mistake
        assert h.mistakes == 1
        assert h.beta == eta
        assert h.alpha == pytest.approx(2.0 * eta)
        np.testing.assert_array_equal(h.w, np.zeros(2))  # alpha_1 was 0

    def test_step_size_cap(self):
        # the step is the thesis's 1/(2√2), the cap of its range; none is given
        assert HingeClassifierPD(2).eta == 1.0 / (2.0 * math.sqrt(2.0))
        for eta in (0.1, 0.5):
            with pytest.raises(TypeError, match="unexpected keyword argument 'eta'"):
                HingeClassifierPD(2, eta=eta)

    def test_has_no_round_records_or_play(self):
        # it plays labelled examples, not losses: a `decisions` record that
        # stays empty and a `play` without observe would only mislead
        h = HingeClassifierPD(2, R=1.0)
        for gx in classification_stream(0.1, 2, 2, seed=3):
            h.round(gx)
        assert not isinstance(h, BaseLearner)
        for name in ("play", "observe", "decisions", "loss_values", "_state", "_records"):
            assert not hasattr(h, name), name

    def test_mistake_bound_on_drifting_stream(self):
        T, d = 2000, 2
        pts = classification_stream(0.02, T, d, seed=7)
        h = HingeClassifierPD(d, R=1.0)
        for gx in pts:
            h.round(gx)
        # best fixed comparator by grid over the 2-D disc

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


# one constraint for the penalty learner's construction checks
PENALTY_CONS = ConstraintSet(funcs=[(lambda x: -1.0, lambda x: np.zeros(2))],
                             D=1.0, G=1.0, F=1.0)


class TestConstructionChecks:
    """A non-positive or NaN step size, radius or query offset,
    or a negative or NaN penalty weight, would divide by zero, climb the
    cost or leave the domain in some later round; each learner refuses it
    when it is built."""

    @pytest.mark.parametrize("make", [
        lambda: BanditOMP(UNIT, delta=-0.5, eta=0.1, dim=2),
        lambda: BanditOMP(UNIT, delta=0.0, eta=0.1, dim=2),
        lambda: HingeClassifierPD(2, R=-1.0),
        lambda: HingeClassifierPD(2, R=0.0),
        lambda: OGD(UNIT, 0.0, dim=2),
        lambda: OGD(UNIT, -0.5, dim=2),
        lambda: OGD(UNIT, math.nan, dim=2),
        lambda: OMP(UNIT, eta=math.nan, dim=2),
        lambda: ExpertOMP(3, eta=math.nan),
        lambda: BanditOMP(UNIT, delta=0.1, eta=math.nan, dim=2),
        lambda: HingeClassifierPD(2, R=math.nan),
        lambda: PenaltyOGD(PENALTY_CONS, 0.1, delta=math.nan, dim=2),
        lambda: PenaltyOGD(PENALTY_CONS, 0.1, delta=-0.5, dim=2),
    ], ids=["bandit-delta-neg", "bandit-delta-0", "hinge-R-neg",
            "hinge-R-0", "ogd-eta-0", "ogd-eta-neg", "ogd-eta-nan", "omp-eta-nan",
            "expert-eta-nan", "bandit-eta-nan", "hinge-R-nan",
            "penalty-delta-nan", "penalty-delta-neg"])
    def test_nonpositive_parameter_refused(self, make):
        with pytest.raises(ConfigurationError):
            make()


# each online callable's parameters, in order: exactly the values some
# experiment sets
_ONLINE_PARAMETERS = {
    "OGD": (OGD, ["domain", "eta", "dim"]),
    "IFTRL": (IFTRL, ["domain", "eta", "dim"]),
    "OMP": (OMP, ["domain", "eta", "dim"]),
    "OMP.tuned_eta": (OMP.tuned_eta, ["egv"]),
    "ExpertOMP": (ExpertOMP, ["m", "eta"]),
    "BanditOMP": (BanditOMP, ["domain", "delta", "eta", "dim"]),
    "HingeClassifierPD": (HingeClassifierPD, ["dim", "R"]),
    "HingeClassifierPD.round": (HingeClassifierPD(2).round, ["gx"]),
    "SoftConstraintOGD": (SoftConstraintOGD, ["constraints", "T", "R", "dim"]),
    "ZeroViolationOGD": (ZeroViolationOGD, ["constraints", "T", "R", "dim"]),
    "PenaltyOGD": (PenaltyOGD, ["constraints", "eta", "delta", "R", "dim"]),
    "ftrl_adversary": (ftrl_adversary, ["eta", "T", "gv_target"]),
}
# names that only divided η (L, and BanditOMP's G), or that only tests set
_DELETED = {"L", "G", "eta", "delta", "x", "y", "d"}


@pytest.mark.parametrize("name", sorted(_ONLINE_PARAMETERS))
def test_online_callable_takes_only_the_parameters_an_experiment_sets(name):
    fn, want = _ONLINE_PARAMETERS[name]
    assert list(inspect.signature(fn).parameters) == want
    # every name another callable takes, or that was deleted, is refused
    others = set().union(_DELETED, *(p for _, p in _ONLINE_PARAMETERS.values())) - set(want)
    for other in sorted(others):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{other}'"):
            fn(**{other: 1})


def ball_constraint(r):
    return (lambda x: float(x @ x) - r * r, lambda x: 2.0 * x)


# constraint bounds the soft-constraint learners refuse: each raised a bare
# ValueError or ZeroDivisionError, was refused as a bad step size, or ran
# (G < 0, and an empty set until its first round)
_BAD_BOUNDS = {"F-neg": dict(F=-1.0), "G-neg": dict(G=-2.0), "D-nan": dict(D=math.nan),
               "G0-D0": dict(G=0.0, D=0.0), "no-constraints": dict(funcs=[])}


class _UnitTuned(SoftConstraintOGD):
    """SoftConstraintOGD tuned to a = delta = 1: at R = 1 and T = 100 its
    step is eta = 1/(1·√100) = 0.1."""

    def _tuning(self, R, T):
        return 1.0, 1.0


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
        lr = _UnitTuned(cons, T=100, R=1.0, dim=2)
        assert (lr.eta, lr.delta) == (0.1, 1.0)
        lr._lam = [0.2]
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

    @pytest.mark.parametrize("make", [
        lambda c: SoftConstraintOGD(c, T=100, R=0.0, dim=2),
        lambda c: ZeroViolationOGD(c, T=100, R=0.0, dim=2),
        lambda c: zero_violation_tuning(c.G, c.D, c.F, math.nan, 100),
        lambda c: PenaltyOGD(c, 0.1, delta=1.0, R=-1.0, dim=2),
        lambda c: PenaltyOGD(c, math.nan, delta=1.0, R=1.0, dim=2),
    ] + [lambda c, learner=learner, bad=bad: learner(c._replace(**bad), T=100, R=1.0, dim=2)
         for learner in (SoftConstraintOGD, ZeroViolationOGD) for bad in _BAD_BOUNDS.values()],
        ids=["soft-R0", "zero-R0", "zero-R-nan", "penalty-Rneg", "penalty-eta-nan"]
        + [f"{kind}-{name}" for kind in ("soft", "zero") for name in _BAD_BOUNDS])
    def test_nonpositive_step_or_radius_refused(self, make):
        with pytest.raises(ConfigurationError):
            make(self.make_cons())

    @pytest.mark.parametrize("T", [0, -5, 0.5])
    @pytest.mark.parametrize("make", [
        lambda c, T: SoftConstraintOGD(c, T=T, R=1.0, dim=2),
        lambda c, T: ZeroViolationOGD(c, T=T, R=1.0, dim=2),
    ], ids=["soft", "zero"])
    def test_horizon_below_one_refused(self, make, T):
        with pytest.raises(ConfigurationError, match="horizon T"):
            make(self.make_cons(), T)

    # (lam before the round, constraint value, the pre-clamp dual u)
    _CLAMP_CASES = {
        # η·(−5e-324) underflows to −0.0 for η < 1/2, and −0.0 + −0.0 = −0.0
        "minus-zero": (-0.0, -5e-324, -0.0),
        "plus-zero": (0.0, 0.0, 0.0),
        "tiny-negative": (0.0, -1e-300, None),
        "nan": (0.0, math.nan, math.nan),
        "plus-inf": (0.0, math.inf, math.inf),
        "minus-inf": (0.0, -math.inf, -math.inf),
    }

    @pytest.mark.parametrize("kind", ["soft", "zero"])
    @pytest.mark.parametrize("case", sorted(_CLAMP_CASES))
    def test_dual_clamp_is_the_frozen_np_maximum(self, kind, case):
        lam0, v, u_want = self._CLAMP_CASES[case]
        cons = ConstraintSet(funcs=[(lambda x: v, lambda x: np.zeros(2))],
                             D=1.0, G=1.0, F=1.0)
        if kind == "soft":
            lr = _UnitTuned(cons, T=100, R=1.0, dim=2)
        else:
            lr = ZeroViolationOGD(cons, T=100, R=1.0, dim=2)
            lr.gamma_tighten = 0.0   # the tightened value is v itself
        eta, delta = lr.eta, lr.delta
        u = np.array([lam0]) + eta * (np.array([v]) - eta * delta * np.array([lam0]))
        if u_want is None:
            assert -1e-250 < u[0] < 0.0
        else:
            assert u.tobytes() == np.array([u_want]).tobytes()

        def terms(x, lam):
            lam[:] = lam0   # the frozen loop starts from zero duals
            return np.array([v]), np.zeros(x.shape)

        want = frozen_kernels._soft_loop([linear(np.zeros(2))], terms, eta, delta,
                                         1.0, 2, 1)["lam"]
        lr._lam = [lam0]
        lr.observe(linear(np.zeros(2)))
        assert lr.lam.tobytes() == want.tobytes()

    def test_penalty_baseline_linear_violation(self):
        v = np.array([1.0, 0.0])
        cons = ConstraintSet(funcs=[(lambda x: 1.0 - float(v @ x), lambda x: -v)],
                             D=3.0, G=1.0, F=2.0)
        T = 1000
        lr = PenaltyOGD(cons, 0.05, delta=0.5, R=2.0, dim=2)
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
            lambda: OGD(UNIT, 0.4, dim=3),
            lambda: OMP(UNIT, eta=0.3, dim=3),
            lambda: IFTRL(UNIT, eta=0.5, dim=3),
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
            (lambda eta: OMP(UNIT, eta=eta, dim=d), OMP.tuned_eta),
            (lambda eta: IFTRL(UNIT, eta=eta, dim=d),
             lambda e: min(1.0, 1.0 / math.sqrt(e))),
        ):
            regs = []
            for egv in egvs:
                seq = alternating_linear(egv, T, d)
                lr = make(tune(egv))
                for l in seq:
                    lr.observe(l)
                regs.append(final_regret(lr.decisions, seq, UNIT))
            ratio = regs[-1] / regs[0]
            assert 4.0 <= ratio <= 16.0


class TestGeneralNormTuning:
    def test_entropy_learner_with_tuned_eta_runs(self):
        lr = ExpertOMP(4, eta=0.3535533905932738)
        rng = make_rng(12)
        for _ in range(50):
            lr.observe(linear(rng.uniform(0, 1, size=4)))
        for x in lr.decisions:
            assert abs(x.sum() - 1.0) < 1e-12 and np.all(x >= 0)


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

    def test_linear_grad_cannot_be_written_through(self):
        loss = RoundLoss.from_linear([0.3, -0.4])
        g = loss.grad(np.zeros(2))
        with pytest.raises(ValueError):
            g[0] = 5.0
        assert loss.linear.tolist() == [0.3, -0.4]
        assert loss.grad(np.ones(2)).tolist() == [0.3, -0.4]

    def test_shared_round_cannot_be_written_through(self):
        seq = alternating_linear(4.0, 10, 3)
        assert seq[0] is seq[2]
        with pytest.raises(ValueError):
            seq[0].linear[0] = 1.0

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
        omp = OMP(UNIT, eta=0.3, dim=3)
        for l in seq:
            omp.observe(l)
        fresh = alternating_linear(4.0, 200, 3)
        for t in range(200):
            np.testing.assert_array_equal(seq[t].linear, fresh[t].linear)


def _soft_rounds(T, radius=0.9):
    return [RoundLoss.from_quadratic(radius * np.array([math.cos(0.01 * t), math.sin(0.01 * t)]))
            for t in range(T)]


def _soft_cons():
    return ConstraintSet(funcs=[ball_constraint(0.7),
                                (lambda x: float(x[1]) - 0.3, lambda x: np.array([0.0, 1.0]))],
                         D=1.0, G=2.5, F=2.5)


def _priced_run(kind):
    """(learner, sequence, comparator domain) after a full run."""
    dom = UNIT
    if kind == "OMP":
        seq = alternating_linear(4.0, 300, 3)
        lr = OMP(UNIT, eta=OMP.tuned_eta(4.0), dim=3)
    elif kind == "IFTRL":
        seq = alternating_linear(4.0, 300, 3)
        lr = IFTRL(UNIT, eta=0.5, dim=3)
    elif kind == "OGD":
        seq = ftrl_adversary(0.2, 300, gv_target=200.0)
        lr = OGD(UNIT, 0.2, dim=1)
    elif kind == "ExpertOMP":
        rng = make_rng(4)
        c1, c2 = rng.uniform(0, 1, size=5), rng.uniform(0, 1, size=5)
        seq = [linear(c1)] * 150 + [linear(c2)] * 150
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
        assert zero.cons is cons

        def raw_max(x):
            vals = [float(g(x)) for g, _ in cons.funcs]
            return max(vals), vals.index(max(vals))

        tightened = ConstraintSet(
            funcs=[(lambda x: raw_max(x)[0] + zero.gamma_tighten,
                    lambda x: cons.funcs[raw_max(x)[1]][1](x))],
            D=cons.D + zero.gamma_tighten, G=cons.G, F=cons.F)

        class Reference(SoftConstraintOGD):   # zero's tuning on the tightened set
            def _tuning(self, R, T):
                return zero.a, zero.delta

        ref = Reference(tightened, T, R=1.0, dim=2)
        assert (ref.eta, ref.delta) == (zero.eta, zero.delta)
        for l in _soft_rounds(T):
            zero.observe(l)
            ref.observe(l)
        assert np.any(zero.lam > 0)
        for a, b in zip(zero.decisions, ref.decisions):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.array(zero.violations), np.array(ref.violations))
        np.testing.assert_array_equal(zero.lam, ref.lam)
        assert zero.raw_violations.tolist() == [max(float(g(x)) for g, _ in cons.funcs)
                                                for x in zero.decisions]
        # both constraints attain the max at some round
        assert {int(np.argmax([float(g(x)) for g, _ in cons.funcs]))
                for x in zero.decisions} == {0, 1}


def _bits(arrays) -> bytes:
    return np.array(arrays, dtype=np.float64).tobytes()


def _mixed_losses(T, d, seed):
    """Biased linear costs that push decisions onto the boundary, and every
    third round a quadratic with an inner center that pulls them back
    inside, so the projection is active on some rounds and not on others."""
    rng = make_rng(seed)
    return [RoundLoss.from_quadratic(0.3 * rng.standard_normal(d)) if t % 3 == 2
            else RoundLoss.from_linear(rng.standard_normal(d) - 0.5) for t in range(T)]


def _assert_both_branches(decisions, r):
    norms = np.linalg.norm(np.array(decisions), axis=1)
    assert np.any(norms < r - 1e-9) and np.any(np.abs(norms - r) <= 1e-12)


def _assert_records_match(lr, want, fields=("decisions", "loss_values")):
    for field in fields:
        assert _bits(getattr(lr, field)) == _bits(want[field]), field


_ROUNDS_T = 300
_ROUND_DOMAINS = {"ball": Domain.ball(1.0),
                  "box": Domain.box(-0.5 * np.ones(3), np.ones(3))}


class TestFrozenRounds:
    """Every learner's records are bit-identical to its frozen per-round loop
    in frozen_kernels (the round updates before learners bound their
    projection once), over a few hundred rounds.  The constraint learners
    face centers beyond radius 0.9, so their ball projection and both
    constraints become active."""

    @pytest.mark.parametrize("kind", ["ball", "box"])
    def test_ogd(self, kind):
        dom, losses = _ROUND_DOMAINS[kind], _mixed_losses(_ROUNDS_T, 3, 1)
        lr = OGD(dom, 0.5, dim=3)
        for l in losses:
            lr.observe(l)
        want = frozen_kernels.ogd_rounds(dom, 0.5, 3, losses)
        _assert_records_match(lr, want)
        if kind == "ball":
            _assert_both_branches(lr.decisions, 1.0)

    @pytest.mark.parametrize("kind", ["ball", "box"])
    def test_iftrl(self, kind):
        dom, losses = _ROUND_DOMAINS[kind], _mixed_losses(_ROUNDS_T, 3, 2)
        lr = IFTRL(dom, eta=0.3, dim=3)
        for l in losses:
            lr.observe(l)
        _assert_records_match(lr, frozen_kernels.iftrl_rounds(dom, 1.0, 0.3, 3, losses))
        if kind == "ball":
            _assert_both_branches(lr.decisions, 1.0)

    @pytest.mark.parametrize("kind", ["ball", "box"])
    def test_omp_euclidean(self, kind):
        dom, losses = _ROUND_DOMAINS[kind], _mixed_losses(_ROUNDS_T, 3, 3)
        lr = OMP(dom, eta=0.7 / 2.0, dim=3)
        for l in losses:
            lr.observe(l)
        _assert_records_match(lr, frozen_kernels.omp_rounds(dom, 2.0, 0.7, 3, losses))
        if kind == "ball":
            _assert_both_branches(lr.decisions, 1.0)

    def test_expert_omp(self):
        # costs up to 40 make the log-weights spread far before the max shift
        rng = make_rng(5)
        losses = [RoundLoss.from_linear(rng.uniform(0.0, 40.0 if t % 7 == 0 else 1.0, size=5))
                  for t in range(_ROUNDS_T)]
        lr = ExpertOMP(5, eta=0.6)
        for l in losses:
            lr.observe(l)
        _assert_records_match(lr, frozen_kernels.expert_omp_rounds(5, 0.6, losses))

    def test_bandit_omp(self):
        rng = make_rng(4)
        losses = [RoundLoss.from_quadratic(1.5 * rng.standard_normal(3))
                  for _ in range(_ROUNDS_T)]
        lr = BanditOMP(UNIT, delta=0.1, eta=0.5 / 2.0, dim=3)
        for l in losses:
            lr.observe(l)
        want = frozen_kernels.bandit_omp_rounds(1.0, 2.0, 0.1, 0.5, 3, losses)
        _assert_records_match(lr, want)
        assert _bits(lr.last_estimate) == _bits(want["estimates"][-1])
        assert lr.value_queries == 4 * _ROUNDS_T
        _assert_both_branches(lr.decisions, 0.9)

    def test_soft_constraint_ogd(self):
        cons, losses = _soft_cons(), list(_soft_rounds(_ROUNDS_T, 1.5))
        lr = SoftConstraintOGD(cons, _ROUNDS_T, R=0.8, dim=2)
        for l in losses:
            lr.observe(l)
        want = frozen_kernels.soft_constraint_rounds(cons.funcs, cons.G, cons.D, _ROUNDS_T,
                                                     0.8, 2, losses)
        _assert_records_match(lr, want, ("decisions", "loss_values", "violations", "lam"))
        assert np.all(lr.lam > 0)
        _assert_both_branches(lr.decisions, 0.8)

    def test_zero_violation_ogd(self):
        cons, losses = _soft_cons(), list(_soft_rounds(_ROUNDS_T, 1.5))
        lr = ZeroViolationOGD(cons, _ROUNDS_T, R=0.8, dim=2)
        for l in losses:
            lr.observe(l)
        tun = zero_violation_tuning(cons.G, cons.D, cons.F, 0.8, _ROUNDS_T)
        want = frozen_kernels.zero_violation_rounds(cons.funcs, tun, _ROUNDS_T, 0.8, 2,
                                                    losses)
        _assert_records_match(lr, want, ("decisions", "loss_values", "violations", "lam",
                                         "raw_violations"))
        assert np.all(lr.lam > 0)

    @pytest.mark.parametrize("kind", ["soft", "zero", "penalty"])
    def test_constraint_learner_on_linear_and_quadratic_rounds(self, kind):
        # value_grad of both loss kinds feeds the direction: mixed rounds,
        # against the same frozen loops
        cons, losses = _soft_cons(), _mixed_losses(_ROUNDS_T, 2, 17)
        fields = ("decisions", "loss_values", "violations")
        if kind == "soft":
            lr = SoftConstraintOGD(cons, _ROUNDS_T, R=0.8, dim=2)
            want = frozen_kernels.soft_constraint_rounds(cons.funcs, cons.G, cons.D,
                                                         _ROUNDS_T, 0.8, 2, losses)
            fields += ("lam",)
        elif kind == "zero":
            lr = ZeroViolationOGD(cons, _ROUNDS_T, R=0.8, dim=2)
            tun = zero_violation_tuning(cons.G, cons.D, cons.F, 0.8, _ROUNDS_T)
            want = frozen_kernels.zero_violation_rounds(cons.funcs, tun, _ROUNDS_T, 0.8, 2,
                                                        losses)
            fields += ("lam", "raw_violations")
        else:
            lr = PenaltyOGD(cons, 0.05, delta=3.0, R=0.8, dim=2)
            want = frozen_kernels.penalty_rounds(cons.funcs, 0.05, 3.0, 0.8, 2, losses)
        for l in losses:
            lr.observe(l)
        _assert_records_match(lr, want, fields)
        assert np.any(np.array(lr.violations) > 0)

    @pytest.mark.parametrize("how", ["observe", "play"])
    @pytest.mark.parametrize("kind", ["OMP", "ExpertOMP"])
    def test_a_cost_served_again_reuses_the_first_prox_step(self, kind, how):
        # [c1]*k + [c2]*k: the round's gradient is the very cost vector of the
        # round before on all rounds but the first and the switch
        c1, c2 = make_rng(16).uniform(0.0, 1.0, size=(2, 4))
        losses = [linear(c1)] * 150 + [linear(c2)] * 150
        if kind == "OMP":
            lr, want = (OMP(UNIT, eta=0.7, dim=4),
                        frozen_kernels.omp_rounds(UNIT, 1.0, 0.7, 4, losses))
        else:
            lr, want = (ExpertOMP(4, eta=0.6),
                        frozen_kernels.expert_omp_rounds(4, 0.6, losses))
        calls = _counted_prox(lr)
        if how == "play":
            lr.play(losses)
        else:
            frozen_kernels.observe_rounds(lr, losses)
        _assert_records_match(lr, want)
        if how == "observe" or not lr._state:   # every round computed
            assert calls[0] == 300 + 2

    @pytest.mark.parametrize("kind", ["linear", "mixed"])
    def test_prox_steps_are_the_rounds_and_the_gradient_changes(self, kind):
        # T + (rounds whose gradient is not the array of the round before);
        # a quadratic round's gradient is a fresh array
        f, g = linear([0.5, -0.25, 0.0]), linear([-0.5, 0.0, 0.25])
        losses = ([f, f, g, f, f, f, g, g] * 12 if kind == "linear"
                  else _mixed_losses(60, 3, 18) + [f] * 5)
        lr = OMP(UNIT, eta=0.4, dim=3)
        calls = _counted_prox(lr)
        frozen_kernels.observe_rounds(lr, losses)
        changes = sum(1 for t, l in enumerate(losses)
                      if t == 0 or l.quad_center is not None or l is not losses[t - 1])
        assert calls[0] == len(losses) + changes < 2 * len(losses)
        _assert_records_match(lr, frozen_kernels.omp_rounds(UNIT, 1.0, 0.4, 3, losses))

    def test_penalty_ogd(self):
        cons, losses = _soft_cons(), list(_soft_rounds(_ROUNDS_T, 4.0))
        lr = PenaltyOGD(cons, 0.05, delta=3.0, R=0.8, dim=2)
        for l in losses:
            lr.observe(l)
        want = frozen_kernels.penalty_rounds(cons.funcs, 0.05, 3.0, 0.8, 2, losses)
        _assert_records_match(lr, want, ("decisions", "loss_values", "violations"))
        assert np.all(np.any(np.array(lr.violations) > 0, axis=0))
        _assert_both_branches(lr.decisions, 0.8)


def _recording_cases():
    """name -> (learner factory, losses) for every decision-recording learner."""
    d, T = 3, 60
    mixed = _mixed_losses(T, d, 7)
    rng = make_rng(8)
    experts = [linear(rng.uniform(0.0, 1.0, size=4)) for _ in range(T)]
    quad = [RoundLoss.from_quadratic(1.5 * rng.standard_normal(d)) for _ in range(T)]
    return {
        "OGD": (lambda: OGD(UNIT, 0.3, dim=d), mixed),
        "IFTRL": (lambda: IFTRL(UNIT, eta=0.3, dim=d), mixed),
        "OMP": (lambda: OMP(UNIT, eta=0.5, dim=d), mixed),
        "OMP-simplex": (lambda: OMP(Domain.simplex(4), eta=0.5, dim=4), experts),
        "ExpertOMP": (lambda: ExpertOMP(4, eta=0.5), experts),
        "BanditOMP": (lambda: BanditOMP(UNIT, delta=0.1, eta=0.5 / 2.0, dim=d), quad),
        "SoftConstraintOGD": (lambda: SoftConstraintOGD(_soft_cons(), T, R=0.8, dim=2),
                              list(_soft_rounds(T))),
        "ZeroViolationOGD": (lambda: ZeroViolationOGD(_soft_cons(), T, R=0.8, dim=2),
                             list(_soft_rounds(T))),
        "PenaltyOGD": (lambda: PenaltyOGD(_soft_cons(), 0.05, delta=3.0, R=0.8, dim=2),
                       list(_soft_rounds(T))),
    }


class TestRecordedDecisions:
    """Each recorded decision is, bit for bit, the point the learner played
    that round."""

    @pytest.mark.parametrize("name", sorted(_recording_cases()))
    def test_each_decision_keeps_the_point_played(self, name):
        factory, losses = _recording_cases()[name]
        lr = factory()
        played = []
        for l in losses:
            played.append(lr.predict().copy())
            lr.observe(l)
        assert len(lr.decisions) == len(played)
        for t, (x, want) in enumerate(zip(lr.decisions, played)):
            assert x.tobytes() == want.tobytes(), t

    def test_hinge_mistake_examples_keep_the_example_seen(self):
        lr = HingeClassifierPD(2, R=1.0)
        seen = []
        for gx in classification_stream(0.3, 200, 2, seed=6):
            before = lr.mistakes
            lr.round(gx)
            if lr.mistakes > before:
                seen.append(lr.mistake_examples[-1].copy())
        assert len(seen) > 1
        assert _bits(lr.mistake_examples) == _bits(seen)



class TestLearnerDimension:
    """A learner takes d from its domain, else from `dim`; a ball has no
    dimension, so without `dim`, or with one below 1, every family refuses
    with ConfigurationError before building a point."""

    @pytest.mark.parametrize("make", [
        lambda dim: OGD(UNIT, 0.1, dim=dim),
        lambda dim: IFTRL(UNIT, eta=0.5, dim=dim),
        lambda dim: OMP(UNIT, eta=0.1, dim=dim),
        lambda dim: BanditOMP(UNIT, delta=0.1, eta=0.5 / 2.0, dim=dim),
        lambda dim: SoftConstraintOGD(_soft_cons(), T=10, dim=dim),
        lambda dim: ZeroViolationOGD(_soft_cons(), T=10, dim=dim),
        lambda dim: PenaltyOGD(_soft_cons(), 0.05, delta=1.0, dim=dim),
        lambda dim: HingeClassifierPD(dim),
    ], ids=["OGD", "IFTRL", "OMP", "BanditOMP", "SoftConstraintOGD", "ZeroViolationOGD",
            "PenaltyOGD", "HingeClassifierPD"])
    @pytest.mark.parametrize("dim", [None, 0, -2])
    def test_missing_or_nonpositive_dim_refused(self, make, dim):
        with pytest.raises(ConfigurationError, match=f"dim={dim}"):
            make(dim)

    @pytest.mark.parametrize("make", [
        lambda: OGD(Domain.ball(1.0), 0.1),
        lambda: OMP(Domain.ball(1.0), eta=0.1),
        lambda: IFTRL(Domain.ball(1.0), eta=0.5),
    ], ids=["OGD", "OMP", "IFTRL"])
    def test_default_dim_on_a_ball_refused(self, make):
        with pytest.raises(ConfigurationError, match="dim=None"):
            make()

    def test_domain_dimension_wins_over_dim(self):
        box = Domain.box(-np.ones(3), np.ones(3))
        lr = OMP(box, eta=0.1, dim=5)
        lr.observe(linear(np.ones(3)))
        assert lr.dim == 3 and lr.decisions.shape == (1, 3)


class TestFlatRecords:
    def test_records_are_fresh_read_only_rows(self):
        lr = PenaltyOGD(_soft_cons(), 0.05, delta=3.0, R=0.8, dim=2)
        rounds = list(_soft_rounds(6, 4.0))
        for l in rounds[:5]:
            lr.observe(l)
        xs, vs = lr.decisions, lr.violations
        assert xs.shape == (5, 2) and vs.shape == (5, 2)
        assert not xs.flags.writeable and not vs.flags.writeable
        lr.observe(rounds[5])   # a record held by the caller does not block a round
        assert lr.decisions.shape == (6, 2) and xs.shape == (5, 2)
        assert lr.decisions[:5].tobytes() == xs.tobytes()
        assert len(lr.loss_values) == 6

    def test_quadratic_rounds_share_one_read_only_copy(self):
        centers = np.array([[0.3, -0.4], [1.0, 2.0], [-0.0, 0.5]])
        rounds = RoundLoss.quadratic_rounds(centers)
        centers[0, 0] = 9.0     # the caller's array stays writable and detached
        shared = rounds[0].quad_center.base
        assert all(isinstance(l, RoundLoss) and l.quad_center.base is shared
                   for l in rounds)
        assert shared.tolist() == [[0.3, -0.4], [1.0, 2.0], [-0.0, 0.5]]
        with pytest.raises(ValueError):
            rounds[1].quad_center[0] = 1.0
        x = np.array([0.2, -0.7])
        for l, c in zip(rounds, shared):
            one = RoundLoss.from_quadratic(c)
            assert struct.pack("d", l.value(x)) == struct.pack("d", one.value(x))
            assert l.grad(x).tobytes() == one.grad(x).tobytes()

    def test_quadratic_rounds_need_a_matrix(self):
        with pytest.raises(InputError):
            RoundLoss.quadratic_rounds([0.3, 0.4])

    def test_soft_constraint_run_holds_under_4_mb(self):
        """The soft_constraints experiment's rounds and both learners over
        them, at the default T = 10,000: about 12.7 MB traced when each round
        held a per-round loss object with closures and an array per record."""
        params = cli.resolve_params("soft_constraints", {})
        assert params["T"] == 10_000
        cli._soft_instance(0, params)   # the first call imports numpy.random
        tracemalloc.start()
        try:
            losses, cons, T, R = cli._soft_instance(0, params)
            learners = [SoftConstraintOGD(cons, T, R=R, dim=2),
                        ZeroViolationOGD(cons, T, R=R, dim=2)]
            for l in losses:
                for lr in learners:
                    lr.observe(l)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(learners[0].decisions) == len(learners[1].decisions) == T
        assert held < 4_000_000, f"{held / 1e6:.2f} MB held"


def _counted(learner):
    """A one-item list that counts `learner`'s observe calls from now on."""
    calls, observe = [0], learner.observe

    def counting(loss):
        calls[0] += 1
        observe(loss)

    learner.observe = counting
    return calls


def _counted_prox(learner):
    """A one-item list that counts `learner`'s prox steps from now on."""
    calls, prox = [0], learner._prox

    def counting(z, g):
        calls[0] += 1
        return prox(z, g)

    learner._prox = counting
    return calls


def _as_expert_costs(seq, m=3, seed=12):
    """`seq` with each distinct loss object replaced by one nonnegative linear
    loss on m experts: the same pattern of shared rounds."""
    rng, costs = make_rng(seed), {}
    return [costs.setdefault(id(l), linear(rng.uniform(0.0, 1.0, size=m))) for l in seq]


def _broken_periods(d):
    """Runs of shared losses with periods 2 and 4, each broken by a round
    that fits no period, one of them halfway through a period."""
    a, b, c = (linear(v * np.ones(d)) for v in (0.5, -0.5, 0.25))
    return ([a, b] * 15 + [a, c] + [b, a] * 10 + [a, a, b, b] * 10 + [a, a, c]
            + [b, b, a, a] * 6)


def _equal_vectors(d, T=120):
    """Alternating ±f, each round a new object: equal vectors, no shared loss."""
    f = np.zeros(d)
    f[0] = 0.5
    return [linear(f if t % 2 == 0 else -f) for t in range(T)]


def _penalty(d):
    """PenaltyOGD on dimension d, under a ball constraint and a cut on the
    first coordinate."""
    e0 = np.eye(d)[0]
    cons = ConstraintSet(funcs=[ball_constraint(0.7), (lambda x: float(x[0]) - 0.3,
                                                       lambda x: e0)],
                         D=1.0, G=2.5, F=2.5)
    return PenaltyOGD(cons, 0.2, delta=3.0, R=0.8, dim=d)


# name: (learner factory on dimension d, its state, whether it takes expert costs)
_PLAYERS = {
    "OGD": (lambda d: OGD(UNIT, 0.2, dim=d), ("x",), False),
    "OMP": (lambda d: OMP(UNIT, eta=0.3, dim=d), ("z", "prev_grad"), False),
    "IFTRL": (lambda d: IFTRL(UNIT, eta=0.5, dim=d),
              ("z", "grad_sum", "stale_grad"), False),
    "ExpertOMP": (lambda m: ExpertOMP(m, eta=0.5), ("z", "prev_grad"), True),
    "PenaltyOGD": (_penalty, ("x",), False),
}

_FREE = 1600.0   # a variation budget of 4T: ftrl_adversary flips on every round it may

_PLAYED = {
    "alternating": lambda: alternating_linear(4.0, 400, 3),
    "ftrl-s0": lambda: ftrl_adversary(2.0, 400, _FREE),          # s = 0
    "ftrl-blocks": lambda: ftrl_adversary(0.2, 400, _FREE),      # 0 < s = 5 < √T
    "ftrl-zero-tail": lambda: ftrl_adversary(0.01, 400, _FREE),  # s = 100 ≥ √T
    "broken-periods": lambda: _broken_periods(2),
    "equal-vectors": lambda: _equal_vectors(2),
}


def _dim(seq):
    return seq[0].linear.shape[0]


def _assert_played_as_observed(played, observed, state):
    assert ([v.hex() for v in played.loss_values]
            == [v.hex() for v in observed.loss_values])
    for name, _ in played._records():   # the decisions, and any other record
        assert getattr(played, name).tobytes() == getattr(observed, name).tobytes(), name
    for name in state:
        assert getattr(played, name).tobytes() == getattr(observed, name).tobytes(), name


def _snapshot(learner) -> dict:
    """Each attribute's bytes, for an array or record; a copy of a list; else
    the object itself."""
    return {k: v.tobytes() if hasattr(v, "tobytes") else copy.copy(v) if isinstance(v, list)
            else v for k, v in vars(learner).items()}


def _unreplayed(learner, losses) -> set:
    """The attributes that a few played rounds change, other than the
    learner's declared state and the records that `play` replays."""
    before = _snapshot(learner)
    learner.play(losses)
    after = _snapshot(learner)
    changed = {k for k in after
               if k not in before or before[k] is not after[k] and before[k] != after[k]}
    return changed - set(learner._state) - {name for name, _ in learner._records()}


def _learner_classes(cls=BaseLearner):
    for sub in cls.__subclasses__():
        if sub.__module__ == BaseLearner.__module__:
            yield sub
            yield from _learner_classes(sub)


# every learner class, and what builds one
_GUARDED = {
    OGD: lambda: OGD(UNIT, 0.2, dim=2),
    IFTRL: lambda: IFTRL(UNIT, eta=0.5, dim=2),
    OMP: lambda: OMP(UNIT, eta=0.3, dim=2),
    ExpertOMP: lambda: ExpertOMP(2, eta=0.5),
    BanditOMP: lambda: BanditOMP(UNIT, delta=0.1, eta=0.5 / 2.0, dim=2),
    SoftConstraintOGD: lambda: SoftConstraintOGD(_soft_cons(), 12, R=0.8, dim=2),
    ZeroViolationOGD: lambda: ZeroViolationOGD(_soft_cons(), 12, R=0.8, dim=2),
    PenaltyOGD: lambda: PenaltyOGD(_soft_cons(), 0.3, delta=3.0, R=0.8, dim=2),
}


class TestPlay:
    """`play` gives the records and the final state of the per-round observe
    loop (frozen_kernels.observe_rounds), bit for bit, on the sequences whose
    shared rounds it replays and on those where it must not."""

    @pytest.mark.parametrize("seq", sorted(_PLAYED))
    @pytest.mark.parametrize("name", sorted(_PLAYERS))
    def test_play_is_the_observe_loop(self, name, seq):
        make, state, experts = _PLAYERS[name]
        losses = _PLAYED[seq]()
        if experts:
            losses = _as_expert_costs(losses)
        played, observed = make(_dim(losses)), make(_dim(losses))
        calls = _counted(played)
        played.play(losses)
        frozen_kernels.observe_rounds(observed, losses)
        _assert_played_as_observed(played, observed, state)
        if seq == "equal-vectors" or not played._state:
            assert calls[0] == len(losses)
        else:   # some shared rounds were replayed
            assert calls[0] < len(losses)

    def test_a_repeated_state_with_another_loss_is_computed(self):
        # OGD at eta = 0.2 plays x = -0.8 at rounds 4 and 6, against +f, then -f
        losses = ftrl_adversary(0.2, 400, _FREE)[:10]
        lr = OGD(UNIT, 0.2, dim=1)
        calls = _counted(lr)
        lr.play(losses)
        assert lr.decisions[4].tobytes() == lr.decisions[6].tobytes()
        assert lr.decisions[4][0] == -0.8 and losses[4] is not losses[6]
        assert calls[0] == 10

    @pytest.mark.parametrize("name", ["OGD", "OMP", "IFTRL"])
    def test_rounds_observed_before_play_keep_their_place(self, name):
        make, state, _ = _PLAYERS[name]
        first, rest = _mixed_losses(7, 3, 13), alternating_linear(4.0, 300, 3)
        played, observed = make(3), make(3)
        frozen_kernels.observe_rounds(played, first)
        calls = _counted(played)
        played.play(rest)
        frozen_kernels.observe_rounds(observed, first + rest)
        assert calls[0] < 20    # rounds were replayed past the first seven
        _assert_played_as_observed(played, observed, state)

    @pytest.mark.parametrize("make", [
        lambda egv: OMP(UNIT, eta=OMP.tuned_eta(egv), dim=5),
        lambda egv: IFTRL(UNIT, eta=min(1.0, 1.0 / math.sqrt(egv)), dim=5),
    ], ids=["OMP", "IFTRL"])
    @pytest.mark.parametrize("egv", [1.0, 64.0])
    def test_a_gv_regret_sweep_level_computes_a_handful_of_rounds(self, make, egv):
        # 50,000 replayed decision floats: the records grow in several chunks
        seq = alternating_linear(egv, 10_000, 5)
        played, observed = make(egv), make(egv)
        calls = _counted(played)
        played.play(seq)
        frozen_kernels.observe_rounds(observed, seq)
        assert calls[0] <= 5
        _assert_played_as_observed(played, observed, played._state)

    @pytest.mark.parametrize("make", [lambda: ExpertOMP(3, eta=0.5)], ids=["ExpertOMP"])
    def test_a_learner_that_names_no_state_computes_every_round(self, make):
        lr = make()
        calls = _counted(lr)
        lr.play([linear(np.ones(lr.dim))] * 500)
        assert not lr._state and calls[0] == 500

    def test_every_learner_class_is_guarded(self):
        assert set(_learner_classes()) == set(_GUARDED)

    @pytest.mark.parametrize("cls", sorted(_GUARDED, key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_declared_state_is_all_a_round_changes(self, cls):
        # a learner that names a state must change nothing else in a round
        # but its two records; one that changes more must name none
        lr = _GUARDED[cls]()
        assert all(getattr(lr, a).dtype == np.float64 for a in lr._state)
        losses = [linear(v) for v in make_rng(14).uniform(0.0, 1.0, size=(6, lr.dim))]
        changed = _unreplayed(lr, losses)
        assert not (lr._state and changed), f"{cls.__name__} also changes {changed}"

    def test_the_guard_sees_a_field_outside_the_state(self):
        class Counting(OGD):   # inherits OGD's state, but counts its rounds too
            def _direction(self, x, g):
                self.rounds = getattr(self, "rounds", 0) + 1
                return super()._direction(x, g)

        losses = [linear(v) for v in make_rng(15).uniform(0.0, 1.0, size=(4, 2))]
        assert _unreplayed(Counting(UNIT, 0.2, dim=2), losses) == {"rounds"}
