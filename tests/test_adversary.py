"""Loss-sequence generators and variation measures."""

import math

import numpy as np
import pytest

from smoothconvex.core import Domain, InputError, StepSchedule, make_rng
from smoothconvex.adversary import (LossSequence, alternating_linear,
                                    classification_stream, drifting_quadratics,
                                    ftrl_adversary, measure_egv, measure_egv_exact,
                                    measure_egv_inf)
from smoothconvex.online import OGD, RoundLoss


class TestFtrlAdversary:
    def test_case_split(self):
        assert ftrl_adversary(1.0, 6).meta["case"] == "II"  # s = 1 < sqrt(6)
        assert ftrl_adversary(2.0, 6).meta["case"] == "III"  # s = 0
        assert ftrl_adversary(0.05, 100).meta["case"] == "I"  # s = 20 >= 10

    def test_case2_period_pattern(self):
        seq = ftrl_adversary(1.0, 6)
        signs = [l.linear[0] for l in seq]
        assert signs == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]

    def test_case3_starts_negative(self):
        seq = ftrl_adversary(2.0, 5)
        signs = [l.linear[0] for l in seq]
        assert signs[0] == -1.0
        assert signs[1] == 1.0 and signs[2] == -1.0

    def test_ogd_pays_on_the_construction(self):
        eta, T = 0.01, 10_000
        seq = ftrl_adversary(eta, T)
        dom = Domain.ball(1.0)
        learner = OGD(dom, StepSchedule.constant(eta), dim=1)
        for l in seq:
            learner.observe(l)
        # comparator by exhaustive 1-D grid at 1e-3
        total = sum(l.linear[0] for l in seq)
        grid = np.arange(-1.0, 1.0 + 5e-4, 1e-3)
        best = float(np.min(total * grid))
        learner_loss = sum(float(l.linear[0] * x[0]) for l, x in zip(seq, learner.decisions))
        measured = learner_loss - best
        gv = sum(float((a.linear - b.linear) @ (a.linear - b.linear))
                 for a, b in zip(list(seq)[1:], list(seq)[:-1]))
        assert measured >= 0.1 * min(gv, math.sqrt(T))

    def test_generator_pure(self):
        seq = ftrl_adversary(0.2, 50, gv_target=40.0)
        a = seq.loss(7).linear
        b = seq.loss(7).linear
        np.testing.assert_array_equal(a, b)


class TestDriftingQuadratics:
    def test_zero_speed_constant(self):
        seq = drifting_quadratics(0.0, 20, 3)
        c0 = seq.loss(1).quad_center
        for l in seq:
            np.testing.assert_array_equal(l.quad_center, c0)
        # extended variation over rounds 2..T vanishes; round 1 term remains
        pts = [np.zeros(3)] * 20
        assert measure_egv(seq, pts) == pytest.approx(float(c0 @ c0))

    def test_single_round_first_term_only(self):
        seq = drifting_quadratics(0.3, 1, 2)
        pts = [np.zeros(2)]
        g1 = seq.loss(1).grad(pts[0])
        assert measure_egv(seq, pts) == pytest.approx(float(g1 @ g1))

    def test_rounds_share_one_read_only_center_array(self):
        T, d, speed, radius = 40, 3, 0.07, 0.4
        seq = drifting_quadratics(speed, T, d, radius=radius)
        shared = seq.loss(1).quad_center.base
        assert shared.shape == (T, d) and not shared.flags.writeable
        assert all(l.quad_center.base is shared for l in seq)
        assert "centers" not in seq.meta
        want = [[radius * math.cos(speed * t), radius * math.sin(speed * t), 0.0]
                for t in range(T)]
        assert shared.tolist() == want

    def test_closed_form_center_drift(self):
        seq = drifting_quadratics(0.07, 50, 2, radius=0.4)
        brute = 0.0
        prev = None
        y = np.zeros(2)
        for l in seq:
            g = l.grad(y)
            p = np.zeros(2) if prev is None else prev
            brute += float((g - p) @ (g - p))
            prev = g
        assert abs(measure_egv_exact(seq) - brute) < 1e-10
        assert abs(seq.egv_target - brute) < 1e-10


class TestAlternatingLinear:
    def test_hits_target_variation(self):
        for egv in (1.0, 4.0, 16.0, 64.0):
            seq = alternating_linear(egv, 500, 3)
            assert measure_egv_exact(seq) == pytest.approx(egv, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            alternating_linear(0.0, 10, 2)


class TestClassificationStream:
    def test_zero_drift_identical(self):
        seq = classification_stream(0.0, 10, 3, seed=1)
        ex = seq.meta["examples"]
        for e in ex:
            np.testing.assert_array_equal(e, ex[0])

    def test_step_norm_matches_drift(self):
        drift = 0.015
        seq = classification_stream(drift, 200, 4, seed=2)
        ex = seq.meta["examples"]
        # consecutive points on the sphere: chord close to the raw step
        for a, b in zip(ex[:-1], ex[1:]):
            assert abs(np.linalg.norm(b - a) - drift) <= 0.2 * drift

    def test_empirical_variation_close_to_T_drift_squared(self):
        drift, T = 0.01, 2000
        seq = classification_stream(drift, T, 3, seed=3)
        ex = seq.meta["examples"]
        total = sum(float((b - a) @ (b - a)) for a, b in zip(ex[:-1], ex[1:]))
        assert abs(total - T * drift * drift) <= 0.2 * T * drift * drift

    def test_hinge_loss_values(self):
        seq = classification_stream(0.0, 3, 2, seed=4)
        gx = seq.meta["examples"][0]
        l = seq.loss(1)
        w = 0.5 * gx
        assert l.value(w) == pytest.approx(1.0 - 0.5 * float(gx @ gx))
        np.testing.assert_allclose(l.grad(w), -gx)
        far = 2.0 * gx
        assert l.value(far) == 0.0
        np.testing.assert_array_equal(l.grad(far), np.zeros(2))


class TestVariationMeasures:
    def test_constant_sequence_first_term_only(self):
        f = np.array([0.3, 0.4])
        seq = LossSequence(T=5, kind="c", _losses=[RoundLoss.from_linear(f)] * 5)
        pts = [np.ones(2) * k for k in range(5)]
        assert measure_egv(seq, pts) == pytest.approx(float(f @ f))

    def test_linear_sequence_probe_independent(self):
        rng = make_rng(5)
        vecs = rng.uniform(-1, 1, size=(6, 2))
        seq = LossSequence(T=6, kind="lin",
                           _losses=[RoundLoss.from_linear(v) for v in vecs])
        a = measure_egv(seq, [rng.standard_normal(2) for _ in range(6)])
        b = measure_egv(seq, [np.zeros(2)] * 6)
        assert a == pytest.approx(b, abs=1e-12)

    def test_infinity_norm_variant(self):
        seq = LossSequence(T=2, kind="lin", _losses=[
            RoundLoss.from_linear(np.array([0.5, 0.2])),
            RoundLoss.from_linear(np.array([0.1, 0.9]))])
        want = 0.5 ** 2 + 0.7 ** 2
        assert measure_egv_inf(seq) == pytest.approx(want)


class TestLossSequenceLength:
    @pytest.mark.parametrize("n", [3, 6])
    def test_loss_count_other_than_T_refused(self, n):
        # three losses for five rounds once iterated three rounds, and
        # measure_egv_exact raised a bare IndexError on them
        with pytest.raises(InputError, match="T=5"):
            LossSequence(T=5, kind="c", _losses=[RoundLoss.from_linear(np.ones(2))] * n)


def _one_object_per_round(name, *args, **kw):
    """Per-round cost vectors of the generators as built with one RoundLoss
    per round (the reference the shared-object generators must reproduce)."""
    if name == "alternating":
        egv, T, d = args
        f = np.zeros(d)
        f[0] = math.sqrt(egv / (4.0 * T - 3.0))
        return [f if t % 2 == 0 else -f for t in range(T)]
    eta, T = args   # ftrl
    gv, f = kw.get("gv_target"), np.array([1.0])
    s = math.floor(1.0 / eta)
    if s >= math.sqrt(T):
        out = [f] * min(s // 2, T)
    elif s > 0:
        tau = T // (2 * s) if gv is None else min(T // (2 * s), int(gv // 4))
        out = ([f] * s + [-f] * s) * tau
    else:
        budget = T - 1 if gv is None else min(T - 1, int(gv // 4))
        out, sign = [-f], 1.0
        for _ in range(budget):
            out.append(sign * f)
            sign = -sign
    return out + [np.zeros(1)] * (T - len(out))


SHARED_GENERATORS = [
    pytest.param("alternating", lambda: alternating_linear(16.0, 301, 4), (16.0, 301, 4),
                 {}, id="alternating"),
    pytest.param("ftrl", lambda: ftrl_adversary(0.05, 100), (0.05, 100), {},
                 id="ftrl-case-I"),
    pytest.param("ftrl", lambda: ftrl_adversary(0.2, 300, gv_target=200.0), (0.2, 300),
                 {"gv_target": 200.0}, id="ftrl-case-II"),
    pytest.param("ftrl", lambda: ftrl_adversary(2.0, 301, gv_target=400.0), (2.0, 301),
                 {"gv_target": 400.0}, id="ftrl-case-III"),
]


class TestSharedRoundObjects:
    @pytest.mark.parametrize("name,build,args,kw", SHARED_GENERATORS)
    def test_rounds_equal_one_object_per_round(self, name, build, args, kw):
        seq = build()
        want = _one_object_per_round(name, *args, **kw)
        assert len(want) == seq.T == len(list(seq))
        for t, f in enumerate(want, start=1):
            np.testing.assert_array_equal(seq.loss(t).linear, f, strict=True)
            assert np.signbit(seq.loss(t).linear).tolist() == np.signbit(f).tolist()
        # each distinct cost vector is one object
        assert len({id(l) for l in seq}) == len({tuple(f) for f in want})

    @pytest.mark.parametrize("name,build,args,kw", SHARED_GENERATORS)
    def test_exact_variation_equals_point_form_at_origin(self, name, build, args, kw):
        seq = build()
        d = seq.loss(1).linear.shape[0]
        assert measure_egv_exact(seq) == measure_egv(seq, [np.zeros(d)] * seq.T)
