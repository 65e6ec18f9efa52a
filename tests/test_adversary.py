"""Loss-sequence generators and variation measures."""

import math

import numpy as np
import pytest

from smoothconvex import adversary
from smoothconvex.core import Domain, InputError, make_rng
from smoothconvex.adversary import (alternating_linear, classification_stream,
                                    drifting_quadratics, ftrl_adversary,
                                    measure_egv_exact, measure_egv_inf)
from smoothconvex.online import OGD, RoundLoss

import frozen_kernels
from frozen_kernels import measure_egv


def free(T):
    """A variation budget of 4T: ftrl_adversary flips on every round it may."""
    return 4.0 * T


class TestFtrlAdversary:
    def test_case_split(self):
        def signs(seq):
            return [l.linear[0] for l in seq]
        # case II, s = 1 < sqrt(6): flip every s rounds
        assert signs(ftrl_adversary(1.0, 6, free(6))) == [1.0, -1.0] * 3
        # case III, s = 0: start negative, then alternate every round
        assert signs(ftrl_adversary(2.0, 6, free(6))) == [-1.0, 1.0] * 3
        # case I, s = 20 >= 10: s/2 rounds of the unit vector, zeros after
        assert signs(ftrl_adversary(0.05, 100, free(100))) == [1.0] * 10 + [0.0] * 90

    def test_case2_period_pattern(self):
        seq = ftrl_adversary(1.0, 6, free(6))
        signs = [l.linear[0] for l in seq]
        assert signs == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]

    def test_case3_starts_negative(self):
        seq = ftrl_adversary(2.0, 5, free(5))
        signs = [l.linear[0] for l in seq]
        assert signs[0] == -1.0
        assert signs[1] == 1.0 and signs[2] == -1.0

    def test_ogd_pays_on_the_construction(self):
        eta, T = 0.01, 10_000
        seq = ftrl_adversary(eta, T, free(T))
        dom = Domain.ball(1.0)
        learner = OGD(dom, eta, dim=1)
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
        a = seq[6].linear
        b = seq[6].linear
        np.testing.assert_array_equal(a, b)


class TestDriftingQuadratics:
    def test_zero_speed_constant(self):
        seq = drifting_quadratics(0.0, 20, 3)
        c0 = seq[0].quad_center
        for l in seq:
            np.testing.assert_array_equal(l.quad_center, c0)
        # extended variation over rounds 2..T vanishes; round 1 term remains
        pts = [np.zeros(3)] * 20
        assert measure_egv(seq, pts) == pytest.approx(float(c0 @ c0))

    def test_single_round_first_term_only(self):
        seq = drifting_quadratics(0.3, 1, 2)
        pts = [np.zeros(2)]
        g1 = seq[0].grad(pts[0])
        assert measure_egv(seq, pts) == pytest.approx(float(g1 @ g1))

    def test_rounds_share_one_read_only_center_array(self):
        T, d, speed, radius = 40, 3, 0.07, 0.4
        seq = drifting_quadratics(speed, T, d, radius=radius)
        shared = seq[0].quad_center.base
        assert shared.shape == (T, d) and not shared.flags.writeable
        assert all(l.quad_center.base is shared for l in seq)
        want = [[radius * math.cos(speed * t), radius * math.sin(speed * t), 0.0]
                for t in range(T)]
        assert shared.tolist() == want

    def test_closed_form_center_drift(self):
        T, speed, r = 50, 0.07, 0.4
        seq = drifting_quadratics(speed, T, 2, radius=r)
        brute = 0.0
        prev = None
        y = np.zeros(2)
        for l in seq:
            g = l.grad(y)
            p = np.zeros(2) if prev is None else prev
            brute += float((g - p) @ (g - p))
            prev = g
        assert abs(measure_egv_exact(seq) - brute) < 1e-10
        # r² from round 1 at the origin, then a chord 2r·sin(s/2) each round
        assert abs(r * r + (T - 1) * (2 * r * math.sin(speed / 2)) ** 2 - brute) < 1e-10


class TestAlternatingLinear:
    def test_hits_target_variation(self):
        for egv in (1.0, 4.0, 16.0, 64.0):
            seq = alternating_linear(egv, 500, 3)
            assert measure_egv_exact(seq) == pytest.approx(egv, rel=1e-9)

    def test_rejects_nonpositive(self):
        for egv in (0.0, math.nan):
            with pytest.raises(InputError):
                alternating_linear(egv, 10, 2)


@pytest.mark.parametrize("build", [
    lambda: ftrl_adversary(math.nan, 3, free(3)),
    lambda: ftrl_adversary(-0.5, 3, free(3)),
    lambda: ftrl_adversary(0.5, 3, math.nan),
    lambda: ftrl_adversary(0.5, 3, math.inf),
    lambda: ftrl_adversary(0.5, 3, -4.0),
    lambda: drifting_quadratics(math.nan, 3, 2),
    lambda: drifting_quadratics(-0.1, 3, 2),
    lambda: classification_stream(math.nan, 3, 2),
], ids=["ftrl-nan", "ftrl-negative", "ftrl-budget-nan", "ftrl-budget-inf",
        "ftrl-budget-negative", "drifting-nan", "drifting-negative", "stream-nan"])
def test_bad_parameter_refused(build):
    # the NaN cases built NaN rounds, or raised a bare ValueError (ftrl); a
    # negative budget built a sequence of zeros
    with pytest.raises(InputError):
        build()


class TestClassificationStream:
    def test_examples_are_one_read_only_array_of_unit_rows(self):
        ex = classification_stream(0.2, 50, 3, seed=4)
        assert ex.shape == (50, 3) and ex.dtype == np.float64
        assert ex.flags.c_contiguous and not ex.flags.writeable
        np.testing.assert_allclose(np.linalg.norm(ex, axis=1), 1.0, rtol=1e-12)
        with pytest.raises(ValueError):
            ex[0, 0] = 1.0

    def test_zero_drift_identical(self):
        ex = classification_stream(0.0, 10, 3, seed=1)
        for e in ex:
            np.testing.assert_array_equal(e, ex[0])

    def test_step_norm_matches_drift(self):
        drift = 0.015
        ex = classification_stream(drift, 200, 4, seed=2)
        # consecutive points on the sphere: chord close to the raw step
        for a, b in zip(ex[:-1], ex[1:]):
            assert abs(np.linalg.norm(b - a) - drift) <= 0.2 * drift

    def test_empirical_variation_close_to_T_drift_squared(self):
        drift, T = 0.01, 2000
        ex = classification_stream(drift, T, 3, seed=3)
        total = sum(float((b - a) @ (b - a)) for a, b in zip(ex[:-1], ex[1:]))
        assert abs(total - T * drift * drift) <= 0.2 * T * drift * drift


class TestVariationMeasures:
    def test_constant_sequence_first_term_only(self):
        f = np.array([0.3, 0.4])
        seq = [RoundLoss.from_linear(f)] * 5
        pts = [np.ones(2) * k for k in range(5)]
        assert measure_egv(seq, pts) == pytest.approx(float(f @ f))

    def test_infinity_norm_variant(self):
        seq = [RoundLoss.from_linear(np.array([0.5, 0.2])),
               RoundLoss.from_linear(np.array([0.1, 0.9]))]
        want = 0.5 ** 2 + 0.7 ** 2
        assert measure_egv_inf(seq) == pytest.approx(want)

    @pytest.mark.parametrize("linear_first", [True, False], ids=["linear-first",
                                                                 "quadratic-first"])
    def test_exact_variation_refuses_mixed_kinds(self, linear_first):
        # the point form on this pair is 1.25 at (0.5, 0.5) and 3.25 at
        # (1, -1): no one probe-free value exists, so none is returned
        rounds = [RoundLoss.from_linear(np.array([1.0, 0.0])),
                  RoundLoss.from_quadratic(np.array([0.0, 0.5]))]
        seq = rounds if linear_first else rounds[::-1]
        with pytest.raises(InputError, match="all-linear or all-quadratic"):
            measure_egv_exact(seq)


_SIZED = {
    "alternating": lambda T, d: alternating_linear(1.0, T, d),
    "ftrl": lambda T, d: ftrl_adversary(0.5, T, 0.0),   # 1-D: no d to refuse
    "drifting": lambda T, d: drifting_quadratics(0.1, T, d),
    "classification": lambda T, d: classification_stream(0.1, T, d),
}


@pytest.mark.parametrize("build,T,d", [
    pytest.param(build, T, d, id=f"{T}-{d}-{name}")
    for name, build in _SIZED.items()
    for T, d in ([(0, 1), (-1, 1)] if name == "ftrl" else [(0, 2), (-1, 2), (3, 0), (3, -2)])])
def test_generator_refuses_empty_sizes(build, T, d):
    with pytest.raises(InputError, match=f"got T={T}, d={d}"):
        build(T, d)


def _one_object_per_round(name, *args):
    """Per-round cost vectors of the generators as built with one RoundLoss
    per round (the reference the shared-object generators must reproduce)."""
    if name == "alternating":
        egv, T, d = args
        f = np.zeros(d)
        f[0] = math.sqrt(egv / (4.0 * T - 3.0))
        return [f if t % 2 == 0 else -f for t in range(T)]
    eta, T, gv = args   # ftrl
    f = np.array([1.0])
    s = math.floor(1.0 / eta)
    if s >= math.sqrt(T):
        out = [f] * min(s // 2, T)
    elif s > 0:
        out = ([f] * s + [-f] * s) * min(T // (2 * s), int(gv // 4))
    else:
        budget = min(T - 1, int(gv // 4))
        out, sign = [-f], 1.0
        for _ in range(budget):
            out.append(sign * f)
            sign = -sign
    return out + [np.zeros(1)] * (T - len(out))


SHARED_GENERATORS = [
    pytest.param("alternating", alternating_linear, (16.0, 301, 4), id="alternating"),
    pytest.param("ftrl", ftrl_adversary, (0.05, 100, free(100)), id="ftrl-case-I"),
    pytest.param("ftrl", ftrl_adversary, (0.2, 300, 200.0), id="ftrl-case-II"),
    pytest.param("ftrl", ftrl_adversary, (2.0, 301, 400.0), id="ftrl-case-III"),
]


class TestSharedRoundObjects:
    @pytest.mark.parametrize("name,build,args", SHARED_GENERATORS)
    def test_rounds_equal_one_object_per_round(self, name, build, args):
        seq = build(*args)
        want = _one_object_per_round(name, *args)
        assert len(want) == len(seq)
        for t, f in enumerate(want):
            np.testing.assert_array_equal(seq[t].linear, f, strict=True)
            assert np.signbit(seq[t].linear).tolist() == np.signbit(f).tolist()
        # each distinct cost vector is one object
        assert len({id(l) for l in seq}) == len({tuple(f) for f in want})

    @pytest.mark.parametrize("name,build,args", SHARED_GENERATORS)
    def test_exact_variation_equals_point_form_at_origin(self, name, build, args):
        seq = build(*args)
        d = seq[0].linear.shape[0]
        assert measure_egv_exact(seq) == measure_egv(seq, [np.zeros(d)] * len(seq))


def _two_blocks(m, T, seed):
    """expert_switch's sequence: one shared cost vector for the first T // 2
    rounds, another for the rest."""
    rng = make_rng(seed)
    c1, c2 = rng.uniform(0.0, 1.0, size=m), rng.uniform(0.0, 1.0, size=m)
    return [RoundLoss.from_linear(c1)] * (T // 2) + [RoundLoss.from_linear(c2)] * (T - T // 2)


def _one_object_each(seq):
    """The same cost vectors, each round its own RoundLoss."""
    return [RoundLoss.from_linear(l.linear.copy()) for l in seq]


VARIATION_SEQUENCES = [
    pytest.param(lambda: alternating_linear(16.0, 301, 4), id="alternating"),
    pytest.param(lambda: ftrl_adversary(0.05, 100, free(100)), id="ftrl-case-I"),
    pytest.param(lambda: ftrl_adversary(0.2, 300, 200.0), id="ftrl-case-II"),
    pytest.param(lambda: ftrl_adversary(2.0, 301, 400.0), id="ftrl-case-III"),
    pytest.param(lambda: _two_blocks(16, 777, 3), id="two-blocks"),
    pytest.param(lambda: _one_object_each(alternating_linear(4.0, 300, 3)),
                 id="alternating-one-object-each"),
    pytest.param(lambda: _one_object_each(_two_blocks(4, 101, 0)),
                 id="two-blocks-one-object-each"),
    pytest.param(lambda: [RoundLoss.from_linear(v) for v in
                          make_rng(9).standard_normal((200, 3))], id="distinct-values"),
]


class TestVariationPairs:
    """measure_egv_exact and measure_egv_inf price each distinct (previous,
    current) pair of round objects once."""

    @pytest.mark.parametrize("build", VARIATION_SEQUENCES)
    def test_bits_equal_the_per_round_loops(self, build):
        seq = build()
        assert measure_egv_exact(seq).hex() == frozen_kernels.measure_egv_exact_linear(seq).hex()
        assert measure_egv_inf(seq).hex() == frozen_kernels.measure_egv_inf(seq).hex()

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: drifting_quadratics(0.07, 300, 3, radius=0.4), id="drifting"),
        pytest.param(lambda: drifting_quadratics(0.0, 50, 2), id="drifting-still"),
        pytest.param(lambda: RoundLoss.quadratic_rounds(make_rng(10).standard_normal((200, 4))),
                     id="random-centers"),
        pytest.param(lambda: [RoundLoss.from_quadratic(c)
                              for c in (np.full(2, -0.0), np.array([0.5, -1.5]))] * 40,
                     id="shared-with-signed-zeros"),
    ])
    def test_quadratic_bits_equal_the_point_form_at_the_origin(self, build):
        seq = build()
        origin = np.zeros_like(seq[0].quad_center)
        assert measure_egv_exact(seq).hex() == measure_egv(seq, [origin] * len(seq)).hex()

    @pytest.mark.parametrize("build", VARIATION_SEQUENCES)
    def test_each_distinct_pair_priced_once(self, build, monkeypatch):
        seq = build()
        pairs = {(id(p), id(c)) for p, c in zip([None] + seq, seq)}
        for name in ("_origin_sq", "_inf_sq"):
            priced, term = [], getattr(adversary, name)
            monkeypatch.setattr(adversary, name,
                                lambda p, c, term=term, priced=priced:
                                priced.append((id(p), id(c))) or term(p, c))
            measure_egv_exact(seq) if name == "_origin_sq" else measure_egv_inf(seq)
            assert sorted(priced) == sorted(pairs), name

    def test_infinity_norm_refuses_a_quadratic_round(self):
        f = RoundLoss.from_linear(np.array([0.5, 0.2]))
        for seq in ([f, f, RoundLoss.from_quadratic(np.zeros(2))],
                    [RoundLoss.from_quadratic(np.zeros(2)), f]):
            with pytest.raises(InputError, match="needs linear losses"):
                measure_egv_inf(seq)
