"""Foundations: projections, mirror maps, prox steps, clipping, oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothconvex.core import (_norm, ConfigurationError, Domain, DomainError,
                               InputError, MirrorMap, StepSchedule,
                               UnsupportedDomainError, ball_projector, bregman,
                               clip_component, dykstra, make_rng, project_ball,
                               project_l1_ball, project_simplex, project_two_balls,
                               prox_map, prox_step,
                               two_ball_projector)
from smoothconvex.problems import from_arrays

import frozen_kernels


def all_domains(d=4):
    return [
        Domain.ball(1.0),
        Domain.ball(2.5),
        Domain.box(-np.ones(d), 2 * np.ones(d)),
        Domain.simplex(d),
        Domain.l1_ball(1.5, dim=4),
        Domain.halfspace_cut(np.array([1.0, 0.5, -0.3, 0.2]), 0.4),
    ]


def simplex_projection_active_set(x):
    """Exhaustive oracle for d <= 4: enumerate all support sets and solve the
    equality-constrained least squares on each, keeping the best feasible."""
    d = len(x)
    best, best_val = None, math.inf
    for mask in range(1, 2 ** d):
        idx = [i for i in range(d) if mask >> i & 1]
        # on support S: p_i = x_i - theta with sum = 1
        theta = (sum(x[i] for i in idx) - 1.0) / len(idx)
        p = np.zeros(d)
        for i in idx:
            p[i] = x[i] - theta
        if np.any(p < -1e-12):
            continue
        val = float(np.sum((p - x) ** 2))
        if val < best_val:
            best, best_val = p, val
    return best


class TestProjection:
    def test_ball_radial_scaling(self):
        out = Domain.ball(1.0).project(np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_simplex_feasible_passthrough(self):
        x = np.array([0.3, 0.2, 0.5])
        np.testing.assert_array_equal(Domain.simplex(3).project(x), x)

    def test_simplex_matches_active_set_oracle(self):
        # frozen from the exhaustive active-set oracle
        out = Domain.simplex(3).project(np.array([1.2, -0.2, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
        rng = make_rng(42)
        for _ in range(200):
            x = rng.uniform(-2, 2, size=4)
            got = Domain.simplex(4).project(x)
            want = simplex_projection_active_set(x)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            Domain.box([-1.0, -1.0], [1.0, 1.0]).project(np.zeros(3))

    def test_empty_box_rejected(self):
        with pytest.raises(ConfigurationError):
            Domain.box([1.0], [0.0])

    @pytest.mark.parametrize("dom", all_domains(), ids=lambda d: d.kind + str(d.r))
    def test_idempotence(self, dom):
        rng = make_rng(7)
        for _ in range(1000):
            x = rng.uniform(-3, 3, size=4)
            p = dom.project(x)
            p2 = dom.project(p)
            assert np.max(np.abs(p2 - p)) <= 1e-12

    @pytest.mark.parametrize("dom", all_domains(), ids=lambda d: d.kind + str(d.r))
    def test_optimality_vs_random_feasible(self, dom):
        rng = make_rng(8)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=4)
            p = dom.project(x)
            y = dom.sample(rng, dim=4)
            assert np.linalg.norm(x - p) <= np.linalg.norm(x - y) + 1e-12

    @pytest.mark.parametrize("dom", all_domains(), ids=lambda d: d.kind + str(d.r))
    def test_nonexpansive(self, dom):
        rng = make_rng(9)
        for _ in range(500):
            x = rng.uniform(-3, 3, size=4)
            y = rng.uniform(-3, 3, size=4)
            px, py = dom.project(x), dom.project(y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    @pytest.mark.parametrize("dom", all_domains(), ids=lambda d: d.kind + str(d.r))
    def test_membership_iff_constraint(self, dom):
        rng = make_rng(10)
        for _ in range(300):
            x = rng.uniform(-1.5, 1.5, size=4)
            if dom.kind == "halfspace_cut" and np.linalg.norm(x) > dom.outer_radius:
                continue
            assert dom.contains(x) == (dom.g(x) <= 1e-10)

    @pytest.mark.parametrize("dom", all_domains(), ids=lambda d: d.kind + str(d.r))
    def test_boundary_gradient_bounds(self, dom):
        rng = make_rng(11)
        for _ in range(200):
            outside = rng.uniform(-3, 3, size=4) * 2.0
            b = dom.project(outside)
            if abs(dom.g(b)) > 1e-6:  # interior landed (already feasible start)
                continue
            n = np.linalg.norm(dom.g_grad(b))
            assert dom.rho - 1e-9 <= n <= dom.G2 + 1e-9


class TestNorm:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_bitwise_equal_to_linalg_norm(self, n):
        rng = make_rng(100 + n)
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            base = rng.standard_normal(4 * n) * scale
            for v in (base[:n], base[::4], base[1::3][:n], base[::-1][:n],
                      base.reshape(n, 4)[:, 2]):
                assert _norm(v) == np.linalg.norm(v)


class TestTwoBallProjection:
    def test_matches_dykstra(self):
        rng = make_rng(3)
        for _ in range(300):
            c2 = rng.uniform(-0.8, 0.8, size=3)
            r1, r2 = 1.0, float(rng.uniform(0.4, 1.2))
            if np.linalg.norm(c2) > r1 + r2 - 0.05:
                continue
            x = rng.uniform(-3, 3, size=3)
            got = project_two_balls(x, np.zeros(3), r1, c2, r2)
            want = dykstra(x, [lambda v: project_ball(v, r1),
                               lambda v, c2=c2, r2=r2: project_ball(v, r2, c2)],
                           rounds=2000, tol=1e-14)
            np.testing.assert_allclose(got, want, atol=1e-7)
            assert np.linalg.norm(got) <= r1 + 1e-9
            assert np.linalg.norm(got - c2) <= r2 + 1e-9


def _two_ball_instances():
    """Random two-ball instances, (x, c1, r1, c2, r2), that reach every branch
    of the projection: x inside ball 1, its ball-1 projection feasible, the
    ball-2 projection, the ring, and the ring's degenerate axis (tangent balls
    at large scale, x on the line of centers, where rounding leaves both
    single-ball projections outside the other ball).  Some centers are zero
    and some points hold signed zeros."""
    rng = make_rng(21)
    for k in range(600):
        d = int(rng.integers(1, 6))
        if k % 3 == 2 and d > 1:
            s = 10.0 ** int(rng.integers(3, 7))
            r1, r2 = s * rng.uniform(0.5, 1.5), s * rng.uniform(0.5, 1.5)
            n = np.eye(d)[int(rng.integers(d))]
            c1 = rng.uniform(-1, 1, size=d)
            yield c1 + rng.uniform(-10, 10) * s * n, c1, r1, c1 + (r1 + r2) * n, r2
        else:
            c1, c2 = rng.uniform(-1, 1, size=d), rng.uniform(-1, 1, size=d)
            # zero centers, of either sign, as the epoch solvers pass them
            if k % 5 == 0:
                c1 = np.zeros(d) * rng.choice([1.0, -1.0])
            if k % 7 == 0:
                c2 = np.zeros(d) * rng.choice([1.0, -1.0])
            r1, r2 = rng.uniform(0.1, 1.5, size=2)
            if np.linalg.norm(c1 - c2) > r1 + r2:
                continue
            x = rng.uniform(-3, 3, size=d) * rng.choice([0.2, 1.0])
            if k % 4 == 1:  # signed zeros in the point
                x[rng.uniform(size=d) < 0.5] = rng.choice([0.0, -0.0])
            yield x, c1, r1, c2, r2


class TestTwoBallProjector:
    def test_bitwise_equal_to_per_call_projection(self):
        branches = set()
        for x, c1, r1, c2, r2 in _two_ball_instances():
            want, branch = frozen_kernels.project_two_balls_branch(x, c1, r1, c2, r2)
            if branch == "ball1" and np.linalg.norm(x - c1) <= r1:
                branch = "inside"
            branches.add(branch)
            xin = x.copy()
            got = two_ball_projector(c1, r1, c2, r2)(x)
            assert got.tobytes() == want.tobytes() and np.all(np.isfinite(got))
            once = project_two_balls(x, c1, r1, c2, r2)
            assert once.tobytes() == want.tobytes()
            assert once is not x and not np.shares_memory(once, x)
            assert x.tobytes() == xin.tobytes()
        assert branches == {"inside", "ball1", "p2", "ring", "axis"}

    def test_pretest_boundary_bitwise_equal_to_per_call_projection(self):
        # c2 = ±0 and c1 nonzero, as in mixed_grad's shifted frame, with
        # ‖x‖ + ‖c1‖ a few ulps either side of r1 (x antiparallel to c1, so
        # that ‖x − c1‖ is that sum) or of the pre-test's threshold
        # r1·(1 − 4(d + 4)·2⁻⁵²); r2 lets ball 2 bind or not.  At the scale
        # 1e-160 the squares in the norms underflow.
        rng = make_rng(34)
        eps = 2.0**-52
        branches = set()
        for d, scale in itertools.product(range(1, 51), (1.0, 1e-160)):
            for k in range(-12, 13):
                e = rng.standard_normal(d)
                e /= np.linalg.norm(e)
                r1 = float(rng.uniform(0.5, 2.0)) * scale
                c1 = float(rng.uniform(0.05, 0.95)) * r1 * e
                for level in (1.0, 1.0 - 4 * (d + 4) * eps):
                    total = r1 * level * (1.0 + k * eps)
                    t = total - np.linalg.norm(c1)
                    away = rng.standard_normal(d)
                    for x in (-t * e, t * away / np.linalg.norm(away)):
                        r2 = t * float(rng.choice([0.5, 1.0 - 1e-15, 1.0, 3.0]))
                        c2 = np.zeros(d) * rng.choice([1.0, -1.0])
                        want, branch = frozen_kernels.project_two_balls_branch(
                            x, c1, r1, c2, r2)
                        if branch == "ball1" and np.linalg.norm(x - c1) <= r1:
                            branch = "inside"
                        branches.add(branch)
                        got = two_ball_projector(c1, r1, c2, r2)(x)
                        assert got.tobytes() == want.tobytes(), (d, k, level)
        assert branches == {"inside", "ball1", "p2"}

    def test_one_projector_serves_many_points(self):
        c1, c2 = np.zeros(3), np.array([0.9, 0.2, 0.0])
        project = two_ball_projector(c1, 1.0, c2, 0.5)
        for x in make_rng(5).uniform(-3, 3, size=(50, 3)):
            want = frozen_kernels.project_two_balls(x, c1, 1.0, c2, 0.5)
            assert project(x).tobytes() == want.tobytes()

    def test_touching_intervals_give_the_tangent_point(self):
        # in 1-D rounding sends this point to the degenerate-axis branch, whose
        # fallback axis is zero there
        r1, r2 = 902869.7192371228, 1431752.598445187
        x, c2 = np.array([4385333.948099622]), np.array([r1 + r2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = two_ball_projector(np.zeros(1), r1, c2, r2)(x)
        np.testing.assert_allclose(got, [r1], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("gap", [2.0 + 1e-9, 3.0])
    def test_disjoint_balls_refused_at_build(self, gap):
        c2 = np.array([gap, 0.0])
        with pytest.raises(DomainError, match="empty"):
            two_ball_projector(np.zeros(2), 1.0, c2, 1.0)
        with pytest.raises(DomainError, match="empty"):
            project_two_balls(np.zeros(2), np.zeros(2), 1.0, c2, 1.0)


class TestProjector:
    """Domain.projector() is the kernel Domain.project runs, bound once; the
    checked forms still return a fresh array and accept strided input."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(dom=st.sampled_from(all_domains()),
           xs=st.lists(st.floats(-4, 4), min_size=4, max_size=4))
    def test_projector_matches_project_bitwise(self, dom, xs):
        x = np.array(xs)
        want = dom.project(x)
        assert dom.projector()(x.copy()).tobytes() == want.tobytes()

    def test_ball_kernel_returns_its_own_inside_point(self):
        x = np.array([0.3, -0.4])
        assert ball_projector(1.0)(x) is x
        out = ball_projector(0.25)(x)
        assert out is not x and out.tobytes() == frozen_kernels.project_ball(x, 0.25).tobytes()

    def test_two_ball_kernel_returns_its_own_inside_point(self):
        x, c2 = np.array([0.3, -0.4]), np.array([0.2, -0.1])
        for c1 in (np.zeros(2), -np.zeros(2), np.array([0.1, 0.0])):
            assert two_ball_projector(c1, 1.0, c2, 1.0)(x) is x
        once = project_two_balls(x, np.zeros(2), 1.0, c2, 1.0)
        assert once is not x and once.tobytes() == x.tobytes()
        # the checked form takes a strided point
        base = make_rng(11).uniform(-3, 3, size=8)
        want = frozen_kernels.project_two_balls(base[::2].copy(), np.zeros(4), 1.0,
                                                np.full(4, 0.3), 1.0)
        got = project_two_balls(base[::2], np.zeros(4), 1.0, np.full(4, 0.3), 1.0)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_two_ball_kernel_keeps_the_signed_zeros_of_the_per_call_form(self, sign):
        # a zero c1 of either sign: the point outside ball 1 has its −0.0
        # turned into +0.0, the point inside keeps it
        c1, c2 = sign * np.zeros(3), np.zeros(3)
        for x in (np.array([-0.0, 3.0, 0.0]), np.array([-0.0, 0.5, 0.0])):
            want = frozen_kernels.project_two_balls(x, c1, 1.0, c2, 5.0)
            assert two_ball_projector(c1, 1.0, c2, 5.0)(x.copy()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dom", all_domains(), ids=lambda d: d.kind)
    def test_project_returns_fresh_array_for_inside_point(self, dom):
        inside = dom.project(make_rng(9).uniform(-0.2, 0.4, size=4))
        assert dom.contains(inside)
        kept = inside.copy()
        p = dom.project(inside)
        assert p is not inside and not np.shares_memory(p, inside)
        np.testing.assert_allclose(p, inside, atol=1e-15)
        p += 1.0
        assert inside.tobytes() == kept.tobytes()

    def test_project_ball_returns_fresh_array_for_inside_point(self):
        x, c = np.array([0.3, -0.4]), np.array([0.1, 0.1])
        for p in (project_ball(x, 1.0), project_ball(x, 1.0, c)):
            assert p is not x and not np.shares_memory(p, x)
            assert p.tobytes() == x.tobytes()

    def test_strided_input_accepted(self):
        base = make_rng(10).standard_normal(12) * 1.5
        views = (base[::3], base[::-3], base.reshape(4, 3)[:, 1])
        for v in views:
            assert not v.flags.c_contiguous
            for r in (0.5, 10.0):   # outside, inside
                for c in (None, np.full(4, 0.2)):
                    got = project_ball(v, r, c)
                    want = frozen_kernels.project_ball(v, r, c)
                    assert got.tobytes() == want.tobytes()
                    assert not np.shares_memory(got, base)
            for dom in all_domains():
                got = dom.project(v)
                want = dom.project(np.ascontiguousarray(v))
                assert got.tobytes() == want.tobytes()
                assert not np.shares_memory(got, base)

    @pytest.mark.parametrize("dom", all_domains(), ids=lambda d: d.kind)
    def test_euclidean_prox_map_matches_prox_step(self, dom):
        rng = make_rng(11)
        step = prox_map(MirrorMap.euclidean(), dom)
        for _ in range(50):
            z, g = rng.uniform(-2, 2, size=4), rng.standard_normal(4)
            want = prox_step(MirrorMap.euclidean(), dom, z, g, 0.3)
            assert step(z, g, 0.3).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dom", [Domain.simplex(4), Domain.box(np.zeros(4), np.ones(4)),
                                     Domain.ball(1.0), Domain.l1_ball(1.0, dim=4)],
                             ids=lambda d: d.kind)
    def test_entropy_prox_map_matches_prox_step(self, dom):
        rng = make_rng(12)
        step = prox_map(MirrorMap.entropy(), dom)
        for _ in range(10):
            z, g = rng.uniform(0.05, 0.5, size=4), rng.standard_normal(4)
            want = prox_step(MirrorMap.entropy(), dom, z, g, 0.7)
            assert step(z, g, 0.7).tobytes() == want.tobytes()

    def test_prox_map_refuses_at_bind(self):
        with pytest.raises(UnsupportedDomainError):
            prox_map(MirrorMap.entropy(), all_domains()[-1])
        with pytest.raises(DomainError):
            prox_map(MirrorMap.entropy(), Domain.box([-1.0], [1.0]))

    @pytest.mark.parametrize("dom", all_domains(), ids=lambda d: d.kind)
    def test_project_refuses_a_matrix(self, dom):
        # the kernels take 1-D points: x.dot(x) of a matrix is a matrix product
        with pytest.raises(InputError, match="1-D"):
            dom.project(np.zeros((4, 4)))

    def test_prox_step_checks_the_domain_dimension(self):
        with pytest.raises(InputError):
            prox_step(MirrorMap.euclidean(), Domain.box(-np.ones(2), np.ones(2)),
                      np.zeros(3), np.zeros(3), 0.5)


class TestDykstraConvergence:
    def _two_balls(self):
        c2 = np.array([1.2, 0.0, 0.0])
        return [lambda v: project_ball(v, 1.0), lambda v: project_ball(v, 0.5, c2)]

    def test_capped_rounds_warn_with_rounds_and_step(self):
        with pytest.warns(RuntimeWarning, match=r"3 rounds.*last step \d"):
            dykstra(np.array([0.3, 2.0, 0.0]), self._two_balls(), rounds=3, tol=1e-14)

    def test_converged_run_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = dykstra(np.array([0.3, 2.0, 0.0]), self._two_balls(), rounds=5000,
                        tol=1e-10)
        assert np.linalg.norm(y) <= 1.0 + 1e-8

    def test_feasible_start_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = dykstra(np.array([0.8, 0.0, 0.0]), self._two_balls(), rounds=1)
        assert np.array_equal(y, [0.8, 0.0, 0.0])


class TestBregman:
    def test_euclidean_half_squared_distance(self):
        v = bregman(MirrorMap.euclidean(), np.array([1.0, 0.0]), np.zeros(2))
        assert v == 0.5

    def test_zero_at_equal_points(self):
        for mm in (MirrorMap.euclidean(), MirrorMap.entropy()):
            x = np.array([0.25, 0.75])
            assert bregman(mm, x, x) == 0.0

    def test_entropy_matches_kl(self):
        # frozen from the independent KL evaluation sum p_i ln(p_i/q_i)
        v = bregman(MirrorMap.entropy(), np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        want = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert abs(v - want) < 1e-12
        assert abs(v - 0.14384103622589045) < 1e-12

    def test_entropy_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            bregman(MirrorMap.entropy(), np.array([0.5, 0.5]), np.array([0.0, 1.0]))

    @given(st.lists(st.floats(0.05, 3.0), min_size=2, max_size=6),
           st.lists(st.floats(0.05, 3.0), min_size=2, max_size=6))
    def test_nonnegative(self, xs, ys):
        n = min(len(xs), len(ys))
        x, y = np.array(xs[:n]), np.array(ys[:n])
        for mm in (MirrorMap.euclidean(), MirrorMap.entropy()):
            v = bregman(mm, x, y)
            assert v >= -1e-12
            d = x - y
            if mm.kind == "euclidean":
                assert v >= mm.alpha / 2 * float(d @ d) - 1e-12


class TestProxStep:
    def test_euclidean_is_projected_step(self):
        dom = Domain.box([-10.0, -10.0], [10.0, 10.0])
        out = prox_step(MirrorMap.euclidean(), dom, np.array([1.0, 1.0]),
                        np.array([1.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [0.5, 1.0], atol=1e-15)

    def test_entropy_zero_gradient_fixed_point(self):
        out = prox_step(MirrorMap.entropy(), Domain.simplex(2),
                        np.array([0.5, 0.5]), np.zeros(2), 3.7)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_ball_boundary_case_matches_grid(self):
        # frozen from a dense grid search over the unit disc at 1e-3
        out = prox_step(MirrorMap.euclidean(), Domain.ball(1.0),
                        np.array([0.9, 0.0]), np.array([-1.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_grid_search_oracle_random_ball_instances(self):
        rng = make_rng(17)
        dom = Domain.ball(1.0)
        mm = MirrorMap.euclidean()
        xs = np.linspace(-1, 1, 2001)
        X, Y = np.meshgrid(xs, xs)
        mask = X**2 + Y**2 <= 1.0
        for _ in range(10):
            z = dom.sample(rng, dim=2)
            g = rng.standard_normal(2)
            eta = float(rng.uniform(0.1, 1.0))
            obj = eta * (g[0] * X + g[1] * Y) + 0.5 * ((X - z[0])**2 + (Y - z[1])**2)
            obj = np.where(mask, obj, np.inf)
            i, j = np.unravel_index(np.argmin(obj), obj.shape)
            grid_best = np.array([X[i, j], Y[i, j]])
            out = prox_step(mm, dom, z, g, eta)
            assert dom.contains(out, tol=1e-12)
            def value(v):
                return eta * float(g @ v) + 0.5 * float((v - z) @ (v - z))
            # the prox point must beat every grid point; 1-strong convexity of
            # the prox objective then pins the argmin to within grid accuracy
            assert value(out) <= value(grid_best) + 1e-12
            assert np.linalg.norm(out - grid_best) <= 2e-2

    def test_matches_projection_identity_on_random_instances(self):
        rng = make_rng(18)
        mm = MirrorMap.euclidean()
        doms = all_domains()
        for _ in range(500):
            dom = doms[int(rng.integers(len(doms)))]
            z = dom.sample(rng, dim=4)
            g = rng.standard_normal(4)
            eta = float(rng.uniform(0.01, 2.0))
            a = prox_step(mm, dom, z, g, eta)
            b = dom.project(z - eta * g)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_entropy_simplex_is_multiplicative_update(self):
        z = np.array([0.2, 0.3, 0.5])
        g = np.array([1.0, -0.5, 0.0])
        eta = 0.7
        out = prox_step(MirrorMap.entropy(), Domain.simplex(3), z, g, eta)
        want = z * np.exp(-eta * g)
        want /= want.sum()
        np.testing.assert_allclose(out, want, atol=1e-14)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ConfigurationError):
            prox_step(MirrorMap.euclidean(), Domain.ball(1.0), np.zeros(2),
                      np.zeros(2), 0.0)

class TestClip:
    def test_componentwise_formula(self):
        np.testing.assert_array_equal(clip_component(1.0, np.array([2.0, -0.5])),
                                      [1.0, -0.5])

    def test_noop_within_bound(self):
        np.testing.assert_array_equal(clip_component(10.0, np.array([2.0, -0.5])),
                                      [2.0, -0.5])

    def test_sign_preserved_boundary_exact(self):
        np.testing.assert_array_equal(
            clip_component(0.25, np.array([-3.0, 0.25, 0.0])), [-0.25, 0.25, 0.0])

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ConfigurationError):
            clip_component(0.0, np.array([1.0]))

    @given(st.floats(0.01, 10.0), st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_infinity_norm_bound(self, gamma, gs):
        out = clip_component(gamma, np.array(gs))
        assert np.max(np.abs(out)) <= gamma + 1e-15


class TestSchedulesAndOracles:
    def test_schedule_values(self):
        assert StepSchedule.constant(0.3).at(7) == 0.3
        assert StepSchedule.inverse_sqrt(2.0).at(4) == 1.0
        assert StepSchedule.inverse_t(3.0).at(3) == 1.0
        with pytest.raises(ConfigurationError):
            StepSchedule.constant(0.0)

    def test_oracle_unbiased(self):
        rng0 = make_rng(123)
        X = rng0.standard_normal((20, 4))
        y = np.where(rng0.standard_normal(20) > 0, 1.0, -1.0)
        prob = from_arrays(X, y, 0.1, "logistic")
        w = rng0.standard_normal(4) * 0.3
        full = prob.full_grad(w)
        rng = make_rng(4)
        n_samples = 100_000
        samples = np.stack([prob.stochastic_grad(w, rng) for _ in range(n_samples)])
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(n_samples)
        assert np.all(np.abs(mean - full) <= 5.0 * se + 1e-12)

    def test_seeded_rng_reproducible(self):
        a = make_rng(99).standard_normal(16)
        b = make_rng(99).standard_normal(16)
        np.testing.assert_array_equal(a, b)


class TestEntropyProxBisection:
    def test_norm_ball_projections_feasible_and_optimal(self):
        from smoothconvex.core import bregman as breg
        rng = make_rng(23)
        mm = MirrorMap.entropy()
        z = np.array([0.5, 0.8, 0.9])
        g = np.array([-2.0, -1.0, 0.5])
        for dom in (Domain.ball(1.0), Domain.l1_ball(1.0, dim=3)):
            out = prox_step(mm, dom, z, g, 0.8)
            assert dom.contains(out, tol=1e-5)
            val = 0.8 * float(g @ out) + breg(mm, out, z)
            for _ in range(1000):
                y = np.abs(rng.standard_normal(3)) + 1e-6
                y = (y / np.linalg.norm(y) if dom.kind == "ball"
                     else y / np.abs(y).sum()) * 0.999
                assert 0.8 * float(g @ y) + breg(mm, y, z) >= val - 1e-6

    def test_nonnegative_box_clamp(self):
        out = prox_step(MirrorMap.entropy(), Domain.box([0.1, 0.1], [0.6, 0.6]),
                        np.array([0.5, 0.5]), np.array([-3.0, 0.2]), 1.0)
        assert out[0] == 0.6
        assert 0.1 <= out[1] <= 0.6

    def test_negative_box_rejected(self):
        from smoothconvex.core import DomainError
        with pytest.raises(DomainError):
            prox_step(MirrorMap.entropy(), Domain.box([-1.0], [1.0]),
                      np.array([0.5]), np.array([0.1]), 1.0)


class TestProjectionProperties:
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6),
           st.floats(0.2, 3.0))
    def test_ball_projection_properties(self, xs, r):
        x = np.array(xs)
        p = project_ball(x, r)
        assert np.linalg.norm(p) <= r + 1e-12
        if np.linalg.norm(x) <= r:
            np.testing.assert_array_equal(p, x)
        else:
            # boundary point collinear with the input
            assert abs(np.linalg.norm(p) - r) <= 1e-12
            cross = p * np.linalg.norm(x) - x * np.linalg.norm(p)
            assert np.max(np.abs(cross)) <= 1e-9

    @given(st.lists(st.floats(-4, 4), min_size=2, max_size=5))
    def test_simplex_projection_is_distribution(self, xs):
        p = project_simplex(np.array(xs))
        assert abs(p.sum() - 1.0) <= 1e-10
        assert np.all(p >= 0)

    @given(st.lists(st.floats(-4, 4), min_size=2, max_size=5),
           st.floats(0.3, 2.5))
    def test_l1_projection_budget(self, xs, r):
        p = project_l1_ball(np.array(xs), r)
        assert np.abs(p).sum() <= r + 1e-9
        # signs never flip
        assert np.all(p * np.sign(np.array(xs)) >= -1e-15)


class TestHalfspaceCutProjection:
    def test_matches_dykstra_on_random_instances(self):
        rng = make_rng(99)
        for _ in range(500):
            d = int(rng.integers(2, 6))
            a = rng.standard_normal(d)
            b = float(rng.uniform(-0.5, 0.5) * np.linalg.norm(a))
            dom = Domain.halfspace_cut(a, b)
            x = rng.uniform(-3, 3, size=d)
            got = dom.project(x)

            def proj_half(v, a=a, b=b):
                na2 = float(a @ a)
                return v - max(a @ v - b, 0.0) / na2 * a

            want = dykstra(x, [lambda v: project_ball(v, 1.0), proj_half],
                           rounds=4000, tol=1e-15)
            assert np.linalg.norm(got - want) <= 1e-10
            assert dom.contains(got, tol=1e-9)
