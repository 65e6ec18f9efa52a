"""Losses, parsing, constants, the smoothed hinge, and its risk transform."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

from smoothconvex.core import ConfigurationError, Domain, DomainError, InputError, make_rng
from smoothconvex.problems import (Constants, FiniteSumProblem, LabeledDataset,
                                   NoisyQuadratic, ParseError, from_arrays,
                                   least_squares_problem, load_libsvm, logistic_problem,
                                   onedim_target_risk_problem, psi_transform,
                                   row_blocks, row_sq_sums, smoothed_hinge_value,
                                   synthetic_classification)
from smoothconvex.stochastic import emgd, gradient_variance_probe

import frozen_kernels


def finite_difference_grad(f, w, h=None):
    h = h or 1e-5 * (1.0 + np.linalg.norm(w))
    g = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2 * h)
    return g


class TestLibsvmParsing:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:0.5 3:-2\n")
        ds = load_libsvm(p)
        assert ds.labels[0] == 1.0
        assert ds.X[0].tolist() == [0.5, 0.0, -2.0]
        assert ds.d >= 3

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("\n# only a comment\n")
        with pytest.raises(InputError, match="no examples"):
            load_libsvm(p)

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("-1 2:1e3\n")
        ds = load_libsvm(p)
        assert ds.labels[0] == -1.0
        assert ds.X[0].tolist() == [0.0, 1000.0]

    def test_malformed_token_reports_line(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 1:0.5\n-1 2:oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_libsvm(p)

    def test_nonincreasing_indices_rejected(self, tmp_path):
        p = tmp_path / "n.txt"
        p.write_text("1 3:1 2:1\n")
        with pytest.raises(ParseError, match="increase"):
            load_libsvm(p)

    def test_zero_label_rejected(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("0 1:1\n")
        with pytest.raises(ParseError, match="zero label"):
            load_libsvm(p)

    def test_comments_ignored_and_normalization(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\n+1 1:3 2:4  # trailing\n")
        ds = load_libsvm(p, normalize=True)
        np.testing.assert_allclose(ds.X[0], [0.6, 0.8])

    def test_label_only_file_rejected_as_problem(self, tmp_path):
        # labels without features load as a 2×0 design, which no problem accepts
        p = tmp_path / "l.txt"
        p.write_text("1\n-1\n")
        ds = load_libsvm(p)
        assert ds.X.shape == (2, 0)
        for build in (logistic_problem, least_squares_problem):
            with pytest.raises(InputError, match="feature"):
                build(ds, 0.1)

    @pytest.mark.parametrize("text", ["1.5 1:nan 2:0.3\n", "-2 1:inf\n", "nan 2:1.0\n",
                                      "1 1:0.5\n-inf 1:1\n"],
                             ids=["value_nan", "value_inf", "label_nan", "label_inf"])
    def test_non_finite_entry_rejected(self, tmp_path, text):
        # these loaded, and gave a problem whose constants were all NaN
        p = tmp_path / "f.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"line {text.count(chr(10))}: non-finite"):
            load_libsvm(p)

    @pytest.mark.parametrize("lam", [math.nan, -0.1], ids=["nan", "negative"])
    def test_bad_regularizer_rejected(self, lam):
        # a NaN one gave NaN constants
        with pytest.raises(ConfigurationError, match="regularizer"):
            from_arrays(np.eye(2), [1.0, 2.0], lam, "squared")

    def test_no_rows_rejected(self):
        with pytest.raises(InputError, match="example"):
            from_arrays(np.zeros((0, 3)), np.zeros(0), 0.0, "squared")


class TestLogistic:
    def test_value_and_grad_at_origin(self):
        prob = from_arrays([[0.3, -0.7]], [1.0], 0.0, "logistic")
        w = np.zeros(2)
        assert abs(prob.full_value(w) - math.log(2)) < 1e-15
        np.testing.assert_allclose(prob.full_grad(w), -0.5 * np.array([0.3, -0.7]),
                                   atol=1e-15)

    def test_saturation(self):
        prob = from_arrays([[1.0, 0.0]], [1.0], 0.0, "logistic")
        w = np.array([50.0, 0.0])
        assert prob.full_value(w) < 1e-20
        assert np.linalg.norm(prob.full_grad(w)) < 1e-20

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(1)
        data = synthetic_classification(15, 4, seed=2)
        prob = logistic_problem(data, lam=0.05)
        for _ in range(50):
            w = rng.standard_normal(4)
            g = prob.full_grad(w)
            fd = finite_difference_grad(prob.full_value, w)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_rejects_regression_labels(self):
        ds = LabeledDataset(X=np.array([[1.0]]), labels=np.array([0.7]))
        with pytest.raises(InputError):
            logistic_problem(ds, lam=0.0)


class TestLeastSquares:
    def test_single_example_quadratic(self):
        prob = from_arrays([[1.0]], [0.0], 0.0, "squared")
        for w in (0.0, 0.3, -2.0):
            assert abs(prob.full_value(np.array([w])) - w * w) < 1e-15

    def test_interpolator_leaves_only_regularizer(self):
        rng = make_rng(3)
        X = rng.standard_normal((8, 8)) + np.eye(8)
        wtrue = rng.standard_normal(8)
        prob = from_arrays(X, X @ wtrue, 0.3, "squared")
        assert abs(prob.full_value(wtrue) - 0.15 * wtrue @ wtrue) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(4)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        prob = from_arrays(X, y, 0.1, "squared")
        for _ in range(50):
            w = rng.standard_normal(3)
            g = prob.full_grad(w)
            fd = finite_difference_grad(prob.full_value, w)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_component_gradients_match_finite_differences(self):
        rng = make_rng(5)
        X = rng.standard_normal((6, 3))
        y = rng.standard_normal(6)
        prob = from_arrays(X, y, 0.2, "squared")

        def f_i(i, v):
            return float((y[i] - X[i] @ v) ** 2) + 0.5 * 0.2 * float(v @ v)

        for i in range(6):
            w = rng.standard_normal(3)
            fd = finite_difference_grad(lambda v: f_i(i, v), w)
            assert np.linalg.norm(prob.component_grad(i, w) - fd) <= 1e-6 * max(
                1.0, np.linalg.norm(fd))

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("lam_reg", [0.0, 0.1])
    def test_component_grad_matrix_bitwise_equal_to_two_array_formula(self, loss, lam_reg):
        rng = make_rng(10)
        X = rng.standard_normal((7, 4))
        y = rng.standard_normal(7)
        prob = from_arrays(X, np.sign(y) if loss == "logistic" else y, lam_reg, loss)
        for w in rng.standard_normal((5, 4)) * [[1.0], [0.0], [-0.0], [1e3], [1e-3]]:
            z = X @ w
            if loss == "logistic":
                coefs = -prob.y / (1.0 + np.exp(np.minimum(prob.y * z, 700.0)))
            else:
                coefs = -2.0 * (prob.y - z)
            want = coefs[:, None] * X + lam_reg * w[None, :]
            assert prob.loss_coefs(w).tobytes() == coefs.tobytes()
            assert frozen_kernels.all_component_grads(prob, w).tobytes() == want.tobytes()

    def test_anchored_diff_identity(self):
        rng = make_rng(6)
        X = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        for loss in ("squared", "logistic"):
            prob = from_arrays(X, np.sign(y) if loss == "logistic" else y, 0.1, loss)
            for i in range(5):
                w, c = rng.standard_normal(3), rng.standard_normal(3)
                want = prob.component_grad(i, w) - prob.component_grad(i, c)
                got = prob.anchored_component_diff(i, w, c)
                np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("lam_reg", [0.0, 0.1])
    def test_anchored_diff_bitwise_equal_to_per_call_formula(self, loss, lam_reg):
        rng = make_rng(8)
        for d in (1, 2, 3, 10, 17, 50, 59):
            X = rng.standard_normal((6, d))
            y = rng.standard_normal(6)
            prob = from_arrays(X, np.sign(y) if loss == "logistic" else y, lam_reg, loss)
            # the last scale drives margins past the 700 clamp
            for scale in (0.0, 1e-3, 1.0, 1e3):
                for i in range(6):
                    w, c = rng.standard_normal((2, d)) * scale
                    got = prob.anchored_component_diff(i, w, c)
                    want = frozen_kernels.anchored_component_diff(prob, i, w, c)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("lam_reg", [0.0, -0.0, 0.1])
    def test_bound_anchored_diff_bitwise_equal_to_per_call_formula(self, loss, lam_reg):
        # X scales and zero entries, anchors and points chosen to reach every
        # case of the squared loss's skipped regularizer: c·x_ij nonzero, a
        # zero entry of X, c == 0 (w on the anchor, or w − center orthogonal
        # to x_i), c·x_ij underflowing to zero, and a non-finite c
        rng = make_rng(9)
        for d in (1, 3, 10):
            for x_scale, zeros in ((1.0, False), (1.0, True), (1e-170, False),
                                   (1e150, False)):
                X = rng.standard_normal((5, d)) * x_scale
                if zeros:
                    X[rng.uniform(size=X.shape) < 0.3] = 0.0
                y = rng.standard_normal(5)
                prob = from_arrays(X, np.sign(y) if loss == "logistic" else y, lam_reg,
                                   loss)
                for w_scale in (1.0, 1e-150, 1e200):
                    c = rng.standard_normal(d) * w_scale
                    diff = prob.anchored_diff(c)
                    for i in range(5):
                        u = rng.standard_normal(d) * w_scale
                        with np.errstate(all="ignore"):
                            ws = [c + u, c.copy(),
                                  c + u - (X[i] @ u) / (X[i] @ X[i]) * X[i], -np.abs(u),
                                  np.where(rng.uniform(size=d) < 0.5, np.inf, u)]
                            for w in ws:
                                want = frozen_kernels.anchored_component_diff(prob, i, w, c)
                                assert diff(i, w).tobytes() == want.tobytes()

    def test_convex_along_random_segments(self):
        rng = make_rng(7)
        data_prob = from_arrays(rng.standard_normal((10, 3)), rng.standard_normal(10),
                                0.05, "squared")
        cls_prob = from_arrays(rng.standard_normal((10, 3)),
                               np.sign(rng.standard_normal(10)), 0.05, "logistic")
        for prob in (data_prob, cls_prob):
            for _ in range(100):
                a, b = rng.standard_normal(3), rng.standard_normal(3)
                mid = prob.full_value((a + b) / 2)
                assert mid <= (prob.full_value(a) + prob.full_value(b)) / 2 + 1e-12


class TestConstants:
    def test_identity_design_smoothness(self):
        # each row is a unit vector: every component is 2-smooth
        prob = from_arrays(np.eye(4), np.zeros(4), 0.0, "squared")
        assert abs(prob.constants.L_comp - 2.0) < 1e-8

    def test_single_unit_logistic_smoothness(self):
        # one component: the average is that component
        prob = from_arrays([[0.6, 0.8]], [1.0], 0.0, "logistic")
        assert abs(prob.constants.L_full - 0.25) < 1e-8

    def test_power_iteration_matches_dense_eigensolve(self):
        rng = make_rng(8)
        X = rng.standard_normal((20, 5))
        prob = from_arrays(X, rng.standard_normal(20), 0.0, "squared")
        lam_max = eigh(X.T @ X / 20, eigvals_only=True)[-1]
        assert abs(prob.constants.L_full - 2.0 * lam_max) <= 1e-12 * 2.0 * lam_max


    @pytest.mark.parametrize("n_case", ["1", "rows-1", "rows", "rows+1", "5000"])
    @pytest.mark.parametrize("d", [1, 2, 3, 50])
    def test_blocked_row_sums_equal_numpy_bit_for_bit(self, d, n_case):
        rows = row_blocks(5000, d)[0].stop   # one row block
        n = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
             "5000": 5000}[n_case]
        X = make_rng(1000 * d + n).standard_normal((n, d))
        sums = row_sq_sums(X)
        assert sums.tobytes() == np.sum(X**2, axis=1).tobytes()
        assert np.sqrt(sums).tobytes() == np.linalg.norm(X, axis=1).tobytes()

    def test_build_holds_under_half_a_mb_above_the_problem(self):
        """synthetic_classification + logistic_problem at 5000 × 50: about
        2 MB above the problem they return when the row norms and
        estimate_constants each squared all of X at once."""
        logistic_problem(synthetic_classification(50, 5, seed=7), lam=1e-3)  # warm-up
        tracemalloc.start()
        try:
            prob = logistic_problem(synthetic_classification(5000, 50, seed=7), lam=1e-3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prob.X.nbytes == 2_000_000 and held >= prob.X.nbytes
        assert peak - held < 500_000, f"{(peak - held) / 1e6:.2f} MB above the problem"

    def test_fortran_ordered_design_gives_the_c_ordered_results(self):
        # the row-blocked sums run in an order set by the layout of X, so the
        # problem holds X C-ordered; a C-ordered float64 X is kept as is
        rng = make_rng(34)
        X = rng.standard_normal((3000, 40))
        y = np.where(rng.standard_normal(3000) >= 0, 1.0, -1.0)
        probs = [from_arrays(A, y, 1e-2, "logistic") for A in (X, np.asfortranarray(X))]
        assert probs[0].X is X and probs[1].X.flags.c_contiguous

        def hexes(values):
            return [float(v).hex() for v in values]

        c, f = ([*row_sq_sums(p.X), p.constants.L_comp, p.constants.L_full, p.constants.lam]
                for p in probs)
        assert hexes(c) == hexes(f)
        for w, center in rng.standard_normal((4, 2, 40)):
            c, f = (gradient_variance_probe(p, w, center).values() for p in probs)
            assert hexes(c) == hexes(f)
        c, f = (emgd(p, Domain.ball(1.0), seed=3, T=20, m=2).final_point for p in probs)
        assert hexes(c) == hexes(f)

    def test_direct_construction_matches_from_arrays(self):
        # the constructor computes the constants, so the solvers that read
        # them run on a problem built without from_arrays
        data = synthetic_classification(40, 3, seed=25, row_norm=1.0)
        direct = FiniteSumProblem(X=data.X, y=data.labels, lam_reg=0.1, loss="logistic")
        built = from_arrays(data.X, data.labels, 0.1, "logistic")
        assert direct.constants == built.constants
        a, b = (emgd(p, Domain.ball(1.0), seed=3, T=5, m=2).final_point
                for p in (direct, built))
        assert np.array_equal(a, b)
        with pytest.raises(InputError, match="feature"):
            FiniteSumProblem(X=np.zeros((2, 0)), y=np.ones(2), lam_reg=0.1, loss="squared")


@pytest.mark.parametrize("make", [
    lambda: from_arrays(np.eye(3), [1.0, -1.0, 1.0], 0.1, "logistic"),
    lambda: NoisyQuadratic(center=np.array([1.2, 0.0]), noise=0.4),
    lambda: onedim_target_risk_problem(0.05)],
    ids=["FiniteSumProblem", "NoisyQuadratic", "OneDimTargetRisk"])
def test_every_objective_has_the_one_protocol(make):
    obj = make()
    w = np.zeros(obj.d)
    assert isinstance(obj.full_value(w), float)
    assert obj.stochastic_grad(w, make_rng(0)).shape == (obj.d,)
    c = obj.constants
    assert isinstance(c, Constants)
    assert c.L_comp > 0 and c.L_full > 0 and c.lam >= 0
    for alias in ("value", "grad", "expected_loss", "beta", "alpha"):
        assert not hasattr(obj, alias), alias


@pytest.mark.parametrize("noise", [-0.1, math.nan], ids=["negative", "nan"])
def test_noisy_quadratic_refuses_a_negative_noise_level(noise):
    # a negative level was left out of the gradient yet lowered grad_bound,
    # and a NaN one made sgd_pd's default gamma NaN and its answer [nan nan]
    with pytest.raises(ConfigurationError, match="noise level"):
        NoisyQuadratic(center=np.array([1.2, 0.0]), noise=noise)
    assert NoisyQuadratic(center=np.array([1.2, 0.0])).grad_bound() == 2.2


class TestOneDimTargetRisk:
    def test_expected_loss_at_zero(self):
        d = 0.05
        prob = onedim_target_risk_problem(d)
        want = d**2 * 1.0 + (1 - d**2) * d**2
        assert abs(prob.full_value(np.zeros(1)) - want) < 1e-15
        assert want <= 2 * d**2

    def test_minimizer_is_weighted_mean(self):
        d = 0.1
        prob = onedim_target_risk_problem(d)
        want = d**2 * 1.0 + (1 - d**2) * d
        assert abs(prob.wstar - want) < 1e-15
        h = 1e-6
        lo = prob.full_value(np.array([prob.wstar - h]))
        hi = prob.full_value(np.array([prob.wstar + h]))
        assert prob.eps_opt <= min(lo, hi)

    def test_monte_carlo_matches_analytic(self):
        d = 0.05
        prob = onedim_target_risk_problem(d)
        rng = make_rng(10)
        n = 1_000_000
        samples = np.where(rng.uniform(size=n) < d**2, 1.0, d)
        losses = (0.0 - samples) ** 2
        se = losses.std(ddof=1) / math.sqrt(n)
        assert abs(losses.mean() - prob.full_value(np.zeros(1))) <= 5 * se

    def test_rejects_bad_delta(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError):
                onedim_target_risk_problem(bad)


class TestSmoothedHinge:
    def test_value_at_margin_one(self):
        for gamma in (0.5, 3.0, 50.0):
            assert abs(smoothed_hinge_value(1.0, gamma) - math.log(2) / gamma) < 1e-12

    def test_hinge_limit_at_large_gamma(self):
        assert abs(smoothed_hinge_value(-1.0, 100.0) - 2.0) < 1e-8

    def test_derivative_and_curvature_bounds(self):
        # a first difference is a mean of φ' and a second difference a
        # weighted mean of φ'', so |φ'| <= 1 and φ'' <= γ/4 bound them; the
        # first difference's rounding is about |φ|·2⁻⁵²/h, at most 5e-12 here
        zs, h = np.linspace(-20, 20, 2001), 1e-3
        for gamma in (1.0, 10.0, 100.0):
            v, up, down = (smoothed_hinge_value(z, gamma) for z in (zs, zs + h, zs - h))
            assert np.all(np.abs(up - v) / h <= 1.0 + 1e-9)
            curv = (up - 2.0 * v + down) / (h * h)
            assert np.all(curv <= gamma / 4.0 + 1e-6 * gamma)

    def test_dominated_by_hinge_plus_offset(self):
        zs = np.linspace(-30, 30, 4001)
        for gamma in (0.5, 2.0, 25.0):
            hinge = np.maximum(1.0 - zs, 0.0)
            assert np.all(smoothed_hinge_value(zs, gamma)
                          <= hinge + math.log(2) / gamma + 1e-12)

    def test_convex_decreasing(self):
        zs = np.linspace(-5, 5, 1001)
        v = smoothed_hinge_value(zs, 7.0)
        assert np.all(np.diff(v) < 0)
        assert np.all(np.diff(v, 2) >= -1e-12)


def psi_bruteforce(z: float, gamma: float) -> float:
    """Independent grid-minimization oracle over alpha in [-20, 20]: coarse
    1e-4 sweep plus a 1e-7 refinement window (equivalent accuracy to a flat
    1e-6 grid for this smooth 1-D objective)."""
    def H(alphas):
        return ((1 + z) / 2 * smoothed_hinge_value(alphas, gamma)
                + (1 - z) / 2 * smoothed_hinge_value(-alphas, gamma))

    coarse = np.linspace(-20, 20, 400001)
    i = int(np.argmin(H(coarse)))
    lo, hi = coarse[max(i - 2, 0)], coarse[min(i + 2, len(coarse) - 1)]
    fine = np.linspace(lo, hi, 400001)
    return float(smoothed_hinge_value(0.0, gamma) - H(fine).min())


class TestPsiTransform:
    def test_zero_at_zero(self):
        for gamma in (0.5, 1.0, 10.0, 100.0):
            assert psi_transform(0.0, gamma) == 0.0

    def test_symmetric(self):
        for eta in (0.1, 0.37, 0.9):
            for gamma in (1.0, 10.0, 100.0):
                assert psi_transform(eta, gamma) == psi_transform(-eta, gamma)

    def test_matches_bruteforce_oracle(self):
        # frozen spot value from the oracle
        assert abs(psi_transform(0.5, 10.0) - 0.45226597715126) < 1e-8
        for eta in (0.1, 0.5, 0.9):
            for gamma in (1.0, 10.0, 100.0):
                assert abs(psi_transform(eta, gamma)
                           - psi_bruteforce(eta, gamma)) < 1e-5

    def test_lower_bound_moderate_margins(self):
        # the thesis's |eta| - log(1/|eta|)/gamma minorant is real for moderate
        # |eta|; beyond the crossover |eta| ~ 0.6545 the exact transform dips
        # below it at large gamma, an erratum acceptance criterion 10b checks
        # (see psi_transform's docstring for the minorant that does hold)
        for eta in (0.1, 0.3, 0.5, 0.6):
            for gamma in (1.0, 10.0, 100.0):
                assert psi_transform(eta, gamma) >= abs(eta) - math.log(1 / abs(eta)) / gamma - 1e-12

    def test_monotone_in_margin_and_hinge_limit(self):
        for gamma in (1.0, 10.0, 1e4):
            vals = [psi_transform(e, gamma) for e in np.linspace(0.01, 0.99, 50)]
            assert np.all(np.diff(vals) > -1e-12)
        for eta in (0.2, 0.5, 0.8):
            assert abs(psi_transform(eta, 1e4) - eta) < 1e-3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            psi_transform(1.0, 5.0)
        with pytest.raises(DomainError):
            psi_transform(-1.2, 5.0)
        # a NaN smoothing parameter returned nan
        for gamma in (0.0, math.nan):
            with pytest.raises(ConfigurationError):
                psi_transform(0.5, gamma)
            with pytest.raises(ConfigurationError):
                smoothed_hinge_value(0.5, gamma)

    @given(st.floats(-0.99, 0.99), st.floats(0.2, 200.0))
    @settings(max_examples=200)
    def test_nonnegative_everywhere(self, eta, gamma):
        assert psi_transform(eta, gamma) >= -1e-12
