import numpy as np
import pytest

from lowcon import (
    DegenerateSample,
    DimensionTooSmall,
    MisspecTerm,
    beta_layout,
    calibrate_constant,
    covariance_matrix,
    gen_predictors,
    gen_response,
    make_misspec,
    misspec_values,
    toy_example,
)
from lowcon.datagen import _TOY_CAP


class TestCovariance:
    def test_structure(self):
        S = covariance_matrix(5)
        assert np.allclose(np.diag(S), 10.0)
        assert S[0, 1] == pytest.approx(6.0)
        assert S[0, 4] == pytest.approx(10.0 * 0.6**4)
        assert np.allclose(S, S.T)
        for k in range(1, 5):
            assert np.allclose(np.diag(S, k), S[0, k])  # Toeplitz bands

    def test_positive_definite(self):
        np.linalg.cholesky(covariance_matrix(20))


@pytest.mark.parametrize("call, name", [
    (lambda: covariance_matrix(2.5), "p=2.5"),
    (lambda: beta_layout(2.5), "p=2.5"),
    (lambda: beta_layout(True), "p=True"),
    (lambda: gen_predictors("D1", 2.5, 2, np.random.default_rng(0)), "n=2.5"),
    (lambda: gen_predictors("D1", 10, 2.0, np.random.default_rng(0)), "p=2.0"),
    (lambda: toy_example(2.5, np.random.default_rng(0), 1.0), "n=2.5"),
], ids=["covariance-p", "beta-p", "beta-bool", "predictors-n", "predictors-p", "toy-n"])
def test_non_integer_size_rejected(call, name):
    with pytest.raises(ValueError, match=f"must be an integer, got {name}"):
        call()


class TestBetaLayout:
    def test_p10(self):
        expect = [1, 1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 1, 1]
        assert np.array_equal(beta_layout(10), expect)

    def test_ceiling_for_awkward_p(self):
        b = beta_layout(7)  # ceil(1.4) = 2 ones on each end
        assert np.array_equal(b, [1, 1, 0.1, 0.1, 0.1, 1, 1])


class TestPredictors:
    def test_d1_mean(self):
        X = gen_predictors("D1", 100_000, 4, np.random.default_rng(0))
        band = 3 * np.sqrt(10.0 / 100_000)
        assert np.all(np.abs(X.mean(axis=0) - 1.0) < band)

    def test_d1_covariance(self):
        n = 100_000
        X = gen_predictors("D1", n, 4, np.random.default_rng(1))
        S = covariance_matrix(4)
        sample = np.cov(X, rowvar=False)
        se = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / n)
        assert np.all(np.abs(sample - S) < 3 * se)

    def test_d2_mean_is_half(self):
        # equal mixture of mean-0 and mean-1 components
        X = gen_predictors("D2", 200_000, 3, np.random.default_rng(2))
        band = 4 * np.sqrt(20.0 / 200_000)
        assert np.all(np.abs(X.mean(axis=0) - 0.5) < band)

    def test_t_construction_covariance_identity(self):
        from lowcon.datagen import _student_t_rows

        n = 100_000
        S = covariance_matrix(3)
        chol = np.linalg.cholesky(S)
        # df -> infinity limit: the scale matrix is the covariance
        Z = _student_t_rows(n, 1e6, np.random.default_rng(3), chol)
        se = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / n)
        assert np.all(np.abs(np.cov(Z, rowvar=False) - S) < 4 * se)
        # at df = 10 the covariance inflates by df / (df - 2)
        Z10 = _student_t_rows(n, 10.0, np.random.default_rng(4), chol)
        target = S * 10.0 / 8.0
        assert np.all(np.abs(np.cov(Z10, rowvar=False) - target) < 5 * se * 1.5)

    def test_d3_heavier_tails_than_d1(self):
        rng = np.random.default_rng(5)
        X1 = gen_predictors("D1", 50_000, 2, rng)
        X3 = gen_predictors("D3", 50_000, 2, rng)
        q1 = np.quantile(np.abs(X1[:, 0] - 1.0), 0.999)
        q3 = np.quantile(np.abs(X3[:, 0] - 1.0), 0.999)
        assert q3 > q1

    def test_deterministic(self):
        a = gen_predictors("D2", 100, 3, np.random.default_rng(6))
        b = gen_predictors("D2", 100, 3, np.random.default_rng(6))
        assert np.array_equal(a, b)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            gen_predictors("D4", 10, 2, np.random.default_rng(0))


class TestMisspec:
    def test_h1_zero(self):
        x = np.random.default_rng(7).standard_normal((1, 10))
        assert np.array_equal(misspec_values("H1", x, 0.0), [0.0])

    def test_h2_sin_peak(self):
        x = np.zeros((1, 10))
        x[0, 2] = np.pi / 2
        assert misspec_values("H2", x, 10.0) == pytest.approx([10.0])

    def test_h3_product(self):
        x = np.zeros((1, 8))
        x[0, 2], x[0, 7] = 3.0, 4.0
        assert misspec_values("H3", x, 2.0) == pytest.approx([24.0])

    def test_h4_and_h5_formulas(self):
        x = np.zeros((1, 8))
        x[0, 2], x[0, 7] = 2.0, np.pi / 2
        assert misspec_values("H4", x, 3.0) == pytest.approx([6.0])
        assert misspec_values("H5", x, 0.5) == pytest.approx([2.0])

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            misspec_values("H3", np.zeros((5, 7)), 1.0)
        with pytest.raises(DimensionTooSmall):
            misspec_values("H2", np.zeros((5, 2)), 1.0)


class TestCalibration:
    def test_constant_from_known_max(self):
        X = np.zeros((3, 8))
        X[:, 2] = [1.0, -2.5, 0.5]
        X[:, 7] = [2.0, 2.0, 2.0]
        # |x3 * x8| max is 5 -> c = 2
        assert calibrate_constant("H3", X) == pytest.approx(2.0)

    def test_post_calibration_max_is_ten(self):
        rng = np.random.default_rng(8)
        X = gen_predictors("D1", 5000, 10, rng)
        for kind in ("H3", "H4", "H5"):
            term = make_misspec(kind, X)
            h = misspec_values(kind, X, term.constant)
            assert np.abs(h).max() == pytest.approx(10.0, abs=1e-10)

    def test_h2_peak_nearly_reached_on_large_samples(self):
        X = gen_predictors("D1", 10_000, 10, np.random.default_rng(9))
        h = misspec_values("H2", X, 10.0)
        assert np.abs(h).max() >= 9.9

    def test_deterministic_constant(self):
        X1 = gen_predictors("D1", 10_000, 10, np.random.default_rng(10))
        X2 = gen_predictors("D1", 10_000, 10, np.random.default_rng(10))
        assert calibrate_constant("H5", X1) == calibrate_constant("H5", X2)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSample):
            calibrate_constant("H5", np.zeros((4, 8)))

    def test_no_constant_for_fixed_shapes(self):
        with pytest.raises(ValueError):
            calibrate_constant("H2", np.zeros((4, 8)))


class TestResponses:
    def test_noiseless_correct_model(self):
        rng = np.random.default_rng(11)
        X = gen_predictors("D1", 50, 10, rng)
        beta0 = beta_layout(10)
        y = gen_response(X, beta0, MisspecTerm("H1", 0.0), 0.0, rng)
        assert np.array_equal(y, X @ beta0)

    def test_noiseless_shift_recovered(self):
        rng = np.random.default_rng(12)
        X = gen_predictors("D1", 50, 10, rng)
        beta0 = beta_layout(10)
        y = gen_response(X, beta0, MisspecTerm("H2", 10.0), 0.0, rng)
        assert np.allclose(y - X @ beta0, 10.0 * np.sin(X[:, 2]), atol=1e-12)

    def test_noise_variance(self):
        rng = np.random.default_rng(13)
        n = 100_000
        X = gen_predictors("D1", n, 10, rng)
        beta0 = beta_layout(10)
        y = gen_response(X, beta0, MisspecTerm("H1", 0.0), 1.0, rng)
        resid = y - X @ beta0
        # chi-square band for the sample variance of n standard normals
        assert abs(resid.var() - 1.0) < 3 * np.sqrt(2.0 / n)


    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -1.0],
                             ids=["nan", "inf", "negative"])
    def test_bad_sigma2_rejected(self, sigma2):
        X = gen_predictors("D1", 20, 3, np.random.default_rng(18))
        with pytest.raises(ValueError, match=r"sigma2 must be finite and nonnegative"):
            gen_response(X, beta_layout(3), MisspecTerm("H1", 0.0), sigma2,
                         np.random.default_rng(19))


class TestToyExample:
    def test_noise_free_curve(self):
        x, y = toy_example(500, np.random.default_rng(14), noise_sd=0.0)
        assert np.allclose(y - x, np.sin(x**2) / 2.0, atol=1e-14)

    def test_envelope(self):
        sd = 0.6
        x, y = toy_example(100_000, np.random.default_rng(15), noise_sd=sd)
        inside = np.abs(y - x) <= 0.5 + 4.0 * sd
        assert inside.mean() >= 0.9999

    def test_deterministic(self):
        a = toy_example(100, np.random.default_rng(16), noise_sd=0.6)
        b = toy_example(100, np.random.default_rng(16), noise_sd=0.6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_magnitude_cap(self):
        x, _ = toy_example(50_000, np.random.default_rng(17), noise_sd=0.6)
        assert np.abs(x).max() == _TOY_CAP

    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf"), -0.6],
                             ids=["nan", "inf", "negative"])
    def test_bad_noise_sd_rejected(self, noise_sd):
        with pytest.raises(ValueError, match=r"noise_sd must be finite and nonnegative"):
            toy_example(5, np.random.default_rng(20), noise_sd)
