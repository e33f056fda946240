import numpy as np
import pytest

from lowcon import (
    AssumptionViolated,
    MisspecTerm,
    RankDeficient,
    fit_huber_m,
    fit_sls,
    gen_response,
    generate_olhd,
    least_squares,
    mse_decompose,
    design_mse_bound,
    trace_inv_bound,
    weyl_kappa_bound,
    worst_case_mse,
)
from lowcon import estimators


def random_full_rank(rng, r, p, scale=1.0):
    while True:
        X = scale * rng.standard_normal((r, p))
        if np.linalg.matrix_rank(X) == p:
            return X


_X3 = np.eye(3)


@pytest.mark.parametrize("bad", [float("nan"), -1.0])
@pytest.mark.parametrize("call, message", [
    (lambda v: mse_decompose(_X3, np.zeros(3), sigma2=v), "sigma2"),
    (lambda v: worst_case_mse(_X3, sigma2=v, alpha=1.0), "sigma2"),
    (lambda v: worst_case_mse(_X3, sigma2=1.0, alpha=v), "alpha"),
    (lambda v: design_mse_bound(_X3, sigma2=v, alpha=1.0), "sigma2"),
    (lambda v: design_mse_bound(_X3, sigma2=1.0, alpha=v), "alpha"),
    (lambda v: gen_response(_X3, np.ones(3), MisspecTerm("H1", 0.0), v,
                            np.random.default_rng(0)), "sigma2"),
], ids=["mse_decompose", "worst_case_sigma2", "worst_case_alpha",
        "design_mse_bound", "design_mse_bound_alpha", "gen_response"])
def test_range_checks_reject_nan_and_negative(call, message, bad):
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0],
                         ids=["inf", "nan", "negative"])
@pytest.mark.parametrize("call", [
    lambda v: mse_decompose(_X3, np.zeros(3), sigma2=v),
    lambda v: worst_case_mse(_X3, sigma2=v, alpha=1.0),
    lambda v: design_mse_bound(_X3, sigma2=v, alpha=1.0),
], ids=["mse_decompose", "worst_case_mse", "design_mse_bound"])
def test_sigma2_must_be_finite_and_nonnegative(call, bad):
    with pytest.raises(ValueError, match="sigma2 must be finite and nonnegative"):
        call(bad)


_BAD_ALPHA = pytest.mark.parametrize(
    "bad", [float("inf"), float("nan"), 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])


@_BAD_ALPHA
def test_worst_case_mse_alpha_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        worst_case_mse(_X3, sigma2=1.0, alpha=bad)


@_BAD_ALPHA
def test_design_mse_bound_alpha_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        design_mse_bound(_X3, sigma2=1.0, alpha=bad)


class TestFitSls:
    def test_identity_design(self):
        y = np.array([2.0, -1.0, 4.0])
        fit = fit_sls(np.eye(3), y)
        assert np.allclose(fit.beta, y)
        assert fit.trace_inv == pytest.approx(3.0)
        assert fit.kappa_sub == pytest.approx(1.0)

    def test_planted_recovery(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 4))
        planted = rng.standard_normal(4)
        fit = fit_sls(X, X @ planted)
        assert np.allclose(fit.beta, planted, atol=1e-10)

    def test_duplicated_rows_still_solvable(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((3, 2))
        X = base[[0, 0, 1, 1, 2, 0]]  # with-replacement style duplicates
        y = X @ np.array([1.0, -2.0])
        fit = fit_sls(X, y)
        assert np.allclose(fit.beta, [1.0, -2.0], atol=1e-10)

    def test_weighted_fit_matches_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        w = rng.uniform(0.2, 3.0, 10)
        fit = fit_sls(X, y, weights=w)
        oracle = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
        assert np.allclose(fit.beta, oracle, atol=1e-10)

    def test_rank_deficient(self):
        X = np.ones((4, 2))
        with pytest.raises(RankDeficient):
            fit_sls(X, np.ones(4))

    @pytest.mark.parametrize("weights", [
        [1.0, 1.0, 1.0, 1.0, 1.0, -1.0],
        [1.0, 1.0, np.nan, 1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0, 1.0],
    ], ids=["negative", "nan", "wrong-length"])
    def test_rejects_bad_weights(self, weights):
        X = np.random.default_rng(3).standard_normal((6, 2))
        with pytest.raises(ValueError, match="weights"):
            fit_sls(X, np.ones(6), weights=weights)


class TestMseDecompose:
    def test_zero_shift_means_zero_bias(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 3))
        rep = mse_decompose(X, np.zeros(8), sigma2=2.0)
        assert rep.bias_sq_term == 0.0
        s = np.linalg.svd(X, compute_uv=False)
        assert rep.variance_term == pytest.approx(2.0 * np.sum(1.0 / s**2))

    def test_column_space_shift_on_orthonormal_design(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        h = q @ np.array([1.0, 2.0, -1.0])
        rep = mse_decompose(q, h, sigma2=0.0)
        assert rep.bias_sq_term == pytest.approx(h @ h, rel=1e-12)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        X = random_full_rank(rng, 7, 2)
        h = rng.standard_normal(7)
        sigma = 0.7
        rep = mse_decompose(X, h, sigma2=sigma**2)

        ndraw = 100_000
        beta0 = rng.standard_normal(2)
        noise = sigma * rng.standard_normal((ndraw, 7))
        pinv = np.linalg.pinv(X)
        errors = (pinv @ (h[None, :] + noise).T).T + 0.0  # beta-hat minus beta0
        sq = np.sum(errors**2, axis=1)
        mc, se = sq.mean(), sq.std(ddof=1) / np.sqrt(ndraw)
        assert abs(rep.total - mc) <= 3 * se

    def test_total_is_sum(self):
        rng = np.random.default_rng(6)
        X = random_full_rank(rng, 6, 2)
        rep = mse_decompose(X, rng.standard_normal(6), 1.3)
        assert rep.total == rep.variance_term + rep.bias_sq_term


class TestWorstCase:
    def test_identity_bound(self):
        wc = worst_case_mse(np.eye(4), sigma2=2.0, alpha=3.0)
        assert wc.bound == pytest.approx(2.0 * 4 + 9.0 * 4)

    def test_h_star_attains_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            r = int(rng.integers(3, 12))
            p = int(rng.integers(1, min(r, 5)))
            X = random_full_rank(rng, r, p)
            wc = worst_case_mse(X, sigma2=0.5, alpha=1.7)
            rep = mse_decompose(X, wc.h_star, sigma2=0.5)
            assert rep.total == pytest.approx(wc.bound, rel=1e-8)

    def test_h_star_norm_and_sign(self):
        rng = np.random.default_rng(8)
        X = random_full_rank(rng, 6, 3)
        wc = worst_case_mse(X, sigma2=0.0, alpha=2.0)
        s = np.linalg.svd(X, compute_uv=False)
        assert wc.h_star @ wc.h_star == pytest.approx(4.0 * np.sum(s**2), rel=1e-10)
        first = wc.h_star[np.abs(wc.h_star) > 1e-12 * np.abs(wc.h_star).max()][0]
        assert first > 0

    def test_random_admissible_shifts_dominated(self):
        rng = np.random.default_rng(9)
        X = random_full_rank(rng, 8, 3)
        sigma2, alpha = 0.3, 1.1
        wc = worst_case_mse(X, sigma2, alpha)
        budget = alpha**2 * np.sum(np.linalg.svd(X, compute_uv=False) ** 2)
        for _ in range(200):
            h = rng.standard_normal(8)
            h *= np.sqrt(budget * rng.random()) / np.linalg.norm(h)
            assert mse_decompose(X, h, sigma2).total <= wc.bound + 1e-10

    def test_bias_floor_and_equality_at_kappa_one(self):
        rng = np.random.default_rng(10)
        alpha = 1.0
        X = random_full_rank(rng, 7, 3)
        s = np.linalg.svd(X, compute_uv=False)
        bias_part = alpha**2 * np.sum(s**2) / s[-1] ** 2
        assert bias_part >= alpha**2 * 3 - 1e-10
        q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        wc = worst_case_mse(2.0 * q, sigma2=0.0, alpha=alpha)
        assert wc.bound == pytest.approx(alpha**2 * 3, rel=1e-8)

    @pytest.mark.parametrize("alpha", [1e200, 1e308])
    def test_bound_past_float_range_is_inf(self, alpha):
        # alpha**2 overflows; the sigma2 term stays finite
        X = random_full_rank(np.random.default_rng(13), 6, 2)
        wc = worst_case_mse(X, sigma2=1.0, alpha=alpha)
        assert wc.bound == np.inf
        assert wc.h_star.shape == (6,) and not np.any(np.isnan(wc.h_star))

    def test_matches_eigen_maximization_oracle(self):
        # independent route: explicit Q'Q spectrum gives the max of h'Q'Qh
        # over the admissible sphere
        rng = np.random.default_rng(11)
        X = random_full_rank(rng, 6, 2)
        alpha = 1.0
        Q = np.linalg.inv(X.T @ X) @ X.T
        lam = np.linalg.eigvalsh(Q.T @ Q)[-1]
        budget = alpha**2 * np.trace(X.T @ X)
        wc = worst_case_mse(X, sigma2=0.0, alpha=alpha)
        assert wc.bound == pytest.approx(lam * budget, rel=1e-6)


class TestPerturbationBounds:
    def test_zero_perturbation_reduces_to_kappa(self):
        rng = np.random.default_rng(12)
        L = random_full_rank(rng, 9, 3)
        s = np.linalg.svd(L, compute_uv=False)
        assert weyl_kappa_bound(L, np.zeros_like(L)) == pytest.approx(
            (s[0] / s[-1]) ** 2, rel=1e-12
        )

    def test_bounds_dominate_direct_computation(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            L = random_full_rank(rng, 8, 3, scale=2.0)
            sp = np.linalg.svd(L, compute_uv=False)[-1]
            D = rng.standard_normal((8, 3))
            D *= 0.5 * sp / np.linalg.svd(D, compute_uv=False)[0]
            M = L + D
            s = np.linalg.svd(M, compute_uv=False)
            assert (s[0] / s[-1]) ** 2 <= weyl_kappa_bound(L, D) + 1e-9
            assert np.sum(1.0 / s**2) <= trace_inv_bound(L, D) + 1e-9

    def test_boundary_violates_assumption(self):
        L = np.diag([2.0, 1.0])
        D = np.array([[1.0, 0.0], [0.0, 0.0]])  # s1(D) == sp(L) == 1
        with pytest.raises(AssumptionViolated):
            weyl_kappa_bound(L, D)
        with pytest.raises(AssumptionViolated):
            trace_inv_bound(L, D)

    def test_hand_computed_trace_bound(self):
        L = np.array([[1.0], [0.0]])
        D = np.array([[0.0], [0.5]])
        assert trace_inv_bound(L, D) == pytest.approx(4.0)
        M = L + D
        assert np.sum(1.0 / np.linalg.svd(M, compute_uv=False) ** 2) == pytest.approx(0.8)

    def test_bound_past_float_range_is_inf(self):
        L = 1e-170 * np.eye(3)  # s_p(L)**2 underflows to zero
        assert weyl_kappa_bound(L, np.zeros_like(L)) == pytest.approx(1.0)
        assert trace_inv_bound(L, np.zeros_like(L)) == np.inf

    def test_orthonormal_zero_perturbation_trace(self):
        q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((6, 3)))
        assert trace_inv_bound(q, np.zeros_like(q)) == pytest.approx(3.0)


class TestDesignMseBound:
    def test_orthonormal_zero_noise(self):
        q, _ = np.linalg.qr(np.random.default_rng(15).standard_normal((8, 4)))
        assert design_mse_bound(q, sigma2=0.0, alpha=1.5) == pytest.approx(1.5**2 * 4)

    def test_dominates_worst_case_at_design(self):
        d = generate_olhd(40, 10, np.random.default_rng(16))
        wc = worst_case_mse(d.points, sigma2=1.0, alpha=1.0)
        tb = design_mse_bound(d.points, sigma2=1.0, alpha=1.0)
        assert wc.bound <= tb * (1 + 1e-8)

    def test_informal_constant_form(self):
        d = generate_olhd(40, 10, np.random.default_rng(17))
        assert d.kappa <= 1.13
        s = np.linalg.svd(d.points, compute_uv=False)
        trace = np.sum(s**2)
        sigma2, alpha, p = 1.0, 1.0, 10
        tb = design_mse_bound(d.points, sigma2, alpha)
        informal = sigma2 * p**2 * 1.13 / trace + 1.13 * alpha**2 * p
        assert tb <= informal + 1e-12


class TestHuber:
    def test_zero_noise_equals_ols(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((30, 3))
        beta0 = np.array([1.0, -0.5, 2.0])
        fit = fit_huber_m(X, X @ beta0)
        assert fit.converged
        assert np.allclose(fit.beta, least_squares(X, X @ beta0), atol=1e-8)

    def test_resists_gross_outlier(self):
        rng = np.random.default_rng(19)
        X = np.column_stack([np.ones(40), rng.standard_normal(40)])
        beta0 = np.array([0.5, 2.0])
        y = X @ beta0 + 0.1 * rng.standard_normal(40)
        y[7] += 120.0
        huber = fit_huber_m(X, y).beta
        ols = least_squares(X, y)
        assert np.linalg.norm(huber - beta0) < np.linalg.norm(ols - beta0)

    def test_symmetric_noise_consistency(self):
        rng = np.random.default_rng(20)
        n = 4000
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        beta0 = np.array([1.0, -3.0])
        y = X @ beta0 + rng.standard_normal(n)
        fit = fit_huber_m(X, y)
        # coefficient standard errors are about 1.07/sqrt(n) here
        assert np.all(np.abs(fit.beta - beta0) < 3 * 1.07 / np.sqrt(n))

    def test_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(estimators, "_HUBER_MAX_ITER", 1)
        rng = np.random.default_rng(21)
        X = rng.standard_normal((50, 2))
        y = X @ [1.0, 1.0] + rng.standard_normal(50)
        fit = fit_huber_m(X, y)
        assert not fit.converged
        assert fit.iterations == 1

