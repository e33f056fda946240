import numpy as np
import pytest

from lowcon import (
    RankDeficient,
    condition_number,
    least_squares,
    leverage_scores,
    singular_values,
)
from lowcon.linalg import _aligned_empty, _require_int


@pytest.mark.parametrize("shape, dtype", [
    ((3, 25600), np.float64), ((5, 50_000), np.float32), ((1,), np.float32),
    ((7, 3), np.float64),
])
def test_aligned_empty_starts_on_a_cache_line(shape, dtype):
    for _ in range(8):  # several allocations, so several malloc addresses
        a = _aligned_empty(shape, dtype)
        assert a.shape == shape and a.dtype == dtype and a.flags["C_CONTIGUOUS"]
        assert a.ctypes.data % 64 == 0
        a[...] = 1  # writable over its whole extent


@pytest.mark.parametrize("value, ok", [
    (3, True), (np.int64(3), True), (0, True), (3.0, False), (np.float64(3), False),
    (True, False), ("3", False), (None, False),
])
def test_require_int_names_the_argument(value, ok):
    if ok:
        _require_int(value, "k")
    else:
        with pytest.raises(ValueError, match=r"^k must be an integer, got k="):
            _require_int(value, "k")


@pytest.mark.parametrize("value, ok", [
    (2**63 - 1, True), (-2**63, True), (np.uint64(2**63 - 1), True),
    (2**63, False), (-2**63 - 1, False), (10**30, False), (np.uint64(2**64 - 1), False),
])
def test_require_int_rejects_what_int64_cannot_hold(value, ok):
    if ok:
        _require_int(value, "k")
    else:
        with pytest.raises(ValueError, match=rf"^k must fit in int64, got k={int(value)}$"):
            _require_int(value, "k")


def hat_diag_oracle(X):
    """Dense hat-matrix diagonal via an explicit inverse (test oracle only)."""
    return np.diag(X @ np.linalg.inv(X.T @ X) @ X.T)


class TestLeastSquares:
    def test_identity_design(self):
        beta = least_squares(np.eye(2), [3.0, 5.0])
        assert np.allclose(beta, [3.0, 5.0])

    def test_single_column_gives_mean(self):
        beta = least_squares(np.ones((3, 1)), [1.0, 2.0, 3.0])
        assert np.allclose(beta, [2.0])

    def test_planted_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 3))
        planted = rng.standard_normal(3)
        beta = least_squares(X, X @ planted)
        assert np.allclose(beta, planted, atol=1e-10)

    def test_weighted_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        w = rng.uniform(0.5, 2.0, 12)
        beta = least_squares(X, y, weights=w)
        oracle = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
        assert np.allclose(beta, oracle, atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.standard_normal((15, 4))
            y = rng.standard_normal(15)
            resid = y - X @ least_squares(X, y)
            bound = 1e-8 * np.linalg.norm(X) * np.linalg.norm(y)
            assert np.all(np.abs(X.T @ resid) <= bound)

    def test_rank_deficient_raises(self):
        X = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
        with pytest.raises(RankDeficient):
            least_squares(X, np.ones(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_y(self, bad):
        with pytest.raises(ValueError, match="y entries must be finite"):
            least_squares(np.eye(2), [1.0, bad])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            least_squares(np.eye(2), [1.0, 2.0], weights=[1.0, -1.0])


class TestSingularValues:
    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])

    def test_rank_one_all_ones(self):
        s = singular_values(np.ones((2, 2)))
        assert np.allclose(s, [2.0, 0.0], atol=1e-15)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 3))
        ev = np.linalg.eigvalsh(A.T @ A)[::-1]
        assert np.allclose(singular_values(A) ** 2, ev, atol=1e-10)

    def test_nonincreasing_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = singular_values(rng.standard_normal((6, 4)))
            assert np.all(np.diff(s) <= 0)
            assert np.all(s >= 0)

    def test_weyl_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            A = rng.standard_normal((7, 4))
            B = rng.standard_normal((7, 4))
            sA = singular_values(A)
            sB = singular_values(B)
            sAB = singular_values(A + B)
            assert np.all(np.abs(sAB - sA) <= sB[0] + 1e-10)


class TestConditionNumber:
    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((6, 3)))
        assert condition_number(q) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([2.0, 1.0])) == pytest.approx(4.0)

    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((8, 2))
        ev = np.linalg.eigvalsh(X.T @ X)
        assert condition_number(X) == pytest.approx(ev[-1] / ev[0], rel=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((9, 3))
        base = condition_number(X)
        for c in (2.0, -0.5, 1e-3, 1e3):
            assert condition_number(c * X) == pytest.approx(base, rel=1e-9)

    def test_singular_gives_infinity(self):
        collinear = np.column_stack([np.arange(4.0), 3.0 * np.arange(4.0)])
        fewer_rows_than_columns = np.array([[1.0, 2.0]])
        for X in (collinear, fewer_rows_than_columns):
            assert condition_number(X) == np.inf


class TestLeverageScores:
    def test_identity(self):
        assert np.allclose(leverage_scores(np.eye(3)), [1.0, 1.0, 1.0])

    def test_zero_row(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(leverage_scores(X), [1.0, 1.0, 0.0], atol=1e-14)

    def test_matches_dense_hat_oracle(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((20, 4))
        assert np.allclose(leverage_scores(X), hat_diag_oracle(X), atol=1e-10)

    def test_sum_and_range(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n, p = int(rng.integers(4, 30)), int(rng.integers(1, 4))
            X = rng.standard_normal((n, max(p, 1)))
            h = leverage_scores(X)
            assert abs(h.sum() - X.shape[1]) < 1e-8
            assert np.all(h >= 0.0) and np.all(h <= 1.0 + 1e-12)

    def test_rank_deficient_raises(self):
        X = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            leverage_scores(X)


def test_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))
