import tracemalloc

import numpy as np
import pytest

from lowcon import (
    Box,
    InfeasibleDesign,
    generate_lhd,
    generate_olhd,
    lhd_levels,
    rescale_design,
)
from lowcon.designs import (
    DEFAULT_KAPPA_TARGET,
    _descend_correlations,
    _row_sqdist,
    _swap_scores,
)


class TestLevels:
    def test_r2(self):
        assert np.array_equal(lhd_levels(2), [-0.5, 0.5])

    def test_r4(self):
        assert np.array_equal(lhd_levels(4), [-0.75, -0.25, 0.25, 0.75])

    def test_r1(self):
        assert np.array_equal(lhd_levels(1), [0.0])


class TestLhd:
    def test_single_column_is_permutation(self):
        d = generate_lhd(3, 1, np.random.default_rng(0))
        assert np.array_equal(np.sort(d.points[:, 0]), lhd_levels(3))

    def test_one_point_per_marginal_slice(self):
        d = generate_lhd(9, 2, np.random.default_rng(1))
        edges = np.linspace(-1.0, 1.0, 10)
        for j in range(2):
            counts, _ = np.histogram(d.points[:, j], bins=edges)
            assert np.array_equal(counts, np.ones(9, dtype=int))

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(2)
        # dyadic r: exact cancellation; otherwise within accumulated rounding
        for r in (2, 4, 8, 16):
            d = generate_lhd(r, 3, rng)
            assert np.all(d.points.sum(axis=0) == 0.0)
        for r in (5, 10, 37):
            d = generate_lhd(r, 3, rng)
            assert np.all(np.abs(d.points.sum(axis=0)) < 1e-14 * r)

    def test_permutation_property_bitwise(self):
        rng = np.random.default_rng(3)
        for r, p in ((5, 2), (12, 4), (30, 7)):
            d = generate_lhd(r, p, rng)
            levels = lhd_levels(r)
            for j in range(p):
                assert np.array_equal(np.sort(d.points[:, j]), levels)


class TestOlhd:
    def test_kappa_target_9x2(self):
        d = generate_olhd(9, 2, np.random.default_rng(4))
        assert d.kappa <= 1.13

    def test_single_column_kappa_one(self):
        d = generate_olhd(2, 1, np.random.default_rng(5))
        assert d.kappa == 1.0
        assert d.max_abs_corr == 0.0

    def test_beats_median_plain_lhd(self):
        d = generate_olhd(40, 10, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        plain = [generate_lhd(40, 10, rng).kappa for _ in range(100)]
        assert d.kappa < np.median(plain)

    def test_preserves_permutation_property(self):
        d = generate_olhd(16, 5, np.random.default_rng(8))
        levels = lhd_levels(16)
        for j in range(5):
            assert np.array_equal(np.sort(d.points[:, j]), levels)

    def test_deterministic_under_seed(self):
        a = generate_olhd(20, 4, np.random.default_rng(9))
        b = generate_olhd(20, 4, np.random.default_rng(9))
        assert np.array_equal(a.points, b.points)
        assert a.kappa == b.kappa

    def test_infeasible_when_r_at_most_p(self):
        with pytest.raises(InfeasibleDesign):
            generate_olhd(5, 5, np.random.default_rng(10))
        with pytest.raises(InfeasibleDesign):
            generate_olhd(3, 8, np.random.default_rng(10))

    def test_reports_kappa_when_target_missed(self):
        # r = p + 1 at tiny sizes cannot reach 1.13; the best kappa is reported
        d = generate_olhd(3, 2, np.random.default_rng(11))
        assert np.isfinite(d.kappa)
        assert d.kappa > 1.13


def _offdiag_rss(L, j):
    """Off-diagonal sum of squares of Gram row j, recomputed from scratch."""
    row = L.T @ L[:, j]
    row[j] = 0.0
    return float(row @ row)


def _offdiag_objective(L):
    G = L.T @ L
    return float((G * G).sum() - (np.diag(G) ** 2).sum())


class TestSwapDescent:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_swap_scores_match_recomputed_gram(self, p):
        r = 9
        L = generate_lhd(r, p, np.random.default_rng(30 + p)).points
        G, D2 = L.T @ L, _row_sqdist(L)
        for j in range(p):
            oracle = np.empty((r, r))
            for a in range(r):
                for b in range(r):
                    M = L.copy()
                    M[a, j], M[b, j] = M[b, j], M[a, j]
                    oracle[a, b] = _offdiag_rss(M, j)
            np.testing.assert_allclose(_swap_scores(L, j, G, D2), oracle, rtol=1e-12)

    @pytest.mark.parametrize("r, p", [(12, 2), (15, 3), (20, 5)])
    def test_descent_ends_at_local_optimum(self, r, p):
        L = generate_lhd(r, p, np.random.default_rng(40 + r)).points
        limit = 200 * r * p  # generate_olhd's default
        L, _, swaps = _descend_correlations(L, 0.0, limit)
        assert 0 < swaps < limit  # stopped because no swap was accepted
        obj = _offdiag_objective(L)
        for j in range(p):
            for a in range(r):
                for b in range(a + 1, r):
                    M = L.copy()
                    M[a, j], M[b, j] = M[b, j], M[a, j]
                    assert _offdiag_objective(M) >= obj * (1.0 - 1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_max_swaps_binds_within_a_sweep(self, k):
        L0 = generate_lhd(40, 10, np.random.default_rng(50)).points
        L, kappa, swaps = _descend_correlations(L0.copy(), 0.0, k)
        assert swaps == k
        assert 0 < np.count_nonzero(L != L0) <= 2 * k
        assert kappa == pytest.approx(np.linalg.cond(L.T @ L), rel=1e-9)

    def test_memory_stays_bounded_at_large_r(self):
        tracemalloc.start()
        try:
            L = generate_lhd(1000, 20, np.random.default_rng(51)).points
            _descend_correlations(L, DEFAULT_KAPPA_TARGET, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20


class TestRescale:
    def test_identity_box_is_noop(self):
        d = generate_olhd(8, 2, np.random.default_rng(12))
        out = rescale_design(d, Box.unit_cube(2))
        assert np.array_equal(out.points, d.points)

    def test_unit_interval_endpoints(self):
        from lowcon import DesignMatrix

        extremes = DesignMatrix(
            points=np.array([[-1.0], [1.0]]),
            box=Box.unit_cube(1),
            kappa=1.0,
            max_abs_corr=0.0,
        )
        out = rescale_design(extremes, Box(lower=[0.0], upper=[1.0]))
        assert out.points[0, 0] == 0.0
        assert out.points[1, 0] == 1.0

    def test_levels_map_affinely(self):
        d = generate_lhd(2, 1, np.random.default_rng(13))
        out = rescale_design(d, Box(lower=[0.0], upper=[1.0]))
        mapped = {(-0.5): 0.25, 0.5: 0.75}
        for src, dst in zip(d.points[:, 0], out.points[:, 0]):
            assert dst == mapped[src]

    def test_symmetric_cube_preserves_kappa(self):
        d = generate_olhd(12, 3, np.random.default_rng(15))
        out = rescale_design(d, Box(lower=[-0.8] * 3, upper=[0.8] * 3))
        assert out.kappa == pytest.approx(d.kappa, rel=1e-10)

    def test_correlation_invariant_under_rescale(self):
        d = generate_olhd(12, 3, np.random.default_rng(16))
        out = rescale_design(d, Box(lower=[-0.5, 0.1, -2.0], upper=[0.7, 0.9, 3.0]))
        assert out.max_abs_corr == pytest.approx(d.max_abs_corr, abs=1e-12)


class TestTraceIdentities:
    def test_closed_form_trace(self):
        for r, p in ((7, 2), (20, 6)):
            d = generate_lhd(r, p, np.random.default_rng(17))
            gram_trace = np.trace(d.points.T @ d.points)
            levels_sq = float(np.sum(lhd_levels(r) ** 2))
            assert gram_trace == pytest.approx(p * levels_sq, abs=1e-10)

    def test_centered_box_trace_scaling(self):
        # shrinking every side by the same factor s scales the trace by s^2;
        # with per-column factors s_j the trace scales by mean(s_j^2)
        d = generate_olhd(10, 4, np.random.default_rng(18))
        base = np.trace(d.points.T @ d.points)
        s = 0.8
        cube = rescale_design(d, Box(lower=[-s] * 4, upper=[s] * 4))
        assert np.trace(cube.points.T @ cube.points) == pytest.approx(
            base * s**2, abs=1e-10
        )
        sj = np.array([0.9, 0.5, 0.7, 1.0])
        mixed = rescale_design(d, Box(lower=-sj, upper=sj))
        assert np.trace(mixed.points.T @ mixed.points) == pytest.approx(
            base * np.mean(sj**2), abs=1e-10
        )


def test_box_rejects_degenerate_sides():
    from lowcon import DegenerateBox

    with pytest.raises(DegenerateBox):
        Box(lower=[0.0, 1.0], upper=[1.0, 1.0])
