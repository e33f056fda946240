import itertools
import re

import numpy as np
import pytest

from lowcon import (
    Box,
    ConstantColumn,
    DegenerateBox,
    InfeasibleDesign,
    blev,
    fit_sls,
    gen_predictors,
    generate_olhd,
    iboss,
    leverage_scores,
    levunw,
    lowcon,
    scale_to_cube,
    slev,
    theta_box,
    unif,
)
from lowcon.samplers import (
    _CLAIM_BLOCK_BYTES,
    _SAMPLERS,
    _claim_nearest,
    _leverage_draw,
    _leverage_table,
    _Prepared,
    _scale_rows,
    _scaled_sample,
)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# (r, error, message) cases that every sampler shares: a float, a numpy
# float and a bool are no integer; a numpy integer is one
NON_INTEGER_R = [
    pytest.param(10.0, ValueError, r"r must be an integer, got r=10\.0", id="float"),
    pytest.param(np.float64(10.0), ValueError, r"r must be an integer, got r=",
                 id="numpy-float"),
    pytest.param(True, ValueError, r"r must be an integer, got r=True", id="bool"),
    pytest.param(np.int64(10), None, None, id="numpy-int"),
]
# what unif, blev, slev and levunw also reject
POSITIVE_R = NON_INTEGER_R + [
    pytest.param(0, ValueError, r"r must be at least 1, got r=0", id="zero"),
    pytest.param(-1, ValueError, r"r must be at least 1, got r=-1", id="negative"),
]


def check_r(select, r, error, message):
    """``select(r)`` raises ``error`` matching ``message``, or selects r rows."""
    if error is None:
        assert len(select(r).indices) == r
    else:
        with pytest.raises(error, match=message):
            select(r)


class TestScaling:
    def test_affine_endpoints(self):
        scaled, _ = scale_to_cube(np.array([[0.0], [1.0], [2.0]]))
        assert np.array_equal(scaled[:, 0], [-1.0, 0.0, 1.0])

    def test_idempotent_on_spanning_data(self):
        X = np.array([[-1.0], [1.0]])
        scaled, _ = scale_to_cube(X)
        assert np.array_equal(scaled, X)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 3)) * [2.0, 10.0, 0.3] + [5.0, -1.0, 0.0]
        scaled, box = scale_to_cube(X)
        assert isinstance(box, Box)
        assert np.array_equal(box.lower, X.min(axis=0))
        assert np.array_equal(box.upper, X.max(axis=0))
        # each entry's share of its column's range, mapped from [0, 1] to [-1, 1]
        expect = [[(v - min(col)) / (max(col) - min(col)) * 2 - 1 for v in col]
                  for col in X.T.tolist()]
        assert np.allclose(scaled, np.array(expect).T, rtol=0.0, atol=1e-14)

    def test_constant_column_rejected(self):
        with pytest.raises(ConstantColumn):
            scale_to_cube(np.column_stack([np.arange(4.0), np.full(4, 7.0)]))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bit_equal_to_the_formula_and_to_the_kept_sample(self, layout):
        base = np.random.default_rng(4).standard_t(3, (514, 5)) * 1e3 + 7.0
        X = {"C": base[:257], "F": np.asfortranarray(base[:257]),
             "strided": base[::2, ::-1]}[layout]
        before = X.copy()
        lo, hi = X.min(axis=0), X.max(axis=0)
        scaled, _ = scale_to_cube(X)
        assert np.array_equal(X, before)
        assert scaled.shape == (257, 5) and scaled.flags["C_CONTIGUOUS"]
        assert np.array_equal(scaled, 2.0 * (X - lo) / (hi - lo) - 1.0)
        S, screen = _scaled_sample(X)
        assert np.array_equal(X, before)
        assert np.array_equal(S.T, scaled)
        assert screen.dtype == np.float32 and screen.flags["C_CONTIGUOUS"]
        assert np.array_equal(screen[:5], scaled.T.astype(np.float32))
        # norms summed in float64, then rounded once to float32
        assert np.allclose(screen[5], (scaled ** 2).sum(axis=1),
                           rtol=1.0001 * 2.0 ** -24, atol=0.0)

    @pytest.mark.parametrize("col", [[-1e308, 1e308, 0.0], [0.0, 1.6e308, 1.0]],
                             ids=["range-overflows", "twice-range-overflows"])
    def test_overflowing_range_named_before_any_write(self, col):
        # the suite turns a RuntimeWarning into an error, so none may be raised
        X = np.column_stack([np.arange(3.0), col, np.array(col) / 4])
        before = X.copy()
        for call in (scale_to_cube, lambda X: lowcon(X, 2, rng=np.random.default_rng(0))):
            with pytest.raises(ValueError, match=r"columns \[1\] have too wide a range"):
                call(X)
        R = X.T.copy()
        with pytest.raises(ValueError, match=r"columns \[1\]"):
            _scale_rows(R)
        assert same_bits(R, before.T.copy()) and same_bits(X, before)

    def test_widest_range_that_fits_scales_by_the_formula(self):
        X = np.array([[0.0, -1.0], [8.9e307, 3.0], [3e307, 1.0], [8e307, 2.0]])
        lo, hi = X.min(axis=0), X.max(axis=0)
        scaled, _ = scale_to_cube(X)
        assert same_bits(scaled, 2.0 * (X - lo) / (hi - lo) - 1.0)


class TestThetaBox:
    def test_theta_zero_is_unit_cube(self):
        rng = np.random.default_rng(1)
        scaled, _ = scale_to_cube(rng.standard_normal((100, 3)))
        box = theta_box(scaled, 0.0)
        assert np.array_equal(box.lower, [-1.0] * 3)
        assert np.array_equal(box.upper, [1.0] * 3)

    def test_arithmetic_grid_quantiles(self):
        col = np.linspace(-1.0, 1.0, 101)[:, None]
        box = theta_box(col, 1.0)
        assert box.lower[0] == pytest.approx(-0.98, abs=1e-12)
        assert box.upper[0] == pytest.approx(0.98, abs=1e-12)

    def test_matches_sort_interpolation_oracle(self):
        rng = np.random.default_rng(2)
        col = np.sort(rng.standard_normal(137))
        scaled, _ = scale_to_cube(col[:, None])
        box = theta_box(scaled, 25.0)
        xs = np.sort(scaled[:, 0])
        pos = 0.25 * (len(xs) - 1)
        lo = int(np.floor(pos))
        expect_lower = xs[lo] + (pos - lo) * (xs[lo + 1] - xs[lo])
        assert box.lower[0] == pytest.approx(expect_lower, abs=1e-12)

    def test_degenerate_box_raises(self):
        col = np.concatenate([[-1.0], np.zeros(98), [1.0]])[:, None]
        with pytest.raises(DegenerateBox):
            theta_box(col, 10.0)

    def test_degenerate_box_names_columns_and_theta(self):
        rng = np.random.default_rng(3)
        binary = (np.arange(1000) < 5).astype(float)  # 0.5% ones
        X = np.column_stack([rng.standard_normal(1000), binary])
        scaled, _ = scale_to_cube(X)
        with pytest.raises(DegenerateBox, match=r"columns \[1\].*theta=1\.0"):
            theta_box(scaled, 1.0)

    def test_theta_range_validated(self):
        with pytest.raises(ValueError):
            theta_box(np.zeros((10, 1)), 50.0)

    @pytest.mark.parametrize("X, message", [
        (np.linspace(-1.0, 1.0, 5), r"shape \(5,\)"),
        (np.zeros((0, 2)), r"shape \(0, 2\)"),
        (np.zeros((4, 2, 2)), r"shape \(4, 2, 2\)"),
        (np.where(np.arange(20).reshape(10, 2) == 7, np.nan, 0.5),
         "matrix entries must be finite"),
    ], ids=["vector", "no-rows", "3-d", "nan"])
    def test_rejects_what_is_not_a_finite_matrix(self, X, message):
        with pytest.raises(ValueError, match=message):
            theta_box(X, 1.0)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 5.0, 25.0])
    @pytest.mark.parametrize("shape", ["odd", "even", "ties", "p1"])
    def test_box_lowcon_keeps_is_numpys_quantile(self, shape, theta):
        # the oracle is numpy's own n x p quantile of the public scaling
        rng = np.random.default_rng(5)
        X = {"odd": rng.standard_normal((301, 4)),
             "even": rng.standard_t(3, (300, 3)) * [1.0, 50.0, 0.1],
             "ties": np.round(rng.standard_normal((400, 3)), 1),
             "p1": rng.exponential(size=(251, 1))}[shape]
        sample = _Prepared(X)
        lowcon(sample, 30, theta, rng=np.random.default_rng(6))
        kept = sample.keep(("box", theta), None)
        q = [theta / 100.0, 1.0 - theta / 100.0]
        lo, hi = np.quantile(scale_to_cube(X)[0], q, axis=0)
        assert np.array_equal(kept.lower, lo) and np.array_equal(kept.upper, hi)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_sweep_is_numpys_quantile_bit_for_bit(self, layout):
        # seeded shapes, a third with rounded ties, plus the edges: p = 1,
        # n = 1 (one point: every column degenerate), n = 2 and n = 4 (both
        # percentiles between the same pair), n = 3 (neighbouring pairs).
        # Inputs hold no -0.0: where -0.0 and 0.0 tie, which one a partition
        # leaves at a position depends on its path, and the sign shows in
        # the bits (a scaled column never holds -0.0).
        rng = np.random.default_rng(8)
        shapes = [(int(rng.integers(2, 600)), int(rng.integers(1, 5))) for _ in range(60)]
        shapes += [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (4, 2), (500, 1)]
        for i, (n, p) in enumerate(shapes):
            base = rng.uniform(-1.0, 1.0, (2 * n, p + 1))
            if i % 3 == 0:
                base = np.round(base, 1) + 0.0
            X = {"C": base[:n, :p].copy(), "F": np.asfortranarray(base[:n, :p]),
                 "strided": base[::2, :0:-1]}[layout]
            before = X.copy()
            for theta in (0.0, 1e-9, 1.0, 5.0, 25.0, 49.9, 49.99):
                q = [theta / 100.0, 1.0 - theta / 100.0]
                lo, hi = np.quantile(X, q, axis=0)
                flat = np.flatnonzero(lo >= hi).tolist()
                if flat:
                    with pytest.raises(DegenerateBox, match=rf"columns {re.escape(str(flat))} "):
                        theta_box(X, theta)
                else:
                    box = theta_box(X, theta)
                    assert same_bits(box.lower, lo) and same_bits(box.upper, hi), (n, p, theta)
                assert same_bits(X, before)

    def test_lowcon_leaves_input_and_kept_sample_unchanged(self):
        X = np.asfortranarray(np.random.default_rng(9).standard_normal((400, 3)))
        before = X.copy()
        sample = _Prepared(X)
        for theta in (1.0, 25.0):
            lowcon(sample, 20, theta, rng=np.random.default_rng(10))
        kept, fresh = sample.keep("scaled", None), _scaled_sample(before)
        assert all(same_bits(a, b) for a, b in zip(kept, fresh, strict=True))
        assert same_bits(X, before)


class TestUnif:
    @pytest.mark.parametrize("r, error, message", POSITIVE_R)
    def test_r_checked(self, r, error, message):
        X = np.random.default_rng(2).standard_normal((40, 2))
        check_r(lambda r: unif(X, r, np.random.default_rng(0)), r, error, message)

    def test_all_rows_when_r_equals_n(self):
        X = np.random.default_rng(3).standard_normal((6, 2))
        sel = unif(X, 6, np.random.default_rng(0))
        assert sorted(sel.indices.tolist()) == list(range(6))

    def test_deterministic(self):
        X = np.random.default_rng(4).standard_normal((40, 2))
        a = unif(X, 10, np.random.default_rng(5))
        b = unif(X, 10, np.random.default_rng(5))
        assert np.array_equal(a.indices, b.indices)

    def test_inclusion_frequencies(self):
        n, r, draws = 20, 5, 10_000
        X = np.random.default_rng(6).standard_normal((n, 2))
        rng = np.random.default_rng(7)
        counts = np.zeros(n)
        for _ in range(draws):
            counts[unif(X, r, rng).indices] += 1
        prob = r / n
        sd = np.sqrt(draws * prob * (1 - prob))
        assert np.all(np.abs(counts - draws * prob) <= 3 * sd)


def equal_leverage_design(n):
    """Rows on a circle: equal leverage, orthogonal columns."""
    theta = 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


class TestBlev:
    @pytest.mark.parametrize("r, error, message", POSITIVE_R)
    def test_r_checked(self, r, error, message):
        X = np.random.default_rng(2).standard_normal((40, 2))
        check_r(lambda r: blev(X, r, np.random.default_rng(0)), r, error, message)

    def test_equal_leverage_gives_uniform_weights(self):
        n, r = 16, 8
        X = equal_leverage_design(n)
        sel = blev(X, r, np.random.default_rng(8))
        assert np.allclose(sel.weights, n / r)

    def test_probabilities_normalized(self):
        X = np.random.default_rng(9).standard_normal((30, 3))
        pi = _leverage_table(X, alpha=1.0)[0]
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(pi, leverage_scores(X) / 3.0, atol=1e-12)

    def test_draw_frequencies_match_pi(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((15, 2)) * np.array([1.0, 5.0])
        pi = _leverage_table(X, alpha=1.0)[0]
        draws, r = 10_000, 4
        counts = np.zeros(15)
        for _ in range(draws):
            np.add.at(counts, blev(X, r, rng).indices, 1.0)
        total = draws * r
        sd = np.sqrt(total * pi * (1 - pi))
        assert np.all(np.abs(counts - total * pi) <= 3 * sd + 1e-9)

    def test_with_replacement_can_repeat(self):
        # single dominant-leverage row gets drawn repeatedly
        X = np.vstack([np.full((20, 1), 0.01), [[100.0]]])
        sel = blev(X, 10, np.random.default_rng(11))
        assert len(sel.indices) == 10
        assert len(set(sel.indices.tolist())) < 10


class TestSlev:
    @pytest.mark.parametrize("r, error, message", POSITIVE_R)
    def test_r_checked(self, r, error, message):
        X = np.random.default_rng(2).standard_normal((40, 2))
        check_r(lambda r: slev(X, r, np.random.default_rng(0)), r, error, message)

    def test_weights_use_fixed_shrinkage(self):
        rng = np.random.default_rng(12)
        n, r = 40, 12
        X = rng.standard_normal((n, 3)) * [1.0, 4.0, 0.2]
        sel = slev(X, r, np.random.default_rng(13))
        h = (np.linalg.qr(X)[0] ** 2).sum(axis=1)  # leverages from a QR factor
        pi = 0.9 * h / h.sum() + 0.1 / n
        assert np.allclose(sel.weights, 1.0 / (r * pi[sel.indices]), rtol=1e-12, atol=0.0)

    def test_small_alpha_near_uniform(self):
        X = np.random.default_rng(14).standard_normal((25, 2))
        pi = _leverage_table(X, alpha=1e-12)[0]
        assert np.allclose(pi, 1.0 / 25, atol=1e-10)

    def test_shrinkage_floor(self):
        X = np.random.default_rng(15).standard_normal((40, 3))
        alpha = 0.9
        pi = _leverage_table(X, alpha=alpha)[0]
        assert np.all(pi >= (1 - alpha) / 40 - 1e-12)


class TestLevunw:
    @pytest.mark.parametrize("r, error, message", POSITIVE_R)
    def test_r_checked(self, r, error, message):
        X = np.random.default_rng(2).standard_normal((40, 2))
        check_r(lambda r: levunw(X, r, np.random.default_rng(0)), r, error, message)

    def test_same_indices_as_blev_same_seed(self):
        X = np.random.default_rng(17).standard_normal((30, 3))
        a = blev(X, 9, np.random.default_rng(18))
        b = levunw(X, 9, np.random.default_rng(18))
        assert np.array_equal(a.indices, b.indices)
        assert a.weights is not None and b.weights is None

    def test_fit_differs_from_blev_on_skewed_leverage(self):
        rng = np.random.default_rng(19)
        X = np.column_stack([np.ones(60), np.exp(rng.standard_normal(60) * 2)])
        y = X @ [1.0, 2.0] + 5 * X[:, 1] ** 2 + rng.standard_normal(60)
        a = blev(X, 20, np.random.default_rng(20))
        b = levunw(X, 20, np.random.default_rng(20))
        fa = fit_sls(X[a.indices], y[a.indices], weights=a.weights)
        fb = fit_sls(X[b.indices], y[b.indices])
        assert not np.allclose(fa.beta, fb.beta)


class TestLeverageDraw:
    # the oracle: numpy's own weighted draw with replacement on pi as it was
    # built per call before the tables were kept
    @staticmethod
    def oracle(X, r, alpha, rng):
        h = leverage_scores(X)
        pi = alpha * h / h.sum() + (1.0 - alpha) / X.shape[0]
        pi = pi / pi.sum()
        return np.asarray(rng.choice(X.shape[0], size=r, replace=True, p=pi), dtype=np.intp), pi

    @pytest.mark.parametrize("alpha", [1.0, 0.9])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_draw_is_numpys_choice_bit_for_bit(self, alpha, zeros):
        meta = np.random.default_rng(70)
        for n, r in [(1, 1), (2, 2), (5, 1), (7, 7), (40, 13), (300, 1), (300, 299), (2000, 50)]:
            p = min(n, 3)
            X = meta.standard_normal((n, p))
            if zeros and n > p + 4:  # exact-zero leverage at both ends
                X[:2] = X[-3:] = 0.0
                assert np.count_nonzero(leverage_scores(X) == 0.0) > 0
            seed = int(meta.integers(1 << 31))
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want, pi = self.oracle(X, r, alpha, want_rng)
            sample = _Prepared(X)
            for _ in range(2):  # the built table, then the kept one
                got, kept_pi = _leverage_draw(sample, r, got_rng, alpha)
                assert same_bits(got, want), (n, r)
                assert same_bits(1.0 / (r * kept_pi[got]), 1.0 / (r * pi[want])), (n, r)
                assert got_rng.random() == want_rng.random(), (n, r)
                want, pi = self.oracle(X, r, alpha, want_rng)

    def test_public_weights_are_the_oracles(self):
        X = np.random.default_rng(71).standard_t(3, (500, 4))
        for sampler, alpha in ((blev, 1.0), (slev, 0.9)):
            want, pi = self.oracle(X, 37, alpha, np.random.default_rng(72))
            sel = sampler(X, 37, np.random.default_rng(72))
            assert same_bits(sel.indices, want)
            assert same_bits(sel.weights, 1.0 / (37 * pi[want]))

    @pytest.mark.parametrize("order", list(itertools.permutations(("BLEV", "SLEV", "LEVUNW"))))
    def test_any_order_on_one_sample_matches_fresh_samples(self, order):
        X = np.random.default_rng(73).standard_normal((400, 3)) * [1.0, 8.0, 0.1]
        sample = _Prepared(X)
        for k, m in enumerate(order * 2):
            got = _SAMPLERS[m](sample, 25, np.random.default_rng([74, k]), 1.0)
            want = _SAMPLERS[m](X.copy(), 25, np.random.default_rng([74, k]), 1.0)
            assert same_bits(got.indices, want.indices), (order, k)
            assert (got.weights is None) == (want.weights is None)
            if got.weights is not None:
                assert same_bits(got.weights, want.weights), (order, k)

    def test_one_table_per_alpha_kept_read_only(self):
        sample = _Prepared(np.random.default_rng(75).standard_normal((300, 3)))
        blev(sample, 10, np.random.default_rng(0))
        table = _leverage_table(sample, 1.0)
        levunw(sample, 10, np.random.default_rng(0))
        assert _leverage_table(sample, 1.0) is table
        slev(sample, 10, np.random.default_rng(0))
        shrunk = _leverage_table(sample, 0.9)
        assert shrunk is not table and _leverage_table(sample, 0.9) is shrunk
        for arr in table + shrunk:
            assert arr.shape == (300,) and not arr.flags.writeable
        pi, cdf = table
        assert same_bits(cdf, pi.cumsum() / pi.cumsum()[-1])


def iboss_oracle(X, r):
    """IBOSS from its definition: per column, the k = r // 2p smallest then
    the k largest rows not yet taken, ranked by (value, row) and (-value,
    row); then the rest of r from column 0, alternating smallest/largest."""
    n, p = X.shape
    k = r // (2 * p)
    chosen = []

    def first_free(key):
        return min((i for i in range(n) if i not in chosen), key=key)

    for j in range(p):
        for key in (lambda i: (X[i, j], i), lambda i: (-X[i, j], i)):
            for _ in range(k):
                chosen.append(first_free(key))
    keys = (lambda i: (X[i, 0], i), lambda i: (-X[i, 0], i))
    while len(chosen) < r:
        chosen.append(first_free(keys[(len(chosen) - 2 * p * k) % 2]))
    return chosen


class TestIboss:
    def test_one_dim_extremes(self):
        X = np.array([5.0, 1.0, 9.0, 3.0, 7.0])[:, None]
        sel = iboss(X, 4)
        assert sorted(X[sel.indices, 0].tolist()) == [1.0, 3.0, 7.0, 9.0]

    def test_r_equals_2p_takes_min_max_per_column(self):
        rng = np.random.default_rng(21)
        X = rng.permutation(100.0 * np.arange(1, 13)).reshape(6, 2)
        sel = iboss(X, 4)
        first = sel.indices[:2]
        assert X[:, 0].min() in X[first, 0] and X[:, 0].max() in X[first, 0]

    def test_claim_blocks_are_pool_extremes(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((200, 10))
        r, p = 40, 10
        sel = iboss(X, r)
        k = r // (2 * p)
        pool = np.ones(200, dtype=bool)
        for j in range(p):
            block = sel.indices[j * 2 * k: (j + 1) * 2 * k]
            vals = np.sort(X[pool, j])
            lo_set, hi_set = set(vals[:k]), set(vals[-k:])
            got = set(X[block, j].tolist())
            assert got == lo_set | hi_set
            pool[block] = False

    def test_remainder_alternates_extremes(self):
        X = np.arange(10.0)[:, None] @ np.ones((1, 2))
        X[:, 1] = X[::-1, 0]
        sel = iboss(X, 7)  # k = 1, remainder 3 from column 1
        assert len(sel.indices) == 7
        # after column blocks {0,9} and {0,9}-complement, remainder picks
        # smallest, largest, smallest of what is left in column 1
        rem = sel.indices[4:]
        assert X[rem[0], 0] == X[rem, 0].min()
        assert X[rem[1], 0] == X[rem, 0].max()

    def test_value_ties_resolve_to_smallest_index(self):
        X = np.zeros((6, 1))
        X[4:] = 1.0
        sel = iboss(X, 2)
        assert sel.indices.tolist() == [0, 4]

    def test_remainder_with_tied_column_matches_oracle(self):
        rng = np.random.default_rng(24)
        # integer columns tie heavily, and r = 2p*k + 5 leaves a remainder
        cases = [(rng.integers(0, 4, (300, 3)).astype(float), (11, 23, 41))]
        # 0/1 columns: on both sides the k-th value falls inside a tied block
        cases.append(((rng.random((200, 2)) < 0.5).astype(float), (9, 30, 43, 101)))
        # n == r with a 0/1 column 0: the remainder's smallest and largest
        # candidates are the same rows, so each side steps past the other's
        cases += [(rng.integers(0, 2, (n, 3)).astype(float), (n,)) for n in (17, 23)]
        # p = 1, up to r == n
        cases.append((rng.integers(0, 5, (100, 1)).astype(float), (2, 7, 51, 100)))
        # 0.0 ties with -0.0 on both sides, and negating a key swaps the two;
        # at p = 3, r = 2pk + 2p - 1 leaves the longest remainder, 5 rows
        signed = rng.choice([0.0, -0.0, 1.0, -1.0], (60, 3), p=[0.35, 0.35, 0.15, 0.15])
        cases.append((signed, (6, 11, 17, 35, 59)))
        # only signed zeros: every pick is a tie that goes to the lowest free row
        cases.append((np.where(rng.random((40, 2)) < 0.5, 0.0, -0.0), (7, 19, 39)))
        for X, rs in cases:
            for r in rs:
                assert iboss(X, r).indices.tolist() == iboss_oracle(X, r), (X.shape, r)

    def test_deterministic_api(self):
        X = np.random.default_rng(23).standard_normal((50, 2))
        assert np.array_equal(iboss(X, 8).indices, iboss(X, 8).indices)

    def test_preconditions(self):
        X = np.random.default_rng(24).standard_normal((10, 3))
        with pytest.raises(ValueError):
            iboss(X, 5)  # r < 2p

    @pytest.mark.parametrize("r, error, message", NON_INTEGER_R + [
        pytest.param(0, ValueError, r"need r >= 2p, got r=0, p=2", id="zero"),
        pytest.param(50, ValueError, r"need n >= r, got n=40, r=50", id="above-n"),
    ])
    def test_r_checked(self, r, error, message):
        X = np.random.default_rng(2).standard_normal((40, 2))
        check_r(lambda r: iboss(X, r), r, error, message)


class TestLowcon:
    def test_recovers_design_points_exactly(self):
        # sample = the very design points the seeded run will generate, plus
        # two corner rows that pin the scaling; every claim lands at distance 0
        r, p, seed = 9, 2, 42
        reference = generate_olhd(r, p, np.random.default_rng(seed))
        X = np.vstack([reference.points, -np.ones(p), np.ones(p)])
        sel = lowcon(X, r, theta=0.0, rng=np.random.default_rng(seed))
        assert sorted(sel.indices.tolist()) == list(range(r))
        # scaling the corner-augmented sample reproduces the design points to
        # within one ulp, so every claim lands at (floating-point) distance 0
        assert sel.diagnostics.mean_nn_distance <= 1e-14

    def test_selected_points_near_theta_box(self):
        rng = np.random.default_rng(25)
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        X = rng.multivariate_normal([0.0, 0.0], cov, size=1000)
        sel = lowcon(X, 9, theta=10.0, rng=np.random.default_rng(26))
        scaled, _ = scale_to_cube(X)
        box = theta_box(scaled, 10.0)
        slack = max(sel.diagnostics.mean_nn_distance * 9, 1e-12)
        pts = scaled[sel.indices]
        assert np.all(pts >= box.lower - slack)
        assert np.all(pts <= box.upper + slack)

    def test_indices_distinct_and_sized(self):
        X = np.random.default_rng(27).standard_normal((500, 3))
        sel = lowcon(X, 20, rng=np.random.default_rng(28))
        assert len(sel.indices) == 20
        assert len(set(sel.indices.tolist())) == 20
        assert sel.weights is None

    def test_affine_invariance_of_selection(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((400, 3))
        scales = np.array([3.0, 0.2, 11.0])
        shifts = np.array([-4.0, 0.5, 100.0])
        a = lowcon(X, 15, rng=np.random.default_rng(32))
        b = lowcon(X * scales + shifts, 15, rng=np.random.default_rng(32))
        assert np.array_equal(a.indices, b.indices)

    def test_condition_number_beats_uniform_on_heavy_tails(self):
        from lowcon import gen_predictors

        kap_low, kap_unif = [], []
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            X = gen_predictors("D3", 1000, 10, rng)
            kap_low.append(
                lowcon(X, 40, rng=np.random.default_rng(seed)).diagnostics.kappa_sub
            )
            kap_unif.append(
                unif(X, 40, np.random.default_rng(seed)).diagnostics.kappa_sub
            )
        assert np.median(kap_low) < np.median(kap_unif)

    def test_keep_design_exposes_decomposition(self):
        X = np.random.default_rng(33).standard_normal((300, 2))
        sel = lowcon(X, 12, rng=np.random.default_rng(34), keep_design=True)
        scaled, _ = scale_to_cube(X)
        assert np.allclose(
            sel.design.points + sel.perturbation, scaled[sel.indices], atol=1e-12
        )

    def test_requires_strictly_more_rows(self):
        X = np.random.default_rng(35).standard_normal((10, 2))
        with pytest.raises(ValueError):
            lowcon(X, 10, rng=np.random.default_rng(0))

    def test_r_not_above_p_is_infeasible(self):
        X = np.random.default_rng(36).standard_normal((50, 3))
        with pytest.raises(InfeasibleDesign):
            lowcon(X, 3, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("r, error, message", NON_INTEGER_R + [
        pytest.param(0, InfeasibleDesign, r"r=0 runs", id="zero"),
        pytest.param(-1, InfeasibleDesign, r"r=-1 runs", id="negative"),
        pytest.param(40, ValueError, r"need n > r, got n=40, r=40", id="equal-n"),
    ])
    def test_r_checked(self, r, error, message):
        X = np.random.default_rng(2).standard_normal((40, 2))
        check_r(lambda r: lowcon(X, r, rng=np.random.default_rng(0)), r, error, message)


def greedy_claim_oracle(X, design_points):
    """Brute-force claim step: for each design point in order, rank every
    row by (squared distance, row index) and take the first row not yet
    claimed. Returns the claimed rows and how many claims were exact ties."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    scaled = 2.0 * (X - lo) / (hi - lo) - 1.0
    claimed = set()
    rows, dists, ties = [], [], 0
    for q in design_points:
        d2 = ((scaled - q) ** 2).sum(axis=1)
        free = [i for i in np.lexsort((np.arange(len(X)), d2)) if i not in claimed]
        best = int(free[0])
        ties += len(free) > 1 and d2[free[1]] == d2[best]
        rows.append(best)
        dists.append(np.sqrt(d2[best]))
        claimed.add(best)
    return np.array(rows), float(np.mean(dists)), ties


def _lattice_5x5():
    g = np.arange(5.0)
    return np.array([(a, b) for a in g for b in g])


@pytest.mark.parametrize(
    "make_X, r, theta, min_ties",
    [
        pytest.param(lambda: np.random.default_rng(40).standard_normal((300, 1)),
                     20, 1.0, 0, id="continuous-p1"),
        pytest.param(lambda: np.random.default_rng(41).standard_normal((500, 3)),
                     20, 1.0, 0, id="continuous-p3"),
        pytest.param(lambda: np.random.default_rng(42).standard_t(5, (1000, 10)),
                     40, 1.0, 0, id="continuous-p10"),
        pytest.param(lambda: np.tile(np.random.default_rng(43).standard_normal((10, 3)),
                                     (8, 1)),
                     20, 0.0, 1, id="tiled-duplicates"),
        pytest.param(_lattice_5x5, 12, 0.0, 1, id="lattice-exact-ties"),
        # rows listed in reverse: at an exact tie the lower index now lies on
        # the other side, so the rule is by index, not by position
        pytest.param(lambda: _lattice_5x5()[::-1], 12, 0.0, 1,
                     id="equidistant-lower-index"),
    ],
)
def test_lowcon_claims_match_greedy_oracle(make_X, r, theta, min_ties):
    X = make_X()
    sel = lowcon(X, r, theta=theta, rng=np.random.default_rng(r), keep_design=True)
    rows, mean_dist, ties = greedy_claim_oracle(X, sel.design.points)
    assert np.array_equal(sel.indices, rows)
    assert sel.diagnostics.mean_nn_distance == mean_dist
    assert ties >= min_ties


# a sample of this many rows leaves room for 7 points' screening scores in
# one claim block, whatever the screen's dtype
SEVEN_POINT_BLOCK_N = (
    _CLAIM_BLOCK_BYTES // (_scaled_sample(np.eye(2))[1].itemsize * 8) + 1
)


@pytest.mark.parametrize("n, p, corner", [
    pytest.param(400, 3, False, id="unique-one-block"),
    # a block then holds the scores of 7 points, so 30 points span 5 blocks
    pytest.param(SEVEN_POINT_BLOCK_N, 3, False, id="unique-block-boundaries"),
    # design points within 0.01 of a cube corner: |q|^2 ~ p and |x|^2 ~ p,
    # so the screening score |x|^2 - 2 x.q ~ -p cancels hardest
    pytest.param(400, 10, True, id="corners-p10-one-block"),
    pytest.param(SEVEN_POINT_BLOCK_N, 10, True, id="corners-p10-block-boundaries"),
])
def test_claim_near_ties_match_greedy_oracle(n, p, corner):
    # rows 1e-9 from each design point, and exact duplicates of them: squared
    # distances differ by ~1e-18 while the screening score errs by ~1e-7, so
    # only the exact re-rank can order these rows. Each point comes twice, 15
    # points apart, so the repeat must skip the row its first copy claimed in
    # an earlier block.
    rng = np.random.default_rng(50)
    r = 30
    half = rng.uniform(-0.9, 0.9, (r // 2, p))
    if corner:
        half = np.sign(half) * rng.uniform(0.99, 0.999, half.shape)
    points = np.tile(half, (2, 1))
    near = np.repeat(points, 4, axis=0) + 1e-9 * rng.standard_normal((4 * r, p))
    near = np.vstack([near, near[::3], near[::5]])
    far = rng.uniform(-1.0, 1.0, (n - len(near) - 2, p))
    X = np.vstack([-np.ones(p), np.ones(p), far, near])[rng.permutation(n)]
    indices, dists = _claim_nearest(_scaled_sample(X), points)
    rows, mean_dist, ties = greedy_claim_oracle(X, points)
    assert np.array_equal(indices, rows)
    assert dists.mean() == mean_dist
    assert ties >= 1


def _screen_argmin(sample, points):
    """Each point's best row by the float32 screening score alone."""
    lhs = np.hstack([-2.0 * points, np.ones((len(points), 1))]).astype(np.float32)
    return np.argmin(lhs @ sample[1], axis=1)


@pytest.mark.parametrize("n, p", [
    pytest.param(2000, 3, id="p3-one-block"),
    pytest.param(SEVEN_POINT_BLOCK_N, 10, id="p10-block-boundaries"),
])
def test_claim_micro_spread_matches_greedy_oracle(n, p):
    # 40 rows within ~1e-6 of each design point: their squared distances
    # differ by ~1e-12, far below the float32 score's rounding, so the screen
    # alone misorders them and only the float64 re-rank orders them right.
    # Each point comes twice, so the repeat must skip its first copy's row.
    rng = np.random.default_rng(51)
    r = 30
    points = np.tile(rng.uniform(-0.9, 0.9, (r // 2, p)), (2, 1))
    near = np.repeat(points, 40, axis=0) + 1e-6 * rng.standard_normal((40 * r, p))
    far = rng.uniform(-1.0, 1.0, (n - len(near) - 2, p))
    X = np.vstack([-np.ones(p), np.ones(p), far, near])[rng.permutation(n)]
    sample = _scaled_sample(X)
    indices, dists = _claim_nearest(sample, points)
    rows, mean_dist, _ = greedy_claim_oracle(X, points)
    assert np.array_equal(indices, rows)
    assert dists.mean() == mean_dist
    exact = [int(np.argmin(((sample[0].T - q) ** 2).sum(axis=1))) for q in points]
    assert np.count_nonzero(_screen_argmin(sample, points) != exact) >= r // 2


def _listed_candidates(monkeypatch):
    """Record the size of every candidate list the claim builds."""
    flatnonzero, sizes = np.flatnonzero, []

    def counting_flatnonzero(a):
        found = flatnonzero(a)
        sizes.append(found.size)
        return found

    monkeypatch.setattr(np, "flatnonzero", counting_flatnonzero)
    return sizes


def test_claim_past_one_outlier_matches_greedy_oracle(monkeypatch):
    # one row at 100 times the bulk's largest magnitude in every column packs
    # the bulk into a corner of the cube, where the screen's tolerance, set by the largest norm, spans
    # hundreds of bulk rows per point; all of them go through the re-rank
    rng = np.random.default_rng(52)
    n, r = 3000, 30
    bulk = rng.standard_normal((n - 1, 3))
    X = np.vstack([bulk, 100.0 * np.abs(bulk).max(axis=0)])[rng.permutation(n)]
    sample = _scaled_sample(X)
    central = np.flatnonzero(np.abs(X).max(axis=1) < 1.0)
    points = sample[0][:, rng.choice(central, r, replace=False)].T
    points += 1e-3 * rng.standard_normal(points.shape)
    sizes = _listed_candidates(monkeypatch)
    indices, dists = _claim_nearest(sample, points)
    monkeypatch.undo()
    assert len(sizes) == r and min(sizes) > 100
    rows, mean_dist, _ = greedy_claim_oracle(X, points)
    assert np.array_equal(indices, rows)
    assert dists.mean() == mean_dist


@pytest.mark.parametrize("n", [
    pytest.param(400, id="one-block"),
    pytest.param(SEVEN_POINT_BLOCK_N, id="block-boundaries"),
])
def test_claim_repeats_on_single_candidate_path_match_greedy_oracle(monkeypatch, n):
    # every design point has its own rows 0.01, 0.02 and 0.03 away along a
    # ray, and no other row within 0.2, so squared distances to its nearest
    # rows differ by at least 3e-4, far above the screen's tolerance (about
    # 2e-5 here): one row passes per point and no candidate list is built.
    # Point a comes at 0 and 1, adjacent in one block, and again at 8, in the
    # next block when a block holds 7 points; point b comes at 6 and 7,
    # adjacent across that boundary. Each repeat takes the next-nearest row.
    rng = np.random.default_rng(53)
    p, r = 3, 14
    grid = np.array(list(itertools.product((-0.6, 0.0, 0.6), repeat=p)))
    base = grid[rng.permutation(len(grid))[:11]]
    order = [0, 0, 2, 3, 4, 5, 1, 1, 0, 6, 7, 8, 9, 10]
    points = base[order]
    ray = rng.standard_normal((len(base), p))
    ray /= np.linalg.norm(ray, axis=1, keepdims=True)
    steps = np.array([0.01, 0.02, 0.03])
    near = (base[:, None, :] + steps[None, :, None] * ray[:, None, :]).reshape(-1, p)
    far = rng.uniform(-1.0, 1.0, (4 * n, p))
    far = far[np.linalg.norm(far[:, None, :] - base, axis=2).min(axis=1) > 0.2]
    far = far[: n - len(near) - 2]
    X = np.vstack([-np.ones(p), np.ones(p), far, near])
    assert len(X) == n
    perm = rng.permutation(n)
    X = X[perm]
    sizes = _listed_candidates(monkeypatch)
    indices, dists = _claim_nearest(_scaled_sample(X), points)
    monkeypatch.undo()
    assert sizes == []
    row_of = np.argsort(perm)  # where each row of the stacked X landed
    for i, step in [(0, 0), (1, 1), (8, 2), (6, 0), (7, 1)]:
        assert indices[i] == row_of[2 + len(far) + 3 * order[i] + step], i
    rows, mean_dist, _ = greedy_claim_oracle(X, points)
    assert np.array_equal(indices, rows)
    assert dists.mean() == mean_dist


@pytest.mark.parametrize("dist", ["D1", "D3"])
def test_paper_data_claim_single_candidates_match_greedy_oracle(monkeypatch, dist):
    # on the paper's predictors one row passes the screen for nearly every
    # design point, so nearly no point builds a candidate list
    r = 40
    X = gen_predictors(dist, 2000, 10, np.random.default_rng(54))
    sizes = _listed_candidates(monkeypatch)
    sel = lowcon(X, r, rng=np.random.default_rng(55), keep_design=True)
    monkeypatch.undo()
    assert len(sizes) <= r // 10
    rows, mean_dist, _ = greedy_claim_oracle(X, sel.design.points)
    assert np.array_equal(sel.indices, rows)
    assert sel.diagnostics.mean_nn_distance == mean_dist


def test_shared_sample_matches_fresh_calls():
    # one prepared sample serves every method, r and theta, in a shuffled
    # order; each selection must be the one a fresh matrix gives
    rng = np.random.default_rng(60)
    X = rng.standard_t(3, (600, 3)) * [1.0, 5.0, 0.2] + [0.0, 3.0, -1.0]
    sample = _Prepared(X)
    calls = [(m, r, theta) for m in _SAMPLERS for r in (12, 30) for theta in (1.0, 10.0)]
    h = leverage_scores(X)  # the leverage of the raw X, not of the scaled X
    for k in rng.permutation(len(calls)):
        m, r, theta = calls[k]
        got = _SAMPLERS[m](sample, r, np.random.default_rng([61, k]), theta)
        want = _SAMPLERS[m](X.copy(), r, np.random.default_rng([61, k]), theta)
        assert np.array_equal(got.indices, want.indices), calls[k]
        assert (got.weights is None) == (want.weights is None), calls[k]
        if got.weights is not None:
            assert np.array_equal(got.weights, want.weights), calls[k]
        assert got.diagnostics.kappa_sub == want.diagnostics.kappa_sub, calls[k]
        if m == "BLEV":
            pi = h / h.sum()
            assert np.allclose(got.weights, 1.0 / (r * pi[got.indices]), rtol=1e-12)


def test_leverage_svd_once_per_sample(monkeypatch):
    X = np.random.default_rng(62).standard_normal((500, 4))
    svd, inputs = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        if np.shape(a)[0] == X.shape[0]:
            inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    sample = _Prepared(X)
    for r in (20, 40):
        blev(sample, r, np.random.default_rng(r))
        slev(sample, r, np.random.default_rng(r))
        levunw(sample, r, np.random.default_rng(r))
    assert len(inputs) == 1 and np.array_equal(inputs[0], X)
    blev(X, 20, np.random.default_rng(0))  # a raw matrix gets its own sample
    assert len(inputs) == 2


def test_lowcon_computes_no_design_metric(monkeypatch):
    X = np.random.default_rng(63).standard_normal((500, 4))
    corrcoef, calls = np.corrcoef, []

    def counting_corrcoef(*args, **kwargs):
        calls.append(1)
        return corrcoef(*args, **kwargs)

    monkeypatch.setattr(np, "corrcoef", counting_corrcoef)
    sel = lowcon(X, 30, rng=np.random.default_rng(64), keep_design=True)
    assert calls == []
    assert 0.0 <= sel.design.max_abs_corr < 1.0  # a read computes it
    assert len(calls) == 1
