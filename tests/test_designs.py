import tracemalloc

import numpy as np
import pytest

from lowcon import (
    Box,
    InfeasibleDesign,
    designs,
    generate_lhd,
    generate_olhd,
    lhd_levels,
    rescale_design,
)
from lowcon.designs import (
    _BOUND_MARGIN,
    DEFAULT_KAPPA_TARGET,
    _best_swap,
    _descend_correlations,
    _gram_kappa,
    _kappa_bound,
    _slab_bytes,
    _swap_distances,
    _swap_scratch,
)


class TestLevels:
    def test_r2(self):
        assert np.array_equal(lhd_levels(2), [-0.5, 0.5])

    def test_r4(self):
        assert np.array_equal(lhd_levels(4), [-0.75, -0.25, 0.25, 0.75])

    def test_r1(self):
        assert np.array_equal(lhd_levels(1), [0.0])


@pytest.mark.parametrize("call, name", [
    (lambda: lhd_levels(2.5), "r=2.5"),
    (lambda: lhd_levels(True), "r=True"),
    (lambda: generate_lhd(4.0, 2, np.random.default_rng(0)), "r=4.0"),
    (lambda: generate_lhd(4, np.float64(2), np.random.default_rng(0)), "p="),
    (lambda: generate_olhd(5, 2.0, np.random.default_rng(0)), "p=2.0"),
    (lambda: generate_olhd(True, 1, np.random.default_rng(0)), "r=True"),
], ids=["levels-float", "levels-bool", "lhd-r", "lhd-p", "olhd-p", "olhd-r"])
def test_non_integer_size_rejected(call, name):
    with pytest.raises(ValueError, match=f"must be an integer, got {name}"):
        call()


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

    # shapes and seeds where all 20 restarts miss the target: at (11, 10)
    # only the tenth candidate reaches the lowest kappa; at (5, 3) 13
    # candidates tie at it, the first and the twentieth among them
    @pytest.mark.parametrize("r, p, seed", [(11, 10, 1), (5, 3, 0)])
    def test_missed_target_returns_first_lowest_kappa_candidate(self, r, p, seed):
        d = generate_olhd(r, p, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        candidates = [
            _descend_correlations(designs._random_lhd_points(r, p, rng),
                                  DEFAULT_KAPPA_TARGET, designs._SWAPS_PER_ENTRY * r * p)[:2]
            for _ in range(designs._MAX_RESTARTS)
        ]
        kappas = [kap for _, kap in candidates]
        assert min(kappas) > DEFAULT_KAPPA_TARGET
        first = candidates[kappas.index(min(kappas))][0]
        assert first.tobytes() == d.points.tobytes()


def _offdiag_objective(L):
    G = L.T @ L
    return float((G * G).sum() - (np.diag(G) ** 2).sum())


def _exact_swap_rss(L, j):
    """Off-diagonal sum of squares of Gram row j after swapping L[a, j] and
    L[b, j], for every pair, recomputed from scratch in integers: the LHD
    levels are (2k - 1 - r) / r, so r * L is integral and every entry is
    r^4 times the exact value."""
    r = L.shape[0]
    K = np.rint(L * r).astype(np.int64)
    out = np.empty((r, r), dtype=np.int64)
    for a in range(r):
        for b in range(r):
            M = K.copy()
            M[a, j], M[b, j] = M[b, j], M[a, j]
            row = M.T @ M[:, j]
            row[j] = 0
            out[a, b] = row @ row
    return out


def _swap_terms(K, j, G):
    """In int64 on the integer design K = r L, for every pair (rows a,
    columns b): d = K[b, j] - K[a, j] and dw = w_b - w_a, with w = 2 K g and
    g = G[j] with g[j] = 0."""
    g = G[j].copy()
    g[j] = 0
    w = 2 * (K @ g)
    return K[None, :, j] - K[:, None, j], w[None, :] - w[:, None]


def _swap_deltas(K, j, G, D2):
    """Every pair's swap score in int64: the change in the off-diagonal sum
    of squares of Gram row j, d^2 (D2 - d^2) - d (w_b - w_a), exact by
    construction."""
    d, dw = _swap_terms(K, j, G)
    return d * d * (D2 - d * d) - d * dw


def _full_sqdist(K):
    """Squared row distances from direct differences, column by column."""
    D2 = np.zeros((K.shape[0],) * 2, dtype=K.dtype)
    for col in K.T:
        diff = col[None, :] - col[:, None]
        D2 += diff * diff
    return D2


def _offdiag_gram(C):
    """C.T @ C with its diagonal zeroed: the Gram matrix as the descent keeps
    it for ``_best_swap`` and ``_kappa_bound``."""
    G = C.T @ C
    np.fill_diagonal(G, 0.0)
    return G


def _int_kappa(G):
    ev = np.linalg.eigvalsh(G.astype(np.float64))
    return ev[-1] / ev[0] if ev[0] > 0 else np.inf


def _reference_olhd(r, p, rng):
    """generate_olhd with the whole r x r int64 score matrix per column step
    on K = r L and its first row-major argmin, accepted iff its score is
    < 0: 20 random LHD starts, each descended until kappa <= 1.13, 200 r p
    swaps, or a sweep without a swap. G and D2 are int64 too, so every
    score and every tie is exact."""
    levels = lhd_levels(r)
    best, best_kappa = None, np.inf
    for _ in range(20):
        L = np.empty((r, p))
        for j in range(p):
            L[:, j] = rng.permutation(levels)
        K = np.rint(L * r).astype(np.int64)
        G = K.T @ K
        kap = _int_kappa(G)
        D2 = _full_sqdist(K)
        swaps, improved = 0, kap > DEFAULT_KAPPA_TARGET
        while improved:
            improved = False
            for j in range(p):
                delta = _swap_deltas(K, j, G, D2)
                a, b = np.unravel_index(np.argmin(delta), delta.shape)
                if not delta[a, b] < 0:
                    continue
                x = K[:, j]
                change = (x[b] - x) ** 2 - (x[a] - x) ** 2
                change[[a, b]] = 0
                D2[a] += change
                D2[b] -= change
                D2[:, a] = D2[a]
                D2[:, b] = D2[b]
                K[a, j], K[b, j] = K[b, j], K[a, j]
                G[j, :] = G[:, j] = K.T @ K[:, j]
                swaps += 1
                improved = True
                kap = _int_kappa(G)
                if kap <= DEFAULT_KAPPA_TARGET or swaps == 200 * r * p:
                    improved = False
                    break
        if kap < best_kappa:
            best, best_kappa = K / r, kap
        if best_kappa <= DEFAULT_KAPPA_TARGET:
            break
    return best


class TestSwapDescent:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_swap_scores_match_recomputed_gram(self, p):
        # r = 70 spans two row blocks; p = 2 meets exact score ties, which go
        # to the first row-major minimizer
        ties = 0
        for r in (9, 70):
            L = generate_lhd(r, p, np.random.default_rng(30 + p)).points
            C = np.rint(L * r)
            _, scratch = _swap_scratch(C)
            for j in range(p):
                exact = _exact_swap_rss(L, j)
                a, b, delta = _best_swap(C, j, _offdiag_gram(C), scratch)
                assert (a, b) == np.unravel_index(np.argmin(exact), exact.shape)
                assert delta == exact[a, b] - exact[a, a]
                minimizers = np.argwhere(exact == exact.min())
                if delta < 0 and len(minimizers) > 2:  # past the pair and its mirror
                    ties += 1
        if p == 2:
            assert ties > 0

    def test_swap_scores_match_int64_oracle_at_budget_shape(self):
        # the benchmark's large-budget shape, seven row blocks, inside the
        # exact range: each step of a short descent picks the oracle's first
        # row-major argmin with its score bit for bit
        r, p = 400, 20
        C = np.rint(generate_lhd(r, p, np.random.default_rng(56)).points * r)
        K = C.astype(np.int64)
        swaps = 0
        for step in range(2 * p):
            j = step % p
            _, scratch = _swap_scratch(C)
            a, b, delta = _best_swap(C, j, _offdiag_gram(C), scratch)
            want = _swap_deltas(K, j, K.T @ K, _full_sqdist(K))
            assert (a, b) == np.unravel_index(np.argmin(want), want.shape)
            assert delta == want[a, b]
            if delta < 0:
                swaps += 1
                for M in (C, K):
                    M[a, j], M[b, j] = M[b, j], M[a, j]
        assert swaps > p

    @pytest.mark.parametrize("r, p", [(70, 3), (400, 20)])
    def test_swap_scores_factors_match_int64_oracle(self, r, p):
        # after a step, column j's kept factors F give over all r^2 pairs
        # Q R = d^2 and A B = d^4 + d (w_b - w_a), with Q = F[:3].T,
        # R = F[10:], A = F[:5].T and B = F[5:10]; the int64 oracle values
        # are below 2^53, so comparing them as floats is exact
        C = np.rint(generate_lhd(r, p, np.random.default_rng(57 + p)).points * r)
        K = C.astype(np.int64)
        _, scratch = _swap_scratch(C)
        for j in range(p):
            _best_swap(C, j, _offdiag_gram(C), scratch)
            d, dw = _swap_terms(K, j, K.T @ K)
            F = scratch[2]
            assert np.array_equal(F[:3].T @ F[10:], d * d)
            assert np.array_equal(F[:5].T @ F[5:10], d**4 + d * dw)

    def test_swap_scores_reuse_the_scratch(self):
        # one step at the benchmark's large-budget shape allocates no score
        # buffer (one block's is 200 KiB)
        r, p = 400, 20
        C = np.rint(generate_lhd(r, p, np.random.default_rng(58)).points * r)
        G = _offdiag_gram(C)
        _, scratch = _swap_scratch(C)
        _best_swap(C, 0, G, scratch)
        tracemalloc.start()
        try:
            _best_swap(C, 1, G, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**10

    def test_tie_across_blocks_keeps_the_first_pair(self):
        # with one column every swap leaves the empty off-diagonal empty, so
        # all r^2 scores are exactly 0 and the first row-major pair wins
        C = np.rint(generate_lhd(130, 1, np.random.default_rng(34)).points * 130)
        _, scratch = _swap_scratch(C)
        assert _best_swap(C, 0, _offdiag_gram(C), scratch) == (0, 0, 0.0)

    @pytest.mark.parametrize("r, p, seeds", [(20, 3, 100), (30, 2, 100),
                                             (130, 2, 10), (100, 5, 10),
                                             (400, 20, 2)])
    def test_designs_match_whole_matrix_descent(self, r, p, seeds):
        # small p meets exact ties; r > 64 spans several row blocks; (400, 20)
        # is the benchmark's large-budget shape, seven blocks
        for seed in range(seeds):
            got = generate_olhd(r, p, np.random.default_rng(seed)).points
            want = _reference_olhd(r, p, np.random.default_rng(seed))
            assert np.array_equal(got, want), seed

    @pytest.mark.parametrize("r, p", [(130, 7), (400, 20)])
    def test_swap_scratch_d2_matches_whole_matrix(self, r, p):
        # one C-contiguous, 64-byte-aligned slab D2[a0:a1, a0:] per row block
        C = np.rint(generate_lhd(r, p, np.random.default_rng(r + p)).points * r)
        D2, _ = _swap_scratch(C)
        full = _full_sqdist(C)
        assert [a0 for a0, _, _ in D2] == list(range(0, r, 64))
        for a0, a1, D in D2:
            assert D.flags.c_contiguous and D.ctypes.data % 64 == 0
            assert np.array_equal(D, full[a0:a1, a0:])
        assert sum(D.nbytes for _, _, D in D2) == _slab_bytes(r)

    @staticmethod
    def _assert_slabs_equal_whole_matrix(D2, C):
        full = _full_sqdist(C)
        for a0, a1, D in D2:
            assert np.array_equal(D, full[a0:a1, a0:]), a0

    @pytest.mark.parametrize("r, p", [(130, 7), (400, 20)])
    def test_slab_updates_match_whole_matrix(self, r, p):
        # 2p descent steps, each accepted swap followed by a check of every
        # slab against the distances of the current design; then forced
        # swaps with a > b across blocks, both rows in one block, and a > b
        # in one block
        C = np.rint(generate_lhd(r, p, np.random.default_rng(60 + r)).points * r)
        G = _offdiag_gram(C)
        D2, scratch = _swap_scratch(C)
        swaps = 0
        for step in range(2 * p):
            j = step % p
            a, b, delta = _best_swap(C, j, G, scratch)
            if delta < 0:
                _swap_distances(D2, C[:, j], a, b)
                C[a, j], C[b, j] = C[b, j], C[a, j]
                G[j, :] = G[:, j] = C.T @ C[:, j]
                G[j, j] = 0.0
                self._assert_slabs_equal_whole_matrix(D2, C)
                swaps += 1
        assert swaps > p
        for a, b in ((r - 1, 3), (70, 90), (127, 64)):
            j = (a + b) % p
            _swap_distances(D2, C[:, j], a, b)
            C[a, j], C[b, j] = C[b, j], C[a, j]
            self._assert_slabs_equal_whole_matrix(D2, C)

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

    @pytest.mark.parametrize("r, p, seeds", [(9, 2, 40), (20, 3, 40), (20, 10, 20),
                                             (60, 10, 10), (100, 10, 5), (400, 20, 1)])
    def test_kappa_bound_never_passes_a_gram_at_target(self, monkeypatch, r, p, seeds):
        # every Gram matrix the descents check after a swap, which the bound
        # reads as its off-diagonal part G and the constant diagonal: the bound
        # is a lower bound of the eigensolve's kappa of G + diag I, and where
        # it passes the target by the margin that kappa is above the target too
        levels = np.rint(lhd_levels(r) * r)
        seen = []

        def recording_bound(G, diag):
            bound = _kappa_bound(G, diag)
            seen.append((G.copy(), diag, bound))
            return bound

        monkeypatch.setattr(designs, "_kappa_bound", recording_bound)
        for seed in range(seeds):
            generate_olhd(r, p, np.random.default_rng(seed))
        assert seen
        decided = 0
        for G, diag, bound in seen:
            assert diag == levels @ levels and np.all(np.diag(G) == 0.0)
            kappa = _gram_kappa(G + diag * np.eye(p))
            assert bound <= kappa * (1.0 + 1e-12)
            if bound > DEFAULT_KAPPA_TARGET * (1.0 + _BOUND_MARGIN):
                assert kappa > DEFAULT_KAPPA_TARGET
                decided += 1
        if p == 10:
            assert decided >= len(seen) // 2

    @pytest.mark.parametrize("r, p, seeds", [(100, 10, 3), (400, 20, 1)])
    def test_kappa_bound_reads_the_kept_off_diagonal_gram(self, monkeypatch, r, p, seeds):
        # after every accepted swap of real descents the kept G plus c I is
        # the design's Gram matrix C.T @ C exactly, and the bound is
        # (c + m) / (c - m) with m the largest |off-diagonal entry| of the
        # int64 Gram matrix
        c = r * (r * r - 1) / 3
        live, swaps, bounds = {}, [], []

        def recording_best_swap(C, j, G, scratch):
            live["C"], live["G"] = C, G
            return _best_swap(C, j, G, scratch)

        def recording_swap_distances(D2, x, a, b):
            swaps.append((a, b))
            _swap_distances(D2, x, a, b)

        def checking_bound(G, diag):
            assert G is live["G"] and diag == c
            K = live["C"].astype(np.int64)
            gram = K.T @ K
            assert np.array_equal(G + c * np.eye(p), gram)
            m = float(np.abs(gram[~np.eye(p, dtype=bool)]).max())
            bound = _kappa_bound(G, diag)
            assert m < c and bound == (c + m) / (c - m)
            bounds.append(bound)
            return bound

        monkeypatch.setattr(designs, "_best_swap", recording_best_swap)
        monkeypatch.setattr(designs, "_swap_distances", recording_swap_distances)
        monkeypatch.setattr(designs, "_kappa_bound", checking_bound)
        for seed in range(seeds):
            generate_olhd(r, p, np.random.default_rng(seed))
        assert len(bounds) == len(swaps) > 20

    @pytest.mark.parametrize("r, p, target", [(20, 10, DEFAULT_KAPPA_TARGET),
                                              (40, 5, 1.01), (15, 3, 0.0),
                                              (100, 10, DEFAULT_KAPPA_TARGET)])
    def test_kappa_bound_changes_no_descent(self, monkeypatch, r, p, target):
        # the descent with the bound and without it (an eigensolve after every
        # swap) returns the same design, kappa and swap count, bit for bit
        starts = [generate_lhd(r, p, np.random.default_rng(s)).points for s in range(8)]
        got = [_descend_correlations(L.copy(), target, 200 * r * p) for L in starts]
        monkeypatch.setattr(designs, "_kappa_bound", lambda G, diag: 0.0)
        for L, (L1, kappa1, swaps1) in zip(starts, got):
            L2, kappa2, swaps2 = _descend_correlations(L.copy(), target, 200 * r * p)
            assert np.array_equal(L1, L2) and swaps1 == swaps2
            assert kappa1 == kappa2 == _gram_kappa(np.rint(L1 * r).T @ np.rint(L1 * r))

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

    def test_memory_is_half_an_r_by_r_matrix(self):
        # the D2 slabs hold half an r x r matrix, 4 r^2 + 256 r bytes
        # (15.7 MiB here, against 30.5 MiB for all of it); the scores add
        # O(64 r)
        L = generate_lhd(2000, 10, np.random.default_rng(52)).points
        tracemalloc.start()
        try:
            _descend_correlations(L, DEFAULT_KAPPA_TARGET, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_distance_matrix_past_the_bound_raises(self, monkeypatch):
        # 8 * 40^2 = 12800 bytes; the real bound is never allocated here
        monkeypatch.setattr(designs, "_MAX_D2_BYTES", 8 * 40 * 40 - 1)
        with pytest.raises(InfeasibleDesign, match=r"r=40, p=10: .* 12800 bytes"):
            generate_olhd(40, 10, np.random.default_rng(53))
        # p = 1 has kappa 1 and never descends; nor does a start at the target
        assert generate_olhd(50, 1, np.random.default_rng(54)).kappa == 1.0
        L = generate_lhd(40, 10, np.random.default_rng(55)).points
        assert _descend_correlations(L, np.inf, 10)[2] == 0


class TestRescale:
    def test_identity_box_is_noop(self):
        d = generate_olhd(8, 2, np.random.default_rng(12))
        out = rescale_design(d, Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]))
        assert np.array_equal(out.points, d.points)

    def test_unit_interval_endpoints(self):
        from lowcon import DesignMatrix

        extremes = DesignMatrix(points=np.array([[-1.0], [1.0]]))
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
