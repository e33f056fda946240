"""Latin hypercube designs and low-correlation (near-orthogonal) variants.

A Latin hypercube design (LHD) on r runs places, in every column, one point
at each of the r centered levels ((2k - 1 - r) / r for k = 1..r). The
near-orthogonal generator starts from a random LHD and greedily swaps pairs
of values within a column to shrink the pairwise column correlations, which
drives the condition number of the design information matrix toward 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateBox, InfeasibleDesign
from .linalg import _aligned_empty, _as_vector, _require_int

DEFAULT_KAPPA_TARGET = 1.13
_MAX_RESTARTS = 20
_SWAPS_PER_ENTRY = 200  # the descent's swap cap is this many per entry of L
_SWAP_BLOCK_ROWS = 64  # rows a per block of swap scores
_MAX_D2_BYTES = 2 * 2**30  # the descent's D2 slabs may take this much: r <= 23138


@dataclass(frozen=True)
class Box:
    """Axis-aligned design space: per-dimension [lower_j, upper_j], two
    finite real vectors of equal length by ``linalg._as_vector``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lower, "lower")
        up = _as_vector(self.upper, "upper", lo.shape[0])
        if np.any(lo >= up):
            raise DegenerateBox("every dimension needs lower < upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)


@dataclass(frozen=True)
class DesignMatrix:
    """Design points; their quality diagnostics are derived when read.

    The generators return points on the canonical cube [-1, 1]^p, and
    :func:`rescale_design` maps them into a :class:`Box`. ``kappa`` and
    ``max_abs_corr`` are computed from the stored (possibly rescaled) points
    on each read, so nothing on the selection path pays for them.
    """

    points: np.ndarray

    @property
    def kappa(self) -> float:
        """Condition number of ``points.T @ points``."""
        return _gram_kappa(self.points.T @ self.points)

    @property
    def max_abs_corr(self) -> float:
        """Largest absolute pairwise Pearson correlation between columns;
        0.0 for one column."""
        p = self.points.shape[1]
        if p == 1:
            return 0.0
        C = np.corrcoef(self.points, rowvar=False)
        return float(np.abs(C - np.eye(p)).max())


def lhd_levels(r: int) -> np.ndarray:
    """The r centered levels (2k - 1 - r) / r for k = 1..r, ascending."""
    _require_int(r, "r")
    if r < 1:
        raise ValueError("r must be at least 1")
    k = np.arange(1, r + 1, dtype=np.float64)
    return (2.0 * k - 1.0 - r) / r


def _gram_kappa(G: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(G)
    if ev[0] <= 0.0:
        return np.inf
    return float(ev[-1] / ev[0])


# relative margin by which _kappa_bound must pass a target to decide it
_BOUND_MARGIN = 1e-6


def _kappa_bound(G: np.ndarray, diag: float) -> float:
    """A lower bound on the condition number of G + diag I, the integer Gram
    matrix of an LHD in integer units, whose diagonal is the constant
    ``diag`` = r (r^2 - 1) / 3; G is its off-diagonal part, with a zero
    diagonal. With m = max |G|, the largest |off-diagonal entry|, the 2 x 2
    principal submatrix holding it has eigenvalues diag +- m, and Cauchy
    interlacing puts the Gram matrix's extreme eigenvalues outside them, so
    kappa >= (diag + m) / (diag - m); inf when m >= diag. Costs one pass
    over G, against an eigensolve."""
    m = float(np.abs(G).max())
    return (diag + m) / (diag - m) if m < diag else np.inf


def _random_lhd_points(r: int, p: int, rng: np.random.Generator) -> np.ndarray:
    levels = lhd_levels(r)
    L = np.empty((r, p))
    for j in range(p):
        L[:, j] = rng.permutation(levels)
    return L


def generate_lhd(r: int, p: int, rng: np.random.Generator) -> DesignMatrix:
    """Random Latin hypercube design on the canonical box [-1, 1]^p.

    Each column is an independent uniform random permutation of
    ``lhd_levels(r)``.
    """
    _require_int(r, "r")
    _require_int(p, "p")
    if r < 2:
        raise ValueError("r must be at least 2")
    if p < 1:
        raise ValueError("p must be at least 1")
    return DesignMatrix(_random_lhd_points(r, p, rng))


def _factor_mix() -> np.ndarray:
    """The 13 x 7 integer matrix that turns the rank rows M of a column,
    (1, x, x^2, x^3, x^4, v, x v) with v = C g, into the swap-score factors
    F = _FACTOR_MIX @ M: rows 0-4 are A's columns (1, x, x^2, alpha, gamma),
    rows 5-9 are B's rows (alpha, gamma, 6 x^2, 1, x) and rows 10-12 are R's
    rows (x^2, -2 x, 1), while Q's columns are A's first three. With w = 2 v,
    alpha = x^4 + x w and gamma = -4 x^3 - w, (Q R)_ab = d^2 and
    (A B)_ab = d^4 + d (w_b - w_a) for d = x_b - x_a."""
    one, x, x2, x3, x4, v, xv = np.eye(7)
    alpha, gamma = x4 + 2 * xv, -4 * x3 - 2 * v
    return np.array([one, x, x2, alpha, gamma,
                     alpha, gamma, 6 * x2, one, x,
                     x2, -2 * x, one])


_FACTOR_MIX = _factor_mix()


def _slab_bytes(r: int) -> int:
    """Bytes of the D2 slabs ``_swap_scratch`` allocates for r rows: the
    block at row a0 holds min(64, r - a0) x (r - a0) floats, about
    4 r^2 + 256 r bytes in all."""
    q, h = divmod(r, _SWAP_BLOCK_ROWS)
    full = _SWAP_BLOCK_ROWS * q * r - _SWAP_BLOCK_ROWS**2 * q * (q - 1) // 2
    return 8 * (full + h * h)


def _swap_scratch(C: np.ndarray) -> tuple[list, tuple]:
    """D2 and the scratch of one descent for ``_best_swap``, on the integer
    design C = r L.

    D2 holds the squared row distances D2[a, b] = ||C[b] - C[a]||^2 as the
    blocks ``_best_swap`` scores: a list of (a0, a1, slab), where per row
    block [a0, a1) of ``_SWAP_BLOCK_ROWS`` rows the slab is D2[a0:a1, a0:],
    one C-contiguous array, about 4 r^2 + 256 r bytes in all
    (``_slab_bytes``); no r x r matrix is made. Each slab is
    n_a + n_b - 2 C[a0:a1] @ C[a0:].T from one GEMM and the squared row
    norms n. Each term is an integer below 4 p r^2, far inside float64's
    exact range, so D2 is exact in any BLAS summation order, with or without
    FMA, and the copies of an entry in a block's lower corner are equal. The
    scratch is (M, rows, F, blocks): the rank rows M (7 x r, its row 0 all
    ones), the views of M a step fills, (x, x^2, (x, x^2), (x^3, x^4), v,
    x v), the factors F (13 x r, see ``_factor_mix``), and per row block the
    views it scores with, (a0, Q[a0:a1], R[:, a0:], A[a0:a1], B[:, a0:], its
    D2 slab, t, u, u's diagonal). t and u are
    (a1 - a0) x (r - a0) views of two flat buffers of
    ``_SWAP_BLOCK_ROWS * r`` floats, so each block's scores are contiguous.
    The two buffers and then the slabs, in block order, share one
    allocation on a 64-byte boundary (``_aligned_empty``); each piece but
    the last slab is a multiple of 8 floats, so each starts on a 64-byte
    boundary too. The slabs are only updated in place
    (``_swap_distances``), so the views stay valid for the whole descent."""
    r = C.shape[0]
    nn = (C * C).sum(axis=1)
    M = np.empty((7, r))
    M[0] = 1.0
    F = np.empty((13, r))
    Q, R, A, B = F[:3].T, F[10:], F[:5].T, F[5:10]
    size = _SWAP_BLOCK_ROWS * r  # of each score buffer
    flat = _aligned_empty((2 * size + _slab_bytes(r) // 8,))
    at = 2 * size
    D2, blocks = [], []
    for a0 in range(0, r, _SWAP_BLOCK_ROWS):
        a1 = min(a0 + _SWAP_BLOCK_ROWS, r)
        h, n = a1 - a0, r - a0
        t = flat[: h * n].reshape(h, n)
        u = flat[size : size + h * n].reshape(h, n)
        D = flat[at : at + h * n].reshape(h, n)
        at += h * n
        np.matmul(C[a0:a1], C[a0:].T, out=D)
        D *= -2.0
        D += nn[a0:a1, None]
        D += nn[a0:]
        D2.append((a0, a1, D))
        blocks.append((a0, Q[a0:a1], R[:, a0:], A[a0:a1], B[:, a0:],
                       D, t, u, flat[size : size + h * n : n + 1]))
    rows = (M[1], M[2], M[1:3], M[3:5], M[5], M[6])
    return D2, (M, rows, F, blocks)


def _swap_distances(D2: list, x: np.ndarray, a: int, b: int) -> None:
    """Update the slabs D2 of ``_swap_scratch`` in place for trading x[a]
    and x[b], where x is the design column before the trade; a > b is
    allowed. Only D2's rows and columns a and b change: with
    c_k = (x_b - x_k)^2 - (x_a - x_k)^2 = (x_b - x_a)(x_a + x_b - 2 x_k)
    for k != a, b and c_a = c_b = 0, row and column a gain c and row and
    column b lose it. Every c_k is an integer below 4 r^2, so the update is
    exact. Column a of D2 is column a - a0 of every slab with a0 <= a; row a
    is row a - a0 of the one slab holding it."""
    xa, xb = float(x[a]), float(x[b])
    change = x * -2.0
    change += xa + xb
    change *= xb - xa
    change[a] = 0.0
    change[b] = 0.0
    for a0, a1, D in D2:
        if a0 <= a:
            D[:, a - a0] += change[a0:a1]
            if a < a1:
                D[a - a0] += change[a0:]
        if a0 <= b:
            D[:, b - a0] -= change[a0:a1]
            if b < a1:
                D[b - a0] -= change[a0:]


def _best_swap(
    C: np.ndarray, j: int, G: np.ndarray, scratch: tuple
) -> tuple[int, int, float]:
    """The best swap of column j of the integer design C as (a, b, delta),
    where delta is the change in the off-diagonal sum of squares of Gram row
    j when C[a, j] and C[b, j] trade places. ``G`` is the off-diagonal Gram
    matrix, C.T @ C with its diagonal zeroed, and ``scratch`` is
    ``_swap_scratch(C)[1]``.

    With x = C[:, j], g = G[j] (so g[j] = 0) and v = C g, the step fills M's
    rows x, x^2, x^3, x^4, v and x v, then the factors F = _FACTOR_MIX @ M,
    in O(r p). A block's scores are then (Q R) * D2 - A B, that is
    d^2 D2 - d^4 - d (w_b - w_a) with w = 2 v: two thin GEMMs, of inner
    size 3 and 5, and two elementwise passes, the first over the block's
    own contiguous D2 slab. Every factor entry and every partial sum is an
    integer below 8 p r^5 (see ``_descend_correlations``), so while
    8 p r^5 <= 2^53 each score is exact in any BLAS summation order, with or
    without FMA.

    Rows a are scored in blocks of ``_SWAP_BLOCK_ROWS`` against columns
    b >= the block's first row. Exact scores are symmetric in (a, b), so the
    first row-major minimum over all r^2 pairs has b >= a and lies in one of
    the blocks; keeping the first strict minimum across blocks returns that
    pair, so ties go to it. Each block's no-ops (a, a) are set to 0 before
    its argmin: past the exact range their GEMM sums need not cancel, and a
    rounded negative no-op must not hide a real swap of the same block.
    The scores go into the scratch buffers, 2 *
    _SWAP_BLOCK_ROWS * r floats (400 KiB at r = 400), beside the D2 slabs
    (722 KiB at r = 400); a call allocates only O(r), and column j's
    factors stay in ``scratch``."""
    M, (x, x2, x12, x34, v, xv), F, blocks = scratch
    np.copyto(x, C[:, j])
    np.multiply(x, x, out=x2)
    np.multiply(x12, x2, out=x34)
    np.dot(C, G[j], out=v)
    np.multiply(x, v, out=xv)
    np.dot(_FACTOR_MIX, M, out=F)
    best = (0, 0, np.inf)
    for a0, Qa, Rb, Aa, Bb, D2ab, t, u, noops in blocks:
        np.matmul(Qa, Rb, out=t)
        np.multiply(t, D2ab, out=t)
        np.matmul(Aa, Bb, out=u)
        np.subtract(t, u, out=u)
        noops.fill(0.0)
        k = int(u.argmin())
        da, db = divmod(k, u.shape[1])
        if u[da, db] < best[2]:
            best = (a0 + da, a0 + db, float(u[da, db]))
    return best


def _descend_correlations(
    L: np.ndarray,
    kappa_target: float,
    max_swaps: int,
) -> tuple[np.ndarray, float, int]:
    """Greedy within-column swap descent on the sum of squared off-diagonal
    Gram entries. Stops as soon as kappa(L.T L) reaches the target, after
    ``max_swaps`` accepted swaps, or when a full sweep over columns accepts no
    swap. Returns (L, kappa, swaps).

    The descent runs on C = r L, whose entries are the odd integers
    2k - 1 - r, held exactly in float64; the returned L is C / r, bit-equal
    to ``lhd_levels(r)``. Every column's squares sum to
    c = r (r^2 - 1) / 3, so the Gram matrix C.T C is G + c I, and the
    descent keeps only G, its off-diagonal part, with a zero diagonal: the
    swap scores and ``_kappa_bound`` read G, an accepted swap of column j
    recomputes G's row and column j and zeroes G[j, j] again, and every
    eigensolve reads G + c I. All entries are integers far below 2^53, so
    G + c I is C.T C bit for bit. With g = G[j], w = 2 C g,
    d_ab = C[b, j] - C[a, j] and D2_ab = ||C_b - C_a||^2, swapping rows a
    and b of column j turns G[j, k] into g_k - d_ab (C[b, k] - C[a, k]) for
    k != j, so the off-diagonal sum of squares of row j changes by

        delta_ab = d_ab^2 (D2_ab - d_ab^2) - d_ab (w_b - w_a),

    and a step accepts its best swap iff delta < 0. A no-op (a, a) has
    d = 0 and scores exactly 0, so it is never accepted.

    ``_best_swap`` computes delta_ab as d_ab^2 D2_ab - P_ab, where
    P_ab = d_ab^4 + d_ab (w_b - w_a) expands to

        alpha_a + alpha_b + x_a gamma_b + gamma_a x_b + 6 x_a^2 x_b^2,

    with x = C[:, j], alpha = x^4 + x w and gamma = -4 x^3 - w, and d_ab^2
    to x_a^2 + x_b^2 - 2 x_a x_b, both products of thin factor matrices.
    The scores are integers, exact while every intermediate stays below
    2^53. Since |x| < r and each column's squares sum to r (r^2 - 1) / 3,
    Cauchy-Schwarz gives |g_k| < r^3 / 3, so |v| = |C g| < p r^4 / 3 and
    |w| < 2 p r^4 / 3. Term by term:

    - the rank rows: |x^k| < r^k for k <= 4, |v| < p r^4 / 3 and
      |x v| < p r^5 / 3;
    - the factors: alpha = x^4 + 2 x v sums two terms below r^4 and
      2 p r^5 / 3, gamma = -4 x^3 - 2 v two below 4 r^3 and 2 p r^4 / 3,
      and 6 x^2 < 6 r^2;
    - the P GEMM: |alpha_a| and |alpha_b| < r^4 + 2 p r^5 / 3, the products
      |x_a gamma_b| and |gamma_a x_b| < 4 r^4 + 2 p r^5 / 3, and
      6 x_a^2 x_b^2 < 6 r^4, so each partial sum is below
      16 r^4 + 8 p r^5 / 3;
    - the d^2 GEMM: x_a^2, x_b^2 < r^2 and |2 x_a x_b| < 2 r^2, partial sums
      below 4 r^2; with D2 < 4 p r^2, 0 <= d^2 D2 < 16 p r^4;
    - the score: |d^2 D2| + |P| < 16 p r^4 + 16 r^4 + 8 p r^5 / 3.

    For r >= 6 every one of these stays below 8 p r^5, and smaller designs
    stay far inside 2^53, so the scores, and every tie, are exact when
    8 p r^5 <= 2^53: r <= 562 at p = 20, r <= 646 at p = 10. Past that
    range a score may round (a random start at r = 2000, p = 20 reaches
    |d (w_b - w_a)| ~ 1.7e16 > 2^53) as any float expression does; a
    no-op still scores 0 and the swap cap still binds.

    After an accepted swap, kappa comes from an eigensolve only when
    ``_kappa_bound``, a one-pass lower bound from max |G|, the largest
    off-diagonal Gram entry, does not already pass the target by a
    relative 1e-6. The
    bound is exact up to three roundings of (diag + m) / (diag - m), and
    ``eigvalsh`` errs at these sizes by about p eps kappa relative, far
    below 1e-6, so each decision is the eigensolve's, and so is every
    design. Where the loop stops or returns, kappa is the eigensolve's.

    ``_best_swap`` scores only the pairs b >= a, plus each row block's small
    lower corner, so a step costs O(rp + r^2 / 2) time. D2 is built once per
    call in O(r^2 p), as the row blocks' slabs only (``_swap_scratch``); an
    accepted swap changes only its rows and columns a and b, an O(r) update
    (``_swap_distances``). Memory is bounded by the slabs'
    ``_slab_bytes(r)``, about 4 r^2 + 256 r bytes (722 KiB at r = 400), plus
    2 * _SWAP_BLOCK_ROWS * r floats of scratch (400 KiB at r = 400) plus
    O(rp). A start that needs a descent raises ``InfeasibleDesign`` before
    the slabs are allocated when ``_slab_bytes(r)`` exceeds
    ``_MAX_D2_BYTES`` (2 GiB, i.e. r > 23138); a start already at the
    target returns first, whatever r is."""
    r, p = L.shape
    C = np.rint(L * r)
    G = C.T @ C
    diag = r * (r * r - 1) / 3  # every column's squares sum to this
    skip_above = kappa_target * (1.0 + _BOUND_MARGIN)
    kap = _gram_kappa(G)
    if kap <= kappa_target or max_swaps <= 0:
        return L, kap, 0
    if _slab_bytes(r) > _MAX_D2_BYTES:
        raise InfeasibleDesign(
            f"r={r}, p={p}: the OLHD descent needs {_slab_bytes(r)} bytes for "
            f"its squared row distances, past the bound of {_MAX_D2_BYTES} bytes"
        )
    cI = np.zeros((p, p))
    cI.flat[:: p + 1] = diag
    G -= cI  # from here G is off-diagonal, with a zero diagonal, and C.T C is G + cI
    D2, scratch = _swap_scratch(C)
    swaps = 0
    improved = exact = True
    while improved and kap > kappa_target and swaps < max_swaps:
        improved = False
        for j in range(p):
            a, b, delta = _best_swap(C, j, G, scratch)
            if delta < 0:
                _swap_distances(D2, C[:, j], a, b)
                C[a, j], C[b, j] = C[b, j], C[a, j]
                G[j, :] = G[:, j] = C.T @ C[:, j]
                G[j, j] = 0.0
                improved = True
                swaps += 1
                if swaps < max_swaps and _kappa_bound(G, diag) > skip_above:
                    exact = False  # kap stays a value above the target
                    continue
                kap, exact = _gram_kappa(G + cI), True
                if kap <= kappa_target or swaps == max_swaps:
                    break
    if not exact:
        kap = _gram_kappa(G + cI)
    return C / r, kap, swaps


def generate_olhd(r: int, p: int, rng: np.random.Generator) -> DesignMatrix:
    """Low-correlation Latin hypercube design on [-1, 1]^p.

    Runs the swap descent, capped at 200 r p swaps, from up to 20 random LHD
    starts and returns the first design with ``kappa <= DEFAULT_KAPPA_TARGET``,
    or the lowest-kappa candidate seen if the target is never reached (the
    achieved kappa is always reported on the result, never hidden). Each
    descent step takes the swap of least score, ties to the first row-major
    pair; the scores are exact integers while 8 p r^5 <= 2^53 (r <= 562 at
    p = 20), see ``_descend_correlations``.

    Raises
    ------
    InfeasibleDesign
        When r <= p: the level set sums to zero, so the columns plus the
        all-ones vector are linearly dependent and L.T @ L is singular for
        every permutation. Also when a start misses the target and its
        descent's squared row distances would take more than 2 GiB
        (r > 23138).
    """
    _require_int(r, "r")
    _require_int(p, "p")
    if p < 1:
        raise ValueError("p must be at least 1")
    if r <= p:
        raise InfeasibleDesign(
            f"r={r} runs cannot give a nonsingular {p}x{p} information matrix"
        )
    best: np.ndarray | None = None
    best_kappa = np.inf
    for _ in range(_MAX_RESTARTS):
        L = _random_lhd_points(r, p, rng)
        L, kap, _ = _descend_correlations(L, DEFAULT_KAPPA_TARGET, _SWAPS_PER_ENTRY * r * p)
        if kap < best_kappa:
            best, best_kappa = L, kap
        if best_kappa <= DEFAULT_KAPPA_TARGET:
            break
    assert best is not None
    return DesignMatrix(best)


def rescale_design(design: DesignMatrix, box: Box) -> DesignMatrix:
    """Affinely map a design on [-1, 1]^p onto ``box``, per column.

    Column j goes through ``center_j + x * half_j``, the center and half-width
    of ``box``. The within-column rank pattern (hence the LHD property) is
    preserved; kappa and max_abs_corr are read from the mapped points.
    """
    if box.lower.shape[0] != design.points.shape[1]:
        raise ValueError("box dimension must match design dimension")
    center = (box.lower + box.upper) / 2.0
    half = (box.upper - box.lower) / 2.0
    return DesignMatrix(center + design.points * half)
