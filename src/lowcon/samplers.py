"""The six subsampling methods behind one interface.

Every sampler takes the full predictor matrix and a target size r and returns
a :class:`SubsampleSelection`. Probability-weighted samplers (blev, slev)
attach reciprocal inclusion-probability weights for weighted least squares;
the rest select rows for a plain fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .designs import Box, DesignMatrix, generate_olhd, rescale_design
from .exceptions import ConstantColumn, DegenerateBox, LowconError
from .linalg import _as_matrix, _require_int, condition_number, leverage_scores


@dataclass(frozen=True)
class SelectionDiagnostics:
    kappa_sub: float
    mean_nn_distance: float | None = None


@dataclass(frozen=True)
class SubsampleSelection:
    """Chosen row indices plus optional fit weights and method diagnostics.

    ``design`` and ``perturbation`` are populated only by :func:`lowcon`
    when asked to keep them: the design points in the scaled space and the
    matrix of (claimed point - design point) rows.
    """

    indices: np.ndarray
    weights: np.ndarray | None = None
    diagnostics: SelectionDiagnostics = field(
        default_factory=lambda: SelectionDiagnostics(kappa_sub=np.nan)
    )
    design: DesignMatrix | None = None
    perturbation: np.ndarray | None = None


def _scale_rows(R: np.ndarray) -> Box:
    """Map each row of the p x n array R affinely onto [-1, 1], in place.

    The one scaling rule: each row c becomes ``(c - lo) * 2 / (hi - lo) - 1``
    in that op order, with its min and max taken along the row. R holds one
    predictor per row, so every pass runs over contiguous memory when R is
    C-contiguous. Returns the raw per-predictor [min, max] box. A row with
    zero range, or one so wide that a step would overflow, raises before
    anything is written."""
    lo = R.min(axis=1)
    hi = R.max(axis=1)
    flat = np.nonzero(hi <= lo)[0]
    if flat.size:
        raise ConstantColumn(f"columns {flat.tolist()} have zero range")
    # (c - lo) * 2 <= 2 * (hi - lo) after rounding, so no step below
    # overflows when this bound is finite
    with np.errstate(over="ignore"):
        wide = np.nonzero(~np.isfinite(2.0 * (hi - lo)))[0]
    if wide.size:
        raise ValueError(
            f"columns {wide.tolist()} have too wide a range to scale: "
            f"2 * (max - min) overflows float64"
        )
    R -= lo[:, None]
    R *= 2.0
    R /= (hi - lo)[:, None]
    R -= 1.0
    return Box(lower=lo, upper=hi)


def scale_to_cube(X) -> tuple[np.ndarray, Box]:
    """Affinely map each column of X onto [-1, 1] (min to -1, max to +1).

    Scales a copy of X held as contiguous predictor rows, as LOWCON's kept
    sample is, and returns its transpose, C-contiguous n x p, with the raw
    per-column [min, max] it maps from. X itself is never written.

    Raises ``ConstantColumn`` for a column with zero range and
    ``ValueError`` for one whose ``2 * (max - min)`` overflows float64; both
    name the column indices."""
    R = _as_matrix(X).T.copy()
    box = _scale_rows(R)
    return R.T.copy(), box


def _lerp(a: np.ndarray, b: np.ndarray, g) -> np.ndarray:
    """numpy's quantile interpolation from a to b at weight g, in the form
    numpy picks for that weight, so the result has numpy's bits."""
    if g >= 0.5:
        return b - (b - a) * (1.0 - g)
    return a + (b - a) * g


def _theta_rows(R: np.ndarray, theta: float) -> Box:
    """The [theta, 100 - theta] percentile box of the p x n scaled sample R,
    one predictor per row; ``theta_box`` without the matrix check. R itself
    is never written."""
    if not 0.0 <= theta < 50.0:
        raise ValueError("theta must lie in [0, 50) percent")
    n = R.shape[1]
    v = (n - 1) * np.array([theta / 100.0, 1.0 - theta / 100.0])
    W = R.copy()  # C-contiguous rows, partitioned in place
    if n == 1:
        lo = hi = W[:, 0]
    else:
        k_lo, k_hi = int(v[0]), int(v[1])  # floor, since v >= 0
        W.partition(k_lo, axis=1)
        U = W[:, k_lo + 1:]  # every entry >= W[:, k_lo]
        a, b = W[:, k_lo], U.min(axis=1)
        lo = _lerp(a, b, v[0] - k_lo)
        if v[1] >= n - 1:  # both neighbours are the max, and so is the lerp
            hi = U.max(axis=1)
        elif k_hi == k_lo:  # both percentiles fall between the same pair
            hi = _lerp(a, b, v[1] - k_lo)
        else:
            j = k_hi - k_lo - 1
            U.partition(j, axis=1)
            hi = _lerp(U[:, j], U[:, j + 1:].min(axis=1), v[1] - k_hi)
    flat = np.nonzero(lo >= hi)[0]
    if flat.size:
        raise DegenerateBox(
            f"columns {flat.tolist()} have a zero-width theta box at "
            f"theta={theta}: their {theta} and {100.0 - theta} percentiles coincide"
        )
    return Box(lower=lo, upper=hi)


def theta_box(X_scaled, theta: float) -> Box:
    """Per-column [theta, 100 - theta] percentile box of the scaled sample.

    The percentiles are numpy's default "linear" quantiles, type 7 of
    Hyndman & Fan (1996), with ``np.quantile``'s bits: for q = theta / 100
    and 1 - theta / 100, v = (n - 1) q, k = floor(v) and g = v - k, the
    neighbours a <= b sit at positions k and k + 1 of the sorted column
    (both are its max when v >= n - 1), and the percentile is
    ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` where g >= 0.5. (Where
    a column ties -0.0 with 0.0, the sign of a zero result may differ; a
    scaled column holds no -0.0.) theta = 0 returns the full [-1, 1]^p cube
    exactly (the scaled column extremes are exactly +-1).

    Cost: one p x n copy, then two single-kth partitions along its rows,
    the second over the part above the first kth only, and a min over
    each upper part.

    Raises
    ------
    ValueError
        When X_scaled is not a finite 2-d matrix with at least one row and
        column, or theta lies outside [0, 50).
    DegenerateBox
        When a column's two percentiles coincide, as for a 0/1 column whose
        minority value is rarer than theta percent; the message names the
        column indices.
    """
    return _theta_rows(_as_matrix(X_scaled).T, theta)


class _Prepared:
    """A predictor matrix, checked once, that every sampler takes in its place.
    ``keep`` builds what depends on X alone on first use and keeps it, or the
    package error it raised: the scaled sample as contiguous float64
    predictor rows plus its float32 screen with the squared row norms
    (``_scaled_sample``, 8pn + 4(p+1)n bytes), box per theta, the leverages
    (8n bytes), the leverage draw table per alpha (``_leverage_table``, 16n
    bytes each: blev builds alpha 1, which levunw reuses, and slev 0.9) and
    IBOSS per r."""

    def __init__(self, X):
        self.X = _as_matrix(X)
        self._kept: dict = {}

    def keep(self, key, build):
        if key not in self._kept:
            try:
                self._kept[key] = build()
            except LowconError as exc:
                self._kept[key] = exc
        kept = self._kept[key]
        if isinstance(kept, LowconError):
            raise kept.with_traceback(None)
        return kept


def _prepare(X) -> _Prepared:
    return X if isinstance(X, _Prepared) else _Prepared(X)


def _check_r(r, *, positive: bool = True) -> None:
    """The samplers' one check of the target size: r is an integer by
    ``_require_int``'s rule and, unless the sampler bounds r by its own rule,
    at least 1."""
    _require_int(r, "r")
    if positive and r < 1:
        raise ValueError(f"r must be at least 1, got r={r}")


def _scaled_sample(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What LOWCON keeps of a sample, as two C-contiguous arrays.

    S, p x n float64: a copy of X's columns, one predictor per row, scaled
    in place by ``_scale_rows``, so ``S.T`` equals ``scale_to_cube(X)[0]``
    bit for bit. screen, (p+1) x n float32, the array ``_claim_nearest``
    screens with: rows 0..p-1 are S rounded to float32, and row p holds the
    squared norms of the scaled sample points, summed in float64 and then
    rounded."""
    p = X.shape[1]
    S = X.T.copy()
    _scale_rows(S)
    screen = np.empty((p + 1, S.shape[1]), dtype=np.float32)
    screen[:p] = S
    screen[p] = np.einsum("ij,ij->j", S, S)
    return S, screen


# Bytes of screening scores the claim step holds per block of design points;
# bounds its memory independently of r.
_CLAIM_BLOCK_BYTES = 1 << 20


def _claim_nearest(sample: tuple[np.ndarray, np.ndarray],
                   points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Claim each design point's nearest unclaimed row, in design order.

    ``sample`` is the pair (S, screen) that ``_scaled_sample`` keeps.
    Returns the claimed rows and their distances. The result is the one a
    scan of the direct-difference distances ``((x - q)**2).sum()`` over the
    scaled rows x of S per point q gives, first ``argmin``, with claimed
    rows excluded: the same rows, ties to the lowest row, and the same
    distances bit for bit.

    Screen: for a block of design points, one float32 GEMM
    ``[-2 q | 1] @ screen`` gives every row's score ``s = N - 2 x.q``, with
    x and N the row and its norm as the screen stores them. The score lacks
    the per-point constant |q|^2, which changes its rounding but not the
    order of the rows. Per point, only the rows with
    ``s <= min(s) + tol``, compared in float32, are candidates, and they are
    ranked in float64 by the direct-difference expression on S.

    Per point the step takes j, the first ``argmin`` of s (claimed rows
    score inf), marks the rows with ``s <= s_j + tol`` in one n-byte mask
    kept for the call, and counts them. Only a count above 1 lists the
    candidates and re-ranks them. This is exact: s_j is min(s), so the
    float32 threshold is the candidates' own, and a count of 1 means the
    candidates are {j}, which the re-rank would return. The distances of
    all r picks come from one pass of the re-rank's expression at the end,
    which is that expression row by row, so they keep its bits.

    Why the true nearest row survives: let u = 2^-24 be float32's unit
    roundoff, eps = 2u, gamma_k = k u / (1 - k u), D = |x - q|^2 exactly
    for the float64 row x, d its direct float64 form and
    M = max|x| + max|q|. Float64 rounds with unit roundoff 2^-53, so its
    p + 2 roundings in d, and its p-term sum in N, each count as one u here
    (p < 2^28): |d - D| <= gamma_1 M^2. Rounding x and -2q into float32
    moves each product x_j q_j by a factor within (1 + u)^2, and N is |x|^2
    within a factor 1 + gamma_2. The GEMM is a (p+1)-term dot product, so
    in any order BLAS sums, with or without FMA, it adds at most
    gamma_{p+1} times the sum of its terms' magnitudes (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, section 3.1). Together
    |s + |q|^2 - D| <= gamma_{p+3} (|x|^2 + 2 |x||q|) <= gamma_{p+3} M^2.
    Underflow, even flushed to zero, adds at most 2^-126 per term, which is
    negligible, since M >= 1: every scaled column reaches +-1. If row a
    has the least direct distance and b is any unclaimed row, then
    s_a + |q|^2 <= d_a + gamma_{p+4} M^2 <= d_b + gamma_{p+4} M^2
    <= s_b + |q|^2 + 2 gamma_{p+4} M^2, so s_a <= min(s) + 2 gamma_{p+4} M^2,
    about (p+4) eps M^2. tol = 4 (p+3) eps M^2, with M from the stored
    norms, exceeds that by more than (3p+7) eps M^2. The slack absorbs the
    rounding of M, of tol into float32 and of min(s) + tol in float32,
    which together move the threshold by a few u (M^2 + tol), as
    |min(s)| <= (1 + gamma_{p+3}) M^2. The same argument keeps every row
    tied with a at the least direct distance, so the first-argmin tie rule
    also holds.

    Limit: tol is set by the largest norm of all rows and points, not by
    the rows near q. Where one row lies far outside the bulk, scaling packs
    the bulk into a small corner of the cube, where tol spans many bulk
    rows, and the re-rank does the work. On 50k x 3 standard normal rows
    with one row at (c, c, c) and r = 20, every point lists candidates: 2 to
    183 rows pass per point at c = 100, and 10 500 to 44 700 at c = 1000,
    where the claim took 9 times as long as with a float64 screen (one BLAS
    thread on a 2-core x86-64 VM with AVX-512). The picks stay exact.

    Memory: at most ``_CLAIM_BLOCK_BYTES`` (1 MiB) of float32 scores, so a
    block holds ``2^18 // n`` points and at least one, plus the kept S
    (8 p n bytes) and screen (4 (p+1) n bytes), and one n-byte mask.
    """
    S, screen = sample
    p, n = S.shape
    r = points.shape[0]
    qq = np.einsum("ij,ij->i", points, points)
    tol = np.float32(4 * (p + 3) * np.finfo(np.float32).eps * (
        np.sqrt(float(screen[p].max())) + np.sqrt(qq.max())
    ) ** 2)
    block = max(1, _CLAIM_BLOCK_BYTES // (screen.itemsize * n))
    lhs = np.ones((min(block, r), p + 1), dtype=np.float32)  # [-2 q | 1]
    near = np.empty(n, dtype=bool)
    indices = np.empty(r, dtype=np.intp)
    for start in range(0, r, block):
        stop = min(start + block, r)
        np.multiply(points[start:stop], -2.0, out=lhs[:stop - start, :p])
        s = lhs[:stop - start] @ screen
        s[:, indices[:start]] = np.inf
        for i in range(start, stop):
            row = s[i - start]
            j = int(row.argmin())
            # both operands float32, so the threshold rounds to float32
            np.less_equal(row, row[j] + tol, out=near)
            if np.count_nonzero(near) > 1:
                cand = np.flatnonzero(near)
                d2 = ((np.ascontiguousarray(S[:, cand].T) - points[i]) ** 2).sum(axis=1)
                j = int(cand[np.argmin(d2)])  # first minimum: ties go to the lowest row
            indices[i] = j
            s[i - start + 1:, j] = np.inf
    dists = np.sqrt(((np.ascontiguousarray(S[:, indices].T) - points) ** 2).sum(axis=1))
    return indices, dists


def _selection(X: np.ndarray, indices: np.ndarray,
               weights: np.ndarray | None = None) -> SubsampleSelection:
    """A baseline's selection, with the condition number of its rows."""
    return SubsampleSelection(
        indices=indices,
        weights=weights,
        diagnostics=SelectionDiagnostics(kappa_sub=condition_number(X[indices])),
    )


def lowcon(
    X,
    r: int,
    theta: float = 1.0,
    *,
    rng: np.random.Generator,
    keep_design: bool = False,
) -> SubsampleSelection:
    """Low-condition-number pursuit: match a space-filling design to the data.

    Scales the sample to [-1, 1]^p, trims the design space to the per-column
    [theta, 100 - theta] percentile box, draws a low-correlation Latin
    hypercube design of r points inside it (the first use of ``rng``; r <= p
    raises ``InfeasibleDesign``), and claims each design point's nearest
    unclaimed sample point in design order, so the r rows are distinct.
    Selection is invariant to per-column positive affine transforms of the
    raw data, since scaling normalizes them away.

    The sample is kept scaled, as one C-contiguous p x n float64 array with
    one predictor per row, and as a (p+1) x n float32 screen: those rows
    rounded to float32 plus the squared row norms. The claim screens every
    row with one float32 GEMM per block of design points. Per point it
    takes the best-scoring row when no other row scores within the
    screening tolerance of it, and otherwise ranks the rows that pass in
    float64 by direct differences ``((x - q)**2).sum()``. The rows, ties
    (to the lowest row) and distances are those of a direct-difference scan
    over all rows; ``_claim_nearest`` gives the screening tolerance and why
    the nearest row always passes. The claim holds at most 1 MiB of scores,
    whatever r is (``2^18 // n`` design points per block, and at least
    one), plus one n-byte mask. One row far outside the bulk makes many
    rows pass the screen, which slows the claim but keeps it exact (see
    ``_claim_nearest``).
    """
    _check_r(r, positive=False)  # r <= p raises InfeasibleDesign
    sample = _prepare(X)
    n, p = sample.X.shape
    if not n > r:
        raise ValueError(f"need n > r, got n={n}, r={r}")
    S, screen = sample.keep("scaled", lambda: _scaled_sample(sample.X))
    box = sample.keep(("box", theta), lambda: _theta_rows(S, theta))
    design = rescale_design(generate_olhd(r, p, rng), box)
    indices, dists = _claim_nearest((S, screen), design.points)
    diag = SelectionDiagnostics(
        kappa_sub=condition_number(sample.X[indices]),
        mean_nn_distance=float(dists.mean()),
    )
    return SubsampleSelection(
        indices=indices,
        diagnostics=diag,
        design=design if keep_design else None,
        perturbation=(S[:, indices].T - design.points) if keep_design else None,
    )


def unif(X, r: int, rng: np.random.Generator) -> SubsampleSelection:
    """Uniform subsampling without replacement."""
    _check_r(r)
    X = _prepare(X).X
    n = X.shape[0]
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    indices = np.asarray(rng.choice(n, size=r, replace=False), dtype=np.intp)
    return _selection(X, indices)


# slev's leverage share, the shrinkage Ma, Mahoney & Yu (2015) recommend
_SLEV_ALPHA = 0.9


def _leverage_table(X, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The draw table of leverage share alpha, read-only and kept per alpha:
    pi = alpha h / sum(h) + (1 - alpha) / n, divided by its sum, and its CDF
    ``cumsum(pi) / cumsum(pi)[-1]``, 16n bytes together. Both are built from
    the kept leverages h on first use; blev builds alpha 1, which levunw
    reuses, and slev builds 0.9."""
    sample = _prepare(X)

    def build():
        h = sample.keep("leverage", lambda: leverage_scores(sample.X))
        pi = alpha * h / h.sum() + (1.0 - alpha) / sample.X.shape[0]
        pi /= pi.sum()
        cdf = pi.cumsum()
        cdf /= cdf[-1]
        pi.flags.writeable = cdf.flags.writeable = False
        return pi, cdf

    return sample.keep(("leverage", alpha), build)


def _leverage_draw(
    sample: _Prepared, r: int, rng: np.random.Generator, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """r i.i.d. rows drawn with replacement from the kept table of leverage
    share alpha, and that table's pi. The draw is ``Generator.choice``'s
    with-replacement path, ``cdf.searchsorted(rng.random(r), side="right")``
    on the CDF that choice would build from pi, so the rows and the rng state
    after the draw equal those of choice with ``replace=True`` and that pi;
    only choice's per-call check of pi and its rebuild of the CDF are
    skipped."""
    _check_r(r)
    n = sample.X.shape[0]
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    pi, cdf = _leverage_table(sample, alpha)
    return cdf.searchsorted(rng.random(r), side="right"), pi


def blev(X, r: int, rng: np.random.Generator) -> SubsampleSelection:
    """Basic leverage subsampling: i.i.d. draws with probability h_ii / p,
    with replacement, and 1 / (r pi) weights for weighted least squares."""
    sample = _prepare(X)
    indices, pi = _leverage_draw(sample, r, rng, alpha=1.0)
    return _selection(sample.X, indices, weights=1.0 / (r * pi[indices]))


def slev(X, r: int, rng: np.random.Generator) -> SubsampleSelection:
    """Shrinkage leverage subsampling: pi = 0.9 h/p + 0.1/n."""
    sample = _prepare(X)
    indices, pi = _leverage_draw(sample, r, rng, alpha=_SLEV_ALPHA)
    return _selection(sample.X, indices, weights=1.0 / (r * pi[indices]))


def levunw(X, r: int, rng: np.random.Generator) -> SubsampleSelection:
    """Unweighted leverage subsampling: the same draw as blev (identical
    indices under the same rng state) but fit by plain least squares."""
    sample = _prepare(X)
    indices, _ = _leverage_draw(sample, r, rng, alpha=1.0)
    return _selection(sample.X, indices)


def _lowest(keys: np.ndarray, k: int) -> np.ndarray:
    """The positions of the k smallest ``keys``, ordered by (key, position),
    so at the k-th key value the lowest positions win. One partition finds
    that value; only the k picks are sorted."""
    v = np.partition(keys, k - 1)[k - 1]
    pick = keys < v
    pick[np.flatnonzero(keys == v)[: k - np.count_nonzero(pick)]] = True
    pos = np.flatnonzero(pick)
    return pos[np.argsort(keys[pos], kind="stable")]


def iboss(X, r: int) -> SubsampleSelection:
    """Deterministic extreme-point selection (Wang, Yang & Stufken, 2019).

    For each column in order, takes the k = floor(r / 2p) smallest and then
    the k largest rows not yet taken, by that column's value; the remainder
    m = r - 2pk is filled from column 0, alternating smallest/largest of
    what is still free. Value ties resolve to the smallest row index. No
    randomness is involved.

    Cost: per step one masked copy of the column, one partition, a sort of
    the picks only; the remainder adds at most 2p - 1 such steps, so O(np).
    """
    _check_r(r, positive=False)  # r < 2p raises below
    sample = _prepare(X)
    return sample.keep(("iboss", r), lambda: _iboss(sample.X, r))


def _iboss(X: np.ndarray, r: int) -> SubsampleSelection:
    n, p = X.shape
    if r < 2 * p:
        raise ValueError(f"need r >= 2p, got r={r}, p={p}")
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    k = r // (2 * p)
    steps = [(j, sign, k) for j in range(p) for sign in (1.0, -1.0)]
    steps += [(0, (1.0, -1.0)[i % 2], 1) for i in range(r - 2 * p * k)]
    indices = np.empty(r, dtype=np.intp)
    done = 0
    for j, sign, count in steps:
        keys = sign * X[:, j]
        # X is finite and n >= r leaves count free rows, so a taken row's
        # inf key is never among the picks
        keys[indices[:done]] = np.inf
        indices[done:done + count] = _lowest(keys, count)
        done += count
    return _selection(X, indices)
