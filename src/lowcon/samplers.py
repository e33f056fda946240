"""The six subsampling methods behind one interface.

Every sampler takes the full predictor matrix and a target size r and returns
a :class:`SubsampleSelection`. Probability-weighted samplers (blev, slev)
attach reciprocal inclusion-probability weights for weighted least squares;
the rest select rows for a plain fit.

X enters through ``linalg``'s one array intake: ``_Prepared`` checks it by
``_as_matrix`` (a finite, non-empty, 2-d real matrix, cast to float64; a
complex dtype raises ``ValueError`` naming it), once per prepared sample.
Each sampler works on a prepared sample (``_Prepared``), which keeps what the
samplers derive from X alone. unif, iboss and lowcon build a new sample on
every public call on a plain matrix (``_prepare``). blev, slev and levunw
reuse the sample of the last leverage call while they pass the same array
object with unchanged contents (``_leverage_sample``), so their calls on one
X share one leverage SVD.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .designs import Box, DesignMatrix, generate_olhd, rescale_design
from .exceptions import ConstantColumn, DegenerateBox, LowconError
from .linalg import (
    _aligned_empty,
    _as_float,
    _as_matrix,
    _require_int,
    condition_number,
    leverage_scores,
)


@dataclass(frozen=True)
class SelectionDiagnostics:
    """What a selection reports about itself. ``mean_nn_distance`` and
    ``reranked_points``, the number of design points whose candidate rows
    the claim re-ranked in float64, are LOWCON's and None for the
    baselines."""

    kappa_sub: float
    mean_nn_distance: float | None = None
    reranked_points: int | None = None


@dataclass(frozen=True)
class SubsampleSelection:
    """Chosen row indices plus optional fit weights and method diagnostics.

    Every :func:`lowcon` selection carries ``design`` and ``perturbation``:
    the design points L in the scaled space and the r x p matrix D of
    (claimed row - design point), so the claimed scaled rows are L + D. The
    baselines leave both None.
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
    predictor rows plus its centred float32 screen with the squared centred
    row norms and the p-float centre (``_scaled_sample``, 8pn + 4(p+1)n
    bytes, as for an uncentred screen), box per theta, the leverages
    (8n bytes), the leverage draw table per alpha (``_leverage_table``, 16n
    bytes each: blev builds alpha 1, which levunw reuses, and slev 0.9) and
    IBOSS per r (r indices, read-only since every call returns the same
    selection). In all, 8pn + 4(p+1)n + 8n bytes, plus 16n per table, plus
    the IBOSS picks. X is the matrix the sample was built on, for its whole
    life, checked once by ``linalg._as_matrix``."""

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


def _frozen(X) -> _Prepared:
    """A new prepared sample on a read-only, C-contiguous float64 copy of X
    (8np bytes), which no caller can write. X is checked before the copy,
    which replaces the sample's matrix before anything is kept."""
    sample = _Prepared(X)
    sample.X = sample.X.copy()
    sample.X.flags.writeable = False
    return sample


def _prepare(X) -> _Prepared:
    """The prepared sample a sampler works on: X itself when it is one, else
    a new sample on X, which copies X only to convert it to float64."""
    return X if isinstance(X, _Prepared) else _Prepared(X)


# (weak reference to the caller's array, the sample built on a copy of it)
# of the last leverage sampler call on a plain array, or None
_last = None


def _forget(ref) -> None:
    """Drop the kept sample once the array it was built from is freed."""
    global _last
    if _last is not None and _last[0] is ref:
        _last = None


def _leverage_sample(X) -> _Prepared:
    """The prepared sample blev, slev and levunw work on, so that their
    public calls on one X pay for one leverage SVD: X itself when it is one,
    else the kept sample, when X is the array object it was built from and
    X's contents, cast by ``linalg._as_float``, are byte-equal to its copy
    (compared as int64, so -0.0 differs from 0.0); else a new ``_frozen``
    sample on its own copy of X, which no later write to X can make stale,
    kept in place of the last one. The kept sample holds its 8np-byte copy,
    the leverages and its draw tables until X is freed or another array's
    sample is kept. A hit costs one comparison pass over X in place of the
    finite check, which the kept copy passed when it was built. Objects that
    take no weak reference, such as lists, get a new sample that is never
    kept."""
    global _last
    if isinstance(X, _Prepared):
        return X
    last = _last
    if last is not None and last[0]() is X:
        A = _as_float(X, "matrix")
        if np.array_equal(A.view(np.int64), last[1].X.view(np.int64)):
            return last[1]
    try:
        ref = weakref.ref(X, _forget)
    except TypeError:
        return _Prepared(X)
    sample = _frozen(X)
    _last = (ref, sample)
    return sample


def _check_r(r, *, positive: bool = True) -> None:
    """The samplers' one check of the target size: r is an integer by
    ``_require_int``'s rule and, unless the sampler bounds r by its own rule,
    at least 1."""
    _require_int(r, "r")
    if positive and r < 1:
        raise ValueError(f"r must be at least 1, got r={r}")


def _scaled_sample(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What LOWCON keeps of a sample: (S, screen, c).

    S, p x n float64, C-contiguous: a copy of X's columns, one predictor per
    row, scaled in place by ``_scale_rows``, so ``S.T`` equals
    ``scale_to_cube(X)[0]`` bit for bit. c, p float64: the centre, the mean
    of each row of S. screen, (p+1) x n float32, C-contiguous, the array
    ``_claim_nearest`` screens with: rows 0..p-1 hold S - c, subtracted in
    float64 and rounded to float32, and row p the squared norms of those
    float32 columns, summed in float32. Centring costs one reading pass
    for the mean; the screen keeps its uncentred size, and S stays
    uncentred."""
    p = X.shape[1]
    S = X.T.copy()
    _scale_rows(S)
    c = S.mean(axis=1)
    screen = np.empty((p + 1, S.shape[1]), dtype=np.float32)
    np.subtract(S, c[:, None], out=screen[:p])
    np.einsum("ij,ij->j", screen[:p], screen[:p], out=screen[p])
    return S, screen, c


# Bytes of screening scores the claim step holds per block of design points;
# bounds its memory independently of r.
_CLAIM_BLOCK_BYTES = 1 << 20
# Added to every claim tolerance; covers float32 underflow (see _claim_nearest).
_UNDERFLOW_SLACK = 2.0 ** -100


def _claim_nearest(sample: tuple[np.ndarray, np.ndarray, np.ndarray],
                   points: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Claim each design point's nearest unclaimed row, in design order.

    ``sample`` is the triple (S, screen, c) that ``_scaled_sample`` keeps.
    Returns the claimed rows, their offsets from the design points (the
    C-contiguous r x p array ``x - q`` per claimed row x and point q) and
    how many points had their candidates re-ranked. The rows are the ones
    a scan of the direct-difference distances ``((x - q)**2).sum()`` over
    the scaled rows x of S per point q gives, first ``argmin``, with
    claimed rows excluded: the same rows, ties to the lowest row, and
    ``np.sqrt((offsets ** 2).sum(axis=1))`` gives that scan's distances
    bit for bit.

    Screen: for a block of design points, one float32 GEMM
    ``[-2 (q - c) | 1] @ screen`` gives every row's score
    ``s = N - 2 (x - c).(q - c)``, with x - c and N the centred row and its
    norm as the screen stores them. The score is |x - q|^2 - |q - c|^2 up
    to rounding; the per-point constant changes its rounding but not the
    order of the rows. Rows claimed in earlier blocks score inf.

    Per point the step takes j, the first ``argmin`` of s, and the
    runner-up m2 = min of s over the other rows. The block gets both in
    three passes (``argmin`` per point, j's scores set to inf, ``min`` per
    point), before any of its points claims a row, and keeps the rows its
    points claim in one set. A claim in the block only raises a later
    point's current scores to inf, so j stays its first ``argmin`` unless
    j itself was claimed, and the block's m2 is a lower bound of the
    current runner-up. So a point whose j is not in the set and passes
    ``m2 > s_j + tol`` takes j without touching its scores. Any other point
    first sets the block's claimed rows to inf in its own score row, which
    then holds its current scores; if j was claimed, j and m2 are taken
    again from that row. The point takes j when ``m2 > s_j + tol``, else
    when ``m2 > s_j + tol_i``, with

        tol   = 4 (p+3) eps (max_x |x - c| + max_q |q - c|)^2 + 2^-100,
        tol_i = 4 (p+3) eps ((|x_j - c| + |q - c|)^2
                             + (2 |q - c| + sqrt(d_j))^2) + 2^-100,

    where eps = 2^-23 is float32's machine epsilon, the norms |x - c| are
    read from the screen, |q - c| is summed in float64 and d_j is j's
    direct float64 distance. Both are computed in float64 and rounded to
    float32, and ``s_j + tol`` is summed in float32. Only when both tests
    fail are the rows with ``s <= s_j + tol_i`` listed, in row order, and
    ranked by the direct-difference expression on S, first minimum. The
    offsets of all r picks come from one subtraction at the end, the
    expression's own differences, so the distances summed from them keep
    its bits.

    Why this is exact. Let u = 2^-24 be float32's unit roundoff,
    gamma_k = k u / (1 - k u), y = x - c and t = q - c exactly, so that
    D = |x - q|^2 = |y|^2 - 2 y.t + |t|^2, and take p < 2^16. c is any
    float64 vector: the screen and the points are centred on the same c,
    so how the mean rounds changes nothing below. Each stored entry of y
    is float64's x - c rounded to float32, within a factor 1 + gamma_1 of
    the exact one (unit roundoffs 2^-53 and u), and so is each entry of
    -2t in the GEMM. N is a p-term float32 sum of squares of those entries,
    within a factor 1 + gamma_{p+2} of |y|^2 in any summation order, and
    the GEMM is a (p+1)-term dot product, which adds at most gamma_{p+1}
    times the sum of its terms' magnitudes in any order BLAS sums, with or
    without FMA (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, section 3.1). So each score is

        s = D - |t|^2 + e,   |e| <= gamma_{2p+3} R^2 + U,   R = |y| + |t|,

    where U bounds underflow: a float32 step whose result lies below
    2^-126 errs by at most 2^-126, even flushed to zero; the entries it
    meets are at most 4 in magnitude (x, q and c lie in the cube), and a
    score takes at most 6p such steps, so U <= 6p 2^-124 < 2^-105. The
    direct distance d of a row is D within a factor 1 + gamma'_{p+1}
    (gamma' for float64's unit roundoff 2^-53), far below 1 + u; float64
    underflow, at most p 2^-1022, vanishes beside the 2^-100 below. Now
    let a be the row the direct scan returns and b any unclaimed row with
    d_b = d_a, a included. Then d_b <= d_j, so D_b <= (1 + 3u) D_j, and
    |x_b - c| <= sqrt(D_b) + |t|; with B = 2|t| + sqrt(D_j) and
    D_j <= R_j^2,

        s_b - s_j <= gamma_{2p+3} (R_j^2 + R_b^2) + 3u D_j + 2U
                  <= gamma_{2p+6} (R_j^2 + B^2) + 2U,

    and, since R_j, R_b <= M = max_x |x - c| + max_q |q - c|, also
    s_b - s_j <= 2 gamma_{2p+5} M^2 + 2U. tol_i and tol are built from
    these terms as computed: the screen's sqrt(N_j) is within a factor
    1 + gamma_{p+3} of |x_j - c|, the float64 |q - c| and sqrt(d_j) within
    1 + u of theirs, and the few float64 steps and the rounding to float32
    lose a few u more. So the computed tol_i is at least
    8 (p+3) u (1 - gamma_{2p+12}) (R_j^2 + B^2) + 2^-101, and tol at
    least the same with M^2. The float32 sum s_j + tol_i loses at most
    u (|s_j| + tol_i), and |s_j| <= (1 + gamma_{2p+3}) R_j^2 + U. After
    these losses the threshold still exceeds s_b by at least
    (5p + 15) u (R_j^2 + B^2) + 2^-101 - 3U > 0, and for tol by at least
    (3p + 12) u M^2 + 2^-101 - 3U > 0. So every row tied with a at the
    least direct distance scores at most either threshold. If m2 exceeds
    it, j is the only such row and the direct scan's pick; otherwise the
    listed rows include a and all its ties, and the re-rank's first
    minimum in row order is a.

    Memory: one buffer of at most ``_CLAIM_BLOCK_BYTES`` (1 MiB) of float32
    scores, so a block holds ``2^18 // n`` points and at least one, plus the
    kept S (8 p n bytes) and screen (4 (p+1) n bytes). The buffer is
    allocated once per call, on a 64-byte boundary, and every block's GEMM
    writes into it.
    """
    S, screen, c = sample
    p, n = S.shape
    r = points.shape[0]
    T = points - c
    tq = np.sqrt(np.einsum("ij,ij->i", T, T))  # |q - c| per point
    K = 4 * (p + 3) * float(np.finfo(np.float32).eps)
    norms = screen[p]
    tol = np.float32(K * (math.sqrt(norms.max()) + tq.max()) ** 2 + _UNDERFLOW_SLACK)
    block = max(1, _CLAIM_BLOCK_BYTES // (screen.itemsize * n))
    lhs = np.ones((min(block, r), p + 1), dtype=np.float32)  # [-2 (q - c) | 1]
    scores = _aligned_empty((min(block, r), n), np.float32)
    indices = np.empty(r, dtype=np.intp)
    reranked = 0
    for start in range(0, r, block):
        stop = min(start + block, r)
        np.multiply(T[start:stop], -2.0, out=lhs[:stop - start, :p])
        s = np.matmul(lhs[:stop - start], screen, out=scores[:stop - start])
        s[:, indices[:start]] = np.inf
        at = np.arange(stop - start)
        best = s.argmin(axis=1)
        s_best = s[at, best]
        s[at, best] = np.inf
        runner_up = s.min(axis=1)
        s[at, best] = s_best
        claimed = set()  # the rows this block's points have taken
        for i in range(start, stop):
            j, sj, m2 = int(best[i - start]), s_best[i - start], runner_up[i - start]
            if j in claimed or not m2 > sj + tol:
                row = s[i - start]
                row[indices[start:i]] = np.inf
                if j in claimed:
                    j = int(row.argmin())
                    sj = row[j]
                    row[j] = np.inf
                    m2 = row.min()
                    row[j] = sj
                if not m2 > sj + tol:
                    ti = float(tq[i])
                    d = float(((S[:, j] - points[i]) ** 2).sum())
                    tol_i = np.float32(K * ((math.sqrt(norms[j]) + ti) ** 2
                                            + (2.0 * ti + math.sqrt(d)) ** 2)
                                       + _UNDERFLOW_SLACK)
                    if not m2 > sj + tol_i:
                        cand = np.flatnonzero(row <= sj + tol_i)
                        d2 = ((np.ascontiguousarray(S[:, cand].T) - points[i]) ** 2).sum(axis=1)
                        j = int(cand[np.argmin(d2)])  # first minimum: ties go to the lowest row
                        reranked += 1
            indices[i] = j
            claimed.add(j)
    return indices, np.ascontiguousarray(S[:, indices].T) - points, reranked


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
    one predictor per row, and as a (p+1) x n float32 screen of the same
    size as an uncentred one: those rows minus their mean, rounded to
    float32, plus the squared centred norms. The claim screens every row
    with one float32 GEMM per block of design points. Per point it takes
    the best-scoring row when the runner-up scores above it by more than a
    rounding-error tolerance: a global one first, then one for the point,
    set by its own and its best row's distances from the centre. Otherwise
    it ranks the rows within that tolerance in float64 by direct
    differences ``((x - q)**2).sum()`` and counts the point in
    ``diagnostics.reranked_points``. The rows, ties (to the lowest row)
    and distances are those of a direct-difference scan over all rows;
    ``_claim_nearest`` gives the tolerances and why the nearest row always
    passes them. The claim holds at most 1 MiB of scores, whatever r is
    (``2^18 // n`` design points per block, and at least one).

    The selection always carries the design and the perturbation, each
    claimed scaled row minus its design point, with
    ``diagnostics.mean_nn_distance`` the mean of the perturbation's row
    norms. ``keep_design`` is ignored: it stays only for callers that still
    pass it.
    """
    _check_r(r, positive=False)  # r <= p raises InfeasibleDesign
    sample = _prepare(X)
    n, p = sample.X.shape
    if not n > r:
        raise ValueError(f"need n > r, got n={n}, r={r}")
    kept = sample.keep("scaled", lambda: _scaled_sample(sample.X))
    S = kept[0]
    box = sample.keep(("box", theta), lambda: _theta_rows(S, theta))
    design = rescale_design(generate_olhd(r, p, rng), box)
    indices, offsets, reranked = _claim_nearest(kept, design.points)
    diag = SelectionDiagnostics(
        kappa_sub=condition_number(sample.X[indices]),
        mean_nn_distance=float(np.sqrt((offsets ** 2).sum(axis=1)).mean()),
        reranked_points=reranked,
    )
    return SubsampleSelection(
        indices=indices, diagnostics=diag, design=design, perturbation=offsets
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
    sample = _leverage_sample(X)

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
    sample = _leverage_sample(X)
    indices, pi = _leverage_draw(sample, r, rng, alpha=1.0)
    return _selection(sample.X, indices, weights=1.0 / (r * pi[indices]))


def slev(X, r: int, rng: np.random.Generator) -> SubsampleSelection:
    """Shrinkage leverage subsampling: pi = 0.9 h/p + 0.1/n."""
    sample = _leverage_sample(X)
    indices, pi = _leverage_draw(sample, r, rng, alpha=_SLEV_ALPHA)
    return _selection(sample.X, indices, weights=1.0 / (r * pi[indices]))


def levunw(X, r: int, rng: np.random.Generator) -> SubsampleSelection:
    """Unweighted leverage subsampling: the same draw as blev (identical
    indices under the same rng state) but fit by plain least squares."""
    sample = _leverage_sample(X)
    indices, _ = _leverage_draw(sample, r, rng, alpha=1.0)
    return _selection(sample.X, indices)


def _lowest(keys: np.ndarray, k: int, pick: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """The positions of the k smallest ``keys``, ordered by (key, position),
    so at the k-th key value the lowest positions win. One partition finds
    that value; only the k picks are sorted. ``pick`` and ``tie`` are bool
    buffers the size of ``keys``, overwritten."""
    v = np.partition(keys, k - 1)[k - 1]
    np.less(keys, v, out=pick)
    np.equal(keys, v, out=tie)
    pick[np.flatnonzero(tie)[: k - np.count_nonzero(pick)]] = True
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
    The keys and the two bool masks are n-sized buffers allocated once per
    call.
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
    keys = np.empty(n)
    pick, tie = np.empty((2, n), dtype=bool)
    done = 0
    for j, sign, count in steps:
        np.multiply(X[:, j], sign, out=keys)
        # X is finite and n >= r leaves count free rows, so a taken row's
        # inf key is never among the picks
        keys[indices[:done]] = np.inf
        indices[done:done + count] = _lowest(keys, count, pick, tie)
        done += count
    indices.flags.writeable = False  # kept, so every call returns these
    return _selection(X, indices)


# The method table: each method's one sampler call, (X, r, rng, theta) ->
# SubsampleSelection, where X may be a prepared sample and theta is read by
# LOWCON alone. Its order is the harness's method order, which keys every
# sampler seed, so a reorder changes the result CSVs.
_SAMPLERS = {
    "UNIF": lambda X, r, rng, theta: unif(X, r, rng),
    "BLEV": lambda X, r, rng, theta: blev(X, r, rng),
    "SLEV": lambda X, r, rng, theta: slev(X, r, rng),
    "LEVUNW": lambda X, r, rng, theta: levunw(X, r, rng),
    "IBOSS": lambda X, r, rng, theta: iboss(X, r),
    "LOWCON": lambda X, r, rng, theta: lowcon(X, r, theta, rng=rng),
}
