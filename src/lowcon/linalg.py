"""Dense linear-algebra primitives shared by every other module.

This module owns the package's input rules, which the rest of the package
calls rather than restates: the size check (an integer that int64 holds, not
a bool), the noise-scale check (a finite value >= 0), the
misspecification-scale check (a finite alpha > 0), the array intake, the
rank rule (one machine-precision-scaled cutoff, so every caller agrees on
what "rank deficient" means) and the weighted least-squares solve. All
routines work from an orthogonal factorization (SVD); nothing here forms an
explicit matrix inverse.

The array intake is the one way an input array enters the package, and no
other module casts its inputs itself. ``_as_float`` casts to float64, with
no copy of a float64 input, and refuses a complex dtype with one
``ValueError`` naming that dtype, since the cast would drop the imaginary
part. ``_as_matrix`` adds the matrix check (2-d, non-empty, finite) and
``_as_vector`` the vector check (1-d, finite, of the expected length); each
adds one finite pass over its array.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import RankDeficient

# Smallest singular value below max(rows, cols) * s1 * RANK_RTOL declares
# rank deficiency.
RANK_RTOL = 1e-12


_INT64 = np.iinfo(np.int64)


def _require_int(value, name: str) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer that int64
    holds: numpy integers count, a bool and an integral float do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{name} must fit in int64, got {name}={value}")


def _require_noise_scale(value, name: str) -> None:
    """ValueError naming ``name`` unless ``value`` is a noise variance or
    standard deviation: finite and >= 0, so nan, inf and negatives fail."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _require_alpha(alpha) -> None:
    """ValueError naming alpha unless it is a misspecification scale: finite
    and > 0, so nan, inf, 0 and negatives fail."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")


def _as_float(a, what: str) -> np.ndarray:
    """``a`` as a float64 array, not copied when it is one already. A complex
    dtype raises ValueError naming ``what`` and the dtype, before any cast."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ValueError(f"{what} entries must be real, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def _as_matrix(X) -> np.ndarray:
    """X by ``_as_float``, checked to be 2-d, non-empty and finite."""
    X = _as_float(X, "matrix")
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix entries must be finite")
    return X


def _as_vector(v, what: str, length: int | None = None) -> np.ndarray:
    """v by ``_as_float``, checked to be 1-d, finite and, unless ``length``
    is None, of that length; each ValueError names ``what``."""
    v = _as_float(v, what)
    if v.ndim != 1:
        raise ValueError(f"{what} must be 1-d, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{what} has {v.shape[0]} entries, expected {length}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} entries must be finite")
    return v


def _aligned_empty(shape, dtype=np.float64) -> np.ndarray:
    """``np.empty`` whose data starts on a 64-byte boundary, a cache line.
    malloc promises 16 bytes, and which address a large array gets depends
    on the process's allocation history; numpy's vector loops over an array
    that straddles cache lines run measurably slower (20-30% for the OLHD
    swap scores at r = 400, p = 20)."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    skip = -raw.ctypes.data % 64
    return raw[skip:skip + nbytes].view(dtype).reshape(shape)


def _rank_deficient(s: np.ndarray, rows: int, cols: int) -> bool:
    """Whether singular values ``s`` of a rows x cols matrix give rank < cols."""
    return (s.size < cols or s[0] == 0.0
            or s[-1] < max(rows, cols) * float(s[0]) * RANK_RTOL)


def _require_full_rank(s: np.ndarray, rows: int, cols: int, what: str) -> None:
    if _rank_deficient(s, rows, cols):
        raise RankDeficient(
            f"{what}: numerical rank below {cols} "
            f"(smallest singular value {s[-1] if s.size else 0.0:.3e})"
        )


def _svd_full_rank(X: np.ndarray, what: str):
    """Thin SVD ``(u, s, vt)`` of ``X``; RankDeficient below full column rank."""
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    _require_full_rank(s, X.shape[0], X.shape[1], what)
    return u, s, vt


def _weighted_solve(X, y, weights, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`least_squares` solve, returning ``(beta, s)``: the
    coefficients and the singular values of the sqrt(w)-scaled design."""
    X = _as_matrix(X)
    r, p = X.shape
    y = _as_vector(y, "y", r)
    if r < p:
        raise ValueError(f"need at least as many rows ({r}) as columns ({p})")
    if weights is not None:
        w = _as_vector(weights, "weights", r)
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        sw = np.sqrt(w)
        X = X * sw[:, None]
        y = y * sw
    u, s, vt = _svd_full_rank(X, what)
    return vt.T @ ((u.T @ y) / s), s


def singular_values(A) -> np.ndarray:
    """Singular values of ``A``, nonincreasing.

    Squares equal the eigenvalues of ``A.T @ A``.
    """
    A = _as_matrix(A)
    return np.linalg.svd(A, compute_uv=False)


def least_squares(X, y, weights=None) -> np.ndarray:
    """Solve ``min_b sum_i w_i (y_i - x_i @ b)**2`` by orthogonal factorization.

    Parameters
    ----------
    X : (r, p) array
        Design matrix, r >= p and full column rank after row scaling.
    y : (r,) array
        Responses.
    weights : (r,) array, optional
        Positive case weights. Implemented by scaling rows with sqrt(w)
        and solving the unweighted problem.

    Returns
    -------
    (p,) coefficient vector.

    Raises
    ------
    ValueError
        If X fails ``_as_matrix``, y or weights fail ``_as_vector`` at
        length r (a complex dtype among them), a weight is not positive, or
        r < p.
    RankDeficient
        If the (scaled) design has numerical rank below p.
    """
    return _weighted_solve(X, y, weights, "least_squares")[0]


def condition_number(X) -> float:
    """Condition number of ``X.T @ X``, computed as ``(s_1 / s_p)**2``.

    Returns ``inf`` when X has fewer rows than columns or its smallest
    singular value sits below the rank tolerance; infinity is a legitimate
    diagnostic, not an error.
    """
    X = _as_matrix(X)
    s = np.linalg.svd(X, compute_uv=False)
    if _rank_deficient(s, *X.shape):
        return np.inf
    return float((s[0] / s[-1]) ** 2)


def leverage_scores(X) -> np.ndarray:
    """Diagonal of the hat matrix ``X (X.T X)^{-1} X.T``.

    Computed as squared row norms of a thin orthonormal factor of ``X``;
    each score lies in [0, 1] and the scores sum to p.
    """
    X = _as_matrix(X)
    n, p = X.shape
    if n < p:
        raise ValueError(f"need at least as many rows ({n}) as columns ({p})")
    u, _, _ = _svd_full_rank(X, "leverage_scores")
    return np.einsum("ij,ij->i", u, u)
