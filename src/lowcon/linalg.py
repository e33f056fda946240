"""Dense linear-algebra primitives shared by every other module.

This module owns three rules that the rest of the package calls rather than
restates: the matrix check (2-d, non-empty, finite), the rank rule (one
machine-precision-scaled cutoff, so every caller agrees on what "rank
deficient" means) and the weighted least-squares solve. All routines work
from an orthogonal factorization (SVD); nothing here forms an explicit
matrix inverse.
"""

from __future__ import annotations

import numpy as np

from .exceptions import RankDeficient

# Smallest singular value below max(rows, cols) * s1 * RANK_RTOL declares
# rank deficiency.
RANK_RTOL = 1e-12


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix entries must be finite")
    return X


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
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    r, p = X.shape
    if y.shape[0] != r:
        raise ValueError(f"y has length {y.shape[0]}, expected {r}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y entries must be finite")
    if r < p:
        raise ValueError(f"need at least as many rows ({r}) as columns ({p})")
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != r:
            raise ValueError("weights length must match row count")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and positive")
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
