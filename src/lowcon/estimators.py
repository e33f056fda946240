"""Subsample least-squares estimation and the supporting theory diagnostics.

Includes the exact variance/bias decomposition of the estimator's MSE under a
mean-shift error model, the worst-case MSE bound together with the mean-shift
vector attaining it, singular-value perturbation bounds for design-anchored
subsamples, and a Huber M-estimator used as a robust full-sample surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AssumptionViolated
from .linalg import (
    _as_matrix,
    _require_full_rank,
    _svd_full_rank,
    _weighted_solve,
    least_squares,
)

_MAD_TO_SD = 0.6744897501960817  # Phi^{-1}(0.75): MAD of a normal / its sd
_HUBER_TUNING = 1.345  # 95% efficiency at the Gaussian
_HUBER_MAX_ITER = 100
_HUBER_TOL = 1e-8


@dataclass(frozen=True)
class FitResult:
    """Coefficients plus the two spectrum diagnostics of the fitted design."""

    beta: np.ndarray
    kappa_sub: float
    trace_inv: float


@dataclass(frozen=True)
class MseReport:
    variance_term: float
    bias_sq_term: float

    @property
    def total(self) -> float:
        return self.variance_term + self.bias_sq_term


@dataclass(frozen=True)
class WorstCase:
    """Worst-case MSE bound and the mean-shift vector h_star attaining it."""

    bound: float
    h_star: np.ndarray


@dataclass(frozen=True)
class HuberFit:
    beta: np.ndarray
    converged: bool
    iterations: int


def fit_sls(X_sub, y_sub, weights=None) -> FitResult:
    """Least-squares fit on a subsample, with condition-number diagnostics.

    Solved, and its arguments checked, as by :func:`least_squares`.
    ``kappa_sub`` and ``trace_inv`` (the trace of the inverse information
    matrix) come from the singular spectrum of the weighted design, never
    from an explicit inverse.
    """
    beta, s = _weighted_solve(X_sub, y_sub, weights, "fit_sls")
    return FitResult(
        beta=beta,
        kappa_sub=float((s[0] / s[-1]) ** 2),
        trace_inv=float(np.sum(1.0 / s**2)),
    )


def mse_decompose(X_sub, h_sub, sigma2: float) -> MseReport:
    """Exact MSE of the subsample estimator for a known mean shift h.

    variance_term = sigma2 * tr[(X'X)^{-1}] = sigma2 * sum(1/s_j^2);
    bias_sq_term = || (X'X)^{-1} X' h ||^2, evaluated through a least-squares
    solve of h against X.
    """
    X_sub = _as_matrix(X_sub)
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    h = np.asarray(h_sub, dtype=np.float64).reshape(-1)
    if h.shape[0] != X_sub.shape[0]:
        raise ValueError("h_sub length must match the subsample size")
    u, s, vt = _svd_full_rank(X_sub, "mse_decompose")
    qh = vt.T @ ((u.T @ h) / s)
    return MseReport(
        variance_term=float(sigma2 * np.sum(1.0 / s**2)),
        bias_sq_term=float(qh @ qh),
    )


def worst_case_mse(X_sub, sigma2: float, alpha: float) -> WorstCase:
    """Worst-case MSE over all mean shifts h with ||h||^2 <= alpha^2 tr(X'X).

    bound = sigma2 * tr[(X'X)^{-1}] + alpha^2 * tr(X'X) / lambda_min(X'X).
    The maximizer is h_star = alpha * sqrt(tr(X'X)) * u_p, where u_p is the
    left singular direction for the smallest singular value (sign fixed so
    the first non-negligible entry is positive); plugging h_star into
    :func:`mse_decompose` recovers the bound exactly.
    """
    X_sub = _as_matrix(X_sub)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    u, s, _ = _svd_full_rank(X_sub, "worst_case_mse")
    trace = float(np.sum(s**2))
    bound = float(sigma2 * np.sum(1.0 / s**2) + alpha**2 * trace / s[-1] ** 2)
    direction = u[:, -1]
    nz = np.nonzero(np.abs(direction) > 1e-12 * np.abs(direction).max())[0]
    if nz.size and direction[nz[0]] < 0:
        direction = -direction
    h_star = alpha * np.sqrt(trace) * direction
    return WorstCase(bound=bound, h_star=h_star)


def _extreme_singulars(L, D) -> tuple[float, float, float]:
    L = _as_matrix(L)
    D = _as_matrix(D)
    if L.shape != D.shape:
        raise ValueError("L and D must have equal shape")
    sL = np.linalg.svd(L, compute_uv=False)
    s1D = float(np.linalg.svd(D, compute_uv=False)[0])
    spL = float(sL[-1])
    if spL <= s1D:
        raise AssumptionViolated(
            f"requires s_p(L) > s_1(D), got s_p(L)={spL:.6g}, s_1(D)={s1D:.6g}"
        )
    return float(sL[0]), spL, s1D


def weyl_kappa_bound(L, D) -> float:
    """Upper bound on kappa((L+D)'(L+D)) from the extreme singular values:
    ((s_1(L) + s_1(D)) / (s_p(L) - s_1(D)))**2. Requires s_p(L) > s_1(D)."""
    s1L, spL, s1D = _extreme_singulars(L, D)
    return ((s1L + s1D) / (spL - s1D)) ** 2


def trace_inv_bound(L, D) -> float:
    """Upper bound on tr[((L+D)'(L+D))^{-1}]: p / (s_p(L) - s_1(D))**2."""
    _, spL, s1D = _extreme_singulars(L, D)
    p = np.asarray(L).shape[1]
    return p / (spL - s1D) ** 2


def design_mse_bound(L, sigma2: float, alpha: float) -> float:
    """The two computable leading terms of the design-anchored MSE bound:

        sigma2 * p^2 * kappa(L'L) / tr(L'L) + alpha^2 * p * kappa(L'L).

    The perturbation remainder (of order s_1 of the design-to-sample gap) is
    not estimated here; callers needing exact finite-sample control should
    use :func:`weyl_kappa_bound` and :func:`trace_inv_bound` instead.
    """
    L = _as_matrix(L)
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    s = np.linalg.svd(L, compute_uv=False)
    _require_full_rank(s, L.shape[0], L.shape[1], "design_mse_bound")
    p = L.shape[1]
    kappa = float((s[0] / s[-1]) ** 2)
    trace = float(np.sum(s**2))
    return sigma2 * p**2 * kappa / trace + alpha**2 * p * kappa


def fit_huber_m(X, y) -> HuberFit:
    """Huber M-estimator by iteratively reweighted least squares.

    Case weights are min(1, 1.345 * scale / |residual|), the 95%-Gaussian-
    efficiency tuning, with the scale re-estimated each iteration as the
    normalized median absolute residual. Converged once the largest
    coefficient step is at most 1e-8 max(1, max|beta|); after 100 iterations
    the last iterate is returned with ``converged=False``.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    beta = least_squares(X, y)
    for it in range(1, _HUBER_MAX_ITER + 1):
        resid = y - X @ beta
        abs_resid = np.abs(resid)
        scale = float(np.median(abs_resid)) / _MAD_TO_SD
        if scale <= 1e-12 * max(1.0, float(abs_resid.max())):
            return HuberFit(beta=beta, converged=True, iterations=it)
        with np.errstate(divide="ignore"):
            w = np.minimum(1.0, _HUBER_TUNING * scale
                           / np.where(abs_resid > 0, abs_resid, np.inf))
        w = np.maximum(w, 1e-12)
        beta_new = least_squares(X, y, weights=w)
        step = float(np.abs(beta_new - beta).max())
        beta = beta_new
        if step <= _HUBER_TOL * max(1.0, float(np.abs(beta).max())):
            return HuberFit(beta=beta, converged=True, iterations=it)
    return HuberFit(beta=beta, converged=False, iterations=_HUBER_MAX_ITER)
