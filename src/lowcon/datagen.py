"""Synthetic data for the simulation study.

Predictors come from three families (correlated normal, a two-normal mixture,
and a heavy-tailed multivariate t), responses follow a linear signal plus a
mean-shift term h(x) drawn from a small catalog of misspecification shapes,
with the shape constants calibrated per dataset so max_i |h(x_i)| = 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSample, DimensionTooSmall

DISTRIBUTIONS = ("D1", "D2", "D3")
MISSPECIFICATIONS = ("H1", "H2", "H3", "H4", "H5")

# per-shape minimum dimension: 1-based coordinates used by the formulas
_MIN_DIM = {"H1": 1, "H2": 3, "H3": 8, "H4": 8, "H5": 3}
_CALIBRATION_TARGET = 10.0

# toy_example's |x|: Gamma(3, scale) core and tail scales, tail share, clip
_TOY_CORE_SCALE = 0.08
_TOY_TAIL_SCALE = 0.55
_TOY_TAIL_FRAC = 0.10
_TOY_CAP = 3.0


@dataclass(frozen=True)
class MisspecTerm:
    """A misspecification shape plus its calibrated multiplier."""

    kind: str
    constant: float


def covariance_matrix(p: int) -> np.ndarray:
    """Toeplitz covariance with entries 10 * 0.6**|i - j|."""
    if p < 1:
        raise ValueError("p must be at least 1")
    idx = np.arange(p)
    return 10.0 * 0.6 ** np.abs(idx[:, None] - idx[None, :])


def beta_layout(p: int) -> np.ndarray:
    """True coefficients: leading and trailing 20% (ceiling) are 1, rest 0.1."""
    if p < 1:
        raise ValueError("p must be at least 1")
    k = int(np.ceil(0.2 * p))
    beta = np.full(p, 0.1)
    beta[:k] = 1.0
    beta[p - k:] = 1.0
    return beta


def _student_t_rows(
    n: int, df: float, rng: np.random.Generator, chol: np.ndarray
) -> np.ndarray:
    """Centered multivariate t rows: normal with scale chol @ chol.T divided
    per row by sqrt(chi2_df / df). Covariance is scale * df / (df - 2)."""
    z = rng.standard_normal((n, chol.shape[0])) @ chol.T
    w = rng.chisquare(df, size=n) / df
    return z / np.sqrt(w)[:, None]


def gen_predictors(dist: str, n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, p) predictor matrix from D1, D2, or D3.

    D1: normal, mean 1, covariance Sigma.
    D2: even mixture of normal(0, 2 Sigma) and normal(1, Sigma), per row.
    D3: multivariate t with 10 degrees of freedom, location 1, scale Sigma.
    """
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    if n < 1 or p < 1:
        raise ValueError("n and p must be at least 1")
    chol = np.linalg.cholesky(covariance_matrix(p))
    if dist == "D1":
        return 1.0 + rng.standard_normal((n, p)) @ chol.T
    if dist == "D2":
        z = rng.standard_normal((n, p)) @ chol.T
        other = 1.0 + rng.standard_normal((n, p)) @ chol.T
        coin = rng.random(n) < 0.5
        return np.where(coin[:, None], np.sqrt(2.0) * z, other)
    return 1.0 + _student_t_rows(n, 10.0, rng, chol)


def _check_dim(kind: str, p: int) -> None:
    if kind not in MISSPECIFICATIONS:
        raise ValueError(f"unknown misspecification {kind!r}")
    if p < _MIN_DIM[kind]:
        raise DimensionTooSmall(
            f"misspec {kind} references coordinate {_MIN_DIM[kind]}, "
            f"so p must be at least {_MIN_DIM[kind]}, got p={p}"
        )


def misspec_values(kind: str, X: np.ndarray, constant: float) -> np.ndarray:
    """Vectorized h(x_i) for every row of X (coordinates are 1-based)."""
    X = np.asarray(X, dtype=np.float64)
    _check_dim(kind, X.shape[1])
    if kind == "H1":
        return np.zeros(X.shape[0])
    x3 = X[:, 2]
    if kind == "H2":
        return constant * np.sin(x3)
    if kind == "H3":
        return constant * x3 * X[:, 7]
    if kind == "H4":
        return constant * x3 * np.sin(X[:, 7])
    return constant * x3**2


def calibrate_constant(kind: str, X: np.ndarray) -> float:
    """Multiplier making max_i |h(x_i)| equal 10 on this sample (H3-H5)."""
    if kind not in ("H3", "H4", "H5"):
        raise ValueError(f"{kind} has no free constant to calibrate")
    gmax = float(np.abs(misspec_values(kind, X, 1.0)).max())
    if gmax == 0.0:
        raise DegenerateSample(f"{kind} is identically zero on this sample")
    return _CALIBRATION_TARGET / gmax


def make_misspec(kind: str, X: np.ndarray) -> MisspecTerm:
    """Build the shape term for a dataset: H1 is zero, H2 has the fixed
    multiplier 10, H3-H5 get a per-sample calibrated constant."""
    _check_dim(kind, np.asarray(X).shape[1])
    if kind == "H1":
        return MisspecTerm(kind="H1", constant=0.0)
    if kind == "H2":
        return MisspecTerm(kind="H2", constant=_CALIBRATION_TARGET)
    return MisspecTerm(kind=kind, constant=calibrate_constant(kind, X))


def gen_response(
    X: np.ndarray,
    beta0: np.ndarray,
    misspec: MisspecTerm,
    sigma2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """y_i = x_i @ beta0 + h(x_i) + sigma * z_i with standard normal z."""
    X = np.asarray(X, dtype=np.float64)
    beta0 = np.asarray(beta0, dtype=np.float64).reshape(-1)
    if beta0.shape[0] != X.shape[1]:
        raise ValueError("beta0 length must match the number of columns")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    h = misspec_values(misspec.kind, X, misspec.constant)
    return X @ beta0 + h + np.sqrt(sigma2) * rng.standard_normal(X.shape[0])


def toy_example(
    n: int, rng: np.random.Generator, noise_sd: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-predictor dataset y = x + sin(x^2)/2 + noise_sd * z.

    x is symmetric around zero with a dense core and a sparse informative
    tail: |x| is a two-component Gamma(3, scale) mixture (fraction
    ``_TOY_TAIL_FRAC`` from the wide component), clipped at ``_TOY_CAP`` and
    given a random sign. The vanishing density at the origin keeps reciprocal
    leverage weights bounded, and the rare wide-component points are exactly
    the high-information rows a uniform subsample tends to miss.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    wide = rng.random(n) < _TOY_TAIL_FRAC
    magnitude = np.where(
        wide,
        rng.gamma(3.0, _TOY_TAIL_SCALE, size=n),
        rng.gamma(3.0, _TOY_CORE_SCALE, size=n),
    )
    magnitude = np.minimum(magnitude, _TOY_CAP)
    x = rng.choice(np.array([-1.0, 1.0]), size=n) * magnitude
    y = x + np.sin(x**2) / 2.0 + noise_sd * rng.standard_normal(n)
    return x, y
