"""Synthetic stand-in for the topographic EMSE dataset.

The real sand-content data cannot ship with the repository, so the
acceptance suite runs the EMSE protocol against a fixed synthetic dataset of
the same shape (n = 1157 rows, five correlated terrain-style predictors).
The response is linear through the bulk of each predictor's range and folds
back beyond a knee near the edge of the populated region, the kind of
saturation that makes extreme rows actively misleading for a linear fit.
"""

import numpy as np

from lowcon import Dataset

SOIL_LIKE_SEED = 303


def soil_like_dataset(
    seed: int = SOIL_LIKE_SEED,
    n: int = 1157,
    knee: float = 2.3,
    fold: float = 1.0,
    noise_scale: float = 2.5,
) -> Dataset:
    rng = np.random.default_rng(seed)

    def t_noise(df, size):
        return rng.standard_normal(size) / np.sqrt(rng.chisquare(df, size) / df)

    f = rng.standard_normal((n, 3))
    cti = 6.0 + 1.4 * f[:, 0] + 0.5 * f[:, 1] + 0.6 * rng.standard_normal(n)
    elev = 1200.0 + 380.0 * f[:, 1] + 90.0 * f[:, 0] + 60.0 * rng.standard_normal(n)
    reli = 150.0 + 50.0 * f[:, 2] + 20.0 * f[:, 1] + 18.0 * rng.standard_normal(n)
    tmap = 900.0 + 220.0 * f[:, 0] - 120.0 * f[:, 2] + 45.0 * rng.standard_normal(n)
    tmfi = 80.0 + 22.0 * f[:, 0] + 10.0 * f[:, 2] + 9.0 * rng.standard_normal(n)
    X = np.column_stack([cti, elev, reli, tmap, tmfi])

    spread = np.quantile(X, 0.84, axis=0) - np.quantile(X, 0.16, axis=0)
    z = 2.0 * (X - np.median(X, axis=0)) / spread

    def bent(v):
        a = np.abs(v)
        return np.sign(v) * np.where(a <= knee, a, knee - fold * (a - knee))

    y = (
        40.0
        + 9.0 * bent(z[:, 0])
        - 7.0 * bent(z[:, 1])
        + 3.0 * z[:, 2]
        - 2.0 * bent(z[:, 3])
        + 4.0 * bent(z[:, 4])
        + noise_scale * t_noise(6, n)
    )
    return Dataset(name="soil_like", X_raw=X, y=y)
