"""Exception types shared across the package."""


class LowconError(Exception):
    """Base class for all package errors."""


class RankDeficient(LowconError):
    """Matrix is numerically rank deficient (smallest singular value below tolerance)."""


class InfeasibleDesign(LowconError):
    """Requested design cannot have a nonsingular information matrix, or its
    OLHD descent's squared row distances would take more than 2 GiB
    (r > 23138)."""


class ConstantColumn(LowconError):
    """Column has zero range and cannot be scaled to [-1, 1]."""


class DegenerateBox(LowconError):
    """Design-space box has a zero-width side."""


class DegenerateSample(LowconError):
    """Calibration target is identically zero on the sample."""


class AssumptionViolated(LowconError):
    """Perturbation-bound assumption s_p(L) > s_1(D) does not hold."""


class ConfigError(LowconError):
    """Experiment configuration is malformed or inconsistent."""


class DimensionTooSmall(ConfigError):
    """Misspecification term references a coordinate beyond the data dimension."""


class DataError(LowconError):
    """Dataset ingestion failed."""


class ColumnMissing(DataError):
    """Named CSV column not present in the header."""


class EmptyAfterFiltering(DataError):
    """No usable rows remain after dropping incomplete ones."""
