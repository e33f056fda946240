"""Config-driven experiment harness.

Runs the misspecified-model simulation grid, the one-predictor toy study,
the real-data empirical-MSE protocol, and a diagnostics pass that surfaces
the theory bound checkers of ``estimators``. Responses live behind
:class:`HiddenResponses`, which counts every revealed entry: estimators see
exactly the r selected responses per replicate, mirroring the
measurement-constrained setting.

The grid, the toy study and the empirical-MSE protocol share one cell
runner, ``_run_cells``, which selects, reveals, fits and scores; it and
``diagnose`` select through the samplers' method table, ``_SAMPLERS``, whose
order is ``METHODS`` and keys each method's sampler seed. A
rank-deficient fit is redrawn with a derived retry seed, at most five times;
any other package error recurs on the same data, so it is not retried. A
cell that still fails gets NaN mse and is listed in ``failed_cells``.

The samplers see each X as one prepared sample, which keeps what they derive
from X alone (the scaled sample and its float32 screen, theta box, leverage,
leverage draw table per share alpha, IBOSS picks; ``_Prepared`` gives their
bytes). Simulate and toy build one per (r, replicate, attempt) for all
methods, since every draw is new data. Emse reads the one a :class:`Dataset`
keeps, with its surrogate fits, from the first run on that dataset to its
last. The first method in ``config.methods`` that needs a kept field builds
it in its own timed call, so per-method ``mean_runtime_ms`` depends on that
order and, in emse, on whether an earlier run on the dataset built it
already.

Reproducibility contract: every random stream is derived from the master
seed plus a structural key (cell, replicate, attempt, purpose), so results
are byte-identical across runs and invariant to replicate execution order.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import datagen
from .datagen import DISTRIBUTIONS, MISSPECIFICATIONS, beta_layout
from .estimators import (
    _extreme_singulars,
    _huber_irls,
    _perturbation_bounds,
    fit_sls,
    worst_case_mse,
)
from .exceptions import (
    AssumptionViolated,
    ColumnMissing,
    ConfigError,
    DataError,
    EmptyAfterFiltering,
    LowconError,
    RankDeficient,
)
from .linalg import _as_vector, _require_int, least_squares, singular_values
from .samplers import _SAMPLERS, _Prepared, _frozen

METHODS = tuple(_SAMPLERS)
MODES = ("simulate", "realdata", "toy")
TOY_METHODS = ("UNIF", "BLEV", "LOWCON")

# default noise variance for the toy study; the simulation grid default is 1.0
TOY_SIGMA2 = 0.36

_MAX_ATTEMPTS = 6  # first try plus five retries with derived seeds

# purpose tags for seed derivation
_P_DATA = 0
_P_SAMPLER = 1

_DIST_CODE = {d: i + 1 for i, d in enumerate(DISTRIBUTIONS)}
_DIST_CODE["TOY"] = 90
_DIST_CODE["REAL"] = 91
_MIS_CODE = {m: i + 1 for i, m in enumerate(MISSPECIFICATIONS)}
_MIS_CODE["-"] = 0
_METHOD_CODE = {m: i + 1 for i, m in enumerate(METHODS)}


def _default_r_list(p: int) -> tuple[int, ...]:
    """The r grid used when a config sets none: 2pk for k = 1..5."""
    return tuple(2 * p * k for k in range(1, 6))


def _check_r_list(r_list, n: int, p: int, methods) -> None:
    """The r bounds of every mode, against the n and p of the data the
    samplers will see."""
    for r in r_list:
        for need, holds in (("r > p", r > p), ("r <= n", r <= n),
                            ("r >= 2p for IBOSS", r >= 2 * p or "IBOSS" not in methods),
                            ("r < n for LOWCON", r < n or "LOWCON" not in methods)):
            if not holds:
                raise ConfigError(f"r_list needs {need}, got r={r} with n={n}, p={p}")


# the type of every ExperimentConfig field, since a JSON config may give any
_FIELD_TYPES = (
    (("mode", "dist", "misspec"), str, "a string"),
    (("n", "p", "replicates", "seed"), Integral, "an integer"),
    (("theta", "sigma2"), Real, "a real number"),
    (("r_list",), (list, tuple, type(None)), "a list or null"),
    (("methods",), (list, tuple), "a list"),
    (("output_path",), (str, type(None)), "a string or null"),
)


def _check_type(name: str, value, kind, what: str) -> None:
    """Reject a config value that is not of ``kind``; a bool is never one."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell family of the study: distribution, shape, sizes, and knobs."""

    mode: str = "simulate"
    dist: str = "D1"
    misspec: str = "H1"
    n: int = 10_000
    p: int = 10
    r_list: tuple[int, ...] | None = None  # None: 2pk, k = 1..5 (realdata: dataset p)
    theta: float = 1.0
    sigma2: float = 1.0
    replicates: int = 100
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    output_path: str | None = None

    def __post_init__(self):
        for names, kind, what in _FIELD_TYPES:
            for name in names:
                _check_type(name, getattr(self, name), kind, what)
        for r in self.r_list or ():
            _check_type("each r in r_list", r, Integral, "an integer")
        for name in ("n", "p", "replicates"):  # a seed of any size seeds numpy
            try:
                _require_int(getattr(self, name), name)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        for name in ("theta", "sigma2"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except OverflowError:
                raise ConfigError(
                    f"{name} must be a real number that a float holds, "
                    f"got {getattr(self, name)!r}") from None
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.dist not in _DIST_CODE:
            raise ConfigError(f"dist must be one of {DISTRIBUTIONS}, got {self.dist!r}")
        if self.misspec not in _MIS_CODE:
            raise ConfigError(
                f"misspec must be one of {MISSPECIFICATIONS}, got {self.misspec!r}"
            )
        if self.mode == "simulate" and (
            self.dist not in DISTRIBUTIONS or self.misspec not in MISSPECIFICATIONS
        ):
            raise ConfigError(
                f"simulate mode needs dist in {DISTRIBUTIONS} and "
                f"misspec in {MISSPECIFICATIONS}"
            )
        if self.mode == "toy" and (self.dist, self.misspec, self.p) != ("TOY", "-", 1):
            raise ConfigError(
                "toy mode draws one predictor, so it needs dist 'TOY', misspec '-' "
                f"and p 1, got dist {self.dist!r}, misspec {self.misspec!r}, p {self.p}"
            )
        if self.n < 2 or self.p < 1:
            raise ConfigError("need n >= 2 and p >= 1")
        if self.mode != "realdata" and self.n * self.p * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"n={self.n} and p={self.p} ask for an n x p float64 sample "
                              f"of {self.n * self.p * 8} bytes, past numpy's array size limit")
        if self.mode == "simulate":
            datagen._check_dim(self.misspec, self.p)
        # in realdata mode the dataset, not the config, fixes n and p:
        # run_emse fills the default r grid from the dataset's p and checks
        # every r against its n and p
        realdata = self.mode == "realdata"
        if self.r_list is None and not realdata:
            object.__setattr__(self, "r_list", _default_r_list(self.p))
        rl = None if self.r_list is None else tuple(self.r_list)
        object.__setattr__(self, "r_list", rl)
        if rl is not None and not rl:
            raise ConfigError("r_list must be nonempty")
        if not 0.0 <= self.theta < 50.0:
            raise ConfigError("theta must lie in [0, 50)")
        if not 0 <= self.sigma2 < np.inf:
            raise ConfigError(
                f"sigma2 must be finite and nonnegative, got {self.sigma2!r}"
            )
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        methods = tuple(str(m).upper() for m in self.methods)
        object.__setattr__(self, "methods", methods)
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; choose from {METHODS}")
        if not methods:
            raise ConfigError("methods must be nonempty")
        for name, values in (("r_list", rl or ()), ("methods", methods)):
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ConfigError(f"{name} repeats {repeats[0]!r}")
        if not realdata:
            _check_r_list(rl, self.n, self.p, methods)


@dataclass(frozen=True)
class ResultRow:
    method: str
    dist: str
    misspec: str
    n: int
    p: int
    r: int
    theta: float
    replicate_count: int
    mse: float
    log_mse: float
    median_kappa: float
    # wall-clock, so excluded from equality and from the CSV output
    mean_runtime_ms: float = field(compare=False, default=np.nan)


def _with_intercept(M: np.ndarray) -> np.ndarray:
    """M with a leading column of ones: the EMSE fit design of its rows."""
    return np.column_stack([np.ones(M.shape[0]), M])


@dataclass(frozen=True, eq=False)
class Dataset:
    """A real dataset: a read-only snapshot of its inputs, which keeps what
    :func:`run_emse` derives from them.

    ``X_raw`` (n x p) and ``y`` (n entries, or None) are stored as the
    dataset's own C-contiguous float64 copies, marked read-only, so what is
    kept cannot go stale: neither the dataset nor a later run sees a write to
    the arrays it was built from. Both go through the package's one array
    intake (``linalg._as_matrix`` and ``_as_vector``): ``X_raw`` must be a
    finite real 2-d matrix with at least one row and one column, and ``y``,
    when given, a finite real 1-d vector with one entry per row. Each failure
    raises ``ValueError`` naming the cause, prefixed ``X_raw:`` for X; a
    complex dtype is refused, never cast.

    The first ``run_emse`` on a dataset builds, and every later one reuses:

    * the EMSE_OLS and EMSE_M surrogates, p + 1 coefficients each, from one
      OLS solve of the intercept design, which is dropped once both are fit;
    * the samplers' prepared sample (``_Prepared``, which gives its bytes):
      LOWCON's scaled sample, float32 screen and box per theta, the
      leverages, the leverage draw table per alpha and the IBOSS selection
      per r, or the package error a build raised.

    They live as long as the dataset. Datasets compare and hash by identity:
    two datasets holding equal arrays are still two datasets, each with its
    own kept state.
    """

    name: str
    X_raw: np.ndarray
    y: np.ndarray | None
    dropped_rows: int = 0

    def __post_init__(self):
        try:
            sample = _frozen(self.X_raw)
        except ValueError as exc:
            raise ValueError(f"X_raw: {exc}") from None
        object.__setattr__(self, "X_raw", sample.X)
        object.__setattr__(self, "_sample", sample)
        if self.y is not None:
            y = _as_vector(self.y, "y", sample.X.shape[0]).copy()
            y.flags.writeable = False
            object.__setattr__(self, "y", y)

    @cached_property
    def _surrogate_fits(self) -> dict:
        """The full-sample fits, with intercept, that EMSE scores against:
        OLS and Huber-M from one OLS solve, built on first use and kept."""
        Z = _with_intercept(self.X_raw)
        ols = least_squares(Z, self.y)
        return {"EMSE_OLS": ols, "EMSE_M": _huber_irls(Z, self.y, ols).beta}


class HiddenResponses:
    """Response vector revealed only at explicitly requested indices.

    ``values`` must be a finite real 1-d vector (``linalg._as_vector``);
    a float64 one is held, not copied. ``reads`` counts every revealed entry
    (duplicates included), so a measurement-constrained run can assert it
    spent exactly r observations per replicate per method. ``reveal`` takes
    row numbers of any integer dtype, or an empty sequence; a bool mask or
    float indices raise ``ValueError`` naming the dtype, and reveal nothing.
    """

    def __init__(self, values):
        self._values = _as_vector(values, "values")
        self.reads = 0

    def __len__(self) -> int:
        return self._values.shape[0]

    def reveal(self, indices) -> np.ndarray:
        idx = np.asarray(indices).reshape(-1)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"reveal indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexError("reveal index out of range")
        self.reads += int(idx.size)
        return self._values[idx].copy()


@dataclass
class SimulationResult:
    """Result rows; ``response_reads`` maps each (label, method, r) to the
    responses every replicate revealed over all its attempts."""

    rows: list[ResultRow]
    response_reads: dict = field(default_factory=dict)
    failed_cells: list = field(default_factory=list)
    # "Class: message" of the last failed cell, kept out of ==: it may follow replicate order
    _last_error: str | None = field(default=None, compare=False, repr=False)

    def row(self, method: str, r: int, misspec: str | None = None) -> ResultRow:
        for row in self.rows:
            if row.method == method and row.r == r and (
                misspec is None or row.misspec == misspec
            ):
                return row
        raise KeyError((method, r, misspec))


def _derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, structural key)."""
    spawn_key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _cell_key(config: ExperimentConfig) -> tuple[int, int]:
    """The (distribution, misspecification) part of a synthetic seed key."""
    return _DIST_CODE[config.dist], _MIS_CODE[config.misspec]


def _sampler_rng(seed, key, r, replicate, attempt, method) -> np.random.Generator:
    """The sampler stream of one (cell, r, replicate, attempt, method)."""
    return _derived_rng(seed, _P_SAMPLER, *key, r, replicate, attempt, _METHOD_CODE[method])


def _simulate_data(config: ExperimentConfig, r: int, replicate: int, attempt: int):
    """Fresh predictors, calibrated shape term, and hidden responses."""
    rng = _derived_rng(config.seed, _P_DATA, *_cell_key(config), r, replicate, attempt)
    if config.mode == "toy":
        x, y = datagen.toy_example(config.n, rng, noise_sd=float(np.sqrt(config.sigma2)))
        return x[:, None], np.array([1.0]), y
    X = datagen.gen_predictors(config.dist, config.n, config.p, rng)
    term = datagen.make_misspec(config.misspec, X)
    beta0 = beta_layout(config.p)
    y = datagen.gen_response(X, beta0, term, config.sigma2, rng)
    return X, beta0, y


def _run_cells(config: ExperimentConfig, label: tuple, key: tuple, draw,
               row_fields: dict, order) -> SimulationResult:
    """Select, reveal, fit and score every (method, r) cell.

    ``draw(r, i, attempt)`` returns ``(sample, hidden, targets, fit_design)``:
    the prepared predictors the samplers see, the ``HiddenResponses`` they
    reveal from (one per draw, or one shared by every draw; each method's
    reads are the change in ``hidden.reads`` over its attempt), the
    coefficient vectors each fit is scored against by name (one row per
    name, the same names on every draw), and the map from selected rows of X
    to the fitted design. Attempt 0 of a replicate is shared by every method.
    ``label`` prefixes the ``response_reads``/``failed_cells`` keys, ``key``
    is the cell's part of the sampler seed key and ``row_fields`` fills dist,
    n, p.
    """
    rows: list[ResultRow] = []
    reads: dict = {}
    failed: list = []
    last_error = None
    for r in config.r_list:
        # per method and replicate: (squared errors, kappa, ms), or None
        done = {m: [None] * config.replicates for m in config.methods}
        # per method and replicate: responses revealed over every attempt
        spent = {m: [0] * config.replicates for m in config.methods}
        error = {m: None for m in config.methods}  # the last error
        for i in order:
            base = draw(r, i, 0)
            for m in config.methods:
                for attempt in range(_MAX_ATTEMPTS):
                    sample, hidden, targets, fit_design = draw(r, i, attempt) if attempt else base
                    before = hidden.reads
                    rng = _sampler_rng(config.seed, key, r, i, attempt, m)
                    t0 = time.perf_counter()
                    try:
                        sel = _SAMPLERS[m](sample, r, rng, config.theta)
                        y_sub = hidden.reveal(sel.indices)
                        fit = fit_sls(fit_design(sample.X[sel.indices]), y_sub,
                                      weights=sel.weights)
                    except LowconError as exc:
                        error[m] = exc
                        if isinstance(exc, RankDeficient):
                            continue  # a fresh draw may fit; other errors recur
                        break
                    finally:
                        spent[m][i] += hidden.reads - before
                    ms = (time.perf_counter() - t0) * 1e3
                    sq = {t: float(np.sum((fit.beta - b) ** 2)) for t, b in targets.items()}
                    done[m][i] = (sq, sel.diagnostics.kappa_sub, ms)
                    break
        for m in config.methods:
            ok = [rec for rec in done[m] if rec is not None]
            cell_failed = len(ok) < config.replicates
            if cell_failed:
                failed.append((*label, m, r, type(error[m]).__name__))
                last_error = f"{failed[-1][-1]}: {error[m]}"
            kappa = float(np.median([rec[1] for rec in ok])) if ok else np.nan
            runtime = float(np.mean([rec[2] for rec in ok])) if ok else np.nan
            for t in base[2]:
                mse = np.nan if cell_failed else float(np.mean([rec[0][t] for rec in ok]))
                with np.errstate(divide="ignore"):
                    log_mse = float(np.log(mse)) if np.isfinite(mse) else np.nan
                rows.append(ResultRow(
                    method=m, misspec=t, r=r, theta=config.theta, replicate_count=len(ok),
                    mse=mse, log_mse=log_mse, median_kappa=kappa, mean_runtime_ms=runtime,
                    **row_fields,
                ))
            reads[(*label, m, r)] = spent[m]
    rows.sort(key=lambda row: (row.method, row.dist, row.misspec, row.r))
    return SimulationResult(rows, reads, failed, last_error)


def run_simulation(config: ExperimentConfig, _replicate_order=None) -> SimulationResult:
    """Run every (method, r) cell of the configured grid.

    Per replicate, predictors are regenerated (with fresh shape calibration),
    each method selects r rows, only their responses are revealed, and the
    squared coefficient error against the true coefficients accumulates.
    """
    if config.mode not in ("simulate", "toy"):
        raise ConfigError(f"run_simulation expects simulate/toy mode, got {config.mode}")
    order = list(range(config.replicates) if _replicate_order is None else _replicate_order)
    if sorted(order) != list(range(config.replicates)):
        raise ValueError("_replicate_order must be a permutation of the replicates")

    def draw(r, i, attempt):
        X, beta0, y = _simulate_data(config, r, i, attempt)
        return _Prepared(X), HiddenResponses(y), {config.misspec: beta0}, lambda M: M

    row_fields = dict(dist=config.dist, n=config.n, p=config.p)
    return _run_cells(config, (config.dist, config.misspec), _cell_key(config),
                      draw, row_fields, order)


def toy_config(r_list=(10, 30, 50), replicates: int = 100,
               seed: int = 0) -> ExperimentConfig:
    """Configuration for the one-predictor toy study: n = 2000, noise
    variance ``TOY_SIGMA2``, theta = 1 and the ``TOY_METHODS``."""
    return ExperimentConfig(
        mode="toy",
        dist="TOY",
        misspec="-",
        n=2000,
        p=1,
        r_list=tuple(r_list),
        sigma2=TOY_SIGMA2,
        replicates=replicates,
        seed=seed,
        methods=TOY_METHODS,
    )


def run_emse(dataset: Dataset, config: ExperimentConfig) -> SimulationResult:
    """Empirical-MSE protocol against full-sample OLS and Huber-M surrogates.

    The surrogates are fit once on the full data; per replicate and method,
    a subsample is drawn from the predictors alone, its responses revealed,
    and the squared distance of the subsample fit to each surrogate
    accumulates. The intercept column is appended after subsampling, so the
    selection itself sees only the informative predictors.

    The surrogates and the prepared sample are the ones ``dataset`` keeps
    for as long as it lives (see :class:`Dataset`; ``_Prepared`` gives the
    sample's bytes): the first run on it builds them, charging each sampler
    build to the first method in ``config.methods`` that needs it, and later
    runs reuse them, so they return the rows a fresh dataset would give, in
    less time.

    Without ``r_list`` the grid is 2pk (k = 1..5) for the dataset's p. Every
    r must exceed the dataset's p and be at most its n; with IBOSS it must
    be at least 2p, and with LOWCON below n.

    Rows are tagged with ``misspec`` in {"EMSE_OLS", "EMSE_M"} and ``dist``
    set to the dataset name. Only realdata configs are taken.
    """
    if config.mode != "realdata":
        raise ConfigError(f"run_emse expects realdata mode, got {config.mode}")
    if dataset.y is None:
        raise ConfigError("EMSE needs a dataset with a response column")
    n, p = dataset.X_raw.shape
    if config.r_list is None:
        config = dataclasses.replace(config, r_list=_default_r_list(p))
    _check_r_list(config.r_list, n, p, config.methods)
    data = (dataset._sample, HiddenResponses(dataset.y), dataset._surrogate_fits,
            _with_intercept)
    return _run_cells(config, (dataset.name,), (_DIST_CODE["REAL"], 0),
                      lambda r, i, attempt: data, dict(dist=dataset.name, n=n, p=p),
                      range(config.replicates))


@dataclass(frozen=True)
class DiagnoseEntry:
    method: str
    r: int
    kappa_sub: float
    worst_case_bound: float
    s1_perturbation: float | None = None
    sp_design: float | None = None
    assumption_holds: bool | None = None
    kappa_bound_slack: float | None = None
    trace_bound_slack: float | None = None


def diagnose(config: ExperimentConfig, alpha: float) -> list[DiagnoseEntry]:
    """One seeded pass surfacing the theory checkers for each method.

    Draws replicate 0 at the first ``r`` of ``config.r_list`` and reports the
    condition number of each method's selection, drawn as in the grid, and
    its worst-case MSE bound at the config's ``sigma2`` and the supplied
    ``alpha``; a selection below full rank has an infinite bound. For a
    selection that keeps its design (LOWCON) it also reports the extreme
    singular values of the design and of the design-to-sample gap, whether
    the perturbation assumption holds, and the slack of the condition-number
    and trace-inverse bounds (bound minus the directly computed value, in the
    scaled space where the design lives), all by the rules of ``estimators``.
    The draw is synthetic, so only simulate configs are taken. ``alpha`` must
    be finite and positive.
    """
    if config.mode != "simulate":
        raise ConfigError(f"diagnose expects simulate mode, got {config.mode}")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ConfigError(f"diagnose needs a finite alpha > 0, got {alpha}")
    r = config.r_list[0]
    X, _, _ = _simulate_data(config, r, replicate=0, attempt=0)
    sample = _Prepared(X)
    entries: list[DiagnoseEntry] = []
    for m in config.methods:
        rng = _sampler_rng(config.seed, _cell_key(config), r, 0, 0, m)
        sel = _SAMPLERS[m](sample, r, rng, config.theta)
        fields = {}
        if sel.design is not None:
            L, D = sel.design.points, sel.perturbation
            s1L, spL, s1D = _extreme_singulars(L, D)
            fields = dict(s1_perturbation=s1D, sp_design=spL, assumption_holds=False)
            try:
                kappa_bound, trace_bound = _perturbation_bounds(s1L, spL, s1D, L.shape[1])
            except AssumptionViolated:
                pass
            else:
                s = singular_values(L + D)
                fields.update(assumption_holds=True,
                              kappa_bound_slack=kappa_bound - float((s[0] / s[-1]) ** 2),
                              trace_bound_slack=trace_bound - float(np.sum(1.0 / s**2)))
        try:
            bound = worst_case_mse(X[sel.indices], config.sigma2, alpha).bound
        except RankDeficient:
            bound = np.inf
        entries.append(DiagnoseEntry(method=m, r=r, kappa_sub=sel.diagnostics.kappa_sub,
                                     worst_case_bound=bound, **fields))
    return entries


# ---------------------------------------------------------------------------
# file formats


def _read_rows(fh, at: list[int]) -> tuple[np.ndarray, int]:
    """The columns ``at`` of the rows after the header, and how many short or
    non-numeric rows were dropped. ``np.loadtxt`` raises on any such row;
    only then is the file parsed again record by record."""
    try:
        with warnings.catch_warnings():  # a file with no rows is the caller's error
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                              usecols=at, ndmin=2), 0
    except ValueError:
        pass
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)  # the header
    rows: list[list[float]] = []
    dropped = 0
    for record in filter(None, reader):  # a blank line is no row
        try:
            rows.append([float(record[j]) for j in at])
        except (IndexError, ValueError):  # a short row or a non-number
            dropped += 1
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(at)), dropped


def ingest_csv(path, response_column: str, predictor_columns) -> Dataset:
    """Read a numeric dataset from CSV, dropping incomplete rows.

    The header names the columns, with the ``csv`` module's quoting rules;
    a name repeated in the header means its last column. Column order
    follows ``predictor_columns``, a sequence of names: a single string, or
    a name that the response and the predictors repeat, raises
    ``ConfigError``. The data rows follow these rules:

    * a row that is short of a selected column, or has a selected value
      that is not a number, is dropped and counted;
    * a row with a non-finite selected value (``nan``, ``inf``, or a value
      past the float range such as ``1e400``) is dropped and counted;
    * a long row keeps its selected columns;
    * a blank line is not a row.

    The count is ``Dataset.dropped_rows``. A file with no short or
    non-numeric row is parsed in one vectorised pass (``np.loadtxt``); a
    file with one is parsed again record by record, to drop and count it.
    A file that cannot be opened raises its ``OSError``; one that cannot be
    decoded, or that the ``csv`` module cannot parse, raises ``DataError``;
    one with no complete row raises ``EmptyAfterFiltering``. The ``csv``
    module reads the header and the record-by-record pass, so a field there
    past its field limit (131072 characters) raises ``DataError``; in a
    clean file such a numeric field goes through ``np.loadtxt`` instead,
    and a value past the float range is then dropped as non-finite.
    """
    path = Path(path)
    if isinstance(predictor_columns, str):
        raise ConfigError(f"predictor_columns must be a sequence of names, "
                          f"got the string {predictor_columns!r}")
    wanted = [response_column] + list(predictor_columns)
    repeats = [c for i, c in enumerate(wanted) if c in wanted[:i]]
    if repeats:
        raise ConfigError(f"response and predictors repeat column {repeats[0]!r}")
    with path.open(newline="") as fh:
        try:
            header = next(csv.reader(fh), [])
            missing = [c for c in wanted if c not in header]
            if missing:
                raise ColumnMissing(f"columns {missing} not found in {path.name}")
            position = {name: j for j, name in enumerate(header)}  # last one wins
            at = [position[c] for c in wanted]
            data, dropped = _read_rows(fh, at)
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot decode {path.name}: {exc}") from exc
        except csv.Error as exc:
            raise DataError(f"cannot parse {path.name}: {exc}") from exc
    read = data.shape[0]
    data = data[np.isfinite(data).all(axis=1)]
    dropped += read - data.shape[0]
    if not data.shape[0]:
        raise EmptyAfterFiltering(f"no complete rows in {path.name}")
    # column views: the Dataset makes its own contiguous copies
    return Dataset(name=path.stem, X_raw=data[:, 1:], y=data[:, 0], dropped_rows=dropped)


_CSV_FIELDS = [f.name for f in dataclasses.fields(ResultRow)
               if f.name != "mean_runtime_ms"]


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_result_csv(rows, path) -> None:
    """Write rows as RFC-4180 CSV with a fixed header.

    Wall-clock runtime is kept off the file so that identical configs and
    seeds produce byte-identical output.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(_CSV_FIELDS)
        for row in rows:
            writer.writerow(
                [_format_cell(getattr(row, name)) for name in _CSV_FIELDS]
            )


def load_config(path) -> ExperimentConfig:
    """Load an ExperimentConfig from a flat JSON object; unknown keys fail."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path.name}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return ExperimentConfig(**raw)
