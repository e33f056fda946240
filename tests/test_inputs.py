"""The library's input contract: what each class of input gets from every
sampler and every array-taking entry point.

The expected outcomes are written from the docstrings (``linalg``'s array
intake, ``scale_to_cube``, ``theta_box``, the samplers' size rules and the
rank rule), not from a run. Each call runs with every warning recorded, so a
cast that drops data with a warning fails here even where the suite's
warning filter would not turn that warning into an error.
"""

import warnings

import numpy as np
import pytest

from lowcon import (
    Box,
    ConstantColumn,
    Dataset,
    HiddenResponses,
    MisspecTerm,
    RankDeficient,
    calibrate_constant,
    condition_number,
    fit_huber_m,
    fit_sls,
    gen_response,
    least_squares,
    leverage_scores,
    make_misspec,
    misspec_values,
    mse_decompose,
    scale_to_cube,
    singular_values,
    theta_box,
)
from lowcon.samplers import _SAMPLERS, _Prepared

THETA = 1.0
N, P, R = 60, 3, 12  # r > p, r >= 2p and r < n: every sampler's size rule holds


def _normal(n=N, p=P, seed=0):
    return np.random.default_rng(seed).standard_normal((n, p))


def _with_column(values, j=1):
    X = _normal()
    X[:, j] = values
    return X


# input class -> (X, r); r meets every sampler's size rule
INPUTS = {
    "zero-one-column": (_with_column(np.arange(N) % 2), R),
    "p1": (_normal(p=1), R),
    "r-is-n-minus-1": (_normal(), N - 1),
    "heavy-ties": (np.random.default_rng(1).integers(0, 3, (N, P)).astype(float), R),
    "int": (np.random.default_rng(2).integers(-50, 50, (N, P)), R),
    "bool": (np.random.default_rng(3).random((N, P)) < 0.5, R),
    "list": (_normal(seed=4).tolist(), R),
    "n-is-r-plus-1-at-p20": (_normal(n=41, p=20, seed=5), 40),
    "nan": (_with_column(np.where(np.arange(N) == 7, np.nan, 0.5)), R),
    "inf": (_with_column(np.where(np.arange(N) == 7, -np.inf, 0.5)), R),
    "one-d": (_normal()[:, 0], R),
    "constant-column": (_with_column(2.5), R),
    "object-strings": (np.array([["a"] * P] * N, dtype=object), R),
    "column-scaled-1e307": (_with_column(np.random.default_rng(6).random(N) * 1e307), R),
    "complex": (_normal() + 1j, R),
}

LEVERAGE = ("BLEV", "SLEV", "LEVUNW")
SELECTS = None
# input class -> outcome for every method, or {method: outcome}; an outcome
# is SELECTS or (exact error class, text its message contains)
EXPECTED = {
    "zero-one-column": SELECTS,
    "p1": SELECTS,
    "r-is-n-minus-1": SELECTS,
    "heavy-ties": SELECTS,
    "int": SELECTS,
    "bool": SELECTS,
    "list": SELECTS,
    "n-is-r-plus-1-at-p20": SELECTS,
    "nan": (ValueError, "matrix entries must be finite"),
    "inf": (ValueError, "matrix entries must be finite"),
    "one-d": (ValueError, f"expected a 2-d matrix, got shape ({N},)"),
    "constant-column": {"LOWCON": (ConstantColumn, "columns [1] have zero range")},
    "object-strings": (ValueError, "could not convert string to float"),
    # the rank rule on the raw X: its SVD falls under RANK_RTOL, while UNIF,
    # IBOSS and LOWCON never factor the raw X
    "column-scaled-1e307": {m: (RankDeficient, "leverage_scores") for m in LEVERAGE},
    "complex": (ValueError, "got dtype complex128"),
}


def _expected(case, method):
    outcome = EXPECTED[case]
    return outcome.get(method, SELECTS) if isinstance(outcome, dict) else outcome


def _recorded(call):
    """``call()``'s result or exception, and every warning it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return call(), caught
        except Exception as exc:  # the caller checks its exact class
            return exc, caught


def test_the_table_covers_every_input_class():
    assert set(EXPECTED) == set(INPUTS)


@pytest.mark.parametrize("prepared", [False, True], ids=["raw", "prepared"])
@pytest.mark.parametrize("case", list(INPUTS))
@pytest.mark.parametrize("method", list(_SAMPLERS))
def test_every_sampler_meets_the_input_contract(method, case, prepared):
    X, r = INPUTS[case]

    def call():
        sample = _Prepared(X) if prepared else X
        return _SAMPLERS[method](sample, r, np.random.default_rng(0), THETA)

    got, caught = _recorded(call)
    assert caught == []
    outcome = _expected(case, method)
    if outcome is SELECTS:
        assert not isinstance(got, Exception), got
        assert len(got.indices) == r
        assert np.all((0 <= got.indices) & (got.indices < np.shape(X)[0]))
    else:
        error, text = outcome
        assert type(got) is error, got
        assert text in str(got)


_Z = _normal(n=8, p=2, seed=7)
_C = _Z + 1j
_V = np.ones(8)

# every array-taking entry point, with one complex argument each
COMPLEX_CALLS = {
    "scale_to_cube": lambda: scale_to_cube(_C),
    "theta_box": lambda: theta_box(_C, THETA),
    "condition_number": lambda: condition_number(_C),
    "leverage_scores": lambda: leverage_scores(_C),
    "singular_values": lambda: singular_values(_C),
    "least_squares-X": lambda: least_squares(_C, _V),
    "fit_sls-X": lambda: fit_sls(_C, _V),
    "fit_sls-y": lambda: fit_sls(_Z, _V + 1j),
    "fit_sls-weights": lambda: fit_sls(_Z, _V, weights=_V + 1j),
    "mse_decompose-h": lambda: mse_decompose(_Z, _V + 1j, sigma2=1.0),
    "fit_huber_m-X": lambda: fit_huber_m(_C, _V),
    "fit_huber_m-y": lambda: fit_huber_m(_Z, _V + 1j),
    "Dataset-X_raw": lambda: Dataset(name="c", X_raw=_C, y=_V),
    "Dataset-y": lambda: Dataset(name="c", X_raw=_Z, y=_V + 1j),
    "HiddenResponses": lambda: HiddenResponses(_V + 1j),
    "Box": lambda: Box(lower=[0.0, 0.0j], upper=[1.0, 1.0]),
    "misspec_values": lambda: misspec_values("H1", _C, 0.0),
    "make_misspec": lambda: make_misspec("H1", _C),
    "calibrate_constant": lambda: calibrate_constant("H5", _normal(n=8, seed=8) + 1j),
    "gen_response-X": lambda: gen_response(_C, np.ones(2), MisspecTerm("H1", 0.0), 1.0,
                                           np.random.default_rng(0)),
    "gen_response-beta0": lambda: gen_response(_Z, np.ones(2) + 1j, MisspecTerm("H1", 0.0),
                                               1.0, np.random.default_rng(0)),
}


@pytest.mark.parametrize("call", list(COMPLEX_CALLS.values()), ids=list(COMPLEX_CALLS))
def test_complex_input_raises_one_error_naming_the_dtype(call):
    got, caught = _recorded(call)
    assert caught == []
    assert type(got) is ValueError, got
    assert "entries must be real, got dtype complex128" in str(got)


@pytest.mark.parametrize("call, text", [
    (lambda: misspec_values("H2", np.ones(5), 10.0), "got shape (5,)"),
    (lambda: make_misspec("H2", np.ones(5)), "got shape (5,)"),
    (lambda: gen_response(np.ones(5), np.ones(1), MisspecTerm("H1", 0.0), 1.0,
                          np.random.default_rng(0)), "got shape (5,)"),
    (lambda: gen_response(_Z, [1.0, np.nan], MisspecTerm("H1", 0.0), 1.0,
                          np.random.default_rng(0)), "beta0 entries must be finite"),
    (lambda: gen_response(_Z, np.ones(3), MisspecTerm("H1", 0.0), 1.0,
                          np.random.default_rng(0)), "beta0 has 3 entries, expected 2"),
    (lambda: mse_decompose(_Z, np.where(np.arange(8) == 3, np.inf, 0.0), 1.0),
     "h_sub entries must be finite"),
    (lambda: mse_decompose(_Z, np.zeros(7), 1.0), "h_sub has 7 entries, expected 8"),
    (lambda: least_squares(_Z, np.ones((8, 1))), "y must be 1-d, got shape (8, 1)"),
    (lambda: fit_sls(_Z, _V, weights=np.where(np.arange(8) == 0, np.nan, 1.0)),
     "weights entries must be finite"),
    (lambda: fit_sls(_Z, _V, weights=-_V), "weights must be positive"),
    (lambda: HiddenResponses([1.0, np.nan]), "values entries must be finite"),
    (lambda: Box(lower=[0.0, 0.0], upper=[1.0]), "upper has 1 entries, expected 2"),
    (lambda: Box(lower=[0.0, np.inf], upper=[1.0, 1.0]), "lower entries must be finite"),
], ids=["misspec_values-1d", "make_misspec-1d", "gen_response-1d", "gen_response-beta0-nan",
        "gen_response-beta0-length", "mse_decompose-h-inf", "mse_decompose-h-length",
        "least_squares-y-2d", "fit_sls-weights-nan", "fit_sls-weights-negative",
        "HiddenResponses-nan", "Box-length", "Box-inf"])
def test_vectors_and_matrices_are_checked_by_the_one_rule(call, text):
    got, caught = _recorded(call)
    assert caught == []
    assert type(got) is ValueError, got
    assert text in str(got)
