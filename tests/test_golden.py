"""Golden digests: the exact outputs of the code paths whose results do not
hang on BLAS or LAPACK rounding.

Each digest is the sha256 of the bytes of seeded outputs, committed here, so
any change to a design, a LOWCON pick or distance, or a UNIF or IBOSS pick
shows up as a changed digest. The leverage samplers are left out: their SVD
is LAPACK's, whose last bits may differ between builds.
"""

import hashlib

import numpy as np
import pytest

from lowcon import generate_olhd, iboss, lowcon, unif

OLHD_SHAPES = [(9, 2), (20, 3), (50, 3), (60, 10), (100, 10)]
OLHD_SEEDS = range(4)


def inputs(name):
    """Seeded predictor matrices whose picks need no BLAS rounding to match:
    heavy tails, many ties, one far outlier, one predictor, and tight
    clusters in which most design points find their nearest row claimed."""
    names = ["t", "ties", "outlier", "p1", "conflicts"]
    rng = np.random.default_rng(names.index(name) + 80)
    if name == "t":
        return rng.standard_t(3, (400, 3)) * [1.0, 20.0, 0.05]
    if name == "ties":
        return np.round(rng.standard_normal((300, 2)), 1)
    if name == "outlier":
        X = rng.standard_normal((300, 3))
        X[17] = 100.0
        return X
    if name == "conflicts":
        centres = rng.uniform(-1.0, 1.0, (4, 8))
        noise = 0.02 * rng.standard_normal((250, 8))
        return np.repeat(centres, [70, 60, 60, 60], axis=0) + noise
    return rng.standard_t(2, (200, 1))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def olhd_digest(shape):
    r, p = shape
    return digest(*(generate_olhd(r, p, np.random.default_rng([r, p, s])).points
                    for s in OLHD_SEEDS))


def lowcon_digest(name):
    X, out = inputs(name), []
    runs = ((200, 1.0), (120, 10.0)) if name == "conflicts" else ((12, 1.0), (40, 10.0))
    for r, theta in runs:
        sel = lowcon(X, r, theta, rng=np.random.default_rng([r, 90]))
        out += [sel.indices, sel.perturbation, np.float64(sel.diagnostics.mean_nn_distance)]
    return digest(*out)


def unif_iboss_digest(name):
    X = inputs(name)
    picks = [unif(X, r, np.random.default_rng([r, 91])).indices for r in (12, 40)]
    picks += [iboss(X, r).indices for r in (12, 41)]
    return digest(*picks)


GOLDEN = {
    "olhd:9x2":
        "4fae51c2f7fe74137ea8cba120c19eda68e615528cce13d43dd2760e16715551",
    "olhd:20x3":
        "04a8f609d27f7371cada46c4dad5082f8421b69949c13960cc3b65008438e0fe",
    "olhd:50x3":
        "b3d99da62053023b2dc6eb3dbc99cfd0c85a6bfc6d5d5649bb6df68e967cb5cd",
    "olhd:60x10":
        "e3c00ae532ebc9a494e134e8bfdfc8178f58990d0a4f55849604bc47e771be50",
    "olhd:100x10":
        "f95c7f0007fbed5529fb1c704594b8d5563d5128adf032293b3948eab0afa2fe",
    "olhd:400x20":
        "eb991282561ff087016c83033b1a4c7fdbf73d42aedac781f78ca074cac22aef",
    "olhd:600x20":
        "16c844ff80ca0c51cb72e179fbc8431c2b7722a11e32daf3aa24e1dc8d7243dc",
    "lowcon:t":
        "d1e1f43452828e5f26488a3182308b8bbf766b7bdf34fee59dd6ed94ec812a5c",
    "lowcon:ties":
        "b0f3c0ebfc0d3e0567fb37c8f79cf7abeef7846b5d36bf506e4114feaf2649e1",
    "lowcon:conflicts":
        "84e212ae09dc2acfc8994ee884f0b0e6549b342bde1238144f3cfac54c2d0667",
    "lowcon:outlier":
        "4ab990c977774f2994241dfdc269e56f1fc4a896206c08b41fdc9709ddbdfcd0",
    "lowcon:p1":
        "cf87492af1de29dc4190e0a8fb2c182542f4c4c1e8f577d1576609b53ca5330b",
    "unif_iboss:t":
        "5c3202037e8db795601410124f96c78ef4a94cb66a0c8d388a5e385bb1c3f90f",
    "unif_iboss:ties":
        "3daa86e3d8b6619466a6268d880d18b6687889ce0b94dec42d364de81a062704",
    "unif_iboss:outlier":
        "61d5121c0f37d4b217d35b2ba46959912ac6ea7f8530829ef4dbeed8ff3baf41",
    "unif_iboss:p1":
        "b543c6e2c2cbcc212f065f2d8cc1bb578804c95774556e6469323d3332be6270",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case):
    kind, arg = case.split(":")
    compute = {"olhd": lambda: olhd_digest(tuple(map(int, arg.split("x")))),
               "lowcon": lambda: lowcon_digest(arg),
               "unif_iboss": lambda: unif_iboss_digest(arg)}[kind]
    assert compute() == GOLDEN[case]
