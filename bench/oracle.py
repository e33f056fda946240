"""Independent references the benchmark checks the package against.

``greedy_claim`` is a brute-force version of the LOWCON matching step:
squared distances by direct differences, design points in order, ties to the
lowest row index. ``rebuild_lowcon`` reassembles a LOWCON selection from the
package's public stages, timing each one, and leaves the matching itself to
``greedy_claim``; the matching time is then the residual of ``lowcon()``
minus the stages, so it does not depend on how the package matches.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

import lowcon as lc

# Public stages of lowcon(), in call order; match_ms is lowcon() minus these.
STAGES = (
    "samplers.scale_to_cube",
    "samplers.theta_box",
    "designs.generate_olhd",
    "designs.rescale_design",
    "linalg.condition_number",
)


def greedy_claim(X_scaled: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, int]:
    """Claim the nearest unclaimed row for each design point, in order.

    Returns the claimed indices and the number of claim conflicts: design
    points whose nearest row overall had already been claimed.
    """
    claimed = np.zeros(X_scaled.shape[0], dtype=bool)
    indices = np.empty(points.shape[0], dtype=np.intp)
    conflicts = 0
    for i, q in enumerate(points):
        d2 = ((X_scaled - q) ** 2).sum(axis=1)
        if claimed[int(np.argmin(d2))]:
            conflicts += 1
        d2[claimed] = np.inf
        j = int(np.argmin(d2))  # first minimum: ties go to the lowest index
        claimed[j] = True
        indices[i] = j
    return indices, conflicts


def rebuild_lowcon(X, r: int, theta: float, rng, tracer=None) -> dict:
    """LOWCON selection rebuilt from public stages with the given rng.

    With a tracer, each stage runs inside a span named as in ``STAGES``.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("samplers.scale_to_cube"):
        X_scaled, _ = lc.scale_to_cube(X)
    with span("samplers.theta_box"):
        box = lc.theta_box(X_scaled, theta)
    with span("designs.generate_olhd"):
        canonical = lc.generate_olhd(r, X_scaled.shape[1], rng)
    with span("designs.rescale_design"):
        design = lc.rescale_design(canonical, box)
    indices, conflicts = greedy_claim(X_scaled, design.points)
    with span("linalg.condition_number"):
        kappa = lc.condition_number(X[indices])
    return {
        "indices": indices,
        "conflicts": conflicts,
        "kappa_sub": kappa,
        "design_kappa": canonical.kappa,
        "design_points": design.points,
    }
