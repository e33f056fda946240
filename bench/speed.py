"""Speed index of the machine while a run is measuring.

On a shared machine the same work can take 20-30% longer for tens of
seconds at a time, because of load the run does not see. The benchmark runs
``ReferenceKernel`` three times before every unit of work and after the last
(and three times in each set-up probe, for the set-up time), and scales each
time it reports by ``REFERENCE_S / median(kernel seconds)``: a time is
reported as it would read on a machine where the kernel takes
``REFERENCE_S``. The kernel mixes the kinds of work the package does (many
small numpy calls on gathered rows, a pure Python loop, stable argsorts, a
streaming pass over arrays larger than the L2 cache, small SVDs) and calls no
package code, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.045


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(20_102_178)
        self.points = rng.standard_normal((4_000, 8))
        self.queries = rng.standard_normal((1_200, 8))
        self.leaves = rng.integers(0, 4_000, size=(1_200, 16))
        self.keys = rng.standard_normal(20_000)
        self.big = rng.standard_normal(500_000)
        self.out = np.empty_like(self.big)
        self.tall = rng.standard_normal((2_000, 20))
        self.samples: list[float] = []

    def __call__(self, repeat: int = 1) -> None:
        for _ in range(repeat):
            self._once()

    def _once(self) -> None:
        t0 = time.perf_counter()
        for q, leaf in zip(self.queries, self.leaves):
            ((self.points[leaf] - q) ** 2).sum(axis=1).min()
        total = 0
        for i in range(150_000):
            total += i % 7
        for _ in range(5):
            np.argsort(self.keys, kind="stable")
        for _ in range(16):
            np.multiply(self.big, 1.0001, out=self.out)
            np.add(self.out, self.big, out=self.out)
        for _ in range(3):
            np.linalg.svd(self.tall, full_matrices=False)
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference time."""
        return REFERENCE_S / statistics.median(self.samples)
