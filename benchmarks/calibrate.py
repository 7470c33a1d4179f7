"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on small shared hosts whose speed drifts by tens of
percent over tens of seconds, far more than a run's own repetitions
differ. Every untraced repetition therefore times a fixed kernel, a
SuperLU factorization of a 65 x 65 five-point Laplacian (4,225 unknowns,
the size of one ``opt_cell`` cell system), right before set-up and at
each operation boundary. ``run.py`` scales each raw time by
``REFERENCE_S / c``, where ``c`` is the kernel time measured around it,
so the reported timings read as on a machine where the kernel takes
``REFERENCE_S``. The kernel is part of the benchmark, not of cloakopt, so
a change to the program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

GRID = 65
FACTORIZATIONS = 2          # per sample; one sample costs about 2 x 12 ms
REFERENCE_S = 0.012         # kernel time the scaled timings refer to


def laplacian(n: int = GRID) -> sp.csc_matrix:
    """Five-point Laplacian on an n x n grid with Dirichlet edges."""
    one = np.ones(n)
    t = sp.diags([-one[1:], 2.0 * one, -one[1:]], [-1, 0, 1])
    eye = sp.identity(n)
    return (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()


class Calibrator:
    """Times the kernel on demand and keeps every sample.

    ``spans`` holds ``(start, end)`` clock times of each sample, so the
    caller can take calibration time out of the intervals it measures.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.matrix = laplacian()
        splu(self.matrix)           # warm-up: first call pays for lazy set-up
        self.spans: list[tuple[float, float]] = []

    def sample(self) -> float:
        """Seconds per kernel factorization, timed now."""
        start = self.clock()
        for _ in range(FACTORIZATIONS):
            splu(self.matrix)
        end = self.clock()
        self.spans.append((start, end))
        return (end - start) / FACTORIZATIONS

    def time_within(self, start: float, end: float) -> float:
        """Seconds spent calibrating inside [start, end]."""
        return sum(max(0.0, min(e, end) - max(s, start)) for s, e in self.spans)


def scaled(raw_s: float, kernel_s: float) -> float:
    """A raw time as it would read where the kernel takes REFERENCE_S."""
    return raw_s * REFERENCE_S / kernel_s
