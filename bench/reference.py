"""A fixed computation that the benchmark times on either side of every
command it measures.

On a shared machine the speed of the same code drifts by tens of percent
over seconds to minutes, and every kind of code drifts together. A command's
time divided by the mean of the reference times around it cancels most of
that drift. The reference mixes what the workloads spend their time on:
small Hermitian eigendecompositions, matrix-vector products and
interpreter work. It never calls raylift, so a change to the program cannot
change it.
"""

from __future__ import annotations

import time

import numpy as np

REF_ITERS = 1200  # about 30 ms on a 2-core machine

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_A = _A + _A.conj().T
_X = _rng.standard_normal(8) + 1j * _rng.standard_normal(8)
# bound at import, so a tracer that later patches numpy.linalg misses it
_eigh = np.linalg.eigh


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERS):
        w, v = _eigh(_A)
        acc += float(np.abs(np.vdot(v[:, -1], _A @ _X))) + w[-1] * 1e-9 + i
    return time.perf_counter() - t0
