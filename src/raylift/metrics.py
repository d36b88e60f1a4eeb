"""Metrics on the ray space (vectors modulo a unimodular scalar), the
canonical quotient representative, and the isometry onto rank-one PSD
operators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Field,
    RankOnePSD,
    Vector,
    _check_order,
    _check_same,
    _schatten_batch,
    sym_outer,
)

__all__ = [
    "RayPoint",
    "ray",
    "align_dist",
    "lift_dist",
    "lift",
    "unlift",
]

_CANON_CUTOFF = 1e-12


@dataclass(frozen=True)
class RayPoint:
    """Equivalence class of vectors under multiplication by a unimodular
    scalar, held by its canonical representative: the first entry whose
    magnitude exceeds 1e-12 * ||x|| is real and positive. The zero vector is
    its own class (the cone point)."""

    rep: Vector

    def __post_init__(self):
        object.__setattr__(self, "rep", _canonicalize(self.rep))

    @property
    def field(self) -> Field:
        return self.rep.field

    @property
    def dim(self) -> int:
        return self.rep.dim

    def norm(self) -> float:
        return self.rep.norm()


def _canonicalize(x: Vector) -> Vector:
    a = x.entries
    nrm = np.linalg.norm(a)
    if nrm == 0.0:
        return x
    idx = np.nonzero(np.abs(a) > _CANON_CUTOFF * nrm)[0]
    if idx.size == 0:
        return x
    lead = a[idx[0]]
    # checked before any arithmetic, so that canonicalizing is idempotent:
    # numpy's complex division rounds conj(a) / |a| to 1 - 2^-53 for some
    # real positive a
    if lead.real > 0 and lead.imag == 0:
        return x
    if x.field is Field.REAL:
        return Vector(-a, x.field)
    phase = lead.conjugate() / abs(lead)
    out = a * phase
    # the pivot entry is now positive real by construction; store it exactly so
    out[idx[0]] = abs(lead)
    return Vector(out, x.field)


def ray(x: Vector) -> RayPoint:
    """Project a vector to its ray (canonical representative)."""
    return RayPoint(x)


def _vector_pnorm(v: np.ndarray, p: float) -> float:
    if p == math.inf:
        return float(np.max(np.abs(v))) if v.size else 0.0
    return float(np.linalg.norm(v, ord=p))


def _phase_objective(x: np.ndarray, y: np.ndarray, p: float):
    def g(theta: float) -> float:
        return _vector_pnorm(x - np.exp(1j * theta) * y, p)

    return g


def _min_over_phase(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """Global minimum of ||x - e^{i theta} y||_p over the phase circle:
    dense 4096-point grid, then ternary refinement of the best brackets."""
    grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    diffs = x[np.newaxis, :] - np.exp(1j * grid)[:, np.newaxis] * y[np.newaxis, :]
    if p == math.inf:
        vals = np.max(np.abs(diffs), axis=1)
    else:
        vals = np.sum(np.abs(diffs) ** p, axis=1) ** (1.0 / p)
    g = _phase_objective(x, y, p)
    step = 2 * np.pi / grid.size
    best = float(np.min(vals))
    # refine a few distinct local basins; the objective is smooth in the phase
    # with few local minima, so the grid localizes every basin
    order = np.argsort(vals)
    seeds, taken = [], []
    for k in order:
        if len(seeds) >= 5:
            break
        if all(min(abs(grid[k] - t), 2 * np.pi - abs(grid[k] - t)) > 4 * step for t in taken):
            seeds.append(int(k))
            taken.append(float(grid[k]))
    for k in seeds:
        lo, hi = grid[k] - step, grid[k] + step
        while hi - lo > 1e-14:
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if g(m1) <= g(m2):
                hi = m2
            else:
                lo = m1
        best = min(best, g(0.5 * (lo + hi)))
    return best


def align_dist(x: RayPoint, y: RayPoint, p: float) -> float:
    """Vector-norm metric on rays: min over unimodular a of ||x - a y||_p.

    Real field minimizes over a in {+1, -1} exactly. Complex field with p = 2
    uses the closed form sqrt(||x||^2 + ||y||^2 - 2 |<x, y>|); other p are
    minimized over the phase circle numerically.
    """
    _check_order(p)
    _check_same(x.rep, y.rep)
    xa, ya = x.rep.entries, y.rep.entries
    if x.field is Field.REAL:
        return min(_vector_pnorm(xa - ya, p), _vector_pnorm(xa + ya, p))
    if p == 2:
        nx2 = float(np.vdot(xa, xa).real)
        ny2 = float(np.vdot(ya, ya).real)
        ip = abs(complex(np.vdot(ya, xa)))
        return math.sqrt(max(nx2 + ny2 - 2 * ip, 0.0))
    return _min_over_phase(xa, ya, p)


def _lift_dist_stack(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """Lift distances ||[x,x] - [y,y]||_p between the rows of two
    broadcastable (k, n) arrays.

    Uses the closed forms for p in {1, 2, inf}; other p use the two (at most)
    nonzero eigenvalues of the rank-<=2 difference. Nearly coincident rows
    are rerouted through one batched ``eigvalsh`` of their explicit
    difference matrices: the closed forms cancel catastrophically there
    (absolute error ~ sqrt(eps) * scale^2, which would swamp distances below
    ~1e-8).
    """
    _check_order(p)
    x, y = np.broadcast_arrays(x, y)
    nx2 = np.sum(np.abs(x) ** 2, axis=-1)
    ny2 = np.sum(np.abs(y) ** 2, axis=-1)
    h = np.abs(np.sum(x * y.conj(), axis=-1)) ** 2
    sigma2 = nx2 + ny2
    s2 = sigma2 * sigma2 - 4 * h
    d2sq = nx2 * nx2 + ny2 * ny2 - 2 * h
    s = np.sqrt(np.maximum(s2, 0.0))
    t = nx2 - ny2
    if p == 1:
        out = s
    elif p == 2:
        out = np.sqrt(np.maximum(d2sq, 0.0))
    elif p == math.inf:
        out = 0.5 * np.abs(t) + 0.5 * s
    else:
        out = _schatten_batch(np.stack([0.5 * (t + s), 0.5 * (t - s)], axis=-1), p)
    near = (sigma2 > 0) & (np.minimum(s2, d2sq) < 1e-10 * sigma2 * sigma2)
    if np.any(near):
        xn, yn = x[near], y[near]
        diff = np.einsum("ki,kj->kij", xn, xn.conj()) - np.einsum("ki,kj->kij", yn, yn.conj())
        out[near] = _schatten_batch(np.linalg.eigvalsh(diff), p)
    return out


def lift_dist(x: RayPoint, y: RayPoint, p: float) -> float:
    """Matrix-norm metric on rays: Schatten p-norm of [x,x] - [y,y], the
    one-row case of ``_lift_dist_stack``."""
    _check_same(x.rep, y.rep)
    return float(_lift_dist_stack(x.rep.entries[None], y.rep.entries[None], p)[0])


def lift(x: RayPoint) -> RankOnePSD:
    """Isometry from rays (lift metric) onto rank-one PSD operators:
    x maps to [x,x]."""
    return RankOnePSD(carrier=sym_outer(x.rep, x.rep), generator=x.rep)


def unlift(T: RankOnePSD) -> RayPoint:
    """Inverse of the isometry: recover the ray of sqrt(lam1) * u1 from the
    top eigenpair."""
    lam1, u1 = T.top_eigenpair
    if lam1 <= 0.0:
        return ray(Vector(np.zeros(T.dim, dtype=T.field.dtype), T.field))
    return ray(Vector(math.sqrt(lam1) * u1.entries, T.field))
