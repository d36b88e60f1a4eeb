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
    _rank2_norms,
    _schatten_batch,
    _unchecked,
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
_NEG_ZERO = np.float64(-0.0).tobytes()  # the bytes of a -0.0 part, in native order


@dataclass(frozen=True)
class RayPoint:
    """Equivalence class of vectors under multiplication by a unimodular
    scalar, held by its canonical representative: the first entry whose
    magnitude exceeds 1e-12 * ||x|| is real and positive, and no zero part
    of an entry is -0.0, so one ray has one set of bytes. The zero vector
    is its own class (the cone point)."""

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
    mags = np.abs(a).tolist()
    cut = _CANON_CUTOFF * math.hypot(*mags)  # hypot scales as it sums: no square overflows
    if cut == math.inf:  # ||x|| overflowed, perhaps |a_i| too; 2 ||a / 2|| scaled by top does not
        half = np.abs(a / 2).tolist()
        top_half = max(half)
        cut = 2 * _CANON_CUTOFF * top_half * math.hypot(*(mag / top_half for mag in half))
    for i, mag in enumerate(mags):  # the pivot: a loop, not a generator, costs less per row
        if mag > cut:
            lead = a[i]
            break
    else:  # the zero vector
        lead = None
    # checked before any arithmetic, so that canonicalizing is idempotent:
    # numpy's complex division rounds conj(a) / |a| to 1 - 2^-53 for some
    # real positive a
    if lead is None or (lead.real > 0 and lead.imag == 0):
        out = a
    # -a, and a * phase with |phase| = 1, are fresh arrays, finite wherever
    # |a_i| is, but for rounding within a few ulps of the float range's end
    elif x.field is Field.REAL:
        out = -a
    else:
        scale = abs(lead)
        if scale == math.inf:  # the positive real pivot would not be a float
            raise ValueError("vector has non-finite entries")
        phase = lead.conjugate() / scale
        edge = max(mags) >= 2.0**1023  # only there can a_i * phase round past the float range
        if not edge:
            out = a * phase
        else:
            with np.errstate(over="ignore"):  # checked below
                out = a * phase
        # the pivot entry is now positive real by construction; store it exactly so
        out[i] = scale
        if edge and not np.isfinite(out).all():
            raise ValueError("vector has non-finite entries")
    # one ray, one set of bytes: a part that is exactly zero may be -0.0,
    # which + 0.0 turns to +0.0, leaving every other value as it is. The
    # byte search finds every -0.0 part; a match across two parts only
    # costs the exact test.
    if _NEG_ZERO in out.tobytes():
        parts = out.view(np.float64)  # out itself in the real field
        if np.signbit(parts[parts == 0.0]).any():
            out = out + 0.0
    if out is a:
        return x
    out.setflags(write=False)
    return _unchecked(Vector, entries=out, field=x.field)


def ray(x: Vector) -> RayPoint:
    """Project a vector to its ray (canonical representative). Where the
    pivot's modulus, or an entry turned by the pivot's phase, leaves the
    float range, no finite representative exists: that raises the
    ValueError of a non-finite vector."""
    return RayPoint(x)


def _min_over_phase(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """Global minimum of ||x - e^{i theta} y||_p over the phase circle:
    dense 4096-point grid, then ternary refinement of the best brackets."""
    grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    vals = _schatten_batch(x - np.exp(1j * grid)[:, np.newaxis] * y, p)

    def g(theta: float) -> float:
        return float(_schatten_batch(x - np.exp(1j * theta) * y, p))

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

    Real field minimizes over a in {+1, -1} exactly, the one-row case of
    ``_align_dist_stack``. Complex field with p = 2
    takes a as the phase of <x, y>, the minimizer, and the norm of the one
    difference x - a y, which does not cancel as the rays meet; other p are
    minimized over the phase circle numerically.
    """
    _check_order(p)
    _check_same(x.rep, y.rep)
    xa, ya = x.rep.entries, y.rep.entries
    if x.field is Field.REAL:
        return float(_align_dist_stack(xa[None], ya[None], p)[0])
    if p == 2:
        ip = complex(np.vdot(ya, xa))
        a = ip / abs(ip) if ip != 0 else 1.0
        return float(_schatten_batch(xa - a * ya, p))
    return _min_over_phase(xa, ya, p)


def _align_dist_stack(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """Real align distances min(||x - y||_p, ||x + y||_p) between the rows
    of two broadcastable (k, n) real arrays."""
    return np.minimum(_schatten_batch(x - y, p), _schatten_batch(x + y, p))


def _lift_dist_stack(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """Lift distances ||[x,x] - [y,y]||_p between the rows of two
    broadcastable (k, n) arrays: norms of rank-<=2 differences, from
    ``core._rank2_norms`` with unit coefficients."""
    _check_order(p)
    x, y = np.broadcast_arrays(x, y)
    return _rank2_norms(1.0, x, 1.0, y, p)


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
    """Inverse of the isometry: the ray of T's generator, which is
    sqrt(lam1) u1 for T's top eigenpair; no eigensolve of its own."""
    return ray(T.generator)
