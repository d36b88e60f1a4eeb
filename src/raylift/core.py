"""Field-generic vectors, self-adjoint operators, rank-one PSD operators and
Schatten norms, and the stacked BFGS kernel ``_bfgs`` that refines the a0
and b0 searches in numpy alone. Everything here is immutable after
construction and pure, so values are safe to share across threads. A value
owns the array its constructor converted: fresh, C-ordered and read-only,
never the caller's array, and copied once. C order keeps the last axis
contiguous, so a complex array's float64 view, the real layout of C^n (each
entry's real part, then its imaginary part), is always a view."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "Field",
    "Vector",
    "SymOp",
    "RankOnePSD",
    "SpectralError",
    "RankOneViolation",
    "vec",
    "symop",
    "sym_outer",
    "schatten_norm",
]


class Field(str, Enum):
    """Scalar field of the ambient Hilbert space."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self):
        return np.float64 if self is Field.REAL else np.complex128


class SpectralError(RuntimeError):
    """Eigensolver failed to converge."""


class RankOneViolation(ValueError):
    """Operator is not a non-negative rank-at-most-one operator within tolerance."""


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _as_field_array(data, field: Field, ndim: int, name: str,
                    length: Optional[int] = None) -> np.ndarray:
    a = np.asarray(data)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if field is Field.REAL:
        if np.iscomplexobj(a) and np.any(a.imag != 0):
            raise ValueError(f"{name} tagged real but has nonzero imaginary part")
        a = a.real.astype(np.float64, order="C")
    else:
        a = a.astype(np.complex128, order="C")
    if not np.isfinite(a).all():  # complex: finite when both parts are
        raise ValueError(f"{name} has non-finite entries")
    if length is not None and a.shape[0] != length:
        raise ValueError(f"{name}: expected {length} entries, got {a.shape[0]}")
    a.setflags(write=False)  # astype copied, so the array is ours to freeze
    return a


def _unchecked(cls, **fields):
    """A ``cls`` (``SymOp``, ``Vector``, ``RayPoint``, ``Measurement`` or
    ``Frame``) holding ``fields`` as given: its validating ``__post_init__``
    is skipped. Only for values the package built itself, each already what
    the public constructor would store: arrays of the field's dtype,
    C-ordered, finite and read-only, a ``SymOp``'s exactly self-adjoint, a
    ``RayPoint``'s rep canonical, a ``Frame``'s spanning."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # frozen blocks setattr, not the instance dict
    return obj


@dataclass(frozen=True)
class Vector:
    """A vector in the real or complex n-dimensional Hilbert space."""

    entries: np.ndarray
    field: Field

    def __post_init__(self):
        a = _as_field_array(self.entries, self.field, 1, "vector")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector)
            and self.field is other.field
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )


def vec(data, field: Optional[Field] = None) -> Vector:
    """Build a Vector, inferring the field from the dtype unless given."""
    a = np.asarray(data)
    if field is None:
        field = Field.COMPLEX if np.iscomplexobj(a) else Field.REAL
    return Vector(a, field)


@dataclass(frozen=True)
class SymOp:
    """A self-adjoint operator, stored exactly symmetrized: A == A*."""

    entries: np.ndarray
    field: Field

    def __post_init__(self):
        a = _as_field_array(self.entries, self.field, 2, "operator")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"operator must be square, got shape {a.shape}")
        # halved part by part: a complex division by 2 would give a zero part
        # the sign the other part has, so an exactly self-adjoint A would not
        # come back bit for bit. Where A + A* overflows, the halves are summed.
        with np.errstate(over="ignore"):
            s = a + a.conj().T
        parts = s.view(np.float64)
        np.multiply(parts, 0.5, out=parts)
        if np.isinf(parts).any():
            half = (a.view(np.float64) * 0.5).view(a.dtype)
            np.copyto(parts, (half + half.conj().T).view(np.float64), where=np.isinf(parts))
        s.setflags(write=False)
        object.__setattr__(self, "entries", s)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymOp)
            and self.field is other.field
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __add__(self, other: "SymOp") -> "SymOp":
        _check_same(self, other)
        return SymOp(self.entries + other.entries, self.field)

    def __sub__(self, other: "SymOp") -> "SymOp":
        _check_same(self, other)
        return SymOp(self.entries - other.entries, self.field)

    def __rmul__(self, scalar: float) -> "SymOp":
        return SymOp(float(scalar) * self.entries, self.field)


def symop(data, field: Optional[Field] = None, check_tol: Optional[float] = None) -> SymOp:
    """Build a SymOp from a raw square array.

    With ``check_tol`` set, reject inputs whose anti-selfadjoint part exceeds
    ``check_tol * max(1, ||A||)`` instead of silently symmetrizing them.
    """
    a = np.asarray(data)
    if field is None:
        field = Field.COMPLEX if np.iscomplexobj(a) else Field.REAL
    if check_tol is not None:
        skew = np.linalg.norm(a - a.conj().T)
        if skew > check_tol * max(1.0, np.linalg.norm(a)):
            raise ValueError(f"input is not self-adjoint: ||A - A*|| = {skew:.3e}")
    return SymOp(a, field)


def _check_order(p: float, name: str = "p") -> None:
    """Reject a norm order outside [1, inf]; NaN fails the comparison too."""
    if not p >= 1:
        raise ValueError(f"{name} must satisfy 1 <= {name} <= inf, got {p}")


def _gaussian(rng: np.random.Generator, shape, field: Field) -> np.ndarray:
    """Standard normal draws in a field: all real parts first, then, in the
    complex field, all imaginary parts."""
    a = rng.standard_normal(shape)
    if field is Field.COMPLEX:
        a = a + 1j * rng.standard_normal(shape)
    return a


def _row_dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """<v, u> = sum conj(u) v for each row pair of two (k, d) stacks, one
    dot per row, so row i is its one-row call bit for bit; u . v for real
    stacks, whose ``conj`` is no copy. One row goes through ``np.dot``,
    the kernel that ``matmul`` calls for each row, without its stack setup."""
    if U.shape[0] == 1:
        return np.dot(U.conj(), V[0])
    return (U.conj()[:, None, :] @ V[:, :, None])[:, 0, 0]


_BFGS_MAX_ITERS = 15000  # ``_bfgs``'s cap on iterations per row


def _bfgs(fun, X0: np.ndarray, ftol: float = 1e-13, gtol: float = 1e-9):
    """BFGS on the inverse Hessian (Nocedal & Wright, Numerical Optimization,
    Alg. 6.1; H scaled by (6.20) before the first update, which is skipped
    when s^T y <= 0) with Armijo backtracking, on each row of a (k, d) stack
    of starts at once. ``fun`` maps a stack to its (k,) values and (k, d)
    gradients, row i depending on row i alone; each row runs on value /
    |value at its start|, so ``ftol`` and ``gtol`` carry no scale, and row i
    of a run is its one-row run bit for bit. Returns ``(X, values, nit,
    nfev, stops)`` per row; ``nfev`` omits the start's evaluation and the
    stop is ``stationary`` (largest scaled gradient entry <= gtol; also a
    start whose value is 0 or not finite, which does not search),
    ``rel_decrease`` (a step's decrease <= ftol * max(|value|, |value at the
    start|)), ``max_iters`` (15,000 iterations) or ``line_search`` (no
    decrease within 40 halvings: the row keeps its point and value)."""
    k, d = X0.shape
    with np.errstate(all="ignore"):  # stopped rows may evaluate to NaN or inf
        f, G = fun(X0)
        live = np.isfinite(f) & (f != 0.0)
        scale = np.where(live, np.abs(f), 1.0)
        f, G = f / scale, G / scale[:, None]
        X, eye, nit, nfev = X0, np.eye(d), np.zeros(k, int), np.zeros(k, int)
        H, U, V = np.tile(eye, (k, 1, 1)), np.empty((k, d, 2)), np.empty((k, 2, d))
        stops = np.full(k, "stationary", dtype=object)
        live &= np.abs(G).max(axis=1) > gtol
        fresh = live.copy()  # no update yet: H is the identity
        # Python flags for "every row live" and "some row fresh" spare the
        # masked writes while they hold; they change no row's arithmetic
        all_live, any_fresh, it = bool(live.all()), bool(fresh.any()), 0
        while live.any():
            # the step is -P. A stopped row's P is +0, so it stands still and
            # re-evaluates to its own bits, as an accepted row does at a later
            # halving; only rows still searching count evaluations.
            P = (H @ G[:, :, None])[:, :, 0]
            if not all_live:
                P = np.where(live[:, None], P, 0.0)
            c1 = 1e-4 * np.maximum(_row_dots(G, P), 0.0)  # no rise where H does not descend
            alpha = (np.where(fresh, np.minimum(1.0, 1.0 / np.sqrt(_row_dots(P, P))), 1.0)
                     if any_fresh else np.ones(k))  # a first step is at most unit length
            todo = live
            for _ in range(40):
                T = X - alpha[:, None] * P
                fT, GT = fun(T)
                fT, GT = fT / scale, GT / scale[:, None]
                nfev += todo
                todo = live & ~(fT <= f - alpha * c1)
                if not todo.any():
                    break
                alpha[todo] *= 0.5
            else:  # no decrease within the halvings: those rows stop where they were
                T = np.where(todo[:, None], X, T)
                fT, GT = np.where(todo, f, fT), np.where(todo[:, None], G, GT)
                stops[todo], live = "line_search", live & ~todo
            S, Y, drop = T - X, GT - G, f - fT
            X, f, G = T, fT, GT
            nit += live
            it += 1
            stat = np.abs(G).max(axis=1) <= gtol
            rel = drop <= ftol * np.maximum(np.abs(f), 1.0)
            if ((stat | rel) & live).any() or it >= _BFGS_MAX_ITERS:
                for rows, stop in ((stat, "stationary"), (rel, "rel_decrease"),
                                   (nit >= _BFGS_MAX_ITERS, "max_iters")):
                    stops[rows & live] = stop
                    live &= ~rows
            all_live = all_live and bool(live.all())
            sy = _row_dots(S, Y)  # 0 on every row that did not move
            upd = sy > 0.0
            if any_fresh:
                if (upd & fresh).any():
                    H = np.where((upd & fresh)[:, None, None],
                                 (sy / _row_dots(Y, Y))[:, None, None] * eye, H)
                fresh &= ~upd
                any_fresh = bool(fresh.any())
            # H + s (c s - rho Hy)^T - rho Hy s^T, with rho = 1 / s^T y and
            # c = rho^2 y^T H y + rho: the update (6.17)
            HY = (H @ Y[:, :, None])[:, :, 0]
            rho = (1.0 / sy)[:, None]
            U[:, :, 0], U[:, :, 1] = S, HY
            V[:, 0] = (rho * rho * _row_dots(Y, HY)[:, None] + rho) * S - rho * HY
            V[:, 1] = -rho * S
            H = H + U @ V if upd.all() else np.where(upd[:, None, None], H + U @ V, H)
    return X, f * scale, nit, nfev, list(stops)


def _check_same(a, b):
    if a.field is not b.field:
        raise ValueError(f"field mismatch: {a.field.value} vs {b.field.value}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def sym_outer(x: Vector, y: Vector) -> SymOp:
    """Symmetric outer product of two vectors.

    ``sym_outer(x, x)`` is the PSD rank-at-most-one lift of x, with trace
    equal to ||x||^2.
    """
    _check_same(x, y)
    u, v = x.entries, y.entries
    m = (np.outer(v, u.conj()) + np.outer(u, v.conj())) / 2
    return SymOp(m, x.field)


def _schatten_batch(vals: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norms of a stack of self-adjoint operators, given their
    eigenvalues along the last axis."""
    a = np.abs(vals)
    if p == math.inf:
        return np.max(a, axis=-1, initial=0.0)
    if p == 1:
        return np.sum(a, axis=-1)
    if p == 2:
        return np.sqrt(np.sum(a * a, axis=-1))
    # factor out each row's largest magnitude to avoid overflow for large p
    top = np.max(a, axis=-1, keepdims=True, initial=0.0)
    scaled = np.divide(a, top, out=np.zeros_like(a), where=top > 0)
    return top[..., 0] * np.sum(scaled**p, axis=-1) ** (1.0 / p)


def _rank2_norms(ca: np.ndarray, ua: np.ndarray, cb: np.ndarray, ub: np.ndarray,
                 p: float) -> np.ndarray:
    """Schatten p-norms of the rank-<=2 differences ca ua ua* - cb ub ub*,
    for (k,) (or scalar) coefficients and (k, n) vectors.

    The nonzero eigenvalues are (d +- sqrt(d^2 + 4 alpha beta s^2)) / 2 for
    alpha = ca ||ua||^2, beta = cb ||ub||^2, d = alpha - beta and
    s^2 = ||w||^2 / ||ub||^2, where w = ub - (<ub, ua> / ||ua||^2) ua is the
    part of ub orthogonal to ua: unlike 1 - |<ua, ub>|^2 / (||ua||^2
    ||ub||^2) it does not cancel as ub nears ua, so the norms are accurate
    to roundoff in alpha + beta however close the two terms are. The larger
    magnitude is taken as (|d| + root) / 2 and the smaller as alpha beta s^2
    over it, so no sum of opposite signs is formed, and
    t = sqrt(alpha) sqrt(beta s^2) stands for sqrt(alpha beta s^2) so that no
    product overflows. A zero ua (or ub) leaves the single term, so the lift
    distance from the cone point is ||y||^2.
    """
    na = np.sum(np.abs(ua) ** 2, axis=-1)
    nb = np.sum(np.abs(ub) ** 2, axis=-1)
    proj = np.sum(ua.conj() * ub, axis=-1)
    proj = np.divide(proj, na, out=np.zeros_like(proj), where=na > 0)
    w = ub - proj[:, None] * ua
    ww = np.sum(np.abs(w) ** 2, axis=-1)
    s2 = np.divide(ww, nb, out=np.zeros_like(ww), where=nb > 0)
    alpha, beta = ca * na, cb * nb
    d = alpha - beta
    t = np.sqrt(alpha) * np.sqrt(beta * s2)
    big = (np.abs(d) + np.hypot(d, 2.0 * t)) / 2
    # t <= big, so t / big <= 1; big = 0 only where t = 0
    small = t * np.divide(t, big, out=np.zeros_like(t), where=big > 0)
    return _schatten_batch(np.stack([big, small], axis=-1), p)


def schatten_norm(A: SymOp, p: float) -> float:
    """Schatten p-norm of a self-adjoint operator (p=1 nuclear, 2 Frobenius,
    inf operator norm). Singular values are the absolute eigenvalues, from
    ``eigh``: ``eigvalsh`` has lost up to 5e-7 of an eigenvalue, relative,
    where small entries have subnormal squares (see ``retraction_probe``)."""
    _check_order(p)
    try:
        s = np.abs(np.linalg.eigh(A.entries)[0])
    except np.linalg.LinAlgError as e:
        raise SpectralError(f"eigensolver failed: {e}") from e
    return float(_schatten_batch(s, p))


_RANK_TOL = 1e-10  # RankOnePSD's allowance relative to the top eigenvalue


@dataclass(frozen=True)
class RankOnePSD:
    """A non-negative self-adjoint operator T = [x,x] of rank at most one,
    checked once against the allowance 1e-10 * top.

    Given a generator x, ||T - [x,x]||_F <= allow, with top = ||x||^2: by
    Weyl's inequality that bounds every eigenvalue but the top. Without one,
    one ``eigh`` checks the second and the smallest eigenvalue, and its top
    pair gives the generator sqrt(lam1) u1 (zero when lam1 <= 0) in
    ``eigh``'s phase.
    """

    carrier: SymOp
    generator: Optional[Vector] = None

    def __post_init__(self):
        g = self.generator
        if g is not None:
            _check_same(g, self.carrier)
            allow = _RANK_TOL * g.norm() ** 2
            err = np.linalg.norm(self.carrier.entries - sym_outer(g, g).entries)
            if err > allow:
                raise RankOneViolation(
                    f"generator does not reproduce carrier: ||T - [x,x]|| = {err:.3e}"
                )
            return
        w, V = np.linalg.eigh(self.carrier.entries)
        top = float(w[-1]) if w.size else 0.0
        allow = _RANK_TOL * top
        second = float(w[-2]) if w.size > 1 else 0.0
        bottom = float(w[0]) if w.size else 0.0
        if second > allow or bottom < -allow:
            raise RankOneViolation(
                f"not rank-one PSD within tolerance {allow:.3e}: "
                f"second eigenvalue {second:.3e}, smallest {bottom:.3e}"
            )
        x = math.sqrt(top) * V[:, -1] if top > 0.0 else np.zeros(self.dim, self.field.dtype)
        object.__setattr__(self, "generator", Vector(x, self.field))

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @property
    def field(self) -> Field:
        return self.carrier.field
