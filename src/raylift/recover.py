"""Constructive Lipschitz left inverse of the intensity measurement map.

The pipeline inverts measurements by (1) min-norm linear inversion onto
self-adjoint operators, (2) spectral retraction onto rank-one PSD operators,
(3) un-lifting to a ray. Stage (1) is linear, hence Lipschitz with constant
1/sigma_min over the row space; this replaces the non-constructive isometric
extension that only guarantees existence. The certified pipeline constant is
reported next to the theoretical one (which uses the frame's lower stability
constant) without asserting a relation between them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import lapack

from .core import Field, Vector, _check_order, _lbfgs, _to_complex, _to_real
from .frames import Frame, LiftedMap, Measurement, build_lifted_map, min_norm_inverse
from .frames import _measure_stack, _vec_to_json
from .metrics import RayPoint, ray
from .retraction import _retract_stack, retraction_bound

__all__ = [
    "RecoveryReport",
    "PolishStats",
    "LipBound",
    "recover",
    "recovery_lip_bound",
    "polish",
]


@dataclass(frozen=True)
class PolishStats:
    """How the polish search ended: its L-BFGS-B ``iterations``, its
    residual-and-gradient ``evaluations`` (every call: the start's, the
    search's and the check of the result) and the ``stop`` rule. The search
    runs in coordinates whitened by the Gauss-Newton metric at the start
    (see ``polish``), so ``stationary`` means that the largest entry of the
    whitened gradient of h / h0 is <= 1e-9 (an exact fit is also
    stationary; a start whose residual is already <= 8 eps ||c|| ends here
    with 0 iterations and 1 evaluation), ``rel_decrease`` that a step
    lowered h by <= 1e-13 of h at the start, ``max_iters`` that the cap was
    reached and ``line_search`` that the line search failed."""

    iterations: int
    evaluations: int
    stop: str


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one inversion: the estimated ray, the measurement-space
    residual, intermediate stage norms, whether iterative polish ran and,
    when it did, how it ended."""

    estimate: RayPoint
    residual: float
    pipeline_stage_norms: dict
    polished: bool
    polish: Optional[PolishStats] = None

    def __post_init__(self):
        if not (math.isfinite(self.residual) and self.residual >= 0):
            raise ValueError(f"residual must be finite and >= 0, got {self.residual}")

    def to_dict(self) -> dict:
        rep = self.estimate.rep
        doc = {
            "estimate": {"field": rep.field.value, "dim": rep.dim,
                         "entries": _vec_to_json(rep.entries, rep.field)},
            "residual": self.residual,
            "pipeline_stage_norms": dict(self.pipeline_stage_norms),
            "polished": self.polished,
        }
        if self.polish is not None:
            doc["polish"] = asdict(self.polish)
        return doc


_POLISH_ITERS = 200  # the search's iteration cap, as in recover(do_polish=True)
# a start whose residual is at most this times ||c|| fits to roundoff: the
# residual of the exact ray of a noiseless complex row, computed in floating
# point, reads 0.1-3.3 eps * ||c|| (Gaussian frames, n 2-32), and a search
# from such a start only ends in a failed line search
_FIT_FLOOR = 8 * float(np.finfo(np.float64).eps)


def recover(
    F: Frame,
    c: Union[Measurement, np.ndarray],
    group_tol: Optional[float] = None,
    lifted: Optional[LiftedMap] = None,
    do_polish: bool = False,
) -> RecoveryReport:
    """Invert a measurement vector to a ray estimate.

    When the lifted measurement matrix has full column rank and c lies on the
    measurement range, the estimate recovers the original ray exactly (up to
    numerical tolerance). Pass a prebuilt ``lifted`` map to amortize the
    factorization over many measurements.

    The retraction and the un-lift read the same top eigenpair, so one
    ``eigh`` serves both: the estimate is the ray of sqrt(lam1 - lam2) u1.
    """
    if not isinstance(c, Measurement):
        c = Measurement(np.asarray(c, dtype=np.float64))
    M = lifted if lifted is not None else build_lifted_map(F)
    if c.count != M.rows:
        raise ValueError(f"measurement count {c.count} does not match frame count {M.rows}")
    T = min_norm_inverse(M, c)
    coef, vecs, top, _ = _retract_stack(T.entries[None], group_tol)
    coef = float(coef[0])
    x = math.sqrt(coef) * vecs[0, :, -1] if coef > 0.0 else np.zeros(F.dim, F.field.dtype)
    est = ray(Vector(x, F.field))
    stage_norms = {
        "pseudoinverse_fro": float(np.linalg.norm(T.entries)),
        # (lam1 - lam2) P1 has Frobenius norm coef * sqrt(rank P1)
        "retraction_fro": coef * math.sqrt(int(top[0].sum())),
    }
    stats = None
    if do_polish:
        est, stats = _polish(F, c, est, _POLISH_ITERS)
    # the bits of measure(F, est.rep), without validating and copying them
    residual = float(np.linalg.norm(_measure_stack(F, est.rep.entries) - c.values))
    return RecoveryReport(
        estimate=est,
        residual=residual,
        pipeline_stage_norms=stage_norms,
        polished=stats is not None,
        polish=stats,
    )


@dataclass(frozen=True)
class LipBound:
    """Lipschitz ceiling of the inversion pipeline from (R^m, ||.||_p) to rays
    with the Schatten-q metric.

    ``pipeline`` multiplies the certified constants of the constructive
    stages (measurement-norm change, linear min-norm inversion, retraction,
    metric change). ``theory`` replaces the inversion factor 1/sigma_min by
    1/sqrt(a0) when a lower stability constant estimate is supplied.
    """

    pipeline: float
    theory: Optional[float]
    sigma_min: float
    measurement_factor: float
    retraction_factor: float
    metric_factor: float


def recovery_lip_bound(
    F: Frame,
    p: float,
    q: float,
    a0: Optional[float] = None,
    lifted: Optional[LiftedMap] = None,
) -> LipBound:
    """Evaluate the pipeline's Lipschitz ceiling for input norm p and output
    metric order q."""
    _check_order(p)
    _check_order(q, "q")
    M = lifted if lifted is not None else build_lifted_map(F)
    invp = 0.0 if p == math.inf else 1.0 / p
    invq = 0.0 if q == math.inf else 1.0 / q
    measurement = max(1.0, M.rows ** (0.5 - invp))
    # retraction runs in the Frobenius norm when q <= 2 (metric changed after)
    # and directly in Schatten-q when q > 2
    retraction = retraction_bound(2.0 if q <= 2 else q)
    metric = 2.0 ** max(0.0, invq - 0.5)
    sigma = M.sigma_min
    pipeline = measurement * (1.0 / sigma) * retraction * metric
    theory = None
    if a0 is not None:
        if a0 <= 0:
            raise ValueError(f"a0 must be positive, got {a0}")
        theory = measurement * (1.0 / math.sqrt(a0)) * retraction * metric
    return LipBound(
        pipeline=pipeline,
        theory=theory,
        sigma_min=sigma,
        measurement_factor=measurement,
        retraction_factor=retraction,
        metric_factor=metric,
    )


def _fit_at(F: Frame, c_vals: np.ndarray, x: np.ndarray):
    """``(coeff, diff, h)`` at x: the coefficients <x, f_k>, the misfits
    |<x, f_k>|^2 - c_k and h = sum_k diff_k^2."""
    coeff = F.synthesis.conj() @ x
    diff = np.abs(coeff) ** 2 - c_vals
    # diff @ diff is the square of np.linalg.norm(diff), bit for bit, so h
    # at x orders estimates exactly as the reported residual does
    return coeff, diff, float(diff @ diff)


def _residual_and_grad(F: Frame, c_vals: np.ndarray, x: np.ndarray,
                       dx: Optional[np.ndarray] = None, at_x: Optional[tuple] = None):
    """h = sum_k (|<y, f_k>|^2 - c_k)^2 at y = x, or at y = x + dx, and its
    gradient in the real coordinates of y (complex-packed). ``at_x`` is
    ``_fit_at(F, c_vals, x)`` when the caller holds it: a search around a
    fixed x computes it once, not once per evaluation."""
    coeff, diff, h = _fit_at(F, c_vals, x) if at_x is None else at_x
    if dx is not None:
        # h(x) plus its increment, so that the rounding scales with the
        # increment: the plain sum rounds by ~1e-14 h on a noisy row, more
        # than the decreases the line search compares near a minimiser
        dcoeff = F.synthesis.conj() @ dx
        rise = 2.0 * (coeff.conj() * dcoeff).real + np.abs(dcoeff) ** 2
        h += float(rise @ (2.0 * diff + rise))
        coeff, diff = coeff + dcoeff, diff + rise
    return h, 4.0 * (F.synthesis.T @ (diff * coeff))


def _whitener(F: Frame, x0: np.ndarray, scale: float, h0: float) -> np.ndarray:
    """The 2n x 2n (n x n real) matrix P of the search coordinates z of
    polish, x = x0 + P z in real coordinates, with P = scale * L^-T for the
    Cholesky factor L L^T = H of the Gauss-Newton metric of h / h0 in the
    unit-scaled coordinates x / scale at the start:
    H = (2 scale^4 / h0) J^T J, where row k of J is 2 <xh, f_k> f_k in real
    coordinates at xh = x0 / scale. H, so the search, does not change under
    x -> s x or F -> t F with c scaled to match. In the complex field J
    annihilates the phase direction i xh; adding (trace H / 2n) along it
    makes H definite. Without a Cholesky factor (a zero start) L = I."""
    xh = x0 / scale
    # sqrt(2 scale^4 / h0), formed without scale^4, which can overflow
    J = (2.0 * math.sqrt(2.0) * scale * scale / math.sqrt(h0)) * _to_real(
        (F.synthesis.conj() @ xh)[:, None] * F.synthesis)
    H = J.T @ J
    if F.field is Field.COMPLEX:
        v = _to_real(1j * xh)
        H += (np.trace(H) / H.shape[0]) * np.outer(v, v)
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return scale * np.eye(H.shape[0])
    # L^-1 from LAPACK directly: numpy's factor is C-ordered, so its
    # Fortran-ordered view is the upper triangular L^T, solved transposed
    l_inv, info = lapack.dtrtrs(L.T, np.eye(H.shape[0]), lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
    return scale * l_inv.T


def _polish(F: Frame, c, x0: RayPoint, iters: int):
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    vals = c.values if isinstance(c, Measurement) else np.asarray(c, dtype=np.float64)
    if vals.shape[0] != F.count:
        raise ValueError("measurement count does not match frame")
    x = x0.rep.entries
    at_x = _fit_at(F, vals, x)
    h0, g0 = _residual_and_grad(F, vals, x, None, at_x)
    # scale-free: residual and ||c|| both scale by s^2 under x -> s x
    if math.sqrt(h0) <= _FIT_FLOOR * float(np.linalg.norm(vals)):
        return x0, PolishStats(0, 1, "stationary")
    P = _whitener(F, x, x0.rep.norm() or 1.0, h0)
    start = (h0, P.T @ _to_real(g0))
    evaluations = 1

    def fun(z):
        nonlocal evaluations
        if not z.any():  # z = 0 is x0, evaluated above
            return start
        evaluations += 1
        h, g = _residual_and_grad(F, vals, x, _to_complex(P @ z, F.field), at_x)
        return h, P.T @ _to_real(g)

    z0 = np.zeros(P.shape[0])
    z, _, nit, _, stop = _lbfgs(fun, z0, maxiter=iters)
    if z is z0:
        return x0, PolishStats(nit, evaluations, stop)
    est = ray(Vector(x + _to_complex(P @ z, F.field), F.field))
    # the phase normalisation in ray() rounds; near an exact fit that alone
    # can raise the residual, so never hand back a worse fit than the start
    stats = PolishStats(nit, evaluations + 1, stop)
    if _residual_and_grad(F, vals, est.rep.entries)[0] > h0:
        return x0, stats
    return est, stats


def polish(
    F: Frame,
    c: Union[Measurement, np.ndarray],
    x0: RayPoint,
    iters: int = _POLISH_ITERS,
) -> RayPoint:
    """Refine a ray estimate by a local L-BFGS-B search (``core._lbfgs``)
    on the squared measurement residual h(x) = sum_k (|<x, f_k>|^2 - c_k)^2,
    with its Wirtinger gradient in the complex case, for at most ``iters``
    iterations.

    The search runs on h / h0, h0 the value at ``x0``, in coordinates z
    whitened by the Gauss-Newton metric of h / h0 at the start (Nocedal &
    Wright, Numerical Optimization, 7.2 and 10.3): x = x0 + ||x0|| L^-T z,
    L L^T = (2 ||x0||^4 / h0) J^T J for the Jacobian J of the intensities
    at x0 / ||x0||, so that the Hessian of h / h0 in z is close to the
    identity. ||J dy||^2 = ||A(x dy* + dy x*)||^2 for the lifted map A is
    the form whose least ratio to its denominator is the frame's lower
    stability constant a0, so the conditioning a0 measures leaves the
    search. In the complex field the phase direction i x0, along which
    h does not change, gets the mean eigenvalue of the metric. Under
    x -> s x, c -> s^2 c and under F -> t F, c -> t^2 c the objective, the
    metric and the coordinates are unchanged, so the result scales by s
    under the first and stays under the second, and no constant of the
    frame is needed. A zero start has
    no Gauss-Newton factor and is searched in unscaled coordinates.

    ``recover(..., do_polish=True)`` reports how the search ended (see
    ``PolishStats``). ``x0`` is returned without a search when its residual
    is at most 8 eps ||c|| (a fit to roundoff), when the search keeps its
    start, and also should the phase normalisation of the result leave a
    larger residual than ``x0`` has (possible only at roundoff level).
    """
    return _polish(F, c, x0, iters)[0]
