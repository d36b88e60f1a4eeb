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

from .core import Vector, _check_order, _lbfgs, _to_complex, _to_real
from .frames import Frame, LiftedMap, Measurement, build_lifted_map, measure, min_norm_inverse
from .frames import _vec_to_json
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
    residual-and-gradient ``evaluations`` (the start's included) and the
    ``stop`` rule: ``stationary`` (scaled gradient <= 1e-9, so also an exact
    fit; a start whose residual is already <= 8 eps ||c|| ends here with 0
    iterations and 1 evaluation), ``rel_decrease`` (a step lowered h by
    <= 1e-13 of h at the start), ``max_iters`` or ``line_search`` (the line
    search failed)."""

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
                         "entries": _vec_to_json(rep.entries, rep.field).tolist()},
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
    residual = float(np.linalg.norm(measure(F, est.rep).values - c.values))
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


def _residual_and_grad(F: Frame, c_vals: np.ndarray, x: np.ndarray):
    coeff = F.synthesis.conj() @ x
    intens = np.abs(coeff) ** 2
    diff = intens - c_vals
    # diff @ diff is the square of np.linalg.norm(diff), bit for bit, so h
    # orders estimates exactly as the reported residual does
    h = float(diff @ diff)
    grad = 4.0 * (F.synthesis.T @ (diff * coeff))
    return h, grad


def _polish(F: Frame, c, x0: RayPoint, iters: int):
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    vals = c.values if isinstance(c, Measurement) else np.asarray(c, dtype=np.float64)
    if vals.shape[0] != F.count:
        raise ValueError("measurement count does not match frame")
    h0 = _residual_and_grad(F, vals, x0.rep.entries)[0]
    # scale-free: residual and ||c|| both scale by s^2 under x -> s x
    if math.sqrt(h0) <= _FIT_FLOOR * float(np.linalg.norm(vals)):
        return x0, PolishStats(0, 1, "stationary")
    scale = x0.rep.norm() or 1.0

    def fun(y):
        h, g = _residual_and_grad(F, vals, scale * _to_complex(y, F.field))
        return h, scale * _to_real(g)

    y0 = _to_real(x0.rep.entries / scale)
    y, _, nit, nfev, stop = _lbfgs(fun, y0, maxiter=iters)
    stats = PolishStats(nit, 1 + nfev, stop)
    if y is y0:
        return x0, stats
    est = ray(Vector(scale * _to_complex(y, F.field), F.field))
    # the phase normalisation in ray() rounds; near an exact fit that alone
    # can raise the residual, so never hand back a worse fit than the start
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

    The search runs on h divided by its value at ``x0`` and in coordinates
    divided by ||x0||. Under x -> s x, c -> s^2 c both the objective and the
    coordinates are unchanged, so the result scales by s and no constant of
    the frame is needed. ``recover(..., do_polish=True)`` reports how the
    search ended (see ``PolishStats``). ``x0`` is returned without a search
    when its residual is at most 8 eps ||c|| (a fit to roundoff), when the
    search keeps its start, and also should the phase normalisation of the
    result leave a larger residual than ``x0`` has (possible only at
    roundoff level).
    """
    return _polish(F, c, x0, iters)[0]
