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

from .core import Vector
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
    """How the polish descent ended: accepted steps, residual-and-gradient
    evaluations, and the stopping rule that fired (``rel_decrease``,
    ``stationary``, ``line_search`` or ``max_iters``)."""

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


_POLISH_ITERS = 200  # the descent's iteration cap, as in recover(do_polish=True)


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
    for name, val in (("p", p), ("q", q)):
        if val != math.inf and not 1 <= val:
            raise ValueError(f"{name} must satisfy 1 <= {name} <= inf, got {val}")
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


def _descend(F: Frame, vals: np.ndarray, x: np.ndarray, iters: int):
    """The descent loop behind ``polish``: returns the final iterate and its
    ``PolishStats``."""
    h, grad = _residual_and_grad(F, vals, x)
    evaluations = 1
    t = None
    for it in range(iters):
        gnorm2 = float(np.vdot(grad, grad).real)
        if gnorm2 == 0.0:
            return x, PolishStats(it, evaluations, "stationary")
        # h/||grad||^2 scales as 1/s^2 under x -> s x, like the step itself
        t = h / gnorm2 if t is None else 2.0 * t
        for _ in range(60):
            xn = x - t * grad
            hn, gn = _residual_and_grad(F, vals, xn)
            evaluations += 1
            if hn <= h - 1e-4 * t * gnorm2:
                break
            t *= 0.5
        else:
            return x, PolishStats(it, evaluations, "line_search")
        x, grad, h_prev, h = xn, gn, h, hn
        if h_prev - h <= 1e-10 * h_prev:
            return x, PolishStats(it + 1, evaluations, "rel_decrease")
    return x, PolishStats(iters, evaluations, "max_iters")


def _polish(F: Frame, c, x0: RayPoint, iters: int):
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    vals = c.values if isinstance(c, Measurement) else np.asarray(c, dtype=np.float64)
    if vals.shape[0] != F.count:
        raise ValueError("measurement count does not match frame")
    x, stats = _descend(F, vals, x0.rep.entries.copy(), iters)
    est = ray(Vector(x, F.field))
    # the phase normalisation in ray() rounds; near an exact fit that alone
    # can raise the residual, so never hand back a worse fit than the start
    h0 = _residual_and_grad(F, vals, x0.rep.entries)[0]
    if _residual_and_grad(F, vals, est.rep.entries)[0] > h0:
        return x0, stats
    return est, stats


def polish(
    F: Frame,
    c: Union[Measurement, np.ndarray],
    x0: RayPoint,
    iters: int = _POLISH_ITERS,
) -> RayPoint:
    """Refine a ray estimate by gradient descent on the squared measurement
    residual h(x) = sum_k (|<x, f_k>|^2 - c_k)^2 (Wirtinger gradient in the
    complex case), with an Armijo backtracking line search. Accepted steps
    never increase the residual.

    The first trial step is h/||grad h||^2 at ``x0``; every later line search
    starts from twice the last accepted step. Both scale as 1/s^2 under
    x -> s x, c -> s^2 c, so the iterates scale by s and no constant of the
    frame is needed (the former ``b0_hint`` argument is gone). The descent
    stops when an accepted step lowers h by at most 1e-10 h, when the
    gradient is exactly zero (which includes an exact fit), when the line
    search fails after 60 halvings, or after ``iters`` iterations.
    ``recover(..., do_polish=True)`` reports which rule stopped it. Should
    the phase normalisation of the result leave a larger residual than
    ``x0`` has (possible only at roundoff level), ``x0`` is returned.
    """
    return _polish(F, c, x0, iters)[0]
