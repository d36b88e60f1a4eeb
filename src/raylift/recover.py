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

from .core import Field, Vector, _as_field_array, _check_order, _check_same
from .frames import Frame, LiftedMap, Measurement, build_lifted_map, min_norm_inverse
from .frames import (_STACK_ENTRIES, _coeff_rows, _conj_coeffs, _measurement, _phase_fill,
                     _row_dots, _vec_to_json)
from .metrics import RayPoint, ray
from .retraction import _retract_ray, retraction_bound

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
    """How a polish (see ``polish``) ended: its accepted Gauss-Newton steps
    (``iterations``), its residual evaluations (``evaluations``: the start's,
    one per trial step, and one of the result when a step was accepted) and
    the ``stop`` rule, each scale-free:

    - ``stationary``: the residual is at most 8 eps ||c|| (a fit to
      roundoff, at the start or after a step), the gradient is zero, or the
      decrease the Gauss-Newton model predicts for the next step is at most
      eps h, below the rounding of h itself;
    - ``rel_decrease``: an accepted step lowered h by at most 1e-13 of h at
      the start without halving it (a step that halves h is still
      converging, as on a noiseless row, which so runs on to roundoff);
    - ``line_search``: the damping passed its cap of 1e10 without a step that
      lowers h;
    - ``max_iters``: the cap on accepted steps was reached.
    """

    iterations: int
    evaluations: int
    stop: str


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one inversion: the estimated ray, the measurement-space
    residual, intermediate stage norms and, when iterative polish ran, how
    it ended."""

    estimate: RayPoint
    residual: float
    pipeline_stage_norms: dict
    polish: Optional[PolishStats] = None

    def __post_init__(self):
        if not (math.isfinite(self.residual) and self.residual >= 0):
            raise ValueError(f"residual must be finite and >= 0, got {self.residual}")

    @property
    def polished(self) -> bool:
        return self.polish is not None

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


_POLISH_ITERS = 200  # polish's cap on accepted steps
_EPS = float(np.finfo(np.float64).eps)
# a start whose residual is at most this times ||c|| fits to roundoff: the
# residual of the exact ray of a noiseless complex row, computed in floating
# point, reads 0.1-3.3 eps * ||c|| (Gaussian frames, n 2-32)
_FIT_FLOOR = 8 * _EPS
_DECREASE_TOL = 1e-13  # an accepted step lowering h by at most this times h0 ends
_DAMP_START = 1e-6  # the damping at the start, in units of H's mean eigenvalue
_DAMP_CAP = 1e10  # damping above this without a decrease ends the row
_STOPS = ("stationary", "rel_decrease", "line_search", "max_iters")
_ACTIVE, (_STATIONARY, _REL_DECREASE, _LINE_SEARCH, _MAX_ITERS) = -1, range(4)


def _lifted_for(F: Frame, lifted: Optional[LiftedMap]) -> LiftedMap:
    """``lifted`` when it was built from F's field and vectors, else a
    ValueError; F's map, built now, when it is None. The identity test comes
    first, so a caller that passes the map of the very frame pays nothing."""
    if lifted is None:
        return build_lifted_map(F)
    G = lifted.frame
    if G is not F and (G.field is not F.field or not np.array_equal(G.synthesis, F.synthesis)):
        raise ValueError(
            f"lifted map was built from another frame ({G.field.value}, {G.count} x {G.dim}) "
            f"than this one ({F.field.value}, {F.count} x {F.dim})")
    return lifted


def recover(
    F: Frame,
    c: Union[Measurement, np.ndarray],
    lifted: Optional[LiftedMap] = None,
) -> RecoveryReport:
    """Invert a measurement vector to a ray estimate.

    When the lifted measurement matrix has full column rank and c lies on the
    measurement range, the estimate recovers the original ray exactly (up to
    numerical tolerance). Pass a prebuilt ``lifted`` map to amortize the
    factorization over many measurements; one built from another frame is
    refused with a ValueError.

    The retraction and the un-lift read the same top eigenpair, so one
    ``eigh`` serves both: the estimate is the ray of sqrt(lam1 - lam2) u1.
    """
    c = _measurement(c, F.count)
    M = _lifted_for(F, lifted)
    T = min_norm_inverse(M, c)
    coef, est = _retract_ray(T)
    stage_norms = {
        "pseudoinverse_fro": float(np.linalg.norm(T.entries)),
        # (lam1 - lam2) u1 u1* has Frobenius norm lam1 - lam2
        "retraction_fro": coef,
    }
    # scored by polish's kernel: the residual is sqrt(h)
    h = _fit_rows(F, c.values[None], est.rep.entries[None])[2]
    return RecoveryReport(
        estimate=est,
        residual=math.sqrt(h[0]),
        pipeline_stage_norms=stage_norms,
    )


@dataclass(frozen=True)
class LipBound:
    """Lipschitz ceiling of the inversion pipeline from (R^m, ||.||_p) to rays
    with the Schatten-q metric.

    ``pipeline`` multiplies the certified constants of the constructive
    stages (measurement-norm change, linear min-norm inversion, retraction,
    metric change). It bounds an estimate's error only when
    ``rank == cols``: on complex n = 8, m = 32 (frame seed 1) it is finite,
    2.26 at p = q = 2, while a noiseless estimate lies 4.1 off in the lift
    metric.

    ``theory``, given a lower stability constant a0, replaces the inversion
    factor 1/sigma_min by 1/sqrt(a0). At p = 2, q = 1 it is the paper's
    constant (4 + 3 sqrt(2)) / sqrt(a0) for its left inverse omega, whose
    linear stage is a Kirszbraun extension; no command runs that omega.
    ``theory`` is not a ceiling of ``recover``'s pipeline: sqrt(a0) /
    sigma_min, with a0 sampled, has read from 0.80 to 9.9 on Gaussian
    frames of n = 3 to 16, so ``theory`` falls on either side of
    ``pipeline``.
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
    metric order q; it bounds an estimate's error only when ``rank == cols``.
    With ``a0``, also the paper's constant for its Kirszbraun-extended
    omega, which bounds that inverse, not ``recover`` (see ``LipBound``).
    A ``lifted`` map built from another frame is refused with a ValueError."""
    _check_order(p)
    _check_order(q, "q")
    M = _lifted_for(F, lifted)
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
        if not 0 < a0 < math.inf:
            raise ValueError(f"a0 must be positive and finite, got {a0}")
        theory = measurement * (1.0 / math.sqrt(a0)) * retraction * metric
    return LipBound(
        pipeline=pipeline,
        theory=theory,
        sigma_min=sigma,
        measurement_factor=measurement,
        retraction_factor=retraction,
        metric_factor=metric,
    )


def _fit_rows(F: Frame, C: np.ndarray, X: np.ndarray,
              D: Optional[np.ndarray] = None, at: Optional[tuple] = None):
    """``(B, R, h)`` for each row x of a (k, n) stack against its row c of C:
    B = conj(<x, f_k>), the misfits R = |B|^2 - c and h = R . R, whose square
    root is the reported residual bit for bit. Given steps D and ``at`` =
    ``(B, R, h)`` at X, the same at X + D, with h as h(X) plus its increment,
    so that the rounding scales with the increment: the plain sum rounds by
    ~1e-14 h on a noisy row, more than the decreases compared near a
    minimiser. Each call is one evaluation per row."""
    if D is None:
        B = _conj_coeffs(F, X)
        R = np.abs(B) ** 2 - C
        return B, R, _row_dots(R, R)
    B, R, h = at
    dB = _conj_coeffs(F, D)
    rise = 2.0 * (B.conj() * dB).real + np.abs(dB) ** 2
    return B + dB, R + rise, h + _row_dots(rise, 2.0 * R + rise)


def _normal_eqs(F: Frame, X: np.ndarray, B: np.ndarray, R: np.ndarray):
    """The Gauss-Newton system of each row at x: ``(H, g, mu)`` with
    H = J^T J and g = J^T R for the Jacobian J of the misfits in the real
    coordinates of x, each entry's real part followed by its imaginary part
    (the float64 view of x; row k of J is the view of 2 <x, f_k> f_k), and
    mu = trace(H) / d, the mean eigenvalue. In the complex field J
    annihilates the phase direction i x, along which h does not change; H
    gets mu along it (``frames._phase_fill``), so it is definite, and g,
    orthogonal to i x, gives a step without a phase component. Rows must be
    nonzero."""
    J = _coeff_rows(F, B)  # J / 2
    Jt = J.transpose(0, 2, 1)
    H = 4.0 * (Jt @ J)
    g = 2.0 * (Jt @ R[:, :, None])[:, :, 0]
    mu = np.trace(H, axis1=1, axis2=2) / H.shape[-1]
    _phase_fill(H, X, mu)
    return H, g, mu


def _polish_stack(F: Frame, C: np.ndarray, X: np.ndarray):
    """Damped Gauss-Newton (see ``polish``) on each row x of a (k, n) stack of
    starts against its row of C, all rows at once, each accepted, rejected
    and stopped on its own. Returns ``(X, h0, iterations, evaluations,
    stops)``: each row's last accepted iterate (its start when none was), h
    at the start, the accepted steps, the evaluations and the index of the
    stop rule in ``_STOPS``. The Jacobian stack is (k, m, d): callers pass
    blocks of at most ``_STACK_ENTRIES`` / (m n) rows."""
    k = X.shape[0]
    X = X.copy()
    B, R, h = _fit_rows(F, C, X)
    h0 = h.copy()
    # scale-free: h and ||c||^2 both scale by s^4 under x -> s x; h after a
    # step is a sum of increments, which can round below 0 at an exact fit
    floor = _FIT_FLOOR * _FIT_FLOOR * _row_dots(C, C)
    iterations = np.zeros(k, np.intp)
    evaluations = np.ones(k, np.intp)
    stop = np.full(k, _ACTIVE)
    stop[~X.any(axis=1)] = _STATIONARY  # x = 0 has J = 0, so g = 0
    stop[h <= floor] = _STATIONARY
    act = np.flatnonzero(stop == _ACTIVE)
    d = X.view(np.float64).shape[1]
    H, g, mu = np.empty((k, d, d)), np.empty((k, d)), np.empty(k)
    H[act], g[act], mu[act] = _normal_eqs(F, X[act], B[act], R[act])
    stop[act[~g[act].any(axis=1)]] = _STATIONARY
    lam, nu = np.full(k, _DAMP_START), np.full(k, 2.0)
    eye = np.eye(d)
    while True:
        act = np.flatnonzero(stop == _ACTIVE)
        if act.size == 0:
            break
        damp = lam[act] * mu[act]
        ga = g[act]
        D = np.linalg.solve(H[act] + damp[:, None, None] * eye, -ga[:, :, None])[:, :, 0]
        # the decrease of the Gauss-Newton model ||R + J D||^2
        pred = damp * _row_dots(D, D) - _row_dots(ga, D)
        flat = pred <= _EPS * h[act]
        stop[act[flat]] = _STATIONARY
        act, pred = act[~flat], pred[~flat]
        if act.size == 0:
            break
        D = np.ascontiguousarray(D[~flat]).view(F.field.dtype)
        Bt, Rt, ht = _fit_rows(F, C[act], X[act], D, (B[act], R[act], h[act]))
        evaluations[act] += 1
        ok = ht < h[act]
        rej = act[~ok]
        lam[rej] *= nu[rej]
        nu[rej] *= 2.0
        stop[rej[lam[rej] > _DAMP_CAP]] = _LINE_SEARCH
        acc = act[ok]
        drop = h[acc] - ht[ok]
        rho = drop / pred[ok]
        # gain-ratio update (Madsen, Nielsen & Tingleff 2004, 3.2), held
        # above eps so that H + damp I stays nonsingular in floating point
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        lam[acc] = np.maximum(lam[acc] * shrink, _EPS)
        nu[acc] = 2.0
        X[acc] += D[ok]
        # h afresh from the misfits: a sum of increments keeps the absolute
        # rounding of the largest h it passed through, ~eps h0
        B[acc], R[acc] = Bt[ok], Rt[ok]
        h[acc] = _row_dots(R[acc], R[acc])
        iterations[acc] += 1
        stop[acc[iterations[acc] >= _POLISH_ITERS]] = _MAX_ITERS
        # a step that halves h is still converging, as on a noiseless row
        stop[acc[(drop <= _DECREASE_TOL * h0[acc]) & (h[acc] > drop)]] = _REL_DECREASE
        stop[acc[h[acc] <= floor[acc]]] = _STATIONARY
        acc = acc[stop[acc] == _ACTIVE]
        H[acc], g[acc], mu[acc] = _normal_eqs(F, X[acc], B[acc], R[acc])
    return X, h0, iterations, evaluations, stop


def polish(F: Frame, C: np.ndarray, starts: list) -> list:
    """Refine the ray ``starts[i]`` against row i of the finite real (k, m)
    stack C by damped Gauss-Newton (Levenberg-Marquardt; Nocedal & Wright,
    Numerical Optimization, 10.3) on the squared measurement residual
    h(x) = sum_k (|<x, f_k>|^2 - c_k)^2, for at most 200 accepted steps.
    The rows run as one stack, in blocks of at most ``_STACK_ENTRIES`` /
    (m n) rows, each stopped on its own, so a row gets what polishing it
    alone gives. Returns ``(estimate, residual, PolishStats)`` per row. Each
    start must be a ray of the frame's field and dimension.

    Each step solves (H + lam mu I) d = -g, H = J^T J and g = J^T R for the
    Jacobian J of the misfits R in the real coordinates of x, mu the mean
    eigenvalue of H. In the complex field J annihilates the phase direction
    i x, along which h does not change; H gets mu along it. The damping lam
    is what adapts: it starts at 1e-6, a step is accepted when it lowers h,
    and the gain ratio (actual over predicted decrease) lowers lam after an
    accepted step, while a rejected one raises it and refactors without
    forming J again. ||J d||^2 = ||A(x d* + d x*)||^2 for the lifted map A,
    the form whose least ratio to its denominator is the frame's lower
    stability constant a0, so a0's conditioning is what the steps undo.

    Every test is relative: under x -> s x, c -> s^2 c and under F -> t F,
    c -> t^2 c the step scales by s and by 1, the damping is in units of mu,
    and each stop (see ``PolishStats``) compares h or a decrease of h with
    h itself, with h at the start or with ||c||^2, so the result scales by s
    under the first and stays under the second, and no constant of the
    frame is needed.

    A row keeps its start, without a step, when the start's residual is at
    most 8 eps ||c|| (a fit to roundoff) or when no step lowers h, and also
    should the phase normalisation of the result leave a larger residual
    than the start has (possible only at roundoff level).

    Measured, not proven: under Gaussian noise on the intensities the
    polished estimate sits at the Cramer-Rao bound (Balan,
    arXiv:1304.1839). On 11 full-rank Gaussian frames (real and complex,
    n = 4 to 16, m up to 300), polished MSE / CRLB read 0.93-1.02 from
    the min-norm start, against 2.3-36 for the unpolished pipeline, which
    is worst near m = cols.
    """
    C = _as_field_array(C, Field.REAL, 2, "measurement")
    if C.shape[1] != F.count:
        raise ValueError(f"measurement count {C.shape[1]} does not match frame count {F.count}")
    if len(starts) != C.shape[0]:
        raise ValueError(f"polish needs one start per row: {len(starts)} starts, "
                         f"{C.shape[0]} rows")
    for s in starts:
        _check_same(F, s.rep)
    X0 = np.array([s.rep.entries for s in starts])
    step = max(1, _STACK_ENTRIES // F.synthesis.size)
    out = []
    for lo in range(0, len(starts), step):
        Cb = C[lo:lo + step]
        X, h, iterations, evaluations, stop = _polish_stack(F, Cb, X0[lo:lo + step])
        ests = starts[lo:lo + step]
        moved = np.flatnonzero(iterations)
        if moved.size:
            cand = [ray(Vector(X[i], F.field)) for i in moved]
            hc = _fit_rows(F, Cb[moved], np.array([e.rep.entries for e in cand]))[2]
            evaluations[moved] += 1
            for e, i, hi in zip(cand, moved, hc):
                if hi <= h[i]:
                    ests[i], h[i] = e, hi
        out += [(e, math.sqrt(hi), PolishStats(int(it), int(ev), _STOPS[s]))
                for e, hi, it, ev, s in zip(ests, h, iterations, evaluations, stop)]
    return out
