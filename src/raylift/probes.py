"""Numerical estimators for the frame stability constants, Monte-Carlo
bi-Lipschitz probes, phase-retrievability verdicts, and certified
ball-intersection counterexamples for the Kirszbraun extension property.

The lower stability constant of a frame is the minimum over unit pairs (u, v)
of

    Q(u, v) = sum_k |Re(<u, f_k> conj(<v, f_k>))|^2

divided by ||u||^2 ||v||^2 - Im(<u, v>)^2. A frame is phase retrievable iff
that minimum is positive. Each seeded start u0 takes one alternation of exact
block minimization (for fixed u the objective is a quadratic form in the real
coordinates of v, so the best partner v is a generalized smallest
eigenvector): u0's best partner v, then v's best partner u. That screens the
starts without converging; the best three candidates are refined jointly by
L-BFGS-B on the ratio with its analytic gradient in the packed real
coordinates of (u, v); the objective is divided by its start value, which
makes the stopping rules independent of the frame's scale. n = 2 real frames
additionally get an exhaustive angle-grid oracle.

The upper stability constant has a closed form: it is the maximum over unit
u of sum_k |<u, f_k>|^4, found by a batched multistart fixed-point ascent,
and it is bracketed above by the largest eigenvalue of the Gram matrix
|<f_k, f_l>|^2, which is sigma_max(lifted map)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import optimize

from .core import Field, Vector
from .frames import Frame
from .metrics import _lift_dist_stack, align_dist, lift_dist, ray

__all__ = [
    "LowerLipEstimate",
    "estimate_lower_lip",
    "grid_lower_lip",
    "lower_lip_objective",
    "estimate_upper_lip",
    "upper_lip_ceiling",
    "pr_verdict",
    "probe_bilipschitz",
    "verify_property_k",
    "certify_min_above",
]

_DEN_CUTOFF = 1e-9


# --- lower stability constant -------------------------------------------------

@dataclass(frozen=True)
class LowerLipEstimate:
    """Smallest objective value found, with the witness pair that attains it.

    The value is an upper bound on the true constant (it is a minimum over
    explored points); method="grid" marks values cross-checked against the
    exhaustive n=2 angle grid. ``kept_starts`` counts the multistarts whose
    one block alternation did not degenerate; the ``refine_*`` fields sum the
    gradient refinement's iterations and objective evaluations over the
    refined candidates and say whether every one of them met its stopping
    rule.
    """

    value: float
    argmin_u: Vector
    argmin_v: Vector
    method: str
    starts: int
    grid_resolution: Optional[int] = None
    kept_starts: int = 0
    refine_iterations: int = 0
    refine_evaluations: int = 0
    refine_converged: bool = True


def lower_lip_objective(F: Frame, u: np.ndarray, v: np.ndarray):
    """Return (Q, denominator) of the stability objective at a vector pair."""
    fs = F.synthesis
    a = fs.conj() @ u
    b = fs.conj() @ v
    terms = np.real(a * b.conj())
    q = float(np.sum(terms * terms))
    nu2 = float(np.vdot(u, u).real)
    nv2 = float(np.vdot(v, v).real)
    im = float(np.imag(np.vdot(v, u))) if F.field is Field.COMPLEX else 0.0
    return q, nu2 * nv2 - im * im


def _to_real(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag])


def _to_complex(r: np.ndarray) -> np.ndarray:
    n = r.size // 2
    return r[:n] + 1j * r[n:]


def _orth_complement(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the unit vector w
    (Householder reflection mapping e1 to w, minus its first column)."""
    d = w.size
    e = np.zeros(d)
    e[0] = 1.0
    u = w - e
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        return np.eye(d)[:, 1:]
    u = u / nu
    H = np.eye(d) - 2.0 * np.outer(u, u)
    return H[:, 1:]


def _best_partner_real(F: Frame, u: np.ndarray):
    fs = F.synthesis
    cu = fs @ u
    S = (fs * (cu * cu)[:, None]).T @ fs
    w, V = np.linalg.eigh(S)
    return float(w[0]), V[:, 0]


def _best_partner_complex(F: Frame, u: np.ndarray):
    fs = F.synthesis
    a = fs.conj() @ u
    wk = a[:, None] * fs
    L = np.concatenate([wk.real, wk.imag], axis=1)
    S = L.T @ L
    w = _to_real(1j * u)
    B = _orth_complement(w)
    Sw = S @ w
    wSw = float(w @ Sw)
    SB = S @ B
    St = B.T @ SB
    beta_of_z = None
    if wSw > 1e-14 * max(1.0, float(np.trace(S))):
        g = B.T @ Sw
        St = St - np.outer(g, g) / wSw
        beta_of_z = lambda z: -float(g @ z) / wSw
    vals, vecs = np.linalg.eigh((St + St.T) / 2)
    z = vecs[:, 0]
    vr = B @ z
    if beta_of_z is not None:
        vr = vr + beta_of_z(z) * w
    v = _to_complex(vr)
    v = v / np.linalg.norm(v)
    return float(vals[0]), v


def _alternating_min(F: Frame, u0: np.ndarray):
    """One alternation of exact block minimization from u0: the best partner
    v of u0, then the best partner u of v. Returns (value, u, v)."""
    step = _best_partner_real if F.field is Field.REAL else _best_partner_complex
    _, v = step(F, u0 / np.linalg.norm(u0))
    val, u = step(F, v)
    return val, u, v


def _ratio_at(F: Frame, u: np.ndarray, v: np.ndarray) -> float:
    q, den = lower_lip_objective(F, u, v)
    if den <= _DEN_CUTOFF:
        return math.inf
    return q / den


def _pack_pair(F: Frame, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    if F.field is Field.COMPLEX:
        return np.concatenate([_to_real(u), _to_real(v)])
    return np.concatenate([u, v])


def _unpack_pair(F: Frame, rz: np.ndarray):
    half = rz.size // 2
    if F.field is Field.COMPLEX:
        return _to_complex(rz[:half]), _to_complex(rz[half:])
    return rz[:half], rz[half:]


def _ratio_and_grad(F: Frame, rz: np.ndarray):
    """The stability ratio Q/den at a packed pair and its gradient in the
    packed real coordinates; (inf, 0) where the denominator degenerates.

    With a = conj(F) u, b = conj(F) v and t = Re(a conj(b)), the real
    gradient of Q is 2 F^T (t b) in u and 2 F^T (t a) in v; the
    denominator ||u||^2 ||v||^2 - s^2 with s = Im<v, u> has gradient
    2 ||v||^2 u - 2 s (i v) in u and 2 ||u||^2 v + 2 s (i u) in v.
    """
    u, v = _unpack_pair(F, rz)
    fs = F.synthesis
    a = fs.conj() @ u
    b = fs.conj() @ v
    t = np.real(a * b.conj())
    nu2 = float(np.vdot(u, u).real)
    nv2 = float(np.vdot(v, v).real)
    du, dv = nv2 * u, nu2 * v
    den = nu2 * nv2
    if F.field is Field.COMPLEX:
        s = float(np.imag(np.vdot(v, u)))
        den -= s * s
        du = du - s * 1j * v
        dv = dv + s * 1j * u
    if den <= _DEN_CUTOFF * max(nu2 * nv2, 1e-30):
        return math.inf, np.zeros_like(rz)
    r = float(t @ t) / den
    gu = 2.0 * (fs.T @ (t * b) - r * du) / den
    gv = 2.0 * (fs.T @ (t * a) - r * dv) / den
    return r, _pack_pair(F, gu, gv)


def _polish_pair(F: Frame, u: np.ndarray, v: np.ndarray):
    """Local gradient refinement of a candidate pair by L-BFGS-B. The ratio
    is invariant under separate real rescaling of u and v, so the raw
    coordinates can be searched unconstrained; block alternation alone
    stalls on flat valleys and at block-optimal saddles. The objective and
    its gradient are divided by the ratio at the start, so the stopping
    rules do not depend on the frame's scale.

    Returns (value, u, v, iterations, evaluations, converged); the start is
    returned when the search ends at a non-finite or larger value."""
    x0 = _pack_pair(F, u, v)
    r0, _ = _ratio_and_grad(F, x0)
    if not (0.0 < r0 < math.inf):
        # a zero ratio is already the global minimum
        return r0, u, v, 0, 0, True

    def obj(rz):
        r, g = _ratio_and_grad(F, rz)
        return r / r0, g / r0

    res = optimize.minimize(obj, x0, jac=True, method="L-BFGS-B",
                            options={"ftol": 1e-13, "gtol": 1e-9})
    stats = (int(res.nit), int(res.nfev), bool(res.success))
    value = float(res.fun) * r0
    if not math.isfinite(value) or value > r0:
        return (r0, u, v) + stats
    uu, vv = _unpack_pair(F, res.x)
    return (value, uu / np.linalg.norm(uu), vv / np.linalg.norm(vv)) + stats


def grid_lower_lip(F: Frame, resolution: int = 2048):
    """Exhaustive angle-grid oracle for n = 2 real frames: evaluates the
    stability objective on all angle pairs and locally polishes the best one.
    Returns (value, u, v)."""
    if F.field is not Field.REAL or F.dim != 2:
        raise ValueError("grid oracle applies to n = 2 real frames only")
    fs = F.synthesis
    th = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)])
    S = (fs @ U) ** 2
    Q = S.T @ S
    i, j = np.unravel_index(int(np.argmin(Q)), Q.shape)
    best = float(Q[i, j])
    ti, tj = float(th[i]), float(th[j])

    def angle_obj(ab):
        uu = np.array([math.cos(ab[0]), math.sin(ab[0])])
        vv = np.array([math.cos(ab[1]), math.sin(ab[1])])
        return lower_lip_objective(F, uu, vv)[0]

    # start the simplex at grid-step scale so the polish stays in the
    # basin the exhaustive scan located
    step = 2 * np.pi / resolution
    x0 = np.array([ti, tj])
    simplex = np.array([x0, x0 + [step, 0.0], x0 + [0.0, step]])
    res = optimize.minimize(
        angle_obj, x0, method="Nelder-Mead",
        options={"xatol": 1e-14, "fatol": 1e-16, "maxiter": 4000,
                 "initial_simplex": simplex},
    )
    if res.fun <= best:
        best = float(res.fun)
        ti, tj = float(res.x[0]), float(res.x[1])
    u = np.array([math.cos(ti), math.sin(ti)])
    v = np.array([math.cos(tj), math.sin(tj)])
    return best, u, v


def estimate_lower_lip(F: Frame, starts: int = 64, seed: int = 0) -> LowerLipEstimate:
    """Estimate the frame's lower stability constant: one block alternation
    from each of ``starts`` seeded starts, then L-BFGS-B refinement of the
    three best pairs; n = 2 real frames are cross-checked against the
    exhaustive grid oracle (the two must agree to 1e-6)."""
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    rdim = F.dim if F.field is Field.REAL else 2 * F.dim
    candidates = []
    for s in range(starts):
        rng = np.random.default_rng([seed, s])
        u0 = rng.standard_normal(rdim)
        u0 = u0 if F.field is Field.REAL else _to_complex(u0)
        _, u, v = _alternating_min(F, u0)
        _, den = lower_lip_objective(F, u, v)
        if den <= _DEN_CUTOFF:
            continue
        candidates.append((_ratio_at(F, u, v), u, v))
    if not candidates:
        raise RuntimeError("all multistarts degenerated; try more starts")
    candidates.sort(key=lambda c: c[0])
    best = candidates[0]
    iterations = evaluations = 0
    converged = True
    for r, u, v in candidates[:3]:
        *polished, nit, nfev, ok = _polish_pair(F, u, v)
        iterations += nit
        evaluations += nfev
        converged &= ok
        if polished[0] < best[0]:
            best = polished
    value, u, v = best
    method, resolution = "multistart", None
    if F.field is Field.REAL and F.dim == 2:
        gval, gu, gv = grid_lower_lip(F, resolution=2048)
        if abs(gval - value) > 1e-6:
            raise RuntimeError(
                f"grid oracle ({gval:.3e}) and multistart ({value:.3e}) disagree"
            )
        if gval < value:
            value, u, v = gval, gu, gv
        method, resolution = "grid", 2048
    # report the value exactly at the witnesses
    q, den = lower_lip_objective(F, u, v)
    return LowerLipEstimate(
        value=q / den,
        argmin_u=Vector(u, F.field),
        argmin_v=Vector(v, F.field),
        method=method,
        starts=starts,
        grid_resolution=resolution,
        kept_starts=len(candidates),
        refine_iterations=iterations,
        refine_evaluations=evaluations,
        refine_converged=converged,
    )


# --- pair sampling -------------------------------------------------------------

_BLOCK = 512


def _sample_vector_blocks(rng: np.random.Generator, k: int, dim: int, field: Field):
    a = rng.standard_normal((k, dim))
    if field is Field.COMPLEX:
        a = a + 1j * rng.standard_normal((k, dim))
    return a


def _pair_blocks(seed: int, samples: int, dim: int, field: Field):
    """Deterministic (x, y) sample pairs in fixed-size blocks so a longer run
    extends a shorter one sample for sample."""
    out = 0
    block = 0
    while out < samples:
        rng = np.random.default_rng([seed, block])
        x = _sample_vector_blocks(rng, _BLOCK, dim, field)
        y = _sample_vector_blocks(rng, _BLOCK, dim, field)
        take = min(_BLOCK, samples - out)
        yield x[:take], y[:take]
        out += take
        block += 1


def _measure_batch(F: Frame, x: np.ndarray) -> np.ndarray:
    return np.abs(x @ F.synthesis.conj().T) ** 2


def estimate_upper_lip(F: Frame, samples: int = 2000, seed: int = 0, refine: bool = True) -> float:
    """The frame's upper stability constant b0, the max over pairs of
    ||alpha(x) - alpha(y)||^2 / d1(x, y)^2.

    b0 has the closed form max over unit u of sum_k |<u, f_k>|^4 (y = 0
    attains it; for other pairs split xx* - yy* into its two eigen-terms and
    use the triangle inequality). The sampled pair ratios are lower bounds;
    ``refine`` adds the exact maximiser found by a batched multistart
    fixed-point ascent on the sphere and returns the larger of the two. The
    value is bracketed above by ``upper_lip_ceiling(F)`` =
    sigma_max(lifted map)^2.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    best = 0.0
    for x, y in _pair_blocks(seed, samples, F.dim, F.field):
        num = np.sum((_measure_batch(F, x) - _measure_batch(F, y)) ** 2, axis=1)
        den = _lift_dist_stack(x, y, 1) ** 2
        scale4 = (np.sum(np.abs(x) ** 2, axis=1) + np.sum(np.abs(y) ** 2, axis=1)) ** 2
        keep = den > 1e-12 * np.maximum(1.0, scale4)
        if np.any(keep):
            best = max(best, float(np.max(num[keep] / den[keep])))
    if refine:
        best = max(best, _b0_ascent(F, seed)[0])
    return best


_ASCENT_STARTS = 64
_ASCENT_MAX_ITERS = 1000
_ASCENT_RTOL = 1e-13


def _quartic_and_grad(F: Frame, rz: np.ndarray):
    """sum_k |<u, f_k>|^4 / ||u||^4 at the packed real coordinates of u and
    its gradient there, 4 (G - value ||u||^2 u) / ||u||^4 with
    G = F^T (|a|^2 a) and a = conj(F) u."""
    u = _to_complex(rz) if F.field is Field.COMPLEX else rz
    fs = F.synthesis
    a = fs.conj() @ u
    p = np.abs(a) ** 2
    n2 = float(np.vdot(u, u).real)
    value = float(p @ p) / (n2 * n2)
    g = 4.0 * (fs.T @ (p * a) - value * n2 * u) / (n2 * n2)
    return value, (_to_real(g) if F.field is Field.COMPLEX else g)


def _b0_ascent(F: Frame, seed: int = 0):
    """max over unit u of sum_k |<u, f_k>|^4.

    Fixed-point ascent from 64 seeded starts, iterated as one batch:
    U <- G / ||G|| per row with G = (|A|^2 A) F and A = U conj(F)^T. G is a
    quarter of the gradient and the objective is convex, so no step lowers
    a value (SS-HOPM, Kolda & Mayo 2011). The batch stops once no start's
    relative gain exceeds 1e-13, or after 1000 steps. At a degenerate
    maximum (one where the objective falls off at fourth order, as for
    r2_pr3) the ascent slows to a crawl, so the best start is then refined
    by L-BFGS-B with the objective divided by its start value.

    Returns (value, iterations), iterations counting the batched steps."""
    fs = F.synthesis
    U = _sample_vector_blocks(np.random.default_rng(seed), _ASCENT_STARTS, F.dim, F.field)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    A = U @ fs.conj().T
    vals = np.zeros(_ASCENT_STARTS)
    iterations = 0
    while iterations < _ASCENT_MAX_ITERS:
        P = np.abs(A) ** 2
        new = np.sum(P * P, axis=1)
        gain = np.max((new - vals) / new)
        vals = np.maximum(vals, new)
        if gain <= _ASCENT_RTOL:
            break
        iterations += 1
        U = (P * A) @ fs
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        A = U @ fs.conj().T
    i = int(np.argmax(vals))
    v0 = vals[i]

    def obj(rz):
        value, g = _quartic_and_grad(F, rz)
        return -value / v0, -g / v0

    x0 = _to_real(U[i]) if F.field is Field.COMPLEX else U[i]
    res = optimize.minimize(obj, x0, jac=True, method="L-BFGS-B",
                            options={"ftol": 1e-15, "gtol": 1e-12})
    return max(float(v0), -float(res.fun) * v0), iterations


def upper_lip_ceiling(F: Frame) -> float:
    """Certified upper end of the b0 bracket: the largest eigenvalue of the
    m x m Gram matrix |<f_k, f_l>|^2, which equals sigma_max(lifted map)^2
    because the lifted map A satisfies A A* = that matrix. No lifted map is
    built; the cost is one O(m^3) symmetric eigenvalue solve."""
    fs = F.synthesis
    gram = np.abs(fs.conj() @ fs.T) ** 2
    return float(np.linalg.eigvalsh(gram)[-1])


def pr_verdict(
    F: Frame,
    threshold: float = 1e-8,
    estimate: Optional[LowerLipEstimate] = None,
    starts: int = 64,
    seed: int = 0,
) -> str:
    """Phase-retrievability verdict for a frame.

    "retrievable" when the estimated lower stability constant clears the
    threshold; "not_retrievable" only with an explicit witness pair whose
    objective vanishes while its denominator does not (estimates alone never
    condemn a frame); "indeterminate" otherwise.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    est = estimate if estimate is not None else estimate_lower_lip(F, starts=starts, seed=seed)
    if est.value >= threshold:
        return "retrievable"
    q, den = lower_lip_objective(F, est.argmin_u.entries, est.argmin_v.entries)
    norms4 = float(np.sum(np.abs(F.synthesis) ** 2, axis=1).max()) ** 2
    if q <= 1e-12 * max(1.0, norms4) and den > threshold:
        return "not_retrievable"
    return "indeterminate"


def probe_bilipschitz(F: Frame, samples: int = 10_000, seed: int = 0) -> dict:
    """Sample ||alpha(x) - alpha(y)|| / d1(x, y) over random ray pairs.

    Coincident rays are excluded (the ratio is undefined there). The squared
    minimum can never fall below the frame's true lower stability constant.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    ratios = []
    for x, y in _pair_blocks(seed, samples, F.dim, F.field):
        num = np.sqrt(np.sum((_measure_batch(F, x) - _measure_batch(F, y)) ** 2, axis=1))
        den = _lift_dist_stack(x, y, 1)
        scale = np.sum(np.abs(x) ** 2, axis=1) + np.sum(np.abs(y) ** 2, axis=1)
        keep = den > 1e-12 * np.maximum(1.0, scale)
        ratios.append(num[keep] / den[keep])
    ratios = np.concatenate(ratios)
    return {
        "min_ratio": float(np.min(ratios)),
        "max_ratio": float(np.max(ratios)),
        "kept": int(ratios.size),
        "ratios": ratios,
    }


# --- certified ball-intersection counterexamples --------------------------------

_MAX_LEVELS = 60  # bisection levels before the certifier gives up


def certify_min_above(
    eval_batch: Callable[[np.ndarray], np.ndarray],
    lip_batch: Callable[[np.ndarray, float], np.ndarray],
    lows: Sequence[float],
    highs: Sequence[float],
    init_spacing: float,
    target: float,
    descend: Optional[Callable[[np.ndarray], tuple]] = None,
):
    """Decide whether min over the box of a Lipschitz objective exceeds
    ``target``.

    Adaptive bisection: a cell whose center value minus (local Lipschitz
    bound) * (half diagonal) stays above target cannot contain a point at or
    below target and is pruned; when every cell is pruned the continuum
    minimum over the box certifiably exceeds target. A point with value <=
    target found along the way (by the grid or by local descent from the best
    point) decides the other way.

    Returns (above: bool, located_value, located_point).
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    d = lows.size
    # cell centers at lo + spacing*(k + 1/2) cover [lo, hi] and possibly a
    # little beyond; covering a superset keeps the certificate valid
    axes = [
        lo + init_spacing * (np.arange(max(1, int(np.ceil((hi - lo) / init_spacing)))) + 0.5)
        for lo, hi in zip(lows, highs)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    half = init_spacing / 2
    offsets = np.stack(np.meshgrid(*([np.array([-0.5, 0.5])] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    best_val, best_pt = math.inf, None
    for _ in range(_MAX_LEVELS):
        vals = eval_batch(centers)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_pt = float(vals[i]), centers[i].copy()
        if best_val <= target:
            return False, best_val, best_pt
        hd = half * math.sqrt(d)
        lb = vals - lip_batch(centers, hd) * hd
        keep = lb <= target
        if not np.any(keep):
            if descend is not None:
                dv, dp = descend(best_pt)
                if dv < best_val:
                    best_val, best_pt = dv, dp
                if best_val <= target:
                    return False, best_val, best_pt
            return True, best_val, best_pt
        centers = (centers[keep][:, None, :] + half * offsets[None, :, :]).reshape(-1, d)
        half /= 2
    raise RuntimeError("intersection certification did not converge")


_SQ2 = math.sqrt(2)

_ALIGN_EXAMPLE = {
    "y": np.array([[3.0, 1.0], [-1.0, 1.0], [0.0, 1.0]]),
    "x": np.array([[0.0, 0.0], [0.0, -2 * _SQ2], [-1.0, -2 * _SQ2]]),
    "r": np.array([math.sqrt(6), 2 - _SQ2, math.sqrt(6) - math.sqrt(3)]),
    "y_dists": {(0, 1): 2 * _SQ2, (1, 2): 1.0, (0, 2): 3.0},
    # mirror image of the point usually quoted with these centers; the three
    # ball boundaries meet it exactly
    "common_point": np.array([1 - _SQ2, -(1 + _SQ2)]),
}

_LIFT_EXAMPLE = {
    "y": np.array([[1.0, 1.0 - 1.0j], [1.0 + 1.0j, 1.0]]),
    "x": np.array([[1.0, 1.0, 1.0, 2.0], [2.0, 1.0, 1.0, 1.0]]),
    "r": np.array([1 / _SQ2, 1 / _SQ2]),
    "d2": _SQ2,
    "common_point": np.array([1.5, 1.0, 1.0, 1.5]),
}


def _align_ball_deficit(points: np.ndarray, ys: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """max_i (D2(z, y_i) - r_i) for a batch of plane points (real rays)."""
    out = np.full(points.shape[0], -math.inf)
    for yv, rv in zip(ys, rs):
        d_minus = np.linalg.norm(points - yv, axis=1)
        d_plus = np.linalg.norm(points + yv, axis=1)
        out = np.maximum(out, np.minimum(d_minus, d_plus) - rv)
    return out


def _lift_ball_deficit(points: np.ndarray, ys: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """max_i (d2(z, y_i) - r_i) on canonical C^2 rays z = (a, br + i bi)."""
    z = np.stack([points[:, 0], points[:, 1] + 1j * points[:, 2]], axis=1)
    out = np.full(points.shape[0], -math.inf)
    for yv, rv in zip(ys, rs):
        out = np.maximum(out, _lift_dist_stack(z, yv, 2) - rv)
    return out


def _certify_align_empty(ys, rs, target=1e-6):
    def ev(pts):
        return _align_ball_deficit(pts, ys, rs)

    def lip(pts, hd):
        return np.ones(pts.shape[0])

    def descend(p0):
        res = optimize.minimize(lambda p: float(ev(p[None, :])[0]), p0,
                                method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14})
        return float(res.fun), res.x

    # any ray with ||z|| > 6 misses the farthest ball by more than the target
    return certify_min_above(ev, lip, [-6, -6], [6, 6], 0.1, target, descend)


def _certify_lift_empty(ys, rs, target=1e-6):
    # rays with ||z||^2 > max ||y||^2 + max r + target have positive deficit
    # because d2(z, y) >= ||z||^2 - ||y||^2; a box of radius 2 covers the rest
    hi = 2.0

    def ev(pts):
        return _lift_ball_deficit(pts, ys, rs)

    def lip(pts, hd):
        nz = np.sqrt(np.sum(pts * pts, axis=1))
        return 2.0 * (nz + hd)

    def descend(p0):
        res = optimize.minimize(lambda p: float(ev(p[None, :])[0]), p0,
                                method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14})
        return float(res.fun), res.x

    return certify_min_above(ev, lip, [0, -hi, -hi], [hi, hi, hi], 0.125, target, descend)


def verify_property_k(which: str, radii: Optional[Sequence[float]] = None) -> dict:
    """Reconstruct one of the two ball-intersection counterexamples and check
    it end to end: the stated distances, the common point of the Euclidean
    balls, and certified emptiness of the ray-space balls.

    which="align_metric": three real rays under the vector metric (order 2).
    which="lift_metric": two complex rays under the lift metric (order 2).
    ``radii`` overrides the ball radii (used to sanity-check the certifier).
    """
    tol = 1e-12
    if which == "align_metric":
        ex = _ALIGN_EXAMPLE
        ys, xs = ex["y"], ex["x"]
        rs = np.asarray(radii, dtype=float) if radii is not None else ex["r"]
        rays_ = [ray(Vector(yv, Field.REAL)) for yv in ys]
        distances_ok = True
        for (i, j), want in ex["y_dists"].items():
            dy = align_dist(rays_[i], rays_[j], 2)
            dx = float(np.linalg.norm(xs[i] - xs[j]))
            distances_ok &= abs(dy - want) <= tol and abs(dx - want) <= tol
        z = ex["common_point"]
        inside = all(
            np.linalg.norm(z - xv) <= rv + tol for xv, rv in zip(xs, ex["r"] if radii is None else rs)
        )
        empty, located, _ = _certify_align_empty(ys, rs)
        return {
            "distances_ok": bool(distances_ok),
            "x_intersection_nonempty": bool(inside),
            "y_intersection_empty": bool(empty),
            "located_min": located,
        }
    if which == "lift_metric":
        ex = _LIFT_EXAMPLE
        ys, xs = ex["y"], ex["x"]
        rs = np.asarray(radii, dtype=float) if radii is not None else ex["r"]
        r1 = ray(Vector(ys[0], Field.COMPLEX))
        r2 = ray(Vector(ys[1], Field.COMPLEX))
        dy = lift_dist(r1, r2, 2)
        dx = float(np.linalg.norm(xs[0] - xs[1]))
        distances_ok = abs(dy - ex["d2"]) <= tol and abs(dx - ex["d2"]) <= tol
        z = ex["common_point"]
        dists = [float(np.linalg.norm(z - xv)) for xv in xs]
        inside = all(abs(dv - rv) <= tol for dv, rv in zip(dists, ex["r"]))
        # the balls touch (center gap equals r1 + r2), so the common point is
        # unique exactly when it sits on both boundaries
        unique = abs(dx - float(ex["r"][0] + ex["r"][1])) <= tol
        empty, located, _ = _certify_lift_empty(ys, rs)
        return {
            "distances_ok": bool(distances_ok),
            "x_intersection_nonempty": bool(inside and unique),
            "y_intersection_empty": bool(empty),
            "located_min": located,
        }
    raise ValueError(f"unknown example {which!r}; options: align_metric, lift_metric")
