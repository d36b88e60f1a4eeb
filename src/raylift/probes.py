"""Numerical estimators for the frame stability constants, Monte-Carlo
bi-Lipschitz probes, phase-retrievability verdicts, and certified
ball-intersection counterexamples for the Kirszbraun extension property.

Each objective has one stacked kernel, and every caller goes through it:
``_lower_lip_terms`` (the a0 ratio's numerator, denominator and gradient
parts at a stack of pairs), ``_quartic_terms`` (the b0 quartic and its
ascent direction at a stack of vectors) and, for the ball deficit of
``verify_property_k``, the metric stack kernels ``metrics._align_dist_stack``
and ``metrics._lift_dist_stack``.

The lower stability constant a0 of a frame is the minimum over unit pairs
(u, v) of

    Q(u, v) = sum_k |Re(<u, f_k> conj(<v, f_k>))|^2

divided by ||u||^2 ||v||^2 - Im(<u, v>)^2. A frame is phase retrievable iff
that minimum is positive. At n = 2, in both fields, a0 has a closed form in
the lifted Gram matrix (``_exact_lower_lip``); for n >= 3 seeded starts
screened by exact block minimization (``_best_partners``) are refined, the
best three as one stack, by the BFGS kernel ``core._bfgs``
(``_multistart_lower_lip``).

The upper stability constant b0 is the maximum over unit u of
sum_k |<u, f_k>|^4, found by a batched fixed-point ascent refined by
``core._bfgs``. The value is the quartic at a unit vector, whose bits do not
depend on the batch, so it is at most b0 up to the rounding of one
evaluation; the largest eigenvalue of the Gram matrix |<f_k, f_l>|^2,
sigma_max(lifted map)^2, brackets it above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Field, Vector, _as_field_array, _bfgs, _gaussian, _unchecked
from .frames import (_STACK_ENTRIES, Frame, _coeff_rows, _conj_coeffs, _lifted_gram,
                     _lifted_rows, _phase_fill, _row_dots, _sym_dim, _synthesize,
                     sym_from_coords)
from .metrics import _align_dist_stack, _lift_dist_stack

__all__ = [
    "LowerLipEstimate",
    "estimate_lower_lip",
    "lower_lip_objective",
    "estimate_upper_lip",
    "upper_lip_ceiling",
    "pr_verdict",
    "probe_bilipschitz",
    "verify_property_k",
    "certify_min_above",
]

_DEN_CUTOFF = 1e-9


def _unit_scale(F: Frame) -> tuple[Frame, int]:
    """(2^-e F, e), e the ``math.frexp`` exponent of F's largest float64-view
    entry: the scale a0, b0 and the ceiling are computed at. Each scales as
    the fourth power of the frame, but far from unit scale the b0 ascent's G
    overflows or underflows and the eigensolves drift by ulps. 2^-e F has the
    same bits for every 2^k F with normal entries, so a value scaled back by
    2^(4e) (``_scale_back``) is 2^(4k) times its value at F, bit for bit."""
    a = F.synthesis.view(np.float64)
    e = math.frexp(float(np.abs(a).max()))[1]
    S = np.ldexp(a, -e).view(F.synthesis.dtype)
    S.setflags(write=False)
    return _unchecked(Frame, synthesis=S, field=F.field), e


def _scale_back(value: float, e: int, name: str) -> float:
    """value * 2^(4e), exactly; OverflowError naming the constant when a
    nonzero product leaves the normal float range, where it is inf or rounds."""
    x = math.frexp(value)[1] + 4 * e
    if not math.isfinite(value) or (value and not -1021 <= x <= 1024):
        raise OverflowError(f"{name} = {value!r} * 2^{4 * e} is outside the normal float range")
    return math.ldexp(value, 4 * e)


# --- lower stability constant -------------------------------------------------

@dataclass(frozen=True)
class LowerLipEstimate:
    """Smallest objective value found, reported exactly at the witness pair.

    method="exact" (every n = 2 frame): the closed-form minimum; no search
    runs, so ``starts``, ``kept_starts`` and both refine counts are 0 and
    ``refine_stop`` is None. method="multistart" (n >= 3): a minimum over
    explored points, an upper bound on the true constant. ``kept_starts``
    counts the screened pairs, one per start, each with denominator 1 by
    construction (``_best_partners``); ``refine_iterations`` and
    ``refine_evaluations`` sum the iterations and evaluations of the (at most
    three) rows of the stacked refinement, and ``refine_stop`` is the stop
    rule (see ``core._bfgs``) of the row whose value is reported: for the
    best screened pair, the row started from it.
    """

    value: float
    argmin_u: Vector
    argmin_v: Vector
    method: str
    starts: int
    kept_starts: int = 0
    refine_iterations: int = 0
    refine_evaluations: int = 0
    refine_stop: Optional[str] = None


def _lower_lip_terms(F: Frame, U: np.ndarray, V: np.ndarray):
    """The stability objective at each row pair (u, v) of two (k, n) stacks:
    (Q, den, nn, DQ, Dden), with den = ||u||^2 ||v||^2 - s^2, s = Im<v, u>,
    nn = ||u||^2 ||v||^2 and DQ, Dden (2k, n) stacks of half the real
    gradients of Q and den, the rows for u and then those for v.

    With a = conj(F) u, b = conj(F) v (the conjugates of ``_conj_coeffs``)
    and t = Re(a conj(b)), Q = sum t^2 has half-gradient F^T (t b) in u and
    F^T (t a) in v; den has ||v||^2 u - s (i v) in u and ||u||^2 v + s (i u)
    in v. Every product is taken row by row, so row i of a stack is its
    one-row call bit for bit.
    """
    k = len(U)
    X = np.concatenate([U, V], dtype=F.field.dtype)
    X2 = X.reshape(2, k, -1)
    C = _conj_coeffs(F, X).reshape(2, k, -1)  # conj(a), conj(b)
    A = C.conj()  # a, b; no copy in the real field
    t = np.real(A[0] * C[1])
    n2 = _row_dots(X, X).real
    nn = n2[:k] * n2[k:]
    den = nn
    Dden = n2.reshape(2, k, 1)[::-1] * X2  # ||v||^2 u, ||u||^2 v
    if F.field is Field.COMPLEX:
        s = _row_dots(V, U).imag
        den = nn - s * s
        isx = X2[::-1] * (s * 1j)[:, None]  # s (i v), s (i u)
        Dden[0] -= isx[0]
        Dden[1] += isx[1]
    DQ = _synthesize(F, (t * A[::-1]).reshape(2 * k, -1))
    return _row_dots(t, t), den, nn, DQ, Dden.reshape(2 * k, -1)


def lower_lip_objective(F: Frame, u: np.ndarray, v: np.ndarray):
    """Return (Q, denominator) of the stability objective at a pair of F's vectors."""
    u = _as_field_array(u, F.field, 1, "u", F.dim)
    v = _as_field_array(v, F.field, 1, "v", F.dim)
    q, den = _lower_lip_terms(F, u[None], v[None])[:2]
    return float(q[0]), float(den[0])


def _best_partners(F: Frame, U: np.ndarray):
    """Each unit row u of a (k, n) stack's best partner: the unit v that
    minimises Q(u, v), with that minimum. Returns (values, V).

    Q(u, .) is the quadratic form S = L^T L in the real coordinates of v
    (the float64 view, in both fields), with L the float64 view of the rows
    a_k f_k (a = conj(F) u, ``frames._coeff_rows``), so the partner is S's
    smallest eigenvector. In the complex field Q(u, v + t iu) = Q(u, v): S
    annihilates the unit view w of iu, and adding trace(S) w w^T
    (``frames._phase_fill``) moves that eigenvalue to the top, so the partner
    lies in w's orthogonal complement, where the denominator is 1. The starts
    go through one stacked ``eigh`` per chunk of at most ``_STACK_ENTRIES`` /
    (m n) rows.
    """
    step = max(1, _STACK_ENTRIES // F.synthesis.size)
    vals, vecs = [], []
    for i in range(0, len(U), step):
        u = U[i:i + step]
        L = _coeff_rows(F, _conj_coeffs(F, u))
        S = L.transpose(0, 2, 1) @ L
        _phase_fill(S, u, np.trace(S, axis1=1, axis2=2))
        lam, X = np.linalg.eigh(S)
        vals.append(lam[:, 0])
        vecs.append(X[:, :, 0])
    return np.concatenate(vals), np.concatenate(vecs).view(F.field.dtype)


def _alternating_min(F: Frame, U0: np.ndarray):
    """One alternation of exact block minimization from each row u0 of a
    (k, n) stack: the best partner v of u0, then the best partner u of v.
    Returns (values, U, V)."""
    _, V = _best_partners(F, U0 / np.sqrt(_row_dots(U0, U0).real)[:, None])
    vals, U = _best_partners(F, V)
    return vals, U, V


def _ratio_and_grad(F: Frame, RZ: np.ndarray):
    """The stability ratio Q/den at each pair (u, v) of a stack, row i the
    float64 view of the concatenation of pair i, and its gradient in those
    coordinates, which the ratio's invariance under separate real rescaling
    of u and v lets a search roam unconstrained, from ``_lower_lip_terms``;
    (inf, 0) where the denominator degenerates. Row i is its one-row call
    bit for bit."""
    W = RZ.view(F.field.dtype).reshape(len(RZ), 2, -1)
    q, den, nn, DQ, Dden = _lower_lip_terms(F, W[:, 0], W[:, 1])
    ok = den > _DEN_CUTOFF * np.maximum(nn, 1e-30)
    d = np.where(ok, den, math.inf)  # a degenerate pair's gradient comes out 0
    r = q / d
    grad = 2.0 * (DQ.reshape(2, -1, F.dim) - r[:, None] * Dden.reshape(2, -1, F.dim)) / d[:, None]
    r[~ok] = math.inf
    return r, grad.transpose(1, 0, 2).copy().view(np.float64).reshape(RZ.shape)


def _at_witnesses(F: Frame, u, v, method: str, *search) -> LowerLipEstimate:
    """The estimate valued exactly at witnesses u, v; ``search``: ``starts`` on."""
    q, den = lower_lip_objective(F, u, v)
    return LowerLipEstimate(q / den, Vector(u, F.field), Vector(v, F.field), method, *search)


def _exact_lower_lip(F: Frame) -> LowerLipEstimate:
    """The lower stability constant of an n = 2 frame, in either field, from
    the lifted Gram G = A^T A (rows a_k = sym_coords(f_k f_k^*), as
    ``frames._lifted_rows`` writes them): a0 = lambda_min(S) / 2, with S =
    P^T G P - (P^T G e)(e^T G P) / (e^T G e) the Schur complement of G off
    e = sym_coords(I) / sqrt(2), P an orthonormal basis of e's complement.

    - For T = (u v^* + v u^*) / 2, Q(u, v) = ||A sym_coords(T)||^2 and
      den = (lam1 - lam2)^2, with T's eigenvalues lam1 >= 0 >= lam2.
    - At n = 2, T's traceless part Z has ||Z||_F^2 = den / 2. Writing
      sym_coords(T) = t e + P z (||z|| = ||Z||_F) and minimising over the
      trace t gives Q >= z^T S z, so Q / den >= lambda_min(S) / 2.
    - Equality holds because |t*| <= 1 for z, S's bottom unit eigenvector,
      and t* = -e^T G P z / e^T G e: e^T a_k = rho_k^2 / sqrt(2) and
      |z^T P^T a_k| = |f_k^* Z f_k| <= rho_k^2 / sqrt(2), rho_k = ||f_k||.
      So T = t* e + P z has eigenvalues (t* +- 1) / sqrt(2), which straddle
      0, and with its eigenpairs (lam1, e1), (lam2, e2), u = sqrt(lam1) e1 +
      sqrt(-lam2) e2 and v = sqrt(lam1) e1 - sqrt(-lam2) e2 give T.

    lambda_min(S) / 2 itself loses digits to cancellation (2.6e-7 relative
    on a real 2/3 frame with a0 near 3e-5), so the value is read as Q / den
    at the normalised witnesses.
    """
    # B = [e, P]: P is the traceless diagonal, then the off-diagonal coordinates
    B = np.eye(_sym_dim(2, F.field))
    B[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    X = B.T @ _lifted_rows(F)  # e^T a_k, then P^T a_k
    H = X @ X.T
    g = H[0, 1:] / H[0, 0]
    z = np.linalg.eigh(H[1:, 1:] - np.outer(H[1:, 0], g))[1][:, 0]
    lam, E = np.linalg.eigh(sym_from_coords(B @ np.concatenate([[-(g @ z)], z]), 2, F.field))
    # sqrt(-lam2) e2, sqrt(lam1) e1: |t*| <= 1 makes both roots real up to rounding
    W = np.sqrt(np.maximum(lam * [-1.0, 1.0], 0.0)) * E
    u, v = W[:, 1] + W[:, 0], W[:, 1] - W[:, 0]
    return _at_witnesses(F, u / np.linalg.norm(u), v / np.linalg.norm(v), "exact", 0)


def _multistart_lower_lip(F: Frame, starts: int, seed: int) -> LowerLipEstimate:
    """The search for the lower stability constant: one block alternation
    from each of ``starts`` seeded starts, all screened as one stack by
    ``_alternating_min``; every pair counts (its denominator is 1 by
    construction), ordered by value (stable, so ties keep start order), and
    the best three refined as one stack by ``core._bfgs`` in the raw
    coordinates of ``_ratio_and_grad``. The estimate is the lowest of the
    best screened pair and its three refinements, the first of equal values
    winning."""
    U0 = np.stack([_gaussian(np.random.default_rng([seed, s]), F.dim, F.field)
                   for s in range(starts)])
    _, U, V = _alternating_min(F, U0)
    q, den = _lower_lip_terms(F, U, V)[:2]
    ratio = q / den
    order = np.argsort(ratio, kind="stable")
    top = order[:3]
    X, values, nit, nfev, stops = _bfgs(lambda RZ: _ratio_and_grad(F, RZ),
                                        np.concatenate([U[top], V[top]], axis=1).view(np.float64))
    j = int(np.argmin(values))  # a tie with the screened best keeps it
    u, v, stop = U[top[0]], V[top[0]], stops[0]
    if values[j] < ratio[order[0]]:
        u, v = X[j].view(F.field.dtype).reshape(2, -1)
        u, v, stop = u / np.linalg.norm(u), v / np.linalg.norm(v), stops[j]
    return _at_witnesses(F, u, v, "multistart", starts, starts,
                         int(nit.sum()), int(nfev.sum()), stop)


def estimate_lower_lip(F: Frame, starts: int = 64, seed: int = 0) -> LowerLipEstimate:
    """The frame's lower stability constant a0: exact for every n = 2 frame
    (``_exact_lower_lip``, which ignores ``starts`` and ``seed``), else
    searched from ``starts`` seeded starts (``_multistart_lower_lip``), both
    at unit scale (``_unit_scale``); OverflowError if a0 leaves the range."""
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    F, e = _unit_scale(F)
    est = _exact_lower_lip(F) if F.dim == 2 else _multistart_lower_lip(F, starts, seed)
    return replace(est, value=_scale_back(est.value, e, "a0"))


# --- upper stability constant -------------------------------------------------

_ASCENT_STARTS = 64
_ASCENT_MAX_ITERS = 1000
_ASCENT_RTOL = 1e-13


def _quartic_terms(F: Frame, U: np.ndarray):
    """sum_k |<u, f_k>|^4 for each row u of a (k, n) stack, and G = F^T
    (|a|^2 a) with a = conj(F) u, a quarter of its gradient; row i of a
    stack is its one-row call bit for bit."""
    B = _conj_coeffs(F, U)  # conj(a)
    P = np.abs(B) ** 2
    return (P * P).sum(axis=1), _synthesize(F, P * B.conj())


def _neg_quartic_and_grad(F: Frame, RZ: np.ndarray):
    """Minus sum_k |<u, f_k>|^4 / ||u||^4 at each row of a stack, the real
    coordinates of u (its float64 view), and minus its gradient there,
    4 (G - value ||u||^2 u) / ||u||^4, from ``_quartic_terms``: what
    ``estimate_upper_lip`` minimises. Row i is its one-row call bit for bit."""
    U = RZ.view(F.field.dtype)
    q, G = _quartic_terms(F, U)
    n2 = _row_dots(U, U).real
    value = q / (n2 * n2)
    g = 4.0 * (G - (value * n2)[:, None] * U) / (n2 * n2)[:, None]
    return -value, -g.view(np.float64)


def estimate_upper_lip(F: Frame, seed: int = 0) -> tuple[float, int]:
    """The frame's upper stability constant b0, the max over pairs of
    ||alpha(x) - alpha(y)||^2 / d1(x, y)^2.

    b0 has the closed form max over unit u of sum_k |<u, f_k>|^4 (y = 0
    attains it; for other pairs split xx* - yy* into its two eigen-terms and
    use the triangle inequality), found here by a fixed-point ascent from 64
    seeded starts, iterated as one batch by ``_quartic_terms``: U <- G / ||G||
    per row. G is a quarter of the gradient and the objective is convex, so
    no step lowers a value (SS-HOPM, Kolda & Mayo 2011). The batch stops once
    no start's relative gain exceeds 1e-13, or after 1000 steps. At a
    degenerate maximum (one where the objective falls off at fourth order,
    as for r2_pr3) the ascent slows to a crawl, so the best start is then
    refined by ``core._bfgs``. The refinement can stop short there: on
    r2_pr3 it stops after one iteration 356 ulps below 3/2 at seed 8 and
    1384 ulps below at seed 4.

    The search runs at unit scale (``_unit_scale``), so 2^k F takes the same
    iterations as F; OverflowError if b0 leaves the normal range.

    Returns (value, iterations), iterations counting the batched steps. The
    value is the quartic at a unit vector, so at most b0 up to the rounding
    of one evaluation (r2_pr3, seed 3: 3 ulps above 3/2);
    ``upper_lip_ceiling(F)`` = sigma_max(lifted map)^2 brackets it above.
    """
    F, e = _unit_scale(F)
    U = _gaussian(np.random.default_rng(seed), (_ASCENT_STARTS, F.dim), F.field)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    vals = np.zeros(_ASCENT_STARTS)
    iterations = 0
    while iterations < _ASCENT_MAX_ITERS:
        new, G = _quartic_terms(F, U)
        gain = np.max((new - vals) / new)
        vals = np.maximum(vals, new)
        if gain <= _ASCENT_RTOL:
            break
        iterations += 1
        U = G / np.linalg.norm(G, axis=1, keepdims=True)
    i = int(np.argmax(vals))
    refined = _bfgs(lambda RZ: _neg_quartic_and_grad(F, RZ), U[i:i + 1].view(np.float64),
                    ftol=1e-15, gtol=1e-12)[1]
    return _scale_back(max(float(vals[i]), -float(refined[0])), e, "b0"), iterations


def upper_lip_ceiling(F: Frame) -> float:
    """Certified upper end of the b0 bracket: sigma_max(lifted map)^2, the
    largest eigenvalue of A^T A and of A A^T, which is the m x m Gram
    matrix |<f_k, f_l>|^2. One symmetric eigenvalue solve on the cheaper of
    the two: the upper triangle of the cols x cols G that
    ``build_lifted_map`` factors, summed block by block, when forming and
    solving it (m cols^2 + cols^3) costs less than the m x m solve (m^3),
    else the m x m Gram, at unit scale (``_unit_scale``; OverflowError if the
    value leaves the normal range). No lifted map is built, and A is never
    whole."""
    F, e = _unit_scale(F)
    m, cols = F.count, _sym_dim(F.dim, F.field)
    if m * cols ** 2 + cols ** 3 < m ** 3:
        top = np.linalg.eigvalsh(_lifted_gram(F), UPLO="U")[-1]
    else:
        fs = F.synthesis
        top = np.linalg.eigvalsh(np.abs(fs.conj() @ fs.T) ** 2)[-1]
    return _scale_back(float(top), e, "b0_upper")


_PR_THRESHOLD = 1e-8  # pr_verdict's least a0, relative to (max_k ||f_k||^2)^2


def pr_verdict(F: Frame, estimate: LowerLipEstimate) -> str:
    """Phase-retrievability verdict for a frame from an estimate of its lower
    stability constant, the same at every scaling of the frame: a0 and Q
    scale as r = (max_k ||f_k||^2)^2 and are compared relative to r.

    "retrievable" when the estimated a0 is at least 1e-8 * r;
    "not_retrievable" only with an explicit witness pair whose Q is at most
    1e-12 * r while its (scale-free) denominator exceeds 1e-8: estimates
    alone never condemn a frame; "indeterminate" otherwise.
    """
    norms4 = float(np.sum(np.abs(F.synthesis) ** 2, axis=1).max()) ** 2
    if estimate.value >= _PR_THRESHOLD * norms4:
        return "retrievable"
    q, den = lower_lip_objective(F, estimate.argmin_u.entries, estimate.argmin_v.entries)
    if q <= 1e-12 * norms4 and den > _PR_THRESHOLD:
        return "not_retrievable"
    return "indeterminate"


_BLOCK = 512  # sample pairs per generator block


def probe_bilipschitz(F: Frame, samples: int = 10_000, seed: int = 0) -> dict:
    """Sample ||alpha(x) - alpha(y)|| / d1(x, y) over random ray pairs.

    The pairs are drawn in fixed-size seeded blocks, so a longer run extends
    a shorter one sample for sample. Coincident rays, d1 <= 1e-6 max(1,
    ||x||^2 + ||y||^2), are excluded (the ratio is undefined there). The
    squared minimum can never fall below the frame's true lower stability
    constant, nor the squared maximum rise above b0.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    blocks = []
    for block, out in enumerate(range(0, samples, _BLOCK)):
        rng = np.random.default_rng([seed, block])
        x = _gaussian(rng, (_BLOCK, F.dim), F.field)[:samples - out]
        y = _gaussian(rng, (_BLOCK, F.dim), F.field)[:samples - out]
        diff = np.abs(_conj_coeffs(F, x)) ** 2 - np.abs(_conj_coeffs(F, y)) ** 2
        num = np.sum(diff ** 2, axis=1)
        d1 = _lift_dist_stack(x, y, 1)
        scale = np.sum(np.abs(x) ** 2, axis=1) + np.sum(np.abs(y) ** 2, axis=1)
        keep = d1 > 1e-6 * np.maximum(1.0, scale)
        blocks.append(np.sqrt(num[keep]) / d1[keep])
    ratios = np.concatenate(blocks)
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
):
    """Decide whether min over the box of a Lipschitz objective exceeds
    ``target``.

    Adaptive bisection: a cell whose center value minus (local Lipschitz
    bound) * (half diagonal) stays above target cannot contain a point at or
    below target and is pruned; when every cell is pruned the continuum
    minimum over the box certifiably exceeds target. A cell center with
    value <= target decides the other way.

    Returns (above: bool, located_value, located_point): the smallest value
    the bisection evaluated and the center where it did. That value is an
    upper bound on the minimum over the box, reproducible bit for bit; it is
    not the minimum, since refinement stops once every cell is pruned.
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
            return True, best_val, best_pt
        centers = (centers[keep][:, None, :] + half * offsets[None, :, :]).reshape(-1, d)
        half /= 2
    raise RuntimeError("intersection certification did not converge")


_SQ2 = math.sqrt(2)

# The two ball-intersection counterexamples, each with its ray centers y and
# their metric's stack kernel, Euclidean centers x at the same pairwise
# distances, the radii r of both families of balls, a common point of the x
# balls, and what the certifier searches: the map from box points to rays,
# the box (lows, highs, initial spacing) and a local Lipschitz bound of the
# ball deficit.
_PROPERTY_K = {
    "align_metric": {
        "y": np.array([[3.0, 1.0], [-1.0, 1.0], [0.0, 1.0]]),
        "x": np.array([[0.0, 0.0], [0.0, -2 * _SQ2], [-1.0, -2 * _SQ2]]),
        "r": np.array([math.sqrt(6), 2 - _SQ2, math.sqrt(6) - math.sqrt(3)]),
        "dists": {(0, 1): 2 * _SQ2, (1, 2): 1.0, (0, 2): 3.0},
        "dist": lambda z, y: _align_dist_stack(z, y, 2),
        # mirror image of the point usually quoted with these centers; the
        # three ball boundaries meet it exactly
        "common_point": np.array([1 - _SQ2, -(1 + _SQ2)]),
        "rays": lambda pts: pts,
        # any ray with ||z|| > 6 misses the farthest ball by more than the target
        "box": ([-6, -6], [6, 6], 0.1),
        "lip": lambda pts, hd: np.ones(pts.shape[0]),
    },
    "lift_metric": {
        "y": np.array([[1.0, 1.0 - 1.0j], [1.0 + 1.0j, 1.0]]),
        "x": np.array([[1.0, 1.0, 1.0, 2.0], [2.0, 1.0, 1.0, 1.0]]),
        "r": np.array([1 / _SQ2, 1 / _SQ2]),
        "dists": {(0, 1): _SQ2},
        "dist": lambda z, y: _lift_dist_stack(z, y, 2),
        # the balls touch (the center gap is r1 + r2): their one common point
        "common_point": np.array([1.5, 1.0, 1.0, 1.5]),
        # canonical C^2 rays z = (a, b + ic)
        "rays": lambda pts: np.stack([pts[:, 0], pts[:, 1] + 1j * pts[:, 2]], axis=1),
        # rays with ||z||^2 > max ||y||^2 + max r + target have positive
        # deficit because d2(z, y) >= ||z||^2 - ||y||^2; a box of radius 2
        # covers the rest
        "box": ([0, -2, -2], [2, 2, 2], 0.125),
        "lip": lambda pts, hd: 2.0 * (np.sqrt(np.sum(pts * pts, axis=1)) + hd),
    },
}


def verify_property_k(which: str, radii: Optional[Sequence[float]] = None) -> dict:
    """Reconstruct one of the two ball-intersection counterexamples and check
    it end to end: the stated distances, the common point of the Euclidean
    balls, and certified emptiness of the ray-space balls.

    which="align_metric": three real rays under the vector metric (order 2).
    which="lift_metric": two complex rays under the lift metric (order 2).
    ``x_intersection_nonempty`` holds when the record's common point, or one
    found by search, lies within 1e-12 of every Euclidean ball.
    ``radii`` overrides the radii of both families of balls (used to
    sanity-check the certifier): one finite radius per ball, or ValueError.
    ``located_min`` is the smallest ball deficit max_i (d(z, y_i) - r_i)
    that the certifier evaluated: an upper bound on the minimum over rays
    z, which is above 1e-6 whenever ``y_intersection_empty`` holds.
    """
    if which not in _PROPERTY_K:
        raise ValueError(f"unknown example {which!r}; options: {', '.join(_PROPERTY_K)}")
    ex = _PROPERTY_K[which]
    ys, xs, dist = ex["y"], ex["x"], ex["dist"]
    rs = ex["r"]
    if radii is not None:
        rs = _as_field_array(radii, Field.REAL, 1, "radii", len(ex["r"]))
    tol = 1e-12
    distances_ok = all(
        abs(dist(ys[i][None], ys[j])[0] - want) <= tol
        and abs(np.linalg.norm(xs[i] - xs[j]) - want) <= tol
        for (i, j), want in ex["dists"].items()
    )

    def x_deficit(pts):
        return np.max([np.linalg.norm(pts - xv, axis=1) - rv for xv, rv in zip(xs, rs)], axis=0)

    # failing the record's common point, search the box of the smallest ball,
    # which holds the whole intersection (the deficit is 1-Lipschitz)
    i = int(np.argmin(rs))
    reach = abs(rs[i]) + tol
    inside = x_deficit(ex["common_point"][None])[0] <= tol or not certify_min_above(
        x_deficit, lambda pts, hd: np.ones(pts.shape[0]), xs[i] - reach, xs[i] + reach,
        reach / 4, tol)[0]

    def deficit(pts):
        rays_ = ex["rays"](pts)
        return np.max([dist(rays_, yv) - rv for yv, rv in zip(ys, rs)], axis=0)

    lows, highs, spacing = ex["box"]
    empty, located, _ = certify_min_above(deficit, ex["lip"], lows, highs, spacing, 1e-6)
    return {
        "distances_ok": bool(distances_ok),
        "x_intersection_nonempty": bool(inside),
        "y_intersection_empty": bool(empty),
        "located_min": located,
    }
