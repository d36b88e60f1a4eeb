"""The Lipschitz retraction from self-adjoint operators onto non-negative
rank-at-most-one operators, plus empirical probes of its Lipschitz constant.

The retraction is the paper's pi(A) = (lam1 - lam2) u1 u1*, for the two
largest eigenvalues lam1 >= lam2 of A, counted with multiplicity, and a unit
top eigenvector u1. It needs no decision about multiplicity: near a tie the
coefficient is as small as the gap, whichever u1 the eigensolver returns. It
fixes every rank-one PSD operator and is Lipschitz in every Schatten p-norm
with constant at most 3 + 2^(1 + 1/p); the supremum is approached near
degenerate top eigenvalues, so the probe samplers target small spectral gaps.

The probe's ratio ||pi(a) - pi(b)||_p / ||a - b||_p reads its numerator from
the two top eigenpairs: pi(a) - pi(b) = ca ua ua* - cb ub ub* has rank <= 2,
and ``core._rank2_norms`` gives its norm. The denominator comes from the
eigenvalues of a - b. The probe computes both only for pairs whose proven
ceilings can still raise its maximum (see ``retraction_probe``).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Field,
    RankOnePSD,
    SpectralError,
    SymOp,
    Vector,
    _check_order,
    _check_same,
    _gaussian,
    _rank2_norms,
    _schatten_batch,
    _unchecked,
    sym_outer,
)
from .metrics import RayPoint, _canonicalize

__all__ = [
    "rank_one_retract",
    "retraction_ratio",
    "retraction_bound",
    "retraction_probe",
]


def retraction_bound(p: float) -> float:
    """Proven Lipschitz ceiling 3 + 2^(1 + 1/p) of the retraction.

    The constant itself, Lip_n(pi), is nondecreasing in n and equals
    Lip_4(pi) for every n >= 4, in each field. Given a, b at dimension n,
    let P project onto the span V of the top two eigenvectors of a and of
    b, so dim V <= 4. By Cauchy interlacing and Courant-Fischer the
    compression PaP on V keeps a's top two eigenvalues and top eigenvector,
    so pi(PaP) = pi(a), and likewise for b, while ||P(a - b)P||_p <=
    ||a - b||_p: some pair at dimension <= 4 has a ratio at least as large.
    A pair embeds one dimension up by a common eigenvalue far below both
    spectra, which changes neither pi nor a - b. At n = 2 the constant is
    2^(1 - 1/p); at n = 3 and p = 1 it is larger, as a pair with ratio
    1.0317 shows.
    """
    _check_order(p)
    invp = 0.0 if p == math.inf else 1.0 / p
    return 3.0 + 2.0 ** (1.0 + invp)


def _retract_stack(mats: np.ndarray):
    """The retraction's one eigendecomposition, on a (k, n, n) stack of
    self-adjoint matrices: ``(coef, u1)``, the (k,) coefficients lam1 - lam2
    and the (k, n) unit top eigenvectors, so that row i retracts to
    coef[i] u1[i] u1[i]*. One (n, n) matrix gives a scalar coef and an (n,)
    u1, as a one-matrix stack would, without the stack's arrays around the
    scalar. A failed ``eigh`` raises ``SpectralError``."""
    if mats.shape[-1] < 2:
        raise ValueError("retraction needs dimension >= 2")
    try:
        w, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as e:
        raise SpectralError(f"eigensolver failed: {e}") from e
    w = w.T  # eigenvalue axis first: w[-1] is a row over the stack, or one matrix's scalar
    return w[-1] - w[-2], vecs[..., -1]


def _retract_ray(A: SymOp) -> tuple[float, RayPoint]:
    """``(coef, ray)`` for one operator: lam1 - lam2 and the ray of
    sqrt(lam1 - lam2) u1, which is the zero ray when lam1 = lam2."""
    coef, u = _retract_stack(A.entries)
    c = float(coef)
    if c == math.inf:  # lam1 - lam2 overflowed: the error Vector's check gave
        raise ValueError("vector has non-finite entries")
    x = math.sqrt(c) * u if c > 0.0 else np.zeros(A.dim, A.field.dtype)
    # u1 is a unit vector of A's dtype and sqrt(c) is finite, so x, a fresh
    # C-ordered array, would pass Vector's checks unchanged
    x.setflags(write=False)
    x = _canonicalize(_unchecked(Vector, entries=x, field=A.field))
    return c, _unchecked(RayPoint, rep=x)


def rank_one_retract(A: SymOp) -> RankOnePSD:
    """Retract a self-adjoint operator onto rank-one PSD operators: the
    paper's pi(A) = (lam1 - lam2) u1 u1*, where lam1 >= lam2 are the two
    largest eigenvalues with multiplicity and u1 is a unit top eigenvector.
    It is 0 when lam1 = lam2 and fixes rank-one PSD inputs. The generator g
    is sqrt(lam1 - lam2) u1 in its ray's canonical form, so outputs are
    reproducible, and the carrier is its lift [g, g]."""
    g = _retract_ray(A)[1].rep
    return RankOnePSD(carrier=sym_outer(g, g), generator=g)


def retraction_ratio(A: SymOp, B: SymOp, p: float) -> float:
    """Observed Lipschitz ratio of the retraction on one operator pair."""
    _check_same(A, B)
    _check_order(p)
    a, b = A.entries[None], B.entries[None]
    den = _denominators(a - b, p)
    if den[0] == 0.0:
        raise ValueError("operators coincide: retraction ratio is undefined")
    return float(_numerators(a, b, p)[0] / den[0])


def _numerators(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Row by row, the Schatten p-norm of pi(a) - pi(b) for two (k, n, n)
    stacks of self-adjoint matrices: the norm of the rank-<=2 difference
    ca ua ua* - cb ub ub* of the two retractions, from ``core._rank2_norms``."""
    ca, ua = _retract_stack(a)
    cb, ub = _retract_stack(b)
    return _rank2_norms(ca, ua, cb, ub, p)


def _denominators(d: np.ndarray, p: float) -> np.ndarray:
    """Row by row, the Schatten p-norm of a (k, n, n) stack d = a - b, from
    its eigenvalues."""
    return _schatten_batch(np.linalg.eigvalsh(d), p)


# --- batched probe machinery -------------------------------------------------

def _hermitian_stack(rng, k: int, dim: int, field: Field) -> np.ndarray:
    g = _gaussian(rng, (k, dim, dim), field)
    return (g + g.conj().transpose(0, 2, 1)) / 2


def _unitary_stack(rng, k: int, dim: int, field: Field) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (k, dim, dim), field))
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d = np.where(np.abs(d) == 0, 1.0, d / np.abs(d))
    return q * d[:, None, :].conj()


def _sample_random_pairs(rng, k, dim, field):
    return _hermitian_stack(rng, k, dim, field), _hermitian_stack(rng, k, dim, field)


def _sample_gap_pairs(rng, k, dim, field):
    """Pairs whose first member has a prescribed small top spectral gap and
    whose second member perturbs it enough to rotate the top eigenvector."""
    gap = 10.0 ** rng.uniform(-6, -1, size=k)
    lam = np.empty((k, dim))
    lam[:, 0] = 1.0
    lam[:, 1] = 1.0 - gap
    if dim > 2:
        rest = rng.uniform(-1.0, 1.0, size=(k, dim - 2)) * (1.0 - gap)[:, None]
        lam[:, 2:] = np.sort(rest, axis=1)[:, ::-1]
    u = _unitary_stack(rng, k, dim, field)
    a = (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)
    a = (a + a.conj().transpose(0, 2, 1)) / 2
    eps = gap * 10.0 ** rng.uniform(-2, 2, size=k)
    e = _hermitian_stack(rng, k, dim, field)
    e /= np.linalg.norm(e, axis=(1, 2))[:, None, None]
    return a, a + eps[:, None, None] * e


def _sample_rank_one_pairs(rng, k, dim, field):
    x = _gaussian(rng, (k, dim), field)
    a = np.einsum("ki,kj->kij", x, x.conj())
    eps = 10.0 ** rng.uniform(-8, 0, size=k)
    e = _hermitian_stack(rng, k, dim, field)
    e /= np.linalg.norm(e, axis=(1, 2))[:, None, None]
    return a, a + eps[:, None, None] * e


_SAMPLERS = (
    ("random", _sample_random_pairs),
    ("gap", _sample_gap_pairs),
    ("rank_one", _sample_rank_one_pairs),
)


def _max_ratio_for_stacks(a, b, p, best=0.0):
    """max(best, the largest ratio over the (k, n, n) stacks' pairs whose
    ||a - b||_p exceeds 1e-12 max(1, ||a||_F, ||b||_F)), with the bits of
    that maximum, computing exact ratios only where a ceiling still reaches
    best (see ``retraction_probe``)."""
    floor = _floor(a - b, p)
    tol = _SCREEN_EPS * (_fro(a) + _fro(b))
    need = best * floor - (1.0 + best) * tol
    if best > 0.0:
        a, b, need = _rows(_cap_ceiling(a, b, p) >= need, a, b, need)
        if a.shape[-1] > 2:  # at n = 2 the cap is exact: the ceiling would drop nothing
            a, b, need = _rows(_ceiling(a, b, p) >= need, a, b, need)
    num = _numerators(a, b, p)
    if best == 0.0 and len(num) > _SEED_ROWS:
        # no maximum to screen against yet: seed one from the pairs whose
        # numerator over floor, a ceiling on their ratio, is largest, picked
        # by argmax (a first sort would load numpy's sort kernels, 0.25 MiB)
        score = np.divide(num, floor, out=np.zeros_like(num), where=floor > 0.0)
        top = []
        for _ in range(_SEED_ROWS):
            top.append(score.argmax())
            score[top[-1]] = -math.inf
        best = _exact_max(a[top], b[top], num[top], p, best)
        need = best * floor - (1.0 + best) * tol
    a, b, num = _rows(num >= need, a, b, num)
    return _exact_max(a, b, num, p, best)


def _exact_max(a, b, num, p, best):
    """max(best, num / ||a - b||_p over the pairs the maximum counts)."""
    den = _denominators(a - b, p)
    scale = np.maximum(np.linalg.norm(a, axis=(1, 2)), np.linalg.norm(b, axis=(1, 2)))
    keep = den > 1e-12 * np.maximum(1.0, scale)
    if not np.any(keep):
        return best
    return max(best, float(np.max(num[keep] / den[keep])))


def _floats(x):
    """The float64 view of a stack whose last axis is contiguous: (k, n, 2n)
    for a complex (k, n, n) one, each entry's real part, then its imaginary
    part."""
    return x.view(np.float64) if np.iscomplexobj(x) else x


def _fro(x):
    """||x||_F row by row, summed on the float64 view: no temporary the
    size of the stack."""
    v = _floats(x)
    return np.sqrt(np.einsum("kij,kij->k", v, v))


def _floor(d, p):
    """A floor under ||d||_p row by row: ||d||_F at p <= 2, else the largest
    column norm, which ||d||_inf <= ||d||_p bounds."""
    if p <= 2:
        return _fro(d)
    v = _floats(d)
    cols = np.einsum("kij,kij->kj", v, v)
    if v is not d:  # a complex column's two float columns
        cols = cols.reshape(len(d), -1, 2).sum(axis=-1)
    return np.sqrt(cols.max(axis=-1))


def _gap_cap(a):
    """A ceiling over lam1 - lam2 row by row for a (k, n, n) stack of
    self-adjoint matrices, in O(n^2) per row and without an eigensolve; it
    is exact at n = 2. With t = tr(a) / n, lam1 <= t + sqrt((n - 1) / n)
    ||a - t I||_F (Wolkowicz & Styan, Linear Algebra Appl. 29, 1980), and
    lam2 is at least the smaller eigenvalue of the 2 x 2 principal
    submatrix on the two largest diagonal entries (Cauchy interlacing).
    Both read the traceless part a - t I, whose norm is summed from the
    off-diagonal entries and the diagonal less t, not taken as
    ||a||_F^2 - n t^2: on near-scalar rows (3 I + 1e-9 H) that difference
    cancels, and the cap under-read the gap by up to 4.7e7 eps ||a||_F.
    Rows must be self-adjoint and C-ordered in their last two axes."""
    k, n = a.shape[0], a.shape[-1]
    rows = np.arange(k)
    diag = np.diagonal(a, axis1=1, axis2=2).real
    dev = diag - (diag.sum(axis=-1) / n)[:, None]
    # the off-diagonal entries, uncopied: the flat entries 1 .. n^2 - 1 of a
    # row, laid out (n - 1) x (n + 1), hold the diagonal in their last column
    off = _floats(a.reshape(k, n * n)[:, 1:].reshape(k, n - 1, n + 1)[:, :, :n])
    spread = np.sqrt((n - 1) / n * (np.einsum("kij,kij->k", off, off)
                                    + np.einsum("ki,ki->k", dev, dev)))
    i = dev.argmax(axis=-1)
    di = dev[rows, i]
    rest = dev.copy()
    rest[rows, i] = -math.inf
    j = rest.argmax(axis=-1)
    dj = dev[rows, j]
    return spread + np.hypot((di - dj) / 2, np.abs(a[rows, i, j])) - (di + dj) / 2


def _cap_ceiling(a, b, p):
    """||(cap_a, cap_b)||_p row by row from ``_gap_cap``: a ceiling over
    ||pi(a) - pi(b)||_p without an eigensolve, and +inf on a row whose cap
    is negative or not finite, which rounding or overflow has left
    unproven."""
    cap = np.stack([_gap_cap(a), _gap_cap(b)], -1)
    sure = np.all((cap >= 0.0) & (cap < math.inf), axis=-1)  # NaN fails both
    return np.where(sure, _schatten_batch(np.where(sure[:, None], cap, 0.0), p), math.inf)


def _ceiling(a, b, p):
    """||(ca, cb)||_p row by row, c = lam1 - lam2 from ``eigvalsh``: a
    ceiling over ||pi(a) - pi(b)||_p at about half the cost of the
    numerator's two ``eigh``."""
    wa, wb = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    return _schatten_batch(np.stack([wa[:, -1] - wa[:, -2], wb[:, -1] - wb[:, -2]], -1), p)


def _rows(sel, *stacks):
    """The stacks' rows where ``sel`` holds, uncopied where it holds for all."""
    return stacks if np.all(sel) else tuple(x[sel] for x in stacks)


_SCREEN_EPS = 64 * float(np.finfo(np.float64).eps)  # the screen's rounding allowance
_CHUNK = 20_000  # pairs per sampler draw; it fixes the sample stream
_SEED_ROWS = 8  # pairs whose exact ratio seeds a chunk screened against 0


def retraction_probe(
    dims=(2, 3, 4, 8),
    p: float = math.inf,
    samples: int = 10_000,
    seed: int = 0,
) -> dict:
    """Sample retraction Lipschitz ratios at order p over ``samples`` random
    and ``samples`` adversarial pairs, in both fields, the real one first,
    at each dimension.

    Returns per-(p, dim, field) maxima, the proven bound for p, and a
    violation count (any ratio above bound + 1e-8 would falsify the
    implementation, not the theory). The maxima are sampled, not proven,
    and carry the rounding of the two ``eigh`` calls behind each pair's
    numerator, up to about 64 eps (||a|| + ||b||) / ||a - b|| of the ratio:
    at dim 2 and p = 1, whose exact constant is 1, the closest pairs read
    up to ~5e-7 above it. Maxima at dims above 4 test the implementation,
    not the constant, which is Lip_4(pi) there (see ``retraction_bound``).

    Each maximum has the bits of the maximum over every pair it counts,
    those with ||a - b||_p > 1e-12 max(1, ||a||_F, ||b||_F), but a pair
    gets its exact ratio only while ceilings on it reach the running
    maximum ``best``. All hold at every p >= 1. The denominator is at
    least ``floor``: ||a - b||_F at p <= 2, since Schatten norms fall as p
    grows, and the largest column norm of a - b at p > 2, since
    ||d e_j|| <= ||d||_inf <= ||d||_p. The numerator is at most
    ||(ca, cb)||_p for c = lam1 - lam2, since ca ua ua* - cb ub ub*, a
    rank-one PSD operator less another, has one eigenvalue in [0, ca] and
    one in [-cb, 0] (Weyl), and so at most ||(cap_a, cap_b)||_p for any
    caps cap >= c. Once best > 0, the tiers run in this order, each on the
    pairs the one before kept, and drop a pair whose value falls below
    best floor - tol:
    1. the gap cap (``_gap_cap``), O(n^2) per operator and no eigensolve:
       lam1 <= t + sqrt((n - 1) / n) ||a - t I||_F for t = tr(a) / n
       (Wolkowicz & Styan, Linear Algebra Appl. 29, 1980), less a floor
       under lam2, the smaller eigenvalue of the 2 x 2 principal
       submatrix on the two largest diagonal entries (Cauchy
       interlacing); both are exact at n = 2. A negative or non-finite
       cap proves nothing, and its pair is kept;
    2. the eigenvalue ceiling, c from ``eigvalsh`` at about half an
       ``eigh``'s cost, skipped at n = 2, where tier 1 is already exact;
    3. the numerator, from two ``eigh``;
    4. the denominator, the ``eigvalsh`` of a - b, which gives the ratio.
    A chunk screened against best = 0, each (dim, field)'s first, has no
    maximum for tiers 1 and 2: it computes every numerator, takes the
    exact ratios of the 8 pairs with the largest numerator / floor, a
    ceiling on their ratio, and screens the other denominators against
    their maximum by the same rule.

    The allowance tol = 64 eps (1 + best) (||a||_F + ||b||_F) covers the
    numerators' rounding, the 64 eps (||a||_F + ||b||_F) above, and 64 eps
    of best floor (floor <= ||a||_F + ||b||_F) for the rounding of the floor
    and of the denominator. No pair tested has needed more than
    4 eps (1 + ratio) (||a||_F + ||b||_F), and no gap cap tested has
    fallen more than 5 eps ||a||_F below the ``eigvalsh`` gap, so a
    dropped pair could not have raised the maximum. That holds while no
    nonzero entry of a, b or a - b lies below about 1e-150 in magnitude,
    as for every pair the samplers draw: where squares leave the normal
    range, ``eigvalsh`` has been seen to lose up to 5e-7 of an eigenvalue,
    relative (on 4 x 4 operators whose entries are all about 2e-156, with
    subnormal squares, but for one off-diagonal pair of magnitude 0.5 to
    2), and the gap cap, a sum of squares, loses every entry whose square
    underflows. Where squares overflow, above about 1e150, the cap is not
    finite and keeps its pair.

    Each (dim, field) draws its chunks rank_one, gap, random, each from its
    own generator, so the order does not change the pairs. The rank-one
    chunk, whose tiny ||a - b|| defeats the eigenvalue ceilings, runs first
    and seeds its own maximum; the random pairs, nearly all dropped by the
    gap cap at dims >= 3 and p > 1, run last.
    """
    _check_order(p)
    if samples < 0 or any(dim < 2 for dim in dims):  # the retraction needs dim >= 2
        raise ValueError("sample count must be >= 0 and each dimension >= 2, "
                         f"got samples={samples}, dims={dims}")
    # the adversarial samplers split the samples, the gap sampler taking the
    # odd pair
    half = samples // 2
    totals = {"random": samples, "gap": samples - half, "rank_one": half}
    combos = []
    violations = 0
    bound = retraction_bound(p)
    for dim in dims:
        for fi, field in enumerate(Field):
            best = 0.0
            # rank_one, gap, random: the adversarial pairs set the maximum
            # that the screen holds the random pairs to
            for si in (2, 1, 0):
                sampler_name, sampler = _SAMPLERS[si]
                total = totals[sampler_name]
                for part, done in enumerate(range(0, total, _CHUNK)):
                    # the 0 fills the stream's slot for an order index, so
                    # each seed draws the pairs it always drew
                    rng = np.random.default_rng([seed, 0, dim, fi, si, part])
                    # unnamed, the stacks are freed as the screen drops rows,
                    # not kept while the next chunk is drawn
                    best = _max_ratio_for_stacks(
                        *sampler(rng, min(_CHUNK, total - done), dim, field), p, best)
            if best > bound + 1e-8:
                violations += 1
            combos.append({"p": "inf" if p == math.inf else p, "dim": dim,
                           "field": field.value, "max_ratio": best, "bound": bound})
    max_inf = max(
        (c["max_ratio"] for c in combos if c["p"] == "inf"),
        default=0.0,
    )
    return {
        "combos": combos,
        "max_ratio_inf": max_inf,
        "violations": violations,
        "samples_random": samples,
        "samples_adversarial": samples,
        "seed": seed,
    }
