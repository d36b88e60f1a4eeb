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
eigenvalues of a - b.
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
    """Proven Lipschitz ceiling 3 + 2^(1 + 1/p) of the retraction."""
    _check_order(p)
    invp = 0.0 if p == math.inf else 1.0 / p
    return 3.0 + 2.0 ** (1.0 + invp)


def _retract_stack(mats: np.ndarray):
    """The retraction's one eigendecomposition, on a (k, n, n) stack of
    self-adjoint matrices: ``(coef, u1)``, the (k,) coefficients lam1 - lam2
    and the (k, n) unit top eigenvectors, so that row i retracts to
    coef[i] u1[i] u1[i]*. A failed ``eigh`` raises ``SpectralError``."""
    if mats.shape[-1] < 2:
        raise ValueError("retraction needs dimension >= 2")
    try:
        w, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as e:
        raise SpectralError(f"eigensolver failed: {e}") from e
    return w[:, -1] - w[:, -2], vecs[:, :, -1]


def _retract_ray(A: SymOp) -> tuple[float, RayPoint]:
    """``(coef, ray)`` for one operator: lam1 - lam2 and the ray of
    sqrt(lam1 - lam2) u1, which is the zero ray when lam1 = lam2."""
    coef, u = _retract_stack(A.entries[None])
    c = float(coef[0])
    if c == math.inf:  # lam1 - lam2 overflowed: the error Vector's check gave
        raise ValueError("vector has non-finite entries")
    x = math.sqrt(c) * u[0] if c > 0.0 else np.zeros(A.dim, A.field.dtype)
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
    num, den = _ratio_parts(A.entries[None], B.entries[None], p)
    if den[0] == 0.0:
        raise ValueError("operators coincide: retraction ratio is undefined")
    return float(num[0] / den[0])


def _ratio_parts(a: np.ndarray, b: np.ndarray, p: float):
    """Row by row, the Schatten p-norms of pi(a) - pi(b) and of a - b for two
    (k, n, n) stacks of self-adjoint matrices. The numerator is the norm of
    the rank-<=2 difference ca ua ua* - cb ub ub* of the two retractions,
    from ``core._rank2_norms``; the denominator comes from the eigenvalues
    of a - b."""
    ca, ua = _retract_stack(a)
    cb, ub = _retract_stack(b)
    return _rank2_norms(ca, ua, cb, ub, p), _schatten_batch(np.linalg.eigvalsh(a - b), p)


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


def _max_ratio_for_stacks(a, b, p):
    num, den = _ratio_parts(a, b, p)
    scale = np.maximum(np.linalg.norm(a, axis=(1, 2)), np.linalg.norm(b, axis=(1, 2)))
    keep = den > 1e-12 * np.maximum(1.0, scale)
    if not np.any(keep):
        return 0.0
    return float(np.max(num[keep] / den[keep]))


_CHUNK = 20_000  # pairs per sampler draw; it fixes the sample stream


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
    up to ~5e-7 above it.
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
            for si, (sampler_name, sampler) in enumerate(_SAMPLERS):
                total = totals[sampler_name]
                for part, done in enumerate(range(0, total, _CHUNK)):
                    # the 0 fills the stream's slot for an order index, so
                    # each seed draws the pairs it always drew
                    rng = np.random.default_rng([seed, 0, dim, fi, si, part])
                    a, b = sampler(rng, min(_CHUNK, total - done), dim, field)
                    best = max(best, _max_ratio_for_stacks(a, b, p))
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
