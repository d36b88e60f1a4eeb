"""The Lipschitz retraction from self-adjoint operators onto non-negative
rank-at-most-one operators, plus empirical probes of its Lipschitz constant.

The retraction keeps (top eigenvalue - second eigenvalue) times the projector
onto the top distinct eigenspace. It fixes every rank-one PSD operator and is
Lipschitz in every Schatten p-norm with constant at most 3 + 2^(1 + 1/p); the
supremum is approached near degenerate top eigenvalues, so the probe samplers
deliberately target small spectral gaps.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import (
    Field,
    RankOnePSD,
    SpectralError,
    SymOp,
    Vector,
    _canonical_phase_columns,
    _check_same,
    _schatten_batch,
)

__all__ = [
    "rank_one_retract",
    "retraction_ratio",
    "retraction_bound",
    "retraction_probe",
]


def retraction_bound(p: float) -> float:
    """Proven Lipschitz ceiling 3 + 2^(1 + 1/p) of the retraction."""
    invp = 0.0 if p == math.inf else 1.0 / p
    return 3.0 + 2.0 ** (1.0 + invp)


def _retract_stack(mats: np.ndarray, group_tol: Optional[float] = None):
    """The retraction's one eigendecomposition, on a (k, n, n) stack of
    self-adjoint matrices.

    Returns ``(coef, vecs, top, tol)``: the coefficients lam1 - lam2, the
    eigenvectors as ``np.linalg.eigh`` orders them (ascending, so the top one
    is ``vecs[:, :, -1]``), the (k, n) mask of the top distinct eigenvalue
    group and each row's grouping tolerance, ``group_tol`` or by default
    1e-8 * max |lam|. Eigenvalues chain into the top group while each gap
    between neighbours is at most the tolerance, as in ``spectral_decompose``.
    """
    if mats.shape[-1] < 2:
        raise ValueError("retraction needs dimension >= 2")
    if group_tol is not None and group_tol < 0:
        raise ValueError(f"group_tol must be >= 0, got {group_tol}")
    try:
        w, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as e:
        raise SpectralError(f"eigensolver failed: {e}") from e
    coef = w[:, -1] - w[:, -2]
    if group_tol is None:
        tol = 1e-8 * np.maximum(np.abs(w[:, -1]), np.abs(w[:, 0]))
    else:
        tol = np.full(w.shape[0], float(group_tol))
    close = np.diff(w, axis=1) <= tol[:, None]
    top = np.ones(w.shape, dtype=bool)
    top[:, :-1] = np.logical_and.accumulate(close[:, ::-1], axis=1)[:, ::-1]
    return coef, vecs, top, tol


def _carriers(coef: np.ndarray, vecs: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The retracted operators (lam1 - lam2) P1 of a ``_retract_stack``."""
    vm = vecs * top[:, None, :]
    return coef[:, None, None] * (vm @ vm.conj().transpose(0, 2, 1))


def rank_one_retract(A: SymOp, group_tol: Optional[float] = None) -> RankOnePSD:
    """Retract a self-adjoint operator onto rank-one PSD operators.

    Returns (lam1 - lam2) P1 where lam1 >= lam2 are the two largest
    eigenvalues with multiplicity and P1 projects onto the top distinct
    eigenspace under ``group_tol`` grouping. When the top eigenvalue is
    (nearly) degenerate the coefficient is at most ``group_tol``, so the
    output passes continuously through zero there. Fixes rank-one PSD inputs.
    """
    coef, vecs, top, tol = _retract_stack(A.entries[None], group_tol)
    generator = None
    if top[0].sum() == 1 and coef[0] > 0.0:
        # re-phase the eigenvector canonically so outputs are reproducible
        u1 = _canonical_phase_columns(vecs[0, :, -1:])[:, 0]
        generator = Vector(math.sqrt(coef[0]) * u1, A.field)
    return RankOnePSD(
        carrier=SymOp(_carriers(coef, vecs, top)[0], A.field),
        generator=generator,
        rank_atol=float(tol[0]) * (1 + 1e-8) + 1e-300,
    )


def retraction_ratio(A: SymOp, B: SymOp, p: float, group_tol: Optional[float] = None) -> float:
    """Observed Lipschitz ratio of the retraction on one operator pair."""
    _check_same(A, B)
    if p != math.inf and p < 1:
        raise ValueError(f"Schatten norm needs p >= 1 or p = inf, got {p}")
    num, den = _ratio_parts(A.entries[None], B.entries[None], p, group_tol)
    if den[0] == 0.0:
        raise ValueError("operators coincide: retraction ratio is undefined")
    return float(num[0] / den[0])


def _ratio_parts(a: np.ndarray, b: np.ndarray, p: float, group_tol: Optional[float] = None):
    """Row by row, the Schatten p-norms of pi(a) - pi(b) and of a - b for two
    (k, n, n) stacks of self-adjoint matrices."""
    pa = _carriers(*_retract_stack(a, group_tol)[:3])
    pb = _carriers(*_retract_stack(b, group_tol)[:3])
    num = _schatten_batch(np.linalg.eigvalsh(pa - pb), p)
    return num, _schatten_batch(np.linalg.eigvalsh(a - b), p)


# --- batched probe machinery -------------------------------------------------

def _hermitian_stack(rng, k: int, dim: int, field: Field) -> np.ndarray:
    g = rng.standard_normal((k, dim, dim))
    if field is Field.COMPLEX:
        g = g + 1j * rng.standard_normal((k, dim, dim))
    return (g + g.conj().transpose(0, 2, 1)) / 2


def _unitary_stack(rng, k: int, dim: int, field: Field) -> np.ndarray:
    g = rng.standard_normal((k, dim, dim))
    if field is Field.COMPLEX:
        g = g + 1j * rng.standard_normal((k, dim, dim))
    q, r = np.linalg.qr(g)
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
    x = rng.standard_normal((k, dim))
    if field is Field.COMPLEX:
        x = x + 1j * rng.standard_normal((k, dim))
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
    fields=(Field.REAL, Field.COMPLEX),
    ps=(1, 2, math.inf),
    n_random: int = 10_000,
    n_adversarial: int = 100_000,
    seed: int = 0,
) -> dict:
    """Sample retraction Lipschitz ratios over random and adversarial pairs.

    Returns per-(p, dim, field) maxima, the proven bound for each p, and a
    violation count (any ratio above bound + 1e-8 would falsify the
    implementation, not the theory).
    """
    combos = []
    violations = 0
    for pi, p in enumerate(ps):
        bound = retraction_bound(p)
        for dim in dims:
            for fi, field in enumerate(fields):
                best = 0.0
                for si, (sampler_name, sampler) in enumerate(_SAMPLERS):
                    total = n_random if sampler_name == "random" else n_adversarial // 2
                    if sampler_name == "random" and n_random == 0:
                        continue
                    if sampler_name != "random" and n_adversarial == 0:
                        continue
                    done = 0
                    part = 0
                    while done < total:
                        k = min(_CHUNK, total - done)
                        rng = np.random.default_rng([seed, pi, dim, fi, si, part])
                        a, b = sampler(rng, k, dim, field)
                        best = max(best, _max_ratio_for_stacks(a, b, p))
                        done += k
                        part += 1
                if best > bound + 1e-8:
                    violations += 1
                combos.append(
                    {
                        "p": "inf" if p == math.inf else p,
                        "dim": dim,
                        "field": field.value,
                        "max_ratio": best,
                        "bound": bound,
                    }
                )
    max_inf = max(
        (c["max_ratio"] for c in combos if c["p"] == "inf"),
        default=0.0,
    )
    return {
        "combos": combos,
        "max_ratio_inf": max_inf,
        "violations": violations,
        "samples_random": n_random,
        "samples_adversarial": n_adversarial,
        "seed": seed,
    }
