"""Independent oracles for the test suite.

These deliberately avoid the library's own computational paths: a hand-rolled
cyclic Jacobi eigensolver (vs LAPACK), entrywise outer products, full-matrix
SVD norms, the thresholded-SVD pseudoinverse (vs the normal equations),
the lifted rows from an m x n x n outer-product stack (vs pair by pair),
per-row best-partner solves on a Householder basis (vs one stacked solve
with a rank-one deflation), the retraction difference from two explicit
carriers (vs a rank-two closed form), the n = 2 retraction as a traceless
shift (vs an eigendecomposition), self-adjoint matrices from coordinates by 2-D
assignments into a zeroed matrix (vs one flat scatter), and dense parameter
scans (the n = 2 a0 over angle pairs vs its closed form from the lifted
Gram), and the stacked BFGS loop with every masked write (vs the loop that
skips those that change nothing). They are slow and only used at small
sizes.
"""

import json
import json.encoder
import math

import numpy as np
from scipy.linalg import blas, lapack


def jacobi_eigvalsh(A, sweeps=100, tol=1e-14):
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations,
    ascending. Each pivot phase-aligns the off-diagonal entry and applies the
    classic symmetric rotation."""
    A = np.array(A, dtype=complex)
    n = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(A))))
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            off += float(np.sum(np.abs(A[i, i + 1 :]) ** 2))
        if np.sqrt(off) <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                z = A[p, q]
                if abs(z) < 1e-300:
                    continue
                phi = np.angle(z)
                a, b = A[p, p].real, A[q, q].real
                tau = (b - a) / (2 * abs(z))
                if tau == 0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                G = np.eye(n, dtype=complex)
                G[p, p] = c
                G[p, q] = s
                G[q, p] = -s * np.exp(-1j * phi)
                G[q, q] = c * np.exp(-1j * phi)
                A = G.conj().T @ A @ G
    return np.sort(np.diag(A).real)


def sym_from_coords_2d(c, n, complex_field):
    """The n x n self-adjoint matrix of ``sym_coords`` coordinates c, written
    into a zeroed matrix by one assignment each to the diagonal, the upper
    and the lower triangle."""
    iu, ju = np.triu_indices(n, 1)
    k = iu.size
    M = np.zeros((n, n), dtype=complex if complex_field else float)
    M[np.arange(n), np.arange(n)] = c[:n]
    off = c[n : n + k] / math.sqrt(2)
    if complex_field:
        off = off + 1j * (c[n + k :] / math.sqrt(2))
    M[iu, ju] = off
    M[ju, iu] = np.conj(off)
    return M


def outer_sym_entrywise(x, y):
    """Symmetric outer product by an explicit double loop."""
    n = len(x)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = 0.5 * (y[i] * np.conj(x[j]) + x[i] * np.conj(y[j]))
    return out


def svd_schatten(M, p):
    """Schatten norm from a full SVD of the explicit matrix."""
    s = np.linalg.svd(np.asarray(M), compute_uv=False)
    if p == np.inf:
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def svd_min_norm(matrix, cs, tol=1e-10):
    """Numerical rank, singular values and the min-norm least-squares
    solutions of ``matrix @ x = c`` for each row c of ``cs``, from one thin
    SVD keeping the singular values above ``tol`` times the largest: the
    lifted map's factorization before it was built from the normal
    equations."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    r = int(np.sum(s > tol * s[0]))
    return r, s, ((cs @ u[:, :r]) / s[:r]) @ vt[:r]


def lifted_rows_einsum(fs, complex_field):
    """The lifted map's matrix as it was assembled before its rows were
    written pair by pair: the m x n x n stack of outer products f_k f_k^*
    from ``einsum``, gathered to basis coordinates (the diagonal, then
    sqrt(2) times the real and, in the complex field, imaginary parts over
    the pairs i < j) and concatenated along the last axis."""
    n = fs.shape[1]
    outer = np.einsum("ki,kj->kij", fs, fs.conj())
    iu, ju = np.triu_indices(n, 1)
    parts = [np.real(outer[:, np.arange(n), np.arange(n)]),
             math.sqrt(2) * np.real(outer[:, iu, ju])]
    if complex_field:
        parts.append(math.sqrt(2) * np.imag(outer[:, iu, ju]))
    return np.concatenate(parts, axis=-1)


def lifted_inverse_factors(matrix, cholesky, step=None, tol=1e-10):
    """``(left, right)`` of the min-norm inverse of ``matrix``, formed beside
    ``lifted_rows_einsum``: on the Cholesky path ``dpotrf``'s upper factor of
    the Gram matrix, Fortran-ordered over a zeroed lower triangle (``right``
    None), the Gram summed by one ``dsyrk`` per block of ``step`` rows (all
    of them by default), else the thresholded SVD's V_r S_r^-1 and U_r^T."""
    if cholesky:
        cols = matrix.shape[1]
        gram = np.zeros((cols, cols), order="F")
        step = step or matrix.shape[0]
        for i in range(0, matrix.shape[0], step):
            gram = blas.dsyrk(1.0, matrix[i:i + step], beta=1.0, c=gram, trans=1,
                              overwrite_c=1)
        factor, info = lapack.dpotrf(gram)
        assert info == 0
        return factor, None
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    r = int(np.sum(s > tol * s[0]))
    return vt[:r].T / s[:r], u[:, :r].T


def _orth_complement(w):
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


def best_partner_real(fs, u):
    """(min Q(u, v), argmin v) over unit real v, for unit real u and a real
    m x n synthesis matrix: the smallest eigenpair of F^T diag(<u, f_k>^2) F."""
    cu = fs @ u
    S = (fs * (cu * cu)[:, None]).T @ fs
    w, V = np.linalg.eigh(S)
    return float(w[0]), V[:, 0]


def best_partner_complex(fs, u):
    """(min Q(u, v), argmin v) over unit complex v orthogonal (in real
    coordinates) to iu, for unit complex u: the form is restricted to an
    explicit Householder basis of that hyperplane, one row at a time."""
    a = fs.conj() @ u
    wk = a[:, None] * fs
    L = np.concatenate([wk.real, wk.imag], axis=1)
    S = L.T @ L
    iu = 1j * u
    B = _orth_complement(np.concatenate([iu.real, iu.imag]))
    St = B.T @ (S @ B)
    vals, vecs = np.linalg.eigh((St + St.T) / 2)
    r = B @ vecs[:, 0]
    n = u.size
    v = r[:n] + 1j * r[n:]
    return float(vals[0]), v / np.linalg.norm(v)


def retract_dense(m):
    """The paper's retraction (w1 - w2) v1 v1* of one self-adjoint matrix,
    from its top two eigenvalues w1 >= w2 and a unit top eigenvector v1, as
    one outer product."""
    w, v = np.linalg.eigh(m)
    return (w[-1] - w[-2]) * np.outer(v[:, -1], v[:, -1].conj())


def retraction_difference_eigvals(a, b):
    """Row by row, the eigenvalues of pi(a) - pi(b) for two (k, n, n)
    stacks: both carriers in full, then ``eigvalsh`` of their difference,
    the numerator of the retraction ratio before its rank-two closed form."""
    return np.stack([np.linalg.eigvalsh(retract_dense(x) - retract_dense(y))
                     for x, y in zip(a, b)])


def retract_2x2(A):
    """The retraction of a 2 x 2 self-adjoint A in closed form:
    pi(A) = D + ||D||_op I for the traceless part D = A - (tr A / 2) I. D
    has eigenvalues +-||D||_op = +-(lam1 - lam2) / 2, so D + ||D||_op I is
    lam1 - lam2 on the top eigenvector and 0 on the other; with
    D = [[x, z], [conj z, -x]], ||D||_op = sqrt(x^2 + |z|^2)."""
    A = np.asarray(A)
    D = A - (np.trace(A).real / 2) * np.eye(2)
    return D + math.hypot(D[0, 0].real, abs(D[0, 1])) * np.eye(2)


def align_dist_scan(x, y, p, resolution=200_000):
    """Phase-circle scan for the vector metric on complex rays."""
    th = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    d = x[None, :] - np.exp(1j * th)[:, None] * y[None, :]
    if p == np.inf:
        vals = np.max(np.abs(d), axis=1)
    else:
        vals = np.sum(np.abs(d) ** p, axis=1) ** (1.0 / p)
    return float(np.min(vals))


def random_vector(rng, n, complex_field):
    v = rng.standard_normal(n)
    if complex_field:
        v = v + 1j * rng.standard_normal(n)
    return v


def random_hermitian(rng, n, complex_field):
    g = rng.standard_normal((n, n))
    if complex_field:
        g = g + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def quartic_max_scan(vectors, resolution=20_000, rounds=4):
    """max over unit u in R^2 of sum_k <u, f_k>^4 by an angle scan of
    [0, pi) (u and -u give the same value), zoomed in ``rounds`` times onto
    the two grid steps around the best angle."""
    fs = np.asarray(vectors, dtype=float)
    lo, hi = 0.0, np.pi
    best = -np.inf
    for _ in range(rounds):
        th = np.linspace(lo, hi, resolution)
        vals = np.sum((fs @ np.stack([np.cos(th), np.sin(th)])) ** 4, axis=0)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        step = th[1] - th[0]
        lo, hi = th[i] - step, th[i] + step
    return best


def lower_lip_scan(vectors, resolution=1024, rounds=4):
    """min over unit u, v in R^2 of sum_k (<u, f_k> <v, f_k>)^2 (the a0
    ratio of a real n = 2 frame, whose denominator is 1 at unit pairs) by a
    scan of all pairs of angles in [0, pi) (u and -u give the same value),
    zoomed in ``rounds`` times onto the two grid steps around the best pair
    in each angle."""
    fs = np.asarray(vectors, dtype=float)
    lo, hi = np.zeros(2), np.full(2, np.pi)
    best = np.inf
    for _ in range(rounds):
        th = np.linspace(lo, hi, resolution)  # one column per angle
        a, b = ((fs @ np.stack([np.cos(t), np.sin(t)])) ** 2 for t in th.T)
        Q = a.T @ b
        i, j = np.unravel_index(int(np.argmin(Q)), Q.shape)
        best = min(best, float(Q[i, j]))
        step = th[1] - th[0]
        lo, hi = th[[i, j], [0, 1]] - step, th[[i, j], [0, 1]] + step
    return best


def _float_repr17(x):
    if math.isfinite(x):
        return format(x, ".17g")
    raise ValueError(f"non-finite value {x!r} cannot be serialized")


class _Float17Encoder(json.JSONEncoder):
    """The stdlib's pure-Python encoder with floats written at 17
    significant digits."""

    def iterencode(self, o, _one_shot=False):
        indent = self.indent
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent
        make = json.encoder._make_iterencode(
            {},
            self.default,
            json.encoder.encode_basestring_ascii,
            indent,
            _float_repr17,
            self.key_separator,
            self.item_separator,
            self.sort_keys,
            self.skipkeys,
            _one_shot,
        )
        return make(o, 0)


def _pyify(obj):
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):  # a 0-d array's tolist() is a scalar
        return _pyify(obj.tolist())
    # bool before int: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def dumps_json_stdlib(obj):
    """JSON text of ``obj`` by element-wise conversion to Python scalars and
    the stdlib encoder: indent 2, floats at 17 significant digits."""
    return json.dumps(_pyify(obj), cls=_Float17Encoder, indent=2) + "\n"


def _row_dots_ref(U, V):
    """One dot per row of two (k, d) stacks, as ``core._row_dots`` forms it."""
    return (U.conj()[:, None, :] @ V[:, :, None])[:, 0, 0]


def bfgs_reference(fun, X0, ftol=1e-13, gtol=1e-9, max_iters=15000):
    """``core._bfgs`` as it stood before its loop dropped the masked writes
    that change no row's arithmetic: every step masks P and H by the live
    and updated rows, writes the three stop rules and tests for fresh rows.
    The new loop must return the same X, values, nit, nfev and stops bit
    for bit."""
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
        while live.any():
            # the step is -P. A stopped row's P is +0, so it stands still and
            # re-evaluates to its own bits, as an accepted row does at a later
            # halving; only rows still searching count evaluations.
            P = np.where(live[:, None], (H @ G[:, :, None])[:, :, 0], 0.0)
            c1 = 1e-4 * np.maximum(_row_dots_ref(G, P), 0.0)  # no rise where H does not descend
            alpha = (np.where(fresh, np.minimum(1.0, 1.0 / np.sqrt(_row_dots_ref(P, P))), 1.0)
                     if fresh.any() else np.ones(k))  # a first step is at most unit length
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
            for rows, stop in ((np.abs(G).max(axis=1) <= gtol, "stationary"),
                               (drop <= ftol * np.maximum(np.abs(f), 1.0), "rel_decrease"),
                               (nit >= max_iters, "max_iters")):
                stops[rows & live] = stop
                live &= ~rows
            sy = _row_dots_ref(S, Y)  # 0 on every row that did not move
            upd = sy > 0.0
            if (upd & fresh).any():
                H = np.where((upd & fresh)[:, None, None],
                             (sy / _row_dots_ref(Y, Y))[:, None, None] * eye, H)
            # H + s (c s - rho Hy)^T - rho Hy s^T, with rho = 1 / s^T y and
            # c = rho^2 y^T H y + rho: the update (6.17)
            HY = (H @ Y[:, :, None])[:, :, 0]
            rho = (1.0 / sy)[:, None]
            U[:, :, 0], U[:, :, 1] = S, HY
            V[:, 0] = (rho * rho * _row_dots_ref(Y, HY)[:, None] + rho) * S - rho * HY
            V[:, 1] = -rho * S
            H = np.where(upd[:, None, None], H + U @ V, H)
            fresh &= ~upd
    return X, f * scale, nit, nfev, list(stops)
