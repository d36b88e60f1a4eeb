"""Frames, the intensity measurement maps, the induced linear map on
self-adjoint operators with its min-norm pseudoinverse, frame generators and
JSON file I/O.

All numeric output is serialized with 17 significant digits so round-trips
are bit exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, Union

import numpy as np

from .core import (Field, SymOp, Vector, _as_field_array, _check_same, _freeze, _gaussian,
                   _row_dots, _unchecked)

__all__ = [
    "Frame",
    "Measurement",
    "LiftedMap",
    "FrameFileError",
    "measure",
    "build_lifted_map",
    "min_norm_inverse",
    "gen_frame",
    "read_frame",
    "write_frame",
    "read_measurements",
    "write_measurements",
    "dumps_json",
]

_SPAN_TOL = 1e-10
_PINV_TOL = 1e-10
# least estimated reciprocal condition number of A^T A for the Cholesky path
# of build_lifted_map; the normal equations' relative error is then about
# eps / 1e-6 ~ 2e-10
_CHOL_RCOND = 1e-6
_SQRT2 = math.sqrt(2)

NAMED_FRAMES = {
    # phase retrievable in R^2 (full spark, m = 3 = 2n - 1)
    "r2_pr3": [[1.0, 0.0], [0.0, 1.0], [1 / math.sqrt(2), 1 / math.sqrt(2)]],
    # orthonormal basis of R^2: not phase retrievable
    "r2_onb": [[1.0, 0.0], [0.0, 1.0]],
}


class FrameFileError(ValueError):
    """A frame or measurement file failed to parse or validate."""


@dataclass(frozen=True)
class Frame:
    """An ordered spanning set of the n-dimensional Hilbert space, held as its
    m x n synthesis matrix: row k is the frame vector f_k.

    ``file_sha256`` is the hex sha256 of the file ``read_frame`` parsed the
    frame from, byte for byte as written, and ``check`` and ``reconstruct``
    report it as ``frame_hash``: whitespace and the spelling of numbers
    count, so two files of one frame may differ in it. It is None for a
    frame not read from a file, and equality ignores it.
    """

    synthesis: np.ndarray
    field: Field
    label: str = ""
    file_sha256: Optional[str] = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self):
        a = _as_field_array(self.synthesis, self.field, 2, "frame")
        count, dim = a.shape
        if count == 0:
            raise ValueError("frame needs at least one vector")
        if dim == 0:
            raise ValueError("frame vectors must have at least one entry")
        if count < dim:
            raise ValueError(f"frame needs count >= dim, got m={count} < n={dim}")
        object.__setattr__(self, "synthesis", a)
        s = self.singular_values()
        if s[-1] <= _SPAN_TOL * s[0]:
            raise ValueError(
                f"frame does not span: singular values range [{s[-1]:.3e}, {s[0]:.3e}]"
            )

    @property
    def dim(self) -> int:
        return self.synthesis.shape[1]

    @property
    def count(self) -> int:
        return self.synthesis.shape[0]

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.synthesis, compute_uv=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Frame)
            and self.field is other.field
            and self.label == other.label
            and bool(np.array_equal(self.synthesis, other.synthesis))
        )


@dataclass(frozen=True)
class Measurement:
    """A real measurement vector; genuine intensities are nonnegative but
    noisy inputs may dip below zero. The values are a finite 1-dimensional
    real array: complex input with a nonzero imaginary part is refused, not
    cast."""

    values: np.ndarray

    def __post_init__(self):
        a = _as_field_array(self.values, Field.REAL, 1, "measurement")
        object.__setattr__(self, "values", a)

    @property
    def count(self) -> int:
        return self.values.shape[0]


def _measurement(c: Union[Measurement, np.ndarray], count: int) -> Measurement:
    """``c`` as a Measurement of ``count`` entries: the rule for every
    measurement argument of the inversion API."""
    if not isinstance(c, Measurement):
        c = Measurement(c)
    if c.count != count:
        raise ValueError(f"measurement count {c.count} does not match frame count {count}")
    return c


# Rows round independently of their stack: row i is its one-row call bit for bit.

def _conj_coeffs(F: Frame, X: np.ndarray) -> np.ndarray:
    """conj(<x, f_k>) for each row x of a (k, n) stack, one product per row."""
    return (X.conj()[:, None, :] @ F.synthesis.T)[:, 0, :]


def _synthesize(F: Frame, W: np.ndarray) -> np.ndarray:
    """F^T w = sum_k w_k f_k for each row w of a (k, m) stack, one product per row."""
    return (W[:, None, :] @ F.synthesis)[:, 0, :]


def _coeff_rows(F: Frame, B: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The (k, m, d) float64 view of the rows <x, f_k> f_k, given B =
    ``_conj_coeffs(F, X)``: the a0 screen's L and polish's J / 2. ``out``, a
    C-ordered (k, m, n) array of the frame's dtype, receives the product, so
    a caller that forms many stacks reuses one buffer."""
    return np.multiply(B.conj()[:, :, None], F.synthesis, out=out).view(np.float64)


def _phase_fill(S: np.ndarray, X: np.ndarray, weight: np.ndarray) -> None:
    """Add weight w w^T in place to each matrix of a (k, d, d) stack S, with
    w the unit float64 view of i x for the row x of a (k, n) complex stack:
    the phase direction, along which |<x, f_k>|^2 does not change, so the
    real forms of polish and of the a0 screen annihilate it. Nothing is
    added for a real stack, which has no phase direction."""
    if np.iscomplexobj(X):
        w = (1j * X).view(np.float64)
        w = w / np.sqrt(_row_dots(w, w))[:, None]
        S += weight[:, None, None] * (w[:, :, None] * w[:, None, :])


# rows x m x n entries per block of rows: the a0 screen's ``_coeff_rows``
# stack and polish's coefficient stacks take at most this many at a time, so a
# wide frame adds little to either's peak memory
_STACK_ENTRIES = 2 ** 18


def measure(F: Frame, x: Vector) -> Measurement:
    """Intensity measurements: entry k is |<x, f_k>|^2.

    Invariant under multiplying x by any unimodular scalar.
    """
    _check_same(F, x)
    return Measurement(np.abs(_conj_coeffs(F, x.entries[None])[0]) ** 2)


def _sym_dim(n: int, field: Field) -> int:
    return n * (n + 1) // 2 if field is Field.REAL else n * n


@lru_cache(maxsize=64)
def _triu_pairs(n: int) -> tuple:
    """Read-only ``np.triu_indices(n, 1)``, built once per n."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


@lru_cache(maxsize=64)
def _sym_table(n: int, field: Field) -> tuple:
    """``(positions, scales, head_t, spread)``, read-only, for n x n
    matrices of the field. ``positions`` are flat positions in the float64
    view: first the coordinates' entries, in coordinate order (the
    diagonal's real parts, then the real and, in the complex field, the
    imaginary parts of ``_triu_pairs``' (i, j)), then the (j, i) parts. The
    diagonal's imaginary parts, the only positions left out, hold zero. Each
    position has a scale, entry times scale being its coordinate: 1 on the
    diagonal, sqrt(2) above it and below it, and -sqrt(2) at the imaginary
    parts below it. ``sym_coords`` gathers the head and multiplies;
    ``head_t`` is that head read through the transpose, so that it gathers
    from the float64 view of a Fortran-ordered matrix's ``ravel("F")``.
    ``sym_from_coords`` spreads the coordinates t as t[spread] = [t, t[n:]],
    divides and scatters."""
    iu, ju = _triu_pairs(n)
    diag, upper, lower = np.arange(n) * (n + 1), iu * n + ju, ju * n + iu
    k, cols = iu.size, _sym_dim(n, field)
    if field is Field.COMPLEX:
        diag, upper, lower = 2 * diag, [2 * upper, 2 * upper + 1], [2 * lower, 2 * lower + 1]
        signs = [1.0] * 3 * k + [-1.0] * k
    else:
        upper, lower = [upper], [lower]
        signs = [1.0] * 2 * k
    table = (np.concatenate([diag, *upper, *lower]),
             np.concatenate([np.ones(n), _SQRT2 * np.array(signs)]),
             np.concatenate([diag, *lower]), np.concatenate([np.arange(cols), np.arange(n, cols)]))
    for a in table:
        a.setflags(write=False)
    return table


def sym_coords(M: np.ndarray, field: Field) -> np.ndarray:
    """Coordinates of one n x n self-adjoint matrix of the field in the
    fixed real orthonormal basis of the operator space."""
    a = np.ascontiguousarray(M, dtype=field.dtype)
    cols = _sym_dim(a.shape[0], field)
    positions, scales = _sym_table(a.shape[0], field)[:2]
    return a.view(np.float64).ravel()[positions[:cols]] * scales[:cols]


def sym_from_coords(t: np.ndarray, n: int, field: Field) -> np.ndarray:
    """Inverse of sym_coords for a single coordinate vector."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (_sym_dim(n, field),):
        raise ValueError(f"expected {_sym_dim(n, field)} coordinates, got shape {t.shape}")
    positions, scales, _, spread = _sym_table(n, field)
    vals = t[spread] / scales
    if field is Field.COMPLEX and np.count_nonzero(t) < t.size:
        # the bits of the complex re + 1j * im and its conjugate at a zero:
        # a real part keeps -0.0 only beside an im with its sign bit set, and
        # a zero im is +0.0 above the diagonal and -0.0 below it
        re, im = np.split(t[n:] / _SQRT2, 2)
        re, im = re + 0.0 * im, im + 0.0
        vals = np.concatenate([t[:n], re, im, re, -im])
    M = np.zeros(n * n, dtype=field.dtype)
    M.view(np.float64)[positions] = vals
    return M.reshape(n, n)


@dataclass(frozen=True)
class LiftedMap:
    """The linear map A: T -> (<T f_k, f_k>)_k on self-adjoint operators,
    in the fixed real orthonormal basis, held as its frame and the factors
    of its min-norm inverse, not as A.

    On the Cholesky path (``_right`` is None) ``_left`` is the upper
    Cholesky factor R of G = A^T A over a zeroed lower triangle, Fortran
    ordered in the buffer in which G was formed, and the inverse reads A^T c
    from the frame, so the map holds no m x cols array. On the SVD path
    ``_left`` is V_r S_r^-1 and ``_right`` is U_r^T, r x m (see
    ``build_lifted_map``). The singular values behind
    ``sigma_min`` and ``sigma_max`` are computed on first use and cached;
    they form A from the frame while they run, and the map keeps no copy of
    it. The min-norm inverse needs neither.
    """

    frame: Frame
    rank: int
    _left: np.ndarray
    _right: Optional[np.ndarray]

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def field(self) -> Field:
        return self.frame.field

    @property
    def rows(self) -> int:
        return self.frame.count

    @property
    def cols(self) -> int:
        return _sym_dim(self.frame.dim, self.frame.field)

    @cached_property
    def _singular_values(self) -> np.ndarray:
        # A is the column-major transpose of _lifted_rows' C-ordered buffer,
        # the bits and layout that build_lifted_map factors
        return _freeze(np.linalg.svd(_lifted_rows(self.frame).T, compute_uv=False))

    @property
    def sigma_min(self) -> float:
        """Smallest retained singular value (over the row space)."""
        return float(self._singular_values[self.rank - 1]) if self.rank else 0.0

    @property
    def sigma_max(self) -> float:
        return float(self._singular_values[0])


@cache
def _linalg():
    """scipy's compiled BLAS and LAPACK wrappers, the f2py extension modules
    ``scipy.linalg._fblas`` and ``scipy.linalg._flapack``, loaded on first
    use: only the lifted Gram, the Cholesky path and ``min_norm_inverse``
    call them, so ``gen``, ``check`` and ``probe`` never load them.

    ``scipy.linalg.blas`` and ``scipy.linalg.lapack`` re-export these two
    modules' functions with ``import *``, so the functions called here are
    scipy's own objects, with the same ``libscipy_openblas``. Importing them
    through ``scipy.linalg`` would run that package's ``__init__``, which
    loads about 320 modules and 23 MiB of resident memory (numpy.f2py,
    importlib.metadata, scipy's array-API layer, ...) that no command uses;
    the two wrappers together with a plain ``import scipy``, which sets up
    scipy's library path, take 25 modules and about 4.5 MiB (both measured
    after ``import raylift.cli``, scipy 1.17). They are loaded from scipy's
    install directory and registered in ``sys.modules`` under their own
    names, so a later ``import scipy.linalg`` reuses them and its
    ``blas.dsyrk`` is the object returned here; in that import order the
    package lacks the private attributes ``scipy.linalg._fblas`` and
    ``_flapack``, while every public name works. When scipy.linalg is loaded
    first, its modules are reused. A missing wrapper raises ``ImportError``
    naming the directory searched."""
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    wrappers = []
    for name in ("scipy.linalg._fblas", "scipy.linalg._flapack"):
        module = sys.modules.get(name)
        if module is None:
            spec = finder.find_spec(name)
            if spec is None:
                raise ImportError(f"no extension module {name} in {directory}", name=name)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        wrappers.append(module)
    return tuple(wrappers)


def _lifted_rows(F: Frame, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """The (cols, k) transpose of rows ``start:stop`` of A: column k holds
    ``sym_coords`` of f_k f_k^*, written pair by pair from the real and
    imaginary parts of the frame, so no k x n x n outer-product stack is
    formed. Each entry has the same bits in any block."""
    fs = F.synthesis[start:stop]
    n = F.dim
    re = np.ascontiguousarray(fs.real.T)
    im = np.ascontiguousarray(fs.imag.T) if F.field is Field.COMPLEX else None
    out = np.empty((_sym_dim(n, F.field), fs.shape[0]))
    out[:n] = re * re if im is None else re * re + im * im
    at, k = n, n * (n - 1) // 2
    for i in range(n - 1):  # the pairs (i, j > i), in _triu_pairs order
        end = at + n - 1 - i
        if im is None:
            out[at:end] = _SQRT2 * (re[i] * re[i + 1:])
        else:
            out[at:end] = _SQRT2 * (re[i] * re[i + 1:] + im[i] * im[i + 1:])
            out[k + at:k + end] = _SQRT2 * (im[i] * re[i + 1:] - re[i] * im[i + 1:])
        at = end
    return out


def _lifted_gram(F: Frame) -> np.ndarray:
    """G = A^T A in the upper triangle of a Fortran-ordered cols x cols
    buffer over a zeroed lower triangle, accumulated by one ``dsyrk`` per
    block of ``_lifted_rows`` of at most ``_STACK_ENTRIES`` entries, so no
    more of A than one block exists at a time."""
    cols = _sym_dim(F.dim, F.field)
    gram = None
    step = max(1, _STACK_ENTRIES // cols)
    for start in range(0, F.count, step):
        # the block's transpose is its F-contiguous (rows x cols) view, which
        # f2py passes without a copy
        block = _lifted_rows(F, start, start + step).T
        if gram is None:  # formed after the first block's row temporaries are gone
            gram = np.zeros((cols, cols), order="F")
        # the flags are (beta, c, trans, lower, overwrite_c): G += block^T block in place
        gram = _linalg()[0].dsyrk(1.0, block, 1.0, gram, 1, 0, 1)
        del block  # before the next block is written, so two never coexist
    return gram


def build_lifted_map(F: Frame) -> LiftedMap:
    """Factor the lifted map A of a frame for min-norm inversion.

    Row k of A holds the basis coordinates of the rank-one functional of
    f_k, ``sym_coords(f_k f_k^*)``: the diagonal re^2 + im^2, then sqrt(2)
    times re(f_ki conj(f_kj)) = re_i re_j + im_i im_j and, in the complex
    field, sqrt(2) times im(f_ki conj(f_kj)) = im_i re_j - re_i im_j over
    the pairs i < j. This real arithmetic gives the bits of the complex
    outer product (a complex ``a * b.conj()`` or ``abs(a)**2`` would not).
    ``_left`` keeps the layout LAPACK gives it; the BLAS calls in
    ``min_norm_inverse`` round according to that layout, so it is part of
    what makes the estimates reproducible bit for bit. The input picks the
    factorization:

    - Cholesky path: G = A^T A has a Cholesky factor and LAPACK's estimate of
      its reciprocal condition number exceeds ``_CHOL_RCOND``. Then A has
      full column rank, and the inverse solves G t = A^T c through the
      factor. Solving the normal equations squares the condition number, so
      the gate keeps their relative error near eps * cond(A)^2 <~ 1e-10.
    - SVD fallback, for rank-deficient and ill-conditioned frames, and at
      once, without forming G, when A has fewer rows than columns: the thin
      SVD A = U S V^T, whose numerical rank r counts singular values above
      ``_PINV_TOL`` times the top; the inverse applies V_r S_r^-1 U_r^T.

    Memory on the Cholesky path: the map holds R and the frame, and the
    build peaks at G plus one block of A (``_lifted_gram``) and, from the
    second block on, the block's row temporaries. G is factored (``dpotrf``) inside its own Fortran-ordered
    buffer, and ``_left`` is that buffer. The 1-norm that ``dpocon`` needs
    comes from ``dlange`` on G with its upper triangle mirrored in blocks of
    rows as wide as the blocks of A, not from an ``abs`` copy. The
    factor overwrites G, so anything that needs G itself, such as its
    eigenvalues, must read it before ``dpotrf`` runs. The SVD path forms A
    whole while it runs and keeps only its factors.
    """
    cols = _sym_dim(F.dim, F.field)
    rank, left, right = cols, None, None
    # with fewer rows than columns, G has rank <= m < cols: no Cholesky factor
    if F.count >= cols:
        gram = _lifted_gram(F)
        step = max(1, _STACK_ENTRIES // cols)
        for a in range(0, cols, step):  # the lower triangle, block by block
            b = a + step
            gram[a:b, :a] = gram[:a, a:b].T
            gram[a:b, a:b] += np.triu(gram[a:b, a:b], 1).T  # its lower part is still zero
        lapack = _linalg()[1]
        anorm = lapack.dlange("1", gram)
        gram, info = lapack.dpotrf(gram, overwrite_a=1)
        if info == 0 and lapack.dpocon(gram, anorm)[0] > _CHOL_RCOND:
            left = gram  # R in the upper triangle; dpotrf's clean=1 zeroed the lower
    if left is None:
        u, s, vt = np.linalg.svd(_lifted_rows(F).T, full_matrices=False)
        rank = int(np.sum(s > _PINV_TOL * s[0]))
        left, right = vt[:rank].T / s[:rank], _freeze(u[:, :rank].T)
    # a read-only view, not a copy: nothing else holds this buffer
    left.setflags(write=False)
    return LiftedMap(frame=F, rank=rank, _left=left, _right=right)


def _lifted_adjoint(F: Frame, c: np.ndarray) -> np.ndarray:
    """A^T c for the lifted map A of F, read from the frame: the coordinates
    of sum_k c_k f_k f_k^* = (c F)^T conj(F). ``gemm``'s op(b) = b^H
    conjugates without a copy of the frame, and both transposes are
    F-contiguous views, which f2py passes uncopied. Its Fortran-ordered
    result is read in place through the transposed head of ``_sym_table``."""
    fs = F.synthesis
    blas = _linalg()[0]
    gemm = blas.zgemm if F.field is Field.COMPLEX else blas.dgemm
    _, scales, head_t, _ = _sym_table(fs.shape[1], F.field)
    # positional flags (beta, c, trans_a, trans_b): f2py parses them faster
    S = gemm(1.0, (c[:, None] * fs).T, fs.T, 0.0, None, 0, 2)
    return S.ravel("F").view(np.float64)[head_t] * scales[:head_t.size]


def min_norm_inverse(M: LiftedMap, c: Union[Measurement, np.ndarray]) -> SymOp:
    """Minimum-Frobenius-norm self-adjoint T minimizing ||M(T) - c||_2.

    On the Cholesky path of ``build_lifted_map`` the coordinates of T solve
    G t = A^T c: A^T c comes from the frame in closed form, as the
    coordinates of sum_k c_k f_k f_k^*, so A is never formed; then two
    triangular solves with the factor, R^T y = A^T c and R t = y, which are
    cheaper and more accurate than a product with an explicit G^-1 (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 14.1). On the SVD
    fallback they are the singular-value-thresholded pseudoinverse
    V_r S_r^-1 (U_r^T c). Linear in c; exact on the measurement range
    whenever M has full column rank.
    """
    # a Measurement of the right count is checked already: the rest go
    # through the rule, errors and all
    if isinstance(c, Measurement) and c.values.shape[0] == M.rows:
        values = c.values
    else:
        values = _measurement(c, M.rows).values
    if M._right is None:
        # the factor goes to BLAS in its own Fortran order: f2py would copy
        # a C-ordered one on every call. The flags are positional (incx,
        # offx, lower, trans, diag, overwrite_x), which f2py parses faster
        # than keywords.
        trsv = _linalg()[0].dtrsv
        y = trsv(M._left, _lifted_adjoint(M.frame, values), 1, 0, 0, 1, 0, 1)
        coords = trsv(M._left, y, 1, 0, 0, 0, 0, 1)
    else:
        coords = M._left @ (M._right @ values)
    if not np.isfinite(coords).all():
        raise ValueError("operator has non-finite entries")
    # sym_from_coords writes each (j, i) entry as the exact conjugate of its
    # (i, j) entry and a real diagonal: SymOp's (A + A*)/2 would return it
    # bit for bit, but for entries of 2^1023 or more, where A + A* overflows
    T = sym_from_coords(coords, M.dim, M.field)
    T.setflags(write=False)
    return _unchecked(SymOp, entries=T, field=M.field)


def gen_frame(
    kind: str,
    dim: int,
    count: int,
    field: Field = Field.REAL,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> Frame:
    """Generate a frame.

    kind="random_gaussian" draws i.i.d. standard normal entries (real and
    imaginary parts for complex), deterministic in seed. kind="named" returns
    a fixed test frame by name; dim/count, when provided, must agree with it.
    """
    if kind == "named":
        if name not in NAMED_FRAMES:
            raise ValueError(f"unknown named frame {name!r}; options: {sorted(NAMED_FRAMES)}")
        rows = NAMED_FRAMES[name]
        if dim is not None and dim != len(rows[0]):
            raise ValueError(f"named frame {name} has dim {len(rows[0])}, requested {dim}")
        if count is not None and count != len(rows):
            raise ValueError(f"named frame {name} has count {len(rows)}, requested {count}")
        return Frame(np.asarray(rows, dtype=field.dtype), field, label=name)
    if kind == "random_gaussian":
        a = _gaussian(np.random.default_rng(seed), (count, dim), field)
        return Frame(a, field, label=f"gaussian-n{dim}-m{count}-{field.value}-seed{seed}")
    raise ValueError(f"unknown frame kind {kind!r}")


# --- JSON serialization -----------------------------------------------------

_INDENT = "  "
# values one "%" call fills: a row stack goes a block of at most this many
# values at a time (one row at least), so no stack-sized template or tuple
# is built; a float array whose axis-0 slices each hold more is written
# slice by slice, so no cached row template holds more slots than this
_TEMPLATE_CAP = 4096


def _float_repr17(x: float) -> str:
    if math.isfinite(x):
        return "%.17g" % x  # the bytes of format(x, ".17g"), faster
    raise ValueError(f"non-finite value {x!r} cannot be serialized")


def _key_text(k) -> str:
    """A dict key as JSON with the ": " after it."""
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return encode_basestring_ascii(k) + ": "


# a row stack's slot markers, one per dtype kind of its columns, and the
# "%" format each becomes in the row template; _encode writes a marker as
# a JSON string, "\u0000" then the kind
_SLOT_FORMATS = {"f": "%.17g", "i": "%d", "U": "%s"}


class _RowError(ValueError):
    """A value of row ``row`` of a ``_Rows`` stack that JSON cannot hold."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _slot_markers(o, columns: list):
    """``o`` with each array leaf appended to ``columns`` and replaced by
    one slot marker per entry of its row, nested as the row is; the walk
    takes the leaves in the order ``_encode`` writes them."""
    if isinstance(o, dict):
        return {k: _slot_markers(v, columns) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_slot_markers(v, columns) for v in o]
    if isinstance(o, np.ndarray):
        if o.dtype.kind not in _SLOT_FORMATS:
            raise TypeError(f"a row stack has no slot for arrays of dtype {o.dtype}")
        columns.append(o)
        return np.full(o.shape[1:], "\x00" + o.dtype.kind, dtype=object).tolist()
    return o


class _Rows:
    """k JSON documents of one layout, which ``dumps_json`` writes as a
    list, the bytes of the list of the k documents themselves. ``layout``
    is that document with each leaf that varies by row given as an array
    column, one entry (or subarray) per row: float, integer or str. A
    float column's row is written as a float or a float array, an integer
    one's as an int, a str one's as a string; every other leaf is the same
    on every row. One ``np.isfinite`` over the float columns refuses a
    non-finite value with a ``_RowError`` naming its row. A slot marker is
    a string, "\x00" then its kind, so no constant string or key of a
    layout may contain "\x00"."""

    __slots__ = ("sample", "columns", "floats")

    def __init__(self, layout):
        columns = []
        self.sample = _slot_markers(layout, columns)
        k = len(columns[0]) if columns else 0
        if not columns or any(len(c) != k for c in columns):
            raise ValueError("a row stack needs array columns of one length")
        self.columns = [c.reshape(k, math.prod(c.shape[1:])) for c in columns]
        floats = [c for c in self.columns if c.dtype.kind == "f"] or [np.empty((k, 0))]
        # one float column stays a view: a frame is not copied to be written
        self.floats = floats[0] if len(floats) == 1 else np.concatenate(floats, axis=1)
        finite = np.isfinite(self.floats)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise _RowError(int(i), f"non-finite value {float(self.floats[i, j])!r} "
                            f"cannot be serialized")

    def __len__(self) -> int:
        return len(self.floats)

    def values(self) -> np.ndarray:
        """The slots of each row, in the order the template holds them:
        the float stack itself, or Python objects when a column is not
        float, strings already encoded."""
        if all(c.dtype.kind == "f" for c in self.columns):
            return self.floats
        parts = []
        for c in self.columns:
            if c.dtype.kind == "U":
                c = np.array([encode_basestring_ascii(s) for s in c.ravel().tolist()],
                             dtype=object).reshape(c.shape)
            parts.append(c.astype(object))
        return np.concatenate(parts, axis=1)


@lru_cache(maxsize=64)
def _row_template(sample: str) -> str:
    """One row of a stack as a "%" template: ``sample``, the row's JSON
    text with a slot marker per value, with each marker made its format."""
    row = sample.replace("%", "%%")
    for kind, fmt in _SLOT_FORMATS.items():
        row = row.replace('"\\u0000' + kind + '"', fmt)
    return row


def _encode_rows(rows: _Rows, level: int) -> str:
    """A row stack as a JSON list: each block of at most ``_TEMPLATE_CAP``
    values (one row at least) fills the row template, repeated for the
    block, in one ``%`` call. Only the row template is cached: a block's
    is as long as its text."""
    if not len(rows):
        return "[]"
    inner = _INDENT * (level + 1)
    sep = ",\n" + inner
    row = _row_template(_encode(rows.sample, level + 1))
    values = rows.values()
    step = max(1, _TEMPLATE_CAP // max(1, values.shape[1]))
    parts = [sep.join([row] * len(b)) % tuple(b.ravel().tolist())
             for b in (values[i:i + step] for i in range(0, len(values), step))]
    return "[\n" + inner + sep.join(parts) + "\n" + _INDENT * level + "]"


def _encode(o, level: int) -> str:
    # containers first: no container is one of the scalar types below
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = _INDENT * (level + 1)
        items = [_key_text(k) + _encode(v, level + 1) for k, v in o.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + _INDENT * level + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = _INDENT * (level + 1)
        items = [_encode(v, level + 1) for v in o]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + _INDENT * level + "]"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    # bool before int: bool is a subclass of int
    if isinstance(o, (bool, np.bool_)):
        return "true" if o else "false"
    if isinstance(o, (int, np.integer)):
        return repr(int(o))
    if isinstance(o, (float, np.floating)):
        return _float_repr17(float(o))
    if isinstance(o, np.ndarray):
        if not o.ndim or o.dtype.kind != "f":
            return _encode(o.tolist(), level)
        if math.prod(o.shape[1:]) > _TEMPLATE_CAP:  # no row template above the cap
            return _encode(list(o), level)
        return _encode_rows(_Rows(o), level)
    if isinstance(o, _Rows):
        return _encode_rows(o, level)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    """Serialize to JSON, indented by 2, with all floats at 17 significant
    digits; numpy scalars and arrays are accepted. One template engine
    writes every row stack and float array; a non-finite float is a
    ValueError naming the first one in row order.

    A row stack (``_Rows``; ``reconstruct`` hands its report rows over as
    one) is written as the list of its k documents, with their bytes. Its
    layout is the caller's: for report rows, ``recover._report_doc``, the
    one ``RecoveryReport.to_dict`` fills with a single row's values. A float
    array of one or more dimensions is the row stack of its axis-0 slices.
    One row of the layout, a slot marker in place of each value that varies
    by row, is encoded here as any document is, and its markers become "%"
    formats: that row template is cached (64 of them) and, repeated for a
    block of rows, filled by one ``%`` call per block of at most
    ``_TEMPLATE_CAP`` (4096) values, one row when a row holds more. A float
    array whose axis-0 slices hold more than that is written slice by
    slice, so no cached template does. A 0-d array, or one not of floats,
    is written as its ``tolist()``."""
    return _encode(obj, 0) + "\n"


def _vec_to_json(entries: np.ndarray, field: Field) -> np.ndarray:
    """JSON form of a vector, or of a stack of them, as a float array:
    numbers, or [re, im] pairs in the complex field (the float64 view)."""
    if field is Field.COMPLEX:
        return entries.view(np.float64).reshape(entries.shape + (2,))
    return entries


def _numbers(nested, shape: tuple, where: str, wants: tuple) -> np.ndarray:
    """``nested``, as ``json.loads`` returns it, as a float64 array of
    ``shape``: every container at depth i a list of length ``shape[i]`` and
    every leaf a finite int or float (no bool). The checks walk the levels,
    then the flattened leaves convert in one ``np.array`` call, with the bits
    that one call on the nested lists gives. Otherwise a ``FrameFileError``
    names the first bad entry in row order, at ``where`` and its indices:
    ``wants[i]``, formatted with the entry, says what depth i expected."""
    level = [nested]
    for d in shape:
        if set(map(type, level)) - {list} or set(map(len, level)) - {d}:
            break
        level = list(itertools.chain.from_iterable(level))
    else:
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if not set(map(type, level)) - {int, float}:
                a = np.array(level, dtype=np.float64)
                if np.isfinite(a).all():
                    return a.reshape(shape)

    def walk(e, at: str, depth: int) -> None:
        if depth < len(shape):
            if type(e) is not list or len(e) != shape[depth]:
                raise FrameFileError(f"{at}: " + wants[depth].format(e))
            for i, x in enumerate(e):
                walk(x, f"{at}[{i}]", depth + 1)
            return
        if type(e) not in (int, float):  # not isinstance: that admits bool
            raise FrameFileError(f"{at}: expected number, got {e!r}")
        try:
            finite = math.isfinite(e)
        except OverflowError:
            finite = False
        if not finite:
            raise FrameFileError(f"{at}: expected a finite number, got {e!r}")

    walk(nested, where, 0)
    raise AssertionError("the fast path refused what the walk accepts")


def frame_to_dict(F: Frame) -> dict:
    return {
        "field": F.field.value,
        "dim": F.dim,
        "count": F.count,
        "vectors": _vec_to_json(F.synthesis, F.field),
        "label": F.label,
    }


def frame_from_dict(
    doc: dict, where: str = "frame", file_sha256: Optional[str] = None
) -> Frame:
    if not isinstance(doc, dict):
        raise FrameFileError(f"{where}: expected an object, got {type(doc).__name__}")
    for key in ("field", "dim", "count", "vectors"):
        if key not in doc:
            raise FrameFileError(f"{where}: missing required key {key!r}")
    try:
        field = Field(doc["field"])
    except ValueError:
        raise FrameFileError(f"{where}.field: expected 'real' or 'complex', got {doc['field']!r}")
    dim, count = doc["dim"], doc["count"]
    # type, not isinstance: JSON true and false parse to bool, a subclass of int
    if type(dim) is not int or type(count) is not int:
        raise FrameFileError(f"{where}: dim and count must be integers")
    if dim < 0 or count < 0:  # a negative length would pass as numpy's "infer"
        raise FrameFileError(f"{where}: dim and count must be nonnegative, got {dim} and {count}")
    shape = (count, dim, 2) if field is Field.COMPLEX else (count, dim)
    wants = (f"expected {count} vectors", f"expected {dim} entries",
             "expected [re, im] pair, got {!r}")
    a = _numbers(doc["vectors"], shape, f"{where}.vectors", wants)
    if field is Field.COMPLEX:
        # the bits of each (re, im) pair, signed zeros included
        a = a.view(np.complex128)[..., 0]
    try:
        return Frame(a, field, label=str(doc.get("label", "")), file_sha256=file_sha256)
    except ValueError as e:
        raise FrameFileError(f"{where}: {e}") from e


def write_frame(path, F: Frame) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(frame_to_dict(F)))


def _read_json(path, digest: bool = False):
    """The JSON document in the UTF-8 file at ``path``, and the hex sha256 of
    the file's bytes if ``digest`` (else None). The bytes are dropped once
    decoded, so ``json.loads`` runs beside one copy of the file's text."""
    with open(path, "rb") as fh:
        data = fh.read()
    sha256 = hashlib.sha256(data).hexdigest() if digest else None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FrameFileError(f"{path}: not UTF-8 at byte offset {e.start}: {e.reason}") from e
    del data
    try:
        return json.loads(text), sha256
    except json.JSONDecodeError as e:
        raise FrameFileError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e


def read_frame(path) -> Frame:
    """Read a frame file. The frame's ``file_sha256`` is the sha256 of the
    bytes read, so it is the digest of the file as written: re-saving the
    same frame with other whitespace or number spellings changes it. For a
    file written by ``write_frame`` it is the digest of
    ``dumps_json(frame_to_dict(F))``."""
    doc, sha256 = _read_json(path, digest=True)
    return frame_from_dict(doc, where=str(path), file_sha256=sha256)


def write_measurements(path, rows: Sequence[Measurement]) -> None:
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one measurement row")
    count = rows[0].count
    for r in rows:
        if r.count != count:
            raise ValueError("measurement rows must share one count")
    doc = {"count": count, "values": np.stack([r.values for r in rows])}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(doc))


def read_measurements(path) -> list:
    """Read measurement rows; 'values' may be one flat row or a list of rows.
    The rows are read-only views of the one float64 array that ``_numbers``
    validated (finite, real, one count per row), so each is what
    ``Measurement(row)`` would store, without a copy or a second check."""
    doc, _ = _read_json(path)
    if not isinstance(doc, dict) or "count" not in doc or "values" not in doc:
        raise FrameFileError(f"{path}: expected object with keys 'count' and 'values'")
    count, values = doc["count"], doc["values"]
    if type(count) is not int:  # not isinstance: that admits bool
        raise FrameFileError(f"{path}.count: expected integer, got {count!r}")
    if count < 0:
        raise FrameFileError(f"{path}.count: expected a nonnegative integer, got {count}")
    if not isinstance(values, list) or not values:
        raise FrameFileError(f"{path}.values: expected a nonempty list")
    wants = ("expected a nonempty list", f"expected {count} numbers")
    if isinstance(values[0], list):
        a = _numbers(values, (len(values), count), f"{path}.values", wants)
    else:  # one flat row: its entries are values[i], not values[0][i]
        a = _numbers(values, (count,), f"{path}.values", wants[1:])[None]
    a.setflags(write=False)  # its rows, views of it, are read-only too
    return [_unchecked(Measurement, values=row) for row in a]
