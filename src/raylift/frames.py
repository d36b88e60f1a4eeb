"""Frames, the intensity measurement maps, the induced linear map on
self-adjoint operators with its min-norm pseudoinverse, frame generators and
JSON file I/O.

All numeric output is serialized with 17 significant digits so round-trips
are bit exact.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, Union

import numpy as np

from .core import Field, SymOp, Vector, _as_field_array, _freeze

__all__ = [
    "Frame",
    "Measurement",
    "LiftedMap",
    "FrameFileError",
    "measure",
    "amplitudes",
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
    m x n synthesis matrix: row k is the frame vector f_k."""

    synthesis: np.ndarray
    field: Field
    label: str = ""

    def __post_init__(self):
        a = _as_field_array(self.synthesis, self.field, 2, "frame")
        count, dim = a.shape
        if count == 0:
            raise ValueError("frame needs at least one vector")
        if dim == 0:
            raise ValueError("frame vectors must have at least one entry")
        if count < dim:
            raise ValueError(f"frame needs count >= dim, got m={count} < n={dim}")
        object.__setattr__(self, "synthesis", _freeze(a))
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
    noisy inputs may dip below zero."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64)
        if a.ndim != 1:
            raise ValueError(f"measurement must be 1-dimensional, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("measurement has non-finite entries")
        object.__setattr__(self, "values", _freeze(a))

    @property
    def count(self) -> int:
        return self.values.shape[0]


def _check_frame_vector(F: Frame, x: Vector):
    if x.field is not F.field:
        raise ValueError(f"field mismatch: frame {F.field.value}, vector {x.field.value}")
    if x.dim != F.dim:
        raise ValueError(f"dimension mismatch: frame dim {F.dim}, vector dim {x.dim}")


def measure(F: Frame, x: Vector) -> Measurement:
    """Intensity measurements: entry k is |<x, f_k>|^2.

    Invariant under multiplying x by any unimodular scalar.
    """
    _check_frame_vector(F, x)
    coeff = F.synthesis.conj() @ x.entries
    return Measurement(np.abs(coeff) ** 2)


def amplitudes(F: Frame, x: Vector) -> Measurement:
    """Amplitude measurements: entrywise square root of measure(F, x)."""
    return Measurement(np.sqrt(measure(F, x).values))


def _sym_dim(n: int, field: Field) -> int:
    return n * (n + 1) // 2 if field is Field.REAL else n * n


@lru_cache(maxsize=64)
def _triu_pairs(n: int) -> tuple:
    """Read-only ``np.triu_indices(n, 1)``, built once per n."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def sym_coords(M: np.ndarray, field: Field) -> np.ndarray:
    """Coordinates of self-adjoint matrices in the fixed real orthonormal
    basis of the operator space; works on stacks (..., n, n)."""
    n = M.shape[-1]
    iu, ju = _triu_pairs(n)
    diag = np.real(M[..., np.arange(n), np.arange(n)])
    off = M[..., iu, ju]
    parts = [diag, math.sqrt(2) * np.real(off)]
    if field is Field.COMPLEX:
        parts.append(math.sqrt(2) * np.imag(off))
    return np.concatenate(parts, axis=-1)


def sym_from_coords(c: np.ndarray, n: int, field: Field) -> np.ndarray:
    """Inverse of sym_coords for a single coordinate vector."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (_sym_dim(n, field),):
        raise ValueError(f"expected {_sym_dim(n, field)} coordinates, got shape {c.shape}")
    iu, ju = _triu_pairs(n)
    k = iu.size
    M = np.zeros((n, n), dtype=field.dtype)
    M[np.arange(n), np.arange(n)] = c[:n]
    re = c[n : n + k] / math.sqrt(2)
    if field is Field.COMPLEX:
        im = c[n + k :] / math.sqrt(2)
        off = re + 1j * im
    else:
        off = re
    M[iu, ju] = off
    M[ju, iu] = np.conj(off)
    return M


@dataclass(frozen=True)
class LiftedMap:
    """Matrix of the linear map T -> (<T f_k, f_k>)_k on self-adjoint
    operators, in the fixed real orthonormal basis, with its thresholded SVD
    for min-norm inversion."""

    matrix: np.ndarray
    dim: int
    field: Field
    rank: int
    _svd_u: np.ndarray
    _svd_s: np.ndarray
    _svd_vt: np.ndarray

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def sigma_min(self) -> float:
        """Smallest retained singular value (over the row space)."""
        return float(self._svd_s[self.rank - 1]) if self.rank else 0.0

    @property
    def sigma_max(self) -> float:
        return float(self._svd_s[0]) if self._svd_s.size else 0.0

    def is_full_rank(self) -> bool:
        return self.rank == self.cols

    def apply(self, T: SymOp) -> np.ndarray:
        if T.dim != self.dim or T.field is not self.field:
            raise ValueError("operator does not match the lifted map's space")
        return self.matrix @ sym_coords(T.entries, self.field)


def build_lifted_map(F: Frame) -> LiftedMap:
    """Assemble the measurement matrix on lifted operators for a frame.

    Row k holds the basis coordinates of the rank-one functional of f_k; the
    numerical rank counts singular values above ``_PINV_TOL`` times the top.
    """
    fs = F.synthesis
    outers = np.einsum("ki,kj->kij", fs, fs.conj())
    rows = sym_coords(outers, F.field)
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > _PINV_TOL * s[0])) if s.size else 0
    return LiftedMap(
        matrix=_freeze(rows),
        dim=F.dim,
        field=F.field,
        rank=rank,
        _svd_u=_freeze(u),
        _svd_s=_freeze(s),
        _svd_vt=_freeze(vt),
    )


def min_norm_inverse(M: LiftedMap, c: Union[Measurement, np.ndarray]) -> SymOp:
    """Minimum-Frobenius-norm self-adjoint T minimizing ||M(T) - c||_2, via
    the singular-value-thresholded pseudoinverse.

    Linear in c; exact on the measurement range whenever M has full column
    rank.
    """
    values = c.values if isinstance(c, Measurement) else np.asarray(c, dtype=np.float64)
    if values.shape != (M.rows,):
        raise ValueError(f"measurement count {values.shape} does not match m={M.rows}")
    r = M.rank
    coords = M._svd_vt[:r].T @ ((M._svd_u[:, :r].T @ values) / M._svd_s[:r])
    return SymOp(sym_from_coords(coords, M.dim, M.field), M.field)


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
        if count < dim:
            raise ValueError(f"need count >= dim, got m={count} < n={dim}")
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((count, dim))
        if field is Field.COMPLEX:
            a = a + 1j * rng.standard_normal((count, dim))
        return Frame(a, field, label=f"gaussian-n{dim}-m{count}-{field.value}-seed{seed}")
    raise ValueError(f"unknown frame kind {kind!r}")


# --- JSON serialization -----------------------------------------------------

_INDENT = "  "


def _float_repr17(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g")
    raise ValueError(f"non-finite value {x!r} cannot be serialized")


def _encode_array(a: np.ndarray, level: int) -> str:
    """A float array as nested JSON lists, formatted in one pass: the leaves
    first, then one join per axis from the innermost out."""
    if a.dtype.kind != "f":
        return _encode(a.tolist(), level)
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"non-finite value {float(a[~finite][0])!r} cannot be serialized")
    parts = [format(x, ".17g") for x in a.ravel().tolist()]
    for axis in range(a.ndim - 1, -1, -1):
        d = a.shape[axis]
        if d == 0:
            parts = ["[]"] * math.prod(a.shape[:axis])
            continue
        inner = _INDENT * (level + axis + 1)
        head, sep = "[\n" + inner, ",\n" + inner
        tail = "\n" + _INDENT * (level + axis) + "]"
        parts = [head + sep.join(parts[i : i + d]) + tail for i in range(0, len(parts), d)]
    return parts[0]


def _encode(o, level: int) -> str:
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
        return _encode_array(o, level)
    # in containers a float leaf, the commonest, skips the recursive call
    inner = _INDENT * (level + 1)
    sep = ",\n" + inner
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = []
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            v = _float_repr17(v) if type(v) is float else _encode(v, level + 1)
            items.append(encode_basestring_ascii(k) + ": " + v)
        return "{\n" + inner + sep.join(items) + "\n" + _INDENT * level + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_float_repr17(v) if type(v) is float else _encode(v, level + 1) for v in o]
        return "[\n" + inner + sep.join(items) + "\n" + _INDENT * level + "]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    """Serialize to JSON, indented by 2, with all floats at 17 significant
    digits; numpy scalars and arrays are accepted, and float arrays are
    written in bulk."""
    return _encode(obj, 0) + "\n"


def _vec_to_json(entries: np.ndarray, field: Field) -> np.ndarray:
    """JSON form of a vector, or of a stack of them, as a float array:
    numbers, or [re, im] pairs in the complex field."""
    if field is Field.COMPLEX:
        return np.stack([entries.real, entries.imag], axis=-1)
    return entries


def _entry_error(e, where: str) -> Optional[str]:
    """Why a parsed JSON leaf is not a finite number, or None if it is."""
    if not isinstance(e, (int, float)) or isinstance(e, bool):
        return f"{where}: expected number, got {e!r}"
    try:
        finite = math.isfinite(e)
    except OverflowError:
        finite = False
    return None if finite else f"{where}: expected a finite number, got {e!r}"


def _bulk_numbers(nested: list, shape: tuple) -> Optional[np.ndarray]:
    """``nested``, as ``json.loads`` returns it, as a float64 array of
    ``shape``; None unless every container is a list and every leaf a
    finite int or float (no bool)."""
    if not nested:  # np.array([]) has shape (0,), whatever shape is wanted
        return np.zeros(shape)
    try:
        a = np.array(nested, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if a.shape != shape or not np.isfinite(a).all():
        return None
    level = nested
    for _ in range(len(shape) - 1):
        if not set(map(type, level)) <= {list}:
            return None
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        return None
    return a


def _frame_entries_error(rows: list, dim: int, field: Field, where: str) -> str:
    """The first entry of a frame's vectors that is not well formed."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            return f"{where}.vectors[{i}]: expected {dim} entries"
        for j, e in enumerate(row):
            at = f"{where}.vectors[{i}][{j}]"
            if field is Field.COMPLEX:
                if not (isinstance(e, list) and len(e) == 2):
                    return f"{at}: expected [re, im] pair, got {e!r}"
                err = _entry_error(e[0], f"{at}[0]") or _entry_error(e[1], f"{at}[1]")
            else:
                err = _entry_error(e, at)
            if err:
                return err
    return f"{where}.vectors: malformed entries"


def frame_to_dict(F: Frame) -> dict:
    return {
        "field": F.field.value,
        "dim": F.dim,
        "count": F.count,
        "vectors": _vec_to_json(F.synthesis, F.field),
        "label": F.label,
    }


def frame_from_dict(doc: dict, where: str = "frame") -> Frame:
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
    rows = doc["vectors"]
    if not isinstance(rows, list) or len(rows) != count:
        raise FrameFileError(f"{where}.vectors: expected {count} vectors")
    shape = (count, dim, 2) if field is Field.COMPLEX else (count, dim)
    a = _bulk_numbers(rows, shape)
    if a is None:
        raise FrameFileError(_frame_entries_error(rows, dim, field, where))
    if field is Field.COMPLEX:
        # the bits of each (re, im) pair, signed zeros included
        a = a.view(np.complex128)[..., 0]
    try:
        return Frame(a, field, label=str(doc.get("label", "")))
    except ValueError as e:
        raise FrameFileError(f"{where}: {e}") from e


def write_frame(path, F: Frame) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(frame_to_dict(F)))


def read_frame(path) -> Frame:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FrameFileError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    return frame_from_dict(doc, where=str(path))


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
    """Read measurement rows; 'values' may be one flat row or a list of rows."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FrameFileError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict) or "count" not in doc or "values" not in doc:
        raise FrameFileError(f"{path}: expected object with keys 'count' and 'values'")
    count, values = doc["count"], doc["values"]
    if type(count) is not int:  # not isinstance: that admits bool
        raise FrameFileError(f"{path}.count: expected integer, got {count!r}")
    if not isinstance(values, list) or not values:
        raise FrameFileError(f"{path}.values: expected a nonempty list")
    rows = values if isinstance(values[0], list) else [values]
    a = _bulk_numbers(rows, (len(rows), count))
    if a is None:
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != count:
                raise FrameFileError(f"{path}.values[{i}]: expected {count} numbers")
            for j, e in enumerate(row):
                err = _entry_error(e, f"{path}.values[{i}][{j}]")
                if err:
                    raise FrameFileError(err)
        raise FrameFileError(f"{path}.values: malformed entries")
    return [Measurement(row) for row in a]
