import importlib
import itertools
import json
import math
import sys
import tracemalloc
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import blas, lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from raylift import (
    Field,
    Frame,
    FrameFileError,
    Measurement,
    SymOp,
    Vector,
    build_lifted_map,
    estimate_lower_lip,
    gen_frame,
    measure,
    min_norm_inverse,
    polish,
    ray,
    read_frame,
    read_measurements,
    recover,
    sym_outer,
    vec,
    write_frame,
    write_measurements,
)

from raylift.cli import main as cli_main
from raylift.frames import (
    LiftedMap,
    _lifted_adjoint,
    _lifted_rows,
    _phase_fill,
    _sym_table,
    dumps_json,
    frame_to_dict,
    sym_coords,
    sym_from_coords,
)

from oracles import (
    dumps_json_stdlib,
    lifted_inverse_factors,
    lifted_rows_einsum,
    random_hermitian,
    random_vector,
    svd_min_norm,
    sym_from_coords_2d,
)


frames_mod = importlib.import_module("raylift.frames")


def _gauss(dim, count, field, seed=0):
    return gen_frame("random_gaussian", dim, count, field, seed=seed)


def _awkward(rng, shape):
    """Normal draws with about a fifth of the entries -0.0 and a fifth
    subnormal, each of either sign."""
    a = rng.standard_normal(shape)
    pick = rng.random(shape)
    a[pick < 0.2] = -0.0
    tiny = (pick >= 0.2) & (pick < 0.4)
    a[tiny] = rng.choice([-1.0, 1.0], tiny.sum()) * 5e-324 * rng.integers(1, 2 ** 40, tiny.sum())
    return a


class TestFrameType:
    def test_count_below_dim_rejected(self):
        with pytest.raises(ValueError, match=r"^frame needs count >= dim, got m=1 < n=2$"):
            Frame([[1.0, 0.0]], Field.REAL)

    def test_non_spanning_rejected(self):
        with pytest.raises(ValueError, match=r"^frame does not span"):
            Frame([[1.0, 0.0], [2.0, 0.0]], Field.REAL)

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^frame tagged real but has nonzero imaginary part$"):
            Frame([[1.0, 0.0], [1j, 1.0]], Field.REAL)

    @pytest.mark.parametrize("data,field,message", [
        ([[1.0, np.nan], [0.0, 1.0]], Field.REAL, r"^frame has non-finite entries$"),
        ([[1.0, 0.0], [np.inf * 1j, 1.0]], Field.COMPLEX, r"^frame has non-finite entries$"),
        ([1.0, 0.0], Field.REAL, r"^frame must be 2-dimensional, got shape \(2,\)$"),
        (np.zeros((0, 2)), Field.REAL, r"^frame needs at least one vector$"),
        (np.zeros((2, 0)), Field.COMPLEX, r"^frame vectors must have at least one entry$"),
    ], ids=["nan", "inf", "1-d", "m=0", "n=0"])
    def test_bulk_rejections(self, data, field, message):
        with pytest.raises(ValueError, match=message):
            Frame(data, field)

    def test_synthesis_read_only_and_not_aliased(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        F = Frame(a, Field.REAL)
        assert not F.synthesis.flags.writeable
        with pytest.raises(ValueError):
            F.synthesis[0, 0] = 2.0
        assert not np.shares_memory(F.synthesis, a)
        a[0, 0] = 5.0
        assert F.synthesis[0, 0] == 1.0

    def test_fortran_ordered_input(self, field):
        """A Fortran-ordered synthesis matrix is stored C-ordered, so its
        float64 view exists: it writes, screens and polishes as the
        C-ordered frame does, bit for bit."""
        F = _gauss(3, 12, field, seed=4)
        G = Frame(np.asfortranarray(F.synthesis), field, label=F.label)
        assert G.synthesis.flags.c_contiguous and G == F
        assert dumps_json(frame_to_dict(G)) == dumps_json(frame_to_dict(F))
        assert estimate_lower_lip(G, starts=4) == estimate_lower_lip(F, starts=4)
        x = vec(random_vector(np.random.default_rng(4), 3, field is Field.COMPLEX), field)
        c = measure(F, x).values * (1 + 0.05 * np.random.default_rng(5).standard_normal(12))

        def polished(H):
            rep = recover(H, c)
            est, res, stats = polish(H, c[None], [rep.estimate])[0]
            return dumps_json(replace(rep, estimate=est, residual=res, polish=stats).to_dict())

        assert polished(G) == polished(F)

    def test_equality(self, tmp_path, field):
        F = _gauss(3, 7, field, seed=12)
        write_frame(tmp_path / "f.json", F)
        assert read_frame(tmp_path / "f.json") == F
        assert F != Frame(2 * F.synthesis, field, label=F.label)
        assert F != Frame(F.synthesis, field, label="other")
        assert F != F.synthesis
        R = gen_frame("named", 2, 3, name="r2_pr3")
        assert R != Frame(R.synthesis, Field.COMPLEX, label=R.label)

    def test_no_vector_objects_built(self, tmp_path, monkeypatch, field):
        """The frame is validated and stored as one array: reading or
        generating it builds no per-vector Vector objects."""
        F = _gauss(3, 9, field, seed=2)
        write_frame(tmp_path / "f.json", F)
        built = []
        post_init = Vector.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Vector, "__post_init__", counting)
        assert read_frame(tmp_path / "f.json") == F
        assert _gauss(3, 9, field, seed=2) == F
        gen_frame("named", 2, 3, name="r2_pr3")
        assert built == []
        vec([1.0, 2.0])
        assert len(built) == 1


class TestPhaseFill:
    def test_real_stack_unchanged(self):
        rng = np.random.default_rng(1)
        S = rng.standard_normal((3, 4, 4))
        want = S.copy()
        _phase_fill(S, rng.standard_normal((3, 4)), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(S, want)

    def test_adds_weight_along_phase_direction(self):
        """On a complex stack the fill is weight w w^T, w the unit float64
        view of i x, which is orthogonal to the view of x."""
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        weight = np.array([1.0, 2.0, 3.0])
        S = np.zeros((3, 8, 8))
        _phase_fill(S, X, weight)
        for Si, x, wt in zip(S, X, weight):
            w = (1j * x).view(np.float64) / np.linalg.norm(x)
            assert np.allclose(Si, wt * np.outer(w, w), rtol=0, atol=1e-15 * wt)
            assert abs(x.view(np.float64) @ Si @ x.view(np.float64)) <= 1e-14 * wt


class TestMeasure:
    def test_standard_basis(self):
        F = gen_frame("named", 2, 2, name="r2_onb")
        assert np.array_equal(measure(F, vec([3.0, 1.0])).values, [9.0, 1.0])

    def test_zero_vector(self):
        F = gen_frame("named", 2, 2, name="r2_onb")
        assert np.array_equal(measure(F, vec([0.0, 0.0])).values, [0.0, 0.0])

    def test_phase_invariance(self, rng, field):
        F = _gauss(4, 9, field, seed=5)
        for _ in range(100):
            x = random_vector(rng, 4, field is Field.COMPLEX)
            if field is Field.COMPLEX:
                a = np.exp(1j * rng.uniform(0, 2 * np.pi))
            else:
                a = rng.choice([-1.0, 1.0])
            m1 = measure(F, vec(x, field)).values
            m2 = measure(F, vec(a * x, field)).values
            assert np.max(np.abs(m1 - m2)) <= 1e-12 * max(1.0, np.max(m1))

    def test_mismatch_errors(self):
        F = gen_frame("named", 2, 2, name="r2_onb")
        with pytest.raises(ValueError):
            measure(F, vec([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            measure(F, vec(np.array([1.0 + 0j, 0.0])))

    def test_factors_through_lifted_map(self, rng, field):
        F = _gauss(3, 8, field, seed=6)
        A = _lifted_rows(F).T
        for _ in range(50):
            x = vec(random_vector(rng, 3, field is Field.COMPLEX), field)
            lhs = measure(F, x).values
            rhs = A @ sym_coords(sym_outer(x, x).entries, field)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))


class TestLiftedMap:
    def test_basis_inner_products(self, rng, field):
        F = _gauss(4, 10, field, seed=7)
        A = _lifted_rows(F).T
        for _ in range(100):
            T = SymOp(random_hermitian(rng, 4, field is Field.COMPLEX), field)
            got = A @ sym_coords(T.entries, field)
            want = np.array([
                np.vdot(f, T.entries @ f).real for f in F.synthesis
            ])
            assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_diagonal_observation(self):
        F = gen_frame("named", 2, 2, name="r2_onb")
        M = build_lifted_map(F)
        T = SymOp(np.array([[1.5, 0.7], [0.7, -0.25]]), Field.REAL)
        assert np.allclose(_lifted_rows(F).T @ sym_coords(T.entries, Field.REAL), [1.5, -0.25],
                           atol=1e-14)
        assert M.rank == 2 and M.cols == 3

    def test_generic_full_rank(self, field):
        n = 3
        need = n * (n + 1) // 2 if field is Field.REAL else n * n
        F = _gauss(n, need + 2, field, seed=8)
        M = build_lifted_map(F)
        assert M.rank == M.cols == need

    def test_min_norm_zero(self, field):
        F = _gauss(3, 9, field, seed=9)
        M = build_lifted_map(F)
        T = min_norm_inverse(M, np.zeros(9))
        assert np.array_equal(T.entries, np.zeros_like(T.entries))

    def test_exactness_full_rank(self, rng, field):
        F = _gauss(3, 12, field, seed=10)
        M = build_lifted_map(F)
        assert M.rank == M.cols
        for _ in range(25):
            x = vec(random_vector(rng, 3, field is Field.COMPLEX), field)
            T = min_norm_inverse(M, measure(F, x))
            want = sym_outer(x, x).entries
            scale = max(1.0, float(np.linalg.norm(want)))
            assert np.linalg.norm(T.entries - want) <= 1e-8 * scale

    def test_rank_deficient_min_norm(self):
        F = gen_frame("named", 2, 2, name="r2_onb")
        M = build_lifted_map(F)
        T = min_norm_inverse(M, np.array([1.0, 1.0]))
        assert np.allclose(T.entries, np.eye(2), atol=1e-12)

    def test_linearity(self, rng, field):
        F = _gauss(3, 7, field, seed=11)
        M = build_lifted_map(F)
        for _ in range(25):
            c1 = rng.standard_normal(7)
            c2 = rng.standard_normal(7)
            lhs = min_norm_inverse(M, c1 + c2).entries
            rhs = min_norm_inverse(M, c1).entries + min_norm_inverse(M, c2).entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_count_mismatch(self):
        M = build_lifted_map(_gauss(2, 5, Field.REAL))
        with pytest.raises(ValueError):
            min_norm_inverse(M, np.zeros(4))


def _near_duplicate_frame(field):
    """A 3-dimensional frame with one vector fewer than the lifted map has
    columns, plus perturbed copies (relative size 1e-5) of three of them:
    full column rank, but cond(A) is 6e5 to 1e6, far beyond the Cholesky
    gate."""
    cols = 6 if field is Field.REAL else 9
    rng = np.random.default_rng(5)
    base = np.array([random_vector(rng, 3, field is Field.COMPLEX) for _ in range(cols - 1)])
    nudge = np.array([random_vector(rng, 3, field is Field.COMPLEX) for _ in range(3)])
    return Frame(np.vstack([base, base[:3] + 1e-5 * nudge]), field)


class TestLiftedFactorization:
    """``build_lifted_map`` against the thresholded SVD of the same matrix:
    the rank, both extreme singular values and the min-norm solution."""

    def _check_vs_svd(self, M, rng, tol):
        A = _lifted_rows(M.frame).T
        noise = rng.standard_normal(M.rows)
        in_range = A @ rng.standard_normal(M.cols)
        rank, s, want = svd_min_norm(A, np.stack([noise, in_range]))
        assert M.rank == rank
        assert M.sigma_min == pytest.approx(s[rank - 1], rel=1e-10)
        assert M.sigma_max == pytest.approx(s[0], rel=1e-10)
        for c, w in zip((noise, in_range), want):
            got = sym_coords(min_norm_inverse(M, c).entries, M.field)
            assert np.linalg.norm(got - w) <= tol * np.linalg.norm(w)

    @pytest.mark.parametrize("n, m", [(3, 9), (4, 16), (8, 72), (16, 272), (32, 2048)])
    def test_cholesky_path_matches_svd(self, rng, field, n, m):
        M = build_lifted_map(_gauss(n, m, field, seed=n))
        assert M._right is None  # the normal equations were used
        assert M.rank == M.cols
        self._check_vs_svd(M, rng, 1e-10)

    def test_ill_conditioned_frame_falls_back(self, rng, field):
        M = build_lifted_map(_near_duplicate_frame(field))
        assert M._right is not None  # the SVD fallback ran
        assert M.rank == M.cols
        assert M.sigma_min < 1e-3 * M.sigma_max
        self._check_vs_svd(M, rng, 1e-12)

    def test_rank_deficient_frame_falls_back(self, rng):
        M = build_lifted_map(_gauss(3, 5, Field.REAL, seed=2))
        assert M._right is not None
        assert M.rank == 5 and M.cols == 6
        self._check_vs_svd(M, rng, 1e-12)

    def test_singular_values_are_lazy(self, field):
        """Building the map and inverting with it never computes the
        singular values; the first ``sigma_min`` does, once."""
        M = build_lifted_map(_gauss(3, 12, field, seed=3))
        min_norm_inverse(M, np.ones(12))
        assert "_singular_values" not in vars(M)
        s = M.sigma_min
        assert "_singular_values" in vars(M) and M.sigma_min == s

    def test_matrix_is_lazy(self, field):
        """On the Cholesky path the map holds no m x cols array: building it
        and inverting with it never forms A, and ``sigma_min`` and
        ``sigma_max`` form it from the frame while they run and keep no
        copy."""
        F = _gauss(3, 19, field, seed=3)
        M = build_lifted_map(F)
        min_norm_inverse(M, np.ones(19))
        M.sigma_min, M.sigma_max
        assert M.frame is F
        assert not [k for k, v in vars(M).items()
                    if isinstance(v, np.ndarray) and v.size == M.rows * M.cols]

    # the frames of the benchmark's workloads: complex n = 8, m = 72 (two
    # seeds: recon-many and certify), n = 8, m = 128 and n = 32, m = 2048
    @pytest.mark.parametrize("n, m, seed", [(8, 72, 1), (8, 128, 1), (32, 2048, 1), (8, 72, 2)])
    def test_matrix_free_bits(self, n, m, seed):
        """``sigma_min`` and ``sigma_max`` give the bits of the same calls on
        A as the oracle writes it, in the column-major layout that
        ``build_lifted_map`` factors, and ``_lifted_rows`` writes the
        oracle's A bit for bit."""
        F = _gauss(n, m, Field.COMPLEX, seed=seed)
        M = build_lifted_map(F)
        A = np.asfortranarray(lifted_rows_einsum(F.synthesis, True))
        s = np.linalg.svd(A, compute_uv=False)
        assert M.sigma_max == s[0] and M.sigma_min == s[M.rank - 1]
        assert _same_bits(_lifted_rows(F).T, A)


def _same_bits(a, b):
    """Equal shape and equal bits, signed zeros included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestUncheckedValues:
    """Where the package builds a value without its validating constructor,
    the value is, bit for bit and read-only, what that constructor gives on
    the same array."""

    @staticmethod
    def _frozen_as_public(got, want):
        assert not got.flags.writeable and got.flags.c_contiguous
        assert got.dtype == want.dtype and _same_bits(got, want)

    # (3, 12) takes the Cholesky path and (3, 5), fewer rows than columns, the SVD
    @pytest.mark.parametrize("n, m", [(3, 12), (3, 5)])
    def test_min_norm_inverse_output(self, rng, field, n, m):
        cplx = field is Field.COMPLEX
        F = _gauss(n, m, field, seed=2)
        M = build_lifted_map(F)
        assert (M._right is None) == (m >= M.cols)
        x = vec(random_vector(rng, n, cplx), field)
        for c in (rng.standard_normal(m), measure(F, x).values, np.zeros(m), -np.zeros(m)):
            T = min_norm_inverse(M, c)
            self._frozen_as_public(T.entries, SymOp(T.entries, field).entries)
        # zero coordinates: the imaginary parts below the diagonal are -0.0
        assert np.signbit(T.entries.imag).any() == cplx

    def test_signed_zero_coordinates_are_a_fixed_point(self, field):
        """Every pattern of signed zeros beside nonzero coordinates at n = 2:
        what sym_from_coords writes is what SymOp's (A + A*)/2 stores."""
        cols = 4 if field is Field.COMPLEX else 3
        for t in itertools.product([0.0, -0.0, 1.5, -0.75], repeat=cols):
            A = sym_from_coords(np.array(t), 2, field)
            assert _same_bits(SymOp(A, field).entries, A)

    @pytest.mark.parametrize("n, m, value", [(3, 12, 1e308), (3, 5, np.finfo(float).max)])
    def test_overflowing_coordinates_refused(self, field, n, m, value):
        """Coordinates that overflow are refused by the one finiteness check
        min_norm_inverse keeps, with the message SymOp's check gave."""
        M = build_lifted_map(_gauss(n, m, field, seed=2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="^operator has non-finite entries$"):
            min_norm_inverse(M, np.full(m, value))

    def test_recover_estimate(self, rng, field):
        cplx = field is Field.COMPLEX
        F = _gauss(3, 12, field, seed=3)
        M = build_lifted_map(F)
        rows = [measure(F, vec(random_vector(rng, 3, cplx), field)).values for _ in range(20)]
        for c in rows + [rng.standard_normal(12), np.zeros(12)]:
            rep = recover(F, c, lifted=M).estimate.rep
            want = ray(Vector(rep.entries, field)).rep
            assert rep.field is field
            self._frozen_as_public(rep.entries, want.entries)

    @pytest.mark.parametrize("values", [
        [[1.5, -0.0, 2.0], [0.0, -3.25, 1e-300], [7.0, 8.0, -9.5]],
        [-0.0, 0.1, 5e-324],
    ])
    def test_read_measurements_rows(self, tmp_path, values):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"count": 3, "values": values}))
        rows = read_measurements(p)
        assert len({id(r.values.base) for r in rows}) == 1  # views of one array
        for r in rows:
            self._frozen_as_public(r.values, Measurement(r.values).values)


class TestMinNormInverseInput:
    """``min_norm_inverse`` takes a Measurement of the frame's count as it
    is; every input gives the bits and the errors of the measurement rule
    that ``recover`` applies (``_measurement``)."""

    # (3, 12) takes the Cholesky path and (3, 5) the SVD
    @pytest.mark.parametrize("n, m", [(3, 12), (3, 5)])
    def test_same_bits_and_errors(self, rng, field, n, m):
        M = build_lifted_map(_gauss(n, m, field, seed=2))
        c = _awkward(rng, m)
        want = min_norm_inverse(M, c).entries
        for same in (Measurement(c), c.tolist(), Measurement(c.tolist())):
            assert _same_bits(min_norm_inverse(M, same).entries, want)
        for wrong in (c[:-1], np.append(c, 1.0)):
            for bad in (wrong, Measurement(wrong)):
                with pytest.raises(ValueError) as got:
                    min_norm_inverse(M, bad)
                assert str(got.value) == (
                    f"measurement count {wrong.size} does not match frame count {m}")
        for bad in (np.append(c[:-1], np.nan), np.append(c[:-1], -np.inf), c + 1j,
                    c.reshape(1, m)):
            with pytest.raises(ValueError) as want_err:
                Measurement(bad)
            with pytest.raises(ValueError) as got:
                min_norm_inverse(M, bad)
            assert str(got.value) == str(want_err.value)


class TestLiftedRowsOracle:
    """``build_lifted_map`` against the outer-product construction it
    replaced, bit for bit: the matrix, its layout, ``_left`` (the Cholesky
    factor of the Gram matrix summed over the same row blocks, or the SVD's
    V_r S_r^-1) and the min-norm inverse of a map built from the oracle's
    factors."""

    def _check(self, F, rng):
        M = build_lifted_map(F)
        rows = lifted_rows_einsum(F.synthesis, F.field is Field.COMPLEX)
        A = _lifted_rows(F).T
        assert _same_bits(A, rows)
        assert A.flags.f_contiguous == rows.flags.f_contiguous
        step = max(1, frames_mod._STACK_ENTRIES // M.cols)
        left, right = lifted_inverse_factors(rows, cholesky=M._right is None, step=step)
        assert _same_bits(M._left, left)
        # the layout decides how the solves in min_norm_inverse round
        assert M._left.flags.f_contiguous == left.flags.f_contiguous
        if right is not None:
            assert _same_bits(M._right, right)
        oracle = LiftedMap(frame=F, rank=left.shape[1], _left=left, _right=right)
        assert oracle.rank == M.rank
        for c in (rng.standard_normal(F.count), A @ rng.standard_normal(M.cols)):
            assert _same_bits(min_norm_inverse(M, c).entries, min_norm_inverse(oracle, c).entries)

    # 2n^2 + 1 Gaussian vectors pass the Cholesky gate; for n >= 2, n
    # vectors fall short of the n(n+1)/2 or n^2 lifted columns, so the SVD
    # fallback runs
    @pytest.mark.parametrize("n, m, cholesky", [
        (1, 3, True), (2, 9, True), (3, 19, True), (8, 129, True),
        (2, 2, False), (3, 3, False), (8, 8, False),
    ])
    def test_small_frames(self, rng, field, n, m, cholesky):
        F = _gauss(n, m, field, seed=n)
        assert (build_lifted_map(F)._right is None) == cholesky
        self._check(F, rng)

    def test_ill_conditioned_fallback(self, rng, field):
        self._check(_near_duplicate_frame(field), rng)

    @pytest.mark.parametrize("n, m", [(3, 5), (4, 9), (5, 14), (8, 32)])
    def test_fewer_rows_than_columns_skip_gram(self, rng, monkeypatch, field, n, m):
        """With m < cols, G = A^T A has rank <= m < cols, so the build goes
        straight to the SVD: ``dpotrf`` never runs, and the factors are the
        SVD path's."""
        calls = []
        lapack_mod = frames_mod._linalg()[1]
        dpotrf = lapack_mod.dpotrf
        monkeypatch.setattr(lapack_mod, "dpotrf",
                            lambda *args, **kwargs: calls.append(1) or dpotrf(*args, **kwargs))
        F = _gauss(n, m, field, seed=n)
        assert m < build_lifted_map(F).cols
        self._check(F, rng)
        assert calls == []

    def test_wide_frame(self, rng):
        self._check(_gauss(32, 2048, Field.COMPLEX, seed=1), rng)

    def test_row_blocks(self, rng, monkeypatch, field):
        """With ``_STACK_ENTRIES`` cut to 4 rows of A, G accumulates over 5
        row blocks of a 19-vector frame and its triangle is mirrored in
        blocks of 4 rows: ``dlange`` reads the full symmetric G, the
        factor is the oracle's over the same blocks, and factor and inverse
        match the one-block build within 1e-14."""
        F = _gauss(3, 19, field, seed=3)
        one = build_lifted_map(F)
        monkeypatch.setattr(frames_mod, "_STACK_ENTRIES", 4 * one.cols)
        seen = []
        lapack_mod = frames_mod._linalg()[1]
        dlange = lapack_mod.dlange
        monkeypatch.setattr(lapack_mod, "dlange",
                            lambda norm, a: seen.append(a.copy()) or dlange(norm, a))
        M = build_lifted_map(F)
        assert M._right is None and one._right is None
        rows = lifted_rows_einsum(F.synthesis, field is Field.COMPLEX)
        full = rows.T @ rows
        assert np.array_equal(seen[0], seen[0].T)
        assert np.max(np.abs(seen[0] - full)) <= 1e-14 * np.max(np.abs(full))
        left, _ = lifted_inverse_factors(rows, cholesky=True, step=4)
        assert _same_bits(M._left, left)
        assert np.max(np.abs(M._left - one._left)) <= 1e-14 * np.max(np.abs(one._left))
        for c in (rng.standard_normal(F.count), rows @ rng.standard_normal(one.cols)):
            want = min_norm_inverse(one, c).entries
            got = min_norm_inverse(M, c).entries
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestCholeskyAccuracy:
    """The two triangular solves against ``np.linalg.lstsq`` and against the
    product with the explicit inverse G^-1 that they replaced, both applied
    to the map's own A^T c, which comes from the frame."""

    @pytest.mark.parametrize("n", [3, 8, 16, 32])
    def test_against_lstsq(self, field, n):
        cols = n * n if field is Field.COMPLEX else n * (n + 1) // 2
        F = _gauss(n, 2 * cols + 1, field, seed=n)
        M = build_lifted_map(F)
        assert M._right is None
        # G^-1 from the factor, mirrored from LAPACK's upper triangle
        inv = lapack.dpotri(M._left)[0]
        inv = np.triu(inv) + np.triu(inv, 1).T
        A = _lifted_rows(F).T
        rng = np.random.default_rng(n)
        for c in (rng.standard_normal(F.count), A @ rng.standard_normal(cols)):
            want = np.linalg.lstsq(A, c, rcond=None)[0]
            got = sym_coords(min_norm_inverse(M, c).entries, field)
            old = inv @ _lifted_adjoint(F, c)
            scale = np.linalg.norm(want)
            assert np.linalg.norm(got - old) <= 1e-12 * np.linalg.norm(old)
            assert np.linalg.norm(got - want) <= 2 * np.linalg.norm(old - want)
            assert np.linalg.norm(got - want) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_frame_adjoint_against_matrix_adjoint(self, field, n):
        """Over 6 frame seeds, the largest error against ``lstsq`` of the
        solve from the frame's A^T c is at most 1.5 times that of the same
        solves from the matrix product A^T c."""
        cols = n * n if field is Field.COMPLEX else n * (n + 1) // 2
        errs = {"frame": [], "matrix": []}
        for seed in range(6):
            F = _gauss(n, 2 * cols + 1, field, seed=seed)
            M = build_lifted_map(F)
            assert M._right is None
            A = _lifted_rows(F).T
            rng = np.random.default_rng(seed)
            for c in (rng.standard_normal(F.count), A @ rng.standard_normal(cols)):
                want = np.linalg.lstsq(A, c, rcond=None)[0]
                y = blas.dtrsv(M._left, A.T @ c, trans=1)
                solved = {"frame": sym_coords(min_norm_inverse(M, c).entries, field),
                          "matrix": blas.dtrsv(M._left, y)}
                for k, t in solved.items():
                    errs[k].append(np.linalg.norm(t - want) / np.linalg.norm(want))
        assert max(errs["frame"]) <= 1.5 * max(errs["matrix"])


class TestLiftedMapMemory:
    """``build_lifted_map`` on the Cholesky path keeps the factor of G and no
    array of A's size: G accumulates from row blocks of A of at most
    ``_STACK_ENTRIES`` entries and is factored in its own buffer, and
    ``_left`` is that buffer. The extra peak over R is one block of A and,
    from the second block on, its row temporaries."""

    def _extra_peak(self, F):
        build_lifted_map(F)  # warm caches outside the traced call
        tracemalloc.start()
        try:
            M = build_lifted_map(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M._right is None and M._left.flags.f_contiguous
        assert [v for v in vars(M).values() if isinstance(v, np.ndarray)] == [M._left]
        return peak - M._left.nbytes

    def test_one_block(self):
        # G is 256 x 256, and the 513 rows of A are one block, formed before G
        assert self._extra_peak(_gauss(16, 513, Field.COMPLEX, seed=1)) - 513 * 256 * 8 <= 64 * 1024

    def test_wide_frame(self):
        # A would be 16 MiB; the blocks are 256 rows, 2 MiB
        assert self._extra_peak(_gauss(32, 2048, Field.COMPLEX, seed=1)) <= 4 * 1024 * 1024


class TestLinalgWrappers:
    def test_missing_wrapper_names_the_directory(self, tmp_path, monkeypatch):
        import scipy

        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        monkeypatch.delitem(sys.modules, "scipy.linalg._fblas")
        with pytest.raises(ImportError) as err:
            frames_mod._linalg.__wrapped__()
        assert str(err.value) == f"no extension module scipy.linalg._fblas in {tmp_path / 'linalg'}"


class TestGenFrame:
    def test_named_fixture(self):
        F = gen_frame("named", 2, 3, Field.REAL, name="r2_pr3")
        assert F.count == 3 and F.dim == 2 and F.label == "r2_pr3"
        assert np.allclose(F.synthesis[2], [1 / math.sqrt(2)] * 2, atol=0)

    def test_named_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            gen_frame("named", 3, 3, name="r2_pr3")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            gen_frame("named", 2, 2, name="nope")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_frame("fancy", 2, 2)

    def test_deterministic_in_seed(self):
        a = gen_frame("random_gaussian", 4, 12, Field.REAL, seed=7)
        b = gen_frame("random_gaussian", 4, 12, Field.REAL, seed=7)
        assert np.array_equal(a.synthesis, b.synthesis)

    def test_count_below_dim(self):
        with pytest.raises(ValueError):
            gen_frame("random_gaussian", 4, 2, Field.REAL, seed=0)

    def test_complex_spans(self):
        F = gen_frame("random_gaussian", 3, 9, Field.COMPLEX, seed=1)
        s = F.singular_values()
        assert s[-1] > 1e-10 * s[0]


class TestFrameIO:
    def test_round_trip_bit_exact(self, tmp_path, field):
        F = _gauss(3, 7, field, seed=12)
        p = tmp_path / "f.json"
        write_frame(p, F)
        G = read_frame(p)
        assert G.field is F.field and G.label == F.label
        assert np.array_equal(G.synthesis, F.synthesis)
        write_frame(tmp_path / "g.json", G)
        assert (tmp_path / "g.json").read_bytes() == p.read_bytes()

    def test_named_round_trip(self, tmp_path):
        F = gen_frame("named", 2, 3, name="r2_pr3")
        p = tmp_path / "f.json"
        write_frame(p, F)
        G = read_frame(p)
        assert np.array_equal(G.synthesis, F.synthesis)

    def test_count_below_dim_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "field": "real", "dim": 3, "count": 2,
            "vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "label": "",
        }))
        with pytest.raises(FrameFileError, match="count >= dim"):
            read_frame(p)

    def test_non_numeric_entry_names_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "field": "real", "dim": 2, "count": 2,
            "vectors": [[1.0, "x"], [0.0, 1.0]], "label": "",
        }))
        with pytest.raises(FrameFileError, match=r"vectors\[0\]\[1\]"):
            read_frame(p)

    def test_malformed_json_has_line_info(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"field": "real",')
        with pytest.raises(FrameFileError, match="line"):
            read_frame(p)

    def test_complex_entries_are_pairs(self, tmp_path):
        F = _gauss(2, 5, Field.COMPLEX, seed=13)
        p = tmp_path / "f.json"
        write_frame(p, F)
        doc = json.loads(p.read_text())
        assert isinstance(doc["vectors"][0][0], list) and len(doc["vectors"][0][0]) == 2

    def test_measurement_round_trip(self, tmp_path, rng):
        rows = [Measurement(rng.standard_normal(5)) for _ in range(3)]
        p = tmp_path / "m.json"
        write_measurements(p, rows)
        back = read_measurements(p)
        assert len(back) == 3
        for a, b in zip(rows, back):
            assert np.array_equal(a.values, b.values)

    def test_measurement_flat_row(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"count": 2, "values": [1.0, 2.0]}))
        back = read_measurements(p)
        assert len(back) == 1 and np.array_equal(back[0].values, [1.0, 2.0])


def _frame_text(field, vectors):
    return f'{{"field": "{field}", "dim": 2, "count": 3, "vectors": {vectors}}}'


# A JSON token that is not a finite number, with the message text after
# the entry's position; 10**400 is an int beyond the float range and 1e999
# parses to inf.
_BAD_TOKENS = [
    ("true", "true", "expected number, got True"),
    ("string", '"1.5"', "expected number, got '1.5'"),
    ("null", "null", "expected number, got None"),
    ("10**400", "1" + "0" * 400, f"expected a finite number, got {10 ** 400}"),
    ("1e999", "1e999", "expected a finite number, got inf"),
]
_REAL_ROWS = "[[1.0, 0.0], [0.0, {}], [0.5, 0.5]]"
_COMPLEX_ROWS = "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, {}]], [[0.5, 0.5], [0.5, -0.5]]]"
# (id, reader, file text, message after the path)
_READER_CASES = [
    case
    for name, token, why in _BAD_TOKENS
    for case in [
        (f"real-{name}", read_frame, _frame_text("real", _REAL_ROWS.format(token)),
         f".vectors[1][1]: {why}"),
        (f"complex-{name}", read_frame, _frame_text("complex", _COMPLEX_ROWS.format(token)),
         f".vectors[1][1][1]: {why}"),
        (f"flat-{name}", read_measurements,
         f'{{"count": 3, "values": [1.0, {token}, 2.0]}}', f".values[1]: {why}"),
        (f"rows-{name}", read_measurements,
         f'{{"count": 3, "values": [[1.0, 2.0, 3.0], [1.0, {token}, 2.0]]}}',
         f".values[1][1]: {why}"),
    ]
] + [
    ("real-ragged-0", read_frame, _frame_text("real", "[[1.0, 0.0], [0.0, 1.0]]"),
     ".vectors: expected 3 vectors"),
    ("real-ragged-1", read_frame, _frame_text("real", "[[1.0, 0.0], [0.0, 1.0, 2.0], [0.5, 0.5]]"),
     ".vectors[1]: expected 2 entries"),
    ("real-deep", read_frame, _frame_text("real", _REAL_ROWS.format("[1.0]")),
     ".vectors[1][1]: expected number, got [1.0]"),
    ("real-shallow", read_frame, _frame_text("real", "[[1.0, 0.0], 1.0, [0.5, 0.5]]"),
     ".vectors[1]: expected 2 entries"),
    ("complex-ragged-0", read_frame,
     _frame_text("complex", "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]"),
     ".vectors: expected 3 vectors"),
    ("complex-ragged-1", read_frame,
     _frame_text("complex", "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]], [[0.5, 0.5], [0.5, -0.5]]]"),
     ".vectors[1]: expected 2 entries"),
    ("complex-ragged-2", read_frame, _frame_text("complex", _COMPLEX_ROWS.format("0.0, 2.0")),
     ".vectors[1][1]: expected [re, im] pair, got [1.0, 0.0, 2.0]"),
    ("complex-deep", read_frame, _frame_text("complex", _COMPLEX_ROWS.format("[0.0]")),
     ".vectors[1][1][1]: expected number, got [0.0]"),
    ("complex-shallow", read_frame, _frame_text("complex", _REAL_ROWS.format("1.0")),
     ".vectors[0][0]: expected [re, im] pair, got 1.0"),
    ("complex-shallow-2", read_frame,
     _frame_text("complex", "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], 1.0], [[0.5, 0.5], [0.5, -0.5]]]"),
     ".vectors[1][1]: expected [re, im] pair, got 1.0"),
    ("flat-ragged", read_measurements, '{"count": 3, "values": [1.0, 2.0]}',
     ".values: expected 3 numbers"),
    ("negative-count", read_measurements, '{"count": -1, "values": [[1.0, 2.0]]}',
     ".count: expected a nonnegative integer, got -1"),
    ("flat-deep", read_measurements, '{"count": 3, "values": [1.0, [2.0], 3.0]}',
     ".values[1]: expected number, got [2.0]"),
    ("rows-ragged", read_measurements, '{"count": 3, "values": [[1.0, 2.0, 3.0], [1.0, 2.0]]}',
     ".values[1]: expected 3 numbers"),
    ("rows-deep", read_measurements,
     '{"count": 3, "values": [[1.0, 2.0, 3.0], [1.0, [2.0], 3.0]]}',
     ".values[1][1]: expected number, got [2.0]"),
    ("rows-shallow", read_measurements, '{"count": 3, "values": [[1.0, 2.0, 3.0], 1.0]}',
     ".values[1]: expected 3 numbers"),
    # two defects in one file: the first in row order is named, whether it
    # is a bad leaf before a short row or a short row before a bad leaf
    ("real-leaf-then-short", read_frame,
     _frame_text("real", "[[1.0, null], [0.0], [0.5, 0.5]]"),
     ".vectors[0][1]: expected number, got None"),
    ("real-short-then-leaf", read_frame,
     _frame_text("real", "[[1.0, 0.0], [0.0], [0.5, null]]"),
     ".vectors[1]: expected 2 entries"),
    ("complex-leaf-then-short", read_frame,
     _frame_text("complex", "[[[1.0, 0.0], [0.0, true]], [[0.0, 0.0]], [[0.5, 0.5], [0.5, -0.5]]]"),
     ".vectors[0][1][1]: expected number, got True"),
    ("complex-short-then-leaf", read_frame,
     _frame_text("complex", "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]], [[0.5, 0.5], [0.5, true]]]"),
     ".vectors[1]: expected 2 entries"),
    ("rows-leaf-then-short", read_measurements,
     '{"count": 3, "values": [[1.0, "2", 3.0], [1.0, 2.0]]}',
     ".values[0][1]: expected number, got '2'"),
    ("rows-short-then-leaf", read_measurements,
     '{"count": 3, "values": [[1.0, 2.0], [1.0, "2", 3.0]]}',
     ".values[0]: expected 3 numbers"),
]


class TestFrameFileErrors:
    """Malformed entries are named, with the first bad one in row order."""

    def _frame(self, tmp_path, vectors, field="real", dim=2):
        p = tmp_path / "f.json"
        p.write_text(json.dumps({
            "field": field, "dim": dim, "count": len(vectors), "vectors": vectors,
            "label": "",
        }))
        return p

    def _meas(self, tmp_path, values, count=3):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"count": count, "values": values}))
        return p

    @pytest.mark.parametrize("vectors,field,message", [
        ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [True, 0.0]]], "complex",
         r"\.vectors\[1\]\[1\]\[0\]: expected number, got True$"),
        ([[[1.0, 0.0], [0.0, 0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]]], "complex",
         r"\.vectors\[0\]\[1\]: expected \[re, im\] pair, got \[0\.0, 0\.0, 1\.0\]$"),
        ([[[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0]], "complex",
         r"\.vectors\[1\]\[0\]: expected \[re, im\] pair, got 1\.0$"),
        ([[1.0, 0.0], [0.0, 1.0, 2.0]], "real", r"\.vectors\[1\]: expected 2 entries$"),
        ([[1.0, 0.0], "ab"], "real", r"\.vectors\[1\]: expected 2 entries$"),
        ([[1.0, None], [0.0, 1.0]], "real", r"\.vectors\[0\]\[1\]: expected number, got None$"),
        ([[1.0, 0.0], [False, 1.0]], "real", r"\.vectors\[1\]\[0\]: expected number, got False$"),
    ], ids=["bool-in-pair", "pair-of-3", "number-not-pair", "ragged", "string-row", "null",
            "bool"])
    def test_frame_entry_messages(self, tmp_path, vectors, field, message):
        with pytest.raises(FrameFileError, match=message):
            read_frame(self._frame(tmp_path, vectors, field))

    @pytest.mark.parametrize("token,field", [
        ("NaN", "real"), ("Infinity", "real"), ("-Infinity", "complex"), ("NaN", "complex"),
    ])
    def test_frame_non_finite_named(self, tmp_path, token, field):
        one = "[1.0, 0.0]" if field == "complex" else "1.0"
        bad = f"[{token}, 0.0]" if field == "complex" else token
        zero = "[0.0, 0.0]" if field == "complex" else "0.0"
        p = tmp_path / "f.json"
        p.write_text(f'{{"field": "{field}", "dim": 2, "count": 2, "vectors": '
                     f'[[{one}, {zero}], [{zero}, {bad}]], "label": ""}}')
        at = r"vectors\[1\]\[1\]" + (r"\[0\]" if field == "complex" else "")
        with pytest.raises(FrameFileError, match=at + ": expected a finite number"):
            read_frame(p)

    def test_frame_int_beyond_float_range_named(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text('{"field": "real", "dim": 2, "count": 2, '
                     '"vectors": [[1, 0], [0, 1' + "0" * 400 + ']], "label": ""}')
        with pytest.raises(FrameFileError, match=r"vectors\[1\]\[1\]: expected a finite number"):
            read_frame(p)

    def test_frame_int_entries_accepted(self, tmp_path, field):
        if field is Field.COMPLEX:
            vectors = [[[1, 0], [0, 2]], [[0, -1], [3, 0]], [[1, 1], [1, -1]]]
            want = [[1, 2j], [-1j, 3], [1 + 1j, 1 - 1j]]
        else:
            vectors = [[1, 0], [0, 2], [1, 1]]
            want = vectors
        F = read_frame(self._frame(tmp_path, vectors, field.value))
        assert F.synthesis.dtype == field.dtype
        assert np.array_equal(F.synthesis, np.asarray(want, dtype=field.dtype))

    def test_complex_signed_zeros_kept(self, tmp_path):
        F = read_frame(self._frame(tmp_path, [[[-0.0, -0.0], [1.0, 0.0]],
                                              [[0.0, 1.0], [-0.0, 2.0]]], "complex"))
        signs = np.signbit(np.stack([F.synthesis.real, F.synthesis.imag], axis=-1))
        assert signs.tolist() == [[[True, True], [False, False]],
                                  [[False, False], [True, False]]]

    def test_empty_vectors_message(self, tmp_path):
        with pytest.raises(FrameFileError, match=r"f\.json: frame needs at least one vector$"):
            read_frame(self._frame(tmp_path, []))

    def test_zero_dim_rejected(self, tmp_path):
        with pytest.raises(FrameFileError, match="at least one entry"):
            read_frame(self._frame(tmp_path, [[], []], dim=0))

    @pytest.mark.parametrize("values,message", [
        ([[1.0, True, 2.0]], r"\.values\[0\]\[1\]: expected number, got True$"),
        ([[1.0, 2.0, 3.0], [1.0, 2.0]], r"\.values\[1\]: expected 3 numbers$"),
        ([[1.0, 2.0, 3.0], 4.0], r"\.values\[1\]: expected 3 numbers$"),
        ([1.0, "2", 3.0], r"\.values\[1\]: expected number, got '2'$"),
        ([[1.0, 2.0, [3.0]]], r"\.values\[0\]\[2\]: expected number, got \[3\.0\]$"),
    ], ids=["bool", "ragged", "number-row", "string", "nested"])
    def test_measurement_entry_messages(self, tmp_path, values, message):
        with pytest.raises(FrameFileError, match=message):
            read_measurements(self._meas(tmp_path, values))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_measurement_non_finite_named(self, tmp_path, token):
        p = tmp_path / "m.json"
        p.write_text(f'{{"count": 3, "values": [[1.0, 2.0, 3.0], [4.0, {token}, 6.0]]}}')
        with pytest.raises(FrameFileError,
                           match=r"values\[1\]\[1\]: expected a finite number, got -?(nan|inf)"):
            read_measurements(p)

    def test_measurement_int_entries_accepted(self, tmp_path):
        back = read_measurements(self._meas(tmp_path, [[1, 2, 3], [4.5, -6, 0]]))
        assert [r.values.tolist() for r in back] == [[1.0, 2.0, 3.0], [4.5, -6.0, 0.0]]
        assert all(r.values.dtype == np.float64 for r in back)

    @pytest.mark.parametrize("command", ["check", "reconstruct"])
    def test_cli_non_finite_frame_exits_io(self, tmp_path, capsys, command):
        p = tmp_path / "f.json"
        write_frame(p, _gauss(2, 4, Field.REAL, seed=3))
        text = p.read_text()
        p.write_text(text.replace(format(json.loads(text)["vectors"][1][0], ".17g"), "NaN", 1))
        write_measurements(tmp_path / "c.json", [Measurement(np.ones(4))])
        if command == "check":
            argv = ["check", "--frame", str(p), "--report", str(tmp_path / "r.json")]
        else:
            argv = ["reconstruct", "--frame", str(p), "--measurements",
                    str(tmp_path / "c.json"), "--out", str(tmp_path / "r.json")]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert f"{command}: {p}.vectors[1][0]: expected a finite number, got nan" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("reader,text,message", [case[1:] for case in _READER_CASES],
                             ids=[case[0] for case in _READER_CASES])
    def test_malformed_entry_message(self, tmp_path, reader, text, message):
        """The level-by-level checks in front of the one flat conversion
        name each kind of bad entry, at each nesting level, in each file
        layout, with the same text as the entry walk alone gives."""
        p = tmp_path / "x.json"
        p.write_text(text)
        with pytest.raises(FrameFileError) as info:
            reader(p)
        assert str(info.value) == f"{p}{message}"

    @pytest.mark.parametrize("key", ["dim", "count"])
    def test_bool_dim_or_count_rejected(self, tmp_path, key):
        p = tmp_path / "f.json"
        doc = {"field": "real", "dim": 1, "count": 1, "vectors": [[1.0]], "label": ""}
        doc[key] = True
        p.write_text(json.dumps(doc))
        with pytest.raises(FrameFileError, match=r"f\.json: dim and count must be integers$"):
            read_frame(p)

    @pytest.mark.parametrize("dim,count", [(-1, 0), (2, -1)])
    def test_negative_dim_or_count_rejected(self, tmp_path, dim, count):
        # dim -1 with no vectors once escaped as numpy's reshape error
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"field": "complex", "dim": dim, "count": count, "vectors": []}))
        message = rf"f\.json: dim and count must be nonnegative, got {dim} and {count}$"
        with pytest.raises(FrameFileError, match=message):
            read_frame(p)

    def test_bool_measurement_count_rejected(self, tmp_path):
        with pytest.raises(FrameFileError, match=r"m\.json\.count: expected integer, got True$"):
            read_measurements(self._meas(tmp_path, [[1.0]], count=True))

    @pytest.mark.parametrize("command,bad", [
        ("check", "frame"), ("reconstruct", "frame"), ("reconstruct", "measurements"),
    ])
    def test_cli_bool_dim_or_count_exits_io(self, tmp_path, capsys, command, bad):
        f = tmp_path / "f.json"
        c = tmp_path / "c.json"
        if bad == "frame":
            f.write_text(json.dumps({"field": "real", "dim": True, "count": 1,
                                     "vectors": [[1.0]], "label": ""}))
            write_measurements(c, [Measurement(np.ones(1))])
        else:
            write_frame(f, gen_frame("named", 2, 3, name="r2_pr3"))
            c.write_text('{"count": true, "values": [[1.0]]}')
        if command == "check":
            argv = ["check", "--frame", str(f), "--report", str(tmp_path / "r.json")]
        else:
            argv = ["reconstruct", "--frame", str(f), "--measurements", str(c),
                    "--out", str(tmp_path / "r.json")]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        if bad == "frame":
            assert f"{command}: {f}: dim and count must be integers" in err
        else:
            assert f"{command}: {c}.count: expected integer, got True" in err
        assert not (tmp_path / "r.json").exists()

    def test_cli_non_finite_measurement_exits_io(self, tmp_path, capsys):
        write_frame(tmp_path / "f.json", _gauss(2, 4, Field.REAL, seed=3))
        c = tmp_path / "c.json"
        c.write_text('{"count": 4, "values": [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, Infinity, 4.0]]}')
        argv = ["reconstruct", "--frame", str(tmp_path / "f.json"), "--measurements", str(c),
                "--out", str(tmp_path / "r.json")]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert f"reconstruct: {c}.values[1][2]: expected a finite number, got inf" in err
        assert not (tmp_path / "r.json").exists()


class TestSymFromCoords:
    def test_round_trip_bit_for_bit(self, rng, field):
        """sym_from_coords(sym_coords(M)) is M to the bit. Off the diagonal the coordinates carry a factor sqrt(2),
        and fl(fl(x sqrt(2)) / sqrt(2)) is not x for about 15% of doubles, so
        those entries are signed powers of two, for which it is."""
        cplx = field is Field.COMPLEX
        for n in range(1, 7):
            for _ in range(5):
                def dyadic():
                    return rng.choice([-1.0, 1.0], (n, n)) * 2.0 ** rng.integers(-8, 8, (n, n))
                M = dyadic() + 1j * dyadic() if cplx else dyadic()
                M = np.triu(M, 1) + np.diag(rng.standard_normal(n))
                M = M + np.triu(M, 1).conj().T
                M[-1, -1] = -0.0  # a signed zero keeps its bit
                got = sym_from_coords(sym_coords(M, field), n, field)
                assert got.dtype == field.dtype and got.flags.c_contiguous
                assert got.tobytes() == M.tobytes()

    def test_matches_2d_assignment_oracle(self, rng, field):
        """On any coordinates, the flat scatter writes the bits of a zeroed
        matrix filled by 2-D assignments."""
        cplx = field is Field.COMPLEX
        for n in range(1, 7):
            for _ in range(5):
                c = rng.standard_normal(n * n if cplx else n * (n + 1) // 2)
                c[rng.random(c.shape) < 0.2] = -0.0
                got = sym_from_coords(c, n, field)
                assert got.tobytes() == sym_from_coords_2d(c, n, cplx).tobytes()

    def test_scatter_is_a_cached_read_only_permutation(self):
        """One table per (n, field) of positions in the float64 view, each
        written once; its head is what ``sym_coords`` gathers, its
        transposed head the same parts of the transpose, and its spread
        index repeats the coordinates as [t, t[n:]]."""
        for field, size in ((Field.REAL, 1), (Field.COMPLEX, 2)):
            for n in range(1, 7):
                table = _sym_table(n, field)
                idx, scales, head_t, spread = table
                diag_imag = {2 * i * (n + 1) + 1 for i in range(n)} if size == 2 else set()
                assert sorted(idx.tolist()) == sorted(set(range(size * n * n)) - diag_imag)
                assert idx.shape == scales.shape == spread.shape
                assert not any(a.flags.writeable for a in table)
                assert _sym_table(n, field)[0] is idx
                M = np.arange(size * n * n, dtype=np.float64).view(field.dtype).reshape(n, n)
                cols = n * n if size == 2 else n * (n + 1) // 2
                head = idx[:cols]
                scale = np.where(np.arange(head.size) < n, 1.0, math.sqrt(2))
                assert np.array_equal(sym_coords(M, field), head * scale)
                assert np.array_equal(M.ravel("F").view(np.float64)[head_t],
                                      M.view(np.float64).ravel()[head])
                t = np.arange(cols)
                assert np.array_equal(t[spread], np.concatenate([t, t[n:]]))


class TestCoordTables:
    """The index tables of ``_sym_table`` read and write the bits of the
    plain gathers and scatters they replace."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_transposed_gather_matches_sym_coords(self, rng, field, n):
        """Gathered through the transposed head from a Fortran-ordered
        matrix, the coordinates are ``sym_coords`` of its C-ordered copy.
        The matrices are not self-adjoint, so a gather from the wrong
        triangle would show."""
        _, scales, head_t, _ = _sym_table(n, field)
        for _ in range(5):
            M = _awkward(rng, (n, n))
            if field is Field.COMPLEX:
                M = M + 1j * _awkward(rng, (n, n))
            S = np.asfortranarray(M)
            got = S.ravel("F").view(np.float64)[head_t] * scales[:head_t.size]
            assert got.tobytes() == sym_coords(np.ascontiguousarray(M), field).tobytes()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_spread_scatter_matches_2d_oracle(self, rng, field, n):
        """``sym_from_coords``' spread gather writes the bits of a zeroed
        matrix filled by 2-D assignments, on coordinates with signed zeros
        and subnormals, and on all-nonzero ones (the branch without the
        signed-zero fix)."""
        cplx = field is Field.COMPLEX
        for k in range(6):
            c = _awkward(rng, n * n if cplx else n * (n + 1) // 2)
            if k == 0:
                c[c == 0.0] = 1.0
            got = sym_from_coords(c, n, field)
            assert got.tobytes() == sym_from_coords_2d(c, n, cplx).tobytes()

    @pytest.mark.parametrize("n, m", [(1, 3), (2, 7), (3, 12), (5, 40)])
    def test_lifted_adjoint_reads_gemm_in_place(self, rng, field, n, m):
        """``_lifted_adjoint`` gives the bits of ``sym_coords`` of a
        C-ordered copy of its ``gemm`` product."""
        F = _gauss(n, m, field, seed=n)
        fs = F.synthesis
        blas_mod = frames_mod._linalg()[0]
        gemm = blas_mod.zgemm if field is Field.COMPLEX else blas_mod.dgemm
        for c in (rng.standard_normal(m), _awkward(rng, m), -np.zeros(m)):
            S = gemm(1.0, (c[:, None] * fs).T, fs.T, 0.0, None, 0, 2)
            want = sym_coords(np.ascontiguousarray(S), field)
            assert _lifted_adjoint(F, c).tobytes() == want.tobytes()


_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3])
_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
_leaves = (
    st.text()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**80)
    | st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.none()
    | _finite
    | _finite.map(np.float64)
    | hnp.arrays(np.float64, _shapes, elements=_finite)
    | hnp.arrays(np.float64, st.sampled_from([(1,), (1, 1), (3, 1), (1, 3, 1), (2, 0, 3)]),
                 elements=_finite)
    | hnp.arrays(np.int64, _shapes)
)
_CAP = frames_mod._TEMPLATE_CAP
# above the template cap: formatted a block of axis-0 slices at a time, or,
# when one slice is itself above the cap, slice by slice
_large_shapes = st.sampled_from([
    (_CAP + 1,), (2 * _CAP + 3,), (_CAP // 64 + 1, 64), (_CAP + 1, 1), (2, _CAP + 1),
    (3, 2, _CAP // 2 + 1), (2, 3, _CAP // 3 + 1)])
_large_arrays = _large_shapes.flatmap(lambda s: hnp.arrays(np.float64, s, elements=_finite))
# one shape at two nesting levels of one document: the cached template of a
# shape at one level must not serve the other
_two_levels = _shapes.flatmap(lambda s: st.tuples(
    hnp.arrays(np.float64, s, elements=_finite), hnp.arrays(np.float64, s, elements=_finite))
).map(lambda ab: {"a": ab[0], "deeper": [{"b": ab[1]}, ab[0]]})


class _ListSubclass(list):
    pass


_json_docs = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4).map(_ListSubclass)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4).map(OrderedDict),
    max_leaves=20,
)


class TestDumpsJson:
    @given(_json_docs)
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib_oracle(self, doc):
        assert dumps_json(doc) == dumps_json_stdlib(doc)

    @given(_large_arrays, st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_large_arrays_match_oracle(self, a, depth):
        """Arrays above the template cap, at levels 0 to 2."""
        doc = a
        for _ in range(depth):
            doc = [doc]
        assert dumps_json(doc) == dumps_json_stdlib(doc)

    @given(_two_levels)
    @settings(max_examples=100, deadline=None)
    def test_one_shape_at_two_levels_matches_oracle(self, doc):
        assert dumps_json(doc) == dumps_json_stdlib(doc)

    @given(_large_arrays, st.data())
    @settings(max_examples=50, deadline=None)
    def test_non_finite_in_large_array_named_as_oracle(self, a, data):
        """A non-finite entry deep in an array above the template cap: the
        error names the first bad value in row order, as the oracle does."""
        flat = a.ravel()
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(a.size // 2, a.size - 1))
            flat[at] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(ValueError, match="non-finite value") as want:
            dumps_json_stdlib({"x": [a]})
        with pytest.raises(ValueError) as got:
            dumps_json({"x": [a]})
        assert str(got.value) == str(want.value)

    def test_matches_oracle_on_edge_values(self):
        doc = {"s": "\u00e9\x00\n\"\\\u2028\U0001f600", "big": [2**64, -(2**70)],
               "f": [-0.0, 5e-324, 1e308, 1.5, np.float64(0.1)], "i": np.int64(-7),
               "b": [True, np.bool_(False)], "n": None, "t": (1, (2.5, "x")), "e": [[], {}],
               "a": np.arange(6.0).reshape(1, 2, 3), "z": np.zeros((2, 0)),
               "ai": np.arange(4).reshape(2, 2), "c": Field.COMPLEX, "\u00fc": np.float32(0.1),
               "0d": [np.array(1.5), np.array(-0.0), np.array(-0.0, dtype=np.float32)]}
        assert dumps_json(doc) == dumps_json_stdlib(doc)
        for scalar in (1.5, "x", None, True, np.zeros(3), np.zeros(0), np.array(1.5),
                       np.array(-0.0), np.array(-0.0, dtype=np.float32)):
            assert dumps_json(scalar) == dumps_json_stdlib(scalar)

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"),
        np.array([1.0, math.nan]), np.array([[0.0, 1.0], [-math.inf, 2.0]]),
        [1.0, [2.0, math.inf]], {"a": np.array([[[0.0, math.nan]]])},
        np.array(math.nan), {"a": np.array(-math.inf)}, np.array(math.inf, dtype=np.float32),
    ])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite value") as want:
            dumps_json_stdlib(bad)
        with pytest.raises(ValueError) as got:
            dumps_json(bad)
        assert str(got.value) == str(want.value)

    def test_row_templates_stay_within_the_cap(self, monkeypatch):
        """An array whose axis-0 slices hold more than ``_TEMPLATE_CAP``
        entries goes slice by slice: no row template it makes, and so none
        that ``_row_template`` caches, holds more slots than the cap."""
        made = []
        row_template = frames_mod._row_template
        monkeypatch.setattr(frames_mod, "_row_template",
                            lambda sample: made.append(row_template(sample)) or made[-1])
        for shape in ((2, _CAP + 1), (3, 2, _CAP // 2 + 1)):
            a = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
            assert dumps_json(a) == dumps_json_stdlib(a)
        assert made and max(t.count("%.17g") for t in made) <= _CAP

    @pytest.mark.parametrize("bad", [object(), 1j, np.array([1j]), {1: 2.0}, {"a": {3}}])
    def test_unsupported_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            dumps_json(bad)

    def test_bools_stay_bools(self):
        doc = json.loads(dumps_json({"a": True, "b": np.bool_(False), "c": [1, np.int64(2)]}))
        assert doc["a"] is True and doc["b"] is False
        assert doc["c"] == [1, 2] and all(type(v) is int for v in doc["c"])
        assert '"a": true' in dumps_json({"a": True})


def _row_of(layout, i):
    """Row i of a ``_Rows`` layout as its own document: each array leaf
    replaced by its ith entry, as a float array, float, int or str."""
    if isinstance(layout, dict):
        return {k: _row_of(v, i) for k, v in layout.items()}
    if isinstance(layout, (list, tuple)):
        return [_row_of(v, i) for v in layout]
    if isinstance(layout, np.ndarray):
        return layout[i] if layout.ndim > 1 else layout[i].item()
    return layout


class TestRowStack:
    """``frames._Rows``: k documents of one layout, written as the list of
    the documents themselves."""

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 700])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_matches_documents_and_oracle(self, k, level):
        rng = np.random.default_rng(k)
        layout = {
            "100%": "%s %d %% é\"\\",
            "x": rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k),
            "nested": {"a": rng.standard_normal((k, 3, 2)), "b": [None, True, 2.5, -0.0]},
            "i": rng.integers(-2**62, 2**62, k),
            "s": np.array(["%s", "a\"b", "ü%d", "", "\n"])[np.arange(k) % 5],
            "empty": np.zeros((k, 0)),
        }
        rows = [_row_of(layout, i) for i in range(k)]
        doc, want = frames_mod._Rows(layout), rows
        for _ in range(level):
            doc, want = [doc], [want]
        text = dumps_json(want)
        assert dumps_json(doc) == text == dumps_json_stdlib(want)

    def test_non_finite_names_first_row(self):
        layout = {"a": np.ones(4), "b": np.ones((4, 2))}
        layout["b"][2, 1] = -math.inf
        layout["b"][3, 0] = math.nan
        with pytest.raises(frames_mod._RowError, match=r"^non-finite value -inf") as got:
            frames_mod._Rows(layout)
        assert got.value.row == 2

    def test_one_float_column_is_a_view(self):
        """A lone float column, as a frame or measurement stack is, is not
        copied; two are joined into one stack."""
        a = np.ones((6, 4, 2))
        assert np.shares_memory(frames_mod._Rows(a).floats, a)
        assert np.shares_memory(frames_mod._Rows({"a": a, "i": np.arange(6)}).floats, a)
        assert not np.shares_memory(frames_mod._Rows({"a": a, "b": np.ones(6)}).floats, a)

    @pytest.mark.parametrize("layout", [{"a": 1.0}, {"a": np.ones(2), "b": np.ones(3)}])
    def test_columns_of_one_length_required(self, layout):
        with pytest.raises(ValueError, match="array columns of one length"):
            frames_mod._Rows(layout)

    def test_unsupported_column_raises_type_error(self):
        with pytest.raises(TypeError):
            frames_mod._Rows({"a": np.ones(2, dtype=complex)})
