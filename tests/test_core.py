import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from raylift import (
    Field,
    Frame,
    Measurement,
    RankOnePSD,
    RankOneViolation,
    SymOp,
    Vector,
    align_dist,
    gen_frame,
    lift_dist,
    rank_one_retract,
    ray,
    recovery_lip_bound,
    retraction_bound,
    retraction_probe,
    retraction_ratio,
    schatten_norm,
    sym_outer,
    symop,
    vec,
)
from raylift import core as core_mod
from raylift.core import _bfgs, _row_dots

from oracles import (
    bfgs_reference,
    outer_sym_entrywise,
    random_hermitian,
    random_vector,
)


def _rand_symop(rng, n, field):
    return SymOp(random_hermitian(rng, n, field is Field.COMPLEX), field)


class TestVectorSymOp:
    def test_real_field_rejects_imaginary(self):
        with pytest.raises(ValueError):
            Vector(np.array([1.0 + 1j]), Field.REAL)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Vector(np.array([1.0, np.nan]), Field.REAL)
        with pytest.raises(ValueError):
            SymOp(np.array([[np.inf, 0.0], [0.0, 1.0]]), Field.REAL)

    def test_symop_symmetrized_exactly(self, rng, field):
        a = rng.standard_normal((4, 4))
        if field is Field.COMPLEX:
            a = a + 1j * rng.standard_normal((4, 4))
        s = SymOp(a, field)
        assert np.array_equal(s.entries, s.entries.conj().T)

    def test_symop_huge_self_adjoint_comes_back(self, field):
        """Entries of 1e308, whose A + A* overflows, come back finite and
        unchanged."""
        a = np.full((2, 2), 1e308, dtype=field.dtype)
        assert np.array_equal(SymOp(a, field).entries, a)

    def test_symop_huge_is_exact_half_sum(self, field):
        """A large non-self-adjoint input gives its exact (A + A*)/2, part
        by part, where A + A* overflows and where it does not."""
        a = np.array([[1e308, 1.5e308], [1.7e308, -1e308]], dtype=field.dtype)
        if field is Field.COMPLEX:
            a += 1j * np.array([[1e308, -1.2e308], [1.6e308, 3.0]])
        got = SymOp(a, field).entries
        for i, j in itertools.product(range(2), repeat=2):
            re = (Fraction(a[i, j].real) + Fraction(a[j, i].real)) / 2
            im = (Fraction(a[i, j].imag) - Fraction(a[j, i].imag)) / 2
            assert (got[i, j].real, got[i, j].imag) == (float(re), float(im))

    def test_symop_check_tol(self):
        with pytest.raises(ValueError):
            symop(np.array([[0.0, 1.0], [0.0, 0.0]]), check_tol=1e-8)

    def test_entries_immutable(self):
        v = vec([1.0, 2.0])
        with pytest.raises(ValueError):
            v.entries[0] = 5.0


# kind: (constructor from an array and a field, its array, an input shape)
_VALUES = {
    "Vector": (Vector, lambda v: v.entries, (3,)),
    "SymOp": (SymOp, lambda v: v.entries, (3, 3)),
    "Frame": (Frame, lambda v: v.synthesis, (5, 3)),
    "Measurement": (lambda a, field: Measurement(a), lambda v: v.values, (5,)),
}


class TestValueOwnsItsArray:
    """A value owns the array its constructor converted: read-only, and
    never the caller's array, even when that already has the target dtype."""

    @pytest.mark.parametrize("kind", sorted(_VALUES))
    def test_read_only_and_not_aliased(self, rng, field, kind):
        make, array_of, shape = _VALUES[kind]
        cplx = field is Field.COMPLEX and kind != "Measurement"
        a = random_vector(rng, math.prod(shape), cplx).reshape(shape)
        if kind == "SymOp":
            a = (a + a.conj().T) / 2  # kept as it is, up to the copy
        value = make(a, field)
        got = array_of(value)
        assert got.dtype == a.dtype and not got.flags.writeable
        assert not np.shares_memory(got, a) and a.flags.writeable
        kept = got.copy()
        a[...] = 7.0
        assert np.array_equal(array_of(value), kept)
        if kind == "SymOp":
            assert np.array_equal(kept, (kept + kept.conj().T) / 2)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1.0, math.inf),
                                     complex(math.inf, math.nan)],
                             ids=["nan-real", "inf-imag", "inf-real-nan-imag"])
    @pytest.mark.parametrize("kind", ["Vector", "SymOp", "Frame"])
    def test_non_finite_rejected(self, field, kind, bad):
        make, _, shape = _VALUES[kind]
        a = (np.ones(3) if len(shape) == 1 else np.eye(*shape)).astype(complex)
        a.flat[0] = bad
        if field is Field.REAL and bad.imag == 0:
            a = a.real
        # the real field refuses any nonzero imaginary part before finiteness
        why = "imaginary" if field is Field.REAL and bad.imag != 0 else "non-finite entries"
        with pytest.raises(ValueError, match=why):
            make(a, field)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_measurement_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite entries"):
            Measurement(np.array([1.0, bad, 2.0]))


class TestSymOuter:
    def test_xx_on_e1(self):
        x = vec([1.0, 0.0])
        assert np.allclose(sym_outer(x, x).entries, np.diag([1.0, 0.0]), atol=0)

    def test_cross_term_symmetrized(self):
        x, y = vec([1.0, 0.0]), vec([0.0, 1.0])
        assert np.allclose(sym_outer(x, y).entries, [[0.0, 0.5], [0.5, 0.0]], atol=0)

    def test_random_complex_vs_entrywise_oracle(self, rng):
        for _ in range(50):
            x = random_vector(rng, 4, True)
            y = random_vector(rng, 4, True)
            got = sym_outer(vec(x), vec(y)).entries
            want = outer_sym_entrywise(x, y)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            sym_outer(vec([1.0, 0.0]), vec([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            sym_outer(vec([1.0, 0.0]), vec(np.array([1.0 + 0j, 0.0])))

    def test_lift_trace_and_psd(self, rng, field):
        for _ in range(100):
            x = random_vector(rng, 5, field is Field.COMPLEX)
            t = sym_outer(vec(x, field), vec(x, field))
            nrm2 = float(np.linalg.norm(x) ** 2)
            assert abs(np.trace(t.entries).real - nrm2) <= 1e-12 * max(1.0, nrm2)
            assert np.linalg.eigvalsh(t.entries).min() >= -1e-10 * max(1.0, nrm2)


class TestSchatten:
    def test_nuclear_of_diag(self):
        assert schatten_norm(SymOp(np.diag([1.0, -1.0]), Field.REAL), 1) == 2.0

    def test_operator_norm_of_diag(self):
        assert schatten_norm(SymOp(np.diag([2.0, 0.0]), Field.REAL), math.inf) == 2.0

    def test_frobenius_identity(self, rng, field):
        for _ in range(200):
            a = _rand_symop(rng, 5, field)
            direct = math.sqrt(float(np.trace(a.entries @ a.entries.conj().T).real))
            assert abs(schatten_norm(a, 2) - direct) <= 1e-12 * max(1.0, direct)

    def test_monotone_in_p(self, rng, field):
        ps = [1, 1.5, 2, 3, math.inf]
        for _ in range(500):
            a = _rand_symop(rng, 4, field)
            vals = [schatten_norm(a, p) for p in ps]
            for lo, hi in zip(vals, vals[1:]):
                assert hi <= lo + 1e-12 * max(1.0, lo)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_norm(SymOp(np.eye(2), Field.REAL), 0.5)

    def test_tiny_entries_beside_a_large_pair(self, field):
        """Every entry about 2e-156, whose square is subnormal, but one
        off-diagonal pair of magnitude v: the eigenvalues are +-v to double
        precision, where ``eigvalsh`` read up to 4e-9 (real) and 2e-9 (complex)
        off, relative."""
        g = np.random.default_rng(7)
        eps = np.finfo(float).eps
        for _ in range(300):
            d = g.standard_normal((4, 4)) * 2e-156
            if field is Field.COMPLEX:
                d = d + 1j * g.standard_normal((4, 4)) * 2e-156
            d = (d + d.conj().T) / 2
            i, j = g.choice(4, 2, replace=False)
            v = g.uniform(0.5, 2.0)
            sign = g.choice([-1.0, 1.0]) if field is Field.REAL else np.exp(1j * g.uniform(0, 6))
            d[i, j] = v * sign
            d[j, i] = np.conj(d[i, j])
            a = SymOp(d, field)
            for p, want in ((math.inf, v), (2, math.sqrt(2) * v), (1, 2 * v)):
                assert abs(schatten_norm(a, p) - want) <= 8 * eps * want

    def test_vs_svd_oracle(self, rng, field):
        from oracles import svd_schatten

        for p in (1, 2, 3.5, math.inf):
            a = _rand_symop(rng, 5, field)
            want = svd_schatten(a.entries, np.inf if p == math.inf else p)
            assert abs(schatten_norm(a, p) - want) <= 1e-10 * max(1.0, want)


_A, _B = np.eye(2), np.diag([2.0, 0.0])
_X, _Y = vec([1.0, 0.0]), vec([0.0, 1.0])

# every public function that takes a norm order, called with order p
_ORDER_TAKERS = {
    "schatten_norm": lambda p: schatten_norm(symop(_A), p),
    "lift_dist": lambda p: lift_dist(ray(_X), ray(_Y), p),
    "align_dist": lambda p: align_dist(ray(_X), ray(_Y), p),
    "retraction_ratio": lambda p: retraction_ratio(symop(_A), symop(_B), p),
    "retraction_bound": retraction_bound,
    "retraction_probe": lambda p: retraction_probe(dims=(2,), p=p, samples=10),
    "recovery_lip_bound_p": lambda p: recovery_lip_bound(
        gen_frame("named", None, None, name="r2_pr3"), p, 2),
    "recovery_lip_bound_q": lambda p: recovery_lip_bound(
        gen_frame("named", None, None, name="r2_pr3"), 2, p),
}


class TestNormOrder:
    @pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf], ids=["nan", "half", "-inf"])
    @pytest.mark.parametrize("name", sorted(_ORDER_TAKERS))
    def test_rejected(self, name, p):
        with pytest.raises(ValueError, match="<= inf"):
            _ORDER_TAKERS[name](p)

    @pytest.mark.parametrize("name", sorted(_ORDER_TAKERS))
    def test_order_one_and_inf_accepted(self, name):
        for p in (1, math.inf):
            _ORDER_TAKERS[name](p)


class TestRankOnePSD:
    def test_valid_lift(self, rng, field):
        x = vec(random_vector(rng, 4, field is Field.COMPLEX), field)
        t = RankOnePSD(carrier=sym_outer(x, x), generator=x)
        assert t.dim == 4

    def test_rank_two_rejected(self):
        # the allowance scales with the top eigenvalue: diag(2e-11, 1e-11)
        # passed under a floor of rank_tol * max(1, top)
        for diag in ([1.0, 1.0], [2.0, 1.0], [2e-11, 1e-11]):
            with pytest.raises(RankOneViolation, match="not rank-one PSD"):
                RankOnePSD(carrier=SymOp(np.diag(diag), Field.REAL))

    def test_negative_rejected(self):
        with pytest.raises(RankOneViolation):
            RankOnePSD(carrier=SymOp(np.diag([1.0, -0.5]), Field.REAL))

    def test_bad_generator_rejected(self):
        # diag(1, 1) scaled by 1e-20 misses [x, x] for x = 1e-10 e1 by 1e-20,
        # below the old floor of 1e-10 * max(1, ||[x, x]||)
        for diag, x in (([1.0, 0.0], [0.0, 1.0]), ([1e-20, 1e-20], [1e-10, 0.0])):
            with pytest.raises(RankOneViolation, match="generator does not reproduce carrier"):
                RankOnePSD(carrier=SymOp(np.diag(diag), Field.REAL), generator=vec(x))

    def test_generator_from_top_pair(self, rng, field):
        """Without a generator, the top pair of the one ``eigh`` supplies
        sqrt(lam1) u1, and zero when lam1 <= 0."""
        x = vec(random_vector(rng, 4, field is Field.COMPLEX), field)
        t = RankOnePSD(carrier=sym_outer(x, x))
        w, V = np.linalg.eigh(sym_outer(x, x).entries)
        assert np.array_equal(t.generator.entries, math.sqrt(w[-1]) * V[:, -1])
        zero = RankOnePSD(carrier=SymOp(np.zeros((3, 3)), field))
        assert zero.generator == Vector(np.zeros(3), field)

    def test_scale_invariant(self, rng, field):
        """``lift`` and ``rank_one_retract`` outputs pass at every scale,
        from 1e-20 to 1e20."""
        cplx = field is Field.COMPLEX
        x = random_vector(rng, 4, cplx)
        a = random_hermitian(rng, 4, cplx)
        for e in range(-20, 21, 4):
            s = 10.0 ** e
            xs = vec(math.sqrt(s) * x, field)
            RankOnePSD(carrier=sym_outer(xs, xs), generator=xs)
            RankOnePSD(carrier=sym_outer(xs, xs))
            t = rank_one_retract(SymOp(s * a, field))
            RankOnePSD(carrier=t.carrier, generator=t.generator)
            RankOnePSD(carrier=t.carrier)


def _first_call_then(later):
    """A stacked (values, gradients) function worth 1 on every row at its
    first call and ``later(X)`` at every call after it."""
    calls = [0]

    def fun(X):
        calls[0] += 1
        return (np.ones(len(X)), 2.0 * X) if calls[0] == 1 else later(X)
    return fun


def _squares(X):
    return np.sum(X * X, axis=1)


def _rosenbrock(X):
    """The Rosenbrock function of each row of a stack, and its gradient,
    in elementwise operations only (0 at the all-ones row)."""
    a, b = X[:, :-1], X[:, 1:]
    r = b - a * a
    G = np.zeros_like(X)
    G[:, :-1] = -400.0 * a * r - 2.0 * (1.0 - a)
    G[:, 1:] += 200.0 * r
    return np.sum(100.0 * r * r + (1.0 - a) ** 2, axis=1), G


_STOPS = ("stationary", "rel_decrease", "max_iters", "line_search")


class TestBfgs:
    @pytest.mark.parametrize("make, x0", [
        (lambda: lambda X: (_squares(X), 2.0 * X), [0.0, 0.0]),
        (lambda: lambda X: (np.full(len(X), math.nan), np.zeros_like(X)), [1.0, -2.0]),
        (lambda: _first_call_then(lambda X: (2.0 + _squares(X), 2.0 * X)), [1.0, -2.0]),
        (lambda: _first_call_then(lambda X: (np.full(len(X), math.nan),
                                             np.full_like(X, math.nan))), [1.0, -2.0]),
    ], ids=["zero-start", "nan-start", "ends-higher", "ends-nan"])
    def test_start_comes_back(self, make, x0):
        """Row by row: a zero or non-finite start value runs no search, and
        a search that finds no lower value hands back the start with its
        value; the a0 refinement and the b0 refinement rely on it."""
        X0 = np.array([x0, x0])
        f0 = make()(X0)[0]
        X, values, nit, nfev, stops = _bfgs(make(), X0)
        for i in range(len(X0)):
            assert np.array_equal(X[i], X0[i])
            assert values[i] == f0[i] or (math.isnan(values[i]) and math.isnan(f0[i]))
            assert stops[i] in _STOPS
            if not (f0[i] != 0.0 and math.isfinite(f0[i])):
                assert nit[i] == nfev[i] == 0 and stops[i] == "stationary"
            else:
                assert nit[i] == 0 < nfev[i] and stops[i] == "line_search"

    # starts for _rosenbrock, but for the uphill row, whose gradient has the
    # wrong sign; with at most 30 iterations they end, in order, max_iters,
    # rel_decrease, on a zero start value, stationary, line_search, on NaN
    # and on inf starts, and max_iters
    _POOL = np.array([[-1.2, 1.0], [0.9, 0.8], [1.0, 1.0], [1.0 + 1e-7, 1.0], [1.0, 2.0],
                      [math.nan, 1.0], [math.inf, 0.0], [3.0, -2.0]])
    _UPHILL = 4

    @pytest.mark.parametrize("cap", [30, 15000])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_frozen_loop(self, monkeypatch, k, cap):
        """The loop that skips the masked writes no row needs returns what
        the loop that made them all returned, bit for bit: X, values, nit,
        nfev and stops, on stacks of 1 to 5 rows drawn from starts that end
        by each stop rule or start at a value of 0, NaN or inf."""
        monkeypatch.setattr(core_mod, "_BFGS_MAX_ITERS", cap)
        rng = np.random.default_rng([k, cap])
        seen = set()
        for _ in range(8):
            rows = rng.choice(len(self._POOL), size=k, replace=False)
            up = rows == self._UPHILL

            def fun(X):
                f, G = _rosenbrock(X)
                f[up], G[up] = 1.0 + _squares(X[up]), -2.0 * X[up]
                return f, G

            got = _bfgs(fun, self._POOL[rows])
            want = bfgs_reference(fun, self._POOL[rows], max_iters=cap)
            for g, w in zip(got[:2], want[:2]):
                assert g.tobytes() == w.tobytes()
            assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
            assert got[4] == want[4]
            seen.update(got[4])
        if k == 5:
            assert seen == set(_STOPS) if cap == 30 else seen == set(_STOPS) - {"max_iters"}

    def test_rows_run_alone(self):
        """Row i of a stacked run is its one-row run bit for bit, in every
        output; a row whose start value is 0 (the minimum) or NaN comes
        back as given and leaves its neighbours' runs unchanged."""
        rng = np.random.default_rng(5)
        X0 = np.concatenate([rng.uniform(-2.0, 2.0, (4, 3)), np.ones((1, 3)),
                             [[math.nan, 0.0, 1.0]]])
        X0 = X0[[0, 4, 1, 5, 2, 3]]
        stacked = _bfgs(_rosenbrock, X0)
        assert all(stop in _STOPS for stop in stacked[4])
        for i in range(len(X0)):
            alone = _bfgs(_rosenbrock, X0[i:i + 1])
            assert np.array_equal(stacked[0][i], alone[0][0], equal_nan=True)
            assert np.array_equal(stacked[1][i], alone[1][0], equal_nan=True)
            assert (stacked[2][i], stacked[3][i], stacked[4][i]) == (alone[2][0], alone[3][0],
                                                                     alone[4][0])
        for i in (1, 3):
            assert np.array_equal(stacked[0][i], X0[i], equal_nan=True)
            assert stacked[2][i] == stacked[3][i] == 0 and stacked[4][i] == "stationary"
        assert all(stacked[1][i] <= 1e-10 for i in (0, 2, 4, 5))


class TestRowDots:
    @pytest.mark.parametrize("m", [1, 2, 7, 72, 129, 2048])
    def test_one_row_is_its_row_of_the_stack(self, rng, field, m):
        """A one-row call, which goes through ``np.dot``, gives the bits of
        its row of a stacked call, on contiguous rows and strided views."""
        cplx = field is Field.COMPLEX
        U = np.stack([random_vector(rng, 2 * m, cplx) * 10.0 ** rng.integers(-5, 5)
                      for _ in range(4)])
        V = np.stack([random_vector(rng, 2 * m, cplx) for _ in range(4)])
        for a, b in ((U[:, :m], V[:, :m]), (U[:, ::2], V[:, ::2])):
            stacked = _row_dots(a, b)
            assert stacked.shape == (4,) and stacked.dtype == a.dtype
            for i in range(4):
                one = _row_dots(a[i:i + 1], b[i:i + 1])
                assert one.shape == (1,) and one.dtype == stacked.dtype
                assert one.tobytes() == stacked[i:i + 1].tobytes()
