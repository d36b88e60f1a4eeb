import math

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
from raylift.core import _lbfgs

from oracles import (
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
    """A (value, gradient) function worth 1 at its first call and
    ``later(x)`` at every call after it."""
    calls = [0]

    def fun(x):
        calls[0] += 1
        return (1.0, 2.0 * x) if calls[0] == 1 else later(x)
    return fun


class TestLbfgsKeepsStart:
    @pytest.mark.parametrize("make, x0", [
        (lambda: lambda x: (float(x @ x), 2.0 * x), [0.0, 0.0]),
        (lambda: lambda x: (math.nan, np.zeros_like(x)), [1.0, -2.0]),
        (lambda: _first_call_then(lambda x: (2.0 + float(x @ x), 2.0 * x)), [1.0, -2.0]),
        (lambda: _first_call_then(lambda x: (math.nan, np.full_like(x, math.nan))),
         [1.0, -2.0]),
    ], ids=["zero-start", "nan-start", "ends-higher", "ends-nan"])
    def test_start_comes_back(self, make, x0):
        """A zero or non-finite start value runs no search, and a search
        that ends higher or non-finite hands back the start with its value;
        the a0 refinement and the b0 refinement rely on it."""
        fun, x0 = make(), np.array(x0)
        f0 = make()(x0)[0]
        x, value, nit, nfev, _ = _lbfgs(fun, x0)
        assert x is x0
        assert value == f0 or (math.isnan(value) and math.isnan(f0))
        if not (f0 != 0.0 and math.isfinite(f0)):
            assert nit == nfev == 0
