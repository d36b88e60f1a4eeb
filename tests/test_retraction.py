import math
import re

import numpy as np
import pytest

from raylift import (
    Field,
    RankOnePSD,
    SymOp,
    ray,
    rank_one_retract,
    retraction_bound,
    retraction_probe,
    retraction_ratio,
    schatten_norm,
    sym_outer,
    symop,
    vec,
)
from raylift import retraction as retraction_mod
from raylift.core import _schatten_batch
from raylift.retraction import (
    _SAMPLERS,
    _hermitian_stack,
    _max_ratio_for_stacks,
    _ratio_parts,
    _retract_stack,
    _unitary_stack,
)

from oracles import (
    jacobi_eigvalsh,
    random_hermitian,
    random_vector,
    retract_2x2,
    retract_dense,
    retraction_difference_eigvals,
)

EPS = float(np.finfo(np.float64).eps)
ORDERS = (1, 2, 3.0, math.inf)


def _exact_n2(p):
    """Lip_p of the retraction at n = 2: 2^(1 - 1/p)."""
    return 2.0 ** (1.0 - (0.0 if p == math.inf else 1.0 / p))


def _oracle_norms(ev, p):
    return np.linalg.norm(ev, ord=p, axis=-1)


class TestRetract:
    def test_identity_goes_to_zero(self):
        out = rank_one_retract(symop(np.eye(2)))
        assert np.array_equal(out.carrier.entries, np.zeros((2, 2)))

    def test_diag_2_0_fixed(self):
        out = rank_one_retract(symop(np.diag([2.0, 0.0])))
        assert np.allclose(out.carrier.entries, np.diag([2.0, 0.0]), atol=1e-14)

    def test_idempotent_on_rank_one(self, rng, field):
        for _ in range(125):
            n = int(rng.integers(2, 9))
            x = vec(random_vector(rng, n, field is Field.COMPLEX), field)
            t = sym_outer(x, x)
            out = rank_one_retract(t)
            scale = max(1.0, float(np.linalg.norm(t.entries)))
            assert np.max(np.abs(out.carrier.entries - t.entries)) <= 1e-10 * scale

    def test_zero_fixed(self):
        out = rank_one_retract(symop(np.zeros((3, 3))))
        assert np.array_equal(out.carrier.entries, np.zeros((3, 3)))

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError):
            rank_one_retract(symop(np.array([[2.0]])))

    def test_generator_reproduces_carrier(self, rng, field):
        a = SymOp(random_hermitian(rng, 5, field is Field.COMPLEX), field)
        out = rank_one_retract(a)
        if out.generator is not None:
            rebuilt = sym_outer(out.generator, out.generator).entries
            assert np.max(np.abs(rebuilt - out.carrier.entries)) <= 1e-10

    def test_generator_is_canonical(self, rng, field):
        """The generator is in its ray's canonical form: the first entry
        above 1e-12 of its norm is real and positive."""
        for _ in range(25):
            a = SymOp(random_hermitian(rng, 5, field is Field.COMPLEX), field)
            g = rank_one_retract(a).generator
            assert g is not None
            lead = g.entries[np.abs(g.entries) > 1e-12 * g.norm()][0]
            assert lead.imag == 0 and lead.real > 0
            # re-canonicalising moves it by roundoff only
            assert np.max(np.abs(ray(g).rep.entries - g.entries)) <= 1e-15 * g.norm()

    def test_unitary_equivariance(self, rng, field):
        for _ in range(25):
            a = SymOp(random_hermitian(rng, 4, field is Field.COMPLEX), field)
            g = random_hermitian(rng, 4, field is Field.COMPLEX)
            u, _ = np.linalg.qr(g + 3 * np.eye(4))
            conj = SymOp(u @ a.entries @ u.conj().T, field)
            lhs = rank_one_retract(conj).carrier.entries
            rhs = u @ rank_one_retract(a).carrier.entries @ u.conj().T
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_near_tie_output_is_rank_one(self, rng, field):
        """diag(1, 1 - 0.6e-8, 0) in a random basis retracts to
        (lam1 - lam2) u1 u1*, rank one to roundoff, which passes the
        ``RankOnePSD`` check without a generator."""
        u = _unitary_stack(rng, 1, 3, field)[0]
        a = u @ np.diag([1.0, 1.0 - 0.6e-8, 0.0]) @ u.conj().T
        out = rank_one_retract(SymOp(a, field))
        w = np.linalg.eigvalsh(out.carrier.entries)
        assert w[-1] == pytest.approx(0.6e-8, rel=1e-6)
        assert abs(w[-2]) <= 1e-10 * w[-1]
        assert np.max(np.abs(out.carrier.entries - retract_dense(a))) <= 1e-12
        RankOnePSD(carrier=out.carrier)


class TestRatio:
    def test_paper_pair_ratio_two(self):
        a, b = symop(np.eye(2)), symop(np.diag([2.0, 0.0]))
        assert retraction_ratio(a, b, math.inf) == pytest.approx(2.0, abs=1e-12)

    def test_shift_by_identity_gives_zero(self, rng, field):
        a = SymOp(random_hermitian(rng, 4, field is Field.COMPLEX), field)
        b = SymOp(a.entries + 1e-3 * np.eye(4), field)
        assert retraction_ratio(a, b, 2) <= 1e-9

    def test_equal_inputs_rejected(self):
        a = symop(np.eye(2))
        with pytest.raises(ValueError):
            retraction_ratio(a, a, 2)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_bound_on_random_pairs(self, rng, field, p):
        bound = retraction_bound(p)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            a = SymOp(random_hermitian(rng, n, field is Field.COMPLEX), field)
            b = SymOp(random_hermitian(rng, n, field is Field.COMPLEX), field)
            assert retraction_ratio(a, b, p) <= bound + 1e-8

    @pytest.mark.parametrize("gaps", [(1.01e-8, 0.99e-8), (1.001e-8, 0.999e-8)])
    def test_pairs_straddling_a_tolerance_within_bound(self, rng, field, gaps):
        """Top gaps on either side of 1e-8, diagonal and in a random unitary
        basis: pi moves continuously across every gap, so these pairs read
        ratio 1, not the 49.5-500 of a rule that changed rank there."""
        u = _unitary_stack(rng, 1, 3, field)[0]
        for basis in (np.eye(3), u):
            a, b = (basis @ np.diag([1.0, 1.0 - g, 0.0]) @ basis.conj().T for g in gaps)
            for p in ORDERS:
                assert retraction_ratio(SymOp(a, field), SymOp(b, field), p) <= retraction_bound(p)

    def test_bound_values(self):
        assert retraction_bound(1) == 7.0
        assert retraction_bound(2) == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-15)
        assert retraction_bound(math.inf) == 5.0


class TestBatch:
    def test_kernel_matches_grouping_oracle(self, rng, field):
        """The kernel's coefficient lam1 - lam2 and unit top eigenvector
        against Jacobi eigenvalues, on random rows and on the spectra that
        once split it by multiplicity: a tie, near ties chained at the top
        and lower down, and zero."""
        cplx = field is Field.COMPLEX
        t = 1e-8
        stacks = [
            np.stack([random_hermitian(rng, 5, cplx) for _ in range(40)]),
            np.diag([1.0, 1.0, 0.0])[None],
            np.diag([1.0, 1.0 - 0.6 * t, 1.0 - 1.2 * t, 0.0])[None],
            np.diag([2.0, 1.0, 1.0 - 1.2 * t, 1.0 - 2.4 * t, 0.0])[None],
            np.zeros((1, 3, 3)),
        ]
        for mats in stacks:
            if not cplx:
                mats = mats.real
            coef, u = _retract_stack(mats)
            for k in range(mats.shape[0]):
                scale = max(1.0, float(np.max(np.abs(mats[k]))))
                w = jacobi_eigvalsh(mats[k])
                assert abs(coef[k] - (w[-1] - w[-2])) <= 1e-12 * scale
                assert abs(np.linalg.norm(u[k]) - 1.0) <= 1e-12
                assert np.max(np.abs(mats[k] @ u[k] - w[-1] * u[k])) <= 1e-12 * scale

    def test_ratio_is_one_row_of_the_stack_kernel(self, rng, field):
        cplx = field is Field.COMPLEX
        a = np.stack([random_hermitian(rng, 4, cplx) for _ in range(30)])
        b = np.stack([random_hermitian(rng, 4, cplx) for _ in range(30)])
        if not cplx:
            a, b = a.real, b.real
        for p in (1, 2, math.inf):
            rows = [retraction_ratio(SymOp(x, field), SymOp(y, field), p) for x, y in zip(a, b)]
            assert _max_ratio_for_stacks(a, b, p) == max(rows)

    def test_probe_small_run_no_violations(self):
        for p in (2, math.inf):
            res = retraction_probe(dims=(2, 3), p=p, samples=1000, seed=5)
            assert res["violations"] == 0
            assert res["max_ratio_inf"] <= 5.0 + 1e-8
            assert all(c["max_ratio"] <= c["bound"] + 1e-8 for c in res["combos"])

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_probe_draws_the_pairs_it_reports(self, monkeypatch, n):
        """In each field the random sampler draws ``samples`` pairs and the
        adversarial samplers draw ``samples`` pairs in all, the gap sampler
        taking the odd one."""
        drawn = {}

        def counting(name, sampler):
            def counted(rng, k, dim, field):
                drawn[name, field] = drawn.get((name, field), 0) + k
                return sampler(rng, k, dim, field)
            return name, counted

        monkeypatch.setattr(retraction_mod, "_SAMPLERS",
                            tuple(counting(*s) for s in _SAMPLERS))
        res = retraction_probe(dims=(2,), p=2, samples=n, seed=1)
        assert [c["field"] for c in res["combos"]] == ["real", "complex"]
        for field in Field:
            gap, rank_one = drawn.get(("gap", field), 0), drawn.get(("rank_one", field), 0)
            assert gap + rank_one == res["samples_adversarial"] == n
            assert gap == n - n // 2 and drawn["random", field] == res["samples_random"] == n

    @pytest.mark.parametrize("samples, dim", [(-5, -3), (-1, 4), (2, -1)])
    def test_probe_refuses_negative_counts(self, samples, dim):
        """A negative sample count or dimension drew no pair and was
        reported with both counts."""
        with pytest.raises(ValueError, match=re.escape(f"samples={samples}, dims=({dim},)") + "$"):
            retraction_probe(dims=(dim,), p=2, samples=samples)

    def test_probe_deterministic(self):
        r1 = retraction_probe(dims=(2,), p=2, samples=400, seed=9)
        r2 = retraction_probe(dims=(2,), p=2, samples=400, seed=9)
        assert r1["combos"] == r2["combos"]

    @pytest.mark.parametrize("p", [3.0, 2000.0])
    def test_batched_schatten_matches_scalar(self, rng, p):
        mats = [np.diag([3.0, -2.0, 0.5])] + [random_hermitian(rng, 4, True) for _ in range(5)]
        mats += [np.zeros((3, 3)), 1e200 * np.diag([1.0, -1.0, 0.25])]
        for A in mats:
            got = float(_schatten_batch(np.linalg.eigvalsh(A)[None, :], p)[0])
            want = schatten_norm(symop(A), p)
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert schatten_norm(symop(np.diag([3.0, -2.0, 0.5])), 2000.0) == pytest.approx(3.0)

    def test_probe_large_p_finite(self):
        res = retraction_probe(dims=(2, 3), p=2000.0, samples=400, seed=3)
        assert res["violations"] == 0
        for c in res["combos"]:
            assert math.isfinite(c["max_ratio"]) and 0.0 < c["max_ratio"] <= c["bound"] + 1e-8


class TestClosedForm:
    """The numerator of ``_ratio_parts`` from the two top eigenpairs, against
    the carriers built in full."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_numerator_matches_carrier_oracle(self, field, dim):
        for si, (name, sampler) in enumerate(_SAMPLERS):
            a, b = sampler(np.random.default_rng([11, dim, si]), 150, dim, field)
            ev = retraction_difference_eigvals(a, b)
            scale = _retract_stack(a)[0] + _retract_stack(b)[0]
            for p in ORDERS:
                num = _ratio_parts(a, b, p)[0]
                err = np.abs(num - _oracle_norms(ev, p))
                assert np.all(err <= 64 * EPS * scale), (name, p, float(np.max(err / scale)))

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_top_rotation_in_its_plane_has_ratio_one(self, field, dim):
        """b = R a R* with R a rotation by theta inside the top-two
        eigenplane of a: pi(a) - pi(b) and a - b are both
        (lam1 - lam2)(e1 e1* - v v*) with v = R e1, so the ratio is 1 at
        every p, also where theta is far below the spectral gap."""
        rng = np.random.default_rng(dim)
        k = 6
        lam = np.empty((k, dim))
        lam[:, 0], lam[:, 1] = 1.0, 0.5
        lam[:, 2:] = rng.uniform(-1.0, 0.4, size=(k, dim - 2))
        u = _unitary_stack(rng, k, dim, field)
        a = (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)
        for theta in (1e-7, 1e-3, 0.3):
            g = np.eye(dim)
            g[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            ur = u @ g
            b = (ur * lam[:, None, :]) @ ur.conj().transpose(0, 2, 1)
            for p in ORDERS:
                num, den = _ratio_parts(a, b, p)
                assert np.all(np.abs(num / den - 1.0) <= 1e-6), (theta, p)

    def test_non_simple_top_groups_match_oracle(self, rng, field):
        """Rows whose top eigenvalue is not simple (b = 0, and diag(1, 1, 0)
        in a random basis) or nearly so (diag(1, 1 - 0.6e-8, 0)) take the
        closed form with the other rows of the stack and match the formula
        oracle (w1 - w2) v1 v1*."""
        cplx = field is Field.COMPLEX
        u = _unitary_stack(rng, 2, 3, field)
        tied = u[0] @ np.diag([1.0, 1.0, 0.0]) @ u[0].conj().T
        near = u[1] @ np.diag([1.0, 1.0 - 0.6e-8, 0.0]) @ u[1].conj().T
        a = np.stack([random_hermitian(rng, 3, cplx) for _ in range(6)])
        b = np.stack([random_hermitian(rng, 3, cplx) for _ in range(6)])
        if not cplx:
            a, b = a.real, b.real
        b[1] = 0.0
        b[2] = tied
        a[4] = tied
        b[5] = near
        ev = retraction_difference_eigvals(a, b)
        for p in ORDERS:
            num = _ratio_parts(a, b, p)[0]
            assert np.max(np.abs(num - _oracle_norms(ev, p))) <= 1e-12

    def test_eigvalsh_and_carriers_only_where_needed(self, rng, monkeypatch):
        """One ``eigvalsh`` (of a - b) per call, zero and tied rows included:
        no row builds its carriers."""
        calls = [0]
        inner = np.linalg.eigvalsh

        def eigvalsh(m):
            calls[0] += 1
            return inner(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        a = np.stack([random_hermitian(rng, 4, False) for _ in range(20)])
        b = np.stack([random_hermitian(rng, 4, False) for _ in range(20)])
        _ratio_parts(a, b, 2)
        assert calls[0] == 1
        b[[3, 7]] = 0.0
        b[9] = np.diag([1.0, 1.0, 0.0, 0.0])
        calls[0] = 0
        _ratio_parts(a, b, 2)
        assert calls[0] == 1

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_top_gaps_below_the_samplers_within_bound(self, field, p):
        """Pairs as the gap sampler draws them but with top gaps
        10^U(-12, -6), below its smallest gap of 1e-6: pair by pair, the
        ratio stays under the proven bound up to the rounding slack of
        ``TestTwoByTwo``."""
        bound = retraction_bound(p)
        for dim in (2, 3, 4, 8):
            rng = np.random.default_rng([17, dim])
            k = 2000
            gap = 10.0 ** rng.uniform(-12, -6, size=k)
            lam = np.zeros((k, dim))
            lam[:, 0], lam[:, 1] = 1.0, 1.0 - gap
            rest = rng.uniform(-1.0, 1.0, size=(k, dim - 2)) * (1.0 - gap)[:, None]
            lam[:, 2:] = np.sort(rest, axis=1)[:, ::-1]
            u = _unitary_stack(rng, k, dim, field)
            a = (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)
            a = (a + a.conj().transpose(0, 2, 1)) / 2
            e = _hermitian_stack(rng, k, dim, field)
            e *= (gap * 10.0 ** rng.uniform(-2, 2, size=k)
                  / np.linalg.norm(e, axis=(1, 2)))[:, None, None]
            b = a + e
            slack = 64 * EPS * (np.linalg.norm(a, axis=(1, 2)) + np.linalg.norm(b, axis=(1, 2)))
            num, den = _ratio_parts(a, b, p)
            assert np.all(num <= bound * den + slack), dim
            assert _max_ratio_for_stacks(a, b, p) <= bound


class TestTwoByTwo:
    """At n = 2 the retraction is the traceless shift D + ||D||_op I and
    its Lipschitz constant is exactly 2^(1 - 1/p), attained at
    diag(e, -e) against 0."""

    def test_carrier_is_traceless_shift(self, rng, field):
        cplx = field is Field.COMPLEX
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(20):
                A = scale * random_hermitian(rng, 2, cplx)
                if not cplx:
                    A = A.real
                got = rank_one_retract(SymOp(A, field)).carrier.entries
                assert np.max(np.abs(got - retract_2x2(A))) <= 1e-12 * scale

    @pytest.mark.parametrize("p", ORDERS)
    def test_exact_constant_attained(self, field, p):
        zero = SymOp(np.zeros((2, 2), field.dtype), field)
        for e in (1.0, 0.5, 1e-3):
            A = SymOp(np.diag([e, -e]).astype(field.dtype), field)
            # 2 / 2^(1/p) and 2^(1 - 1/p) may round apart by one unit
            assert retraction_ratio(A, zero, p) == pytest.approx(_exact_n2(p), rel=2 * EPS, abs=0)

    def test_sampled_pairs_within_exact_constant(self, field):
        """Pair by pair, up to rounding: the computed numerator of a pair
        carries an error of order eps (||a|| + ||b||) from the two
        eigendecompositions, which at the samplers' closest pairs
        (||a - b|| near 1e-8 ||a||) is about 1e-7 of the ratio."""
        for si, (name, sampler) in enumerate(_SAMPLERS):
            a, b = sampler(np.random.default_rng([13, si]), 4000, 2, field)
            slack = 64 * EPS * (np.linalg.norm(a, axis=(1, 2)) + np.linalg.norm(b, axis=(1, 2)))
            for p in ORDERS:
                num, den = _ratio_parts(a, b, p)
                assert np.all(num <= _exact_n2(p) * den + slack), (name, p)

    def test_probe_dim_two_within_exact_constant(self):
        """Every dim-2 maximum of a seeded probe run, one run per order,
        lies below the exact constant, far below the proven
        3 + 2^(1 + 1/p), up to 1e-6 relative: the maxima come from the
        closest pairs and read at most 1 + 4.9e-7 of it (seeds 0-7, 1000
        and 2000 samples, both fields), the rounding floor of the pair test
        above."""
        for p in ORDERS:
            res = retraction_probe(dims=(2,), p=p, samples=2000, seed=0)
            assert res["violations"] == 0
            assert len(res["combos"]) == 2
            for c in res["combos"]:
                assert c["max_ratio"] <= _exact_n2(p) * (1 + 1e-6) < c["bound"]
