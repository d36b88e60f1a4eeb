import math

import numpy as np
import pytest

from raylift import (
    Field,
    SymOp,
    ray,
    rank_one_retract,
    retraction_bound,
    retraction_probe,
    retraction_ratio,
    schatten_norm,
    spectral_decompose,
    sym_outer,
    symop,
    vec,
)
from raylift.core import _eigh_groups, _schatten_batch
from raylift.retraction import _carriers, _max_ratio_for_stacks, _retract_stack

from oracles import grouped_eigvalsh, random_hermitian, random_vector


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

    def test_bound_values(self):
        assert retraction_bound(1) == 7.0
        assert retraction_bound(2) == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-15)
        assert retraction_bound(math.inf) == 5.0


class TestBatch:
    def test_kernel_matches_spectral_decompose(self, rng, field):
        """The grouping kernel's labels, the retraction's coefficient, top
        group and carrier, and the multiplicities of ``spectral_decompose``,
        each against the independent grouping oracle."""
        cplx = field is Field.COMPLEX
        t = 1e-8  # the default grouping tolerance of a matrix of norm 1
        # gaps of 0.6 t chain three eigenvalues into the top group even
        # though the first and third are 1.2 t apart
        chain = np.diag([1.0, 1.0 - 0.6 * t, 1.0 - 1.2 * t, 0.0])[None]
        assert int(_retract_stack(chain)[2][0].sum()) == 3
        # the same chaining in a lower group (the tolerance here is 2 t)
        lower = np.diag([2.0, 1.0, 1.0 - 1.2 * t, 1.0 - 2.4 * t, 0.0])[None]
        stacks = [
            np.stack([random_hermitian(rng, 5, cplx) for _ in range(40)]),
            np.diag([1.0, 1.0, 0.0])[None],
            chain,
            lower,
            np.zeros((1, 3, 3)),
        ]
        for mats in stacks:
            if not cplx:
                mats = mats.real
            labels = _eigh_groups(mats)[2]
            coef, vecs, top, _ = _retract_stack(mats)
            carriers = _carriers(coef, vecs, top)
            for k in range(mats.shape[0]):
                scale = max(1.0, float(np.max(np.abs(mats[k]))))
                want_w, want_labels = grouped_eigvalsh(mats[k])
                assert labels[k, ::-1].tolist() == want_labels
                mults = tuple(np.bincount(want_labels).tolist())
                assert spectral_decompose(SymOp(mats[k], field)).multiplicities == mults
                want_coef = float(want_w[0] - want_w[1])
                assert abs(coef[k] - want_coef) <= 1e-12 * scale
                assert int(top[k].sum()) == mults[0]
                # coef times the projector onto the top group's eigenspace
                c, r = carriers[k], mults[0]
                spread = float(want_w[0] - want_w[r - 1])
                assert np.max(np.abs(c @ c - want_coef * c)) <= 1e-12 * scale
                assert abs(np.trace(c).real - want_coef * r) <= 1e-12 * scale
                resid = mats[k] @ c - want_w[0] * c
                assert np.max(np.abs(resid)) <= (spread + 1e-12 * scale) * max(want_coef, 1e-300)

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
        res = retraction_probe(
            dims=(2, 3), ps=(2, math.inf), n_random=500, n_adversarial=1000, seed=5
        )
        assert res["violations"] == 0
        assert res["max_ratio_inf"] <= 5.0 + 1e-8
        assert all(c["max_ratio"] <= c["bound"] + 1e-8 for c in res["combos"])

    def test_probe_deterministic(self):
        r1 = retraction_probe(dims=(2,), ps=(2,), n_random=200, n_adversarial=400, seed=9)
        r2 = retraction_probe(dims=(2,), ps=(2,), n_random=200, n_adversarial=400, seed=9)
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
        res = retraction_probe(dims=(2, 3), ps=(2000.0,), n_random=200, n_adversarial=400, seed=3)
        assert res["violations"] == 0
        for c in res["combos"]:
            assert math.isfinite(c["max_ratio"]) and 0.0 < c["max_ratio"] <= c["bound"] + 1e-8
