import importlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raylift import (
    Field,
    Frame,
    Vector,
    build_lifted_map,
    estimate_lower_lip,
    estimate_upper_lip,
    gen_frame,
    lower_lip_objective,
    measure,
    pr_verdict,
    probe_bilipschitz,
    upper_lip_ceiling,
    verify_property_k,
    write_frame,
)
from raylift.cli import main as cli_main
from raylift.probes import (
    _alternating_min,
    _best_partners,
    _multistart_lower_lip,
    _neg_quartic_and_grad,
    _ratio_and_grad,
    certify_min_above,
)
from raylift.core import _bfgs, _gaussian
from raylift.metrics import _lift_dist_stack

from oracles import (
    best_partner_complex,
    best_partner_real,
    lower_lip_scan,
    quartic_max_scan,
    random_vector,
)

frames_mod = importlib.import_module("raylift.frames")
probes_mod = importlib.import_module("raylift.probes")
cli_mod = importlib.import_module("raylift.cli")

SQ2 = math.sqrt(2)
PK_KEYS = ("distances_ok", "x_intersection_nonempty", "y_intersection_empty")


def _pr3():
    return gen_frame("named", 2, 3, name="r2_pr3")


def _onb():
    return gen_frame("named", 2, 2, name="r2_onb")


def _norms4(F):
    """(max_k ||f_k||^2)^2: how a0 and Q scale with the frame."""
    return float(np.sum(np.abs(F.synthesis) ** 2, axis=1).max()) ** 2


def random_start(F, seed, s):
    """Start s of ``estimate_lower_lip``'s seeded draws: real parts, then
    imaginary parts in the complex field."""
    n = F.dim
    z = np.random.default_rng([seed, s]).standard_normal(n if F.field is Field.REAL else 2 * n)
    return z if F.field is Field.REAL else z[:n] + 1j * z[n:]


class TestLowerLip:
    def test_onb_value_zero_with_witness(self):
        est = estimate_lower_lip(_onb(), starts=16)
        assert est.value == 0.0
        q, den = lower_lip_objective(_onb(), est.argmin_u.entries, est.argmin_v.entries)
        assert q <= 1e-12 and den > 1e-3

    def test_onb_exact_witness_is_exactly_zero(self):
        F = _onb()
        q, den = lower_lip_objective(F, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert q == 0.0 and den == 1.0

    def test_pr3_value_is_one_sixth(self):
        # the closed form gives 1/6 for this fixture, whatever the seed
        values = {estimate_lower_lip(_pr3(), seed=seed).value for seed in range(4)}
        assert len(values) == 1
        assert abs(values.pop() - 1 / 6) <= 1e-15
        assert estimate_lower_lip(_pr3()).method == "exact"

    def test_value_equals_objective_at_witnesses(self, field):
        F = gen_frame("random_gaussian", 3, 9, field, seed=1)
        est = estimate_lower_lip(F, starts=16)
        q, den = lower_lip_objective(F, est.argmin_u.entries, est.argmin_v.entries)
        assert est.value == pytest.approx(q / den, abs=1e-12)

    def test_seed_consistency(self, field):
        F = gen_frame("random_gaussian", 3, 9, field, seed=2)
        a = estimate_lower_lip(F, starts=32, seed=0).value
        b = estimate_lower_lip(F, starts=32, seed=1234).value
        assert abs(a - b) <= 1e-5 * max(1.0, a)

    def test_positive_for_generic_gaussian(self):
        F = gen_frame("random_gaussian", 3, 9, Field.REAL, seed=3)
        assert estimate_lower_lip(F, starts=32).value > 1e-4

    def test_unitary_invariance(self):
        F = gen_frame("random_gaussian", 3, 9, Field.COMPLEX, seed=4)
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        G = Frame(F.synthesis @ u.T, Field.COMPLEX)
        a = estimate_lower_lip(F, starts=32).value
        b = estimate_lower_lip(G, starts=32).value
        assert abs(a - b) <= 1e-6 * max(1.0, a)

    def test_scaling_quartic(self, field):
        F = gen_frame("random_gaussian", 3, 9, field, seed=5)
        G = Frame(2.0 * F.synthesis, field)
        a = estimate_lower_lip(F, starts=32).value
        b = estimate_lower_lip(G, starts=32).value
        assert b == pytest.approx(16 * a, rel=1e-6)

    @pytest.mark.parametrize("u, message", [
        ([1.0, math.nan, 0.0], "u has non-finite entries"),
        ([1.0, 0.0], "u: expected 3 entries, got 2"),
        ([[1.0, 0.0, 0.0]], "u must be 1-dimensional"),
    ], ids=["nan", "short", "matrix"])
    def test_objective_validates_its_vectors(self, field, u, message):
        """``lower_lip_objective`` refuses a vector that is not a finite
        vector of ``F.dim`` entries in F's field, naming the argument; the
        same holds for v."""
        F = gen_frame("random_gaussian", 3, 9, field, seed=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            lower_lip_objective(F, u, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=re.escape(message.replace("u", "v", 1))):
            lower_lip_objective(F, [1.0, 0.0, 0.0], u)

    def test_objective_refuses_complex_vector_on_real_frame(self):
        F = gen_frame("random_gaussian", 3, 9, Field.REAL, seed=1)
        with pytest.raises(ValueError, match="v tagged real but has nonzero imaginary part"):
            lower_lip_objective(F, [1.0, 0.0, 0.0], [1.0, 1j, 0.0])
        # a complex dtype with zero imaginary parts is a real vector
        want = lower_lip_objective(F, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert lower_lip_objective(F, [1.0 + 0j, 0.0, 0.0], [0.0, 1.0, 0.0]) == want

    def test_starts_validation(self):
        # n = 2 frames run no search, yet their starts are still validated
        for F in (_pr3(), gen_frame("random_gaussian", 3, 9, Field.REAL, seed=6)):
            with pytest.raises(ValueError):
                estimate_lower_lip(F, starts=0)


def _real_n2_frames():
    return [_pr3()] + [gen_frame("random_gaussian", 2, m, Field.REAL, seed=s)
                       for m in (3, 4, 6) for s in range(4)]


class TestLowerLipExact:
    """The n = 2 closed form against independent checks: an angle-pair
    scan, random pairs, the bi-Lipschitz sampler and the multistart search
    it replaced."""

    def test_matches_angle_scan(self):
        for F in _real_n2_frames():
            want = lower_lip_scan(F.synthesis)
            assert estimate_lower_lip(F).value == pytest.approx(want, rel=1e-10)

    def test_no_random_pair_below(self, field):
        rng = np.random.default_rng(3)
        for m in (3, 5, 8):
            F = gen_frame("random_gaussian", 2, m, field, seed=m)
            a0 = estimate_lower_lip(F).value
            U, V = (random_vector(rng, (10_000, 2), field is Field.COMPLEX) for _ in "uv")
            # Q and den from scratch: Re(<u, f_k> conj(<v, f_k>)), unit pairs
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            t = np.real((U @ F.synthesis.conj().T) * (V @ F.synthesis.conj().T).conj())
            den = 1.0 - np.imag(np.sum(U.conj() * V, axis=1)) ** 2
            assert np.min(np.sum(t * t, axis=1) / den) >= a0 * (1 - 1e-12)

    def test_multistart_lands_on_exact(self, field):
        """The closed form is an oracle for the a0 search: run at n = 2 on
        every frame with a0 clear of 0, the multistart reaches it."""
        checked = 0
        for m in range(3, 11):
            for seed in range(7):
                F = gen_frame("random_gaussian", 2, m, field, seed=seed)
                a0 = estimate_lower_lip(F).value
                if a0 <= 1e-8 * _norms4(F):
                    continue
                found = _multistart_lower_lip(F, 64, 0)
                assert found.method == "multistart"
                assert found.value == pytest.approx(a0, rel=1e-9)
                checked += 1
        assert checked >= 40

    def test_exact_runs_no_search(self, monkeypatch, field):
        monkeypatch.setattr(probes_mod, "_alternating_min", None)
        F = gen_frame("random_gaussian", 2, 5, field, seed=1)
        est = estimate_lower_lip(F, starts=8, seed=0)
        assert est.method == "exact" and est.starts == est.kept_starts == 0
        assert est.refine_iterations == est.refine_evaluations == 0
        assert est.refine_stop is None
        assert estimate_lower_lip(F, starts=64, seed=9) == est
        q, den = lower_lip_objective(F, est.argmin_u.entries, est.argmin_v.entries)
        assert est.value == q / den and den == pytest.approx(1.0, rel=1e-12)

    def test_method_by_dimension(self, field):
        # n >= 3 keeps the search
        F = gen_frame("random_gaussian", 3, 9, field, seed=6)
        est = estimate_lower_lip(F, starts=8, seed=0)
        assert est.method == "multistart" and est.starts == 8
        assert est == _multistart_lower_lip(F, 8, 0)

    def test_complex_below_4n_minus_4_not_retrievable(self):
        # m = 3 < 4n - 4 complex vectors cannot give phase retrieval at n = 2
        for seed in range(10):
            F = gen_frame("random_gaussian", 2, 3, Field.COMPLEX, seed=seed)
            est = estimate_lower_lip(F)
            q, _ = lower_lip_objective(F, est.argmin_u.entries, est.argmin_v.entries)
            assert q <= 1e-24 * _norms4(F)
            assert pr_verdict(F, estimate=est) == "not_retrievable"

    def test_peak_memory(self):
        tracemalloc.start()
        try:
            estimate_lower_lip(_pr3())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestUpperLip:
    def test_onb_ratio_reaches_one(self):
        b0, _ = estimate_upper_lip(_onb(), seed=0)
        assert b0 == pytest.approx(1.0, abs=1e-6)

    def test_ordering_with_lower_constant(self, field):
        F = gen_frame("random_gaussian", 3, 9, field, seed=7)
        a0 = estimate_lower_lip(F, starts=16).value
        b0, _ = estimate_upper_lip(F, seed=0)
        assert a0 <= b0 + 1e-9


class TestLowerLipRefinement:
    def test_gradient_matches_central_differences(self, field):
        F = gen_frame("random_gaussian", 4, 16, field, seed=3)
        rng = np.random.default_rng(11)
        n = F.dim
        rdim = 2 * n if field is Field.REAL else 4 * n

        def ratio(rz):
            # packed as (u, v), complex entries as interleaved (re, im) pairs
            z = rz if field is Field.REAL else rz[0::2] + 1j * rz[1::2]
            q, den = lower_lip_objective(F, z[:n], z[n:])
            return q / den

        X = rng.standard_normal((3, rdim))
        for x, value, grad in zip(X, *_ratio_and_grad(F, X)):
            assert value == pytest.approx(ratio(x), rel=1e-12)
            h = 1e-6
            fd = np.array([(ratio(x + h * e) - ratio(x - h * e)) / (2 * h)
                           for e in np.eye(rdim)])
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_ratio_at_packed_pair_is_objective_ratio(self, field):
        """At the float64 view of the concatenated pair, the refined ratio
        is ``lower_lip_objective``'s Q / den, bit for bit."""
        F = gen_frame("random_gaussian", 4, 16, field, seed=3)
        for s in range(4):
            u, v = random_start(F, 7, s), random_start(F, 8, s)
            q, den = lower_lip_objective(F, u, v)
            value = _ratio_and_grad(F, np.concatenate([u, v]).view(np.float64)[None])[0][0]
            assert value == q / den

    def test_stack_rows_match_one_row_calls(self, field):
        """Row i of a stacked call of the a0 kernel, and of the b0 kernel
        (64 starts, as the ascent iterates them), is its one-row call, bit
        for bit, in every output."""
        F = gen_frame("random_gaussian", 4, 16, field, seed=5)
        U = np.stack([random_start(F, 2, s) for s in range(6)])
        V = np.stack([random_start(F, 3, s) for s in range(6)])
        k = len(U)
        q, den, nn, DQ, Dden = probes_mod._lower_lip_terms(F, U, V)
        for i in range(k):
            qi, deni, nni, DQi, Ddeni = probes_mod._lower_lip_terms(F, U[i:i + 1], V[i:i + 1])
            assert (q[i], den[i], nn[i]) == (qi[0], deni[0], nni[0])
            assert np.array_equal(DQ[[i, k + i]], DQi)
            assert np.array_equal(Dden[[i, k + i]], Ddeni)
        F = gen_frame("random_gaussian", 8, 72, field, seed=1)
        U = np.stack([random_start(F, 4, s) for s in range(64)])
        quartic, G = probes_mod._quartic_terms(F, U)
        for i in range(len(U)):
            qi, Gi = probes_mod._quartic_terms(F, U[i:i + 1])
            assert quartic[i] == qi[0]
            assert np.array_equal(G[i], Gi[0])

    def test_scale_covariance_n8(self):
        F = gen_frame("random_gaussian", 8, 72, Field.COMPLEX, seed=4)
        G = Frame(2.0 * F.synthesis, Field.COMPLEX)
        a = estimate_lower_lip(F, seed=1).value
        b = estimate_lower_lip(G, seed=1).value
        assert b == pytest.approx(16 * a, rel=1e-9)

    def test_refined_never_above_best_alternating_candidate(self, field):
        F = gen_frame("random_gaussian", 4, 16, field, seed=6)
        starts, seed = 16, 3
        U0 = np.stack([random_start(F, seed, s) for s in range(starts)])
        _, U, V = _alternating_min(F, U0)
        best = math.inf
        for u, v in zip(U, V):
            q, den = lower_lip_objective(F, u, v)
            if den > 1e-9:
                best = min(best, q / den)
        est = estimate_lower_lip(F, starts=starts, seed=seed)
        assert est.value <= best * (1 + 1e-12)

    def test_one_alternation_per_start(self, monkeypatch, field):
        """Each start takes exactly one block alternation: two best-partner
        solves of the whole stack, the second from the first's partners."""
        F = gen_frame("random_gaussian", 3, 9, field, seed=2)
        solve = probes_mod._best_partners
        calls = []

        def counting(F, U):
            calls.append(U)
            return solve(F, U)

        monkeypatch.setattr(probes_mod, "_best_partners", counting)
        U0 = np.stack([random_start(F, 0, s) for s in range(4)])
        vals, U, V = _alternating_min(F, U0)
        assert len(calls) == 2
        assert np.allclose(calls[0], U0 / np.linalg.norm(U0, axis=1, keepdims=True))
        assert calls[1] is V
        want_vals, want_U = solve(F, V)
        assert np.array_equal(vals, want_vals) and np.array_equal(U, want_U)
        estimate_lower_lip(F, starts=5, seed=0)
        assert len(calls) == 4 and calls[2].shape == (5, F.dim)

    @given(st.sampled_from([Field.REAL, Field.COMPLEX]), st.integers(3, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_screened_denominators_are_one(self, field, n, data):
        """Every pair the alternation screens has denominator 1 to 1e-12:
        unit partners, each orthogonal to the other's phase direction. So
        the search ranks every start's pair, even below the injectivity
        thresholds (m down to 2n - 2)."""
        m = data.draw(st.integers(2 * n - 2, n * (n + 1)), label="m")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        F = gen_frame("random_gaussian", n, m, field, seed=seed)
        U0 = np.stack([random_start(F, seed, s) for s in range(16)])
        _, U, V = _alternating_min(F, U0)
        den = probes_mod._lower_lip_terms(F, U, V)[1]
        assert np.abs(den - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n, m", [(3, 9), (4, 16), (8, 72)])
    def test_partners_match_rowwise_oracle(self, field, n, m):
        """The stacked, deflated solve agrees with the per-row solve on an
        explicit Householder basis, and each partner attains its value."""
        F = gen_frame("random_gaussian", n, m, field, seed=n)
        U = np.stack([random_start(F, 5, s) for s in range(12)])
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        vals, V = _best_partners(F, U)
        qs, dens = probes_mod._lower_lip_terms(F, U, V)[:2]
        oracle = best_partner_real if field is Field.REAL else best_partner_complex
        for u, val, v, q_row, den_row in zip(U, vals, V, qs, dens):
            want, _ = oracle(F.synthesis, u)
            assert val == pytest.approx(want, rel=1e-12)
            q, den = lower_lip_objective(F, u, v)
            # the stacked objective's row is the one-row case, bit for bit
            assert (q, den) == (q_row, den_row)
            assert q == pytest.approx(val, rel=1e-12)
            assert den == pytest.approx(1.0, rel=1e-12)

    def test_chunked_stack_matches_one_stack(self, monkeypatch, field):
        """The screen gives each row the same bits in chunks of 1, 3 and 5
        rows as in one stack of 7."""
        F = gen_frame("random_gaussian", 4, 16, field, seed=3)
        U = np.stack([random_start(F, 1, s) for s in range(7)])
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        vals, V = _best_partners(F, U)
        for rows in (1, 3, 5):
            monkeypatch.setattr(probes_mod, "_STACK_ENTRIES", rows * F.synthesis.size)
            cvals, cV = _best_partners(F, U)
            assert np.array_equal(cvals, vals) and np.array_equal(cV, V)
        q = probes_mod._lower_lip_terms(F, U, V)[0]
        assert np.allclose(q, vals, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("starts", [1, 5, 64])
    def test_two_eigh_calls_per_screen(self, monkeypatch, starts):
        # one batched eigh per half-step, however many starts
        F = gen_frame("random_gaussian", 8, 72, Field.COMPLEX, seed=4)
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        estimate_lower_lip(F, starts=starts, seed=1)
        assert calls == [(starts, 16, 16)] * 2

    def test_search_diagnostics(self, field):
        F = gen_frame("random_gaussian", 3, 9, field, seed=2)
        est = estimate_lower_lip(F, starts=16, seed=0)
        assert est.kept_starts == 16
        assert 0 < est.refine_iterations <= est.refine_evaluations
        assert est.refine_stop in ("stationary", "rel_decrease")

    def test_refine_stop_names_the_reported_refinement(self, monkeypatch, field):
        """The reported stop and value are those of the stacked refinement's
        lowest row, which runs on the frame at unit scale, 2^-e F: the value
        is scaled back by 2^(4e)."""
        F = gen_frame("random_gaussian", 4, 16, field, seed=3)
        inner = probes_mod._bfgs
        runs = []

        def tagged(*args, **kwargs):
            X, values, nit, nfev, stops = inner(*args, **kwargs)
            runs.append(values)
            return X, values, nit, nfev, [f"run{i}" for i in range(len(stops))]

        monkeypatch.setattr(probes_mod, "_bfgs", tagged)
        est = estimate_lower_lip(F, starts=16, seed=0)
        values, = runs
        best = int(np.argmin(values))
        assert len(values) == 3
        assert est.refine_stop == f"run{best}"
        e = probes_mod._unit_scale(F)[1]
        assert est.value == pytest.approx(math.ldexp(values[best], 4 * e), rel=1e-12)

    def test_refinement_rows_match_one_row_runs(self, field):
        """Each candidate's refinement in the stacked run is its one-row
        run bit for bit, in every output."""
        F = gen_frame("random_gaussian", 4, 16, field, seed=3)
        X0 = np.stack([np.concatenate([random_start(F, 7, s), random_start(F, 8, s)])
                       for s in range(3)]).view(np.float64)

        def fun(RZ):
            return _ratio_and_grad(F, RZ)

        stacked = _bfgs(fun, X0)
        for i in range(len(X0)):
            alone = _bfgs(fun, X0[i:i + 1])
            assert np.array_equal(stacked[0][i], alone[0][0])
            assert [out[i] for out in stacked[1:]] == [out[0] for out in alone[1:]]

    def test_refinement_evaluation_guard(self):
        # the simplex search this replaced spent 24,000 evaluations here
        F = gen_frame("random_gaussian", 8, 72, Field.COMPLEX, seed=7)
        est = estimate_lower_lip(F, seed=1)
        assert est.refine_evaluations <= 1500
        assert est.refine_stop in ("stationary", "rel_decrease")


class TestUpperLipExact:
    def test_pr3_matches_angle_scan(self):
        F = _pr3()
        want = quartic_max_scan(F.synthesis)
        assert estimate_upper_lip(F, seed=0)[0] == pytest.approx(want, rel=1e-9)

    def test_pr3_within_rounding_of_three_halves(self):
        # the value is the quartic at a unit vector: at most b0 = 3/2 up to
        # the rounding of one evaluation, so it may land a few ulps above
        for seed in range(4):
            assert abs(estimate_upper_lip(_pr3(), seed=seed)[0] - 1.5) <= 8 * math.ulp(1.5)

    def test_ceiling_is_lifted_sigma_max_squared(self, field):
        for n, m in ((3, 9), (4, 16)):
            F = gen_frame("random_gaussian", n, m, field, seed=n)
            want = build_lifted_map(F).sigma_max ** 2
            assert upper_lip_ceiling(F) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("fld, n, m, lifted", [
        (Field.COMPLEX, 8, 72, False), (Field.REAL, 8, 72, True),
        (Field.COMPLEX, 3, 9, False), (Field.REAL, 3, 9, True),
        (Field.COMPLEX, 16, 513, True), (Field.REAL, 4, 400, True),
    ], ids=["complex-8-72", "real-8-72", "complex-3-9", "real-3-9", "complex-16-513",
            "real-4-400"])
    def test_ceiling_picks_the_cheaper_gram(self, fld, n, m, lifted):
        """When m cols^2 + cols^3 < m^3 the ceiling reads the cols x cols
        Gram, to within a few ulps of the m x m one; otherwise it has the
        m x m Gram's bits."""
        cols = n * n if fld is Field.COMPLEX else n * (n + 1) // 2
        assert (m * cols ** 2 + cols ** 3 < m ** 3) == lifted
        F = gen_frame("random_gaussian", n, m, fld, seed=1)
        fs = F.synthesis
        want = float(np.linalg.eigvalsh(np.abs(fs.conj() @ fs.T) ** 2)[-1])
        if lifted:
            assert upper_lip_ceiling(F) == pytest.approx(want, rel=1e-14)
        else:
            assert upper_lip_ceiling(F) == want

    def test_ceiling_sums_row_blocks(self, monkeypatch):
        """The cols x cols branch sums G over row blocks of at most
        ``_STACK_ENTRIES`` entries of A, so A is never whole: cut to 16 rows,
        the 400-vector frame goes in 25 blocks, to within a few ulps of the
        m x m Gram's value."""
        F = gen_frame("random_gaussian", 4, 400, Field.REAL, seed=1)
        fs = F.synthesis
        want = float(np.linalg.eigvalsh(np.abs(fs.conj() @ fs.T) ** 2)[-1])
        monkeypatch.setattr(frames_mod, "_STACK_ENTRIES", 16 * 10)
        blocks = []
        lifted_rows = frames_mod._lifted_rows
        monkeypatch.setattr(frames_mod, "_lifted_rows",
                            lambda *a: blocks.append(lifted_rows(*a)) or blocks[-1])
        assert upper_lip_ceiling(F) == pytest.approx(want, rel=1e-14)
        assert [b.shape for b in blocks] == [(10, 16)] * 25

    @pytest.mark.parametrize("n, m", [(3, 9), (4, 16), (8, 72)])
    def test_bracket(self, field, n, m):
        for seed in (4, 5):
            F = gen_frame("random_gaussian", n, m, field, seed=seed)
            # sampled pair ratios read below the ascent's attained value
            sampled = probe_bilipschitz(F, samples=500, seed=1)["max_ratio"] ** 2
            b0, _ = estimate_upper_lip(F, seed=1)
            assert sampled <= b0 * (1 + 1e-12) <= upper_lip_ceiling(F) * (1 + 1e-12)

    @pytest.mark.parametrize("n", [3, 8])
    def test_gradient_matches_central_differences(self, field, n):
        F = gen_frame("random_gaussian", n, n * n + n, field, seed=n)
        rng = np.random.default_rng(12)
        rdim = n if field is Field.REAL else 2 * n

        def quartic(rz):
            # interleaved (re, im) pairs in the complex field
            u = rz if field is Field.REAL else rz[0::2] + 1j * rz[1::2]
            c = measure(F, Vector(u, field)).values
            return float(c @ c) / float(np.vdot(u, u).real) ** 2

        X = rng.standard_normal((3, rdim))
        for x, value, grad in zip(X, *_neg_quartic_and_grad(F, X)):
            assert -value == pytest.approx(quartic(x), rel=1e-12)
            h = 1e-6
            fd = np.array([(quartic(x + h * e) - quartic(x - h * e)) / (2 * h)
                           for e in np.eye(rdim)])
            assert np.linalg.norm(-grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_onb_bracket_is_tight(self):
        F = _onb()
        assert upper_lip_ceiling(F) == pytest.approx(1.0, rel=1e-12)
        assert estimate_upper_lip(F)[0] == pytest.approx(1.0, rel=1e-12)

    def test_power_of_two_scaling_is_exact(self, field, tmp_path):
        """a0, b0 and the ceiling scale as the fourth power of the frame: far
        from unit scale, where the ascent's G and its norm overflow or
        underflow and the eigensolves drift by ulps, each value at 2^k F is
        2^(4k) times the value at F, bit for bit, with the same witness
        bytes and ascent steps, on an 8/72 frame and on an n = 2 frame, whose
        a0 is the closed form; ``check`` on the 8/72 frame at 2^-140 exits 0
        with those values."""
        n2 = _pr3() if field is Field.REAL else gen_frame("random_gaussian", 2, 5, field, seed=1)
        unscaled = []
        for F in (gen_frame("random_gaussian", 8, 72, field, seed=1), n2):
            est = estimate_lower_lip(F)
            b0, iterations = estimate_upper_lip(F, seed=0)
            ceiling = upper_lip_ceiling(F)
            unscaled.append((F, est.value, b0, ceiling))
            for k in (-200, -140, 130, 200):
                G = Frame(F.synthesis * 2.0 ** k, field)
                got = estimate_lower_lip(G)
                assert got.value == math.ldexp(est.value, 4 * k)
                for w in ("argmin_u", "argmin_v"):
                    assert getattr(got, w).entries.tobytes() == getattr(est, w).entries.tobytes()
                assert estimate_upper_lip(G, seed=0) == (math.ldexp(b0, 4 * k), iterations)
                assert upper_lip_ceiling(G) == math.ldexp(ceiling, 4 * k)
        F, *want = unscaled[0]
        write_frame(tmp_path / "f.json", Frame(F.synthesis * 2.0 ** -140, field))
        argv = ["check", "--frame", str(tmp_path / "f.json"), "--report", str(tmp_path / "r.json")]
        assert cli_main(argv) == 0
        rep = json.loads((tmp_path / "r.json").read_text())
        assert [rep["a0"], rep["b0"], rep["b0_upper"]] == [math.ldexp(v, -560) for v in want]

    def test_refinement_makes_no_measure_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return measure(*args, **kwargs)

        measure = frames_mod.measure
        monkeypatch.setattr(frames_mod, "measure", counting)
        monkeypatch.setattr(probes_mod, "measure", counting, raising=False)
        F = gen_frame("random_gaussian", 8, 72, Field.COMPLEX, seed=1)
        estimate_upper_lip(F, seed=1)
        assert calls == []


class TestCheckReport:
    @pytest.mark.parametrize("k", [256, -270])
    def test_constants_outside_the_float_range_exit_3(self, field, k, tmp_path, capsys):
        """At 2^256 F a0 and b0 overflow, at 2^-270 F they fall below the
        normal range: ``check`` names the frame and the constant on one
        stderr line, exits 3 and writes no report."""
        F = gen_frame("random_gaussian", 8, 72, field, seed=1)
        write_frame(tmp_path / "f.json", Frame(F.synthesis * 2.0 ** k, field))
        argv = ["check", "--frame", str(tmp_path / "f.json"), "--report", str(tmp_path / "r.json")]
        assert cli_main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"check: {tmp_path / 'f.json'}: a0 = ")
        assert "outside the normal float range" in err
        assert not (tmp_path / "r.json").exists()

    def test_bracket_and_search_record(self, tmp_path, monkeypatch):
        F = gen_frame("random_gaussian", 3, 9, Field.COMPLEX, seed=3)
        write_frame(tmp_path / "f.json", F)
        built = []
        monkeypatch.setattr(cli_mod, "build_lifted_map",
                            lambda *a, **k: built.append(1) or build_lifted_map(*a, **k))
        argv = ["check", "--frame", str(tmp_path / "f.json"), "--seed", "2",
                "--report", str(tmp_path / "r.json")]
        assert cli_main(argv) == 0
        first = (tmp_path / "r.json").read_bytes()
        assert cli_main(argv) == 0
        assert (tmp_path / "r.json").read_bytes() == first
        assert built == []
        rep = json.loads(first)
        assert rep["b0_upper"] == upper_lip_ceiling(F)
        b0, b0_iterations = estimate_upper_lip(F, 2)
        assert rep["b0"] == b0
        assert rep["sample_counts"] == {"starts": 64}
        assert 0 < rep["a0"] <= rep["b0"] <= rep["b0_upper"]
        est = estimate_lower_lip(F, starts=64, seed=2)
        assert rep["search"] == {
            "kept_starts": est.kept_starts,
            "refine_iterations": est.refine_iterations,
            "refine_evaluations": est.refine_evaluations,
            "refine_stop": est.refine_stop,
            "b0_ascent_iterations": b0_iterations,
        }

    def test_n2_report_is_exact(self, tmp_path):
        F = gen_frame("random_gaussian", 2, 5, Field.COMPLEX, seed=1)
        write_frame(tmp_path / "f.json", F)
        reps = []
        for seed in ("0", "3"):
            argv = ["check", "--frame", str(tmp_path / "f.json"), "--seed", seed,
                    "--report", str(tmp_path / "r.json")]
            assert cli_main(argv) == 0
            reps.append(json.loads((tmp_path / "r.json").read_text()))
        rep = reps[0]
        assert rep["witnesses"]["method"] == "exact" and "grid_resolution" not in rep["witnesses"]
        assert rep["sample_counts"] == {"starts": 0}
        search = dict(rep["search"])
        del search["b0_ascent_iterations"]
        assert search == {"kept_starts": 0, "refine_iterations": 0,
                          "refine_evaluations": 0, "refine_stop": None}
        # a0 and its witnesses do not depend on the seed
        assert (reps[1]["a0"], reps[1]["witnesses"]) == (rep["a0"], rep["witnesses"])
        assert 0 < rep["a0"] <= rep["b0"] <= rep["b0_upper"]

    def test_one_public_b0_call(self, tmp_path, monkeypatch):
        """``check`` takes b0 and its iteration count from one call of the
        public ``estimate_upper_lip``, which the layer tracer can time."""
        F = gen_frame("random_gaussian", 3, 9, Field.REAL, seed=3)
        write_frame(tmp_path / "f.json", F)
        results = []

        def counting(*args, **kwargs):
            results.append(estimate_upper_lip(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli_mod, "estimate_upper_lip", counting)
        argv = ["check", "--frame", str(tmp_path / "f.json"), "--starts", "8", "--seed", "1",
                "--report", str(tmp_path / "r.json")]
        assert cli_main(argv) == 0
        (b0, iterations), = results
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["b0"] == b0
        assert rep["search"]["b0_ascent_iterations"] == iterations


class TestVerdict:
    def test_pr3_retrievable(self):
        F = _pr3()
        assert pr_verdict(F, estimate_lower_lip(F)) == "retrievable"

    def test_onb_not_retrievable(self):
        F = _onb()
        assert pr_verdict(F, estimate_lower_lip(F)) == "not_retrievable"

    def test_underdetermined_never_retrievable(self):
        # m = n < 2n - 1 cannot give phase retrieval
        F = gen_frame("random_gaussian", 4, 4, Field.REAL, seed=8)
        est = estimate_lower_lip(F, starts=24)
        assert pr_verdict(F, est) in ("not_retrievable", "indeterminate")

    def test_scale_invariant(self):
        frames = [(_pr3(), 64), (_onb(), 64),
                  (gen_frame("random_gaussian", 4, 16, Field.COMPLEX, seed=1), 16)]
        for F, starts in frames:
            want = pr_verdict(F, estimate_lower_lip(F, starts=starts))
            for e in range(-4, 5):
                G = Frame(10.0 ** e * F.synthesis, F.field)
                assert pr_verdict(G, estimate_lower_lip(G, starts=starts)) == want, (F.label, e)


class TestBilipschitz:
    def test_min_ratio_above_exact_a0(self, field):
        frames = [gen_frame("random_gaussian", 2, m, field, seed=m) for m in (4, 6)]
        if field is Field.REAL:
            frames.append(_pr3())
        for F in frames:
            a0 = estimate_lower_lip(F).value
            res = probe_bilipschitz(F, samples=2000, seed=0)
            assert res["min_ratio"] ** 2 >= a0 - 1e-12 * _norms4(F)

    def test_max_ratio_monotone_in_samples(self):
        # a longer run extends a shorter one pair for pair
        F = _pr3()
        runs = [probe_bilipschitz(F, samples=s, seed=0) for s in (100, 500, 2000)]
        assert runs[0]["max_ratio"] <= runs[1]["max_ratio"] <= runs[2]["max_ratio"]
        assert np.array_equal(runs[2]["ratios"][:runs[0]["kept"]], runs[0]["ratios"])

    def test_running_max_monotone(self):
        res = probe_bilipschitz(_pr3(), samples=1000, seed=0)
        running = np.maximum.accumulate(res["ratios"])
        assert np.all(np.diff(running) >= 0)

    def test_no_coincident_pairs(self):
        res = probe_bilipschitz(_pr3(), samples=1000, seed=0)
        assert np.all(np.isfinite(res["ratios"]))
        assert res["kept"] > 0

    def test_ratios_match_one_pair_recomputation(self, field):
        """Each sampled ratio is ||measure(x) - measure(y)|| over the lift
        distance of that one pair, bit for bit, whatever block it was drawn
        in. The distance is ``lift_dist``'s one-row kernel on the drawn
        vectors: ``lift_dist`` itself reads canonical representatives,
        whose phase rounds a complex vector's entries."""
        F = gen_frame("random_gaussian", 3, 12, field, seed=3)
        res = probe_bilipschitz(F, samples=50, seed=3)
        rng = np.random.default_rng([3, 0])
        X = _gaussian(rng, (512, 3), field)[:50]
        Y = _gaussian(rng, (512, 3), field)[:50]
        want = []
        for x, y in zip(X, Y):
            d = measure(F, Vector(x, field)).values - measure(F, Vector(y, field)).values
            want.append(math.sqrt(np.sum(d ** 2)) / _lift_dist_stack(x[None], y[None], 1)[0])
        assert res["kept"] == 50
        assert np.array_equal(res["ratios"], want)

    def test_onb_ratios_can_approach_zero(self):
        res = probe_bilipschitz(_onb(), samples=5000, seed=0)
        assert res["min_ratio"] < 0.5


class TestPropertyK:
    def test_align_example_all_true(self):
        rec = verify_property_k("align_metric")
        assert all(rec[k] for k in PK_KEYS)
        assert rec["located_min"] > 1e-6

    def test_lift_example_all_true(self):
        rec = verify_property_k("lift_metric")
        assert all(rec[k] for k in PK_KEYS)
        assert rec["located_min"] > 1e-6

    def test_grown_ball_flips_emptiness(self):
        # +0.5 on the second radius leaves that ball's constraint slack at the
        # optimum, so emptiness must persist; +1.2 creates a common ray
        r = [math.sqrt(6), 2 - SQ2 + 0.5, math.sqrt(6) - math.sqrt(3)]
        rec = verify_property_k("align_metric", radii=r)
        assert rec["y_intersection_empty"]
        r = [math.sqrt(6), 2 - SQ2 + 1.2, math.sqrt(6) - math.sqrt(3)]
        rec = verify_property_k("align_metric", radii=r)
        assert not rec["y_intersection_empty"]

    def test_radii_apply_to_both_families_of_balls(self):
        # ||x0 - x1|| = sqrt(2) > 0.5 + 0.5: the Euclidean balls are disjoint,
        # and the smaller ray balls stay disjoint too
        rec = verify_property_k("lift_metric", radii=[0.5, 0.5])
        assert rec["distances_ok"] and rec["y_intersection_empty"]
        assert not rec["x_intersection_nonempty"]
        rec = verify_property_k("align_metric", radii=[1.0, 0.5, 0.5])
        assert not rec["x_intersection_nonempty"]

    def test_x_intersection_found_away_from_common_point(self):
        # the grown balls miss the record's common point, yet all three hold
        # (0, -2.83), so the search must find some common point
        r = np.array([math.sqrt(6), 2 - SQ2, math.sqrt(6) - math.sqrt(3)]) + [1, -0.1, 1]
        xs = np.array([[0.0, 0.0], [0.0, -2 * SQ2], [-1.0, -2 * SQ2]])
        common = np.array([1 - SQ2, -(1 + SQ2)])
        assert np.linalg.norm(common - xs[1]) > r[1]
        assert all(np.linalg.norm([0.0, -2.83] - x) < rv for x, rv in zip(xs, r))
        assert verify_property_k("align_metric", radii=r)["x_intersection_nonempty"]

    def test_x_intersection_of_overlapping_and_parted_balls(self):
        # the lift example's x centers are sqrt(2) apart
        rec = verify_property_k("lift_metric", radii=[0.70, 0.72])
        assert rec["x_intersection_nonempty"]
        rec = verify_property_k("lift_metric", radii=[0.70, 0.71])
        assert not rec["x_intersection_nonempty"]

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError):
            verify_property_k("other")

    @pytest.mark.parametrize("which,radii,message", [
        ("align_metric", [10.0], r"^radii: expected 3 entries, got 1$"),
        ("lift_metric", [0.5, 0.5, 0.5], r"^radii: expected 2 entries, got 3$"),
        ("align_metric", [1.0, math.nan, 1.0], r"^radii has non-finite entries$"),
        ("lift_metric", [math.inf, 0.5], r"^radii has non-finite entries$"),
    ], ids=["short", "long", "nan", "inf"])
    def test_radii_one_finite_per_ball(self, which, radii, message):
        # a short list once checked only the balls it reached
        with pytest.raises(ValueError, match=message):
            verify_property_k(which, radii=radii)


class TestCertifier:
    def test_positive_min_certified(self):
        # f(x, y) = x^2 + y^2 + 0.5 on [-1, 1]^2, Lipschitz constant <= 4
        def ev(p):
            return np.sum(p * p, axis=1) + 0.5

        def lip(p, hd):
            return 2.0 * (np.sqrt(np.sum(p * p, axis=1)) + hd)

        above, located, pt = certify_min_above(ev, lip, [-1, -1], [1, 1], 0.25, 1e-6)
        # located is only the best value seen, at the point returned; pruning
        # stops refinement early when the minimum clears the target by a
        # wide margin
        assert above and 0.5 <= located <= 0.55
        assert located == ev(pt[None])[0]

    def test_crossing_min_detected(self):
        def ev(p):
            return np.sum(p * p, axis=1) - 0.1

        def lip(p, hd):
            return 2.0 * (np.sqrt(np.sum(p * p, axis=1)) + hd)

        above, located, _ = certify_min_above(ev, lip, [-1, -1], [1, 1], 0.25, 1e-6)
        assert not above and located <= 1e-6
