import importlib
import json
import math

import numpy as np
import pytest

from raylift import (
    Field,
    Frame,
    build_lifted_map,
    estimate_lower_lip,
    estimate_upper_lip,
    gen_frame,
    grid_lower_lip,
    lower_lip_objective,
    pr_verdict,
    probe_bilipschitz,
    upper_lip_ceiling,
    verify_property_k,
    write_frame,
)
from raylift.cli import main as cli_main
from raylift.probes import _alternating_min, _b0_ascent, _ratio_and_grad, certify_min_above

from oracles import quartic_max_scan

frames_mod = importlib.import_module("raylift.frames")
probes_mod = importlib.import_module("raylift.probes")
cli_mod = importlib.import_module("raylift.cli")

SQ2 = math.sqrt(2)
PK_KEYS = ("distances_ok", "x_intersection_nonempty", "y_intersection_empty")


def _pr3():
    return gen_frame("named", 2, 3, name="r2_pr3")


def _onb():
    return gen_frame("named", 2, 2, name="r2_onb")


class TestLowerLip:
    def test_onb_value_zero_with_witness(self):
        est = estimate_lower_lip(_onb(), starts=16)
        assert est.value <= 1e-12
        q, den = lower_lip_objective(_onb(), est.argmin_u.entries, est.argmin_v.entries)
        assert q <= 1e-12 and den > 1e-3

    def test_onb_exact_witness_is_exactly_zero(self):
        F = _onb()
        q, den = lower_lip_objective(F, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert q == 0.0 and den == 1.0

    def test_pr3_value_is_one_sixth(self):
        # oracle-derived: the angle-grid scan plus local polish converges to
        # 1/6 for this fixture
        est = estimate_lower_lip(_pr3())
        assert est.method == "grid" and est.grid_resolution == 2048
        assert est.value == pytest.approx(1 / 6, abs=1e-9)

    def test_grid_oracle_matches_multistart(self):
        gval, gu, gv = grid_lower_lip(_pr3())
        est = estimate_lower_lip(_pr3())
        assert abs(gval - est.value) <= 1e-6

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

    def test_starts_validation(self):
        with pytest.raises(ValueError):
            estimate_lower_lip(_pr3(), starts=0)

    def test_grid_needs_n2_real(self):
        with pytest.raises(ValueError):
            grid_lower_lip(gen_frame("random_gaussian", 3, 9, Field.REAL, seed=6))


class TestUpperLip:
    def test_onb_ratio_reaches_one(self):
        b0 = estimate_upper_lip(_onb(), samples=500, seed=0)
        assert b0 == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_samples(self):
        F = _pr3()
        raw = [
            estimate_upper_lip(F, samples=s, seed=0, refine=False)
            for s in (100, 500, 2000)
        ]
        assert raw[0] <= raw[1] <= raw[2]

    def test_refinement_never_decreases(self):
        F = _pr3()
        raw = estimate_upper_lip(F, samples=500, seed=0, refine=False)
        ref = estimate_upper_lip(F, samples=500, seed=0, refine=True)
        assert ref >= raw

    def test_ordering_with_lower_constant(self, field):
        F = gen_frame("random_gaussian", 3, 9, field, seed=7)
        a0 = estimate_lower_lip(F, starts=16).value
        b0 = estimate_upper_lip(F, samples=500, seed=0)
        assert a0 <= b0 + 1e-9


class TestLowerLipRefinement:
    def test_gradient_matches_central_differences(self, field):
        F = gen_frame("random_gaussian", 4, 16, field, seed=3)
        rng = np.random.default_rng(11)
        n = F.dim
        rdim = 2 * n if field is Field.REAL else 4 * n

        def ratio(rz):
            # packed as (u, v), complex entries as (real parts, imag parts)
            if field is Field.REAL:
                u, v = rz[:n], rz[n:]
            else:
                u, v = rz[:n] + 1j * rz[n:2 * n], rz[2 * n:3 * n] + 1j * rz[3 * n:]
            q, den = lower_lip_objective(F, u, v)
            return q / den

        for _ in range(3):
            x = rng.standard_normal(rdim)
            value, grad = _ratio_and_grad(F, x)
            assert value == pytest.approx(ratio(x), rel=1e-12)
            h = 1e-6
            fd = np.array([(ratio(x + h * e) - ratio(x - h * e)) / (2 * h)
                           for e in np.eye(rdim)])
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_scale_covariance_n8(self):
        F = gen_frame("random_gaussian", 8, 72, Field.COMPLEX, seed=4)
        G = Frame(2.0 * F.synthesis, Field.COMPLEX)
        a = estimate_lower_lip(F, seed=1).value
        b = estimate_lower_lip(G, seed=1).value
        assert b == pytest.approx(16 * a, rel=1e-9)

    def test_refined_never_above_best_alternating_candidate(self, field):
        F = gen_frame("random_gaussian", 4, 16, field, seed=6)
        starts, seed = 16, 3
        best = math.inf
        for s in range(starts):
            u0 = np.random.default_rng([seed, s]).standard_normal(
                F.dim if field is Field.REAL else 2 * F.dim)
            if field is Field.COMPLEX:
                u0 = u0[:F.dim] + 1j * u0[F.dim:]
            _, u, v = _alternating_min(F, u0)
            q, den = lower_lip_objective(F, u, v)
            if den > 1e-9:
                best = min(best, q / den)
        est = estimate_lower_lip(F, starts=starts, seed=seed)
        assert est.value <= best * (1 + 1e-12)

    def test_one_alternation_per_start(self, monkeypatch, field):
        """Each start takes exactly one block alternation: two best-partner
        solves, the second from the first's partner."""
        F = gen_frame("random_gaussian", 3, 9, field, seed=2)
        name = "_best_partner_real" if field is Field.REAL else "_best_partner_complex"
        solve = getattr(probes_mod, name)
        calls = []

        def counting(F, u):
            calls.append(u)
            return solve(F, u)

        monkeypatch.setattr(probes_mod, name, counting)
        u0 = np.arange(1.0, 4.0) if field is Field.REAL else np.array([1.0, 2j, 3.0])
        val, u, v = _alternating_min(F, u0)
        assert len(calls) == 2
        assert np.allclose(calls[0], u0 / np.linalg.norm(u0)) and calls[1] is v
        want_val, want_u = solve(F, v)
        assert val == want_val and np.array_equal(u, want_u)
        estimate_lower_lip(F, starts=5, seed=0)
        assert len(calls) == 2 + 2 * 5

    def test_search_diagnostics(self, field):
        F = gen_frame("random_gaussian", 3, 9, field, seed=2)
        est = estimate_lower_lip(F, starts=16, seed=0)
        assert 3 <= est.kept_starts <= 16
        assert 0 < est.refine_iterations <= est.refine_evaluations
        assert est.refine_converged

    def test_refinement_evaluation_guard(self):
        # the simplex search this replaced spent 24,000 evaluations here
        F = gen_frame("random_gaussian", 8, 72, Field.COMPLEX, seed=7)
        est = estimate_lower_lip(F, seed=1)
        assert est.refine_evaluations <= 1500
        assert est.refine_converged


class TestUpperLipExact:
    def test_pr3_matches_angle_scan(self):
        F = _pr3()
        want = quartic_max_scan(F.synthesis)
        assert estimate_upper_lip(F, samples=100, seed=0) == pytest.approx(want, rel=1e-9)

    def test_ceiling_is_lifted_sigma_max_squared(self, field):
        for n, m in ((3, 9), (4, 16)):
            F = gen_frame("random_gaussian", n, m, field, seed=n)
            want = build_lifted_map(F).sigma_max ** 2
            assert upper_lip_ceiling(F) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n, m", [(3, 9), (4, 16), (8, 72)])
    def test_bracket(self, field, n, m):
        for seed in (4, 5):
            F = gen_frame("random_gaussian", n, m, field, seed=seed)
            raw = estimate_upper_lip(F, samples=500, seed=1, refine=False)
            b0 = estimate_upper_lip(F, samples=500, seed=1)
            assert raw <= b0 <= upper_lip_ceiling(F) * (1 + 1e-12)

    def test_onb_bracket_is_tight(self):
        F = _onb()
        assert upper_lip_ceiling(F) == pytest.approx(1.0, rel=1e-12)
        assert _b0_ascent(F)[0] == pytest.approx(1.0, rel=1e-12)

    def test_refinement_makes_no_measure_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return measure(*args, **kwargs)

        measure = frames_mod.measure
        monkeypatch.setattr(frames_mod, "measure", counting)
        monkeypatch.setattr(probes_mod, "measure", counting, raising=False)
        F = gen_frame("random_gaussian", 8, 72, Field.COMPLEX, seed=1)
        estimate_upper_lip(F, samples=2000, seed=1, refine=True)
        assert calls == []


class TestCheckReport:
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
        assert 0 < rep["a0"] <= rep["b0"] <= rep["b0_upper"]
        est = estimate_lower_lip(F, starts=64, seed=2)
        assert rep["search"] == {
            "kept_starts": est.kept_starts,
            "refine_iterations": est.refine_iterations,
            "refine_evaluations": est.refine_evaluations,
            "refine_converged": est.refine_converged,
            "b0_ascent_iterations": _b0_ascent(F, 2)[1],
        }


class TestVerdict:
    def test_pr3_retrievable(self):
        assert pr_verdict(_pr3()) == "retrievable"

    def test_onb_not_retrievable(self):
        assert pr_verdict(_onb()) == "not_retrievable"

    def test_underdetermined_never_retrievable(self):
        # m = n < 2n - 1 cannot give phase retrieval
        F = gen_frame("random_gaussian", 4, 4, Field.REAL, seed=8)
        assert pr_verdict(F, starts=24) in ("not_retrievable", "indeterminate")

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            pr_verdict(_pr3(), threshold=0.0)


class TestBilipschitz:
    def test_min_ratio_consistent_with_grid(self):
        F = _pr3()
        gval, _, _ = grid_lower_lip(F)
        res = probe_bilipschitz(F, samples=2000, seed=0)
        assert res["min_ratio"] ** 2 >= gval - 1e-6

    def test_running_max_monotone(self):
        res = probe_bilipschitz(_pr3(), samples=1000, seed=0)
        running = np.maximum.accumulate(res["ratios"])
        assert np.all(np.diff(running) >= 0)

    def test_no_coincident_pairs(self):
        res = probe_bilipschitz(_pr3(), samples=1000, seed=0)
        assert np.all(np.isfinite(res["ratios"]))
        assert res["kept"] > 0

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

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError):
            verify_property_k("other")


class TestCertifier:
    def test_positive_min_certified(self):
        # f(x, y) = x^2 + y^2 + 0.5 on [-1, 1]^2, Lipschitz constant <= 4
        def ev(p):
            return np.sum(p * p, axis=1) + 0.5

        def lip(p, hd):
            return 2.0 * (np.sqrt(np.sum(p * p, axis=1)) + hd)

        above, located, _ = certify_min_above(ev, lip, [-1, -1], [1, 1], 0.25, 1e-6)
        # located is only the best value seen; pruning stops refinement early
        # when the minimum clears the target by a wide margin
        assert above and 0.5 <= located <= 0.55

    def test_crossing_min_detected(self):
        def ev(p):
            return np.sum(p * p, axis=1) - 0.1

        def lip(p, hd):
            return 2.0 * (np.sqrt(np.sum(p * p, axis=1)) + hd)

        above, located, _ = certify_min_above(ev, lip, [-1, -1], [1, 1], 0.25, 1e-6)
        assert not above and located <= 1e-6
