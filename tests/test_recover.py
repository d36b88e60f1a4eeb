import importlib
import json
import math

import numpy as np
import pytest

from raylift import (
    Field,
    Measurement,
    build_lifted_map,
    estimate_lower_lip,
    gen_frame,
    lift_dist,
    measure,
    min_norm_inverse,
    polish,
    ray,
    recover,
    rank_one_retract,
    recovery_lip_bound,
    retraction_bound,
    unlift,
    vec,
    write_frame,
    write_measurements,
)
from raylift.cli import main as cli_main

from oracles import random_vector

# the package re-exports the function recover, which shadows its module
frames_mod = importlib.import_module("raylift.frames")
recover_mod = importlib.import_module("raylift.recover")

SQ2 = math.sqrt(2)


def _gauss(dim, count, field, seed=0):
    return gen_frame("random_gaussian", dim, count, field, seed=seed)


def _pr_frame_r2():
    """The 2d phase-retrievable fixture padded with generic vectors so the
    lifted map reaches full column rank with margin."""
    base = gen_frame("named", 2, 3, name="r2_pr3")
    extra = _gauss(2, 3, Field.REAL, seed=21)
    from raylift import Frame

    return Frame(np.vstack([base.synthesis, extra.synthesis]), Field.REAL, label="r2_pr3+3")


class TestRecover:
    def test_zero_measurement(self):
        F = _gauss(3, 12, Field.REAL, seed=1)
        rep = recover(F, np.zeros(12))
        assert rep.residual == 0.0
        assert np.array_equal(rep.estimate.rep.entries, np.zeros(3))

    def test_exact_recovery_fixture(self):
        F = _pr_frame_r2()
        M = build_lifted_map(F)
        assert M.is_full_rank()
        x = vec([3.0, 1.0])
        rep = recover(F, measure(F, x), lifted=M)
        assert lift_dist(rep.estimate, ray(x), 1) <= 1e-7

    def test_exact_recovery_random(self, rng, field):
        F = _gauss(3, 12, field, seed=2)
        M = build_lifted_map(F)
        for _ in range(50):
            x = vec(random_vector(rng, 3, field is Field.COMPLEX), field)
            rep = recover(F, measure(F, x), lifted=M)
            d1 = lift_dist(rep.estimate, ray(x), 1)
            assert d1 <= 1e-7 * max(1.0, x.norm() ** 2)

    def test_count_mismatch(self):
        F = _gauss(3, 12, Field.REAL, seed=1)
        with pytest.raises(ValueError):
            recover(F, np.zeros(11))

    def test_noise_within_pipeline_bound(self, rng):
        F = _gauss(3, 12, Field.COMPLEX, seed=3)
        M = build_lifted_map(F)
        bound = recovery_lip_bound(F, 2, 1, lifted=M).pipeline
        for _ in range(50):
            x = vec(random_vector(rng, 3, True), Field.COMPLEX)
            c = measure(F, x).values
            e = rng.standard_normal(12)
            e *= 1e-3 / np.linalg.norm(e)
            rep = recover(F, c + e, lifted=M)
            d1 = lift_dist(rep.estimate, ray(x), 1)
            assert d1 <= bound * 1e-3 + 1e-7

    def test_stage_norms_reported(self, rng):
        F = _gauss(2, 6, Field.REAL, seed=4)
        x = vec(random_vector(rng, 2, False))
        rep = recover(F, measure(F, x))
        norms = rep.pipeline_stage_norms
        assert set(norms) == {"pseudoinverse_fro", "retraction_fro"}
        assert norms["pseudoinverse_fro"] >= norms["retraction_fro"] - 1e-9

    def test_report_dict_schema(self):
        F = _gauss(2, 6, Field.COMPLEX, seed=5)
        rep = recover(F, measure(F, vec(np.array([1.0 + 1j, 2.0]), Field.COMPLEX)))
        doc = rep.to_dict()
        assert set(doc) == {"estimate", "residual", "pipeline_stage_norms", "polished"}
        assert doc["estimate"]["field"] == "complex"
        assert isinstance(doc["estimate"]["entries"][0], list)

    def test_polished_dict_reports_descent(self):
        F = _gauss(2, 6, Field.COMPLEX, seed=5)
        c = measure(F, vec(np.array([1.0 + 1j, 2.0]), Field.COMPLEX)).values + 1e-3
        doc = recover(F, c, do_polish=True).to_dict()
        assert set(doc) == {"estimate", "residual", "pipeline_stage_norms", "polished", "polish"}
        assert set(doc["polish"]) == {"iterations", "evaluations", "stop"}
        assert doc["polish"]["stop"] in {"rel_decrease", "stationary", "line_search", "max_iters"}
        assert doc["polish"]["evaluations"] > doc["polish"]["iterations"] >= 1

    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_reconstruct_writes_json_bool(self, tmp_path, mode):
        F = _gauss(3, 12, Field.COMPLEX, seed=5)
        x = vec(np.array([1.0, 2.0 - 1j, 0.5j]), Field.COMPLEX)
        write_frame(tmp_path / "f.json", F)
        write_measurements(tmp_path / "c.json", [Measurement(measure(F, x).values + 1e-3)])
        out = tmp_path / "out.json"
        argv = ["reconstruct", "--frame", str(tmp_path / "f.json"), "--measurements",
                str(tmp_path / "c.json"), "--polish", mode, "--out", str(out)]
        assert cli_main(argv) == 0
        row, = json.loads(out.read_text())["rows"]
        assert row["polished"] is (mode == "on")
        assert ("polish" in row) is (mode == "on")

    @pytest.mark.parametrize("n,m,warned", [(4, 7, True), (4, 10, False)])
    def test_reconstruct_warns_when_not_left_inverse(self, tmp_path, capsys, n, m, warned):
        # real n=4, m=7: the lifted map is 7 x 10, so rank 7 of 10 columns
        F = _gauss(n, m, Field.REAL, seed=0)
        write_frame(tmp_path / "f.json", F)
        write_measurements(tmp_path / "c.json", [measure(F, vec(np.arange(1.0, n + 1)))])
        out = tmp_path / "out.json"
        argv = ["reconstruct", "--frame", str(tmp_path / "f.json"), "--measurements",
                str(tmp_path / "c.json"), "--out", str(out)]
        assert cli_main(argv) == 0
        err = capsys.readouterr().err
        assert ("rank 7 of 10 columns" in err) is warned
        assert ("not a left inverse" in err) is warned
        assert json.loads(out.read_text())["rows"][0]["residual"] >= 0

    def test_one_eigh_per_row(self, monkeypatch, field):
        F = _gauss(4, 20, field, seed=15)
        M = build_lifted_map(F)
        c = measure(F, vec(np.arange(1.0, 5.0) * (1 + 1j if field is Field.COMPLEX else 1), field))
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            inner = getattr(np.linalg, name)

            def counted(*args, _name=name, _inner=inner, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        recover(F, c, lifted=M)
        assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_matches_staged_pipeline(self, rng, field):
        """One eigendecomposition gives the estimate the three public
        stages give: invert, retract, un-lift."""
        cplx = field is Field.COMPLEX
        for n, m in ((3, 12), (8, 72)):
            F = _gauss(n, m, field, seed=16)
            M = build_lifted_map(F)
            for _ in range(10):
                c = measure(F, vec(random_vector(rng, n, cplx), field)).values
                c = c + 0.01 * np.linalg.norm(c) * rng.standard_normal(m) / math.sqrt(m)
                got = recover(F, c, lifted=M).estimate.rep.entries
                want = unlift(rank_one_retract(min_norm_inverse(M, c))).rep.entries
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestStageDecomposition:
    def test_factored_chain(self, rng, field):
        """Output distances factor through the pseudoinverse stage: the
        retraction contributes at most its Frobenius constant and the metric
        change at most 2^(1/q - 1/2)."""
        F = _gauss(3, 12, field, seed=6)
        M = build_lifted_map(F)
        q = 1.0
        c_pi = retraction_bound(2.0)
        metric = 2.0 ** (1.0 / q - 0.5)
        for _ in range(50):
            c1 = np.abs(rng.standard_normal(12))
            c2 = np.abs(rng.standard_normal(12))
            t1 = min_norm_inverse(M, c1)
            t2 = min_norm_inverse(M, c2)
            mid = float(np.linalg.norm(t1.entries - t2.entries))
            r1 = recover(F, c1, lifted=M).estimate
            r2 = recover(F, c2, lifted=M).estimate
            # pseudoinverse stage is exactly 1/sigma_min-Lipschitz
            assert mid <= np.linalg.norm(c1 - c2) / M.sigma_min + 1e-9
            assert lift_dist(r1, r2, q) <= c_pi * metric * mid + 1e-8


class TestLipBound:
    def test_theory_constants(self):
        F = _gauss(3, 12, Field.COMPLEX, seed=7)
        assert recovery_lip_bound(F, 2, 1, a0=1.0).theory == pytest.approx(4 + 3 * SQ2, abs=1e-12)
        assert recovery_lip_bound(F, 2, 2, a0=1.0).theory == pytest.approx(3 + 2 * SQ2, abs=1e-12)

    def test_measurement_factor(self):
        F = _gauss(2, 4, Field.REAL, seed=8)
        got = recovery_lip_bound(F, math.inf, 1, a0=1.0).theory
        assert got == pytest.approx(2 * (4 + 3 * SQ2), abs=1e-12)

    def test_pipeline_uses_sigma_min(self):
        F = _gauss(2, 6, Field.REAL, seed=9)
        M = build_lifted_map(F)
        lb = recovery_lip_bound(F, 2, 2, lifted=M)
        assert lb.pipeline == pytest.approx((3 + 2 * SQ2) / M.sigma_min, rel=1e-12)

    def test_q_above_two_uses_q_constant(self):
        F = _gauss(2, 6, Field.REAL, seed=9)
        lb = recovery_lip_bound(F, 2, 4)
        assert lb.retraction_factor == pytest.approx(3 + 2 ** 1.25, abs=1e-12)
        assert lb.metric_factor == 1.0

    def test_out_of_range_rejected(self):
        F = _gauss(2, 6, Field.REAL, seed=9)
        with pytest.raises(ValueError):
            recovery_lip_bound(F, 0.5, 1)
        with pytest.raises(ValueError):
            recovery_lip_bound(F, 2, 1, a0=0.0)

    def test_theory_none_without_a0(self):
        F = _gauss(2, 6, Field.REAL, seed=9)
        assert recovery_lip_bound(F, 2, 1).theory is None

    def test_theory_vs_estimated_a0_reported(self):
        F = _pr_frame_r2()
        a0 = estimate_lower_lip(F, starts=16).value
        lb = recovery_lip_bound(F, 2, 1, a0=a0)
        assert lb.theory == pytest.approx((4 + 3 * SQ2) / math.sqrt(a0), rel=1e-12)


class TestPolish:
    def test_exact_start_fixed_point(self):
        F = _pr_frame_r2()
        x = vec([3.0, 1.0])
        c = measure(F, x)
        out = polish(F, c, ray(x), iters=50)
        assert np.allclose(out.rep.entries, ray(x).rep.entries, atol=1e-14)

    def test_zero_iters_returns_start(self, rng):
        F = _gauss(2, 6, Field.REAL, seed=10)
        x0 = ray(vec(random_vector(rng, 2, False)))
        assert polish(F, measure(F, vec([1.0, 2.0])), x0, iters=0) == x0

    def test_never_worsens_residual(self, rng, field):
        F = _gauss(3, 12, field, seed=11)
        for _ in range(10):
            x = vec(random_vector(rng, 3, field is Field.COMPLEX), field)
            c = measure(F, x)
            start = ray(vec(random_vector(rng, 3, field is Field.COMPLEX), field))
            r0 = float(np.linalg.norm(measure(F, start.rep).values - c.values))
            out = polish(F, c, start, iters=100)
            r1 = float(np.linalg.norm(measure(F, out.rep).values - c.values))
            assert r1 <= r0 + 1e-14

    def test_converges_from_pipeline_output(self, rng):
        # observational: from the linear-inverse start the descent reaches a
        # tiny residual on small problems
        F = _gauss(3, 12, Field.REAL, seed=12)
        M = build_lifted_map(F)
        hit = 0
        for _ in range(10):
            x = vec(random_vector(rng, 3, False))
            c = measure(F, x)
            e = rng.standard_normal(12) * 1e-3
            rep = recover(F, Measurement(c.values + e), lifted=M)
            out = polish(F, c, rep.estimate, iters=200)
            if float(np.linalg.norm(measure(F, out.rep).values - c.values)) <= 1e-10:
                hit += 1
        assert hit >= 8

    def test_negative_iters(self):
        F = _gauss(2, 6, Field.REAL, seed=13)
        with pytest.raises(ValueError):
            polish(F, np.zeros(6), ray(vec([1.0, 0.0])), iters=-1)

    def test_recover_with_polish_flag(self, rng):
        F = _gauss(2, 6, Field.REAL, seed=14)
        x = vec(random_vector(rng, 2, False))
        rep = recover(F, measure(F, x), do_polish=True)
        assert rep.polished
        assert rep.residual <= 1e-9


def _sweep_rows(rows=16, noise=0.01, seed=0):
    """Seeded complex frame (n=8, m=128) with noisy measurement rows: each
    row's noise has norm ``noise`` times the norm of its clean measurement."""
    F = _gauss(8, 128, Field.COMPLEX, seed=seed)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rows):
        c = measure(F, vec(random_vector(rng, 8, True), Field.COMPLEX)).values
        e = rng.standard_normal(c.shape)
        out.append(c + e * (noise * np.linalg.norm(c) / np.linalg.norm(e)))
    return F, build_lifted_map(F), out


class TestPolishDescent:
    def test_scale_covariance(self):
        """x -> s x with c -> s^2 c scales the polished estimate by s: the
        step and the stopping rules carry no absolute scale."""
        F, M, rows = _sweep_rows(rows=2, noise=0.05, seed=1)
        for c in rows:
            base = recover(F, c, lifted=M, do_polish=True)
            assert base.residual < recover(F, c, lifted=M).residual
            for s in (1e-6, 1.0, 1e6):
                got = recover(F, c * s * s, lifted=M, do_polish=True)
                err = np.linalg.norm(got.estimate.rep.entries - s * base.estimate.rep.entries)
                assert err <= 1e-9 * s * base.estimate.norm()
                assert got.polish == base.polish

    def test_no_lifted_map_rebuild(self, monkeypatch):
        F, M, rows = _sweep_rows(rows=2)
        calls = {"build": 0, "svd": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for mod in (frames_mod, recover_mod):
            monkeypatch.setattr(mod, "build_lifted_map", counting("build", build_lifted_map))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        for c in rows:
            assert recover(F, c, lifted=M, do_polish=True).polished
        assert calls == {"build": 0, "svd": 0}

    def test_residual_sweep_no_worse(self):
        F, M, rows = _sweep_rows()
        lower = 0
        for c in rows:
            r0 = recover(F, c, lifted=M).residual
            r1 = recover(F, c, lifted=M, do_polish=True).residual
            assert r1 <= r0
            lower += r1 < r0
        assert lower >= 14

    def test_cost_per_row(self):
        """Work, not time: mean residual-and-gradient evaluations per row on
        the sweep shape."""
        F, M, rows = _sweep_rows()
        evals = [recover(F, c, lifted=M, do_polish=True).polish.evaluations for c in rows]
        assert np.mean(evals) <= 400

    def test_cost_at_true_ray(self, monkeypatch):
        """A noiseless row started at its true ray is already a fit to
        roundoff: polish must stop quickly and not raise the residual."""
        F = _gauss(8, 128, Field.COMPLEX, seed=0)
        x = vec(random_vector(np.random.default_rng(3), 8, True), Field.COMPLEX)
        c = measure(F, x)
        start = ray(x)
        count = [0]
        inner = recover_mod._residual_and_grad

        def counted(*args):
            count[0] += 1
            return inner(*args)

        monkeypatch.setattr(recover_mod, "_residual_and_grad", counted)
        out = polish(F, c, start)
        assert count[0] <= 64
        r0 = float(np.linalg.norm(measure(F, start.rep).values - c.values))
        r1 = float(np.linalg.norm(measure(F, out.rep).values - c.values))
        assert r1 <= r0
