import dataclasses
import importlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from raylift import (
    Field,
    Frame,
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
from raylift.frames import dumps_json

from oracles import dumps_json_stdlib, random_vector

# the package re-exports the function recover, which shadows its module
frames_mod = importlib.import_module("raylift.frames")
recover_mod = importlib.import_module("raylift.recover")

SQ2 = math.sqrt(2)


def _recover_polished(F, c, lifted=None):
    """``recover``'s report with its estimate polished, as ``reconstruct
    --polish on`` writes a row."""
    rep = recover(F, c, lifted=lifted)
    c = c.values if isinstance(c, Measurement) else np.asarray(c)
    est, res, stats = polish(F, c[None], [rep.estimate])[0]
    return replace(rep, estimate=est, residual=res, polish=stats)


def _gauss(dim, count, field, seed=0):
    return gen_frame("random_gaussian", dim, count, field, seed=seed)


def _pr_frame_r2():
    """The 2d phase-retrievable fixture padded with generic vectors so the
    lifted map reaches full column rank with margin."""
    base = gen_frame("named", 2, 3, name="r2_pr3")
    extra = _gauss(2, 3, Field.REAL, seed=21)
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
        assert M.rank == M.cols
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
        # the entries stay a float array, written as [re, im] pairs
        written = json.loads(dumps_json(doc))
        assert written["estimate"]["entries"] == doc["estimate"]["entries"].tolist()
        assert isinstance(written["estimate"]["entries"][0], list)

    def test_polished_dict_reports_descent(self):
        F = _gauss(2, 6, Field.COMPLEX, seed=5)
        c = measure(F, vec(np.array([1.0 + 1j, 2.0]), Field.COMPLEX)).values + 1e-3
        doc = _recover_polished(F, c).to_dict()
        assert set(doc) == {"estimate", "residual", "pipeline_stage_norms", "polished", "polish"}
        assert set(doc["polish"]) == {"iterations", "evaluations", "stop"}
        assert doc["polish"]["stop"] in {"rel_decrease", "stationary", "line_search", "max_iters"}
        assert doc["polish"]["evaluations"] > doc["polish"]["iterations"] >= 1

    def test_polished_follows_polish_record(self):
        """``polished`` is read from the polish record, so no report can say
        it was polished without saying how the polish ended."""
        F = _gauss(2, 6, Field.COMPLEX, seed=5)
        rep = recover(F, measure(F, vec(np.array([1.0 + 1j, 2.0]), Field.COMPLEX)))
        with pytest.raises(TypeError):
            recover_mod.RecoveryReport(rep.estimate, rep.residual, rep.pipeline_stage_norms,
                                       polished=True)
        stats = recover_mod.PolishStats(iterations=0, evaluations=1, stop="stationary")
        assert not rep.polished and "polish" not in rep.to_dict()
        assert replace(rep, polish=stats).to_dict()["polished"] is True

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

    @pytest.mark.parametrize("other", ["complex-seed2", "real-seed2"])
    def test_lifted_map_of_another_frame_refused(self, other):
        """A map built from another frame of the same count once inverted c
        against the wrong vectors without a word (residual 3.4 against
        3.6e-14 with the frame's own map here)."""
        F = _gauss(3, 12, Field.COMPLEX, seed=1)
        field = Field.COMPLEX if other.startswith("complex") else Field.REAL
        M = build_lifted_map(_gauss(3, 12, field, seed=2))
        c = measure(F, vec(np.array([1.0, 2.0 - 1j, 0.5j])))
        with pytest.raises(ValueError, match="^lifted map was built from another frame"):
            recover(F, c, lifted=M)

    def test_lifted_map_of_an_equal_frame_accepted(self):
        """The check reads the field and the vectors: the map of another
        Frame with the same vectors and another label serves, with the same
        bits."""
        F = _gauss(3, 12, Field.COMPLEX, seed=1)
        twin = Frame(F.synthesis.copy(), Field.COMPLEX, label="twin")
        c = measure(F, vec(np.array([1.0, 2.0 - 1j, 0.5j])))
        got = recover(F, c, lifted=build_lifted_map(twin))
        assert got.estimate.rep.entries.tobytes() == recover(F, c).estimate.rep.entries.tobytes()

    def test_one_eigh_per_row(self, eig_calls, field):
        F = _gauss(4, 20, field, seed=15)
        M = build_lifted_map(F)
        c = measure(F, vec(np.arange(1.0, 5.0) * (1 + 1j if field is Field.COMPLEX else 1), field))
        eig_calls.clear()
        recover(F, c, lifted=M)
        assert eig_calls == {"eigh": 1}

    def test_matches_staged_pipeline(self, rng, eig_calls, field):
        """The three public stages, invert, retract and un-lift, give the
        estimate bit for bit from the retraction's one ``eigh``, as
        ``recover`` does: the un-lift reads the generator the retraction
        found."""
        cplx = field is Field.COMPLEX
        for n, m in ((3, 12), (4, 40), (8, 72)):
            F = _gauss(n, m, field, seed=16)
            M = build_lifted_map(F)
            for _ in range(10):
                c = measure(F, vec(random_vector(rng, n, cplx), field)).values
                c = c + 0.01 * np.linalg.norm(c) * rng.standard_normal(m) / math.sqrt(m)
                got = recover(F, c, lifted=M).estimate.rep.entries
                eig_calls.clear()
                want = unlift(rank_one_retract(min_norm_inverse(M, c))).rep.entries
                assert eig_calls == {"eigh": 1}
                assert np.array_equal(got, want)


# every measurement argument passes one rule, that of ``Measurement``
_MEASUREMENT_TAKERS = {
    "Measurement": lambda F, c: Measurement(c),
    "recover": lambda F, c: recover(F, c),
    "min_norm_inverse": lambda F, c: min_norm_inverse(build_lifted_map(F), c),
    "polish": lambda F, c: polish(F, c[None], [ray(vec(np.ones(F.dim)))])[0][0],
}


def _distinct_reports(F, polished):
    """Reports of F on a zero row, a noiseless row and two noisy ones; when
    ``polished``, polished as ``reconstruct --polish on`` does, plus two
    copies that end by the stop rules a polish of these rows does not
    reach."""
    rng = np.random.default_rng(F.dim)
    field = F.field
    C = [np.zeros(F.count)]
    for noise in (0.0, 0.01, 0.05):
        c = measure(F, vec(random_vector(rng, F.dim, field is Field.COMPLEX), field)).values
        C.append(c * (1 + noise * rng.standard_normal(F.count)))
    reps = [recover(F, c) for c in C]
    if not polished:
        return reps
    reps = [replace(rep, estimate=est, residual=res, polish=stats) for rep, (est, res, stats)
            in zip(reps, polish(F, np.array(C), [r.estimate for r in reps]))]
    stats = recover_mod.PolishStats
    return reps + [replace(reps[2], polish=stats(200, 431, "max_iters")),
                   replace(reps[3], polish=stats(7, 41, "line_search"))]


class TestReportRows:
    """``reconstruct`` writes its rows through one stack,
    ``recover._report_rows``, filled a block of rows at a time: its bytes
    are those of the per-row ``to_dict`` documents."""

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("polished", [False, True])
    def test_stack_writes_to_dict_bytes(self, field, n, polished):
        F = _gauss(n, n * n + n, field, seed=n)
        distinct = _distinct_reports(F, polished)
        assert not distinct[0].estimate.rep.entries.any()  # the zero row
        if polished:
            assert {r.polish.stop for r in distinct} == set(recover_mod._STOPS)
        # slots per row: the entries, the residual and the two stage norms,
        # then the polish record's three
        per = n * (2 if field is Field.COMPLEX else 1) + 3 + (3 if polished else 0)
        block = frames_mod._TEMPLATE_CAP // per
        for k in (1, block - 1, block, block + 1, 2 * block + 3):
            reports = [distinct[i % len(distinct)] for i in range(k)]
            stack = recover_mod._report_rows(reports)
            assert stack.values().shape == (k, per)
            for level in (0, 1):
                doc, want = stack, [r.to_dict() for r in reports]
                for _ in range(level):
                    doc, want = {"rows": doc, "k": k}, {"rows": want, "k": k}
                text = dumps_json(want)
                assert dumps_json(doc) == text
                assert text == dumps_json_stdlib(want)

    def test_non_finite_value_names_its_row(self):
        """A stage norm that overflowed: the stack refuses it with the error
        ``dumps_json`` gives the row's dict, and names the row."""
        F = _gauss(3, 12, Field.COMPLEX, seed=1)
        reps = _distinct_reports(F, False)
        bad = replace(reps[1], pipeline_stage_norms={"pseudoinverse_fro": math.inf,
                                                     "retraction_fro": 1.0})
        with pytest.raises(ValueError) as want:
            dumps_json(bad.to_dict())
        with pytest.raises(frames_mod._RowError) as got:
            recover_mod._report_rows(reps + [bad, bad])
        assert got.value.row == len(reps)
        assert str(got.value) == str(want.value) == "non-finite value inf cannot be serialized"

    def test_polish_record_is_its_three_fields(self):
        """``to_dict`` writes the polish record from its three fields, as
        ``dataclasses.asdict`` would, without its recursive copy."""
        F = _gauss(3, 12, Field.REAL, seed=1)
        for rep in _distinct_reports(F, True):
            assert rep.to_dict()["polish"] == dataclasses.asdict(rep.polish)


class TestMeasurementArgument:
    @pytest.mark.parametrize("bad,message", [
        (1j, "measurement tagged real but has nonzero imaginary part"),
        (math.nan, "measurement has non-finite entries"),
    ], ids=["complex", "nan"])
    @pytest.mark.parametrize("taker", sorted(_MEASUREMENT_TAKERS))
    def test_bad_entry_refused(self, taker, bad, message):
        """A complex c was cast to its real part, and polish returned its
        start for a c with a NaN."""
        F = _gauss(3, 12, Field.REAL, seed=1)
        c = measure(F, vec([1.0, 2.0, 3.0])).values + np.where(np.arange(12) == 2, bad, 0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            _MEASUREMENT_TAKERS[taker](F, c)

    @pytest.mark.parametrize("taker", ["recover", "min_norm_inverse", "polish"])
    def test_count_message(self, taker):
        F = _gauss(3, 12, Field.REAL, seed=1)
        with pytest.raises(ValueError,
                           match=r"^measurement count 11 does not match frame count 12$"):
            _MEASUREMENT_TAKERS[taker](F, np.ones(11))


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

    @pytest.mark.parametrize("other", ["complex-seed2", "real-seed2"])
    def test_lifted_map_of_another_frame_refused(self, other):
        """The bound once read sigma_min from another frame's map: 11.07
        from the complex seed-2 map against 15.03 from the frame's own."""
        F = _gauss(3, 12, Field.COMPLEX, seed=1)
        field = Field.COMPLEX if other.startswith("complex") else Field.REAL
        M = build_lifted_map(_gauss(3, 12, field, seed=2))
        with pytest.raises(ValueError, match="^lifted map was built from another frame"):
            recovery_lip_bound(F, 2, 2, lifted=M)
        assert recovery_lip_bound(F, 2, 2).pipeline == pytest.approx(15.027, abs=1e-3)

    def test_q_above_two_uses_q_constant(self):
        F = _gauss(2, 6, Field.REAL, seed=9)
        lb = recovery_lip_bound(F, 2, 4)
        assert lb.retraction_factor == pytest.approx(3 + 2 ** 1.25, abs=1e-12)
        assert lb.metric_factor == 1.0

    def test_out_of_range_rejected(self):
        F = _gauss(2, 6, Field.REAL, seed=9)
        with pytest.raises(ValueError):
            recovery_lip_bound(F, 0.5, 1)
        # a0 must be finite: nan once gave theory = nan and inf gave 0.0
        for a0 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^a0 must be positive and finite"):
                recovery_lip_bound(F, 2, 1, a0=a0)

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
        out = polish(F, c.values[None], [ray(x)])[0][0]
        assert np.allclose(out.rep.entries, ray(x).rep.entries, atol=1e-14)

    def test_never_worsens_residual(self, rng, field):
        F = _gauss(3, 12, field, seed=11)
        for _ in range(10):
            x = vec(random_vector(rng, 3, field is Field.COMPLEX), field)
            c = measure(F, x)
            start = ray(vec(random_vector(rng, 3, field is Field.COMPLEX), field))
            r0 = float(np.linalg.norm(measure(F, start.rep).values - c.values))
            out = polish(F, c.values[None], [start])[0][0]
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
            out = polish(F, c.values[None], [rep.estimate])[0][0]
            if float(np.linalg.norm(measure(F, out.rep).values - c.values)) <= 1e-10:
                hit += 1
        assert hit >= 8

    @pytest.mark.parametrize("start, err", [
        (vec([1.0, 0.0, 0.0]), "field mismatch: complex vs real"),
        (vec(np.array([1.0, 1j])), "dimension mismatch: 3 vs 2"),
    ], ids=["field", "dimension"])
    def test_start_of_other_space_rejected(self, start, err):
        F = _gauss(3, 12, Field.COMPLEX, seed=15)
        with pytest.raises(ValueError, match=err):
            polish(F, np.ones((1, 12)), [ray(start)])

    def test_one_start_per_row(self):
        F = _gauss(3, 12, Field.REAL, seed=15)
        with pytest.raises(ValueError, match="^polish needs one start per row: 1 starts, 2 rows$"):
            polish(F, np.ones((2, 12)), [ray(vec([1.0, 0.0, 0.0]))])

    def test_recover_with_polish_flag(self, rng):
        F = _gauss(2, 6, Field.REAL, seed=14)
        x = vec(random_vector(rng, 2, False))
        rep = _recover_polished(F, measure(F, x))
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
        step and the stopping rules carry no absolute scale. At s = 1e+-6 the
        scaled row rounds differently, which can move the last iteration's
        stop, so only the estimates are compared here; the search record is
        compared at power-of-two scales below."""
        F, M, rows = _sweep_rows(rows=2, noise=0.05, seed=1)
        for c in rows:
            base = _recover_polished(F, c, lifted=M)
            assert base.residual < recover(F, c, lifted=M).residual
            for s in (1e-6, 1.0, 1e6):
                got = _recover_polished(F, c * s * s, lifted=M)
                err = np.linalg.norm(got.estimate.rep.entries - s * base.estimate.rep.entries)
                assert err <= 1e-9 * s * base.estimate.norm()

    def test_power_of_two_scale_is_exact(self, field):
        """At s = 2^+-20, x -> s x with c -> s^2 c scales every operation of
        the inversion and the polish exactly, so over a sweep of noisy rows
        the polished estimate is s times the unscaled one to the bit and the
        search ends with the same PolishStats."""
        searched = 0
        for n, m in ((2, 4), (3, 12), (4, 24), (8, 72)):
            for seed in (0, 1):
                F = _gauss(n, m, field, seed=seed)
                M = build_lifted_map(F)
                rng = np.random.default_rng(seed)
                for _ in range(4):
                    x = vec(random_vector(rng, n, field is Field.COMPLEX), field)
                    c = measure(F, x).values
                    e = rng.standard_normal(m)
                    c = c + e * (0.05 * np.linalg.norm(c) / np.linalg.norm(e))
                    base = _recover_polished(F, c, lifted=M)
                    searched += base.polish.iterations >= 1
                    for s in (2.0 ** -20, 2.0 ** 20):
                        got = _recover_polished(F, c * s * s, lifted=M)
                        assert np.array_equal(got.estimate.rep.entries,
                                              s * base.estimate.rep.entries)
                        assert got.polish == base.polish
        assert searched >= 24

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
            assert _recover_polished(F, c, lifted=M).polished
        assert calls == {"build": 0, "svd": 0}

    def test_residual_sweep_no_worse(self):
        F, M, rows = _sweep_rows()
        lower = 0
        for c in rows:
            r0 = recover(F, c, lifted=M).residual
            r1 = _recover_polished(F, c, lifted=M).residual
            assert r1 <= r0
            lower += r1 < r0
        assert lower >= 14

    def test_cost_per_row(self):
        """Work, not time: mean residual evaluations per row on the sweep
        shape (6.0 measured: the start, four trial steps, all accepted, and
        the check of the result)."""
        F, M, rows = _sweep_rows()
        evals = [_recover_polished(F, c, lifted=M).polish.evaluations for c in rows]
        assert np.mean(evals) <= 7

    def test_evaluations_are_counted(self, monkeypatch):
        """``PolishStats.evaluations`` is the number of rows the stacked
        evaluator ``_fit_rows`` sees for a row: the start once, each trial
        step and the check of the result. Counted for each row polished
        alone, and summed over the rows polished as one stack."""
        F, M, rows = _sweep_rows(rows=4)
        C = np.array(rows)
        starts = [recover(F, c, lifted=M).estimate for c in rows]
        count = [0]
        inner = recover_mod._fit_rows

        def counted(F, C, X, *rest):
            count[0] += X.shape[0]
            return inner(F, C, X, *rest)

        monkeypatch.setattr(recover_mod, "_fit_rows", counted)
        total = 0
        for c, start in zip(C, starts):
            count[0] = 0
            est, _, stats = polish(F, c[None], [start])[0]
            assert est is not start
            assert stats.evaluations == count[0] > stats.iterations >= 1
            total += stats.evaluations
        count[0] = 0
        stacked = polish(F, C, starts)
        assert count[0] == sum(stats.evaluations for _, _, stats in stacked) == total

    def test_frame_scale_covariance(self, field):
        """F -> t F with c -> t^2 c leaves the polish unchanged: the
        Gauss-Newton metric and h / h0 carry no scale of the frame. A power
        of two scales every operation exactly, so the estimate keeps its
        bits and the search its record; other scales round differently,
        which can move the last iteration's stop (by up to 2.8e-9 relative
        in the estimate over 336 rows of both fields, n/m 2/4 to 8/128)."""
        F = _gauss(4, 24, field, seed=5)
        rng = np.random.default_rng(5)
        for _ in range(3):
            c = measure(F, vec(random_vector(rng, 4, field is Field.COMPLEX), field)).values
            c = c * (1 + 0.05 * rng.standard_normal(c.shape))
            base = _recover_polished(F, c)
            assert base.polish.iterations >= 1
            for t in (2.0 ** -20, 2.0 ** 20, 1e-3, 1e3):
                got = _recover_polished(Frame(t * F.synthesis, field), t * t * c)
                err = np.linalg.norm(got.estimate.rep.entries - base.estimate.rep.entries)
                if math.log2(t).is_integer():
                    assert err == 0 and got.polish == base.polish
                else:
                    assert err <= 1e-8 * base.estimate.norm()

    def test_zero_start(self, field):
        """A zero start has a zero gradient (J = 0), so the polish ends at
        once, without a step and without a warning."""
        F = _gauss(3, 12, field, seed=6)
        x = vec(random_vector(np.random.default_rng(6), 3, field is Field.COMPLEX), field)
        c = measure(F, x)
        start = ray(vec(np.zeros(3, field.dtype), field))
        est, _, stats = polish(F, c.values[None], [start])[0]
        assert not est.rep.entries.any()
        assert (stats.iterations, stats.stop) == (0, "stationary")

    def test_cost_at_true_ray(self, monkeypatch):
        """A noiseless row started at its true ray is already a fit to
        roundoff: polish keeps the start after its one evaluation."""
        F = _gauss(8, 128, Field.COMPLEX, seed=0)
        x = vec(random_vector(np.random.default_rng(3), 8, True), Field.COMPLEX)
        c = measure(F, x)
        start = ray(x)
        count = [0]
        inner = recover_mod._fit_rows

        def counted(F, C, X, *rest):
            count[0] += X.shape[0]
            return inner(F, C, X, *rest)

        monkeypatch.setattr(recover_mod, "_fit_rows", counted)
        out = polish(F, c.values[None], [start])[0][0]
        assert count[0] == 1
        assert out is start
        r0 = float(np.linalg.norm(measure(F, start.rep).values - c.values))
        r1 = float(np.linalg.norm(measure(F, out.rep).values - c.values))
        assert r1 <= r0

    @pytest.mark.parametrize("field, n, m", [
        (Field.COMPLEX, 8, 40), (Field.REAL, 8, 24), (Field.COMPLEX, 16, 80)],
        ids=["complex-8-40", "real-8-24", "complex-16-80"])
    def test_noiseless_rows_below_lifted_rank_reach_roundoff(self, field, n, m):
        """On frames with fewer measurements than lifted columns the
        min-norm start is wrong, yet alpha is injective there; polished as
        one stack from that start, noiseless rows reach a relative lift
        error of at most 1e-10 (a halving step never ends the search, so it
        runs to the fit floor instead of stopping at ~1e-13 h0)."""
        F = _gauss(n, m, field, seed=1)
        M = build_lifted_map(F)
        assert M.rank < M.cols
        rng = np.random.default_rng(5)
        X = [vec(random_vector(rng, n, field is Field.COMPLEX), field) for _ in range(40)]
        C = np.array([measure(F, x).values for x in X])
        starts = [recover(F, c, lifted=M).estimate for c in C]
        out = polish(F, C, starts)
        errs = [lift_dist(est, ray(x), 2) / x.norm() ** 2 for (est, _, _), x in zip(out, X)]
        assert sum(e <= 1e-10 for e in errs) >= 39

    def test_stack_rows_are_independent(self, monkeypatch, field):
        """Polishing rows as one stack gives each row what polishing it
        alone gives: an exact-fit row, a zero start, a zero row, noisy rows
        and a noisy row started a hundred times too short, whose first
        steps are rejected, over more than one block."""
        n, m = 4, 24
        F = _gauss(n, m, field, seed=8)
        M = build_lifted_map(F)
        rng = np.random.default_rng(8)
        x = vec(random_vector(rng, n, field is Field.COMPLEX), field)
        C = [measure(F, x).values, measure(F, x).values, np.zeros(m)]
        starts = [ray(x), ray(vec(np.zeros(n, field.dtype), field))]
        for _ in range(9):
            c = measure(F, vec(random_vector(rng, n, field is Field.COMPLEX), field)).values
            C.append(c * (1 + 0.05 * rng.standard_normal(m)))
        starts += [recover(F, c, lifted=M).estimate for c in C[2:-1]]
        starts.append(ray(vec(0.01 * random_vector(rng, n, field is Field.COMPLEX), field)))
        C = np.array(C)
        # 3 rows per block: the 12 rows take four blocks
        monkeypatch.setattr(recover_mod, "_STACK_ENTRIES", 3 * F.synthesis.size)
        stacked = polish(F, C, starts)
        stops = set()
        for c, start, (est, res, stats) in zip(C, starts, stacked):
            alone, res1, stats1 = polish(F, c[None], [start])[0]
            err = np.linalg.norm(est.rep.entries - alone.rep.entries)
            assert err <= 1e-12 * alone.norm()
            assert abs(res - res1) <= 1e-12 * max(res1, 1e-300) and stats == stats1
            stops.add(stats.stop)
        assert stacked[0][0] is starts[0] and stacked[0][2].iterations == 0
        assert not stacked[1][0].rep.entries.any() and not stacked[2][0].rep.entries.any()
        assert {"stationary", "rel_decrease"} <= stops
        # the start, the check and one trial per accepted step: the rest were rejected
        last = stacked[-1][2]
        assert last.evaluations > last.iterations + 2

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_normal_eqs_bits_do_not_depend_on_the_jacobian_block(self, field, rows):
        """H, g and mu from J / 2 formed ``rows`` rows at a time in the
        buffer have the bits of the products of the whole (5, m, d) stack."""
        F = _gauss(4, 24, field, seed=5)
        rng = np.random.default_rng(5)
        X = np.array([random_vector(rng, 4, field is Field.COMPLEX) for _ in range(5)])
        B = frames_mod._conj_coeffs(F, X)
        R = np.abs(B) ** 2 - rng.standard_normal((5, 24)) ** 2
        J = frames_mod._coeff_rows(F, B)
        Jt = J.transpose(0, 2, 1)
        H, g = 4.0 * (Jt @ J), 2.0 * (Jt @ R[:, :, None])[:, :, 0]
        mu = np.trace(H, axis1=1, axis2=2) / H.shape[-1]
        frames_mod._phase_fill(H, X, mu)
        buf = np.empty((rows, 24, 4), field.dtype)
        got = recover_mod._normal_eqs(F, X, B, R, buf)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, (H, g, mu)))

    def test_reconstruct_polishes_rows_as_recover_does(self, tmp_path):
        """``reconstruct --polish on`` polishes its rows as one stack; each
        row reports what polishing ``recover``'s estimate of it alone reports."""
        F, M, rows = _sweep_rows(rows=10, noise=0.05, seed=2)
        write_frame(str(tmp_path / "f.json"), F)
        write_measurements(str(tmp_path / "c.json"), [Measurement(c) for c in rows])
        out = tmp_path / "out.json"
        assert cli_main(["reconstruct", "--frame", str(tmp_path / "f.json"), "--measurements",
                         str(tmp_path / "c.json"), "--polish", "on", "--out", str(out)]) == 0
        got = json.loads(out.read_text())["rows"]
        for c, row in zip(rows, got):
            want = json.loads(dumps_json(_recover_polished(F, c, lifted=M).to_dict()))
            assert row == want

    def test_jacobian_formed_once_per_accepted_step(self, monkeypatch):
        """Work at n=32 C, m=2048: J and H are formed once at the start and
        once per accepted step that the search continues from, never for a
        rejected step, which only raises the damping and refactors. A random
        start a hundred times too short makes the first trial steps fail."""
        n, m = 32, 2048
        F = _gauss(n, m, Field.COMPLEX, seed=3)
        rng = np.random.default_rng(3)
        X = [random_vector(rng, n, True) for _ in range(4)]
        C = np.array([measure(F, vec(x, Field.COMPLEX)).values for x in X])
        C = C * (1 + 0.01 * rng.standard_normal(C.shape))
        starts = [ray(vec(x + 0.05 * random_vector(rng, n, True), Field.COMPLEX)) for x in X[:3]]
        starts.append(ray(vec(0.01 * random_vector(rng, n, True), Field.COMPLEX)))
        formed = [0]
        inner = recover_mod._normal_eqs

        def counted(F, X, *rest):
            formed[0] += X.shape[0]
            return inner(F, X, *rest)

        monkeypatch.setattr(recover_mod, "_normal_eqs", counted)
        rejected = 0
        for c, start in zip(C, starts):
            formed[0] = 0
            _, _, stats = polish(F, c[None], [start])[0]
            assert 1 <= formed[0] <= stats.iterations + 1
            # the start, the check and one trial per step: the rest were rejected
            rejected += stats.evaluations - stats.iterations - 2
        assert rejected >= 1
        formed[0] = 0
        stacked = polish(F, C, starts)
        assert formed[0] <= sum(stats.iterations + 1 for _, _, stats in stacked)

    @pytest.mark.parametrize("s", [1.0, 1e-60, 1e60])
    def test_exact_fit_kept_at_any_scale(self, field, s):
        """A noiseless row whose start is its true ray is kept without a
        search: 0 iterations, 1 evaluation, ``stationary``, at every scale
        of x (c scales by s^2)."""
        F = _gauss(3, 12, field, seed=4)
        x = vec(s * random_vector(np.random.default_rng(4), 3, field is Field.COMPLEX), field)
        start = ray(x)
        est, _, stats = polish(F, measure(F, x).values[None], [start])[0]
        assert est is start
        assert (stats.iterations, stats.evaluations, stats.stop) == (0, 1, "stationary")
