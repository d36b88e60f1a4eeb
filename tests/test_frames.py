import json
import math

import numpy as np
import pytest

from raylift import (
    Field,
    Frame,
    FrameFileError,
    Measurement,
    SymOp,
    Vector,
    amplitudes,
    build_lifted_map,
    gen_frame,
    measure,
    min_norm_inverse,
    read_frame,
    read_measurements,
    sym_outer,
    vec,
    write_frame,
    write_measurements,
)

from raylift.frames import dumps_json

from oracles import random_hermitian, random_vector


def _gauss(dim, count, field, seed=0):
    return gen_frame("random_gaussian", dim, count, field, seed=seed)


class TestFrameType:
    def test_count_below_dim_rejected(self):
        vs = (vec([1.0, 0.0]),)
        with pytest.raises(ValueError):
            Frame(vs, Field.REAL)

    def test_non_spanning_rejected(self):
        vs = (vec([1.0, 0.0]), vec([2.0, 0.0]))
        with pytest.raises(ValueError):
            Frame(vs, Field.REAL)

    def test_field_mismatch_rejected(self):
        vs = (vec([1.0, 0.0]), vec(np.array([0.0 + 0j, 1.0])))
        with pytest.raises(ValueError):
            Frame(vs, Field.REAL)


class TestMeasure:
    def test_standard_basis(self):
        F = gen_frame("named", 2, 2, name="r2_onb")
        assert np.array_equal(measure(F, vec([3.0, 1.0])).values, [9.0, 1.0])

    def test_zero_vector(self):
        F = gen_frame("named", 2, 2, name="r2_onb")
        assert np.array_equal(measure(F, vec([0.0, 0.0])).values, [0.0, 0.0])

    def test_amplitudes_sqrt(self, rng, field):
        F = _gauss(3, 7, field, seed=4)
        x = vec(random_vector(rng, 3, field is Field.COMPLEX), field)
        a = amplitudes(F, x).values
        m = measure(F, x).values
        assert np.max(np.abs(a - np.sqrt(m))) <= 1e-12 * max(1.0, np.max(a))
        assert np.array_equal(amplitudes(F, vec(np.zeros(3), field)).values, np.zeros(7))

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
        M = build_lifted_map(F)
        for _ in range(50):
            x = vec(random_vector(rng, 3, field is Field.COMPLEX), field)
            lhs = measure(F, x).values
            rhs = M.apply(sym_outer(x, x))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))


class TestLiftedMap:
    def test_basis_inner_products(self, rng, field):
        F = _gauss(4, 10, field, seed=7)
        M = build_lifted_map(F)
        for _ in range(100):
            T = SymOp(random_hermitian(rng, 4, field is Field.COMPLEX), field)
            got = M.apply(T)
            want = np.array([
                np.vdot(f.entries, T.entries @ f.entries).real for f in F.vectors
            ])
            assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_diagonal_observation(self):
        F = gen_frame("named", 2, 2, name="r2_onb")
        M = build_lifted_map(F)
        T = SymOp(np.array([[1.5, 0.7], [0.7, -0.25]]), Field.REAL)
        assert np.allclose(M.apply(T), [1.5, -0.25], atol=1e-14)
        assert M.rank == 2 and M.cols == 3 and not M.is_full_rank()

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
        assert M.is_full_rank()
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


class TestDumpsJson:
    def test_bools_stay_bools(self):
        doc = json.loads(dumps_json({"a": True, "b": np.bool_(False), "c": [1, np.int64(2)]}))
        assert doc["a"] is True and doc["b"] is False
        assert doc["c"] == [1, 2] and all(type(v) is int for v in doc["c"])
        assert '"a": true' in dumps_json({"a": True})
