import json
import math

import numpy as np
import pytest
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

from raylift.cli import main as cli_main
from raylift.frames import _triu_pairs, dumps_json

from oracles import dumps_json_stdlib, random_hermitian, random_vector


def _gauss(dim, count, field, seed=0):
    return gen_frame("random_gaussian", dim, count, field, seed=seed)


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
                np.vdot(f, T.entries @ f).real for f in F.synthesis
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
        ([1.0, "2", 3.0], r"\.values\[0\]\[1\]: expected number, got '2'$"),
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

    @pytest.mark.parametrize("key", ["dim", "count"])
    def test_bool_dim_or_count_rejected(self, tmp_path, key):
        p = tmp_path / "f.json"
        doc = {"field": "real", "dim": 1, "count": 1, "vectors": [[1.0]], "label": ""}
        doc[key] = True
        p.write_text(json.dumps(doc))
        with pytest.raises(FrameFileError, match=r"f\.json: dim and count must be integers$"):
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


class TestTriuPairs:
    def test_cached_read_only_and_equal(self):
        for n in (1, 2, 5):
            iu, ju = _triu_pairs(n)
            want_i, want_j = np.triu_indices(n, 1)
            assert np.array_equal(iu, want_i) and np.array_equal(ju, want_j)
            assert not iu.flags.writeable and not ju.flags.writeable
            assert _triu_pairs(n)[0] is iu


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
_json_docs = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestDumpsJson:
    @given(_json_docs)
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib_oracle(self, doc):
        assert dumps_json(doc) == dumps_json_stdlib(doc)

    def test_matches_oracle_on_edge_values(self):
        doc = {"s": "\u00e9\x00\n\"\\\u2028\U0001f600", "big": [2**64, -(2**70)],
               "f": [-0.0, 5e-324, 1e308, 1.5, np.float64(0.1)], "i": np.int64(-7),
               "b": [True, np.bool_(False)], "n": None, "t": (1, (2.5, "x")), "e": [[], {}],
               "a": np.arange(6.0).reshape(1, 2, 3), "z": np.zeros((2, 0)),
               "ai": np.arange(4).reshape(2, 2), "c": Field.COMPLEX, "\u00fc": np.float32(0.1)}
        assert dumps_json(doc) == dumps_json_stdlib(doc)
        for scalar in (1.5, "x", None, True, np.zeros(3), np.zeros(0)):
            assert dumps_json(scalar) == dumps_json_stdlib(scalar)

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"),
        np.array([1.0, math.nan]), np.array([[0.0, 1.0], [-math.inf, 2.0]]),
        [1.0, [2.0, math.inf]], {"a": np.array([[[0.0, math.nan]]])},
    ])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite value"):
            dumps_json(bad)

    @pytest.mark.parametrize("bad", [object(), 1j, np.array([1j]), {1: 2.0}, {"a": {3}}])
    def test_unsupported_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            dumps_json(bad)

    def test_bools_stay_bools(self):
        doc = json.loads(dumps_json({"a": True, "b": np.bool_(False), "c": [1, np.int64(2)]}))
        assert doc["a"] is True and doc["b"] is False
        assert doc["c"] == [1, 2] and all(type(v) is int for v in doc["c"])
        assert '"a": true' in dumps_json({"a": True})
