"""Self-tests of the benchmark: deterministic inputs, a verifier that catches
corrupted output, and a tracer that puts back everything it patched.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402

import raylift  # noqa: E402
from raylift import cli  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_MODULES, layer_tracer  # noqa: E402
from verify import verify  # noqa: E402
from workloads import WORKLOADS, make_inputs, output_paths  # noqa: E402

# small shapes of the real workloads, so each test runs in about a second
SMALL = {
    "recon": dataclasses.replace(WORKLOADS["recon-many"], n=4, m=20, rows=6),
    "polish": dataclasses.replace(WORKLOADS["recon-polish"], n=3, m=12, rows=4, files=2),
    "certify": dataclasses.replace(WORKLOADS["certify"], n=3, m=12),
}


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _one_pass(inp):
    results = []
    for argv in inp.argv:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        files = []
        for path in output_paths(argv):
            with open(path, "rb") as fh:
                files.append(fh.read())
        results.append((rc, tuple(files)))
    return results


def _with_row(data: bytes, i: int, edit) -> bytes:
    doc = json.loads(data)
    edit(doc["rows"][i])
    return json.dumps(doc).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    w = WORKLOADS[name]
    shape = dataclasses.replace(w, n=3, m=12, rows=min(w.rows, 4), files=min(w.files, 2))
    a = make_inputs(shape, 11, str(tmp_path / "a"))
    b = make_inputs(shape, 11, str(tmp_path / "b"))
    c = make_inputs(shape, 12, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    if shape.rows:
        np.testing.assert_array_equal(a.truth, b.truth)
        np.testing.assert_array_equal(a.noisy, b.noisy)
        # the program sees noisy rows only; the noise is 1% of each clean row
        noise = np.linalg.norm(a.noisy - a.clean, axis=1) / np.linalg.norm(a.clean, axis=1)
        np.testing.assert_allclose(noise, 0.01)
        assert not any("truth" in n or "clean" in n for n in _files(tmp_path / "a"))


def test_verifier_passes_untouched_output_and_reruns(tmp_path):
    inp = make_inputs(SMALL["recon"], 3, str(tmp_path))
    first, again = _one_pass(inp), _one_pass(inp)
    v = verify(inp, [first, again])
    assert (v.attempted, v.failed) == (2 * inp.shape.rows, 0), v.problems
    assert 0 < v.quality["rel_lift_err_p50"] < 1


def test_verifier_flags_corrupted_estimate(tmp_path):
    inp = make_inputs(SMALL["recon"], 3, str(tmp_path))
    (rc, (data,)), = _one_pass(inp)

    def scale(row):
        row["estimate"]["entries"] = [[2 * re, 2 * im] for re, im in row["estimate"]["entries"]]

    v = verify(inp, [[(rc, (_with_row(data, 2, scale),))]])
    assert v.failed == 1 and "row 2" in v.problems[0]


def test_verifier_flags_changed_output_byte(tmp_path):
    inp = make_inputs(SMALL["recon"], 3, str(tmp_path))
    first = _one_pass(inp)
    (rc, (data,)), = first
    pos = data.index(b'"residual": ') + len(b'"residual": ')
    digit = b"7" if data[pos:pos + 1] != b"7" else b"8"
    changed = data[:pos] + digit + data[pos + 1:]
    v = verify(inp, [first, [(rc, (changed,))]])
    assert v.failed == 1 and "differs" in v.problems[0]


def test_verifier_flags_polish_that_raises_residual(tmp_path):
    inp = make_inputs(SMALL["polish"], 5, str(tmp_path))
    references = [run.unpolished(cli, argv) for argv in inp.argv]
    first = _one_pass(inp)
    assert verify(inp, [first], references).failed == 0
    (rc, (data,)) = first[1]

    def worsen(row):
        row["residual"] = 1e6

    v = verify(inp, [[first[0], (rc, (_with_row(data, 1, worsen),))]], references)
    assert v.failed == 1 and "row 3" in v.problems[0]


def test_verifier_checks_certify_outputs(tmp_path):
    inp = make_inputs(SMALL["certify"], 7, str(tmp_path))
    first = _one_pass(inp)
    v = verify(inp, [first])
    assert (v.attempted, v.failed) == (len(inp.argv), 0), v.problems
    assert 0 < v.quality["a0"] <= v.quality["b0"] <= v.quality["b0_ceiling"]
    assert 0 < v.quality["b0_over_ceiling"] <= 1
    (rc_c, (check,)), probe = first[0], first[-1]
    doc = json.loads(check)
    doc["a0"] = 2 * doc["b0"]
    bad_check = (rc_c, (json.dumps(doc).encode(),))
    assert verify(inp, [[bad_check, *first[1:]]]).failed == 1
    assert verify(inp, [first, [*first[:-1], (5, probe[1])]]).failed == 1


def _bindings():
    modules = [sys.modules[f"raylift.{m}"] for m in LAYER_MODULES]
    # the package attribute raylift.recover is the function, not the module
    owners = [raylift, np.linalg, sys.modules["raylift.recover"].RecoveryReport, *modules]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_patched_name():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with layer_tracer() as tracer:
            assert cli.read_frame is not before[(id(cli), "read_frame")]
            assert np.linalg.eigh is not before[(id(np.linalg), "eigh")]
            raise RuntimeError("leave the block early")
    assert {k.split(".")[0] for k in tracer.stats} == {*LAYER_MODULES, "linalg"}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_layers(tmp_path):
    inp = make_inputs(SMALL["recon"], 3, str(tmp_path))
    with layer_tracer() as tracer:
        _one_pass(inp)
    rows = inp.shape.rows
    assert tracer.stats["recover.recover"].calls == rows
    assert tracer.stats["frames.min_norm_inverse"].calls == rows
    assert tracer.stats["recover.polish"].calls == 0
    assert tracer.stats["frames.build_lifted_map"].calls == 1
    assert tracer.observed["frames.build_lifted_map"] > 0
    top = tracer.stats["cli.main"]
    assert 0 < top.self_time < top.total


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in run.PER_LAYER.items()}
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recon-many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and '"metrics"' not in out.stdout


def test_traced_run_reports_every_layer_metric():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recon-many", "--seed", "2",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["recover.polish.s"] == 0 and m["recover.recover.calls"] == WORKLOADS["recon-many"].rows
    assert m["linalg.eig_calls_per_row"] > 0 and m["frames.lifted_map_mb"] > 0
