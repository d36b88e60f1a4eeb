import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from raylift import Field, gen_frame, measure, read_frame, vec, write_frame, write_measurements
from raylift import cli as cli_mod
from raylift.cli import main as cli_main
from raylift.frames import dumps_json, frame_to_dict

from oracles import random_vector

# one small run of every subcommand; {d} is the working directory
_COMMANDS = {
    "gen": ["gen", "--dim", "3", "--count", "9", "--field", "complex", "--seed", "4",
            "--out", "{d}/g.json"],
    "check": ["check", "--frame", "{d}/f.json", "--starts", "8", "--seed", "1",
              "--report", "{d}/out.json"],
    "reconstruct-polish-off": ["reconstruct", "--frame", "{d}/f.json", "--measurements",
                               "{d}/c.json", "--polish", "off", "--out", "{d}/out.json"],
    "reconstruct-polish-on": ["reconstruct", "--frame", "{d}/f.json", "--measurements",
                              "{d}/c.json", "--polish", "on", "--out", "{d}/out.json"],
    "probe-pi": ["probe", "--what", "pi", "--p", "2", "--dims", "2,3", "--samples", "50",
                 "--seed", "3", "--report", "{d}/out.json"],
    "probe-omega": ["probe", "--what", "omega", "--dims", "2", "--samples", "3",
                    "--seed", "3", "--report", "{d}/out.json"],
    "probe-bilipschitz": ["probe", "--what", "bilipschitz", "--dims", "2", "--samples", "100",
                          "--seed", "3", "--report", "{d}/out.json"],
    "probe-property-k": ["probe", "--what", "property-k", "--report", "{d}/out.json"],
}


def _inputs(d):
    F = gen_frame("random_gaussian", 3, 12, Field.COMPLEX, seed=7)
    write_frame(d / "f.json", F)
    rng = np.random.default_rng(7)
    rows = [measure(F, vec(random_vector(rng, 3, True), Field.COMPLEX)) for _ in range(3)]
    write_measurements(d / "c.json", rows)


def _outputs(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


class TestRerun:
    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_rerun_is_byte_identical(self, tmp_path, capsys, name):
        """Every subcommand, run twice on the same inputs, writes the same
        bytes, prints the same lines and exits the same way."""
        _inputs(tmp_path)
        argv = [a.format(d=tmp_path) for a in _COMMANDS[name]]
        runs = []
        for _ in range(2):
            code = cli_main(argv)
            runs.append((code, capsys.readouterr(), _outputs(tmp_path)))
        assert runs[0][0] == 0
        assert len(runs[0][2]) > 2  # something beyond the two inputs was written
        assert runs[0] == runs[1]


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli_mod._parser() is cli_mod._parser()
        assert cli_mod.build_parser() is not cli_mod.build_parser()

    def test_reused_parser_matches_fresh_parser(self, tmp_path, capsys, monkeypatch):
        """Commands run one after another through the one parser, with
        usage errors between good ones and a flag given once and then left
        at its default, exit, print and write as with a fresh parser per
        call."""
        _inputs(tmp_path)
        reconstruct = ["reconstruct", "--frame", "{d}/f.json", "--measurements", "{d}/c.json",
                       "--out", "{d}/out.json"]
        argvs = [
            reconstruct + ["--polish", "on"],
            ["reconstruct", "--frame", "{d}/f.json", "--polish", "maybe", "--out", "{d}/x.json"],
            reconstruct,
            _COMMANDS["probe-pi"],
            ["check", "--frame", "{d}/f.json", "--starts", "0", "--report", "{d}/out.json"],
            ["frobnicate"],
            _COMMANDS["gen"],
            _COMMANDS["check"],
        ]
        argvs = [[a.format(d=tmp_path) for a in argv] for argv in argvs]

        def run_all():
            for p in tmp_path.iterdir():
                if p.name not in ("f.json", "c.json"):
                    p.unlink()
            runs = []
            for argv in argvs:
                code = cli_main(argv)
                runs.append((code, capsys.readouterr(), _outputs(tmp_path)))
            return runs

        reused = run_all()
        monkeypatch.setattr(cli_mod, "_parser", cli_mod.build_parser)
        fresh = run_all()
        assert [r[0] for r in reused] == [0, 2, 0, 0, 2, 2, 0, 0]
        assert reused == fresh


class TestPolishDoor:
    @pytest.mark.parametrize("mode, calls", [("on", 1), ("off", 0)])
    def test_reconstruct_polishes_through_public_polish(self, tmp_path, monkeypatch, mode, calls):
        """``reconstruct --polish on`` calls the public ``polish`` once, with
        every row in one stack, so a tracer that wraps it sees the work;
        ``--polish off`` never calls it."""
        _inputs(tmp_path)
        seen = []
        inner = cli_mod.polish

        def counted(F, C, starts):
            seen.append((C.shape[0], len(starts)))
            return inner(F, C, starts)

        monkeypatch.setattr(cli_mod, "polish", counted)
        assert cli_main([a.format(d=tmp_path)
                         for a in _COMMANDS[f"reconstruct-polish-{mode}"]]) == 0
        rows = json.loads((tmp_path / "out.json").read_text())["rows"]
        assert len(rows) == 3 and seen == [(3, 3)] * calls
        assert all(row["polished"] is (mode == "on") for row in rows)


# run in a fresh interpreter by TestImportGraph; argv[1] is a JSON object of
# command lines, argv[2] says whether scipy.optimize is imported up front
_FRESH_PROCESS = """
import json, sys
argvs, eager = json.loads(sys.argv[1]), sys.argv[2] == "eager"
if eager:
    import scipy.optimize
from raylift.cli import main
if not eager:
    for name in ("gen", "reconstruct-polish-off", "reconstruct-polish-on"):
        assert main(argvs[name]) == 0, name
    assert "scipy.optimize" not in sys.modules
assert main(argvs["check"]) == 0
assert "scipy.optimize" in sys.modules
"""


class TestImportGraph:
    def test_optimiser_loads_on_first_refinement(self, tmp_path):
        """``gen`` and ``reconstruct``, polish off and on, never load
        scipy.optimize; ``check`` loads it, and writes the same report bytes
        as a process that imported it before anything ran. Each run is a
        fresh interpreter, since this one has loaded the module already."""
        _inputs(tmp_path)
        argvs = json.dumps({name: [a.format(d=".") for a in argv]
                            for name, argv in _COMMANDS.items()})
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        reports = []
        for mode in ("lazy", "eager"):
            run = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, argvs, mode],
                                 cwd=tmp_path, env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            reports.append((tmp_path / "out.json").read_bytes())
        assert reports[0] == reports[1]


class TestOrderFlag:
    @pytest.mark.parametrize("value", ["nan", "0.5", "-inf", "two"])
    def test_bad_order_is_usage_error(self, tmp_path, capsys, value):
        report = tmp_path / "r.json"
        argv = ["probe", "--what", "pi", "--p", value, "--dims", "2", "--samples", "10",
                "--report", str(report)]
        assert cli_main(argv) == 2
        assert "--p" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["1", "inf", "Inf"])
    def test_good_order_accepted(self, tmp_path, value):
        argv = ["probe", "--what", "pi", "--p", value, "--dims", "2", "--samples", "10",
                "--report", str(tmp_path / "r.json")]
        assert cli_main(argv) == 0

    def test_q_flag_is_gone(self, tmp_path, capsys):
        argv = ["probe", "--what", "omega", "--q", "2", "--dims", "2", "--samples", "1",
                "--report", str(tmp_path / "r.json")]
        assert cli_main(argv) == 2
        assert "--q" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFlagText:
    @pytest.mark.parametrize("flag, value, text", [
        ("--p", "0.5", "expected a number >= 1 or 'inf', got '0.5'"),
        ("--p", "nan", "expected a number >= 1 or 'inf', got 'nan'"),
        ("--dims", "1,3", "expected comma-separated integers >= 2, got '1,3'"),
        ("--dims", "a", "expected comma-separated integers >= 2, got 'a'"),
    ], ids=["p-half", "p-nan", "dims-1", "dims-a"])
    def test_rejected_value_message(self, tmp_path, capsys, flag, value, text):
        """Every value flag reports a rejected value by one rule: exit 2 and
        the message ``argument FLAG: expected ..., got 'VALUE'``."""
        argv = ["probe", "--what", "pi", "--dims", "2", "--samples", "10",
                flag, value, "--report", str(tmp_path / "r.json")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {flag}: {text}\n")
        assert list(tmp_path.iterdir()) == []


class TestNumericFlags:
    @pytest.mark.parametrize("flag, argv", [
        ("--starts", ["check", "--frame", "{d}/f.json", "--starts", "0",
                      "--report", "{d}/out.json"]),
        ("--samples", ["probe", "--what", "bilipschitz", "--dims", "2", "--samples", "0",
                       "--report", "{d}/out.json"]),
        ("--samples", ["probe", "--what", "pi", "--dims", "2", "--samples", "0",
                       "--report", "{d}/out.json"]),
        ("--samples", ["probe", "--what", "omega", "--dims", "2", "--samples", "-3",
                       "--report", "{d}/out.json"]),
        ("--seed", ["check", "--frame", "{d}/f.json", "--seed", "-1",
                    "--report", "{d}/out.json"]),
        ("--seed", ["probe", "--what", "pi", "--dims", "2", "--seed", "-1",
                    "--report", "{d}/out.json"]),
        ("--seed", ["gen", "--dim", "3", "--count", "9", "--seed", "-1",
                    "--out", "{d}/g.json"]),
        ("--dim", ["gen", "--dim", "0", "--count", "9", "--out", "{d}/g.json"]),
    ], ids=["check-starts-0", "bilipschitz-samples-0", "pi-samples-0", "omega-samples-neg",
            "check-seed-neg", "probe-seed-neg", "gen-seed-neg", "gen-dim-0"])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, flag, argv):
        """A count below 1 or a negative seed exits 2 before any work,
        naming the flag and the value and writing nothing."""
        _inputs(tmp_path)
        assert cli_main([a.format(d=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected " in err
        assert f", got '{argv[argv.index(flag) + 1]}'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "f.json"]


class TestGenUsage:
    @pytest.mark.parametrize("argv, err", [
        (["--kind", "named"], "gen: --kind named requires --name"),
        (["--dim", "3"], "gen: --kind gaussian requires --dim and --count"),
        (["--kind", "named", "--name", "nope"],
         "gen: unknown named frame 'nope'; options: ['r2_onb', 'r2_pr3']"),
        (["--dim", "4", "--count", "2"], "gen: frame needs count >= dim, got m=2 < n=4"),
    ], ids=["named-without-name", "gaussian-without-count", "unknown-name", "count-below-dim"])
    def test_exits_usage_writing_nothing(self, tmp_path, capsys, argv, err):
        assert cli_main(["gen", *argv, "--out", str(tmp_path / "g.json")]) == 2
        assert capsys.readouterr().err == err + "\n"
        assert list(tmp_path.iterdir()) == []


class TestRankWarning:
    @pytest.mark.parametrize("count, warned", [(5, True), (9, False)])
    def test_warning_iff_rank_deficient(self, tmp_path, capsys, count, warned):
        """``reconstruct`` warns on stderr, and still exits 0, exactly when
        the lifted map lacks full column rank: a real frame in dimension 3
        has 6 lifted columns, so 5 vectors fall short and 9 do not."""
        F = gen_frame("random_gaussian", 3, count, Field.REAL, seed=2)
        write_frame(tmp_path / "f.json", F)
        x = vec(random_vector(np.random.default_rng(2), 3, False), Field.REAL)
        write_measurements(tmp_path / "c.json", [measure(F, x)])
        argv = ["reconstruct", "--frame", str(tmp_path / "f.json"), "--measurements",
                str(tmp_path / "c.json"), "--out", str(tmp_path / "out.json")]
        assert cli_main(argv) == 0
        err = capsys.readouterr().err
        assert ("warning: the lifted map has rank 5 of 6 columns" in err) == warned


class TestReconstructUsage:
    def test_dim_one_frame_is_usage_error(self, tmp_path, capsys):
        """A dim-1 frame passes ``gen`` and ``check``, but the retraction
        needs dimension >= 2: one line on stderr, exit 2, no output."""
        F = gen_frame("random_gaussian", 1, 3, Field.REAL, seed=1)
        write_frame(tmp_path / "f.json", F)
        write_measurements(tmp_path / "c.json", [measure(F, vec([2.0]))])
        argv = ["reconstruct", "--frame", str(tmp_path / "f.json"), "--measurements",
                str(tmp_path / "c.json"), "--out", str(tmp_path / "out.json")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            "reconstruct: the retraction needs dimension >= 2, the frame has 1\n")
        assert not (tmp_path / "out.json").exists()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestFrameHash:
    def test_reported_hash_is_file_sha256(self, tmp_path, field):
        """``check`` and ``reconstruct`` report the sha256 of the frame
        file's bytes, which for a ``write_frame`` file is the digest of its
        JSON re-encoding."""
        F = gen_frame("random_gaussian", 3, 12, field, seed=5)
        f, c = tmp_path / "f.json", tmp_path / "c.json"
        write_frame(f, F)
        x = vec(random_vector(np.random.default_rng(5), 3, field is Field.COMPLEX), field)
        write_measurements(c, [measure(F, x)])
        digest = _sha256(f.read_bytes())
        assert digest == _sha256(dumps_json(frame_to_dict(F)).encode("utf-8"))
        cli_main(["check", "--frame", str(f), "--starts", "2", "--report", str(tmp_path / "r.json")])
        assert cli_main(["reconstruct", "--frame", str(f), "--measurements", str(c),
                         "--out", str(tmp_path / "o.json")]) == 0
        for out in ("r.json", "o.json"):
            assert json.loads((tmp_path / out).read_text())["frame_hash"] == digest

    def test_resaved_frame_hashes_as_written(self, tmp_path, field):
        """The same frame saved without indentation, and with the stdlib's
        shortest number spellings, reads as an equal frame but hashes as
        the file it is."""
        F = gen_frame("random_gaussian", 3, 12, field, seed=6)
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        write_frame(f, F)
        with open(g, "w", encoding="utf-8") as fh:
            json.dump(json.loads(f.read_text()), fh)
        G = read_frame(g)
        assert G == F
        assert G.file_sha256 == _sha256(g.read_bytes())
        assert G.file_sha256 != read_frame(f).file_sha256 == _sha256(f.read_bytes())


class TestNonUtf8Input:
    @pytest.mark.parametrize("command, bad", [
        ("check", "frame"), ("reconstruct", "frame"), ("reconstruct", "measurements"),
    ])
    def test_exits_io_with_byte_offset(self, tmp_path, capsys, command, bad):
        """A byte that is not UTF-8 is an input error (exit 3) naming the
        file and the byte's offset, not a traceback."""
        _inputs(tmp_path)
        path = tmp_path / ("f.json" if bad == "frame" else "c.json")
        data = path.read_bytes()
        if bad == "frame":
            data = data.replace(b'"label": "', b'"label": "\xff', 1)
        else:
            data = data.replace(b'"count"', b'"\xffcount"', 1)
        path.write_bytes(data)
        offset = data.index(b"\xff")
        if command == "check":
            argv = ["check", "--frame", str(path), "--report", str(tmp_path / "r.json")]
        else:
            argv = ["reconstruct", "--frame", str(tmp_path / "f.json"), "--measurements",
                    str(tmp_path / "c.json"), "--out", str(tmp_path / "r.json")]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert f"{command}: {path}: not UTF-8 at byte offset {offset}" in err
        assert not (tmp_path / "r.json").exists()


class TestInvalidJsonInput:
    @pytest.mark.parametrize("bad", ["frame", "measurements"])
    def test_exits_io_with_line_and_column(self, tmp_path, capsys, bad):
        """A UTF-8 file that is not JSON is an input error (exit 3) naming the
        file and where the parser stopped, not a traceback."""
        _inputs(tmp_path)
        path = tmp_path / ("f.json" if bad == "frame" else "c.json")
        text = path.read_text(encoding="utf-8").replace('"count": ', '"count" ', 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(text)
        e = info.value
        assert e.lineno > 1
        argv = ["reconstruct", "--frame", str(tmp_path / "f.json"), "--measurements",
                str(tmp_path / "c.json"), "--out", str(tmp_path / "r.json")]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert f"reconstruct: {path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}" in err
        assert not (tmp_path / "r.json").exists()
