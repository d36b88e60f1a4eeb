import numpy as np
import pytest

from raylift import Field, gen_frame, measure, vec, write_frame, write_measurements
from raylift.cli import main as cli_main

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
        ("--group-tol", ["reconstruct", "--frame", "{d}/f.json", "--measurements",
                         "{d}/c.json", "--group-tol", "-1", "--out", "{d}/out.json"]),
        ("--group-tol", ["reconstruct", "--frame", "{d}/f.json", "--measurements",
                         "{d}/c.json", "--group-tol", "nan", "--out", "{d}/out.json"]),
    ], ids=["check-starts-0", "bilipschitz-samples-0", "pi-samples-0", "omega-samples-neg",
            "group-tol-neg", "group-tol-nan"])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, flag, argv):
        """A count below 1 or a negative or non-finite tolerance exits 2
        before any work, naming the flag and writing nothing."""
        _inputs(tmp_path)
        assert cli_main([a.format(d=tmp_path) for a in argv]) == 2
        assert flag in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "f.json"]


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
