import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from foresthopf.cli import main


POLY_PATH = "1: 1\n2: 2x\n"
TRIG_PATH = "1: 1@1\n2: 1@2\n"
# stands for the trig_file fixture's path in parametrized argv lists
TRIG_FILE = object()


@pytest.fixture()
def poly_file(tmp_path):
    p = tmp_path / "poly.txt"
    p.write_text(POLY_PATH)
    return str(p)


@pytest.fixture()
def trig_file(tmp_path):
    p = tmp_path / "trig.txt"
    p.write_text(TRIG_PATH)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValueCommands:
    def test_theta(self, capsys):
        code, out, _ = run(capsys, ["theta", "1:1|2:1"])
        assert code == 0
        assert out.strip() == "(12)+(21)"

    def test_theta_json(self, capsys):
        code, out, _ = run(capsys, ["theta", "1:1|2:1", "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["terms"] == [{"basis": "(12)", "coeff": "1"},
                                 {"basis": "(21)", "coeff": "1"}]

    def test_theta_inv(self, capsys):
        code, out, _ = run(capsys, ["theta-inv", "21"])
        assert code == 0
        assert out.strip() == "-1:1[2:1]+1:1|2:1"

    def test_theta_inv_matrix(self, capsys):
        code, out, _ = run(capsys, ["theta-inv", "--matrix", "--degree", "2"])
        data = json.loads(out)
        assert code == 0
        assert data["matrix"] == [[1, 1], [1, 0]]
        assert data["inverse"] == [["0", "1"], ["1", "-1"]]

    def test_tsigma(self, capsys):
        code, out, _ = run(capsys, ["tsigma", "21"])
        assert code == 0
        assert out.strip() == "-1:1[2:1]+1:1|2:1"

    def test_tsigma_decorated(self, capsys):
        code, out, _ = run(capsys, ["tsigma", "231", "--dec", "abc"])
        assert code == 0
        assert out.strip() == "-1[2,3]+1[2]|3"

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "2"])
        assert code == 0
        assert out.splitlines() == ["1:1|2:1", "1:1[2:1]"]

    def test_enumerate_json(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "3", "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["count"] == 6

    def test_iterint_word(self, capsys, poly_file):
        code, out, _ = run(capsys, ["iterint", "ab", "--path", poly_file])
        assert code == 0
        assert out.strip() == "1/3*t^3-t*s^2+2/3*s^3"

    def test_iterint_tree(self, capsys, poly_file):
        code, out, _ = run(capsys,
                           ["iterint", "1[2]", "--tree", "--path", poly_file])
        assert code == 0
        assert out.strip() == "1/3*t^3-t*s^2+2/3*s^3"

    def test_fno_chi(self, capsys, trig_file):
        code, out, _ = run(capsys, ["fno", "chi", "ab", "--path", trig_file])
        assert code == 0
        assert out.strip() == "(-1/6)·exp(i(3·t))"

    def test_fno_j(self, capsys, trig_file):
        code, out, _ = run(capsys, ["fno", "j", "ab", "--path", trig_file])
        assert code == 0
        assert "routes agree" in out


class TestReportCommands:
    def test_hopf_check(self, capsys):
        code, out, _ = run(capsys, ["hopf-check", "shuffle", "--degree", "3"])
        assert code == 0
        assert out.startswith("PASS")
        assert "all checks passed" in out

    def test_square_check(self, capsys):
        code, out, _ = run(capsys,
                           ["square-check", "--degree", "2", "--d", "2"])
        assert code == 0
        assert "all checks passed" in out

    def test_chen_check(self, capsys, poly_file):
        code, out, _ = run(capsys,
                           ["chen-check", "--path", poly_file,
                            "--degree", "2"])
        assert code == 0
        assert "all checks passed" in out

    def test_fno_verify(self, capsys, trig_file):
        argv = ["fno", "verify", "--path", trig_file, "--degree", "3",
                "--jlen", "2", "--cases", "5"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.count("PASS") == 4

    def test_fno_verify_deterministic(self, capsys, trig_file):
        argv = ["fno", "verify", "--path", trig_file, "--degree", "2",
                "--jlen", "1", "--cases", "3"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_hopf_check_json(self, capsys):
        code, out, _ = run(capsys,
                           ["hopf-check", "ck", "--degree", "2", "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["passed"] is True
        assert data["checks"][0]["passed"] is True
        assert data["checks"][0]["counterexamples"] == []


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, ["theta", "junk["])
        assert code == 2
        assert "error:" in err

    def test_bound_exceeded(self, capsys):
        code, _, err = run(capsys, ["tsigma", "7162534"])
        assert code == 2
        assert "error:" in err

    def test_hopf_check_bound(self, capsys):
        # refused before any basis is built; --bound raises the limit
        code, out, err = run(capsys, ["hopf-check", "ordered", "--degree",
                                      "7"])
        assert code == 2
        assert out == ""
        assert err == ("error: degree 7 exceeds bound 6; "
                       "raise the bound explicitly\n")
        code, _, err = run(capsys, ["hopf-check", "ck", "--degree", "3",
                                    "--bound", "2"])
        assert code == 2
        assert "exceeds bound 2" in err
        code, _, _ = run(capsys, ["hopf-check", "shuffle", "--degree", "7",
                                  "--bound", "7"])
        assert code == 0

    def test_fno_verify_chi_check_keeps_bound(self, capsys, trig_file):
        # the J checks stay within the bound; the chi check needs
        # words of length 3 above it
        code, out, err = run(capsys, ["fno", "verify", "--path", trig_file,
                                      "--degree", "4", "--jlen", "2",
                                      "--bound", "2", "--cases", "2"])
        assert code == 2
        assert "exceeds bound 2" in err
        assert out == ""

    def test_missing_path_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["iterint", "a", "--path",
                                    str(tmp_path / "absent.txt")])
        assert code == 2

    def test_fno_chi_needs_word(self, capsys, trig_file):
        code, _, err = run(capsys, ["fno", "chi", "--path", trig_file])
        assert code == 2
        assert "needs a word" in err

    def test_magnitude_tie(self, capsys, tmp_path):
        p = tmp_path / "tie.txt"
        p.write_text("1: 1@1\n2: 1@-1\n")
        code, _, err = run(capsys, ["fno", "chi", "ab", "--path", str(p)])
        assert code == 3
        assert "singular input:" in err

    def test_singular_atom(self, capsys, tmp_path):
        p = tmp_path / "sing.txt"
        p.write_text("1: 1@1\n2: 1@2\n3: 1@-3\n")
        code, _, err = run(capsys, ["fno", "chi", "abc", "--path", str(p)])
        assert code == 3
        assert "singular input:" in err

    def test_deep_nesting_exits_2(self, capsys):
        # a 400-vertex chain 1:1[2:1[...]] outruns the recursion limit;
        # the text must not depend on where the stack ran out
        chain = "400:1"
        for v in range(399, 0, -1):
            chain = f"{v}:1[{chain}]"
        code, out, err = run(capsys, ["theta", chain])
        assert code == 2
        assert out == ""
        assert err == "error: input nested too deeply\n"

    @pytest.mark.parametrize("argv", [
        ["tsigma", "12", "--dec", "abc"],
        ["theta-inv", "--matrix", "--degree", "-1"],
        ["enumerate", "-1"],
        ["enumerate", "2", "--d", "0"],
        ["hopf-check", "ck", "--degree", "-2"],
        ["hopf-check", "ck", "--d", "0", "--degree", "2"],
        ["hopf-check", "ck", "--bound", "-1"],
        ["square-check", "--degree", "-1"],
        ["fno", "verify", "--path", TRIG_FILE, "--degree", "1", "--jlen", "0",
         "--cases", "-3"],
        ["fno", "verify", "--path", TRIG_FILE, "--degree", "1", "--jlen", "0",
         "--cases", "0"],
        ["hopf-check", "fqsym", "--d", "5", "--degree", "3"],
        ["fno", "chi", "", "--path", TRIG_FILE, "--bound", "-1"],
        ["fno", "j", "", "--path", TRIG_FILE, "--bound", "-1"],
        ["tsigma", "", "--bound", "-1"],
        ["theta-inv", "21", "--matrix", "--degree", "2"],
        ["theta-inv", "21", "--degree", "5"],
        ["fno", "verify", "ab", "--path", TRIG_FILE],
        ["theta-inv", "--matrix"],
        ["theta-inv"],
        ["fno", "chi", "ab", "--path", TRIG_FILE, "--cases", "5", "--jlen",
         "9", "--seed", "3"],
        ["fno", "chi", "ab", "--path", TRIG_FILE, "--degree", "4"],
        ["fno", "j", "ab", "--path", TRIG_FILE, "--jlen", "3"],
        ["fno", "j", "ab", "--path", TRIG_FILE, "--cases", "100"],
        ["fno", "j", "ab", "--path", TRIG_FILE, "--seed", "20260816"],
    ])
    def test_bad_value_exits_2(self, capsys, trig_file, argv):
        argv = [trig_file if a is TRIG_FILE else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    # text None passes a directory as the path file
    @pytest.mark.parametrize("text, argv", [
        ("1: 1@1/0\n", ["fno", "chi", "a"]),
        ("1: 1/0*x\n", ["iterint", "a"]),
        (None, ["iterint", "ab"]),
        (None, ["fno", "chi", "ab"]),
    ], ids=["freq-over-zero", "coeff-over-zero", "iterint-dir", "fno-dir"])
    def test_bad_path_file_exits_2(self, capsys, tmp_path, text, argv):
        p = tmp_path
        if text is not None:
            p = tmp_path / "path.txt"
            p.write_text(text)
        code, out, err = run(capsys, argv + ["--path", str(p)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("argv", [["hopf-check", "ck"],
                                  ["hopf-check", "fqsym-dec"],
                                  ["hopf-check", "shuffle"],
                                  ["tsigma", "2413"]], ids=" ".join)
def test_a_real_exit_is_clean(argv):
    # interned forests, permutations and words die at interpreter exit,
    # and their intern tables' weak-reference callbacks run then; an
    # error there only shows on the stderr of a separate process
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "foresthopf.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
