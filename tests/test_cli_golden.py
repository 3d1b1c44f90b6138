"""Byte-for-byte CLI outputs against files in tests/golden/.

Each case runs one command, in text and with --json.  The Fourier and
iterated-integral cases read the README's trig or gamma path; the Hopf
cases, which print linear combinations of forests and permutations,
read no path file.  A case that names an exit code other than 0 also
compares its standard error with ``<name>.stderr.txt`` or
``<name>.stderr.json``; every other case must leave standard error
empty.  Wall times are the only part of an output that may change
between runs, so every ``"seconds": <number>`` is written as
``"seconds": 0`` before the comparison.

To rewrite the golden files from the current code (only when an output
is meant to change, and said so in CHANGES.md):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest

from foresthopf.cli import main


GOLDEN = Path(__file__).parent / "golden"
TRIG_PATH = "1: 1@1\n2: 1@2\n"
GAMMA_PATH = "1: 1\n2: 2x\n"
# Xi vanishes on some vertex for words of length 4 (1 + 1 - 2 = 0)
RESONANT_PATH = "1: 1@1, 1@-2\n2: 1@3\n"
# 1 + 2 - 3 = 0 at the root of every forest on abc
SINGULAR_PATH = "1: 1@1\n2: 1@2\n3: 1@-3\n"
# a ladder of 1,000 vertices, nested deeper than the recursion limit
DEEP_TREE = "1[" * 999 + "1" + "]" * 999

# name -> (path file text or None, arguments before --path); the cases
# of EXIT_CODES exit with the code named there, every other case with 0
CASES = {
    "theta_1_1_2_1": (None, ["theta", "1:1|2:1"]),
    "theta_inv_2413": (None, ["theta-inv", "2413"]),
    "tsigma_2413_dec_abab": (None, ["tsigma", "2413", "--dec", "abab"]),
    # canonical plain forests of degree 6, printed in order
    "tsigma_615243_dec_abbaba": (None, ["tsigma", "615243", "--dec",
                                        "abbaba"]),
    "theta_inv_matrix_d3": (None, ["theta-inv", "--matrix", "--degree", "3"]),
    "square_check_d3": (None, ["square-check", "--degree", "3", "--d", "2"]),
    "hopf_check_heap_d3": (None, ["hopf-check", "heap", "--degree", "3",
                                  "--d", "2"]),
    "hopf_check_ck_d4": (None, ["hopf-check", "ck", "--degree", "4",
                                "--d", "2"]),
    # fqsym has no decorations, so --d other than 1 is refused
    "hopf_check_fqsym_d5": (None, ["hopf-check", "fqsym", "--d", "5",
                                   "--degree", "3"]),
    "fno_chi_ab": (TRIG_PATH, ["fno", "chi", "ab"]),
    "fno_j_aba": (TRIG_PATH, ["fno", "j", "aba"]),
    "fno_verify_d3_j2": (TRIG_PATH, ["fno", "verify", "--degree", "3",
                                     "--jlen", "2"]),
    "iterint_ab": (GAMMA_PATH, ["iterint", "ab"]),
    "iterint_tree_1_2": (GAMMA_PATH, ["iterint", "1[2]", "--tree"]),
    "iterint_tree_deep": (GAMMA_PATH, ["iterint", DEEP_TREE, "--tree"]),
    "chen_check_d3": (GAMMA_PATH, ["chen-check", "--degree", "3"]),
    "fno_chi_aaaa_resonant": (RESONANT_PATH, ["fno", "chi", "aaaa"]),
    "fno_j_baaa_resonant": (RESONANT_PATH, ["fno", "j", "baaa"]),
    "fno_chi_abc_singular": (SINGULAR_PATH, ["fno", "chi", "abc"]),
}
EXIT_CODES = {"fno_chi_aaaa_resonant": 3, "fno_j_baaa_resonant": 3,
              "fno_chi_abc_singular": 3, "hopf_check_fqsym_d5": 2,
              "iterint_tree_deep": 2}
SECONDS = re.compile(r'"seconds": [0-9][0-9.eE+-]*')


def cli_output(tmp_dir, name, json_flag):
    """Exit code, standard output and standard error of one case, times
    zeroed."""
    path_text, argv = CASES[name]
    if path_text is not None:
        path_file = Path(tmp_dir) / "path.txt"
        path_file.write_text(path_text)
        argv = argv + ["--path", str(path_file)]
    argv = argv + (["--json"] if json_flag else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, SECONDS.sub('"seconds": 0', out.getvalue()), err.getvalue()


def golden_file(name, json_flag, stream="stdout"):
    infix = "" if stream == "stdout" else f".{stream}"
    return GOLDEN / f"{name}{infix}.{'json' if json_flag else 'txt'}"


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(tmp_path, name, json_flag):
    code, out, err = cli_output(tmp_path, name, json_flag)
    expected_code = EXIT_CODES.get(name, 0)
    assert code == expected_code
    assert out == golden_file(name, json_flag).read_text()
    if expected_code:
        assert err == golden_file(name, json_flag, "stderr").read_text()
    else:
        assert err == ""


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for flag in (False, True):
                exit_code, text, err_text = cli_output(tmp, case, flag)
                expected_code = EXIT_CODES.get(case, 0)
                if exit_code != expected_code:
                    raise SystemExit(f"{case}: exit code {exit_code}")
                golden_file(case, flag).write_text(text)
                if expected_code:
                    golden_file(case, flag, "stderr").write_text(err_text)
