"""The CLI's and the demos' printed output against saved golden files.

Each case reruns one command or demo in-process and compares its stdout
with the file under ``tests/golden/``: the text between numbers exactly,
every number to 1e-9 relative (1e-12 absolute, for round-off residuals
such as a KKT residual of 1e-16), so another BLAS or numpy build still
passes.  An intended output change updates the golden file in the same
change.
"""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import wiretap_mimo
from wiretap_mimo.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

CASES = {
    "fig1_samples2000_seed3.csv": ["figure", "fig1", "--samples", "2000",
                                   "--seed", "3"],
    "fig3.csv": ["figure", "fig3"],
    "oracle_fig1_samples2000.csv": ["oracle", "--input",
                                    str(GOLDEN / "fig1_oracle.json"),
                                    "--samples", "2000"],
    # SufficientHolds (with its covariance), NecessaryFails and Inconclusive
    "certify_commuting.out.json": ["certify", "--input",
                                   str(GOLDEN / "certify_commuting.json"),
                                   "--format", "json"],
    "certify_commuting_bits.out.json": ["certify", "--input",
                                        str(GOLDEN / "certify_commuting.json"),
                                        "--format", "json", "--units", "bits"],
    # covariance-heavy complex payloads, -10..30 dB in 2 dB steps: 21 WF
    # covariances on construct_wf_optimal_channel([4, 3, 2, 1.5, 1], 0.5) in a
    # seeded random unitary basis V, and 21 ZF ones on W1 = V diag(3, 2, 1, 0.5)
    # V^H, W2 = V diag(0, 0, 1.5, 0.8) V^H, every entry an [re, im] pair
    "certify_wf_complex_m5.out.json": ["certify", "--input",
                                       str(GOLDEN / "certify_wf_complex_m5.json"),
                                       "--format", "json"],
    "certify_zf_complex_m4.out.json": ["certify", "--input",
                                       str(GOLDEN / "certify_zf_complex_m4.json"),
                                       "--format", "json"],
    "solve_fig1_one_point.out.json": ["solve", "--input",
                                      str(GOLDEN / "fig1_one_point.json"),
                                      "--format", "json"],
    # every solver name, rsv's error row on the non-commuting pair included
    "sweep_fig1_all_solvers.csv": ["sweep", "--input",
                                   str(GOLDEN / "fig1_all_solvers.json")],
    "sweep_fig1_all_solvers_bits.csv": ["sweep", "--input",
                                        str(GOLDEN / "fig1_all_solvers.json"),
                                        "--units", "bits"],
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def assert_same_output(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for i, (g_line, w_line) in enumerate(zip(got_lines, want_lines)):
        assert _NUMBER.split(g_line) == _NUMBER.split(w_line), \
            f"line {i + 1}: {g_line!r} != {w_line!r}"
        for g, w in zip(_NUMBER.findall(g_line), _NUMBER.findall(w_line)):
            assert float(g) == pytest.approx(float(w), rel=1e-9, abs=1e-12), \
                f"line {i + 1}: {g!r} != {w!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert_same_output(capsys.readouterr().out, (GOLDEN / name).read_text())


# a RuntimeWarning is an error here, as everywhere in the suite (pyproject)
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_golden(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert_same_output(capsys.readouterr().out,
                       (GOLDEN / f"demo_{demo.stem}.txt").read_text())


def test_module_entry_point():
    # ``python -m wiretap_mimo.cli`` runs ``entry()``, which exits with
    # ``main``'s code; a usage error exits 1 (2 means non-convergence)
    src = str(Path(wiretap_mimo.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "wiretap_mimo.cli", *args],
                              capture_output=True, text=True, env=env)

    fig3 = run("figure", "fig3")
    assert fig3.returncode == 0
    assert_same_output(fig3.stdout, (GOLDEN / "fig3.csv").read_text())
    usage = run("sweep")
    assert usage.returncode == 1
    assert usage.stdout == "" and usage.stderr.startswith("error: ")


def test_a_one_digit_change_fails_the_comparison():
    # rows print 10 significant digits; 1e-9 relative admits a flip of the
    # last one, so the changed digit is the ninth
    want = (GOLDEN / "oracle_fig1_samples2000.csv").read_text()
    with pytest.raises(AssertionError):
        assert_same_output(want.replace("1.995917194", "1.995917184"), want)
    with pytest.raises(AssertionError):
        assert_same_output(want.replace("Solved", "Solve", 1), want)
    # free text: a number inside a sentence, and one word
    want = (GOLDEN / "demo_optimality_certificates.txt").read_text()
    with pytest.raises(AssertionError):
        assert_same_output(want.replace("1.386294 nats", "1.386295 nats"), want)
    with pytest.raises(AssertionError):
        assert_same_output(want.replace("True", "False"), want)
