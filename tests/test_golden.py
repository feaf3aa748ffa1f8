"""The CLI's printed output against saved golden files.

Each case reruns one command in-process and compares its stdout with the
file under ``tests/golden/``: every text field exactly, every number to
1e-9 relative, so another BLAS or numpy build still passes.  An intended
output change updates the golden file in the same change.
"""

import math
from pathlib import Path

import pytest

from wiretap_mimo.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "fig1_samples2000_seed3.csv": ["figure", "fig1", "--samples", "2000",
                                   "--seed", "3"],
    "oracle_fig1_samples2000.csv": ["oracle", "--input",
                                    str(GOLDEN / "fig1_oracle.json"),
                                    "--samples", "2000"],
}


def _number(field: str):
    try:
        value = float(field)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def assert_same_output(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for i, (g_line, w_line) in enumerate(zip(got_lines, want_lines)):
        g_fields, w_fields = g_line.split(","), w_line.split(",")
        assert len(g_fields) == len(w_fields), f"line {i + 1}"
        for g, w in zip(g_fields, w_fields):
            g_num, w_num = _number(g), _number(w)
            if g_num is None or w_num is None:
                assert g == w, f"line {i + 1}: {g!r} != {w!r}"
            else:
                assert g_num == pytest.approx(w_num, rel=1e-9, abs=0.0), \
                    f"line {i + 1}: {g!r} != {w!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert_same_output(capsys.readouterr().out, (GOLDEN / name).read_text())


def test_a_one_digit_change_fails_the_comparison():
    # rows print 10 significant digits; 1e-9 relative admits a flip of the
    # last one, so the changed digit is the ninth
    want = (GOLDEN / "oracle_fig1_samples2000.csv").read_text()
    with pytest.raises(AssertionError):
        assert_same_output(want.replace("1.995917194", "1.995917184"), want)
    with pytest.raises(AssertionError):
        assert_same_output(want.replace("Solved", "Solve", 1), want)
