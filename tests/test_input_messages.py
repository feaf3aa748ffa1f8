"""The exact message of every refused channel input, and which one wins.

One table: each row is a scenario's channel (JSON values, so ``NaN`` and
``Infinity`` literals too) with the message ``cli.main`` prints on stderr
(exit 1) and, where the matrices are numbers, the message
``ChannelPair.from_gram`` or ``from_channels`` raises on the same matrices.
A pair's matrices are checked in a fixed order (W1's shape, entries and
symmetry, then W2's, then equal dimension, then W1's and W2's spectra), so
with both matrices bad the first rule broken names the message.
"""

import json
import math

import numpy as np
import pytest

from wiretap_mimo import ChannelPair
from wiretap_mimo.cli import main

NAN, INF = math.nan, math.inf
I2 = [[1.0, 0.0], [0.0, 1.0]]
ASYM = [[1.0, 0.5], [0.0, 1.0]]
NOT_PSD = [[1.0, 0.0], [0.0, -1.0]]
NAN_ENTRY = [[1.0, 0.0], [0.0, NAN]]
INF_ENTRY = [[INF, 0.0], [0.0, 1.0]]
NON_SQUARE = [[1.0, 2.0]]
I3 = np.eye(3).tolist()

SQUARE = "field 'channel': W1 and W2 must be square with equal shape"
FINITE = "matrix entries must be finite"
HERMITIAN = "matrix is not Hermitian: max asymmetry 5.000e-01 exceeds 1e-08 * ||A||"
H_RULE = "H1 and H2 must be finite and 2-D with equal column counts"


def psd(name):
    return f"{name} is not positive semidefinite within RANK_TOL"


def got(where, value):
    return f"channel.{where}: expected a finite number, got {value!r}"


# (id, kind, first, second, library message or None, CLI message);
# None: the CLI refuses the input while parsing, before any matrix exists
TABLE = [
    # one bad Gram matrix, on W1 and on W2
    ("w1-non-square", "W", NON_SQUARE, I2,
     "expected a square matrix, got shape (1, 2)", SQUARE),
    ("w2-non-square", "W", I2, NON_SQUARE,
     "expected a square matrix, got shape (1, 2)", SQUARE),
    ("w1-nan", "W", NAN_ENTRY, I2, FINITE, got("w1[1][1]", NAN)),
    ("w2-nan", "W", I2, NAN_ENTRY, FINITE, got("w2[1][1]", NAN)),
    ("w1-inf", "W", INF_ENTRY, I2, FINITE, got("w1[0][0]", INF)),
    ("w2-inf", "W", I2, INF_ENTRY, FINITE, got("w2[0][0]", INF)),
    ("w1-asymmetric", "W", ASYM, I2, HERMITIAN, HERMITIAN),
    ("w2-asymmetric", "W", I2, ASYM, HERMITIAN, HERMITIAN),
    ("w1-not-psd", "W", NOT_PSD, I2, psd("W1"), psd("W1")),
    ("w2-not-psd", "W", I2, NOT_PSD, psd("W2"), psd("W2")),
    ("unequal-dimension", "W", I2, I3,
     "W1 and W2 must have equal dimension, got 2 and 3", SQUARE),
    ("complex-w2-not-psd", "W", I2, [[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [-1.0, 0.0]]],
     psd("W2"), psd("W2")),
    # both bad at once: the first rule broken wins
    ("w1-nan-w2-non-square", "W", NAN_ENTRY, NON_SQUARE, FINITE, got("w1[1][1]", NAN)),
    ("w1-asymmetric-w2-nan", "W", ASYM, NAN_ENTRY, HERMITIAN, got("w2[1][1]", NAN)),
    ("w1-not-psd-w2-asymmetric", "W", NOT_PSD, ASYM, HERMITIAN, HERMITIAN),
    ("w1-not-psd-w2-inf", "W", NOT_PSD, INF_ENTRY, FINITE, got("w2[0][0]", INF)),
    ("w1-not-psd-w2-not-psd", "W", NOT_PSD, NOT_PSD, psd("W1"), psd("W1")),
    ("w1-not-psd-unequal-dimension", "W", NOT_PSD, I3,
     "W1 and W2 must have equal dimension, got 2 and 3", SQUARE),
    ("w1-non-square-w2-asymmetric", "W", NON_SQUARE, ASYM,
     "expected a square matrix, got shape (1, 2)", SQUARE),
    # raw channels
    ("h1-nan", "H", NAN_ENTRY, I2, H_RULE, got("h1[1][1]", NAN)),
    ("h2-inf", "H", I2, INF_ENTRY, H_RULE, got("h2[0][0]", INF)),
    ("unequal-columns", "H", I2, [[1.0, 0.0, 0.0]], H_RULE, H_RULE),
    # the matrix parse: every entry a finite JSON number or an [re, im] pair
    ("ragged", "W", [[1.0, 0.0], [0.0]], I2, None,
     "channel.w1: rows have inconsistent lengths"),
    ("empty-row", "W", I2, [[1.0, 0.0], []], None,
     "channel.w2: row 1 is not a nonempty array"),
    ("row-not-array", "W", [[1.0, 0.0], 5], I2, None,
     "channel.w1: row 1 is not a nonempty array"),
    ("not-nested", "W", 5, I2, None, "channel.w1: expected a nonempty nested array"),
    ("empty", "H", I2, [], None, "channel.h2: expected a nonempty nested array"),
    ("bool", "W", [[1.0, True], [0.0, 1.0]], I2, None, got("w1[0][1]", True)),
    ("string", "W", I2, [[1.0, 0.0], ["1", 1.0]], None, got("w2[1][0]", "1")),
    ("three-element-entry", "W", [[[1.0, 0.0, 0.0], 0.0], [0.0, 1.0]], I2, None,
     got("w1[0][0]", [1.0, 0.0, 0.0])),
    ("nan-imaginary-part", "W", [[[1.0, NAN], 0.0], [0.0, 1.0]], I2, None,
     got("w1[0][0]", NAN)),
    ("nan-literal", "H", [[1.0, NAN]], I2, None, got("h1[0][1]", NAN)),
    ("infinity-literal", "W", I2, [[1.0, 0.0], [0.0, -INF]], None, got("w2[1][1]", -INF)),
    ("int-past-float-range", "W", [[10 ** 400, 0], [0, 1]], I2, None,
     got("w1[0][0]", 10 ** 400)),
    # an entry error comes before a later row's shape and the length check
    ("nan-before-empty-row", "W", [[NAN, 0.0], []], I2, None, got("w1[0][0]", NAN)),
    ("nan-before-ragged", "W", [[1.0, 0.0], [NAN]], I2, None, got("w1[1][0]", NAN)),
    ("w1-parse-before-w2-parse", "W", [[1.0, "x"]], [[NAN]], None, got("w1[0][1]", "x")),
]


def _matrix(value):
    a = np.array(value, dtype=float)
    return a[..., 0] + 1j * a[..., 1] if a.ndim == 3 else a


@pytest.mark.parametrize("kind, first, second, library, cli",
                         [row[1:] for row in TABLE], ids=[row[0] for row in TABLE])
def test_refused_channel_message(kind, first, second, library, cli, tmp_path, capsys):
    keys = ("w1", "w2") if kind == "W" else ("h1", "h2")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"channel": {"matrix_kind": kind, keys[0]: first,
                                            keys[1]: second},
                                "power_grid": {"p_t": [1.0]}}))
    assert main(["certify", "--input", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {cli}\n")
    if library is not None:
        build = ChannelPair.from_gram if kind == "W" else ChannelPair.from_channels
        with pytest.raises(ValueError) as err:
            build(_matrix(first), _matrix(second))
        assert str(err.value) == library


def test_numbers_and_pairs_mix_in_one_matrix(tmp_path):
    # a plain number and an [re, im] pair are both entries of one matrix
    from wiretap_mimo.cli import load_scenario
    w1 = [[2.0, [0.5, 0.25]], [[0.5, -0.25], 1]]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"channel": {"matrix_kind": "W", "w1": w1, "w2": I2},
                                "power_grid": {"p_t": [1.0]}}))
    pair = load_scenario(str(path)).pair
    assert pair.w1.entries.tolist() == [[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 1.0]]


@pytest.mark.parametrize("kind", [[], {}, ["W"], {"W": "H"}, None, "w", 1],
                         ids=["list", "object", "list-of-w", "object-w", "null",
                              "lowercase", "number"])
def test_matrix_kind_other_than_w_or_h(kind, tmp_path, capsys):
    # any JSON value but "W" or "H", hashable or not, is an input error
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"channel": {"matrix_kind": kind, "w1": I2, "w2": I2},
                                "power_grid": {"p_t": [1.0]}}))
    assert main(["certify", "--input", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: field 'channel.matrix_kind': must be 'W' or 'H'\n")
