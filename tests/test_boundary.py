"""Every public entry point rejects NaN, inf and wrong shapes at entry.

One table over ``wiretap_mimo.__all__``: each row feeds one argument of one
callable a bad value and expects a ValueError.  Every numeric argument gets
NaN, +inf and -inf, and one that must be positive also 0 and -1; every array
argument gets a NaN entry, an inf entry and a wrong shape.  A RuntimeWarning
on the way fails the suite too (``filterwarnings`` in pyproject.toml), so a
row passes only when the input is refused before any arithmetic runs on it.
"""

import math

import numpy as np
import pytest

import wiretap_mimo as wm

NAN, INF = math.nan, math.inf

PAIR = wm.ChannelPair.from_gram(np.diag([2.0, 1.0]),
                                0.1 * np.array([[2.0, 1.0], [1.0, 1.0]]))
OMNI = wm.ChannelPair.from_gram(np.diag([2.0, 0.0]), np.diag([0.5, 0.0]))
PROBLEM = wm.IsotropicProblem(np.array([2.0, 1.0]), 0.1, 1.0)
R = np.diag([0.5, 0.5])


def scalar(positive: bool) -> list:
    """Bad values of a number that must be positive, or else nonnegative."""
    return [NAN, INF, -INF] + ([0.0, -1.0] if positive else [-1.0])


def array(good, *wrong_shapes) -> list:
    """``good`` with a NaN and with an inf entry, then the wrong shapes."""
    out = []
    for bad in (NAN, INF):
        a = np.array(good, dtype=float)
        a.flat[-1] = bad
        out.append(a)
    return out + [np.ones(shape) for shape in wrong_shapes]


POSITIVE, NONNEGATIVE = scalar(True), scalar(False)
MATRIX = array(np.eye(2), (2, 3), (3, 3))   # for m = 2
VECTOR = array([2.0, 1.0], (1, 2))
INTEGER = [NAN, INF, -INF, 1.5, True]


def p_total_of(fn, pair=PAIR):
    return ("p_total", lambda v: fn(pair, v), POSITIVE)


# public name -> (argument, call with the bad value, bad values)
TABLE = {
    "HermitianMatrix": [("entries", wm.HermitianMatrix, array(np.eye(2), (2, 3), (2,)))],
    "ChannelPair": [
        ("w1", lambda v: wm.ChannelPair.from_gram(v, np.eye(2)), MATRIX),
        ("w2", lambda v: wm.ChannelPair.from_gram(np.eye(2), v), MATRIX),
        ("h1", lambda v: wm.ChannelPair.from_channels(v, np.eye(2)),
         array(np.eye(2), (2, 3), (2,))),
        ("h2", lambda v: wm.ChannelPair.from_channels(np.eye(2), v),
         array(np.eye(2), (2, 3), (2,)))],
    "SolveResult": [
        (name, lambda v, i=i: wm.SolveResult(
            wm.HermitianMatrix(R), *[v if j == i else 0.5 for j in (0, 1)],
            2, 1.0, wm.SolveStatus.SOLVED), NONNEGATIVE)
        for i, name in enumerate(("capacity_nats", "lagrange_lambda"))],
    "epsilon_from_pathloss": [
        (name, lambda v, i=i: wm.epsilon_from_pathloss(
            *[v if j == i else 2.0 for j in range(5)]), POSITIVE)
        for i, name in enumerate(("alpha", "n2", "m", "r_min", "nu"))],
    "secrecy_rate": [("r", lambda v: wm.secrecy_rate(PAIR, v), MATRIX)],
    "weak_rate": [("r", lambda v: wm.weak_rate(PAIR, v), MATRIX)],
    "solve_weak": [p_total_of(wm.solve_weak)],
    "solve_weak_with_bounds": [p_total_of(wm.solve_weak_with_bounds)],
    "capacity_bounds_weak": [p_total_of(wm.capacity_bounds_weak)],
    "kkt_residual_weak": [
        ("r", lambda v: wm.kkt_residual_weak(PAIR, v, 0.5, 1.0), MATRIX),
        ("lam", lambda v: wm.kkt_residual_weak(PAIR, R, v, 1.0), NONNEGATIVE),
        ("p_total", lambda v: wm.kkt_residual_weak(PAIR, R, 0.5, v), NONNEGATIVE)],
    "IsotropicProblem": [
        ("gains", lambda v: wm.IsotropicProblem(v, 0.1, 1.0), VECTOR),
        ("epsilon", lambda v: wm.IsotropicProblem([2.0, 1.0], v, 1.0), NONNEGATIVE),
        ("p_total", lambda v: wm.IsotropicProblem([2.0, 1.0], 0.1, v), POSITIVE)],
    "capacity_bounds_isotropic": [p_total_of(wm.capacity_bounds_isotropic)],
    "negligibility_margins": [
        ("threshold", lambda v: wm.negligibility_margins(PROBLEM, v), NONNEGATIVE)],
    "threshold_powers": [
        ("gains", lambda v: wm.threshold_powers(v, 0.1), VECTOR),
        ("epsilon", lambda v: wm.threshold_powers([2.0, 1.0], v), NONNEGATIVE)],
    "classify_omni": [("delta", lambda v: wm.classify_omni(OMNI.w2, v), NONNEGATIVE)],
    "range_containment_residual": [
        ("active_basis", lambda v: wm.range_containment_residual(OMNI.w1, v),
         array(np.eye(2)[:, :1], (3, 1), (2,)))],
    "solve_omni": [p_total_of(wm.solve_omni, OMNI)],
    "CommonBasisChannel": [
        ("basis", lambda v: wm.CommonBasisChannel(v, [2.0, 1.0], [0.5, 0.1]), MATRIX),
        ("lam1", lambda v: wm.CommonBasisChannel(np.eye(2), v, [0.5, 0.1]), VECTOR),
        ("lam2", lambda v: wm.CommonBasisChannel(np.eye(2), [2.0, 1.0], v), VECTOR)],
    "solve_common_rsv": [
        ("p_total", lambda v: wm.solve_common_rsv(
            wm.CommonBasisChannel(np.eye(2), [2.0, 1.0], [0.5, 0.1]), v), POSITIVE)],
    "zf_certify": [p_total_of(wm.zf_certify)],
    "wf_certify": [p_total_of(wm.wf_certify)],
    "is_certify": [p_total_of(wm.is_certify)],
    "zf_necessity_check": [
        ("r", lambda v: wm.zf_necessity_check(PAIR, v, 1.0), MATRIX),
        ("p_total", lambda v: wm.zf_necessity_check(PAIR, R, v), POSITIVE)],
    "kkt_residual_general": [
        ("r", lambda v: wm.kkt_residual_general(PAIR, v, 0.5, wm.KktForm.WF, 1.0),
         MATRIX),
        ("lam", lambda v: wm.kkt_residual_general(PAIR, R, v, wm.KktForm.WF, 1.0),
         NONNEGATIVE),
        ("p_total", lambda v: wm.kkt_residual_general(PAIR, R, 0.5, wm.KktForm.ZF, v),
         NONNEGATIVE)],
    "construct_is_optimal_channel": [
        (name, lambda v, i=i: wm.construct_is_optimal_channel(
            *[v if j == i else good for j, good in enumerate((2, 2.0, 2.0, 1.0))],
            b_rest=[3.0]), POSITIVE)
        for i, name in enumerate(("m", "p_total", "b1", "a1"))] + [
        ("b_rest", lambda v: wm.construct_is_optimal_channel(2, 2.0, 2.0, 1.0, v),
         array([3.0], (2,), (1, 1))),
        ("basis", lambda v: wm.construct_is_optimal_channel(
            2, 2.0, 2.0, 1.0, [3.0], basis=v), MATRIX)],
    "construct_wf_optimal_channel": [
        ("lam1", lambda v: wm.construct_wf_optimal_channel(v, 1.0), VECTOR),
        ("alpha", lambda v: wm.construct_wf_optimal_channel([2.0, 1.0], v), POSITIVE),
        ("basis", lambda v: wm.construct_wf_optimal_channel([2.0, 1.0], 1.0, v),
         MATRIX)],
    "OracleConfig": [
        ("samples", lambda v: wm.OracleConfig(samples=v), INTEGER + [0, -1]),
        ("seed", lambda v: wm.OracleConfig(seed=v), INTEGER),
        ("refine_rounds", lambda v: wm.OracleConfig(refine_rounds=v), INTEGER + [-1])],
    "mc_capacity": [p_total_of(wm.mc_capacity)],
    "separable_oracle": [
        ("lam1", lambda v: wm.separable_oracle(v, [0.5, 0.1], 1.0), VECTOR),
        ("lam2", lambda v: wm.separable_oracle([2.0, 1.0], v, 1.0), VECTOR),
        ("p_total", lambda v: wm.separable_oracle([2.0, 1.0], [0.5, 0.1], v),
         POSITIVE)],
    "solve_auto": [p_total_of(wm.solve_auto)],
}

# public callables with no row, and why: they take no number or array from
# their caller, or only objects that were checked when they were built
EXEMPT = {
    "result record": {"CapacityBounds", "KktResidual", "SpectralDecomposition",
                      "CertificateReport", "OmniClassification",
                      "AsymptoticReport", "NegligibilityReport"},
    "enum": {"SolveStatus", "AsymptoticRegime", "KktForm", "Verdict", "Objective"},
    "exception": {"ConvergenceError", "NotApplicableError", "NotCommutingError"},
    "unit conversion of any float": {"nats_to_bits"},
    "takes only checked objects": {"positive_part", "saturation_capacities",
                                   "threshold_power", "solve_isotropic",
                                   "asymptotic_capacity", "commutation_residual",
                                   "detect_common_rsv"},
}

def label(bad) -> str:
    if np.ndim(bad) == 0:
        return repr(bad)
    if np.isnan(bad).any() or np.isinf(bad).any():
        return "nan-entry" if np.isnan(bad).any() else "inf-entry"
    return f"shape{bad.shape}"


ROWS = [pytest.param(call, bad, id=f"{name}-{arg}-{label(bad)}")
        for name, args in TABLE.items()
        for arg, call, values in args
        for bad in values]


def test_table_covers_every_public_callable():
    exempt = set().union(*EXEMPT.values())
    public = {name for name in wm.__all__ if callable(getattr(wm, name))}
    assert not set(TABLE) & exempt
    assert set(TABLE) | exempt == public


@pytest.mark.parametrize("call, bad", ROWS)
def test_bad_input_raises_value_error(call, bad):
    with pytest.raises(ValueError):
        call(bad)
