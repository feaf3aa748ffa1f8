"""Every public entry point rejects NaN, inf and wrong shapes at entry.

One table over ``wiretap_mimo.__all__``: each row feeds one argument of one
callable a bad value and expects a ValueError.  Every numeric argument gets
NaN, +inf and -inf, and one that must be positive also 0 and -1; every array
argument gets a NaN entry, an inf entry and a wrong shape, and a power that
may be a grid also a grid with a zero entry and an empty one.  Where a finite
value can break a rule of its own (a non-PSD covariance, unsorted eigenvalues,
non-orthonormal eigenvectors, a vector of the wrong length), that value gets a
row too.  A RuntimeWarning
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
# a power grid: a NaN, an inf or a zero entry, two dimensions or no power
POWERS = POSITIVE + array([1.0, 2.0], (1, 2), (0,)) + [np.array([1.0, 0.0])]
MATRIX = array(np.eye(2), (2, 3), (3, 3))   # for m = 2
VECTOR = array([2.0, 1.0], (1, 2))
INTEGER = [NAN, INF, -INF, 1.5, True]
# finite values that break a rule other than finiteness and shape
NOT_PSD = wm.HermitianMatrix(np.diag([1.0, -1.0]))
UNSORTED = np.array([1.0, 2.0])
SKEWED = np.array([[1.0, 1.0], [0.0, 1.0]])  # not orthonormal
LONG = np.array([2.0, 1.0, 0.5])  # for m = 2
NAMED = {id(NOT_PSD): "not-psd", id(UNSORTED): "unsorted", id(SKEWED): "skewed",
         id(LONG): "length3"}


def p_total_of(fn, pair=PAIR, bad=POSITIVE):
    return ("p_total", lambda v: fn(pair, v), bad)


def solve_grid(covariances=np.eye(2)[None], capacities=(0.5,), lambdas=(0.5,)):
    """A one-point SolveResultGrid with one field replaced."""
    return wm.SolveResultGrid(np.asarray(covariances), np.asarray(capacities),
                              np.asarray(lambdas), np.array([2]), np.array([2.0]),
                              np.array([wm.SolveStatus.SOLVED]), np.ones((1, 2)))


def bounds_grid(lower=(1.0,), mid=(1.5,)):
    """A one-point CapacityBoundsGrid with one field replaced."""
    return wm.CapacityBoundsGrid(np.asarray(lower), np.asarray(mid),
                                 np.array([2.0]), np.array([1.0]))


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
        for i, name in enumerate(("capacity_nats", "lagrange_lambda"))] + [
        ("covariance", lambda v: wm.SolveResult(v, 0.5, 0.5, 2, 1.0, wm.SolveStatus.SOLVED),
         array(np.eye(2), (2, 3), (2,)) + [NOT_PSD])],
    "SolveResultGrid": [
        ("covariances", lambda v: solve_grid(covariances=v),
         array(np.eye(2)[None], (2, 2), (1, 2, 3))),
        ("capacities", lambda v: solve_grid(capacities=v),
         [np.array([v]) for v in NONNEGATIVE]),
        ("lambdas", lambda v: solve_grid(lambdas=v), [np.array([v]) for v in NONNEGATIVE])],
    "CapacityBoundsGrid": [
        (name, lambda v, name=name: bounds_grid(**{name: np.array([v])}), [NAN, INF, -INF])
        for name in ("lower", "mid")],
    "SpectralDecomposition": [
        ("eigenvalues", lambda v: wm.SpectralDecomposition(v, np.eye(2)),
         array([2.0, 1.0], (3,), (1, 2)) + [UNSORTED]),
        ("eigenvectors", lambda v: wm.SpectralDecomposition(np.array([2.0, 1.0]), v),
         MATRIX + [SKEWED])],
    "epsilon_from_pathloss": [
        (name, lambda v, i=i: wm.epsilon_from_pathloss(
            *[v if j == i else 2.0 for j in range(5)]), POSITIVE)
        for i, name in enumerate(("alpha", "n2", "m", "r_min", "nu"))] + [
        # finite positive inputs whose gain overflows a float
        ("r_min", lambda v: wm.epsilon_from_pathloss(1.0, 1.0, 1.0, v, 2.0), [1e-300])],
    "secrecy_rate": [("r", lambda v: wm.secrecy_rate(PAIR, v), MATRIX)],
    "weak_rate": [("r", lambda v: wm.weak_rate(PAIR, v), MATRIX)],
    "solve_weak": [p_total_of(wm.solve_weak, bad=POWERS)],
    "solve_weak_with_bounds": [p_total_of(wm.solve_weak_with_bounds, bad=POWERS)],
    "capacity_bounds_weak": [p_total_of(wm.capacity_bounds_weak, bad=POWERS)],
    "kkt_residual_weak": [
        ("r", lambda v: wm.kkt_residual_weak(PAIR, v, 0.5, 1.0), MATRIX),
        ("lam", lambda v: wm.kkt_residual_weak(PAIR, R, v, 1.0), NONNEGATIVE),
        ("p_total", lambda v: wm.kkt_residual_weak(PAIR, R, 0.5, v), NONNEGATIVE)],
    "IsotropicProblem": [
        ("gains", lambda v: wm.IsotropicProblem(v, 0.1, 1.0), VECTOR),
        ("epsilon", lambda v: wm.IsotropicProblem([2.0, 1.0], v, 1.0), NONNEGATIVE),
        ("p_total", lambda v: wm.IsotropicProblem([2.0, 1.0], 0.1, v), POWERS)],
    "capacity_bounds_isotropic": [p_total_of(wm.capacity_bounds_isotropic, bad=POWERS)],
    "negligibility_margins": [
        ("threshold", lambda v: wm.negligibility_margins(PROBLEM, v), NONNEGATIVE)],
    "threshold_powers": [
        ("gains", lambda v: wm.threshold_powers(v, 0.1), VECTOR),
        ("epsilon", lambda v: wm.threshold_powers([2.0, 1.0], v), NONNEGATIVE)],
    "range_containment_residual": [
        ("active_basis", lambda v: wm.range_containment_residual(OMNI.w1, v),
         array(np.eye(2)[:, :1], (3, 1), (2,)))],
    "solve_omni": [p_total_of(wm.solve_omni, OMNI, POWERS)],
    "CommonBasisChannel": [
        ("basis", lambda v: wm.CommonBasisChannel(v, [2.0, 1.0], [0.5, 0.1]), MATRIX),
        ("lam1", lambda v: wm.CommonBasisChannel(np.eye(2), v, [0.5, 0.1]), VECTOR + [LONG]),
        ("lam2", lambda v: wm.CommonBasisChannel(np.eye(2), [2.0, 1.0], v), VECTOR + [LONG])],
    "solve_common_rsv": [
        ("p_total", lambda v: wm.solve_common_rsv(
            wm.CommonBasisChannel(np.eye(2), [2.0, 1.0], [0.5, 0.1]), v), POWERS)],
    "zf_certify": [p_total_of(wm.zf_certify, bad=POWERS)],
    "wf_certify": [p_total_of(wm.wf_certify, bad=POWERS)],
    "is_certify": [p_total_of(wm.is_certify, bad=POWERS)],
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
    "mc_capacity": [p_total_of(wm.mc_capacity, bad=POWERS)],
    "separable_oracle": [
        ("lam1", lambda v: wm.separable_oracle(v, [0.5, 0.1], 1.0), VECTOR),
        ("lam2", lambda v: wm.separable_oracle([2.0, 1.0], v, 1.0), VECTOR),
        ("p_total", lambda v: wm.separable_oracle([2.0, 1.0], [0.5, 0.1], v),
         POSITIVE)],
    "solve_auto": [p_total_of(wm.solve_auto, bad=POWERS)],
}

# public callables with no row, and why: they take no number or array from
# their caller, or only objects that were checked when they were built
EXEMPT = {
    "result record": {"CapacityBounds", "KktResidual", "CertificateReport",
                      "OmniClassification", "AsymptoticReport",
                      "NegligibilityReport"},
    "enum": {"SolveStatus", "AsymptoticRegime", "KktForm", "Verdict", "Objective"},
    "exception": {"ConvergenceError", "NotApplicableError", "NotCommutingError"},
    "unit conversion of any float": {"nats_to_bits"},
    "takes only checked objects": {"positive_part", "saturation_capacities",
                                   "threshold_power", "solve_isotropic",
                                   "asymptotic_capacity", "commutation_residual",
                                   "detect_common_rsv", "classify_omni"},
}

def label(bad) -> str:
    if id(bad) in NAMED:
        return NAMED[id(bad)]
    if np.ndim(bad) == 0:
        return repr(bad)
    if np.isnan(bad).any() or np.isinf(bad).any():
        return "nan-entry" if np.isnan(bad).any() else "inf-entry"
    if bad.ndim == 1 and bad.size and not bad.all():
        return "zero-entry"
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
