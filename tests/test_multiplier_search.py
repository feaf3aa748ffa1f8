"""The multiplier root-finder: every SNR answered, scale-free, few evaluations."""

import math

import numpy as np
import pytest

from wiretap_mimo import (ChannelPair, is_certify, solve_auto, solve_common_rsv,
                          solve_weak, threshold_powers, wf_certify, zf_certify)
from wiretap_mimo import _waterfill, weak_eavesdropper
from util import fig1_pair, random_commuting_pair, random_psd, random_unitary

SWEEP_DB = np.arange(-10.0, 81.0, 2.0)


def _rank_deficient(rng, m):
    h2 = rng.standard_normal((1, m)) + 1j * rng.standard_normal((1, m))
    return ChannelPair.from_gram(random_psd(rng, m), h2.conj().T @ h2)


def _noncontained_omni(rng, m):
    u = random_unitary(rng, m)[:, :max(1, m - 1)]
    return ChannelPair.from_gram(random_psd(rng, m),
                                 rng.uniform(0.2, 2.0) * (u @ u.conj().T))


CLASSES = {
    "commuting": lambda rng, m: random_commuting_pair(rng, m)[0],
    "general": lambda rng, m: ChannelPair.from_gram(random_psd(rng, m),
                                                    random_psd(rng, m)),
    "rank_deficient": _rank_deficient,
    "omni_noncontained": _noncontained_omni,
}


@pytest.mark.parametrize("kind", sorted(CLASSES))
def test_every_point_of_a_high_snr_sweep_is_answered(kind):
    rng = np.random.default_rng(41)
    for m in range(2, 6):
        for _ in range(2):
            pair = CLASSES[kind](rng, m)
            for db in SWEEP_DB:
                p_total = 10.0 ** (db / 10.0)
                for _, out in solve_auto(pair, p_total):
                    value = getattr(out, "capacity_nats", None)
                    if value is None:
                        value = out.upper_nats
                    assert math.isfinite(value)


def _scaled(pair, s):
    return ChannelPair.from_gram(s * pair.w1.entries, s * pair.w2.entries)


def _scaling_cases():
    # P_T * ||W|| from 1 to 1e8, and both powers at least 1, where the
    # stopping rule is relative to P_T
    rng = np.random.default_rng(43)
    yield fig1_pair(), 1e-12, 1.0
    for s in (1e-12, 1e-6, 1e-3):
        for make in CLASSES.values():
            for _ in range(3):
                yield (make(rng, int(rng.integers(2, 6))), s,
                       10.0 ** rng.uniform(0, 8))


def test_scaling_symmetry():
    # W -> sW with P_T -> P_T / s leaves the capacity unchanged and scales
    # the power used by 1/s and the multiplier by s; the fig1 pair at
    # s = 1e-12, P_T = 1e12 used to raise ConvergenceError
    for pair, s, p_total in _scaling_cases():
        scaled = _scaled(pair, s)
        for (name, out), (_, out_s) in zip(solve_auto(pair, p_total),
                                           solve_auto(scaled, p_total / s)):
            if name == "isotropic":
                assert out_s.lower_nats == pytest.approx(out.lower_nats, rel=1e-12,
                                                         abs=1e-300)
                assert out_s.upper_nats == pytest.approx(out.upper_nats, rel=1e-12,
                                                         abs=1e-300)
                continue
            assert out_s.capacity_nats == pytest.approx(out.capacity_nats,
                                                        rel=1e-12, abs=1e-300)
            assert out_s.lagrange_lambda == pytest.approx(s * out.lagrange_lambda,
                                                          rel=1e-9, abs=1e-300)
            assert s * out_s.power_used == pytest.approx(out.power_used, rel=1e-12)


def test_secrecy_waterfill_needs_few_power_evaluations(monkeypatch):
    calls = []
    counted = _waterfill.secrecy_mode_powers
    monkeypatch.setattr(_waterfill, "secrecy_mode_powers",
                        lambda *a: calls.append(1) or counted(*a))
    rng = np.random.default_rng(47)
    solves = 0
    for db in SWEEP_DB:
        for _ in range(10):
            m = int(rng.integers(2, 6))
            gains = np.sort(rng.uniform(0.1, 3.0, m))[::-1]
            leaks = rng.uniform(0.0, 1.0, m) * gains
            p_total = 10.0 ** (db / 10.0)
            powers, lam = _waterfill.secrecy_waterfill(gains, leaks, p_total)
            assert abs(np.sum(powers) - p_total) <= 1e-12 * max(1.0, p_total)
            solves += 1
    assert len(calls) / solves <= 10


def test_general_weak_solve_needs_few_evaluations(monkeypatch):
    calls = []
    evaluate = weak_eavesdropper._weak_cov_at
    monkeypatch.setattr(weak_eavesdropper, "_weak_cov_at",
                        lambda *a: calls.append(1) or evaluate(*a))
    rng = np.random.default_rng(59)
    pairs = [CLASSES[kind](rng, m) for kind in ("general", "rank_deficient")
             for m in range(2, 6)]
    limits = [weak_eavesdropper.threshold_power(pair) for pair in pairs]
    calls.clear()
    solves = 0
    for db in SWEEP_DB:
        p_total = 10.0 ** (db / 10.0)
        for pair, limit in zip(pairs, limits):
            if p_total < limit:  # below the threshold the search runs
                solve_weak(pair, p_total)
                solves += 1
    assert len(calls) / solves <= 6


def test_full_rank_ill_conditioned_w2_below_its_threshold():
    # W2 of full rank has no null directions to drop, so the search may go
    # down to lam = 0, where the trace is the threshold power; with
    # cond(W2) = 1e9 the root at 0.9 of it lies below 2 rank_tol max(W2)
    rng = np.random.default_rng(61)
    for m in range(2, 6):
        for _ in range(3):
            v = random_unitary(rng, m)
            w2 = (v * np.logspace(0.0, -9.0, m)) @ v.conj().T
            pair = ChannelPair.from_gram(random_psd(rng, m), w2)
            p_total = 0.9 * weak_eavesdropper.threshold_power(pair)
            res = solve_weak(pair, p_total)
            assert res.covariance.trace() == pytest.approx(p_total, rel=1e-11)


def test_power_exactly_at_an_activation_threshold(monkeypatch):
    gains, eps = np.array([3.0, 2.0, 1.0]), 0.5
    p_total = float(threshold_powers(gains, eps)[1])
    calls = []
    counted = _waterfill.secrecy_mode_powers
    monkeypatch.setattr(_waterfill, "secrecy_mode_powers",
                        lambda *a: calls.append(1) or counted(*a))
    powers, lam = _waterfill.secrecy_waterfill(gains, eps, p_total)
    assert lam == pytest.approx(gains[1] - eps, rel=1e-12)
    assert powers[1:].tolist() == [0.0, 0.0]
    assert len(calls) == 2  # the activation totals, then the root itself


def test_general_weak_result_decomposes_its_covariance_once(monkeypatch):
    pair = fig1_pair()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a: calls.append(1) or eigvalsh(*a))
    res = solve_weak(pair, 2.0)
    assert not calls
    assert np.array_equal(res.mode_powers,
                          np.clip(res.covariance.eigenvalues(), 0.0, None))


@pytest.mark.parametrize("p_total", [math.inf, -math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("solver", ["weak", "rsv", "zf", "wf", "is"])
def test_non_finite_or_non_positive_power_is_rejected(solver, p_total):
    pair, *_ = random_commuting_pair(np.random.default_rng(53), 3)
    fn = {"weak": solve_weak,
          "rsv": lambda p, t: solve_common_rsv(p.common_basis(), t),
          "zf": zf_certify, "wf": wf_certify, "is": is_certify}[solver]
    with pytest.raises(ValueError, match="p_total"):
        fn(pair, p_total)

