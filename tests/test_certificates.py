import math
import warnings

import numpy as np
import pytest

from wiretap_mimo import (ChannelPair, KktForm, Objective, OracleConfig,
                          Verdict, construct_is_optimal_channel,
                          construct_wf_optimal_channel, is_certify,
                          kkt_residual_general, mc_capacity, secrecy_rate,
                          solve_common_rsv, wf_certify, zf_certify,
                          zf_necessity_check)
from wiretap_mimo._waterfill import standard_waterfill
from util import fig1_pair, random_psd, random_unitary


class TestZfCertify:
    def test_reference_example(self):
        pair = ChannelPair.from_gram(np.diag([3.0, 2.0]), np.diag([0.0, 5.0]))
        report = zf_certify(pair, 1.0)
        assert report.verdict is Verdict.SUFFICIENT_HOLDS
        assert report.details["water_lambda"] == pytest.approx(0.75, abs=1e-12)
        assert report.certified_capacity == pytest.approx(math.log(4), abs=1e-9)
        r = report.certified_covariance.entries
        assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.linalg.norm(pair.w2.entries @ r) <= 1e-12
        assert report.details["no_wiretap_code_needed"] is True

    def test_zero_forcing_check_holds_at_any_finite_power(self):
        # the check W2 R = 0 compares norms of R / P_T: past P_T ~ 1.3e154 a
        # norm of R itself overflows, and inf <= inf would pass any leak
        pair = ChannelPair.from_gram(np.diag([1.0, 2.0]), np.diag([3.0, 0.0]))
        powers = np.array([1e155, 1e160, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [*zf_certify(pair, powers), *(zf_certify(pair, p) for p in powers)]
        for report in reports:
            assert report.verdict is Verdict.SUFFICIENT_HOLDS
            assert report.details["w2_r_product_norm"] == 0.0
            assert math.isfinite(report.certified_capacity)

    def test_positive_definite_w2_fails_necessity(self):
        pair = ChannelPair.from_gram(np.diag([3.0, 2.0]), np.diag([1.0, 5.0]))
        assert zf_certify(pair, 1.0).verdict is Verdict.NECESSARY_FAILS

    def test_no_gain_on_a_zero_leakage_mode_fails_necessity(self):
        # W2's null direction carries no W1 gain: nothing to zero-force, at any power
        pair = ChannelPair.from_gram(np.diag([2.0, 0.0]), np.diag([1.0, 0.0]))
        for report in zf_certify(pair, np.array([1e-3, 1.0, 1e3])):
            assert report.verdict is Verdict.NECESSARY_FAILS
            assert report.details["reason"] == (
                "no zero-leakage mode carries positive legitimate gain")

    def test_strong_leaky_mode_is_inconclusive(self):
        pair = ChannelPair.from_gram(np.diag([3.0, 2.0]), np.diag([0.0, 0.1]))
        # sufficiency holds only while lam >= lam1_2 - lam2_2 = 1.9,
        # i.e. P_T <= 1/1.9 - 1/3
        p_edge = 1 / 1.9 - 1 / 3
        assert zf_certify(pair, 0.9 * p_edge).verdict is Verdict.SUFFICIENT_HOLDS
        assert zf_certify(pair, 1.0).verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("s", [1e-9, 1.0, 1e9])
    def test_leaky_mode_verdict_is_scale_free(self, s):
        # the leaky mode activates at P_T = 1.5/s, for every scale s
        pair = ChannelPair.from_gram(s * np.diag([2.0, 1.5]), s * np.diag([0.0, 1.0]))
        below = zf_certify(pair, 1.5 * (1 - 1e-3) / s)
        above = zf_certify(pair, 1.5 * (1 + 1e-3) / s)
        assert below.verdict is Verdict.SUFFICIENT_HOLDS
        assert above.verdict is Verdict.INCONCLUSIVE

    def test_non_commuting_is_inconclusive(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]),
                                     0.1 * np.array([[1.0, 1.0], [1.0, 1.0]]))
        report = zf_certify(pair, 1.0)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.details["commutator_norm"] > 0

    def test_mc_cannot_beat_certified_value(self):
        pair = ChannelPair.from_gram(np.diag([3.0, 2.0]), np.diag([0.0, 5.0]))
        report = zf_certify(pair, 1.0)
        best, _ = mc_capacity(pair, 1.0, Objective.EXACT,
                              OracleConfig(samples=40_000, seed=3))
        assert best <= report.certified_capacity + 1e-3


class TestZfNecessity:
    def test_certified_covariance_passes(self):
        pair = ChannelPair.from_gram(np.diag([3.0, 2.0]), np.diag([0.0, 5.0]))
        report = zf_certify(pair, 1.0)
        check = zf_necessity_check(pair, report.certified_covariance, 1.0)
        assert check.verdict is Verdict.INCONCLUSIVE
        assert check.details["w2_active_block_norm"] <= 1e-9
        assert check.details["w2_cross_block_norm"] <= 1e-9

    def test_leaky_direction_fails(self):
        pair = ChannelPair.from_gram(np.diag([3.0, 2.0]), np.diag([0.0, 5.0]))
        check = zf_necessity_check(pair, np.diag([0.5, 0.5]), 1.0)
        assert check.verdict is Verdict.NECESSARY_FAILS

    def test_wrong_power_split_fails(self):
        pair = ChannelPair.from_gram(np.diag([3.0, 2.0]),
                                     np.diag([0.0, 0.0]))
        # both modes are ZF-clean, but these powers fit no single water level
        check = zf_necessity_check(pair, np.diag([0.6, 0.4]), 1.0)
        assert check.verdict is Verdict.NECESSARY_FAILS

    def test_zero_covariance_is_vacuous(self):
        check = zf_necessity_check(fig1_pair(), np.zeros((2, 2)), 1.0)
        assert check.verdict is Verdict.INCONCLUSIVE


class TestWfCertify:
    def test_reference_example(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]),
                                     np.diag([2.0 / 3.0, 0.5]))
        report = wf_certify(pair, 1.5)
        assert report.verdict is Verdict.SUFFICIENT_HOLDS
        assert report.details["alpha"] == pytest.approx(1.0, abs=1e-10)
        r = report.certified_covariance.entries
        assert np.allclose(np.diag(r), [1.0, 0.5], atol=1e-10)
        best, _ = mc_capacity(pair, 1.5, Objective.EXACT,
                              OracleConfig(samples=40_000, seed=7))
        assert best <= report.certified_capacity + 1e-3

    def test_no_eavesdropper_is_inconclusive(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        assert wf_certify(pair, 1.0).verdict is Verdict.INCONCLUSIVE

    def test_non_commuting_is_inconclusive(self):
        assert wf_certify(fig1_pair(), 1.0).verdict is Verdict.INCONCLUSIVE

    def test_zero_w1_is_inconclusive(self):
        pair = ChannelPair.from_gram(np.zeros((2, 2)), np.diag([0.5, 0.1]))
        for report in (wf_certify(pair, 1.0), *wf_certify(pair, np.array([1.0, 2.0]))):
            assert report.verdict is Verdict.INCONCLUSIVE
            assert report.details["reason"] == "W1 carries no positive gain"
            assert report.certified_covariance is None

    def test_inactive_mode_may_be_dominated(self):
        # inactive third mode with lam1 <= lam2 instead of the alpha relation
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0, 0.05]),
                                     np.diag([2.0 / 3.0, 0.5, 0.2]))
        report = wf_certify(pair, 1.0)
        assert report.verdict is Verdict.SUFFICIENT_HOLDS

    @pytest.mark.parametrize("lam2, verdict", [(0.1, Verdict.SUFFICIENT_HOLDS),
                                               (0.01, Verdict.INCONCLUSIVE)])
    def test_idle_mode_off_the_relation(self, lam2, verdict):
        # the third mode is idle under water-filling (lam1 = 0.3 < lambda =
        # 2/3) and off the alpha relation; WF stays optimal exactly while its
        # rate slope lam1 - lam2 is within lambda' = 4/15
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0, 0.3]),
                                     np.diag([2.0 / 3.0, 0.5, lam2]))
        report = wf_certify(pair, 1.5)
        assert report.verdict is verdict
        assert report.details["lambda_prime"] == pytest.approx(4.0 / 15.0)
        channel = pair.common_basis()
        exact = solve_common_rsv(channel, 1.5)
        idle = exact.mode_powers[np.argmin(channel.lam1)]
        assert (idle == 0) == (verdict is Verdict.SUFFICIENT_HOLDS)
        if report.certified_capacity is not None:
            assert report.certified_capacity == pytest.approx(exact.capacity_nats,
                                                              rel=1e-12)

    def test_constructed_channels_certify(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(2, 4))
            lam1 = np.sort(rng.uniform(0.3, 4.0, m))[::-1]
            alpha = float(rng.uniform(0.3, 2.0))
            basis = random_unitary(rng, m)
            pair = construct_wf_optimal_channel(lam1, alpha, basis)
            report = wf_certify(pair, float(rng.uniform(0.5, 4.0)))
            assert report.verdict is Verdict.SUFFICIENT_HOLDS
            assert report.details["alpha"] == pytest.approx(alpha, rel=1e-8)

    def test_degraded_ordering_over_active_modes(self):
        # the alpha relation forces larger lam1 to pair with larger lam2
        lam1 = np.array([3.0, 2.0, 1.0])
        pair = construct_wf_optimal_channel(lam1, 0.7)
        lam2 = np.diag(pair.w2.entries)
        assert np.all(np.diff(lam2) < 0)


class TestIsCertify:
    def test_constructed_example_values(self):
        pair = construct_is_optimal_channel(2, 2.0, b1=2.0, a1=1.0, b_rest=[3.0])
        assert np.allclose(np.diag(pair.w1.entries), [1.0, 1.0 / 1.4], atol=1e-12)
        assert np.allclose(np.diag(pair.w2.entries), [0.5, 1.0 / 3.0], atol=1e-12)
        report = is_certify(pair, 2.0)
        assert report.verdict is Verdict.SUFFICIENT_HOLDS
        assert report.details["common_lambda"] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert np.allclose(report.certified_covariance.entries, np.eye(2))

    def test_equal_spectra_special_case(self):
        rng = np.random.default_rng(13)
        v = random_unitary(rng, 3)
        w1 = (v * 2.0) @ v.conj().T
        w2 = (v * 0.5) @ v.conj().T
        report = is_certify(ChannelPair.from_gram(w1, w2), 1.5)
        assert report.verdict is Verdict.SUFFICIENT_HOLDS

    def test_fig1_inconclusive(self):
        assert is_certify(fig1_pair(), 1.0).verdict is Verdict.INCONCLUSIVE

    def test_boundary_b_rejected(self):
        a = 1.0
        lam = 1.0 / (1.0 + a) - 1.0 / (2.0 + a)
        bound = lam * a * a / (1.0 - lam * a)
        with pytest.raises(ValueError, match="violated"):
            construct_is_optimal_channel(2, 2.0, b1=2.0, a1=1.0, b_rest=[bound])

    def test_invalid_anchor_rejected(self):
        with pytest.raises(ValueError, match="violated"):
            construct_is_optimal_channel(2, 2.0, b1=2.0, a1=2.5, b_rest=[3.0])

    def test_mc_cannot_beat_isotropic_on_constructed_channel(self):
        rng = np.random.default_rng(17)
        pair = construct_is_optimal_channel(3, 1.8, b1=2.5, a1=0.9,
                                            b_rest=[3.0, 4.0],
                                            basis=random_unitary(rng, 3))
        report = is_certify(pair, 1.8)
        best, _ = mc_capacity(pair, 1.8, Objective.EXACT,
                              OracleConfig(samples=40_000, seed=23))
        assert best <= report.certified_capacity + 1e-3


class TestKktResidualGeneral:
    def test_wf_channel_with_derived_multiplier(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]),
                                     np.diag([2.0 / 3.0, 0.5]))
        report = wf_certify(pair, 1.5)
        resid = kkt_residual_general(pair, report.certified_covariance,
                                     report.details["lambda_prime"],
                                     KktForm.WF, 1.5)
        assert resid.max() <= 1e-8

    def test_is_channel_with_common_multiplier(self):
        pair = construct_is_optimal_channel(3, 1.5, b1=2.0, a1=0.8,
                                            b_rest=[2.5, 5.0])
        report = is_certify(pair, 1.5)
        resid = kkt_residual_general(pair, report.certified_covariance,
                                     report.details["common_lambda"],
                                     KktForm.WF, 1.5)
        assert resid.max() <= 1e-8

    def test_zf_channel_zf_form(self):
        pair = ChannelPair.from_gram(np.diag([3.0, 2.0]), np.diag([0.0, 5.0]))
        report = zf_certify(pair, 1.0)
        resid = kkt_residual_general(pair, report.certified_covariance,
                                     report.details["water_lambda"],
                                     KktForm.ZF, 1.0)
        assert resid.max() <= 1e-8

    def test_random_covariance_violates_kkt(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]),
                                     np.diag([2.0 / 3.0, 0.5]))
        report = wf_certify(pair, 1.5)
        rng = np.random.default_rng(29)
        r = random_psd(rng, 2, complex_valued=False)
        r *= 1.5 / np.trace(r).real
        resid = kkt_residual_general(pair, r, report.details["lambda_prime"],
                                     KktForm.WF, 1.5)
        assert resid.max() > 1e-3

    def test_wf_form_regularizes_singular_w2(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.diag([0.5, 0.0]))
        resid = kkt_residual_general(pair, np.diag([0.5, 0.5]), 0.1,
                                     KktForm.WF, 1.0)
        assert math.isfinite(resid.max())

    def test_wf_form_rejects_zero_matrix(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            kkt_residual_general(pair, np.eye(2), 0.1, KktForm.WF, 2.0)


def test_report_requires_certified_fields_iff_sufficient():
    from wiretap_mimo import CertificateReport, HermitianMatrix
    with pytest.raises(ValueError):
        CertificateReport(Verdict.SUFFICIENT_HOLDS)
    with pytest.raises(ValueError):
        CertificateReport(Verdict.INCONCLUSIVE,
                          certified_covariance=HermitianMatrix(np.eye(2)),
                          certified_capacity=0.5)


def test_certified_capacity_equals_secrecy_rate():
    pair = construct_is_optimal_channel(2, 2.0, b1=2.0, a1=1.0, b_rest=[3.0])
    report = is_certify(pair, 2.0)
    assert report.certified_capacity == pytest.approx(
        secrecy_rate(pair, report.certified_covariance), abs=1e-12)


# --------------------------------------------------------------- power grids

GRID = 10.0 ** (np.arange(-10.0, 31.0, 4.0) / 10.0)


def _is_built(rng, m):
    # isotropic signaling optimal at one power of GRID
    p_t = float(rng.choice(GRID))
    b1 = rng.uniform(1.0, 3.0)
    a1 = rng.uniform(0.25, 0.9) * b1
    a = p_t / m
    lam = 1.0 / (a1 + a) - 1.0 / (b1 + a)
    b_rest = lam * a * a / (1.0 - lam * a) + rng.uniform(0.1, 3.0, m - 1)
    return construct_is_optimal_channel(m, p_t, b1, a1, b_rest,
                                        random_unitary(rng, m))


def _wf_built(rng, m):
    return construct_wf_optimal_channel(np.sort(rng.uniform(0.4, 4.0, m))[::-1],
                                        rng.uniform(0.3, 2.0), random_unitary(rng, m))


def _in_basis(rng, lam1, lam2):
    v = random_unitary(rng, len(lam1))
    return ChannelPair.from_gram((v * lam1) @ v.conj().T, (v * lam2) @ v.conj().T)


def _zf_commuting(rng, m):
    # W2 blind on 1 to m - 1 modes
    lam2 = rng.uniform(0.1, 3.0, m)
    lam2[:rng.integers(1, m)] = 0.0
    return _in_basis(rng, rng.uniform(0.1, 3.0, m), lam2)


def _random_commuting(rng, m):
    lam1 = rng.uniform(0.1, 3.0, m)
    return _in_basis(rng, lam1, rng.uniform(0.0, 1.0, m) * lam1)


def _off_relation_idle(rng, m):
    # m - 1 modes on the WF relation lam2 = lam1 / (1 + alpha lam1), and one
    # weak mode off it with lam1 > lam2: idle at most powers of GRID
    lam1 = rng.uniform(1.0, 4.0, m - 1)
    alpha = rng.uniform(0.3, 2.0)
    weak = rng.uniform(0.01, 0.5)
    return _in_basis(rng, np.append(lam1, weak),
                     np.append(lam1 / (1.0 + alpha * lam1),
                               rng.uniform(0.05, 0.95) * weak))


def _noncommuting(rng, m):
    return ChannelPair.from_gram(random_psd(rng, m), random_psd(rng, m, 0.5))


PAIRS = {"is_built": _is_built, "wf_built": _wf_built, "zf": _zf_commuting,
         "random_commuting": _random_commuting,
         "off_relation_idle": _off_relation_idle, "noncommuting": _noncommuting}
CERTIFICATES = {"zf": zf_certify, "wf": wf_certify, "is": is_certify}


def _fingerprint(report):
    cov = report.certified_covariance
    return (report.verdict, repr(report.certified_capacity),
            repr(report.details.get("water_lambda")),
            None if cov is None else cov.entries.tobytes())


def test_a_point_certified_alone_equals_the_same_point_in_a_grid():
    # the channel-level checks are shared and the rest is elementwise over
    # the grid, so no verdict, capacity, multiplier or covariance bit
    # depends on the powers around it
    rng = np.random.default_rng(71)
    verdicts = set()
    for kind, make in PAIRS.items():
        for m in (2, 3, 4):
            pair = make(rng, m)
            for name, certify in CERTIFICATES.items():
                together = certify(pair, GRID)
                assert len(together) == GRID.size
                for p_total, report in zip(GRID, together):
                    alone = certify(pair, float(p_total))
                    assert _fingerprint(alone) == _fingerprint(report)
                    verdicts.add((name, report.verdict))
    assert len(verdicts) == 7  # every verdict that each certificate gives


def _shape(exact, lam1, lam2, p_total):
    """The techniques (zf, wf, is) whose covariance the exact optimum has,
    mode powers within 1e-9 P_T (a WF optimum leaking nothing is ZF's)."""
    tol = 1e-9 * p_total
    (wf_powers,), _ = standard_waterfill(lam1, np.array([p_total]))
    shapes = set()
    if lam2.all() and np.max(np.abs(exact - p_total / lam1.size)) <= tol:
        shapes.add("is")
    if not lam2.all() and not exact[lam2 > 0].any():
        shapes.add("zf")
    if (np.max(np.abs(exact - wf_powers)) <= tol
            and not (lam2[wf_powers > 0] == 0).any()):
        shapes.add("wf")
    return shapes


def test_certificates_agree_with_the_exact_shared_basis_optimum():
    # on commuting pairs solve_common_rsv is exact, so each certificate is
    # checked both ways: SufficientHolds certifies the exact capacity, and
    # an exact optimum of the technique's shape is certified
    rng = np.random.default_rng(73)
    seen = set()
    for kind, make in PAIRS.items():
        if kind == "noncommuting":
            continue
        for i in range(8):
            pair = make(rng, 2 + i % 4)
            channel = pair.common_basis()
            exact = solve_common_rsv(channel, GRID)
            reports = {name: certify(pair, GRID)
                       for name, certify in CERTIFICATES.items()}
            for k, (p_total, best) in enumerate(zip(GRID, exact)):
                shapes = _shape(best.mode_powers, channel.lam1, channel.lam2, p_total)
                for name, report in ((n, r[k]) for n, r in reports.items()):
                    holds = report.verdict is Verdict.SUFFICIENT_HOLDS
                    if holds:
                        assert report.certified_capacity == pytest.approx(
                            best.capacity_nats, rel=1e-10)
                    assert holds or name not in shapes, (kind, name, p_total)
                    seen.add((name, holds))
    assert len(seen) == 6  # each certificate both holds and does not
