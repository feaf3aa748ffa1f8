import math
from fractions import Fraction

import numpy as np
import pytest

from wiretap_mimo import (AsymptoticRegime, ChannelPair, IsotropicProblem,
                          Objective, OracleConfig, SolveStatus,
                          asymptotic_capacity, capacity_bounds_isotropic,
                          mc_capacity, negligibility_margins, separable_oracle,
                          solve_isotropic, threshold_powers)
from wiretap_mimo._waterfill import secrecy_mode_powers, standard_waterfill
from util import fig1_pair, random_psd


def solve(gains, eps, p_total):
    return solve_isotropic(IsotropicProblem(np.asarray(gains, float), eps, p_total))


class TestSolveIsotropic:
    def test_beamforming_regime_example(self):
        res = solve([2.0, 1.0], 0.5, 0.5)
        assert np.allclose(res.mode_powers, [0.5, 0.0])
        assert res.capacity_nats == pytest.approx(math.log(2) - math.log(1.25),
                                                  abs=1e-10)
        assert res.active_modes == 1

    def test_no_eavesdropper_flag_is_waterfilling(self):
        # inverse gains 1/3, 1/2, 2: two modes share the level 17/12
        res = solve([3.0, 2.0, 0.5], 0.0, 2.0)
        assert np.allclose(res.mode_powers, [13 / 12, 11 / 12, 0.0],
                           rtol=0, atol=1e-15)
        assert res.lagrange_lambda == pytest.approx(12 / 17, rel=1e-15)

    def test_small_epsilon_approaches_waterfilling(self):
        gains = np.array([3.0, 2.0, 0.5])
        res = solve(gains, 1e-9, 2.0)
        (powers,), _ = standard_waterfill(gains, np.array([2.0]))
        assert np.allclose(res.mode_powers, powers, atol=1e-6)

    def test_dominant_eavesdropper_zero_rate(self):
        res = solve([2.0, 1.0], 2.0, 7.0)
        assert res.status is SolveStatus.ZERO_RATE
        assert res.capacity_nats == 0.0

    def test_full_power_always_used(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            g = np.sort(rng.uniform(0.1, 5.0, m))[::-1]
            eps = float(rng.uniform(0.0, g[0] * 0.95))
            p = float(rng.uniform(0.05, 40.0))
            res = solve(g, eps, p)
            assert res.power_used == pytest.approx(p, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            IsotropicProblem(np.array([1.0, 2.0]), 0.5, 1.0)  # not descending
        with pytest.raises(ValueError):
            IsotropicProblem(np.array([2.0, 1.0]), -0.1, 1.0)
        with pytest.raises(ValueError):
            IsotropicProblem(np.array([2.0, 1.0]), 0.5, 0.0)
        # non-finite input is rejected here, not left to the multiplier search
        with pytest.raises(ValueError, match="gains must be finite"):
            IsotropicProblem(np.array([2.0, np.nan]), 0.5, 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                IsotropicProblem(np.array([2.0, 1.0]), bad, 1.0)
            with pytest.raises(ValueError, match="must be finite"):
                IsotropicProblem(np.array([2.0, 1.0]), 0.5, bad)

    def test_power_grid_gives_each_power_its_own_answer(self):
        # a grid solves each power as if alone; the one-power reports refuse it
        grid = np.array([0.5, 2.0, 40.0])
        problem = IsotropicProblem(np.array([3.0, 2.0, 0.5]), 0.4, grid)
        together = solve_isotropic(problem)
        assert len(together) == grid.size
        for p_total, res in zip(grid, together):
            alone = solve([3.0, 2.0, 0.5], 0.4, float(p_total))
            assert res.capacity_nats == alone.capacity_nats
            assert res.lagrange_lambda == alone.lagrange_lambda
            assert np.array_equal(res.mode_powers, alone.mode_powers)
        with pytest.raises(ValueError, match="one power"):
            asymptotic_capacity(problem, AsymptoticRegime.LOW_SNR)
        with pytest.raises(ValueError, match="one power"):
            negligibility_margins(problem)


class TestThresholdPowers:
    def test_two_mode_value(self):
        out = threshold_powers(np.array([2.0, 1.0]), 0.5)
        expected = 1.25 * (math.sqrt(1 + (4 * 0.5 * 2 / 6.25) * (1 / 0.5)) - 1)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(expected, abs=1e-12)
        assert out[1] == pytest.approx(0.6375, abs=2e-4)

    def test_activation_happens_at_threshold(self):
        g = np.array([2.0, 1.0])
        p2 = threshold_powers(g, 0.5)[1]
        assert solve(g, 0.5, p2 - 1e-6).active_modes == 1
        assert solve(g, 0.5, p2 + 1e-6).active_modes == 2

    def test_waterfilling_limit(self):
        out = threshold_powers(np.array([2.0, 1.0]), 0.0)
        assert out[1] == pytest.approx(0.5, abs=1e-12)

    def test_weak_mode_never_activates(self):
        out = threshold_powers(np.array([2.0, 1.0]), 1.0)
        assert out[1] == math.inf

    def test_strictly_increasing_finite_entries(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            g = np.sort(rng.uniform(0.2, 5.0, m))[::-1]
            eps = float(rng.uniform(0.0, g[-1]))
            out = threshold_powers(g, eps)
            finite = out[np.isfinite(out)]
            assert np.all(np.diff(finite) > 0)


class TestCapacityBounds:
    def test_isotropic_w2_collapses_bounds(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), 0.5 * np.eye(2))
        b = capacity_bounds_isotropic(pair, 2.0)
        assert b.lower_nats == pytest.approx(b.upper_nats, abs=1e-12)

    def test_fig1_high_snr_gap(self):
        b = capacity_bounds_isotropic(fig1_pair(), 1e6)
        ev = np.linalg.eigvalsh(fig1_pair().w2.entries)
        asym = 2 * math.log(ev[-1] / ev[0])
        assert asym == pytest.approx(3.850, abs=1e-3)
        assert b.gap_bound_nats <= asym
        assert b.gap_bound_nats == pytest.approx(asym, abs=1e-3)

    def test_round_off_eigenvalue_is_not_an_active_mode(self):
        # an eigenvalue of W1 below RANK_TOL * max is zero for the mode
        # count behind the gap bound, as for every other rank decision
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        h2 = rng.standard_normal((1, 3))

        def gap(t):
            w1 = q @ np.diag([2.0, 0.7, t]) @ q.T
            return capacity_bounds_isotropic(
                ChannelPair.from_gram(w1, h2.T @ h2), 100.0).gap_bound_nats

        assert gap(1e-13) == gap(0.0)
        # two active modes against eps_min = 0: 2 ln(1 + eps_1 P_T / 2)
        assert gap(0.0) == pytest.approx(
            2.0 * math.log1p(50.0 * float(np.sum(h2 ** 2))), rel=1e-12)

    def test_bounds_contain_mc_estimate(self):
        pair = fig1_pair()
        b = capacity_bounds_isotropic(pair, 2.0)
        c_mc, _ = mc_capacity(pair, 2.0, Objective.EXACT,
                              OracleConfig(samples=20_000, seed=9))
        assert b.lower_nats <= c_mc + 5e-3
        assert c_mc <= b.upper_nats + 5e-3

    def test_monotone_in_epsilon_with_termwise_gap_chain(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            g = np.sort(rng.uniform(0.2, 4.0, m))[::-1]
            p = float(rng.uniform(0.5, 10.0))
            eps_m, eps_1 = np.sort(rng.uniform(0.05, 2.0, 2))
            eps_mid = float(rng.uniform(eps_m, eps_1))
            c_low = solve(g, eps_1, p).capacity_nats
            c_mid = solve(g, eps_mid, p).capacity_nats
            c_up = solve(g, eps_m, p).capacity_nats
            assert c_low <= c_mid + 1e-9 <= c_up + 2e-9
            m_plus = int(np.count_nonzero(g > eps_m))
            if m_plus:
                gap1 = m_plus * math.log((1 + eps_1 * p / m_plus)
                                         / (1 + eps_m * p / m_plus))
                gap2 = m_plus * math.log(eps_1 / eps_m)
                assert c_up - c_low <= gap1 + 1e-9
                assert gap1 <= gap2 + 1e-12

    def test_solves_without_further_decompositions(self, monkeypatch):
        # the isotropic grids take their PSD check from their mode powers;
        # W1 and W2 are decomposed once, up front
        pair = fig1_pair()
        pair.w1.eig(), pair.w2.eig()
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: calls.append(1) or eigh(*a, **k))
        b = capacity_bounds_isotropic(pair, 2.0)
        assert not calls
        assert 0.0 < b.lower_nats <= b.upper_nats

    def test_rejects_zero_w2(self):
        pair = ChannelPair.from_gram(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            capacity_bounds_isotropic(pair, 1.0)


class TestAsymptotics:
    def test_high_snr_value(self):
        rep = asymptotic_capacity(IsotropicProblem(np.array([2.0, 1.0]), 0.5, 100.0),
                                  AsymptoticRegime.HIGH_SNR)
        assert rep.value == pytest.approx(math.log(4) + math.log(2), abs=1e-12)

    def test_low_snr_without_eavesdropper(self):
        rep = asymptotic_capacity(IsotropicProblem(np.array([2.0, 1.0]), 0.0, 0.3),
                                  AsymptoticRegime.LOW_SNR)
        assert rep.value == pytest.approx(math.log1p(2.0 * 0.3), abs=1e-12)
        assert rep.saturation_ratio is None

    def test_refined_high_snr_against_solver(self):
        problem = IsotropicProblem(np.array([2.0, 1.0]), 0.5, 100.0)
        rep = asymptotic_capacity(problem, AsymptoticRegime.HIGH_SNR_REFINED)
        beta = math.sqrt(2 - 0.5) + math.sqrt(2 - 1)
        assert rep.value == pytest.approx(2.0794 - beta ** 2 / 100.0, abs=1e-4)
        exact = solve_isotropic(problem).capacity_nats
        assert abs(exact - rep.value) <= 0.005

    def test_preconditions(self):
        with pytest.raises(ValueError):
            asymptotic_capacity(IsotropicProblem(np.array([1.0]), 2.0, 1.0),
                                AsymptoticRegime.HIGH_SNR)
        with pytest.raises(ValueError):
            asymptotic_capacity(IsotropicProblem(np.array([1.0]), 0.0, 1.0),
                                AsymptoticRegime.HIGH_SNR)
        with pytest.raises(ValueError):
            asymptotic_capacity(IsotropicProblem(np.array([1.0]), 1.5, 1.0),
                                AsymptoticRegime.LOW_SNR)

    def test_saturation_ratio_and_single_mode_report(self):
        rep = asymptotic_capacity(IsotropicProblem(np.array([2.0, 1.0]), 0.5, 0.5),
                                  AsymptoticRegime.LOW_SNR)
        assert rep.single_mode is True
        c_inf = math.log(4) + math.log(2)
        beta = math.sqrt(1.5) + 1.0
        assert rep.saturation_ratio == pytest.approx(0.5 * c_inf / beta ** 2)


class TestNegligibility:
    def test_zero_epsilon(self):
        rep = negligibility_margins(IsotropicProblem(np.array([2.0, 1.0]), 0.0, 5.0))
        assert rep.snr_margin == 0.0 and rep.gain_margin == 0.0
        assert rep.negligible

    @pytest.mark.parametrize("gains", [[2.0, 1.0], [0.0, 0.0]])
    @pytest.mark.parametrize("threshold", [0.0, 0.1])
    def test_verdict_continuous_at_zero_epsilon(self, gains, threshold):
        reps = [negligibility_margins(IsotropicProblem(np.array(gains), eps, 1.0),
                                      threshold)
                for eps in (0.0, 1e-300)]
        assert reps[0].negligible == reps[1].negligible
        # all-zero gains leave no active mode: never negligible
        assert reps[0].negligible == (threshold > 0 and gains[0] > 0)

    def test_high_power_not_negligible(self):
        rep = negligibility_margins(IsotropicProblem(np.array([2.0, 1.0]), 0.5, 100.0))
        assert rep.snr_margin == pytest.approx(50.0)
        assert not rep.negligible

    def test_weak_eavesdropper_margins_and_capacity_shift(self):
        problem = IsotropicProblem(np.array([2.0, 1.0]), 0.01, 1.0)
        rep = negligibility_margins(problem)
        assert rep.snr_margin == pytest.approx(0.01, abs=1e-12)
        # both modes are active at P_T = 1, so the margin is eps/g_2
        assert rep.gain_margin == pytest.approx(0.01, abs=1e-12)
        assert rep.negligible
        shift = abs(solve_isotropic(problem).capacity_nats
                    - solve([2.0, 1.0], 0.0, 1.0).capacity_nats)
        assert shift <= 0.02


class TestPowerAllocationProperties:
    def test_stronger_modes_get_more_power(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            g = np.sort(rng.uniform(0.1, 5.0, m))[::-1]
            eps = float(rng.uniform(0.0, g[0] * 0.9))
            res = solve(g, eps, float(rng.uniform(0.1, 20.0)))
            assert np.all(np.diff(res.mode_powers) <= 1e-12)
        # monotone in the gain at a fixed multiplier as well
        p = secrecy_mode_powers(np.array([0.6, 1.0, 2.0, 5.0]), 0.5, 0.3)
        assert np.all(np.diff(p) >= 0)

    def test_powers_nondecreasing_in_total_power(self):
        g = np.array([2.0, 1.2, 0.7])
        eps = 0.3
        prev = np.zeros(3)
        for p in np.linspace(0.05, 12.0, 40):
            cur = solve(g, eps, p).mode_powers
            assert np.all(cur >= prev - 1e-9)
            prev = cur

    def test_single_mode_power_pins_to_total(self):
        g = np.array([2.0, 1.0])
        p2 = threshold_powers(g, 0.5)[1]
        res = solve(g, 0.5, 0.9 * p2)
        assert res.mode_powers[0] == 0.9 * p2

    def test_active_modes_beat_epsilon(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            g = np.sort(rng.uniform(0.0, 4.0, m))[::-1]
            eps = float(rng.uniform(0.0, 3.0))
            if g[0] <= eps:
                continue
            res = solve(g, eps, float(rng.uniform(0.1, 30.0)))
            assert np.all(g[res.mode_powers > 0] > eps)

    def test_multiplier_range_and_low_power_limit(self):
        g = np.array([2.0, 1.0])
        eps = 0.5
        lams = []
        for p in np.linspace(0.01, 10.0, 50):
            lam = solve(g, eps, p).lagrange_lambda
            assert 0.0 < lam < g[0] - eps
            lams.append(lam)
        assert all(a > b for a, b in zip(lams, lams[1:]))
        tiny = solve(g, eps, 1e-6).lagrange_lambda
        assert abs(tiny - (g[0] - eps)) <= 1e-3


def test_closed_form_matches_separable_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        g = np.sort(rng.uniform(0.05, 5.0, m))[::-1]
        eps = float(rng.uniform(1e-4, g[0]))
        p = float(rng.uniform(0.01, 50.0))
        cap = solve(g, eps, p).capacity_nats
        orc = separable_oracle(g, np.full(m, eps), p)
        assert abs(cap - orc) <= 1e-6


def test_capacity_matches_exact_rate_against_isotropic_w2():
    # rotating the diagonal solution into the W1 eigenbasis achieves the value
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        w1 = random_psd(rng, m)
        eps = float(rng.uniform(0.05, 1.0))
        pair = ChannelPair.from_gram(w1, eps * np.eye(m))
        from wiretap_mimo import secrecy_rate
        ev, u = np.linalg.eigh(pair.w1.entries)
        gains = np.clip(ev[::-1], 0.0, None)
        u = u[:, ::-1]
        res = solve(gains, eps, 2.0)
        cov = (u * res.mode_powers) @ u.conj().T
        assert secrecy_rate(pair, cov) == pytest.approx(res.capacity_nats, abs=1e-9)


def _exact_level(gains, p_total):
    """The water level 1/lam of exact water-filling, in rational arithmetic."""
    inv = sorted(1 / Fraction(g) for g in gains if g > 0)
    p = Fraction(p_total)
    k = 1
    while k < len(inv) and (p + sum(inv[:k + 1])) / (k + 1) > inv[k]:
        k += 1
    return (p + sum(inv[:k])) / k


def test_standard_waterfill_matches_exact_arithmetic():
    # the level is close to 1/g_1 when P_T g_1 is small: powers measured from
    # the level would cancel; they must stay accurate relative to P_T
    rng = np.random.default_rng(11)
    worst = 0.0
    for m in range(1, 6):
        for scale in 10.0 ** np.arange(-6, 4):
            for db in range(-10, 81, 10):
                p = 10.0 ** (db / 10)
                for _ in range(4):
                    g = scale * rng.uniform(0.0, 1.0, m)
                    g[rng.uniform(size=m) < 0.2] = 0.0
                    if not g.any():
                        continue
                    (powers,), (lam,) = standard_waterfill(g, np.array([p]))
                    level = _exact_level(g, p)
                    exact = [max(level - 1 / Fraction(x), 0) if x > 0 else 0
                             for x in g]
                    worst = max(worst, max(abs(float(Fraction(q) - e))
                                           for q, e in zip(powers, exact)) / p)
                    assert abs(float(Fraction(lam) * level - 1)) <= 1e-14
                    if np.count_nonzero(g) == 1:
                        assert powers.sum() == p  # one mode takes exactly P_T
    assert worst <= 1e-14
