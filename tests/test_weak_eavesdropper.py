import math

import numpy as np
import pytest

from wiretap_mimo import (ChannelPair, NotApplicableError, Objective,
                          OracleConfig, SolveStatus,
                          capacity_bounds_weak,
                          kkt_residual_weak, mc_capacity,
                          saturation_capacities, solve_weak,
                          threshold_power, weak_rate)
from util import fig1_pair, random_commuting_pair, random_psd, random_unitary


class TestSolveWeak:
    def test_reduces_to_waterfilling_without_eavesdropper(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        res = solve_weak(pair, 1.5)
        assert np.allclose(np.diag(res.covariance.entries), [1.0, 0.5], atol=1e-10)
        assert res.lagrange_lambda == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert res.capacity_nats == pytest.approx(math.log(3) + math.log(1.5),
                                                  abs=1e-10)

    def test_dominated_channel_gives_zero_rate(self):
        pair = ChannelPair.from_gram(0.5 * np.eye(2), np.eye(2))
        res = solve_weak(pair, 5.0)
        assert res.status is SolveStatus.ZERO_RATE
        assert res.capacity_nats == 0.0
        assert np.all(res.covariance.entries == 0)

    def test_capacity_equals_weak_rate_of_returned_covariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            pair = ChannelPair.from_gram(random_psd(rng, m),
                                         random_psd(rng, m, scale=0.3))
            res = solve_weak(pair, float(rng.uniform(0.2, 8.0)))
            direct = weak_rate(pair, res.covariance)
            assert res.capacity_nats == pytest.approx(max(direct, 0.0), abs=1e-9)

    def test_fig1_matches_weak_objective_oracle(self):
        pair = fig1_pair()
        res = solve_weak(pair, 1.0)
        cfg = OracleConfig(samples=30_000, seed=21)
        best, _ = mc_capacity(pair, 1.0, Objective.WEAK, cfg)
        assert best == pytest.approx(res.capacity_nats, abs=1e-9)

    def test_random_sampling_never_beats_weak_optimum(self):
        # the weak problem is concave, so the solver value is a true maximum
        pair = fig1_pair()
        res = solve_weak(pair, 2.0)
        cfg = OracleConfig(samples=50_000, seed=31)
        best, _ = mc_capacity(pair, 2.0, Objective.WEAK, cfg,
                              include_candidates=False)
        assert best <= res.capacity_nats + 1e-9

    def test_scalar_channel_closed_form(self):
        pair = ChannelPair.from_gram(np.array([[2.0]]), np.array([[0.25]]))
        # maximize ln(1+2r) - 0.25 r: unconstrained optimum r = 1/0.25 - 1/2
        res = solve_weak(pair, 10.0)
        r_star = 1 / 0.25 - 1 / 2
        assert res.power_used == pytest.approx(r_star, abs=1e-9)
        assert res.capacity_nats == pytest.approx(
            math.log(1 + 2 * r_star) - 0.25 * r_star, abs=1e-10)

    def test_commuting_pairs_match_the_per_mode_closed_form(self):
        # in a shared eigenbasis v the weak optimum is diagonal with powers
        # (1/(lam + l2_i) - 1/l1_i)_+ at its multiplier, 0 where l1_i = 0
        rng = np.random.default_rng(23)
        cases = []
        for _ in range(15):
            m = int(rng.integers(2, 5))
            _, v, lam1, lam2 = random_commuting_pair(rng, m, lam2_scale=0.5)
            cases.append((v, lam1, lam2, float(rng.uniform(0.2, 6.0))))
        v = random_unitary(rng, 3)
        structures = [
            ([2.0, 1.0, 0.5], [0.3, 0.2, 0.1]),  # generic
            ([2.0, 1.0, 0.5], [0.0, 0.2, 0.1]),  # W1 uses a W2 null direction
            ([2.0, 1.0, 0.0], [0.3, 0.2, 0.0]),  # a shared null direction
            ([2.0, 0.0, 0.5], [0.3, 0.2, 0.1]),  # a W1 null direction
            ([0.5, 0.4, 0.1], [1.0, 0.6, 0.2]),  # dominated
            ([1.5, 1.5, 0.5], [0.2, 0.2, 0.1]),  # repeated eigenvalues
        ]
        # below and above the threshold power where it is finite
        cases += [(v, np.array(l1), np.array(l2), p_total)
                  for l1, l2 in structures for p_total in (0.5, 20.0)]
        for v, lam1, lam2, p_total in cases:
            pair = ChannelPair.from_gram((v * lam1) @ v.conj().T,
                                         (v * lam2) @ v.conj().T)
            res = solve_weak(pair, p_total)
            lam = res.lagrange_lambda
            with np.errstate(divide="ignore", invalid="ignore"):
                p = np.where(lam1 > 0, np.maximum(
                    1.0 / (lam + lam2) - 1.0 / lam1, 0.0), 0.0)
            rotated = v.conj().T @ res.covariance.entries @ v
            assert np.allclose(rotated, np.diag(p), atol=1e-7)
            assert res.capacity_nats == pytest.approx(
                float(np.sum(np.log1p(lam1 * p) - lam2 * p)), abs=1e-9)

    def test_active_mode_rule_on_common_basis(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            m = int(rng.integers(2, 5))
            pair, v, lam1, lam2 = random_commuting_pair(rng, m, lam2_scale=0.5)
            res = solve_weak(pair, float(rng.uniform(0.2, 4.0)))
            lam = res.lagrange_lambda
            # recover per-mode powers in the shared basis
            p = np.einsum("ij,jk,ik->i", v.conj().T, res.covariance.entries, v.T).real
            active = p > 1e-12
            assert np.array_equal(active, lam1 > lam + lam2)

    def test_power_constraint_and_saturation(self):
        pair = fig1_pair()
        p_star = threshold_power(pair)
        below = solve_weak(pair, 0.5 * p_star)
        assert below.power_used == pytest.approx(0.5 * p_star, abs=1e-9)
        above = solve_weak(pair, 3.0 * p_star)
        assert above.power_used == pytest.approx(p_star, abs=1e-6)
        assert above.lagrange_lambda == 0.0
        far = solve_weak(pair, 6.0 * p_star)
        assert far.capacity_nats == pytest.approx(above.capacity_nats, abs=1e-12)

    def test_lambda_strictly_decreasing_below_threshold(self):
        pair = fig1_pair()
        p_star = threshold_power(pair)
        lams = [solve_weak(pair, p).lagrange_lambda
                for p in np.linspace(0.1, 0.9 * p_star, 12)]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            solve_weak(fig1_pair(), 0.0)

    def test_general_path_projects_shared_nullspace(self):
        # non-commuting on the active block, common nullspace direction e3:
        # the lam = 0 branch must run on the pseudo-inverse of W2
        w1 = np.zeros((3, 3))
        w1[:2, :2] = np.array([[2.0, 0.0], [0.0, 1.0]])
        w2 = np.zeros((3, 3))
        w2[:2, :2] = 0.1 * np.array([[2.0, 1.0], [1.0, 1.0]])
        pair = ChannelPair.from_gram(w1, w2)
        p_star = threshold_power(pair)
        assert math.isfinite(p_star)
        res = solve_weak(pair, 2.0 * p_star)
        assert res.lagrange_lambda == 0.0
        assert res.power_used == pytest.approx(p_star, abs=1e-9)
        # no power escapes into the shared nullspace
        assert abs(res.covariance.entries[2, 2]) <= 1e-12
        assert res.capacity_nats == pytest.approx(
            weak_rate(pair, res.covariance), abs=1e-9)
        # and matches the same channel restricted to the active block
        small = ChannelPair.from_gram(w1[:2, :2], w2[:2, :2])
        res2 = solve_weak(small, 2.0 * p_star)
        assert res.capacity_nats == pytest.approx(res2.capacity_nats, abs=1e-9)


class TestThresholdPower:
    def test_fig1_value(self):
        assert threshold_power(fig1_pair()) == pytest.approx(28.5, abs=0.1)

    def test_free_direction_is_infinite(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.diag([0.1, 0.0]))
        assert threshold_power(pair) == math.inf

    def test_equal_channels_give_zero(self):
        pair = ChannelPair.from_gram(np.eye(2), np.eye(2))
        assert threshold_power(pair) == pytest.approx(0.0, abs=1e-12)

    def test_projected_case_matches_diagonal_formula(self):
        # N(W2) inside N(W1): both are projected orthogonally to it
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0, 0.0]),
                                     np.diag([0.5, 0.25, 0.0]))
        expected = (1 / 0.5 - 1 / 2.0) + (1 / 0.25 - 1 / 1.0)
        assert threshold_power(pair) == pytest.approx(expected, abs=1e-10)


class TestCapacityBoundsWeak:
    def test_exact_without_eavesdropper(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        b = capacity_bounds_weak(pair, 1.5)
        assert b.gap_bound_nats == 0.0
        assert b.lower_nats == pytest.approx(b.upper_nats, abs=1e-12)
        assert b.mid_nats == pytest.approx(b.lower_nats, abs=1e-9)

    def test_fig1_gap_value(self):
        b = capacity_bounds_weak(fig1_pair(), 1.0)
        lam2_max = 0.1 * (3 + math.sqrt(5)) / 2
        assert b.gap_bound_nats == pytest.approx(0.5 * lam2_max ** 2, abs=1e-12)
        assert b.gap_bound_nats == pytest.approx(0.0343, abs=2e-4)
        assert b.lower_nats <= b.mid_nats <= b.upper_nats

    def test_low_power_limit(self):
        b = capacity_bounds_weak(fig1_pair(), 1e-4)
        assert b.upper_nats < 1e-3
        assert b.mid_nats / b.lower_nats == pytest.approx(1.0, abs=1e-3)


class TestSaturationCapacities:
    def test_fig1_values(self):
        exact, weak = saturation_capacities(fig1_pair())
        assert exact == pytest.approx(math.log(200.0), abs=1e-12)
        assert weak == pytest.approx(math.log(200.0) - 1.8, abs=1e-12)

    def test_scalar_ratio(self):
        pair = ChannelPair.from_gram(math.e * np.eye(2), np.eye(2))
        exact, _ = saturation_capacities(pair)
        assert exact == pytest.approx(2.0, abs=1e-12)

    def test_weak_saturation_matches_solver_limit(self):
        pair = fig1_pair()
        _, weak = saturation_capacities(pair)
        res = solve_weak(pair, 10.0 * threshold_power(pair))
        assert res.capacity_nats == pytest.approx(weak, abs=1e-6)

    def test_not_applicable_outside_strict_ordering(self):
        with pytest.raises(NotApplicableError):
            saturation_capacities(ChannelPair.from_gram(np.diag([2.0, 1.0]),
                                                        np.diag([0.1, 0.0])))
        with pytest.raises(NotApplicableError):
            saturation_capacities(ChannelPair.from_gram(np.eye(2), 2 * np.eye(2)))


class TestKktResidualWeak:
    def test_solver_output_satisfies_kkt(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            pair = ChannelPair.from_gram(random_psd(rng, m),
                                         random_psd(rng, m, scale=0.2))
            p = float(rng.uniform(0.3, 5.0))
            res = solve_weak(pair, p)
            resid = kkt_residual_weak(pair, res.covariance,
                                      res.lagrange_lambda, p)
            assert resid.max() <= 1e-8

    def test_perturbed_inactive_mode_breaks_slackness(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        res = solve_weak(pair, 0.4)  # only the strongest mode is active
        assert res.active_modes == 1
        bad = np.array(res.covariance.entries)
        bad[1, 1] += 0.1
        resid = kkt_residual_weak(pair, bad, res.lagrange_lambda, 0.4)
        assert resid.complementary_slackness > 1e-3

    def test_null_solution_boundary(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        resid = kkt_residual_weak(pair, np.zeros((2, 2)), 2.0, 0.0)
        assert resid.dual_feasibility == pytest.approx(0.0, abs=1e-12)
        assert resid.complementary_slackness == 0.0
        assert resid.power_slackness == 0.0


def test_bound_chain_on_random_channels():
    rng = np.random.default_rng(41)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        pair = ChannelPair.from_gram(random_psd(rng, m),
                                     random_psd(rng, m, scale=0.15))
        p = float(rng.uniform(0.3, 3.0))
        b = capacity_bounds_weak(pair, p)
        cfg = OracleConfig(samples=20_000, seed=int(rng.integers(1 << 30)))
        c_mc, _ = mc_capacity(pair, p, Objective.EXACT, cfg)
        assert b.lower_nats <= b.mid_nats + 1e-9
        assert b.mid_nats <= c_mc + 5e-3
        assert c_mc <= b.upper_nats + 5e-3
