import math

import numpy as np
import pytest

from wiretap_mimo import (ChannelPair, Objective, OracleConfig, mc_capacity,
                          secrecy_rate, separable_oracle, solve_common_rsv,
                          detect_common_rsv)
from wiretap_mimo._waterfill import standard_waterfill
from util import fig1_pair, random_commuting_pair, random_psd


class TestMcCapacity:
    def test_identical_channels_give_zero(self):
        w = np.array([[1.0, 0.3], [0.3, 0.7]])
        pair = ChannelPair.from_gram(w, w)
        best, best_r = mc_capacity(pair, 2.0, cfg=OracleConfig(samples=5_000, seed=1))
        assert best == 0.0
        assert np.all(best_r.entries == 0)

    def test_finds_waterfilling_optimum_unseeded(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        cfg = OracleConfig(samples=200_000, seed=11)
        best, _ = mc_capacity(pair, 1.5, cfg=cfg, include_candidates=False)
        target = math.log(3) + math.log(1.5)
        assert abs(best - target) <= 5e-3
        assert best <= target + 1e-9

    def test_candidate_seeding_makes_check_one_sided(self):
        pair = fig1_pair()
        from wiretap_mimo import capacity_bounds_weak
        bounds = capacity_bounds_weak(pair, 1.0)
        best, _ = mc_capacity(pair, 1.0, cfg=OracleConfig(samples=2_000, seed=2))
        # the achievable mid value is in the candidate pool
        assert best >= bounds.mid_nats - 1e-12

    def test_never_exceeds_known_capacity(self):
        rng = np.random.default_rng(3)
        pair, *_ = random_commuting_pair(rng, 3, lam2_scale=0.5)
        exact = solve_common_rsv(detect_common_rsv(pair), 2.0).capacity_nats
        best, _ = mc_capacity(pair, 2.0, cfg=OracleConfig(samples=50_000, seed=4))
        assert best <= exact + 1e-9

    def test_best_r_achieves_best_value(self):
        pair = fig1_pair()
        best, best_r = mc_capacity(pair, 1.0,
                                   cfg=OracleConfig(samples=10_000, seed=5))
        assert secrecy_rate(pair, best_r) == pytest.approx(best, abs=1e-9)
        assert best_r.trace() <= 1.0 * (1 + 1e-9)

    def test_deterministic_for_fixed_seed(self):
        pair = fig1_pair()
        cfg = OracleConfig(samples=20_000, seed=42)
        a, _ = mc_capacity(pair, 1.0, cfg=cfg)
        b, _ = mc_capacity(pair, 1.0, cfg=cfg)
        assert a == b

    def test_nested_streams_are_monotone_in_samples(self):
        pair = fig1_pair()
        vals = []
        for n in (10_000, 20_000, 40_000):
            cfg = OracleConfig(samples=n, seed=8, refine_rounds=0)
            v, _ = mc_capacity(pair, 1.0, cfg=cfg, include_candidates=False)
            vals.append(v)
        assert vals[0] <= vals[1] <= vals[2]

    def test_refinement_only_improves(self):
        pair = fig1_pair()
        base, _ = mc_capacity(pair, 1.0,
                              cfg=OracleConfig(samples=5_000, seed=13,
                                               refine_rounds=0),
                              include_candidates=False)
        refined, _ = mc_capacity(pair, 1.0,
                                 cfg=OracleConfig(samples=5_000, seed=13,
                                                  refine_rounds=3),
                                 include_candidates=False)
        assert refined >= base

    def test_weak_objective(self):
        pair = fig1_pair()
        from wiretap_mimo import solve_weak
        res = solve_weak(pair, 1.0)
        best, _ = mc_capacity(pair, 1.0, Objective.WEAK,
                              OracleConfig(samples=5_000, seed=17))
        assert best == pytest.approx(res.capacity_nats, abs=1e-9)

    def test_real_channel_stays_below_capacity(self):
        # complex samples include every real covariance
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        cfg = OracleConfig(samples=50_000, seed=19)
        best, _ = mc_capacity(pair, 1.5, cfg=cfg, include_candidates=False)
        assert best <= math.log(3) + math.log(1.5) + 1e-9

    def test_larger_m_uses_slogdet_path(self):
        rng = np.random.default_rng(23)
        pair = ChannelPair.from_gram(random_psd(rng, 5),
                                     random_psd(rng, 5, scale=0.2))
        best, best_r = mc_capacity(pair, 1.0,
                                   cfg=OracleConfig(samples=3_000, seed=29))
        assert best == pytest.approx(secrecy_rate(pair, best_r), abs=1e-9)


class TestSeparableOracle:
    def test_no_leakage_equals_waterfilling(self):
        gains = np.array([2.0, 1.0, 0.4])
        powers, _ = standard_waterfill(gains, 2.0)
        wf_value = float(np.sum(np.log1p(gains * powers)))
        assert separable_oracle(gains, np.zeros(3), 2.0) == pytest.approx(
            wf_value, abs=1e-8)

    def test_single_mode_value(self):
        got = separable_oracle([2.0], [0.5], 0.5)
        assert got == pytest.approx(math.log(2) - math.log(1.25), abs=1e-10)

    def test_dominated_modes_contribute_nothing(self):
        assert separable_oracle([1.0, 0.5], [2.0, 0.5], 3.0) == 0.0

    def test_value_is_achievable_upper_bounded_by_closed_form(self):
        from wiretap_mimo import IsotropicProblem, solve_isotropic
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            g = np.sort(rng.uniform(0.05, 5.0, m))[::-1]
            eps = float(rng.uniform(1e-3, g[0]))
            p = float(rng.uniform(0.05, 30.0))
            cap = solve_isotropic(IsotropicProblem(g, eps, p)).capacity_nats
            orc = separable_oracle(g, np.full(m, eps), p)
            assert orc <= cap + 1e-9
            assert abs(orc - cap) <= 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            separable_oracle([1.0, 2.0], [0.5], 1.0)
        with pytest.raises(ValueError):
            separable_oracle([1.0], [-0.5], 1.0)
        with pytest.raises(ValueError):
            separable_oracle([1.0], [0.5], 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(samples=0)
    with pytest.raises(ValueError):
        OracleConfig(refine_rounds=-1)
    for bad in ({"samples": 1.5}, {"seed": 1.5}, {"refine_rounds": 0.5},
                {"samples": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            OracleConfig(**bad)
