import math

import numpy as np
import pytest

from wiretap_mimo import (ChannelPair, ConvergenceError, HermitianMatrix,
                          Objective, OracleConfig, mc_capacity, secrecy_rate,
                          separable_oracle, solve_common_rsv, solve_weak,
                          detect_common_rsv, weak_eavesdropper)
from wiretap_mimo._waterfill import standard_waterfill
from wiretap_mimo.oracle import _factor_map, _grams, _terms
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

    def test_m5_best_r_achieves_best_value(self):
        rng = np.random.default_rng(23)
        pair = ChannelPair.from_gram(random_psd(rng, 5),
                                     random_psd(rng, 5, scale=0.2))
        best, best_r = mc_capacity(pair, 1.0,
                                   cfg=OracleConfig(samples=3_000, seed=29))
        assert best == pytest.approx(secrecy_rate(pair, best_r), abs=1e-9)

    def test_a_failing_closed_form_only_drops_its_candidate(self, monkeypatch):
        # a low-gain pair (both H scaled by 1e-3) at -10 dB, where the weak
        # search stops short of its power tolerance
        rng = np.random.default_rng(0)
        h1, h2 = (1e-3 * (rng.standard_normal((2, 2))
                          + 1j * rng.standard_normal((2, 2))) for _ in range(2))
        low_gain = ChannelPair.from_channels(h1, h2)
        with pytest.raises(ConvergenceError):
            solve_weak(low_gain, 0.1)

        def check(pair, p_total):
            best, best_r = mc_capacity(pair, p_total,
                                       cfg=OracleConfig(samples=1000, seed=1))
            assert math.isfinite(best) and best >= 0.0
            assert best_r.trace() <= p_total * (1 + 1e-12)

        check(low_gain, 0.1)

        # the same path on the fig1 pair, should the weak search ever
        # answer the low-gain pair
        def stalled(pair, p_total):
            raise ConvergenceError("forced", residual=1.0)

        monkeypatch.setattr(weak_eavesdropper, "solve_weak", stalled)
        check(fig1_pair(), 1.0)


def _integer_h(rng, rows, m):
    return rng.integers(-3, 4, (rows, m)) + 1j * rng.integers(-3, 4, (rows, m))


def test_factor_form_matches_slogdet():
    """The oracle's ln|I + W R| and tr(W R), in factor form, against
    slogdet and the trace of the formed complex128 matrices, m = 1 to 5 and
    P_T from 1e-8 to 1e8.

    W is full rank, or H^H H of every lower rank (rank one from a one-row
    H), some with rounding-negative computed eigenvalues.  The rank-deficient H have small
    integer entries, so H^H H is exact, and their reference is slogdet of
    the Sylvester form I + H R H^H: on the m x m product I + W R, slogdet
    itself is off by up to 5e-9 relative at P_T = 1e8 (against 50-digit
    arithmetic, which both the factor form and the Sylvester form meet
    within 3e-14).
    """
    negative = 0
    for m in range(1, 6):
        rng = np.random.default_rng(60 + m)
        n = 64
        f = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        s = np.logspace(-8, 8, n) / np.einsum("nij,nij->n", f.conj(), f).real
        r = s[:, None, None] * (f @ f.conj().transpose(0, 2, 1))
        roots = np.stack([f.real, f.imag], axis=1)
        full = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for h in [full] + [_integer_h(rng, k, m) for k in range(1, m)]:
            w = HermitianMatrix(h.conj().T @ h)
            negative += np.linalg.eigvalsh(w.entries)[0] < 0
            if h.shape[0] == m:
                ref = np.linalg.slogdet(np.eye(m) + w.entries @ r)[1]
            else:
                ref = np.linalg.slogdet(np.eye(h.shape[0])
                                        + h @ r @ h.conj().T)[1]
            maps = [_factor_map(w)] * 2
            logdet, _ = _terms(_grams(maps, roots, Objective.EXACT), s)
            _, leak = _terms(_grams(maps, roots, Objective.WEAK), s)
            trace = np.einsum("ij,nji->n", w.entries, r).real
            assert np.all(np.abs(logdet - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
            assert np.all(np.abs(leak - trace) <= 1e-12 * np.maximum(1.0, trace))
    assert negative > 0


def _golden_pairs():
    rng = np.random.default_rng(4243)

    def h(rows, m):
        return rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))

    pairs = {f"m{m}": ChannelPair.from_channels(h(m, m), 0.3 * h(m, m))
             for m in range(1, 6)}
    pairs.update({f"m{m}-row": ChannelPair.from_channels(h(m, m), h(1, m))
                  for m in (3, 5)})
    return pairs


# best values of mc_capacity(pair, 2.0, objective, OracleConfig(samples=4_000,
# seed=7), include_candidates) as computed when the objective was still
# evaluated on each sample's formed m x m covariance
GOLDEN = {
    "m1": (0.950364873681252, 0.950364873681252,
           0.9078566460779651, 0.9078566460779651),
    "m2": (2.5823145671831735, 2.5823145671831735,
           2.4052595371222942, 2.4051924515421326),
    "m3": (3.442136594176414, 3.430069829078185,
           3.4158510260500172, 3.3765930974046463),
    "m4": (4.205456224703614, 4.10090355039187,
           4.014647341533009, 3.8521438681050624),
    "m5": (6.176346295255826, 5.802058931458896,
           6.081922136290636, 5.5937091287560765),
    "m3-row": (3.3812378605134406, 3.348588241495079,
               3.381013364219588, 3.348468609476991),
    "m5-row": (6.287899596455248, 5.834849480185264,
               6.285067563568469, 5.607941217446008),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_best_values_match_formed_covariance_golden(name):
    pair = _golden_pairs()[name]
    runs = [(objective, cand) for objective in (Objective.EXACT, Objective.WEAK)
            for cand in (True, False)]
    for (objective, cand), expected in zip(runs, GOLDEN[name]):
        best, best_r = mc_capacity(pair, 2.0, objective,
                                   OracleConfig(samples=4_000, seed=7), cand)
        assert best == pytest.approx(expected, rel=1e-12)
        assert best_r.is_psd()
        assert best_r.trace() <= 2.0 * (1 + 1e-12)


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


def _grid_cases():
    rng = np.random.default_rng(71)

    def h(m):
        return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

    general = {m: ChannelPair.from_channels(h(m), 0.5 * h(m)) for m in (2, 3, 4)}
    w1 = random_psd(rng, 2)
    # W2 >= W1: every value is 0 and refinement is skipped
    dominated = ChannelPair.from_gram(w1, w1 + random_psd(rng, 2, scale=0.1))
    return [(general[2], Objective.EXACT, True, 3),
            (general[3], Objective.WEAK, False, 0),
            (general[4], Objective.WEAK, True, 3),
            (general[2], Objective.EXACT, False, 0),
            (dominated, Objective.EXACT, True, 3)]


def test_an_oracle_point_alone_equals_the_same_point_in_a_grid():
    """One pass over the sample stream serves every power of a grid, and
    each power's value and covariance are the bytes of that power solved
    alone: EXACT and WEAK, candidates on and off, 0 and 3 refinement rounds,
    m = 2 to 4, and a partial last chunk (40,000 samples)."""
    grid = 10.0 ** (np.linspace(-10.0, 30.0, 5) / 10.0)
    zeros = 0
    for pair, objective, cand, rounds in _grid_cases():
        cfg = OracleConfig(samples=40_000, seed=3, refine_rounds=rounds)
        outs = mc_capacity(pair, grid, objective, cfg, cand)
        assert len(outs) == grid.size
        for p_total, (best, best_r) in zip(grid, outs):
            alone, alone_r = mc_capacity(pair, float(p_total), objective, cfg, cand)
            assert best == alone
            assert best_r.entries.tobytes() == alone_r.entries.tobytes()
            zeros += best == 0.0
    assert zeros == grid.size  # the dominated pair, and only it
