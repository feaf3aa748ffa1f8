import gc
import math
import tracemalloc

import numpy as np
import pytest

from wiretap_mimo import (ChannelPair, ConvergenceError, HermitianMatrix,
                          Objective, OracleConfig, mc_capacity, oracle, secrecy_rate,
                          separable_oracle, solve_common_rsv, solve_weak,
                          detect_common_rsv, weak_eavesdropper)
from wiretap_mimo._waterfill import standard_waterfill
from wiretap_mimo.oracle import _factor_map, _Scorer
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

    def test_a_failing_point_drops_only_its_own_candidate_in_a_grid(self, monkeypatch):
        # the weak solve raises at one power of a 4-power grid: every power's
        # value and covariance are the bytes of that power run alone
        pair, grid = fig1_pair(), np.array([0.2, 1.0, 5.0, 25.0])
        real, failed = weak_eavesdropper.solve_weak, []

        def flaky(pair, p_total):
            if (np.asarray(p_total) == grid[1]).any():
                failed.append(p_total)
                raise ConvergenceError("forced", residual=1.0)
            return real(pair, p_total)

        monkeypatch.setattr(weak_eavesdropper, "solve_weak", flaky)
        cfg = OracleConfig(samples=1000, seed=3)
        outs = mc_capacity(pair, grid, cfg=cfg)
        assert failed
        for p_total, (best, best_r) in zip(grid, outs):
            alone, alone_r = mc_capacity(pair, float(p_total), cfg=cfg)
            assert np.float64(best).tobytes() == np.float64(alone).tobytes()
            assert best_r.entries.tobytes() == alone_r.entries.tobytes()

    def test_a_call_with_candidates_leaves_no_cyclic_garbage(self):
        # every object of a call, at one power or over a grid, is freed by
        # reference counting, so none waits for the cyclic collector
        pair, cfg = fig1_pair(), OracleConfig(samples=500, seed=1, refine_rounds=1)
        mc_capacity(pair, 1.0, cfg=cfg)  # the pair's facts, kept on the pair
        gc.collect()
        gc.disable()
        try:
            mc_capacity(pair, 1.0, cfg=cfg)
            mc_capacity(pair, np.array([0.5, 1.0]), cfg=cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _integer_h(rng, rows, m):
    return rng.integers(-3, 4, (rows, m)) + 1j * rng.integers(-3, 4, (rows, m))


def _factor_terms(maps, objective, roots, s):
    scorer = _Scorer(maps, objective, len(roots))
    scorer.roots[:len(roots)] = roots
    scorer.load(len(roots))
    return [t.copy() for t in scorer.terms(s)]


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
            logdet, _ = _factor_terms(maps, Objective.EXACT, roots, s)
            _, leak = _factor_terms(maps, Objective.WEAK, roots, s)
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
    m = 2 to 4, and a partial last chunk (a chunk and a third of samples)."""
    grid = 10.0 ** (np.linspace(-10.0, 30.0, 5) / 10.0)
    zeros = 0
    for pair, objective, cand, rounds in _grid_cases():
        samples = oracle._chunk_samples(pair.m) * 4 // 3
        cfg = OracleConfig(samples=samples, seed=3, refine_rounds=rounds)
        outs = mc_capacity(pair, grid, objective, cfg, cand)
        assert len(outs) == grid.size
        for p_total, (best, best_r) in zip(grid, outs):
            alone, alone_r = mc_capacity(pair, float(p_total), objective, cfg, cand)
            assert best == alone
            assert best_r.entries.tobytes() == alone_r.entries.tobytes()
            zeros += best == 0.0
    assert zeros == grid.size  # the dominated pair, and only it


def _bytes(outs):
    return [(np.float64(best).tobytes(), best_r.entries.tobytes()) for best, best_r in outs]


def test_chunking_never_changes_a_result(monkeypatch):
    """The sample pass's chunk size is invisible: chunks of one sample, of a
    prime count, of the default size and of more than every sample give the
    same value and covariance bytes.  EXACT and WEAK, candidates on and off,
    0 and 3 refinement rounds, m = 2 to 4, on a 3-power grid; a small run
    takes every size, and a run one third of a chunk past the default chunk
    takes a prime chunk, the default and one chunk for all."""
    default = oracle._chunk_samples
    grid = np.array([0.3, 5.0, 80.0])
    rng = np.random.default_rng(83)
    for m in (2, 3, 4):
        h1, h2 = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                  for _ in range(2))
        pair = ChannelPair.from_channels(h1, 0.5 * h2)
        for samples, sizes in ((60, (1, 7, default(m), 61)),
                               (default(m) * 4 // 3, (1031, default(m), 10 ** 6))):
            runs = []
            for size in sizes:
                monkeypatch.setattr(oracle, "_chunk_samples", lambda _, size=size: size)
                runs.append([_bytes(mc_capacity(pair, grid, objective, OracleConfig(
                    samples=samples, seed=5, refine_rounds=rounds), cand))
                    for objective in Objective for cand in (False, True)
                    for rounds in (0, 3)])
            assert all(run == runs[0] for run in runs), (m, samples)


def test_peak_memory_is_flat_in_m():
    """The sample pass and the refinement run in a working set fixed in
    bytes: one call's peak traced memory (50,000 samples, 2 powers) at m = 8
    stays within twice that budget and within 1.5 times its peak at m = 2
    (chunks of 32,768 samples took 9 MiB at m = 2 and 129 MiB at m = 8)."""
    rng = np.random.default_rng(89)
    peaks = {}
    for m in (2, 8):
        h1, h2 = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                  for _ in range(2))
        pair = ChannelPair.from_channels(h1, 0.5 * h2)
        tracemalloc.start()
        try:
            mc_capacity(pair, np.array([1.0, 10.0]), cfg=OracleConfig(samples=50_000, seed=1))
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= 2 * oracle._WORKSET_BYTES
    assert peaks[8] <= 1.5 * peaks[2]


def test_the_oracle_refuses_powers_past_its_float_ceiling():
    """Past P_T * lambda_max(W1) = 1e11 the oracle's float rates lose their
    accuracy, so it raises ValueError at entry, for one power and for a grid
    with any point past it.  On W1 = diag(3, 1, 0.5), W2 = diag(1, 2, 1) it
    answered 1.2228 at P_T = 1e16 against the exact ln 3 = 1.0986, and it
    raised on its own covariance at 1e308; at 1e8 it answers ln 3 to 1e-8."""
    pair = ChannelPair.from_gram(np.diag([3.0, 1.0, 0.5]), np.diag([1.0, 2.0, 1.0]))
    cfg = OracleConfig(samples=2_000, seed=3)
    best, _ = mc_capacity(pair, 1e8, cfg=cfg)
    assert best == pytest.approx(math.log(3.0), rel=1e-8)
    for p_total in (1e16, 1e20, 1e308, np.array([1.0, 1e8, 1e16])):
        with pytest.raises(ValueError, match="lambda_max"):
            mc_capacity(pair, p_total, cfg=cfg)
