"""The multiplier root-finder: every SNR answered, scale-free, few evaluations."""

import dataclasses
import math
from collections.abc import Sequence

import numpy as np
import pytest

from wiretap_mimo import (CapacityBounds, ChannelPair, IsotropicProblem,
                          NotCommutingError, SolveResult, SolveStatus, Verdict,
                          capacity_bounds_isotropic, capacity_bounds_weak,
                          construct_is_optimal_channel,
                          construct_wf_optimal_channel, is_certify, mc_capacity,
                          secrecy_rate, separable_oracle, solve_auto, solve_common_rsv,
                          solve_omni, solve_weak, solve_weak_with_bounds,
                          threshold_powers, wf_certify, zf_certify)
from wiretap_mimo import _waterfill, certificates, core, weak_eavesdropper
from util import fig1_pair, random_commuting_pair, random_psd, random_unitary

SWEEP_DB = np.arange(-10.0, 81.0, 2.0)


def _rank_deficient(rng, m, scale=1.0):
    h2 = rng.standard_normal((1, m)) + 1j * rng.standard_normal((1, m))
    return ChannelPair.from_gram(random_psd(rng, m), scale * (h2.conj().T @ h2))


def _noncontained_omni(rng, m):
    u = random_unitary(rng, m)[:, :max(1, m - 1)]
    return ChannelPair.from_gram(random_psd(rng, m),
                                 rng.uniform(0.2, 2.0) * (u @ u.conj().T))


def _nearly_contained(rng, m):
    # W2 = eps U U^H of rank m - 1 and W1 = G G^H, with G inside span(U) but
    # for a leak of relative amplitude 1e-7: W1's gain on W2's nullspace is
    # ~1e-14 of its largest, which the rank rule counts as zero
    v = random_unitary(rng, m)
    u = v[:, :m - 1]
    g = u @ (rng.standard_normal((m - 1, m - 1))
             + 1j * rng.standard_normal((m - 1, m - 1)))
    leak = np.outer(v[:, m - 1], rng.standard_normal(m - 1))
    g = g + 1e-7 * np.linalg.norm(g) / np.linalg.norm(leak) * leak
    return ChannelPair.from_gram(g @ g.conj().T,
                                 rng.uniform(0.2, 2.0) * (u @ u.conj().T))


CLASSES = {
    "commuting": lambda rng, m: random_commuting_pair(rng, m)[0],
    "general": lambda rng, m: ChannelPair.from_gram(random_psd(rng, m),
                                                    random_psd(rng, m)),
    "rank_deficient": _rank_deficient,
    "omni_noncontained": _noncontained_omni,
}
# a one-row eavesdropper 20 dB stronger: at high SNR the multiplier falls
# below RANK_TOL * max(W2)
SWEEP_CLASSES = {**CLASSES, "rank_deficient_strong":
                 lambda rng, m: _rank_deficient(rng, m, 100.0),
                 "nearly_contained": _nearly_contained}


@pytest.mark.parametrize("kind", sorted(SWEEP_CLASSES))
def test_every_point_of_a_high_snr_sweep_is_answered(kind):
    rng = np.random.default_rng(41)
    for m in range(2, 6):
        for _ in range(2):
            pair = SWEEP_CLASSES[kind](rng, m)
            for db in SWEEP_DB:
                p_total = 10.0 ** (db / 10.0)
                for _, out in solve_auto(pair, p_total):
                    value = getattr(out, "capacity_nats", None)
                    if value is None:
                        value = out.upper_nats
                    assert math.isfinite(value)


def _zero_gain_commuting(rng, m):
    # a shared basis where W1 has zero gains and W2 leaks nothing on some modes
    pair, v, lam1, lam2 = random_commuting_pair(rng, m)
    lam1[rng.permutation(m)[:m // 2]] = 0.0
    lam2[rng.permutation(m)[:(m + 1) // 2]] = 0.0
    return ChannelPair.from_gram((v * lam1) @ v.conj().T, (v * lam2) @ v.conj().T)


def _zero_gain_general(rng, m):
    # W1 of rank m - 1 against a general W2
    g = rng.standard_normal((m, m - 1)) + 1j * rng.standard_normal((m, m - 1))
    return ChannelPair.from_gram(g @ g.conj().T, random_psd(rng, m))


def _fingerprint(outcome):
    """Everything ``solve_auto`` says at one power, floats and arrays as bits."""
    return [part for name, res in outcome for part in [name] + _fields(res)]


def _fields(res):
    """A SolveResult's fields (with its bounds) or a CapacityBounds' values,
    floats and arrays as bits."""
    bounds = getattr(res, "bounds", res)  # the isotropic row is bounds only
    out = []
    if bounds is not res:
        out += [res.status, res.active_modes, res.capacity_nats,
                res.lagrange_lambda, res.power_used, res.covariance.entries.dtype,
                res.covariance.entries.tobytes(), res.mode_powers.tobytes()]
    if bounds is not None:
        out += [bounds.lower_nats, bounds.mid_nats, bounds.upper_nats,
                bounds.gap_bound_nats]
    return out


def _grid_solvers(pair):
    """Every grid solver that applies to ``pair``, by name."""
    solvers = {"weak": solve_weak, "weak_with_bounds": solve_weak_with_bounds,
               "bounds_weak": capacity_bounds_weak,
               "bounds_isotropic": capacity_bounds_isotropic}
    if pair.w2.spectrum()[0] == 0:  # the isotropic sandwich needs W2 nonzero
        del solvers["bounds_isotropic"]
    if pair.omni().is_omni:
        solvers["omni"] = solve_omni
    try:
        channel = pair.common_basis()
    except NotCommutingError:
        pass
    else:
        solvers["rsv"] = lambda _, p: solve_common_rsv(channel, p)
    return solvers


def test_a_point_solved_alone_equals_the_same_point_in_a_grid():
    # each point of a grid follows its own search, so its answer does not
    # depend on the grid around it: path, status, active modes, capacity,
    # bounds, multiplier and covariance are bit-identical (a RuntimeWarning
    # on the way fails the suite, e.g. a division on a zero-gain mode)
    rng = np.random.default_rng(67)
    grid = 10.0 ** (SWEEP_DB / 10.0)
    makers = {**SWEEP_CLASSES, "zero_gain_commuting": _zero_gain_commuting,
              "zero_gain_general": _zero_gain_general}
    for i, kind in enumerate(sorted(makers)):
        for m in (2 + i % 4, 2 + (i + 2) % 4):  # every class at two of m = 2-5
            pair = makers[kind](rng, m)
            together = solve_auto(pair, grid)
            assert len(together) == grid.size
            for p_total, outcome in zip(grid, together):
                alone = solve_auto(pair, float(p_total))
                assert _fingerprint(alone) == _fingerprint(outcome)
            # a grid's len, indexing and iteration give per-point views,
            # each the bits of the one-power call, which is no sequence
            for name, solve in _grid_solvers(pair).items():
                outs = solve(pair, grid)
                assert len(outs) == grid.size, name
                viewed = [_fields(outs[i]) for i in range(-grid.size, grid.size)]
                assert viewed[grid.size:] == viewed[:grid.size] == [
                    _fields(res) for res in outs], name
                for p_total, view in zip(grid, viewed):
                    alone = solve(pair, float(p_total))
                    assert isinstance(alone, (SolveResult, CapacityBounds))
                    assert not isinstance(alone, Sequence)
                    assert _fields(alone) == view, name
                with pytest.raises(IndexError):
                    outs[grid.size]


def _scaled(pair, s):
    return ChannelPair.from_gram(s * pair.w1.entries, s * pair.w2.entries)


def _scaling_cases():
    # P_T * ||W|| from 1e-2 to 1e8 and scaled powers from 1e-8 to 1e20:
    # the stopping rule is relative to P_T at every power
    rng = np.random.default_rng(43)
    yield fig1_pair(), 1e-12, 1.0
    for s in (1e-12, 1e-6, 1e-3):
        for make in CLASSES.values():
            for _ in range(3):
                yield (make(rng, int(rng.integers(2, 6))), s,
                       10.0 ** rng.uniform(0, 8))
    for s in (1e3, 1e6):
        for make in CLASSES.values():
            for _ in range(3):
                yield (make(rng, int(rng.integers(2, 6))), s,
                       10.0 ** rng.uniform(-2, 0))


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
    # each power starts on its active piece, from its pair's table (one
    # batched evaluation per pair, kept on the pair), and steps on a
    # value/slope/curvature model: at most four evaluations per solve
    calls = []
    evaluate = weak_eavesdropper._evaluate
    monkeypatch.setattr(weak_eavesdropper, "_evaluate",
                        lambda *a: calls.append(1) or evaluate(*a))
    rng = np.random.default_rng(59)
    pairs = [CLASSES[kind](rng, m)
             for kind in ("commuting", "general", "rank_deficient")
             for m in range(2, 6)]
    # each threshold power reads its pair's table, built here, once per pair
    limits = [weak_eavesdropper.threshold_power(pair) for pair in pairs]
    assert len(calls) == len(pairs)
    counts = []
    for db in SWEEP_DB:
        p_total = 10.0 ** (db / 10.0)
        for pair, limit in zip(pairs, limits):
            if p_total < limit:  # below the threshold the search runs
                calls.clear()
                solve_weak(pair, p_total)
                counts.append(len(calls))
    assert np.mean(counts) <= 3.5
    assert max(counts) <= 4


@pytest.mark.parametrize("kind", ["general", "rank_deficient"])
def test_a_low_snr_search_never_evaluates_zero_trace(kind, monkeypatch):
    # at P_T lambda_max(W1) from 1e-3 to 1e-1 each power starts below the
    # first activation multiplier, where the trace is positive: no
    # evaluation of the search returns trace 0, and every power is met
    traces = []
    evaluate = weak_eavesdropper._evaluate

    def counted(*args):
        out = evaluate(*args)
        traces.extend(out[0])
        return out
    monkeypatch.setattr(weak_eavesdropper, "_evaluate", counted)
    rng = np.random.default_rng(71)
    snr = np.logspace(-3.0, -1.0, 9)
    for m in range(2, 6):
        for _ in range(3):
            pair = CLASSES[kind](rng, m)
            pair.fact("weak_table", weak_eavesdropper._weak_table)
            traces.clear()
            p_total = snr / pair.w1.spectrum()[0]
            res = solve_weak(pair, p_total)
            assert traces and min(traces) > 0.0
            np.testing.assert_allclose(res.power_used, p_total, rtol=1e-11)
            for p in p_total:
                traces.clear()
                solve_weak(pair, float(p))
                assert traces and min(traces) > 0.0


def _contained_rank_deficient(rng, m):
    # W2 of rank m - 1 and W1 inside its range, of rank m - 2 when m > 2
    g = rng.standard_normal((m, m - 1)) + 1j * rng.standard_normal((m, m - 1))
    h = g @ (rng.standard_normal((m - 1, max(1, m - 2)))
             + 1j * rng.standard_normal((m - 1, max(1, m - 2))))
    return ChannelPair.from_gram(h @ h.conj().T, g @ g.conj().T / m)


def test_active_modes_are_counted_by_the_activation_multipliers():
    # Sylvester's law of inertia: What1 = Q^(1/2) W1 Q^(1/2), Q the
    # pseudo-inverse of lam I + W2 on the directions the closed form keeps,
    # has exactly as many eigenvalues above 1 as there are activation
    # multipliers mu (the eigenvalues of W1' - diag(s2)) above lam
    rng = np.random.default_rng(73)
    makers = {"general": CLASSES["general"], "rank_deficient": _rank_deficient,
              "omni_noncontained": _noncontained_omni,
              "contained_rank_deficient": _contained_rank_deficient}
    for kind, make in makers.items():
        for m in range(2, 6):
            for _ in range(5):
                pair = make(rng, m)
                assert pair.range_contained() == (kind in ("general",
                                                           "contained_rank_deficient"))
                s2, v2, w1p = pair.fact("weak_table", weak_eavesdropper._weak_table)[:3]
                mu = np.linalg.eigvalsh(w1p - np.diag(s2))
                lams = np.abs(mu).max() * np.logspace(-4.0, 0.5, 60)
                lams = lams[np.abs(lams[:, None] - mu).min(axis=1) > 1e-6 * lams]
                for lam in lams:
                    q_half = (v2 / np.sqrt(lam + s2)) @ v2.conj().T
                    what1 = np.linalg.eigvalsh(q_half @ pair.w1.entries @ q_half)
                    assert np.count_nonzero(what1 > 1.0) == np.count_nonzero(mu > lam)


def test_full_rank_ill_conditioned_w2_below_its_threshold():
    # W2 of full rank has no null directions to drop, so the search may go
    # down to lam = 0, where the trace is the threshold power; with
    # cond(W2) = 1e9 the root at 0.9 of it lies below 2 RANK_TOL max(W2)
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


def test_a_sandwich_is_attached_to_the_checked_grid(monkeypatch):
    # after a warm-up call has kept the pairs' facts: the weak sandwich costs
    # exactly the two log-det eigvalsh calls of its one secrecy_rate, which
    # takes the checked grid as it is, and the omni bounds-only grid checks
    # its covariances once
    weak, omni = fig1_pair(), ChannelPair.from_gram(
        np.array([[2.0, 0.5], [0.5, 1.0]]), 0.5 * np.diag([1.0, 0.0]))
    powers = np.array([0.5, 2.0, 8.0])
    grid = solve_weak_with_bounds(weak, powers)
    solve_omni(omni, powers)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    solve_weak_with_bounds(weak, powers)
    assert len(calls) == 2
    calls.clear()
    # a raw stack keeps every check: its PSD test, then the two log-dets
    assert np.array_equal(secrecy_rate(weak, np.array(grid.covariances)),
                          secrecy_rate(weak, grid))
    assert len(calls) == 3 + 2
    with pytest.raises(ValueError, match="dimension"):  # a grid's m is still compared
        secrecy_rate(ChannelPair.from_gram(np.eye(3), np.eye(3)), grid)
    calls.clear()
    solve_omni(omni, powers)
    assert len(calls) == 1


def test_a_view_takes_its_grids_verdict(monkeypatch):
    # every point of a checked grid is a view that shares the grid's arrays
    # and checks: once the grids are solved (which keeps the pairs' facts),
    # building all of their views decomposes no covariance again
    rng = np.random.default_rng(89)
    general = _rank_deficient(rng, 3)
    rotated = random_commuting_pair(rng, 4)[0]
    powers = 10.0 ** (SWEEP_DB / 10.0)
    grids = [solve_weak_with_bounds(general, powers),
             solve_common_rsv(rotated.common_basis(), powers),
             capacity_bounds_isotropic(general, powers)]
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, real=real, **k:
                            calls.append(1) or real(*a, **k))
    views = [list(grid) for grid in grids]
    assert not calls
    assert [len(v) for v in views] == [SWEEP_DB.size] * 3
    for grid, points in zip(grids[:2], views):
        for i, point in enumerate(points):
            assert point.covariance.entries.base is grid.covariances
            assert np.array_equal(point.covariance.entries, grid.covariances[i])
    assert not np.allclose(views[1][-1].covariance.entries,
                           np.diag(np.diagonal(views[1][-1].covariance.entries)))


def test_a_certificate_view_takes_its_grids_verdict(monkeypatch):
    # the covariances of a certificate grid's points that hold are checked as
    # one stack, not point by point, and every report's matrix views it
    rng = np.random.default_rng(101)
    v = random_unitary(rng, 3)
    powers = 10.0 ** (np.arange(-10.0, 31.0, 2.0) / 10.0)
    grids = [(zf_certify, ChannelPair.from_gram((v * [2.0, 1.0, 0.5]) @ v.conj().T,
                                                (v * [0.0, 3.0, 4.0]) @ v.conj().T)),
             (wf_certify, construct_wf_optimal_channel([2.0, 1.0, 0.5], 0.7, v)),
             (is_certify, ChannelPair.from_gram(3.0 * np.eye(3), np.eye(3)))]
    for certify, pair in grids:
        certify(pair, powers)  # the pairs' facts are kept from here on
    calls, real = [], core._hermitian
    for module in (core, certificates):
        monkeypatch.setattr(module, "_hermitian",
                            lambda *a: calls.append(1) or real(*a), raising=False)
    for certify, pair in grids:
        calls.clear()
        reports = certify(pair, powers)
        # one check of the held stack: secrecy_rate's where the capacity is a
        # secrecy rate (WF and IS), else the grid's own (ZF); none per point
        assert len(calls) == 1, certify.__name__
        assert len(reports) == powers.size
        assert reports.verdict is Verdict.SUFFICIENT_HOLDS
        assert all(r.verdict is Verdict.SUFFICIENT_HOLDS for r in reports)
        stack = reports[0].certified_covariance.entries.base
        assert stack is reports.covariances and stack.shape == (powers.size, 3, 3)
        for k, report in enumerate(reports):
            assert report.certified_covariance.entries.base is stack
            assert np.shares_memory(report.certified_covariance.entries, stack[k])
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1.0
    # grids whose points hold at some powers and not at others: neither a
    # grid nor any of its views runs the public CertificateReport check, a
    # point that does not hold has no covariance or capacity (NaN in the
    # grid's arrays), and a grid's verdict is the one its points share
    mixed = [(zf_certify, ChannelPair.from_gram(np.diag([3.0, 2.0, 0.5]),
                                                np.diag([0.0, 5.0, 0.1]))),
             (wf_certify, ChannelPair.from_gram(np.diag([2.0, 1.0, 0.3]),
                                                np.diag([2.0 / 3.0, 0.5, 0.01]))),
             (is_certify, construct_is_optimal_channel(2, 10.0, 2.0, 1.0, [3.0]))]
    uniform = [(zf_certify, fig1_pair(), Verdict.NECESSARY_FAILS),
               (wf_certify, fig1_pair(), Verdict.INCONCLUSIVE),
               (is_certify, ChannelPair.from_gram(3.0 * np.eye(2), np.eye(2)),
                Verdict.SUFFICIENT_HOLDS)]
    checks, post_init = [], certificates.CertificateReport.__post_init__
    monkeypatch.setattr(certificates.CertificateReport, "__post_init__",
                        lambda self: checks.append(1) or post_init(self))
    for certify, pair in mixed:
        grid = certify(pair, np.append(powers, 10.0))
        reports = list(grid)
        held = np.array([r.verdict is Verdict.SUFFICIENT_HOLDS for r in reports])
        assert held.any() and not held.all(), certify.__name__
        assert grid.verdict is None
        assert np.array_equal(np.isnan(grid.capacities), ~held)
        assert np.isnan(grid.covariances[~held]).all()
        for k, report in enumerate(reports):
            assert report.verdict is grid.verdicts[k]
            if held[k]:
                assert report.certified_capacity == grid.capacities[k]
                assert report.certified_covariance.entries.base is grid.covariances
            else:
                assert report.certified_covariance is None
                assert report.certified_capacity is None
                assert grid.covariance_at(k) is None
                assert "reason" in report.details
    for certify, pair, verdict in uniform:
        grid = certify(pair, powers)
        assert grid.verdict is verdict and len(list(grid)) == powers.size
    assert not checks
    certificates.CertificateReport(Verdict.INCONCLUSIVE)  # the public one checks
    assert checks == [1]


def test_a_grids_covariances_are_read_only():
    # a view's matrix aliases its grid's stack, so neither may be written;
    # the stack a caller passed in is copied, never frozen
    rng = np.random.default_rng(97)
    v = random_unitary(rng, 3)
    w1 = (v * [1.5, 0.7, 0.2]) @ v.conj().T
    grid = solve_weak(_rank_deficient(rng, 3), np.array([0.5, 2.0, 8.0]))
    zero = solve_common_rsv(ChannelPair.from_gram(w1, 2.0 * w1).common_basis(), 1.0)
    assert zero.status is SolveStatus.ZERO_RATE
    assert not zero.covariance.entries.any()
    for entries in (grid.covariances, grid[1].covariance.entries,
                    zero.covariance.entries):
        with pytest.raises(ValueError, match="read-only"):
            entries[..., 0, 0] = 1.0
    mine = np.array(grid.covariances)
    dataclasses.replace(grid, covariances=mine)
    mine[0, 0, 0] = 1.0


@pytest.mark.parametrize("p_total", [math.inf, -math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("solver", ["weak", "rsv", "zf", "wf", "is",
                                    "standard_waterfill", "secrecy_waterfill",
                                    "mc_capacity", "separable_oracle",
                                    "construct_is", "isotropic_problem"])
def test_non_finite_or_non_positive_power_is_rejected(solver, p_total):
    pair, *_ = random_commuting_pair(np.random.default_rng(53), 3)
    shared = pair.common_basis()
    fn = {"weak": solve_weak,
          "rsv": lambda p, t: solve_common_rsv(p.common_basis(), t),
          "zf": zf_certify, "wf": wf_certify, "is": is_certify,
          "standard_waterfill":
              lambda p, t: _waterfill.standard_waterfill(shared.lam1, t),
          "secrecy_waterfill":
              lambda p, t: _waterfill.secrecy_waterfill(shared.lam1, shared.lam2, t),
          "mc_capacity": mc_capacity,
          "separable_oracle":
              lambda p, t: separable_oracle(shared.lam1, shared.lam2, t),
          "construct_is":
              lambda p, t: construct_is_optimal_channel(3, t, 2.0, 1.0, [1.5, 1.2]),
          "isotropic_problem":
              lambda p, t: IsotropicProblem(p.w1.spectrum(), 0.1, t)}[solver]
    with pytest.raises(ValueError, match="p_total"):
        fn(pair, p_total)

