import numpy as np
import pytest

from wiretap_mimo import (ChannelPair, IsotropicProblem, NotCommutingError,
                          Objective, OracleConfig, SolveStatus,
                          capacity_bounds_weak, commutation_residual,
                          detect_common_rsv, mc_capacity, secrecy_rate,
                          separable_oracle, solve_common_rsv, solve_isotropic,
                          solve_weak)
from wiretap_mimo import common_rsv
from wiretap_mimo._waterfill import standard_waterfill
from util import fig1_pair, random_commuting_pair, random_unitary


class TestDetect:
    def test_diagonal_pair_accepted(self):
        pair = ChannelPair.from_gram(np.diag([3.0, 1.0]), np.diag([0.5, 0.2]))
        ch = detect_common_rsv(pair)
        d1 = ch.basis.conj().T @ pair.w1.entries @ ch.basis
        assert np.allclose(d1, np.diag(np.diag(d1)), atol=1e-10)
        assert sorted(ch.lam1) == pytest.approx([1.0, 3.0])

    def test_fig1_pair_rejected_with_norm(self):
        with pytest.raises(NotCommutingError) as exc:
            detect_common_rsv(fig1_pair())
        assert exc.value.commutator_norm > 0.01
        assert commutation_residual(fig1_pair()) == pytest.approx(
            exc.value.commutator_norm)

    def test_scalar_multiple_accepted(self):
        rng = np.random.default_rng(1)
        v = random_unitary(rng, 3)
        w1 = (v * np.array([2.0, 1.0, 0.5])) @ v.conj().T
        pair = ChannelPair.from_gram(w1, 0.25 * w1)
        ch = detect_common_rsv(pair)
        assert np.allclose(ch.lam2, 0.25 * ch.lam1, atol=1e-10)

    def test_degenerate_spectra_still_split(self):
        # identical eigenvalues in W1; W2 distinguishes the modes
        rng = np.random.default_rng(2)
        v = random_unitary(rng, 3)
        w1 = (v * np.array([2.0, 2.0, 2.0])) @ v.conj().T
        w2 = (v * np.array([1.0, 0.5, 0.1])) @ v.conj().T
        ch = detect_common_rsv(ChannelPair.from_gram(w1, w2))
        assert sorted(ch.lam2) == pytest.approx([0.1, 0.5, 1.0], abs=1e-9)

    def test_pairing_is_by_eigenvector_not_order(self):
        # crossing spectra: the strongest W1 mode is the weakest W2 mode
        pair = ChannelPair.from_gram(np.diag([3.0, 1.0]), np.diag([0.1, 2.0]))
        ch = detect_common_rsv(pair)
        i = int(np.argmax(ch.lam1))
        assert ch.lam1[i] == pytest.approx(3.0)
        assert ch.lam2[i] == pytest.approx(0.1)

    def test_a_pencil_that_cannot_split_is_refused_and_kept(self, monkeypatch):
        # the pair commutes exactly, and W1 + 0.5 W2 = 2I: at eta = 0.5 the
        # pencil is one eigenspace, and its eigenvectors diagonalize neither
        w1 = np.array([[1.5, 0.5], [0.5, 1.5]])
        w2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
        ch = ChannelPair.from_gram(w1, w2).common_basis()  # the seeded weights split it
        assert ch.lam1 == pytest.approx([2.0, 1.0], abs=1e-12)
        assert ch.lam2 == pytest.approx([0.0, 2.0], abs=1e-12)
        calls = []
        monkeypatch.setattr(common_rsv, "_pencil_weights",
                            lambda: calls.append(1) or (0.5,) * 8)
        pair = ChannelPair.from_gram(w1, w2)
        for _ in range(2):  # detected, then raised again from the pair's kept error
            with pytest.raises(NotCommutingError, match="pencil") as exc:
                pair.common_basis()
            assert exc.value.commutator_norm == 0.0
        assert len(calls) == 1


class TestSolve:
    def test_waterfilling_when_no_leakage(self):
        # W2 = 0: the exact allocation, not a multiplier search
        rng = np.random.default_rng(8)
        for m in (2, 3, 5):
            v = random_unitary(rng, m)
            lam1 = rng.uniform(0.1, 3.0, m)
            pair = ChannelPair.from_gram((v * lam1) @ v.conj().T, np.zeros((m, m)))
            ch = detect_common_rsv(pair)
            for p in (0.1, 2.0, 1e4):
                res = solve_common_rsv(ch, p)
                (powers,), (lam,) = standard_waterfill(ch.lam1, np.array([p]))
                assert np.array_equal(res.mode_powers, powers)
                assert res.lagrange_lambda == lam

    def test_uniform_leakage_matches_isotropic(self):
        rng = np.random.default_rng(3)
        v = random_unitary(rng, 3)
        lam1 = np.array([3.0, 1.5, 0.8])
        eps = 0.4
        pair = ChannelPair.from_gram((v * lam1) @ v.conj().T,
                                     eps * np.eye(3))
        res = solve_common_rsv(detect_common_rsv(pair), 2.0)
        iso = solve_isotropic(IsotropicProblem(np.sort(lam1)[::-1], eps, 2.0))
        assert res.capacity_nats == pytest.approx(iso.capacity_nats, abs=1e-9)

    def test_zero_rate_when_dominated(self):
        pair = ChannelPair.from_gram(np.diag([1.0, 0.5]), np.diag([1.0, 0.5]))
        res = solve_common_rsv(detect_common_rsv(pair), 3.0)
        assert res.status is SolveStatus.ZERO_RATE
        # contained omnidirectional eavesdropper W2 = eps * U U^H stronger
        # than every legitimate mode: round-off on the modes outside span U
        # must not count as a positive legitimate gain
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = random_unitary(rng, 4)
            u = v[:, :2]
            eps = 2.0
            w1 = (u * rng.uniform(0.1, 1.9, 2)) @ u.conj().T
            pair = ChannelPair.from_gram(w1, eps * (u @ u.conj().T))
            res = solve_common_rsv(detect_common_rsv(pair), 1.0)
            assert res.status is SolveStatus.ZERO_RATE

    def test_matches_separable_and_mc_oracles(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pair, v, lam1, lam2 = random_commuting_pair(rng, 3, lam2_scale=0.6)
            p = float(rng.uniform(0.5, 6.0))
            res = solve_common_rsv(detect_common_rsv(pair), p)
            orc = separable_oracle(lam1, lam2, p)
            assert abs(res.capacity_nats - orc) <= 1e-6
            best, _ = mc_capacity(pair, p, Objective.EXACT,
                                  OracleConfig(samples=15_000,
                                               seed=int(rng.integers(1 << 30))),
                                  include_candidates=False)
            assert best <= res.capacity_nats + 5e-3

    def test_covariance_commutes_and_achieves_value(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pair, *_ = random_commuting_pair(rng, 3, lam2_scale=0.5)
            res = solve_common_rsv(detect_common_rsv(pair), 2.0)
            r = res.covariance.entries
            for w in (pair.w1.entries, pair.w2.entries):
                assert np.linalg.norm(r @ w - w @ r) <= 1e-9 * max(
                    1.0, np.linalg.norm(w) * np.linalg.norm(r))
            assert secrecy_rate(pair, res.covariance) == pytest.approx(
                res.capacity_nats, abs=1e-12)

    def test_monotone_in_power(self):
        rng = np.random.default_rng(9)
        pair, *_ = random_commuting_pair(rng, 3, lam2_scale=0.5)
        ch = detect_common_rsv(pair)
        caps, powers = [], np.zeros(3)
        for p in np.linspace(0.2, 8.0, 25):
            res = solve_common_rsv(ch, p)
            caps.append(res.capacity_nats)
            assert np.all(res.mode_powers >= powers - 1e-9)
            powers = res.mode_powers
        assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))

    def test_rejects_bad_power(self):
        pair = ChannelPair.from_gram(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            solve_common_rsv(detect_common_rsv(pair), -1.0)


def test_weak_solver_agreement_at_low_leakage():
    rng = np.random.default_rng(11)
    for _ in range(15):
        pair, v, lam1, lam2 = random_commuting_pair(rng, 3, lam2_scale=0.4)
        lam2_max = float(np.max(np.linalg.eigvalsh(pair.w2.entries)))
        if lam2_max <= 0:
            continue
        p = 0.01 / lam2_max
        exact = solve_common_rsv(detect_common_rsv(pair), p).capacity_nats
        weak = solve_weak(pair, p).capacity_nats
        gap = 0.5 * (lam2_max * p) ** 2
        assert abs(exact - weak) <= gap + 1e-12
        b = capacity_bounds_weak(pair, p)
        assert b.lower_nats <= exact + 1e-9 <= b.upper_nats + 2e-9
