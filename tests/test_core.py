import math

import numpy as np
import pytest

from wiretap_mimo import (CapacityBounds, ChannelPair, HermitianMatrix,
                          SolveResult, SolveStatus, epsilon_from_pathloss,
                          positive_part, secrecy_rate, weak_rate)
from util import fig1_pair, random_psd, random_unitary


class TestHermitianMatrix:
    def test_symmetrizes_small_drift(self):
        a = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
        h = HermitianMatrix(a)
        assert np.allclose(h.entries, h.entries.conj().T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                HermitianMatrix(np.array([[1.0, bad], [np.conj(bad), 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros((2, 3)))

    def test_entries_are_read_only(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0

    def test_rank_uses_relative_tolerance(self):
        h = HermitianMatrix(np.diag([1.0, 1e-12, 0.0]))
        assert h.rank() == 1
        assert h.null_basis().shape == (3, 2)
        # eigenvalues below rank_tol * max count as zero for PSD queries too
        h2 = HermitianMatrix(np.diag([1.0, -1e-12]))
        assert h2.is_psd()

    def test_pinv_and_sqrt(self):
        rng = np.random.default_rng(0)
        w = random_psd(rng, 3)
        h = HermitianMatrix(w)
        s = h.sqrt_psd().entries
        assert np.allclose(s @ s, w, atol=1e-10)
        p = h.pinv().entries
        assert np.allclose(w @ p @ w, w, atol=1e-9)

    def test_diagonal_psd_check_needs_no_decomposition(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: calls.append(1) or eigh(*a, **k))
        assert HermitianMatrix(np.diag([2.0, 0.0, -1e-12])).is_psd()
        assert not HermitianMatrix(np.diag([2.0, 0.0, -1e-6])).is_psd()
        assert HermitianMatrix(np.diag([1.0 + 0j, 0.0])).is_psd()
        assert not calls
        assert not HermitianMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])).is_psd()
        assert len(calls) == 1

    def test_decomposition_is_computed_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        h = HermitianMatrix(np.diag([2.0, 1.0, 0.0]))
        for _ in range(3):
            assert h.rank() == 2
            assert h.null_basis().shape == (3, 1)
            assert h.eigenvalues()[0] == 2.0
            assert h.is_psd()
            h.sqrt_psd()
        assert len(calls) == 1

    def test_spectral_invariants(self):
        rng = np.random.default_rng(1)
        h = HermitianMatrix(random_psd(rng, 4))
        dec = h.eig()
        assert np.all(np.diff(dec.eigenvalues) <= 0)
        u = dec.eigenvectors
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
        err = np.linalg.norm(dec.reconstruct() - h.entries)
        assert err <= 1e-10 * np.linalg.norm(h.entries)


class TestChannelPair:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            ChannelPair.from_gram(np.eye(2), np.eye(3))

    def test_psd_enforced(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            ChannelPair.from_gram(np.diag([1.0, -1.0]), np.eye(2))

    def test_from_channels_forms_gram(self):
        h1 = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
        h2 = np.array([[0.5, 0.5]])
        pair = ChannelPair.from_channels(h1, h2)
        assert np.allclose(pair.w1.entries, h1.T @ h1)
        assert np.allclose(pair.w2.entries, h2.T @ h2)


class TestSecrecyRate:
    def test_zero_covariance(self):
        assert secrecy_rate(fig1_pair(), np.zeros((2, 2))) == 0.0

    def test_diagonal_example(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        rate = secrecy_rate(pair, np.diag([1.0, 0.5]))
        assert rate == pytest.approx(math.log(3) + math.log(1.5), abs=1e-12)

    def test_signed_negative_rate(self):
        pair = ChannelPair.from_gram(0.5 * np.eye(2), np.eye(2))
        rate = secrecy_rate(pair, np.eye(2))
        assert rate == pytest.approx(2 * math.log(1.5) - 2 * math.log(2), abs=1e-12)

    def test_dimension_and_psd_errors(self):
        pair = fig1_pair()
        with pytest.raises(ValueError):
            secrecy_rate(pair, np.eye(3))
        with pytest.raises(ValueError):
            secrecy_rate(pair, np.diag([1.0, -0.5]))

    def test_unitary_congruence_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            w1, w2, r = (random_psd(rng, m) for _ in range(3))
            pair = ChannelPair.from_gram(w1, w2)
            u = random_unitary(rng, m)
            rot = ChannelPair.from_gram(u.conj().T @ w1 @ u, u.conj().T @ w2 @ u)
            a = secrecy_rate(pair, r)
            b = secrecy_rate(rot, u.conj().T @ r @ u)
            assert a == pytest.approx(b, abs=1e-9)


class TestWeakRate:
    def test_zero_covariance(self):
        assert weak_rate(fig1_pair(), np.zeros((2, 2))) == 0.0

    def test_equals_secrecy_rate_without_eavesdropper(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            pair = ChannelPair.from_gram(random_psd(rng, m), np.zeros((m, m)))
            r = random_psd(rng, m)
            assert weak_rate(pair, r) == pytest.approx(secrecy_rate(pair, r),
                                                       abs=1e-12)

    def test_diagonal_example(self):
        rate = weak_rate(fig1_pair(), np.diag([1.0, 0.5]))
        assert rate == pytest.approx(math.log(3) + math.log(1.5) - 0.25, abs=1e-12)

    def test_sandwich_against_exact_rate(self):
        # weak <= exact <= weak + 0.5 * sum lambda_i^2(W2 R) on random triples
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            w1, w2, r = (random_psd(rng, m) for _ in range(3))
            pair = ChannelPair.from_gram(w1, w2)
            exact = secrecy_rate(pair, r)
            weak = weak_rate(pair, r)
            rh = HermitianMatrix(r).sqrt_psd().entries
            ev = np.clip(np.linalg.eigvalsh(rh @ w2 @ rh), 0.0, None)
            assert weak <= exact + 1e-10
            assert exact <= weak + 0.5 * np.sum(ev ** 2) + 1e-10


class TestPositivePart:
    def test_sign_split(self):
        out = positive_part(HermitianMatrix(np.diag([1.0, -1.0])))
        assert np.allclose(out.entries, np.diag([1.0, 0.0]))

    def test_identity_on_psd(self):
        rng = np.random.default_rng(5)
        w = random_psd(rng, 3)
        out = positive_part(HermitianMatrix(w))
        assert np.linalg.norm(out.entries - w) <= 1e-10 * np.linalg.norm(w)

    def test_offdiagonal_example(self):
        out = positive_part(HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.allclose(out.entries, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_idempotent_and_commutes(self):
        rng = np.random.default_rng(9)
        a = HermitianMatrix(np.asarray(random_psd(rng, 3)) - 0.5 * np.eye(3))
        once = positive_part(a)
        twice = positive_part(once)
        assert np.allclose(once.entries, twice.entries, atol=1e-12)
        comm = a.entries @ once.entries - once.entries @ a.entries
        assert np.linalg.norm(comm) < 1e-10

    def test_monotone_on_commuting_inputs(self):
        rng = np.random.default_rng(13)
        v = random_unitary(rng, 3)
        d1 = rng.uniform(-1.0, 1.0, 3)
        d2 = d1 + rng.uniform(0.0, 1.0, 3)  # same basis, d2 >= d1
        a = HermitianMatrix((v * d1) @ v.conj().T)
        b = HermitianMatrix((v * d2) @ v.conj().T)
        diff = positive_part(b).entries - positive_part(a).entries
        assert np.min(np.linalg.eigvalsh(diff)) >= -1e-10


class TestPathlossEpsilon:
    def test_direct_evaluation(self):
        assert epsilon_from_pathloss(1, 2, 4, 100, 3) == pytest.approx(8e-6, rel=1e-12)

    def test_unit_distance(self):
        assert epsilon_from_pathloss(0.3, 2, 4, 1, 2.5) == pytest.approx(0.3 * 8)

    def test_power_law_scaling(self):
        near = epsilon_from_pathloss(1, 1, 1, 10, 2)
        far = epsilon_from_pathloss(1, 1, 1, 20, 2)
        assert near == pytest.approx(4 * far, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            epsilon_from_pathloss(1, 0, 4, 100, 3)


def test_power_vector_square_sum_bound():
    # nonnegative vectors with sum <= P have squared sum <= P^2
    rng = np.random.default_rng(17)
    for _ in range(200):
        lam = rng.uniform(0.0, 1.0, int(rng.integers(1, 8)))
        p_total = rng.uniform(0.5, 10.0)
        lam *= p_total / max(np.sum(lam), p_total / rng.uniform(0.2, 1.0))
        if np.sum(lam) <= p_total:
            assert np.sum(lam ** 2) <= p_total ** 2 + 1e-12


def test_solve_result_validation():
    cov = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError):
        SolveResult(cov, -0.1, 0.0, 0, 0.0, SolveStatus.SOLVED)
    with pytest.raises(ValueError):
        SolveResult(cov, 0.1, -1.0, 0, 0.0, SolveStatus.SOLVED)


def test_capacity_bounds_validation():
    CapacityBounds(1.0, 1.5, 2.0, 1.0)
    with pytest.raises(ValueError, match="bound chain"):
        CapacityBounds(1.0, 0.5, 2.0, 1.0)
    with pytest.raises(ValueError, match="bound chain"):
        CapacityBounds(1.0, 1.5, 2.5, 1.0)
