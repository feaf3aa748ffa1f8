import math

import numpy as np
import pytest

from wiretap_mimo import (ChannelPair, HermitianMatrix, IsotropicProblem,
                          NotApplicableError, Objective, OracleConfig,
                          SolveStatus, classify_omni, mc_capacity,
                          negligibility_margins, range_containment_residual,
                          solve_isotropic, solve_omni)
from util import random_psd, random_unitary


def omni_instance(rng, m, r2, eps, complex_valued=True):
    """W2 = eps * U U^H and W1 supported inside span(U)."""
    u = random_unitary(rng, m, complex_valued)[:, :r2]
    b = random_psd(rng, r2, complex_valued=complex_valued)
    w1 = u @ b @ u.conj().T
    w2 = eps * (u @ u.conj().T)
    return ChannelPair.from_gram(w1, w2), u


class TestClassifyOmni:
    def test_isotropic_full_rank(self):
        cls = classify_omni(HermitianMatrix(0.5 * np.eye(3)))
        assert cls.is_omni and cls.r2 == 3
        assert cls.epsilon == pytest.approx(0.5)

    def test_uniform_partial_spectrum(self):
        cls = classify_omni(HermitianMatrix(0.5 * np.diag([1.0, 1.0, 0.0])))
        assert cls.is_omni and cls.r2 == 2
        assert cls.epsilon == pytest.approx(0.5)
        assert cls.active_basis.shape == (3, 2)

    def test_distinct_gains_rejected(self):
        cls = classify_omni(HermitianMatrix(np.diag([0.5, 0.3])))
        assert not cls.is_omni

    def test_zero_matrix_has_no_active_subspace(self):
        cls = classify_omni(HermitianMatrix(np.zeros((2, 2))))
        assert not cls.is_omni and cls.r2 == 0

    def test_delta_tolerance(self):
        # OMNI_TOL = 1e-8: a relative spread of 1e-9 is one gain, 1e-7 is not
        inside = HermitianMatrix(np.diag([0.5, 0.5 * (1 + 1e-9)]))
        outside = HermitianMatrix(np.diag([0.5, 0.5 * (1 + 1e-7)]))
        assert classify_omni(inside).is_omni
        assert not classify_omni(outside).is_omni


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_tolerances_must_be_finite_and_nonnegative(bad):
    problem = IsotropicProblem(np.array([2.0, 1.0]), 0.5, 1.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        negligibility_margins(problem, threshold=bad)


class TestSolveOmni:
    def test_contained_single_mode_example(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 0.0]), 0.5 * np.diag([1.0, 0.0]))
        res = solve_omni(pair, 1.0)
        assert res.status is SolveStatus.SOLVED
        assert res.capacity_nats == pytest.approx(math.log(2.0), abs=1e-10)

    def test_zero_w1(self):
        pair = ChannelPair.from_gram(np.zeros((2, 2)), 0.5 * np.diag([1.0, 0.0]))
        res = solve_omni(pair, 1.0)
        assert res.capacity_nats == 0.0

    def test_containment_failure_returns_bounds(self):
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), 0.5 * np.diag([1.0, 0.0]))
        res = solve_omni(pair, 1.0)
        assert res.status is SolveStatus.BOUNDS_ONLY
        assert res.bounds is not None
        assert res.bounds.lower_nats <= res.bounds.upper_nats
        # the covariance designed against the worst isotropic eavesdropper
        # reports that solve's capacity, the lower bound to the bit
        assert res.capacity_nats == res.bounds.lower_nats
        grid = solve_omni(pair, np.geomspace(1e-2, 1e6, 9))
        assert np.array_equal(grid.capacities, grid.bounds.lower_nats)
        assert all(s is SolveStatus.BOUNDS_ONLY for s in grid.statuses)

    def test_bounds_only_solves_the_eps_max_allocation_once(self, monkeypatch):
        """Without containment the isotropic solve at eps_max serves both the
        covariance and the sandwich's lower bound: two per-mode solves
        (eps_max and eps_min), and every bound array is the bytes of
        capacity_bounds_isotropic's."""
        from wiretap_mimo import _waterfill, capacity_bounds_isotropic
        pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), 0.5 * np.diag([1.0, 0.0]))
        grid = np.geomspace(1e-2, 1e6, 9)
        solve_modes, leaks = _waterfill.solve_modes, []
        monkeypatch.setattr(_waterfill, "solve_modes", lambda gains, leak, *rest:
                            leaks.append(leak) or solve_modes(gains, leak, *rest))
        res = solve_omni(pair, grid)
        assert leaks == [0.5, 0.0]
        monkeypatch.undo()
        bounds = capacity_bounds_isotropic(pair, grid)
        for name in ("lower_nats", "mid_nats", "upper_nats", "gap_bound_nats"):
            assert getattr(res.bounds, name).tobytes() == getattr(bounds, name).tobytes()

    def test_rejects_non_omni(self):
        pair = ChannelPair.from_gram(np.eye(2), np.diag([0.5, 0.3]))
        with pytest.raises(NotApplicableError):
            solve_omni(pair, 1.0)

    def test_matches_isotropic_on_contained_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = int(rng.integers(2, 4))
            r2 = int(rng.integers(1, m + 1))
            eps = float(rng.uniform(0.2, 2.0))
            pair, _ = omni_instance(rng, m, r2, eps)
            p = float(rng.uniform(0.5, 5.0))
            res = solve_omni(pair, p)
            gains = np.clip(pair.w1.eigenvalues(), 0.0, None)
            iso = solve_isotropic(IsotropicProblem(gains, eps, p))
            assert res.capacity_nats == pytest.approx(iso.capacity_nats, abs=1e-9)
            assert res.status is iso.status

    def test_mc_never_exceeds_contained_capacity(self):
        rng = np.random.default_rng(29)
        pair, _ = omni_instance(rng, 3, 2, 0.7)
        res = solve_omni(pair, 2.0)
        best, _ = mc_capacity(pair, 2.0, Objective.EXACT,
                              OracleConfig(samples=30_000, seed=5))
        assert best <= res.capacity_nats + 5e-3

    def test_capacity_invariant_to_active_basis_choice(self):
        rng = np.random.default_rng(31)
        pair, u = omni_instance(rng, 3, 2, 0.6)
        # re-span the same active subspace with a rotated orthonormal basis
        q = random_unitary(rng, 2)
        u2 = u @ q
        w2b = 0.6 * (u2 @ u2.conj().T)
        pair_b = ChannelPair.from_gram(pair.w1.entries, w2b)
        a = solve_omni(pair, 1.7).capacity_nats
        b = solve_omni(pair_b, 1.7).capacity_nats
        assert a == pytest.approx(b, abs=1e-9)


def test_eigenvalue_interlacing_under_compression():
    rng = np.random.default_rng(37)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        r2 = int(rng.integers(1, m + 1))
        u = random_unitary(rng, m)[:, :r2]
        w1 = random_psd(rng, m)
        inner = np.linalg.eigvalsh(u.conj().T @ w1 @ u)[::-1]
        outer = np.linalg.eigvalsh(w1)[::-1]
        assert np.all(inner <= outer[:r2] + 1e-12)


def test_containment_residual_reports_leakage():
    pair = ChannelPair.from_gram(np.diag([2.0, 1.0]), 0.5 * np.diag([1.0, 0.0]))
    cls = classify_omni(pair.w2)
    resid = range_containment_residual(pair.w1, cls.active_basis)
    assert resid > 0.1


def test_a_zero_w1_is_contained_in_any_span():
    w1 = HermitianMatrix(np.zeros((2, 2)))
    assert range_containment_residual(w1, np.eye(2)[:, :1]) == 0.0
