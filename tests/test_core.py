import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest


from wiretap_mimo import (CapacityBounds, CapacityBoundsGrid, ChannelPair,
                          HermitianMatrix, IsotropicProblem, SolveResult,
                          SolveResultGrid, SolveStatus, SpectralDecomposition,
                          capacity_bounds_isotropic,
                          capacity_bounds_weak, construct_is_optimal_channel,
                          construct_wf_optimal_channel, epsilon_from_pathloss,
                          is_certify, positive_part, secrecy_rate, solve_auto,
                          solve_common_rsv, solve_isotropic, solve_omni,
                          solve_weak, solve_weak_with_bounds, weak_rate,
                          wf_certify, zf_certify)
from util import fig1_pair, random_commuting_pair, random_psd, random_unitary


class TestHermitianMatrix:
    def test_symmetrizes_small_drift(self):
        a = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
        h = HermitianMatrix(a)
        assert np.allclose(h.entries, h.entries.conj().T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_asymmetry_rule_holds_at_any_finite_scale(self):
        # ||A|| squared overflows past entries of 1.3e154: the rule must still
        # compare the asymmetry with a finite norm, not with inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (1e155, 1e300):
                h = HermitianMatrix(s * np.array([[2.0, 1.0 + 1e-12], [1.0, 3.0]]))
                assert np.isfinite(h.entries).all()
                with pytest.raises(ValueError, match="not Hermitian"):
                    HermitianMatrix(s * np.array([[1.0, 1.0], [0.0, 1.0]]))

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
        # eigenvalues below RANK_TOL * max count as zero for PSD queries too
        h2 = HermitianMatrix(np.diag([1.0, -1e-12]))
        assert h2.is_psd()

    def test_sqrt_psd(self):
        rng = np.random.default_rng(0)
        w = random_psd(rng, 3)
        s = HermitianMatrix(w).sqrt_psd().entries
        assert np.allclose(s @ s, w, atol=1e-10)

    def test_diagonal_psd_verdicts(self):
        assert HermitianMatrix(np.diag([2.0, 0.0, -1e-12])).is_psd()
        assert not HermitianMatrix(np.diag([2.0, 0.0, -1e-6])).is_psd()
        assert HermitianMatrix(np.diag([1.0 + 0j, 0.0])).is_psd()
        assert not HermitianMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])).is_psd()

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

    def test_spectral_decomposition_accepts_a_valid_pair(self):
        # sorted eigenvalues and orthonormal columns, kept read-only
        c = math.sqrt(0.5)
        dec = SpectralDecomposition([3.0, 1.0], np.array([[c, c], [c, -c]]))
        assert dec.eigenvalues.dtype == float
        assert not dec.eigenvalues.flags.writeable
        assert not dec.eigenvectors.flags.writeable
        assert np.allclose(dec.reconstruct(), [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)


class TestChannelPair:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            ChannelPair.from_gram(np.eye(2), np.eye(3))

    def test_psd_enforced(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            ChannelPair.from_gram(np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize("leak, w2, contained", [
        (0.0, [0.5, 0.0], True),
        # W1's gain on W2's nullspace is leak^2 * lambda_max(W1): a leak of
        # 1e-7 is below RANK_TOL and counts as no gain at all
        (1e-7, [0.5, 0.0], True),
        (1e-3, [0.5, 0.0], False),
        (1e-3, [0.5, 1e-3], True),   # W2 has no nullspace
        (0.0, [0.0, 0.0], False),    # W2 = 0 is all nullspace
    ])
    def test_range_containment_is_decided_by_the_rank_rule(self, leak, w2, contained):
        g = np.array([[1.0], [leak]])
        pair = ChannelPair.from_gram(g @ g.T, np.diag(w2))
        assert pair.range_contained() is contained

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
        # a stack is refused for one bad entry, by the rule of one matrix
        with pytest.raises(ValueError):
            secrecy_rate(pair, np.stack([np.eye(3)] * 2))
        for bad, message in _bad_entries(np.stack([np.eye(2), np.diag([1.0, 0.5])])):
            with pytest.raises(ValueError, match=message):
                secrecy_rate(pair, bad)

    def test_rank_one_channel_is_exact_at_high_power(self):
        # W1 = h^H h with a small integer row h: ln|I + W1 R| = log1p(h R h^H),
        # whose argument is summed exactly in rationals.  It holds to 1e-14
        # relative up to P_T = 1e8, where a log-det over R^(1/2) W1 R^(1/2)
        # resolves the unit eigenvalues of W1's null directions only to
        # eps ||R||
        rng = np.random.default_rng(71)
        for p_total in 10.0 ** np.arange(9):
            for m in range(2, 6):
                h = rng.integers(1, 4, m) * rng.choice([-1, 1], m)
                r = random_psd(rng, m)
                r = HermitianMatrix(p_total / np.trace(r).real * r).entries
                quad = sum(Fraction(int(h[i] * h[j])) * Fraction(r[i, j].real)
                           for i in range(m) for j in range(m))
                pair = ChannelPair.from_gram(np.outer(h, h), np.zeros((m, m)))
                assert secrecy_rate(pair, r) == pytest.approx(
                    math.log1p(float(quad)), rel=1e-14)

    def test_a_stack_gives_each_covariance_its_rate(self):
        rng = np.random.default_rng(11)
        for m in range(1, 6):
            pair = ChannelPair.from_gram(random_psd(rng, m), random_psd(rng, m))
            stack = np.stack([random_psd(rng, m) for _ in range(4)] + [np.zeros((m, m))])
            rates = secrecy_rate(pair, stack)
            assert rates.shape == (5,)
            assert rates.tolist() == [secrecy_rate(pair, r) for r in stack]

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


def _bad_entries(covs):
    """``(copy, message)``: copies of the stack ``covs`` whose last entry is
    made non-PSD, non-Hermitian or non-finite, and the refusal's message."""
    for spoil, message in (
            (lambda c: c - 2.0 * np.trace(c).real * np.eye(len(c)), "semidefinite"),
            (lambda c: c + np.triu(np.ones(c.shape), 1) * np.linalg.norm(c),
             "not Hermitian"),
            (lambda c: np.where(np.eye(len(c)) > 0, np.nan, c), "finite"),
            (lambda c: np.where(np.eye(len(c)) > 0, np.inf, c), "finite")):
        bad = np.array(covs)
        bad[-1] = spoil(bad[-1] + np.eye(len(bad[-1])))
        yield bad, message


def _grid_outcomes():
    """The grid of every grid solver, on channels where it applies."""
    rng = np.random.default_rng(73)
    grid = 10.0 ** (np.arange(-10.0, 41.0, 10.0) / 10.0)
    general = ChannelPair.from_gram(random_psd(rng, 3), random_psd(rng, 3))
    commuting = random_commuting_pair(rng, 3)[0]
    u = random_unitary(rng, 3)[:, :2]
    leaky_omni = ChannelPair.from_gram(random_psd(rng, 3), 0.7 * (u @ u.conj().T))
    contained_omni = ChannelPair.from_gram(np.diag([2.0, 1.0, 0.0]),
                                           np.diag([0.5, 0.5, 0.0]))
    yield "solve_weak", solve_weak(general, grid)
    yield "solve_weak_with_bounds", solve_weak_with_bounds(general, grid)
    yield "capacity_bounds_weak", capacity_bounds_weak(general, grid)
    yield "capacity_bounds_isotropic", capacity_bounds_isotropic(general, grid)
    yield "solve_isotropic", solve_isotropic(IsotropicProblem([2.0, 1.0], 0.3, grid))
    yield "solve_omni", solve_omni(contained_omni, grid)
    yield "solve_omni bounds only", solve_omni(leaky_omni, grid)
    yield "solve_common_rsv", solve_common_rsv(commuting.common_basis(), grid)
    for pair in (general, commuting, contained_omni):
        for name, outs in solve_auto(pair, grid).columns:
            yield f"solve_auto {name}", outs


def test_every_grid_solver_refuses_a_bad_stack_entry():
    # each grid is checked once as a whole when it is built: rebuilt with
    # one spoiled entry, every solver's grid raises
    for name, outs in _grid_outcomes():
        dataclasses.replace(outs)  # the grid as solved passes
        if isinstance(outs, CapacityBoundsGrid):
            for field, value in (("lower_nats", np.inf), ("mid_nats", np.nan),
                                 ("mid_nats", -np.inf)):
                bad = getattr(outs, field).copy()
                bad[-1] = value
                with pytest.raises(ValueError, match="bound chain"):
                    dataclasses.replace(outs, **{field: bad})
            continue
        assert isinstance(outs, SolveResultGrid), name
        for bad, message in _bad_entries(outs.covariances):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(outs, covariances=bad)
        for field in ("capacities", "lambdas"):
            for value in (np.nan, np.inf, -1.0):
                bad = getattr(outs, field).copy()
                bad[-1] = value
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    dataclasses.replace(outs, **{field: bad})


def _certificate_and_auto_grids():
    """The three certificates' grids and solve_auto's, on pairs where each
    certificate holds at one power at least."""
    grid = 10.0 ** (np.arange(-10.0, 41.0, 10.0) / 10.0)
    zf = ChannelPair.from_gram(np.diag([3.0, 2.0, 0.5]), np.diag([0.0, 5.0, 0.1]))
    wf = construct_wf_optimal_channel([2.0, 1.0, 0.5], 0.7)
    iso = construct_is_optimal_channel(2, 10.0, b1=2.0, a1=1.0, b_rest=[3.0])
    for certify, pair in ((zf_certify, zf), (wf_certify, wf), (is_certify, iso)):
        yield certify.__name__, certify(pair, grid)
    yield "solve_auto", solve_auto(zf, grid)


def test_a_grid_point_is_one_integer_index():
    # a view is one point, taken by any integer (negative from the end); a
    # slice or a float is a TypeError that says so, not a failed matrix check
    for name, outs in [*_grid_outcomes(), *_certificate_and_auto_grids()]:
        assert repr(outs[np.int64(len(outs) - 1)]) == repr(outs[-1]), name
        for bad in (slice(0, 1), 1.0, np.float64(1.0)):
            with pytest.raises(TypeError, match="integer"):
                outs[bad]
