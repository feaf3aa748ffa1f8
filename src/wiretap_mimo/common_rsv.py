"""Channels whose legitimate and eavesdropper matrices share right singular vectors.

When H1 and H2 have identical right singular vectors, W1 and W2 commute and
share an eigenbasis.  After rotating into that basis the wiretap problem
splits into independent scalar modes, and the exact (not merely weak) optimal
covariance has a closed form: the same per-mode quadratic-root allocation as
the isotropic case, with the per-mode eavesdropper gain in place of the
uniform one.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _waterfill
from .core import (ChannelPair, SolveResultGrid, check_gains, clean_spectrum,
                   frob, over_powers)

# seed of the random pencil weight used to split degenerate eigenspaces;
# fixed so detection is reproducible run to run
_PENCIL_SEED = 20240817
_PENCIL_ATTEMPTS = 8
# relative commutator norm up to which W1 and W2 count as commuting
COMMUTE_TOL = 1e-8


class NotCommutingError(ValueError):
    """W1 and W2 do not commute, so no shared eigenbasis exists."""

    def __init__(self, message: str, commutator_norm: float):
        super().__init__(message)
        self.commutator_norm = commutator_norm


def commutation_residual(pair: ChannelPair) -> float:
    """||W1 W2 - W2 W1|| / (||W1|| ||W2||); zero means a shared eigenbasis."""
    a, b = pair.w1.entries, pair.w2.entries
    denom = frob(a) * frob(b)
    return frob(a @ b - b @ a) / denom if denom else 0.0


@functools.cache
def _pencil_weights() -> tuple[float, ...]:
    """The pencil weights, drawn on first use: at import, numpy.random would load too."""
    return tuple(np.random.default_rng(_PENCIL_SEED).uniform(0.25, 4.0, _PENCIL_ATTEMPTS))


class CommonBasisChannel:
    """Shared eigenbasis V with eigenvalue vectors paired by eigenvector.

    ``lam1[i]`` and ``lam2[i]`` belong to the same column of ``basis``; the
    vectors are deliberately not sorted, because pairing is by eigenvector,
    not by magnitude.
    """

    def __init__(self, basis: np.ndarray, lam1: np.ndarray, lam2: np.ndarray):
        basis = np.asarray(basis)
        m = len(basis)
        if (basis.shape != (m, m) or not np.isfinite(basis).all()
                or not np.abs(basis.conj().T @ basis - np.eye(m)).max() <= 1e-10):
            raise ValueError("basis must be finite, square and unitary within 1e-10")
        self.basis = basis
        self.lam1 = check_gains("lam1", lam1)
        self.lam2 = check_gains("lam2", lam2)
        if self.lam1.shape != (m,) or self.lam2.shape != (m,):
            raise ValueError("eigenvalue vectors must have length m")


def detect_common_rsv(pair: ChannelPair) -> CommonBasisChannel:
    """Find a simultaneous eigenbasis of W1 and W2, or raise NotCommutingError.

    Acceptance requires ``||[W1, W2]|| <= COMMUTE_TOL * ||W1|| ||W2||``.  The
    basis is computed by diagonalizing the pencil W1 + eta*W2 for a seeded
    random eta, which splits eigenspaces that are degenerate in either
    matrix alone.
    """
    w1, w2 = pair.w1.entries, pair.w2.entries
    n1, n2 = frob(w1), frob(w2)  # each norm once: commutation_residual's rule
    resid = frob(w1 @ w2 - w2 @ w1) / (n1 * n2) if n1 * n2 else 0.0
    if resid > COMMUTE_TOL:
        raise NotCommutingError(
            f"W1 and W2 do not commute: relative commutator norm {resid:.3e} "
            f"exceeds tol {COMMUTE_TOL:g}", commutator_norm=resid)

    last_off = 0.0
    for eta in _pencil_weights():
        _, v = np.linalg.eigh(0.5 * ((w1 + eta * w2) + (w1 + eta * w2).conj().T))
        d1 = v.conj().T @ w1 @ v
        d2 = v.conj().T @ w2 @ v
        off1 = frob(d1 - np.diag(np.diag(d1)))
        off2 = frob(d2 - np.diag(np.diag(d2)))
        last_off = max(off1, off2)
        if (off1 <= 10 * COMMUTE_TOL * max(n1, 1e-300)
                and off2 <= 10 * COMMUTE_TOL * max(n2, 1e-300)):
            return CommonBasisChannel(
                v, clean_spectrum(np.diag(d1).real), clean_spectrum(np.diag(d2).real))
    raise NotCommutingError(
        f"pencil diagonalization failed to split degeneracies "
        f"(off-diagonal residual {last_off:.3e})", commutator_norm=resid)


@over_powers
def solve_common_rsv(channel: CommonBasisChannel,
                     p_total: np.ndarray) -> SolveResultGrid:
    """Exact optimal covariance for a shared-eigenbasis channel.

    Per-mode powers follow the quadratic-root allocation with the paired
    eavesdropper eigenvalue as the per-mode leakage gain (water-filling when
    W2 = 0); modes are active exactly when lam1_i > lam2_i + lambda.
    """
    return _waterfill.solve_modes(channel.lam1, channel.lam2, p_total, channel.basis)
