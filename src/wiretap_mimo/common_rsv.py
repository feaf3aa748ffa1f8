"""Channels whose legitimate and eavesdropper matrices share right singular vectors.

When H1 and H2 have identical right singular vectors, W1 and W2 commute and
share an eigenbasis.  After rotating into that basis the wiretap problem
splits into independent scalar modes, and the exact (not merely weak) optimal
covariance has a closed form: the same per-mode quadratic-root allocation as
the isotropic case, with the per-mode eavesdropper gain in place of the
uniform one.
"""

from __future__ import annotations

import numpy as np

from . import _waterfill
from .core import ChannelPair, SolveConfig, SolveResult, check_p_total, frob

# seed of the random pencil weight used to split degenerate eigenspaces;
# fixed so detection is reproducible run to run
_PENCIL_SEED = 20240817
_PENCIL_ATTEMPTS = 8


class NotCommutingError(ValueError):
    """W1 and W2 do not commute, so no shared eigenbasis exists."""

    def __init__(self, message: str, commutator_norm: float):
        super().__init__(message)
        self.commutator_norm = commutator_norm


def commutation_residual(pair: ChannelPair) -> float:
    """||W1 W2 - W2 W1|| / (||W1|| ||W2||); zero means a shared eigenbasis."""
    a = pair.w1.entries
    b = pair.w2.entries
    denom = frob(a) * frob(b)
    if denom == 0.0:
        return 0.0
    return frob(a @ b - b @ a) / denom


class CommonBasisChannel:
    """Shared eigenbasis V with eigenvalue vectors paired by eigenvector.

    ``lam1[i]`` and ``lam2[i]`` belong to the same column of ``basis``; the
    vectors are deliberately not sorted, because pairing is by eigenvector,
    not by magnitude.
    """

    def __init__(self, basis: np.ndarray, lam1: np.ndarray, lam2: np.ndarray):
        basis = np.asarray(basis)
        m = basis.shape[0]
        gram = basis.conj().T @ basis
        if np.max(np.abs(gram - np.eye(m))) > 1e-10:
            raise ValueError("basis must be unitary within 1e-10")
        self.basis = basis
        self.lam1 = np.asarray(lam1, dtype=float)
        self.lam2 = np.asarray(lam2, dtype=float)
        if self.lam1.shape != (m,) or self.lam2.shape != (m,):
            raise ValueError("eigenvalue vectors must have length m")
        if np.any(self.lam1 < 0) or np.any(self.lam2 < 0):
            raise ValueError("eigenvalue vectors must be nonnegative")

    @property
    def m(self) -> int:
        return self.basis.shape[0]


def detect_common_rsv(pair: ChannelPair, tol: float = 1e-8) -> CommonBasisChannel:
    """Find a simultaneous eigenbasis of W1 and W2, or raise NotCommutingError.

    Acceptance requires ``||[W1, W2]|| <= tol * ||W1|| ||W2||``.  The basis is
    computed by diagonalizing the pencil W1 + eta*W2 for a seeded random eta,
    which splits eigenspaces that are degenerate in either matrix alone.
    """
    w1 = pair.w1.entries
    w2 = pair.w2.entries
    resid = commutation_residual(pair)
    if resid > tol:
        raise NotCommutingError(
            f"W1 and W2 do not commute: relative commutator norm {resid:.3e} "
            f"exceeds tol {tol:g}", commutator_norm=resid)

    n1, n2 = frob(w1), frob(w2)
    rng = np.random.default_rng(_PENCIL_SEED)
    last_off = 0.0
    for _ in range(_PENCIL_ATTEMPTS):
        eta = rng.uniform(0.25, 4.0)
        _, v = np.linalg.eigh(0.5 * ((w1 + eta * w2) + (w1 + eta * w2).conj().T))
        d1 = v.conj().T @ w1 @ v
        d2 = v.conj().T @ w2 @ v
        off1 = frob(d1 - np.diag(np.diag(d1)))
        off2 = frob(d2 - np.diag(np.diag(d2)))
        last_off = max(off1, off2)
        if off1 <= 10 * tol * max(n1, 1e-300) and off2 <= 10 * tol * max(n2, 1e-300):
            lam = np.clip(np.stack([np.diag(d1).real, np.diag(d2).real]), 0.0, None)
            # like every rank decision: at or below rank_tol * max, it is zero
            lam = np.where(lam > pair.rank_tol * lam.max(axis=1, keepdims=True),
                           lam, 0.0)
            return CommonBasisChannel(v, lam[0], lam[1])
    raise NotCommutingError(
        f"pencil diagonalization failed to split degeneracies "
        f"(off-diagonal residual {last_off:.3e})", commutator_norm=resid)


def solve_common_rsv(channel: CommonBasisChannel, p_total: float,
                     cfg: SolveConfig | None = None) -> SolveResult:
    """Exact optimal covariance for a shared-eigenbasis channel.

    Per-mode powers follow the quadratic-root allocation with the paired
    eavesdropper eigenvalue as the per-mode leakage gain; modes are active
    exactly when lam1_i > lam2_i + lambda.
    """
    cfg = cfg or SolveConfig()
    check_p_total(p_total)
    l1, l2 = channel.lam1, channel.lam2
    if np.max(l1 - l2) <= 0:
        return SolveResult.zero_rate(channel.m)
    powers, lam = _waterfill.secrecy_waterfill(
        l1, l2, p_total, power_tol=cfg.power_tol, max_iters=cfg.max_iters)
    cov = (channel.basis * powers) @ channel.basis.conj().T
    capacity = _waterfill.parallel_secrecy_value(l1, l2, powers)
    return SolveResult.solved(cov, powers, capacity, float(lam))
