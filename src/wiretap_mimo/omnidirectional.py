"""Omnidirectional eavesdroppers: uniform gain on a (possibly proper) subspace.

An omnidirectional eavesdropper has W2 = epsilon * U U^H for a semi-unitary U,
i.e. the same gain epsilon in every direction of its active subspace but
possibly deficient rank (fewer antennas than the transmitter).  When the range
of W1 is contained in that subspace the problem is exactly equivalent to the
full isotropic one, so the isotropic solver applies verbatim; outside
containment only the isotropic sandwich bounds are returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ChannelPair, HermitianMatrix, NotApplicableError,
                   SolveResultGrid, SolveStatus, frob, over_powers)
from .isotropic import capacity_bounds_isotropic, solve_isotropic_in_w1_basis

# relative spread up to which W2's positive eigenvalues count as one gain
OMNI_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class OmniClassification:
    """Detection result: is the positive spectrum of W2 uniform?

    ``epsilon`` is the common gain (mean of the positive eigenvalues) and
    ``active_basis`` the m x r2 semi-unitary basis of the active subspace,
    both meaningful only when ``is_omni`` is true.
    """

    is_omni: bool
    epsilon: float
    active_basis: np.ndarray
    r2: int


def classify_omni(w2: HermitianMatrix) -> OmniClassification:
    """Classify W2 as omnidirectional when its positive eigenvalues agree
    within relative tolerance ``OMNI_TOL``.  A zero matrix has no active
    subspace and is not classified as omnidirectional."""
    ev = w2.spectrum()
    pos = ev > 0
    r2 = int(np.count_nonzero(pos))
    basis = w2.eig().eigenvectors[:, pos]
    if r2 == 0:
        return OmniClassification(False, 0.0, basis, 0)
    mean = float(np.mean(ev[pos]))
    uniform = float(np.max(ev[pos]) - np.min(ev[pos])) <= OMNI_TOL * mean
    return OmniClassification(uniform, mean if uniform else 0.0, basis, r2)


def range_containment_residual(w1: HermitianMatrix,
                               active_basis: np.ndarray) -> float:
    """||(I - U U^H) W1|| / ||W1||; zero when range(W1) lies in span(U)."""
    u = np.asarray(active_basis)
    if u.ndim != 2 or u.shape[0] != w1.dim or not np.all(np.isfinite(u)):
        raise ValueError("active_basis must be a finite matrix with m rows")
    n1 = frob(w1.entries)
    if n1 == 0.0:
        return 0.0
    proj = u @ u.conj().T
    return frob(w1.entries - proj @ w1.entries) / n1


@over_powers
def solve_omni(pair: ChannelPair, p_total: np.ndarray) -> SolveResultGrid:
    """Secrecy capacity against an omnidirectional eavesdropper.

    With range containment the capacity equals the isotropic one on the
    eigenvalues of W1, signaling on the eigenvectors of W1.  Without
    containment no exact formula is known; the isotropic sandwich bounds
    are attached and the achievable lower-bound covariance is returned
    with status BOUNDS_ONLY.
    """
    cls = pair.omni()
    if not cls.is_omni:
        raise NotApplicableError("W2 is not omnidirectional (non-uniform positive spectrum)")
    if pair.range_contained():
        return solve_isotropic_in_w1_basis(pair, cls.epsilon, p_total)
    # the lower bound is achievable: signaling designed against the worst
    # isotropic eavesdropper cannot do worse on the true channel; its
    # capacities are the lower bound's to the bit (same modes, leak, powers)
    res = solve_isotropic_in_w1_basis(pair, float(pair.w2.spectrum()[0]), p_total)
    return res._with(bounds=capacity_bounds_isotropic(pair, p_total),
                     statuses=np.full(len(res), SolveStatus.BOUNDS_ONLY))
