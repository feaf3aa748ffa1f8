"""Isotropic-eavesdropper solver: capacity, thresholds, bounds and asymptotics.

An isotropic eavesdropper has the same channel power gain ``epsilon`` in every
transmit direction (W2 = epsilon * I).  The optimal signaling directions are
then the eigenvectors of W1 and the problem reduces to a per-eigenmode power
allocation over the gains ``g_i = lambda_i(W1)``.  Conjugating the eavesdropper
gain by the extreme eigenvalues of a general W2 turns the same solver into
capacity bounds for arbitrary channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from . import _waterfill
from .core import (CapacityBoundsGrid, ChannelPair, SolveResult, SolveResultGrid,
                   check_gains, check_nonnegative, check_powers, over_powers)


@dataclass(frozen=True, eq=False)
class IsotropicProblem:
    """Per-eigenmode view of a channel facing an isotropic eavesdropper.

    ``gains`` are the eigenvalues of W1 sorted in decreasing order;
    ``epsilon`` is the uniform eavesdropper gain.  ``epsilon = 0`` is accepted
    as an explicit no-eavesdropper flag and reproduces standard water-filling.
    ``p_total`` is one power or a power grid (``core.check_powers``).
    """

    gains: np.ndarray
    epsilon: float
    p_total: Union[float, np.ndarray]

    def __post_init__(self):
        g = check_gains("gains", self.gains, decreasing=True)
        check_nonnegative("epsilon", self.epsilon)
        p = check_powers("p_total", self.p_total)
        g.setflags(write=False)
        object.__setattr__(self, "gains", g)
        if np.ndim(self.p_total):
            p.setflags(write=False)
            object.__setattr__(self, "p_total", p)


def solve_isotropic(problem: IsotropicProblem
                    ) -> Union[SolveResult, SolveResultGrid]:
    """Capacity and per-mode powers against an isotropic eavesdropper; a
    :class:`core.SolveResultGrid` when the problem holds a power grid.

    The covariance is returned in the eigenbasis of the gains (diagonal);
    rotate by the eigenvectors of W1 to express it in the antenna basis.
    Full power is always used whenever ``g_1 > epsilon``, even deep in the
    saturation regime; use :func:`asymptotic_capacity`'s saturation ratio to
    detect when extra power has stopped paying.
    """
    out = _waterfill.solve_modes(problem.gains, problem.epsilon,
                                 check_powers("p_total", problem.p_total))
    return out if np.ndim(problem.p_total) else out[0]


def solve_isotropic_in_w1_basis(pair: ChannelPair, epsilon: float,
                                p_total: np.ndarray) -> SolveResultGrid:
    """:func:`solve_isotropic` on the eigenvalues of W1 at eavesdropper gain
    ``epsilon`` and each power of the 1-D array ``p_total``, with the
    covariance on W1's eigenvectors (antenna basis)."""
    return _waterfill.solve_modes(pair.w1.spectrum(), epsilon, p_total,
                                  pair.w1.eig().eigenvectors)


def threshold_powers(gains: np.ndarray, epsilon: float) -> np.ndarray:
    """Power thresholds P_k at which the k-th eigenmode becomes active.

    ``out[k-1]`` is the total power above which at least ``k`` modes are
    active; ``out[0] = 0``.  Entries are ``inf`` once ``g_k <= epsilon``
    (those modes never activate).  Finite entries are strictly increasing
    for strictly decreasing gains.
    """
    g = check_gains("gains", gains, decreasing=True)
    check_nonnegative("epsilon", epsilon)
    out = np.full(g.size, math.inf)
    out[0] = 0.0
    # the k-th mode activates exactly when the multiplier drops to g_k - eps
    d = g[1:] - epsilon
    out[1:][d > 0] = np.sum(_waterfill.secrecy_mode_powers(
        g, epsilon, d[d > 0, None]), axis=1)
    return out


@over_powers
def capacity_bounds_isotropic(pair: ChannelPair,
                              p_total: np.ndarray) -> CapacityBoundsGrid:
    """Sandwich the secrecy capacity between isotropic solves at the extreme
    eigenvalues of W2: C*(eps_max) <= C_s <= C*(eps_min)."""
    eps1 = float(pair.w2.spectrum()[0])
    if eps1 <= 0:
        raise ValueError("W2 must be nonzero; use standard water-filling instead")
    return _sandwich(pair, solve_isotropic(IsotropicProblem(
        pair.w1.spectrum(), eps1, p_total)).capacities, p_total)


def _sandwich(pair: ChannelPair, lower: np.ndarray,
             p_total: np.ndarray) -> CapacityBoundsGrid:
    """:func:`capacity_bounds_isotropic` at each power of the 1-D array
    ``p_total``, given its lower end: the capacities C*(eps_max) of an
    isotropic solve at W2's largest eigenvalue, which must be positive."""
    gains = pair.w1.spectrum()
    ev2 = pair.w2.spectrum()
    eps1, epsm = float(ev2[0]), float(ev2[-1])
    upper = solve_isotropic(IsotropicProblem(gains, epsm, p_total)).capacities
    m_plus = int(np.count_nonzero(gains > epsm))
    gaps = np.zeros(p_total.shape) if m_plus == 0 else np.minimum(
        m_plus * np.log((1.0 + eps1 * p_total / m_plus)
                        / (1.0 + epsm * p_total / m_plus)),
        m_plus * math.log(eps1 / epsm) if epsm > 0 else math.inf)
    return CapacityBoundsGrid(lower, 0.5 * (lower + upper), upper, gaps)


class AsymptoticRegime(Enum):
    HIGH_SNR = "HighSNR"
    HIGH_SNR_REFINED = "HighSNRRefined"
    LOW_SNR = "LowSNR"


@dataclass(frozen=True)
class AsymptoticReport:
    """Asymptotic capacity value plus the validity diagnostics.

    ``saturation_ratio`` is P_T * C_inf / beta**2 (saturation needs >> 1);
    it is None when epsilon = 0 or no mode beats the eavesdropper.
    ``single_mode`` reports whether P_T is below the beamforming threshold.
    """

    value: float
    saturation_ratio: Optional[float]
    single_mode: bool


def _saturation_terms(g: np.ndarray, eps: float) -> tuple[float, float]:
    active = g > eps
    c_inf = float(np.sum(np.log(g[active] / eps)))
    beta = float(np.sum(np.sqrt(1.0 / eps - 1.0 / g[active])))
    return c_inf, beta


def asymptotic_capacity(problem: IsotropicProblem,
                        regime: AsymptoticRegime) -> AsymptoticReport:
    """Closed-form high/low-SNR capacity values with validity diagnostics,
    at the problem's one power (a power grid is refused)."""
    if np.ndim(problem.p_total):
        raise ValueError("p_total must be one power here, not a grid")
    g, eps, p = problem.gains, problem.epsilon, problem.p_total

    thresholds = threshold_powers(g, eps)
    single_mode = bool(g.size < 2 or p <= thresholds[1])

    ratio: Optional[float] = None
    if eps > 0 and np.any(g > eps):
        c_inf, beta = _saturation_terms(g, eps)
        if beta > 0:
            ratio = p * c_inf / (beta * beta)

    if regime in (AsymptoticRegime.HIGH_SNR, AsymptoticRegime.HIGH_SNR_REFINED):
        if eps <= 0:
            raise ValueError("high-SNR saturation requires epsilon > 0")
        if not np.any(g > eps):
            raise ValueError("high-SNR regime requires some g_i > epsilon")
        # c_inf and beta as computed for the ratio, whose conditions hold here
        value = c_inf - beta * beta / p if regime is AsymptoticRegime.HIGH_SNR_REFINED else c_inf
        return AsymptoticReport(value, ratio, single_mode)

    if g[0] <= eps:
        raise ValueError("low-SNR regime requires g_1 > epsilon")
    value = math.log1p(g[0] * p) - math.log1p(eps * p)
    return AsymptoticReport(value, ratio, single_mode)


@dataclass(frozen=True)
class NegligibilityReport:
    """Dimensionless margins deciding whether the eavesdropper matters.

    Both must be small: ``snr_margin = epsilon * P_T`` (saturation onset) and
    ``gain_margin = max over active modes of epsilon / g_i`` (per-mode loss).
    """

    snr_margin: float
    gain_margin: float
    negligible: bool
    threshold: float


def negligibility_margins(problem: IsotropicProblem,
                          threshold: float = 0.1) -> NegligibilityReport:
    """The two margins of ``problem``; negligible when both are strictly
    below ``threshold``.  epsilon = 0 takes the same path as any epsilon, so
    the verdict is continuous there: both margins are 0, negligible at every
    positive threshold and not at 0.  With no active mode (all gains zero)
    the gain margin is inf, and the eavesdropper is never negligible.  Needs
    the problem's one power: a power grid is refused."""
    if np.ndim(problem.p_total):
        raise ValueError("p_total must be one power here, not a grid")
    check_nonnegative("threshold", threshold)
    eps = problem.epsilon
    snr_margin = eps * problem.p_total
    res = solve_isotropic(problem)
    active = res.mode_powers > 0
    gain_margin = float(np.max(eps / problem.gains[active])) if active.any() else math.inf
    negligible = snr_margin < threshold and gain_margin < threshold
    return NegligibilityReport(snr_margin, gain_margin, negligible, threshold)
