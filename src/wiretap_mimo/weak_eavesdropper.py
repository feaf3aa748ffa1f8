"""Weak-eavesdropper optimal covariance, capacity bounds and saturation values.

The weak objective replaces the eavesdropper's log-det by its linearization:

    C_w(R) = ln|I + W1 R| - tr(W2 R)

This problem is concave and admits a closed-form maximizer

    R*_w = Q^(1/2) (I - What1^{-1})_+ Q^(1/2),   What1 = Q^(1/2) W1 Q^(1/2)

with Q the pseudo-inverse of lam*I + W2 and lam >= 0 chosen so that the full
power is used below the saturation threshold and lam = 0 above it.  The weak
capacity sandwiches the true secrecy capacity within P_T^2 lam_max(W2)^2 / 2,
which is what :func:`capacity_bounds_weak` reports.
"""

from __future__ import annotations

import math

import numpy as np

from . import _waterfill
from .core import (CapacityBoundsGrid, ChannelPair, HermitianMatrix, KktResidual,
                   NotApplicableError, RANK_TOL, SolveResultGrid, SolveStatus,
                   _coerce_psd, check_nonnegative, clean_spectrum,
                   inv_winv_plus_r, over_powers, secrecy_rate, sym)


def _weak_core(pair: ChannelPair):
    """W2's eigenvalues (ascending) and eigenvectors on the directions the
    closed form uses, decided once per pair.  When ``pair.range_contained()``,
    those are W2's range alone: the null directions carry no gain, and
    dropping them is the pseudo-inverse at lam = 0.  Otherwise every
    direction, with W2's spectrum cleaned (``HermitianMatrix.spectrum``)
    so that round-off cannot shift the multiplier added to the null
    directions."""
    s2 = pair.w2.spectrum()[::-1]
    v2 = pair.w2.eig().eigenvectors[:, ::-1]
    keep = s2 > 0
    if pair.range_contained():
        return s2[keep], v2[:, keep]
    return np.where(keep, s2, 0.0), v2


def _weak_cov_at(pair: ChannelPair, s2: np.ndarray, v2: np.ndarray,
                 lam: np.ndarray):
    """Covariances, traces, weak capacities and d(trace)/d(lam) of the closed
    form at each multiplier of the array ``lam`` (stacked along a first
    axis), on the directions ``s2``, ``v2`` of :func:`_weak_core`.

    ``lam = 0`` is evaluated only on W2's range, where it is the
    pseudo-inverse of W2 (the problem projected orthogonally to the
    nullspace of W2).
    """
    inv_sqrt = 1.0 / np.sqrt(lam[:, None] + s2)
    v2h = v2.conj().T
    qh = (v2 * inv_sqrt[:, None, :]) @ v2h  # Q^(1/2)
    ev, u = np.linalg.eigh(sym(qh @ pair.w1.entries @ qh))
    # (I - What1^{-1})_+ keeps only eigenmodes with eigenvalue above one;
    # singular modes of What1 drop out automatically
    on = ev > 1.0
    gains = np.where(on, 1.0 - 1.0 / np.where(on, ev, 1.0), 0.0)
    qu = qh @ u
    cov = (qu * gains[:, None, :]) @ qu.conj().swapaxes(1, 2)
    trace = np.einsum("nij,nj,nij->n", qu.conj(), gains, qu).real
    # weak capacity in closed form: sum of ln over active modes minus the
    # leakage trace tr(What2 * D), What2 = Q^(1/2) W2 Q^(1/2) taken from W2's
    # spectrum, so that its null directions leak exactly nothing
    w2h = (v2 * (s2 * inv_sqrt ** 2)[:, None, :]) @ v2h
    leak = np.einsum("nij,nj,nij->n", u.conj(), gains, w2h @ u).real
    cw = np.sum(np.log(np.where(on, ev, 1.0)), axis=1) - leak
    return cov, trace, cw, _trace_slope(qh, qu, ev, gains)


def _trace_slope(qh, qu, ev, gains) -> np.ndarray:
    """d tr R / d lam for R = Q^(1/2) f(What1) Q^(1/2), f(t) = (1 - 1/t)_+,
    for each stacked Q^(1/2) ``qh``.

    With dQ/dlam = -Q^2 and A = U^H Q U, the Daleckii-Krein formula gives
    -sum_j f_j |Q u_j|^2 - 1/2 sum_ij |A_ij|^2 G_ij (ev_i + ev_j), where G
    holds the divided differences of f at the eigenvalues of What1.
    """
    on = ev > 1.0
    e = np.where(on, ev, 1.0)
    # a[col] and a[row] hold a_i and a_j over each stacked matrix's pairs (i, j)
    col, row = (slice(None), slice(None), None), (slice(None), None, slice(None))
    one = on[col] ^ on[row]  # exactly one of the pair active
    gap = np.where(one, ev[col] - ev[row], 1.0)
    div = np.where(on[col] & on[row], 1.0 / (e[col] * e[row]),
                   np.where(one, (gains[col] - gains[row]) / gap, 0.0))
    a = np.abs(qu.conj().swapaxes(1, 2) @ qu) ** 2
    direct = np.einsum("nj,nij->n", gains, np.abs(qh @ qu) ** 2)
    return -direct - 0.5 * np.sum(a * div * (ev[col] + ev[row]), axis=(1, 2))


def threshold_power(pair: ChannelPair) -> float:
    """Saturation power beyond which the weak solution stops using extra power.

    Infinite when W2 has a nullspace direction that W1 can still exploit
    (power can always be dumped there at no leakage cost).  When range(W1)
    lies inside range(W2) (``ChannelPair.range_contained``), the value is
    computed on the matrices projected orthogonally to the W2 nullspace,
    which is what the pseudo-inverse realizes.
    """
    if not pair.range_contained():
        return math.inf
    return pair.fact("weak_saturation", _saturation)[0]


def _saturation(pair: ChannelPair) -> tuple[float, np.ndarray, np.ndarray]:
    """Power, covariance and weak capacity of the closed form at lam = 0:
    the threshold power when it is finite, and the optimum at every power
    from there on."""
    s2, v2 = pair.fact("weak_core", _weak_core)
    cov, trace, cw, _ = _weak_cov_at(pair, s2, v2, np.zeros(1))
    return float(trace[0]), cov, cw


@over_powers
def solve_weak(pair: ChannelPair, p_total: np.ndarray) -> SolveResultGrid:
    """Maximize the weak-eavesdropper rate ln|I + W1 R| - tr(W2 R).

    The multiplier is searched until the trace meets min(P_T, P_T*); above
    the threshold power only partial power is used.  One search serves every
    power below the threshold, and one cached evaluation every power from
    it on.
    """
    # W1 = 0 has threshold power 0, so the search below has a positive gain
    saturated = p_total >= pair.fact("threshold_power", threshold_power)
    below = np.flatnonzero(~saturated)
    s2, v2 = pair.fact("weak_core", _weak_core)
    n = p_total.size
    covs = np.empty((n, pair.m, pair.m), np.result_type(v2, pair.w1.entries))
    cws, lams = np.empty(n), np.zeros(n)
    if below.size < n:
        _, covs[saturated], cws[saturated] = pair.fact("weak_saturation", _saturation)
    if below.size:
        p = p_total[below]
        # Loewner bounds: the trace at lam lies between the water-filling
        # totals over the eigenvalues of W1 at levels 1/(lam + max s2) and
        # 1/(lam + min s2), which brackets the root around the water-filling
        # multiplier
        _, lam_wf = _waterfill.standard_waterfill(pair.w1.spectrum(), p)
        lo = np.maximum(lam_wf - s2[-1], 0.0)
        hi = np.maximum(lam_wf - s2[0], lo)

        def power_at(lam, live):
            cov, trace, cw, slope = _weak_cov_at(pair, s2, v2, lam)
            # a Newton step in x = 1/lam: d trace / dx = -lam^2 d trace / d lam
            return trace, (cov, cw), _waterfill._model_root(
                lam, trace, -lam * lam * slope, 0.0, p[live])

        lams[below], (covs[below], cws[below]) = _waterfill._find_multiplier(
            power_at, lo, hi, p, "weak-solver")
    # the mode powers are each covariance's eigenvalues, as a kept
    # decomposition gives them; a zero-rate result keeps its multiplier and
    # active-mode count
    covs = sym(covs)
    ev = np.linalg.eigh(covs)[0][:, ::-1]
    powers = clean_spectrum(ev)
    capacities = np.where(cws < 0.0, 0.0, cws)
    used = np.sum(powers, axis=1)
    zero = (capacities == 0.0) & (used <= RANK_TOL)
    return SolveResultGrid(
        np.where(zero[:, None, None], 0.0, covs), capacities, lams,
        np.count_nonzero(powers > 0, axis=1), np.where(zero, 0.0, used),
        np.where(zero, SolveStatus.ZERO_RATE, SolveStatus.SOLVED),
        np.where(zero[:, None], 0.0, powers), spectra=np.where(zero[:, None], 0.0, ev))


@over_powers
def solve_weak_with_bounds(pair: ChannelPair,
                           p_total: np.ndarray) -> SolveResultGrid:
    """:func:`solve_weak` with its capacity sandwich attached as ``bounds``:
    C_w <= C(R*_w) <= C_s <= C_w + P_T^2 lam_max(W2)^2 / 2, with C(R*_w)
    from one :func:`core.secrecy_rate` call over the whole grid."""
    res = solve_weak(pair, p_total)
    with np.errstate(over="ignore"):  # past float range the gap is inf, still a bound
        gaps = 0.5 * (p_total * float(pair.w2.spectrum()[0])) ** 2
    mid = secrecy_rate(pair, res.covariances)
    return res._with(bounds=CapacityBoundsGrid(
        res.capacities, np.where(mid < 0.0, 0.0, mid), res.capacities + gaps, gaps))


@over_powers
def capacity_bounds_weak(pair: ChannelPair,
                         p_total: np.ndarray) -> CapacityBoundsGrid:
    """Capacity sandwich C_w <= C(R*_w) <= C_s <= C_w + P_T^2 lam_max(W2)^2 / 2."""
    return solve_weak_with_bounds(pair, p_total).bounds


def saturation_capacities(pair: ChannelPair) -> tuple[float, float]:
    """High-SNR limits (exact, weak) for W1 > W2 > 0.

    exact = ln|W1| - ln|W2|; weak = exact - tr(I - W2 W1^{-1}).  Raises
    NotApplicableError outside the strict ordering, where the closed forms
    do not apply.
    """
    if pair.w2.spectrum()[-1] == 0:
        raise NotApplicableError("saturation formulas need W2 positive definite")
    diff = HermitianMatrix(pair.w1.entries - pair.w2.entries)
    if diff.spectrum()[-1] == 0:
        raise NotApplicableError("saturation formulas need W1 - W2 positive definite")
    exact = float(np.linalg.slogdet(pair.w1.entries)[1]
                  - np.linalg.slogdet(pair.w2.entries)[1])
    corr = pair.m - float(np.trace(
        pair.w2.entries @ np.linalg.inv(pair.w1.entries)).real)
    return exact, exact - corr


def kkt_residual_weak(pair: ChannelPair, r, lam: float,
                      p_total: float) -> KktResidual:
    """KKT violation norms of (R, lambda) for the weak problem.

    The dual variable is M = W2 + lambda*I - (I + W1 R)^{-1} W1; optimality
    requires M >= 0, M R = 0 and lambda * (tr R - P_T) = 0.
    """
    ra = _coerce_psd(r, pair.m).entries
    check_nonnegative("lam", lam)
    check_nonnegative("p_total", p_total)
    m_dual = sym(pair.w2.entries + lam * np.eye(pair.m)
                 - inv_winv_plus_r(pair.w1, ra))
    return KktResidual.of(m_dual, ra, lam, p_total)
