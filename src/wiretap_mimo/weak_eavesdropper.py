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

import dataclasses
import math

import numpy as np

from . import _waterfill
from .core import (CapacityBounds, ChannelPair, HermitianMatrix, KktResidual,
                   NotApplicableError, RANK_TOL, SolveResult, SolveStatus,
                   _coerce_psd, check_nonnegative, check_positive, frob,
                   inv_winv_plus_r, secrecy_rate, sym)


def _weak_core(pair: ChannelPair):
    """W2's eigenvalues (ascending) and eigenvectors on the directions the
    closed form uses, decided once per pair.  When W2's nullspace lies
    inside W1's, those are W2's range alone: the null directions carry no
    gain, and dropping them is the pseudo-inverse at lam = 0.  Otherwise
    every direction, with W2's spectrum cleaned (``HermitianMatrix.spectrum``)
    so that round-off cannot shift the multiplier added to the null
    directions."""
    s2 = pair.w2.spectrum()[::-1]
    v2 = pair.w2.eig().eigenvectors[:, ::-1]
    keep = s2 > 0
    if _null_space_contained(pair):
        return s2[keep], v2[:, keep]
    return np.where(keep, s2, 0.0), v2


def _weak_cov_at(pair: ChannelPair, s2: np.ndarray, v2: np.ndarray, lam: float):
    """Covariance, trace, weak capacity and d(trace)/d(lam) of the closed form
    at multiplier lam, on the directions ``s2``, ``v2`` of :func:`_weak_core`.

    ``lam = 0`` is evaluated only on W2's range, where it is the
    pseudo-inverse of W2 (the problem projected orthogonally to the
    nullspace of W2).
    """
    inv_sqrt = 1.0 / np.sqrt(lam + s2)
    qh = (v2 * inv_sqrt) @ v2.conj().T  # Q^(1/2)
    w1h = sym(qh @ pair.w1.entries @ qh)
    ev, u = np.linalg.eigh(w1h)
    # (I - What1^{-1})_+ keeps only eigenmodes with eigenvalue above one;
    # singular modes of What1 drop out automatically
    gains = np.where(ev > 1.0, 1.0 - 1.0 / np.where(ev > 1.0, ev, 1.0), 0.0)
    qu = qh @ u
    cov = (qu * gains) @ qu.conj().T
    trace = float(np.einsum("ij,j,ij->", qu.conj(), gains, qu).real)
    # weak capacity in closed form: sum of ln over active modes minus the
    # leakage trace tr(What2 * D), What2 = Q^(1/2) W2 Q^(1/2) taken from W2's
    # spectrum, so that its null directions leak exactly nothing
    w2h = (v2 * (s2 * inv_sqrt ** 2)) @ v2.conj().T
    leak = float(np.einsum("ij,j,ij->", u.conj(), gains, (w2h @ u)).real)
    cw = float(np.sum(np.log(ev[ev > 1.0]))) - leak
    return cov, trace, cw, _trace_slope(qh, qu, ev, gains)


def _trace_slope(qh, qu, ev, gains) -> float:
    """d tr R / d lam for R = Q^(1/2) f(What1) Q^(1/2), f(t) = (1 - 1/t)_+.

    With dQ/dlam = -Q^2 and A = U^H Q U, the Daleckii-Krein formula gives
    -sum_j f_j |Q u_j|^2 - 1/2 sum_ij |A_ij|^2 G_ij (ev_i + ev_j), where G
    holds the divided differences of f at the eigenvalues of What1.
    """
    on = ev > 1.0
    e = np.where(on, ev, 1.0)
    one = on[:, None] ^ on[None, :]  # exactly one of the pair active
    gap = np.where(one, ev[:, None] - ev[None, :], 1.0)
    div = np.where(on[:, None] & on[None, :], 1.0 / np.outer(e, e),
                   np.where(one, (gains[:, None] - gains[None, :]) / gap, 0.0))
    a = np.abs(qu.conj().T @ qu) ** 2
    direct = float(np.einsum("j,ij->", gains, np.abs(qh @ qu) ** 2))
    return -direct - 0.5 * float(np.sum(a * div * (ev[:, None] + ev[None, :])))


def _null_space_contained(pair: ChannelPair) -> bool:
    """Whether the nullspace of W2 lies inside the nullspace of W1."""
    nullb = pair.w2.null_basis()
    if nullb.shape[1] == 0:
        return True
    resid = np.linalg.norm(pair.w1.entries @ nullb, 2)
    return resid <= RANK_TOL * max(frob(pair.w1.entries), 1e-300)


def threshold_power(pair: ChannelPair) -> float:
    """Saturation power beyond which the weak solution stops using extra power.

    Infinite when W2 has a nullspace direction that W1 can still exploit
    (power can always be dumped there at no leakage cost).  When the
    nullspace of W2 sits inside that of W1, the value is computed on the
    matrices projected orthogonally to the W2 nullspace, which is what the
    pseudo-inverse realizes.
    """
    if not _null_space_contained(pair):
        return math.inf
    return pair.fact("weak_saturation", _saturation)[0]


def _general_result(pair: ChannelPair, cov: np.ndarray, cw: float,
                    lam: float) -> SolveResult:
    """The result of a covariance from the general closed form; its mode
    powers are the eigenvalues of the covariance's kept decomposition."""
    cov_h = HermitianMatrix(sym(cov))
    powers = cov_h.spectrum()
    capacity = max(cw, 0.0)
    used = float(np.sum(powers))
    zero = capacity == 0.0 and used <= RANK_TOL
    # not SolveResult.zero_rate: a zero-rate weak result keeps its
    # multiplier and active-mode count
    return SolveResult(
        covariance=HermitianMatrix(np.zeros((pair.m, pair.m))) if zero else cov_h,
        capacity_nats=capacity,
        lagrange_lambda=lam,
        active_modes=int(np.count_nonzero(powers > 0)),
        power_used=0.0 if zero else used,
        status=SolveStatus.ZERO_RATE if zero else SolveStatus.SOLVED,
        mode_powers=np.zeros_like(powers) if zero else powers,
    )


def _saturation(pair: ChannelPair) -> tuple[float, SolveResult]:
    """Power and result of the closed form at lam = 0: the threshold power
    when it is finite, and the optimum at every power from there on."""
    s2, v2 = pair.fact("weak_core", _weak_core)
    cov, trace, cw, _ = _weak_cov_at(pair, s2, v2, 0.0)
    return trace, _general_result(pair, cov, cw, 0.0)


def _solve_weak_general(pair: ChannelPair, p_total: float) -> SolveResult:
    # W1 = 0 has threshold power 0, so the search below has a positive gain
    if p_total >= pair.fact("threshold_power", threshold_power):
        return pair.fact("weak_saturation", _saturation)[1]
    s2, v2 = pair.fact("weak_core", _weak_core)
    # Loewner bounds: the trace at lam lies between the water-filling totals
    # over the eigenvalues of W1 at levels 1/(lam + max s2) and
    # 1/(lam + min s2), which brackets the root around the water-filling
    # multiplier
    _, lam_wf = _waterfill.standard_waterfill(pair.w1.spectrum(), p_total)
    lo = max(lam_wf - float(s2[-1]), 0.0)
    hi = max(lam_wf - float(s2[0]), lo)

    def power_at(lam):
        cov, trace, cw, slope = _weak_cov_at(pair, s2, v2, lam)
        # a Newton step in x = 1/lam: d trace / dx = -lam^2 d trace / d lam
        return trace, (cov, cw), _waterfill._model_root(
            lam, trace, -lam * lam * slope, 0.0, p_total)

    lam, (cov, cw) = _waterfill._find_multiplier(
        power_at, lo, hi, p_total, "weak-solver")
    return _general_result(pair, cov, cw, lam)


def solve_weak(pair: ChannelPair, p_total: float) -> SolveResult:
    """Maximize the weak-eavesdropper rate ln|I + W1 R| - tr(W2 R).

    The multiplier is searched until the trace meets min(P_T, P_T*); above
    the threshold power only partial power is used.
    """
    check_positive("p_total", p_total)
    return _solve_weak_general(pair, p_total)


def solve_weak_with_bounds(pair: ChannelPair, p_total: float) -> SolveResult:
    """:func:`solve_weak` with its capacity sandwich attached as ``bounds``:
    C_w <= C(R*_w) <= C_s <= C_w + P_T^2 lam_max(W2)^2 / 2."""
    res = solve_weak(pair, p_total)
    gap = 0.5 * (p_total * float(pair.w2.spectrum()[0])) ** 2
    mid = max(secrecy_rate(pair, res.covariance), 0.0)
    return dataclasses.replace(res, bounds=CapacityBounds(
        lower_nats=res.capacity_nats,
        mid_nats=mid,
        upper_nats=res.capacity_nats + gap,
        gap_bound_nats=gap,
        provenance=("weak-eavesdropper capacity",
                    "achievable rate of the weak-optimal covariance",
                    "weak capacity plus quadratic leakage bound"),
    ))


def capacity_bounds_weak(pair: ChannelPair, p_total: float) -> CapacityBounds:
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
    _, logdet1 = np.linalg.slogdet(pair.w1.entries)
    _, logdet2 = np.linalg.slogdet(pair.w2.entries)
    exact = float(logdet1 - logdet2)
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
