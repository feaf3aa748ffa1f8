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

from . import _waterfill, common_rsv
from .core import (CapacityBounds, ChannelPair, HermitianMatrix, KktResidual,
                   NotApplicableError, SolveConfig, SolveResult, SolveStatus,
                   as_array, check_p_total, frob, inv_winv_plus_r,
                   secrecy_rate, sym)


def _weak_core(pair: ChannelPair):
    """W2's eigendecomposition in ascending order, reused across the lam
    search: the kept decomposition of W2, reversed.  Eigenvalues at or below
    rank_tol times the largest are exactly zero, so that round-off on W2's
    null directions cannot shift the multiplier added to them."""
    dec = pair.w2.eig()
    s2 = np.clip(dec.eigenvalues[::-1], 0.0, None)
    cut = pair.rank_tol * (float(s2[-1]) if s2.size else 0.0)
    return np.where(s2 > cut, s2, 0.0), dec.eigenvectors[:, ::-1]


def _weak_cov_at(pair: ChannelPair, s2: np.ndarray, v2: np.ndarray, lam: float):
    """Covariance, trace, weak capacity and d(trace)/d(lam) of the closed form
    at multiplier lam.

    ``lam = 0`` uses the pseudo-inverse of W2 (equivalently, the problem
    projected orthogonally to the nullspace of W2).
    """
    tol = pair.rank_tol
    d = lam + s2
    top = float(np.max(d)) if d.size else 0.0
    inv_sqrt = np.where(d > tol * top, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
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
    return resid <= pair.rank_tol * max(frob(pair.w1.entries), 1e-300)


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


# modes with l1 = 0 give 1/0 and inf - inf in the two helpers below; the
# l1 > 0 masks drop them
def _diag_threshold(l1: np.ndarray, l2: np.ndarray, tol: float) -> float:
    top1 = float(np.max(l1)) if l1.size else 0.0
    free = (l2 <= 0) & (l1 > tol * top1)
    if np.any(free):
        return math.inf
    with np.errstate(invalid="ignore"):
        inv2 = np.where(l2 > 0, 1.0 / np.where(l2 > 0, l2, 1.0), math.inf)
        inv1 = np.where(l1 > 0, 1.0 / np.where(l1 > 0, l1, 1.0), math.inf)
        return float(np.sum(np.maximum(np.where(l1 > 0, inv2 - inv1, 0.0), 0.0)))


def _diag_powers(l1: np.ndarray, l2: np.ndarray, lam: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        inv1 = np.where(l1 > 0, 1.0 / np.where(l1 > 0, l1, 1.0), math.inf)
        return np.maximum(np.where(l1 > 0, 1.0 / (lam + l2) - inv1, 0.0), 0.0)


def _solve_weak_diagonal(pair: ChannelPair, channel, p_total: float,
                         cfg: SolveConfig) -> SolveResult:
    """Shared-eigenbasis fast path: per-mode powers (1/(lam+l2_i) - 1/l1_i)_+."""
    l1, l2 = channel.lam1, channel.lam2
    if p_total >= _diag_threshold(l1, l2, pair.rank_tol):
        lam = 0.0
        powers = _diag_powers(l1, l2, lam)
    else:
        def slopes(lam, powers, idx):
            # in x = 1/lam: dp/dx = c^2 and d2p/dx2 = -2 l2 c^3, c = lam/(lam+l2)
            c = lam / (lam + l2[idx])
            return c * c, -2.0 * l2[idx] * c ** 3

        def alone(i, q):
            return float(1.0 / (q + 1.0 / l1[i]) - l2[i])

        lam, powers = _waterfill._parallel_multiplier(
            np.where(l1 > 0, l1 - l2, 0.0), lambda lam: _diag_powers(l1, l2, lam),
            slopes, alone, p_total, cfg.power_tol, cfg.max_iters, "weak-solver")
    cov = (channel.basis * powers) @ channel.basis.conj().T
    cw = float(np.sum(np.log1p(l1 * powers) - l2 * powers))
    return _assemble(pair, HermitianMatrix(sym(cov), rank_tol=pair.rank_tol),
                     powers, cw, lam)


def _assemble(pair: ChannelPair, cov: HermitianMatrix, powers: np.ndarray,
              cw: float, lam: float) -> SolveResult:
    capacity = max(cw, 0.0)
    used = float(np.sum(powers))
    zero = capacity == 0.0 and used <= pair.rank_tol
    return SolveResult(
        covariance=HermitianMatrix(np.zeros((pair.m, pair.m))) if zero else cov,
        capacity_nats=capacity,
        lagrange_lambda=lam,
        active_modes=int(np.count_nonzero(powers > 0)),
        power_used=0.0 if zero else used,
        status=SolveStatus.ZERO_RATE if zero else SolveStatus.SOLVED,
        mode_powers=np.zeros_like(powers) if zero else powers,
    )


def _general_result(pair: ChannelPair, cov: np.ndarray, cw: float,
                    lam: float) -> SolveResult:
    """The result of a covariance from the general closed form; its mode
    powers are the eigenvalues of the covariance's kept decomposition."""
    cov_h = HermitianMatrix(sym(cov), rank_tol=pair.rank_tol)
    powers = np.clip(cov_h.eigenvalues(), 0.0, None)
    cut = pair.rank_tol * (float(np.max(powers)) if powers.size else 0.0)
    return _assemble(pair, cov_h, np.where(powers > cut, powers, 0.0), cw, lam)


def _saturation(pair: ChannelPair) -> tuple[float, SolveResult]:
    """Power and result of the closed form at lam = 0: the threshold power
    when it is finite, and the optimum at every power from there on."""
    cov, trace, cw, _ = _weak_cov_at(pair, *_weak_core(pair), 0.0)
    return trace, _general_result(pair, cov, cw, 0.0)


def _solve_weak_general(pair: ChannelPair, p_total: float,
                        cfg: SolveConfig) -> SolveResult:
    # W1 = 0 has threshold power 0, so the search below has a positive gain
    if p_total >= pair.fact("threshold_power", threshold_power):
        return pair.fact("weak_saturation", _saturation)[1]
    s2, v2 = _weak_core(pair)
    # Loewner bounds: the trace at lam lies between the water-filling totals
    # over the eigenvalues of W1 at levels 1/(lam + max s2) and
    # 1/(lam + min s2), which brackets the root around the water-filling
    # multiplier.  When W2 has null directions (exact zeros, see _weak_core),
    # _weak_cov_at drops them below lam = rank_tol * max s2 and the trace
    # falls again, so the bracket then stays above that window.
    _, lam_wf = _waterfill.standard_waterfill(
        np.clip(pair.w1.eigenvalues(), 0.0, None), p_total)
    floor = 2.0 * pair.rank_tol * float(s2[-1]) if s2[0] == 0.0 else 0.0
    lo = max(lam_wf - float(s2[-1]), floor)
    hi = max(lam_wf - float(s2[0]), lo)

    def power_at(lam):
        cov, trace, cw, slope = _weak_cov_at(pair, s2, v2, lam)
        # a Newton step in x = 1/lam: d trace / dx = -lam^2 d trace / d lam
        return trace, (cov, cw), _waterfill._model_root(
            lam, trace, -lam * lam * slope, 0.0, p_total)

    lam, (cov, cw) = _waterfill._find_multiplier(
        power_at, lo, hi, p_total, cfg.power_tol, cfg.max_iters, "weak-solver")
    return _general_result(pair, cov, cw, lam)


def solve_weak(pair: ChannelPair, p_total: float,
               cfg: SolveConfig | None = None) -> SolveResult:
    """Maximize the weak-eavesdropper rate ln|I + W1 R| - tr(W2 R).

    The multiplier is searched until the trace meets min(P_T, P_T*); above
    the threshold power only partial power is used.
    Channels whose Gram matrices commute take the exact diagonal fast path.
    """
    check_p_total(p_total)
    cfg = cfg or SolveConfig()
    try:
        channel = pair.common_basis()
    except common_rsv.NotCommutingError:
        return _solve_weak_general(pair, p_total, cfg)
    return _solve_weak_diagonal(pair, channel, p_total, cfg)


def solve_weak_with_bounds(pair: ChannelPair, p_total: float,
                           cfg: SolveConfig | None = None) -> SolveResult:
    """:func:`solve_weak` with its capacity sandwich attached as ``bounds``:
    C_w <= C(R*_w) <= C_s <= C_w + P_T^2 lam_max(W2)^2 / 2."""
    res = solve_weak(pair, p_total, cfg)
    lam2_max = float(np.max(np.clip(pair.w2.eigenvalues(), 0.0, None)))
    gap = 0.5 * (p_total * lam2_max) ** 2
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


def capacity_bounds_weak(pair: ChannelPair, p_total: float,
                         cfg: SolveConfig | None = None) -> CapacityBounds:
    """Capacity sandwich C_w <= C(R*_w) <= C_s <= C_w + P_T^2 lam_max(W2)^2 / 2."""
    return solve_weak_with_bounds(pair, p_total, cfg).bounds


def saturation_capacities(pair: ChannelPair) -> tuple[float, float]:
    """High-SNR limits (exact, weak) for W1 > W2 > 0.

    exact = ln|W1| - ln|W2|; weak = exact - tr(I - W2 W1^{-1}).  Raises
    NotApplicableError outside the strict ordering, where the closed forms
    do not apply.
    """
    ev2 = pair.w2.eigenvalues()
    if ev2[-1] <= pair.w2.rank_tol * max(float(ev2[0]), 0.0):
        raise NotApplicableError("saturation formulas need W2 positive definite")
    diff = HermitianMatrix(pair.w1.entries - pair.w2.entries, rank_tol=pair.rank_tol)
    evd = diff.eigenvalues()
    if evd[-1] <= pair.rank_tol * abs(float(evd[0])):
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
    ra = as_array(r)
    m_dual = sym(pair.w2.entries + lam * np.eye(pair.m)
                 - inv_winv_plus_r(pair.w1, ra))
    return KktResidual.of(m_dual, ra, lam, p_total)
