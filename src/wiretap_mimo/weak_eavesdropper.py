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


def _weak_table(pair: ChannelPair):
    """The closed form in W2's eigenbasis V, kept on the pair: W2's eigenvalues
    s2 (ascending) and V on its range when ``pair.range_contained()`` (the
    pseudo-inverse at lam = 0), else on every direction; W1' = V^H W1 V; and
    a table of nodes (decreasing) with their traces, slopes and active counts
    below (at each mu_k also above): the activation multipliers mu_k > 0, the
    eigenvalues of W1' - diag(s2) (What1 = D W1' D, D = diag(lam + s2)^(-1/2),
    has mode k active exactly when lam < mu_k, by Sylvester's inertia), a grid
    halving from the first to 2^-7 of the smallest of the last and W2's
    positive eigenvalues, and lam = 0 (the threshold power, else an infinite
    trace), with What1's eigenpairs there."""
    s2, v2 = pair.w2.spectrum()[::-1], pair.w2.eig().eigenvectors[:, ::-1]
    keep, contained = s2 > 0, pair.range_contained()
    s2, v2 = (s2[keep], v2[:, keep]) if contained else (np.where(keep, s2, 0.0), v2)
    w1p = sym(v2.conj().T @ pair.w1.entries @ v2)
    mu = np.linalg.eigh(w1p - np.diag(s2))[0]
    act, lam = mu[mu > 0], [[0.0]]
    if act.size:
        octaves = math.log2(act[-1] / min(act[0], s2[s2 > 0].min(initial=math.inf)))
        lam += [act, act[-1] * 0.5 ** np.arange(1.0, octaves + 8.0)]
    lam = np.sort(np.concatenate(lam))[::-1]
    lam = lam[np.append(True, lam[1:] < lam[:-1])]
    above = (mu[:, None] > lam).sum(0)
    below = np.where(lam > 0, (mu[:, None] >= lam).sum(0), above)
    # a node where modes activate comes twice: with the count just above, then below
    twice = np.stack([below != above, np.full(lam.size, True)], 1)
    lam, counts = np.repeat(lam, twice.sum(1)), np.stack([above, below], 1)[twice]
    n = lam.size - (not contained)  # the nodes of finite trace
    trace, slope, ev, u = _evaluate(s2, w1p, lam[:n], counts[:n])
    trace, slope = (np.append(a, v)[:lam.size] for a, v in ((trace, math.inf), (slope, math.nan)))
    return s2, v2, w1p, lam, trace, slope, counts, ev[n - 1], u[n - 1]


def _evaluate(s2: np.ndarray, w1p: np.ndarray, lam: np.ndarray, n_on: np.ndarray):
    """Trace, its slope in lam and What1's eigenpairs (ascending) at each lam,
    the top ``n_on`` modes active, from one batched ``eigh``: with A = U^H D^2 U
    the trace is sum_j (1 - 1/ev_j) A_jj over active modes and the slope
    -sum_ij |A_ij|^2 c[ev_i, ev_j] (Daleckii-Krein), c(t) = t - 1 if active, else 0."""
    d2 = 1.0 / (lam[:, None] + s2)
    d = np.sqrt(d2)
    ev, u = np.linalg.eigh(d[:, :, None] * w1p * d[:, None, :])
    on = np.arange(s2.size) >= s2.size - n_on[:, None]
    a = (u.conj() * d2[:, :, None]).swapaxes(1, 2) @ u
    c = np.where(on, ev - 1.0, 0.0)
    trace = (c / np.where(on, ev, 1.0) * a.diagonal(0, 1, 2).real).sum(1)
    gap = ev[:, :, None] - ev[:, None, :]  # over each stacked matrix's pairs (i, j)
    div = np.where(on[:, :, None] & on[:, None, :], 1.0,
                   (c[:, :, None] - c[:, None, :]) / np.where(gap == 0.0, 1.0, gap))
    return trace, -(np.abs(a) ** 2 * div).sum((1, 2)), ev, u


def threshold_power(pair: ChannelPair) -> float:
    """Saturation power beyond which the weak solution stops using extra power.

    Infinite when W2 has a nullspace direction that W1 can still exploit
    (power can always be dumped there at no leakage cost).  When range(W1)
    lies inside range(W2) (``ChannelPair.range_contained``), the value is
    computed on the matrices projected orthogonally to the W2 nullspace,
    which is what the pseudo-inverse realizes.
    """
    return float(pair.fact("weak_table", _weak_table)[4][-1])


def _start(lam, trace, slope, i: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Each power's first multiplier between the nodes i and i + 1 whose traces
    hold it: the cubic Hermite interpolant of 1/lam in the trace (of lam on a
    last piece ending at lam = 0; the tangent past a last node of infinite
    trace), else the nodes' midpoint."""
    la, lb, ta, tb = lam[i], lam[i + 1], trace[i], trace[i + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv, h, t = (lb > 0) | (tb == math.inf), tb - ta, (p - ta) / (tb - ta)
        ya, yb = np.where(inv, 1.0 / la, la), np.where(inv, 1.0 / lb, lb)
        da, db = (np.where(inv, -y * y, 1.0) / slope[j] for y, j in ((ya, i), (yb, i + 1)))
        y = np.where(tb == math.inf, ya + (p - ta) * da, ya + t * (h * da + t * (
            3.0 * (yb - ya) - h * (2.0 * da + db) + t * (h * (da + db) - 2.0 * (yb - ya)))))
        start = np.where(inv, 1.0 / y, y)
    return np.where((lb < start) & (start < la), start,
                    np.where(lb > 0.0, np.sqrt(la * lb), 0.5 * la))


@over_powers
def solve_weak(pair: ChannelPair, p_total: np.ndarray) -> SolveResultGrid:
    """Maximize the weak-eavesdropper rate ln|I + W1 R| - tr(W2 R).

    The multiplier is searched until the trace meets min(P_T, P_T*); above
    the threshold power only partial power is used, at the table's lam = 0.
    Each power starts on its active piece (:func:`_start`) and steps to the
    root of a x^alpha + b in x = 1/lam matched to the trace's value, slope
    and (through its last slope) curvature.  R = V D U diag(1 - 1/ev) U^H D V^H
    and C_w = sum ln ev - tr(W2 R) (active modes; tr(W2 R) from W2's
    spectrum, so null directions leak nothing) are formed once, at the root.
    """
    # W1 = 0 has threshold power 0, so the search below has a positive gain
    saturated = p_total >= threshold_power(pair)
    below = np.flatnonzero(~saturated)
    s2, v2, w1p, nodes, traces, slopes, counts, ev0, u0 = pair.fact(
        "weak_table", _weak_table)
    lams, n_on = np.zeros(p_total.size), np.full(p_total.size, counts[-1])  # saturated: lam = 0
    ev, u = (np.array(np.broadcast_to(a, lams.shape + a.shape)) for a in (ev0, u0))
    if below.size:
        p = p_total[below]
        i = np.maximum(np.searchsorted(traces, p, "right") - 1, 0)
        n_on[below] = live_on = counts[i]
        last = np.array([nodes[i], -nodes[i] ** 2 * slopes[i]])  # lam and slope in 1/lam

        def power_at(lam, live):
            trace, slope, ev, u = _evaluate(s2, w1p, lam, live_on[live])
            sx = -lam * lam * slope  # the slope in x = 1/lam
            with np.errstate(all="ignore"):  # a x^alpha + b through both slopes; NaN bisects
                alpha = 1.0 + np.log(sx / last[1, live]) / np.log(last[0, live] / lam)
            last[:, live] = lam, sx
            return trace, (ev, u), _waterfill._model_root(
                lam, trace, sx, (alpha - 1.0) * sx * lam, p[live])
        lams[below], (ev[below], u[below]) = _waterfill._find_multiplier(
            power_at, nodes[i + 1], nodes[i], p, "weak-solver",
            _start(nodes, traces, slopes, i, p))
    d2 = 1.0 / (lams[:, None] + s2)
    e = np.where(np.arange(s2.size) >= s2.size - n_on[:, None], ev, 1.0)
    g = np.maximum(1.0 - 1.0 / e, 0.0)
    x = v2 @ (np.sqrt(d2)[:, :, None] * u)
    cws = np.log(e).sum(1) - ((s2 * d2)[:, :, None] * np.abs(u) ** 2 * g[:, None, :]).sum((1, 2))
    # the mode powers are the covariances' eigenvalues, as a kept decomposition
    # gives them; a zero-rate result keeps its multiplier and active-mode count
    covs = sym((x * g[:, None, :]) @ x.conj().swapaxes(1, 2))
    ev = np.linalg.eigh(covs)[0][:, ::-1]
    powers = clean_spectrum(ev)
    capacities = np.where(cws < 0.0, 0.0, cws)
    used = powers.sum(axis=1)
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
    from one :func:`core.secrecy_rate` call on the checked grid."""
    res = solve_weak(pair, p_total)
    with np.errstate(over="ignore"):  # past float range the gap is inf, still a bound
        gaps = 0.5 * (p_total * float(pair.w2.spectrum()[0])) ** 2
    mid = secrecy_rate(pair, res)
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
