"""Scalar power allocations shared by the closed-form solvers.

Two allocation rules live here:

* the classic water-filling ``p_i = (1/lam - 1/g_i)_+`` (exact, sort-based), and
* the secrecy allocation over parallel modes with per-mode leakage gains,
  where the per-mode power at multiplier ``lam`` is

      p_i = 2 t_i / ((e_i + g_i) (1 + sqrt(1 + q_i))),
      q_i = 4 e_i g_i t_i / (e_i + g_i)^2,
      t_i = ((g_i - e_i)/lam - 1)_+.

  This is the quadratic-root allocation rewritten to avoid cancellation for
  small arguments; it degenerates to water-filling exactly when ``e_i = 0``.

Every closed-form multiplier search runs through ``_find_multiplier``: a
bracketed root-finder that takes the caller's Newton-type step while it
stays inside the bracket and bisects (on log lam) otherwise.  It stops when
the power residual is within ``_POWER_TOL * P_T``, a rule relative to the
total power at every power, so every SNR is reachable at float resolution
and results keep the scaling symmetry W -> sW, P_T -> P_T/s to rounding.
Over parallel modes (``secrecy_waterfill``) the active set is fixed first,
from one vectorised evaluation at the sorted activation multipliers.  Every
step, there and on the general weak path, is the root of one local model
of the total in x = 1/lam (``_model_root``), matched to its value and
slope, and over parallel modes also to its curvature; a few evaluations
per solve.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConvergenceError, check_positive

# a search stops once the power residual is within _POWER_TOL * P_T, and
# gives up after _MAX_EVALS evaluations of the total power
_POWER_TOL = 1e-12
_MAX_EVALS = 200


def standard_waterfill(gains: np.ndarray, p_total: float) -> tuple[np.ndarray, float]:
    """Exact water-filling over nonnegative gains.

    Returns ``(powers, lam)`` with ``powers_i = (1/lam - 1/g_i)_+`` and
    ``sum(powers) = p_total``.  Modes with zero gain receive no power.  When
    no gain is positive the powers are all zero and ``lam`` is ``inf``.
    """
    g = np.asarray(gains, dtype=float)
    check_positive("p_total", p_total)
    powers = np.zeros_like(g)
    order = np.argsort(g)[::-1]
    gs = g[order]
    npos = int(np.count_nonzero(gs > 0))
    if npos == 0:
        return powers, math.inf
    inv = 1.0 / gs[:npos]
    prefix = np.cumsum(inv)
    k = 1
    for j in range(2, npos + 1):
        level = (p_total + prefix[j - 1]) / j
        if level > inv[j - 1]:
            k = j
        else:
            break
    level = (p_total + prefix[k - 1]) / k
    alloc = level - inv[:k]
    powers[order[:k]] = alloc
    return powers, 1.0 / level


def secrecy_mode_powers(gains: np.ndarray, leaks: np.ndarray | float,
                        lam: float) -> np.ndarray:
    """Per-mode powers of the secrecy allocation at multiplier ``lam``."""
    g = np.asarray(gains, dtype=float)
    e = np.broadcast_to(np.asarray(leaks, dtype=float), g.shape)
    t = np.maximum((g - e) / lam - 1.0, 0.0)
    s = g + e
    safe_s = np.where(t > 0, s, 1.0)
    q = 4.0 * e * g * t / (safe_s * safe_s)
    return np.where(t > 0, 2.0 * t / (safe_s * (1.0 + np.sqrt(1.0 + q))), 0.0)


def _find_multiplier(power_at, lo: float, hi: float, p_total: float,
                     label: str = "multiplier"):
    """Safeguarded bracketed search for the multiplier ``lam`` in [lo, hi] at
    which the total power is ``p_total``.

    ``power_at(lam)`` returns ``(total power, payload, guess)``: the total
    is nonincreasing in lam, at least ``p_total`` at ``lo`` and at most it at
    ``hi``, and ``guess`` is the caller's Newton-type estimate of the root
    from a local model at lam, or None.  The search starts at ``hi``; each
    evaluation moves one end of the bracket, and the next point is the guess
    when it lies strictly inside and moves less than half the step before
    last (Brent's safeguard), else the bracket's midpoint (geometric when
    lo > 0).  Stops once ``|total - p_total| <= _POWER_TOL * p_total`` and
    returns ``(lam, payload)`` of that evaluation; raises
    :class:`ConvergenceError` when the bracket is exhausted at float
    resolution or ``_MAX_EVALS`` evaluations are spent.
    """
    tol = _POWER_TOL * p_total
    lam, resid = hi, math.inf
    step = older = math.inf  # the last two step lengths
    for _ in range(_MAX_EVALS):
        total, payload, guess = power_at(lam)
        resid = total - p_total
        if abs(resid) <= tol:
            return lam, payload
        if resid > 0:
            lo = lam
        else:
            hi = lam
        if (guess is not None and lo < guess < hi
                and abs(guess - lam) < 0.5 * older):
            nxt = guess
        elif lo > 0.0:
            nxt = math.sqrt(lo) * math.sqrt(hi)
        else:
            nxt = 0.5 * (lo + hi)
        if not lo < nxt < hi:
            break  # bracket exhausted at float resolution
        older, step, lam = step, abs(nxt - lam), nxt
    raise ConvergenceError(
        f"{label} search stopped with power residual {resid:.3e} "
        f"(tolerance {tol:.3e})", residual=resid)


def _model_root(lam: float, total: float, slope: float, curve: float,
               p_total: float) -> float | None:
    """Root of the local model ``a x^alpha + b`` of the total power in
    ``x = 1/lam`` that matches its value, slope and curvature at lam.

    ``slope`` and ``curve`` are the first and second derivatives of the
    total in x; ``curve = 0`` makes the step a plain Newton step in x.  Over
    parallel modes the total is concave in x and convex in lam, so
    alpha = 1 + x curve / slope lies in [-1, 1] and the model root lies
    between the Newton roots in x (alpha = 1) and in lam (alpha = -1).  None
    when the model cannot reach ``p_total``.
    """
    if not slope > 0.0:
        return None
    x = 1.0 / lam
    alpha = min(max(1.0 + x * curve / slope, -1.0), 1.0)
    r = (p_total - total) / (x * slope)
    if abs(alpha) < 1e-9:
        h = r
    elif alpha * r > -1.0:
        h = math.log1p(alpha * r) / alpha
    else:
        return None
    return lam * math.exp(-h) if -h < 700.0 else None


def secrecy_waterfill(gains: np.ndarray, leaks: np.ndarray | float,
                      p_total: float) -> tuple[np.ndarray, float]:
    """Secrecy power allocation: the multiplier at which full power is used.

    Returns ``(powers, lam)``.  If no mode satisfies ``g_i > e_i`` the zero
    allocation is returned with ``lam = 0``.  Mode i is active exactly when
    lam < d_i = g_i - e_i.  One vectorised evaluation at the activation
    multipliers fixes the active set; the root is then searched on that
    smooth piece, between bounds from the single-mode inverses, with the
    curvature model of :func:`_model_root` as the step.  Raises
    :class:`ConvergenceError` when the power residual cannot be driven
    within ``_POWER_TOL * p_total``.
    """
    g = np.asarray(gains, dtype=float)
    e = np.broadcast_to(np.asarray(leaks, dtype=float), g.shape).copy()
    check_positive("p_total", p_total)
    d = g - e
    if not g.size or float(np.max(d)) <= 0:
        return np.zeros_like(g), 0.0

    def alone(i, q):
        # the multiplier at which mode i alone carries power q
        return float(d[i] / ((1.0 + g[i] * q) * (1.0 + e[i] * q)))

    order = np.argsort(-d, kind="stable")
    order = order[d[order] > 0]
    k = 1
    if order.size > 1:
        # total power at the multiplier where each further mode activates;
        # a mode activating exactly at p_total joins, so the root is then hi
        at = np.sum(secrecy_mode_powers(g, e, d[order[1:], None]), axis=1)
        k += int(np.count_nonzero(at <= p_total))
    active = order[:k]
    if k == 1:
        # one active mode carries all the power
        powers = np.zeros(d.shape)
        powers[active[0]] = p_total
        return powers, alone(active[0], p_total)
    lo = float(d[order[k]]) if k < order.size else 0.0
    hi = float(d[active[-1]])
    lo = max(lo, max(alone(i, p_total) for i in active))
    hi = min(hi, max(alone(i, p_total / k) for i in active))
    ga, ea, da = g[active], e[active], d[active]

    def power_at(lam):
        powers = secrecy_mode_powers(g, e, lam)
        total = float(np.sum(powers))
        # in x = 1/lam: dp/dx = d / (g + e + 2 g e p) and
        # d2p/dx2 = -2 g e (dp/dx)^3 / d
        d1 = da / (ga + ea + 2.0 * ga * ea * powers[active])
        d2 = -2.0 * ga * ea * d1 ** 3 / da
        return total, powers, _model_root(lam, total, float(np.sum(d1)),
                                          float(np.sum(d2)), p_total)

    lam, powers = _find_multiplier(power_at, lo, max(hi, lo), p_total)
    return powers, lam


def parallel_secrecy_value(lam1: np.ndarray, lam2: np.ndarray | float,
                           powers: np.ndarray) -> float:
    """sum_i [ln(1 + lam1_i p_i) - ln(1 + lam2_i p_i)] in nats."""
    l1 = np.asarray(lam1, dtype=float)
    l2 = np.broadcast_to(np.asarray(lam2, dtype=float), l1.shape)
    p = np.asarray(powers, dtype=float)
    return float(np.sum(np.log1p(l1 * p) - np.log1p(l2 * p)))
