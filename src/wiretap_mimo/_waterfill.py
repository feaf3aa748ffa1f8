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
  The multiplier is found by bisection on (0, max_i(g_i - e_i)), where the
  total power is continuous and strictly decreasing.
  The weak-eavesdropper solvers share this search, ``_bisect_multiplier``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConvergenceError


def standard_waterfill(gains: np.ndarray, p_total: float) -> tuple[np.ndarray, float]:
    """Exact water-filling over nonnegative gains.

    Returns ``(powers, lam)`` with ``powers_i = (1/lam - 1/g_i)_+`` and
    ``sum(powers) = p_total``.  Modes with zero gain receive no power.  When
    no gain is positive the powers are all zero and ``lam`` is ``inf``.
    """
    g = np.asarray(gains, dtype=float)
    if p_total <= 0:
        raise ValueError("p_total must be positive")
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


def _bisect_multiplier(power_at, hi: float, p_total: float, power_tol: float,
                      max_iters: int, label: str = "multiplier"):
    """Bisect lam on (0, hi], from hi / 2, until the power residual is within
    ``power_tol`` or the bracket is exhausted at float resolution.

    ``power_at(lam)`` returns ``(total power, payload)``, decreasing in lam.
    Returns ``(lam, payload)`` of the last evaluation; raises
    :class:`ConvergenceError` when its residual exceeds ``power_tol``.
    """
    lo = 0.0
    mid = 0.5 * hi
    total, payload = power_at(mid)
    resid = total - p_total
    for _ in range(max_iters):
        if abs(resid) <= power_tol:
            break
        if resid > 0:
            lo = mid
        else:
            hi = mid
        nxt = 0.5 * (lo + hi)
        if nxt == mid or nxt <= 0.0:
            break  # bracket exhausted at float resolution
        mid = nxt
        total, payload = power_at(mid)
        resid = total - p_total
    if abs(resid) > power_tol:
        raise ConvergenceError(
            f"{label} bisection stalled with power residual {resid:.3e}",
            residual=resid)
    return mid, payload


def secrecy_waterfill(gains: np.ndarray, leaks: np.ndarray | float, p_total: float,
                      power_tol: float = 1e-12,
                      max_iters: int = 200) -> tuple[np.ndarray, float]:
    """Secrecy power allocation: bisect the multiplier until full power is used.

    Returns ``(powers, lam)``.  If no mode satisfies ``g_i > e_i`` the zero
    allocation is returned with ``lam = 0``.  Raises :class:`ConvergenceError`
    when the power residual cannot be driven below ``power_tol``.
    """
    g = np.asarray(gains, dtype=float)
    e = np.broadcast_to(np.asarray(leaks, dtype=float), g.shape).copy()
    if p_total <= 0:
        raise ValueError("p_total must be positive")
    hi = float(np.max(g - e)) if g.size else 0.0
    if hi <= 0:
        return np.zeros_like(g), 0.0

    def power_at(lam):
        powers = secrecy_mode_powers(g, e, lam)
        return float(np.sum(powers)), powers

    # total power diverges as lam -> 0+
    mid, powers = _bisect_multiplier(power_at, hi, p_total, power_tol, max_iters)
    active = np.flatnonzero(powers > 0)
    if active.size == 1:
        # single active mode: the power constraint pins its power exactly
        powers = np.zeros_like(powers)
        powers[active[0]] = p_total
    return powers, mid


def parallel_secrecy_value(lam1: np.ndarray, lam2: np.ndarray | float,
                           powers: np.ndarray) -> float:
    """sum_i [ln(1 + lam1_i p_i) - ln(1 + lam2_i p_i)] in nats."""
    l1 = np.asarray(lam1, dtype=float)
    l2 = np.broadcast_to(np.asarray(lam2, dtype=float), l1.shape)
    p = np.asarray(powers, dtype=float)
    return float(np.sum(np.log1p(l1 * p) - np.log1p(l2 * p)))
