"""Scalar power allocations over independent modes, and their one solve.

Mode i has gain g_i and leak (eavesdropper gain) e_i.  :func:`solve_modes`
serves every closed form that reduces to such modes (isotropic, contained
omnidirectional, shared eigenbasis).  It and the two allocations it picks
from take a checked 1-D power grid (``core.check_powers`` ran at entry):

* no mode leaks: the classic water-filling ``p_i = (1/lam - 1/g_i)_+``
  (``standard_waterfill``, exact, sort-based);
* else the secrecy allocation (``secrecy_waterfill``), where the per-mode
  power at multiplier ``lam`` is

      p_i = 2 t_i / ((e_i + g_i) (1 + sqrt(1 + q_i))),
      q_i = 4 e_i g_i t_i / (e_i + g_i)^2,
      t_i = ((g_i - e_i)/lam - 1)_+.

  This is the quadratic-root allocation rewritten to avoid cancellation for
  small arguments; it degenerates to water-filling exactly when ``e_i = 0``.

Every closed-form multiplier search runs through ``_find_multiplier``: a
bracketed root-finder over a whole power grid at once, each point taking
the caller's Newton-type step while it stays inside its bracket and
bisecting (on log lam) otherwise.  A point stops when its power residual is
within ``_POWER_TOL * P_T``, a rule relative to the total power at every
power, so every SNR is reachable at float resolution and results keep the
scaling symmetry W -> sW, P_T -> P_T/s to rounding.  Over parallel modes
(``secrecy_waterfill``) each point's active set is fixed first, from one
vectorised evaluation at the sorted activation multipliers (on the weak
path, from its pair's table).  Every step is the root of one local model of
the total in x = 1/lam (``_model_root``) matched to its value, slope and
curvature (on the weak path, through the slope at the point's last
evaluation); a few evaluations per solve.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConvergenceError, SolveResultGrid, SolveStatus

# a search stops once the power residual is within _POWER_TOL * P_T, and
# gives up after _MAX_EVALS evaluations of the total power
_POWER_TOL = 1e-12
_MAX_EVALS = 200


def standard_waterfill(gains: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact water-filling over nonnegative gains at each power of the
    checked 1-D grid ``p``.

    Returns ``(powers, lam)``, (n, m) and (n,), with ``powers_i = (1/lam -
    1/g_i)_+`` and ``sum(powers) = p``.  Modes with zero gain get no power;
    when no gain is positive every power is zero and ``lam`` is ``inf``.
    Levels are measured from 1/g_1, so powers stay exact at small P_T g_1.
    """
    g = np.asarray(gains, dtype=float)
    powers = np.zeros((p.size, g.size))
    order = np.argsort(g)[::-1]
    npos = int(np.count_nonzero(g > 0))
    if npos == 0:
        return powers, np.full(p.size, math.inf)
    inv = 1.0 / g[order[:npos]]
    rel = inv - inv[0]
    prefix = np.cumsum(rel)
    # mode j joins while the level over the first j modes clears its offset
    on = np.logical_and.accumulate(
        (p[:, None] + prefix) / np.arange(1, npos + 1) > rel, axis=1)
    k = on.sum(axis=1)
    level = (p + prefix[k - 1]) / k
    powers[:, order[:npos]] = np.where(on, level[:, None] - rel, 0.0)
    return powers, 1.0 / (level + inv[0])


def secrecy_mode_powers(gains: np.ndarray, leaks: np.ndarray | float,
                        lam: float) -> np.ndarray:
    """Per-mode powers of the secrecy allocation at multiplier ``lam``."""
    g = np.asarray(gains, dtype=float)
    e = np.asarray(leaks, dtype=float)
    t = np.maximum((g - e) / lam - 1.0, 0.0)
    s = g + e
    safe_s = np.where(t > 0, s, 1.0)
    q = 4.0 * e * g * t / (safe_s * safe_s)
    return np.where(t > 0, 2.0 * t / (safe_s * (1.0 + np.sqrt(1.0 + q))), 0.0)


def _find_multiplier(power_at, lo, hi, p_total, label: str = "multiplier",
                     start=None):
    """Safeguarded bracketed search for the multipliers ``lam`` in [lo, hi]
    at which the total power is ``p_total`` (arrays over a grid's points).

    ``power_at(lam, live)`` evaluates the points ``live`` and returns arrays
    ``(total, payload, guess)`` over them, ``payload`` a tuple: the total is
    nonincreasing in lam, ``p_total`` lies between its values at ``hi`` and
    ``lo``, and ``guess`` is a Newton-type root estimate, or NaN.  A point
    starts at ``start`` (default ``hi``); each evaluation moves one end of
    its bracket, and its next point is the guess when it lies strictly
    inside and moves less than half the step before last (Brent's
    safeguard), else the midpoint (geometric when lo > 0).  A point stops,
    and leaves the batch, once ``|total - p_total| <= _POWER_TOL * p_total``.
    Returns ``lam`` and the payload arrays at it, stacked over the points; raises
    :class:`ConvergenceError` with a point's residual when its bracket is
    exhausted or ``_MAX_EVALS`` evaluations are spent.
    """
    hi = np.array(hi, dtype=float)  # rows: lo, hi, lam, P_T, the last two steps
    rows = np.array([lo, hi, hi if start is None else start, p_total,
                     np.full(hi.size, math.inf), np.full(hi.size, math.inf)], dtype=float)
    live, found, payloads = np.arange(hi.size), np.empty(hi.size), None
    for _ in range(_MAX_EVALS):
        lo, hi, lam, p, step, older = rows
        total, payload, guess = power_at(lam, live)
        resid = total - p
        done = np.abs(resid) <= _POWER_TOL * p
        if done.any():
            payloads = payloads or tuple(np.empty((found.size,) + a.shape[1:], a.dtype)
                                         for a in payload)
            found[at := live[done]] = lam[done]
            for out, a in zip(payloads, payload):
                out[at] = a[done]
            if done.all():
                return found, payloads
            rows, live, resid, guess = (a[..., ~done] for a in (rows, live, resid, guess))
            lo, hi, lam, p, step, older = rows
        up = resid > 0
        lo, hi = np.where(up, lam, lo), np.where(up, hi, lam)
        mid = np.where(lo > 0.0, np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi))
        nxt = np.where((lo < guess) & (guess < hi)
                       & (np.abs(guess - lam) < 0.5 * older), guess, mid)
        stuck = ~((lo < nxt) & (nxt < hi))
        if stuck.any():  # bracket exhausted at float resolution
            break
        rows = np.array([lo, hi, nxt, p, np.abs(nxt - lam), step])
    bad = int(np.argmax(stuck))  # the first stuck point, else the first live one
    raise ConvergenceError(
        f"{label} search stopped with power residual {resid[bad]:.3e} "
        f"(tolerance {_POWER_TOL * p[bad]:.3e})", residual=float(resid[bad]))


def _model_root(lam: np.ndarray, total: np.ndarray, slope: np.ndarray,
                curve, p_total: np.ndarray) -> np.ndarray:
    """Root of the local model ``a x^alpha + b`` of the total power in
    ``x = 1/lam`` that matches its value, slope and curvature at lam (each
    an array over points).

    ``slope`` and ``curve`` are the first and second derivatives of the
    total in x; ``curve = 0`` makes the step a plain Newton step in x.  Over
    parallel modes the total is concave in x and convex in lam, so
    alpha = 1 + x curve / slope lies in [-1, 1] and the model root lies
    between the Newton roots in x (alpha = 1) and in lam (alpha = -1).  NaN
    where the model cannot reach ``p_total``.
    """
    with np.errstate(all="ignore"):  # the points it cannot serve are masked
        x = 1.0 / lam
        alpha = np.minimum(np.maximum(1.0 + x * curve / slope, -1.0), 1.0)
        r = (p_total - total) / (x * slope)
        flat = np.abs(alpha) < 1e-9
        h = np.where(flat, r, np.log1p(alpha * r) / alpha)
        reach = (slope > 0.0) & (flat | (alpha * r > -1.0)) & (-h < 700.0)
        return np.where(reach, lam * np.exp(-h), math.nan)


def secrecy_waterfill(gains: np.ndarray, leaks: np.ndarray | float,
                      p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Secrecy power allocation: the multiplier at which full power is used,
    at each power of the checked 1-D grid ``p``.

    Returns ``(powers, lam)``, (n, m) and (n,).  If no mode satisfies
    ``g_i > e_i`` the zero allocation is returned with ``lam = 0``.  Mode i
    is active exactly when lam < d_i = g_i - e_i.  One vectorised evaluation
    at the activation multipliers fixes every point's active set; the roots
    are then searched on those smooth pieces, between bounds from the
    single-mode inverses, with the curvature model of :func:`_model_root` as
    the step.  Raises :class:`ConvergenceError` when a residual cannot be
    driven within ``_POWER_TOL * p``.
    """
    g = np.asarray(gains, dtype=float)
    e = np.broadcast_to(np.asarray(leaks, dtype=float), g.shape).copy()
    d = g - e
    powers = np.zeros((p.size, g.size))
    if not g.size or float(d.max()) <= 0:
        return powers, np.zeros(p.size)
    order = np.argsort(-d, kind="stable")
    order = order[d[order] > 0]
    gs, es, ds = g[order], e[order], d[order]
    # total power at the multiplier where each further mode activates; a
    # mode activating exactly at p_total joins, so the root is then hi
    at = secrecy_mode_powers(gs, es, ds[1:, None]).sum(axis=1)
    k = 1 + np.count_nonzero(at <= p[:, None], axis=1)
    active = np.arange(order.size) < k[:, None]

    def alone(q):
        # the multiplier at which each mode alone carries power q
        return np.where(active, ds / ((1.0 + gs * q[:, None])
                                      * (1.0 + es * q[:, None])), 0.0).max(axis=1)

    # one active mode carries all the power
    lam = alone(p)
    powers[np.flatnonzero(k == 1), order[0]] = p[k == 1]
    many = np.flatnonzero(k > 1)
    if many.size:
        lo = np.maximum(np.append(ds, 0.0)[k[many]], lam[many])
        hi = np.minimum(ds[k[many] - 1], alone(p / k)[many])
        act, pm = active[many], p[many]

        def power_at(lam, live):
            pw = secrecy_mode_powers(gs, es, lam[:, None])
            total = pw.sum(axis=1)
            # in x = 1/lam: dp/dx = d / (g + e + 2 g e p) and
            # d2p/dx2 = -2 g e (dp/dx)^3 / d
            d1 = np.where(act[live], ds / (gs + es + 2.0 * gs * es * pw), 0.0)
            d2 = -2.0 * gs * es * d1 ** 3 / ds
            return total, (pw,), _model_root(lam, total, d1.sum(axis=1),
                                             d2.sum(axis=1), pm[live])

        lam[many], (pw,) = _find_multiplier(power_at, lo, np.maximum(hi, lo), pm)
        powers[many[:, None], order] = pw
    return powers, lam


def solve_modes(gains: np.ndarray, leaks: np.ndarray | float,
                p_total: np.ndarray,
                basis: np.ndarray | None = None) -> SolveResultGrid:
    """The secrecy optimum over independent modes with gains ``gains`` and
    leaks ``leaks`` (a scalar leaks equally into every mode), at each power
    of the 1-D array ``p_total``.

    Exact water-filling when no mode leaks, else the secrecy allocation;
    zero rate, multiplier 0, when no mode beats its leak.  The covariance is
    diag(powers), or ``V diag(powers) V^H`` on the unitary ``basis`` V.
    """
    if np.asarray(leaks).any():
        powers, lams = secrecy_waterfill(gains, leaks, p_total)
    else:
        powers, lams = standard_waterfill(gains, p_total)
    capacities = (np.log1p(gains * powers) - np.log1p(leaks * powers)).sum(axis=-1)
    zero = ~powers.any(axis=1)
    # the identity gives diag(powers) to the last bit, whose spectrum is powers
    v = np.eye(powers.shape[1]) if basis is None else basis
    return SolveResultGrid(
        (v * powers[:, None, :]) @ v.conj().T,
        np.where(zero | (capacities < 0.0), 0.0, capacities),
        np.where(zero, 0.0, lams), np.count_nonzero(powers > 0, axis=1),
        powers.sum(axis=1),
        np.where(zero, SolveStatus.ZERO_RATE, SolveStatus.SOLVED), powers,
        spectra=powers if basis is None else None)
