"""Independent brute-force references for the closed-form solvers.

``mc_capacity`` randomly samples feasible covariances (trace-normalized
Wishart draws with a boundary/interior power mixture), optionally seeds the
pool with every applicable closed-form candidate, and locally refines the
incumbent.  ``separable_oracle`` maximizes the parallel-channel secrecy
objective by bisecting a shared power multiplier while solving each scalar
mode by grid zooming plus a golden-section polish; it never uses the
closed-form allocation it is meant to check.

Determinism: every sample is derived from fixed positions of Philox streams
keyed by (seed, stream id), so results are bit-identical for a given
(seed, config) and the first N samples of a longer run are exactly the
samples of a shorter run (nested streams).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import certificates, common_rsv, isotropic, omnidirectional, weak_eavesdropper
from .core import (ChannelPair, HermitianMatrix, NotApplicableError,
                   check_gains, check_positive, sym)

_CHUNK = 1 << 15
# points of the separable oracle's level-0 per-mode grid
_GRID_POINTS = 2001
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class OracleConfig:
    """Sampling budget and reproducibility settings of :func:`mc_capacity`:
    integers (``bool`` is not), with ``samples >= 1`` and
    ``refine_rounds >= 0``.  Samples are always complex Gaussian."""

    samples: int = 200_000
    seed: int = 0
    refine_rounds: int = 3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            object.__setattr__(self, f.name, int(value))  # numpy integers too
        if self.samples < 1 or self.refine_rounds < 0:
            raise ValueError("samples must be at least 1 and refine_rounds nonnegative")


class Objective(Enum):
    EXACT = "Exact"
    WEAK = "Weak"


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _batch_logdet_i_plus(w: np.ndarray, rbatch: np.ndarray) -> np.ndarray:
    """ln|I + w R_n| for a batch of PSD R_n; eigenvalues of I + wR are >= 1."""
    m = w.shape[0]
    mats = np.einsum("ij,njk->nik", w, rbatch)
    mats[:, np.arange(m), np.arange(m)] += 1.0
    if m == 1:
        det = mats[:, 0, 0]
    elif m == 2:
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    elif m == 3:
        det = (mats[:, 0, 0] * (mats[:, 1, 1] * mats[:, 2, 2]
                                - mats[:, 1, 2] * mats[:, 2, 1])
               - mats[:, 0, 1] * (mats[:, 1, 0] * mats[:, 2, 2]
                                  - mats[:, 1, 2] * mats[:, 2, 0])
               + mats[:, 0, 2] * (mats[:, 1, 0] * mats[:, 2, 1]
                                  - mats[:, 1, 1] * mats[:, 2, 0]))
    else:
        _, logdet = np.linalg.slogdet(mats)
        return logdet
    return np.log(np.maximum(det.real, 1e-300))


def _batch_objective(w1: np.ndarray, w2: np.ndarray, rbatch: np.ndarray,
                     objective: Objective) -> np.ndarray:
    c1 = _batch_logdet_i_plus(w1, rbatch)
    if objective is Objective.EXACT:
        c2 = _batch_logdet_i_plus(w2, rbatch)
    else:
        c2 = np.einsum("ij,nji->n", w2, rbatch).real
    return np.maximum(c1 - c2, 0.0)


def _candidate_pool(pair: ChannelPair, p_total: float) -> list[np.ndarray]:
    """Covariances of every applicable closed-form solver (all feasible)."""
    m = pair.m
    cands = [(p_total / m) * np.eye(m)]

    def attempt(fn):
        try:
            cands.append(np.asarray(fn()))
        except (ValueError, NotApplicableError, common_rsv.NotCommutingError):
            pass

    attempt(lambda: weak_eavesdropper.solve_weak(pair, p_total).covariance.entries)
    attempt(lambda: isotropic.solve_isotropic_in_w1_basis(
        pair, float(pair.w2.spectrum()[0]), p_total)[1])
    attempt(lambda: common_rsv.solve_common_rsv(
        pair.common_basis(), p_total).covariance.entries)
    attempt(lambda: omnidirectional.solve_omni(pair, p_total).covariance.entries)
    for certify in (certificates.zf_certify, certificates.wf_certify,
                    certificates.is_certify):
        def certified(fn=certify):
            report = fn(pair, p_total)
            if report.certified_covariance is None:
                raise ValueError("certificate did not hold")
            return report.certified_covariance.entries

        attempt(certified)
    return cands


def mc_capacity(pair: ChannelPair, p_total: float,
                objective: Objective = Objective.EXACT,
                cfg: OracleConfig | None = None,
                include_candidates: bool = True) -> tuple[float, HermitianMatrix]:
    """Best clamped rate over random feasible covariances (plus candidates).

    Samples R = t * A A^H / tr(A A^H) with A a complex standard Gaussian
    matrix and t drawn from a 50/50 mixture of the full power and
    Uniform(0, P_T]; the boundary/interior mixture matters because the exact
    secrecy objective can decrease with power.  Candidate seeding makes the
    result an at-least-as-good check against any closed form in the pool.
    Refinement rounds perturb the incumbent locally with a scale shrinking
    tenfold per round.  Deterministic for a fixed (seed, config); ties go to
    the earliest sample.
    """
    cfg = cfg or OracleConfig()
    check_positive("p_total", p_total)
    m = pair.m
    w1, w2 = pair.w1.entries.astype(complex), pair.w2.entries.astype(complex)

    # the zero covariance is the clamp floor and is always achievable
    best_val = 0.0
    best_r = np.zeros((m, m), dtype=complex)

    def consider(batch: np.ndarray):
        nonlocal best_val, best_r
        vals = _batch_objective(w1, w2, batch, objective)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_r = batch[j].copy()

    if include_candidates:
        pool = _candidate_pool(pair, p_total)
        consider(np.stack([c.astype(complex) for c in pool]))

    rng_a = _stream(cfg.seed, 1)
    rng_t = _stream(cfg.seed, 2)
    remaining = cfg.samples
    while remaining > 0:
        n = min(_CHUNK, remaining)
        remaining -= n
        # sample-major draw keeps every sample at fixed stream positions, so
        # the first N samples of a longer run are exactly a shorter run's
        z = rng_a.standard_normal((n, 2, m, m))
        a = z[:, 0] + 1j * z[:, 1]
        gram = np.einsum("nij,nkj->nik", a, a.conj())
        tr = np.einsum("nii->n", gram).real
        u = rng_t.random((n, 2))
        t = np.where(u[:, 0] < 0.5, p_total, p_total * (1.0 - u[:, 1]))
        batch = gram * (t / np.maximum(tr, 1e-300))[:, None, None]
        consider(batch)

    if cfg.refine_rounds > 0 and best_val > 0.0:
        rng_r = _stream(cfg.seed, 3)
        n_ref = min(20_000, max(500, cfg.samples // 100))
        for round_idx in range(cfg.refine_rounds):
            scale = 0.1 * p_total / 10.0 ** round_idx
            x = rng_r.standard_normal((n_ref, m, m))
            y = rng_r.standard_normal((n_ref, m, m))
            e = x + 1j * y
            e = 0.5 * (e + np.conj(np.transpose(e, (0, 2, 1))))
            cand = best_r[None, :, :] + scale * e
            ev, vec = np.linalg.eigh(cand)
            ev = np.clip(ev, 0.0, None)
            cand = np.einsum("nij,nj,nkj->nik", vec, ev, vec.conj())
            tr = np.einsum("nii->n", cand).real
            shrink = np.minimum(1.0, p_total / np.maximum(tr, 1e-300))
            cand *= shrink[:, None, None]
            consider(cand)

    return best_val, HermitianMatrix(sym(best_r))


_REFINE_GRID = np.linspace(0.0, 1.0, 201)


def _grid_zoom_windows(f0: np.ndarray, pts0: np.ndarray, g1: np.ndarray,
                       g2: np.ndarray, nu: float, p_total: float,
                       levels: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode windows bracketing argmax of f_i(p) - nu*p over [0, P_T].

    The coarse pass reuses the precomputed objective table ``f0`` on the
    shared level-0 grid ``pts0``; refinement levels re-grid each mode's
    surviving window, shrinking it a hundredfold per level.
    """
    idx = np.argmax(f0 - nu * pts0[None, :], axis=1)
    step0 = pts0[1] - pts0[0]
    sel = pts0[idx]
    lo = np.maximum(sel - step0, 0.0)
    hi = np.minimum(sel + step0, p_total)
    for _ in range(levels):
        pts = lo[:, None] + (hi - lo)[:, None] * _REFINE_GRID[None, :]
        score = np.log1p(g1[:, None] * pts) - np.log1p(g2[:, None] * pts) \
            - nu * pts
        idx = np.argmax(score, axis=1)
        step = (hi - lo) / (_REFINE_GRID.size - 1)
        sel = np.take_along_axis(pts, idx[:, None], axis=1)[:, 0]
        lo = np.maximum(sel - step, 0.0)
        hi = np.minimum(sel + step, p_total)
    return lo, hi


def _golden_polish(g1: np.ndarray, g2: np.ndarray, nu: float,
                   lo: np.ndarray, hi: np.ndarray, iters: int = 45) -> np.ndarray:
    """Golden-section maximization of f_i(p) - nu*p inside per-mode windows."""

    def phi(p):
        return np.log1p(g1 * p) - np.log1p(g2 * p) - nu * p

    a, b = lo.copy(), hi.copy()
    h = b - a
    c = b - _GOLDEN * h
    d = a + _GOLDEN * h
    fc, fd = phi(c), phi(d)
    for _ in range(iters):
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        h = b - a
        cn = b - _GOLDEN * h
        dn = a + _GOLDEN * h
        # golden ratio identity: the surviving interior point is reused,
        # so only one new evaluation is needed per iteration
        pt = np.where(left, cn, dn)
        fpt = phi(pt)
        fc, fd = np.where(left, fpt, fd), np.where(left, fc, fpt)
        c, d = cn, dn
    mid = 0.5 * (a + b)
    return mid


def separable_oracle(lam1, lam2, p_total: float) -> float:
    """Best parallel-channel secrecy value sum_i [ln(1+l1_i p) - ln(1+l2_i p)].

    Modes with l1_i <= l2_i are never profitable and get zero power.  For the
    rest the per-mode objective is concave and strictly increasing, so the
    power constraint binds; a shared multiplier is bisected until the
    per-mode maximizers consume the full power.  The returned value is
    evaluated at a feasible allocation, hence always achievable.
    """
    l1 = check_gains("lam1", lam1)
    l2 = check_gains("lam2", lam2)
    if l1.shape != l2.shape:
        raise ValueError("lam1 and lam2 must be paired 1-D vectors")
    check_positive("p_total", p_total)

    usable = l1 > l2
    if not np.any(usable):
        return 0.0
    g1 = l1[usable]
    g2 = l2[usable]

    def value(powers):
        return float(np.sum(np.log1p(g1 * powers) - np.log1p(g2 * powers)))

    if g1.size == 1:
        # a single profitable mode takes all the power (f is increasing)
        return value(np.array([p_total]))

    pts0 = np.linspace(0.0, p_total, _GRID_POINTS)
    f0 = np.log1p(g1[:, None] * pts0[None, :]) \
        - np.log1p(g2[:, None] * pts0[None, :])

    def windows_at(nu):
        return _grid_zoom_windows(f0, pts0, g1, g2, nu, p_total)

    nu_hi0 = float(np.max(g1 - g2))
    nu_lo, nu_hi = 0.0, nu_hi0
    nu = 0.5 * nu_hi
    lo, hi = windows_at(nu)
    for _ in range(60):
        resid = float(np.sum(0.5 * (lo + hi))) - p_total
        if abs(resid) <= 1e-12 * max(1.0, p_total) \
                or nu_hi - nu_lo <= 1e-12 * nu_hi0:
            break
        if resid > 0:
            nu_lo = nu
        else:
            nu_hi = nu
        nxt = 0.5 * (nu_lo + nu_hi)
        if nxt == nu:
            break
        nu = nxt
        lo, hi = windows_at(nu)

    powers = _golden_polish(g1, g2, nu, lo, hi)
    total = float(np.sum(powers))
    if total > p_total:
        powers = powers * (p_total / total)
    return value(powers)
