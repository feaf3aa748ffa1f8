"""Independent brute-force references for the closed-form solvers.

``mc_capacity`` randomly samples feasible covariances (trace-normalized
Wishart draws with a boundary/interior power mixture), optionally seeds each
power on its own with (P_T/m) I and the weak, isotropic (at W2's largest
eigenvalue) and shared-basis closed forms solved at that power alone, and
locally refines the incumbent.  ``separable_oracle`` maximizes the
parallel-channel secrecy objective by bisecting a shared power multiplier
while solving each scalar mode by grid zooming plus a golden-section polish;
it never uses the closed-form allocation it is meant to check.

``mc_capacity`` scores each covariance R = s F F^H through its m x m root
F in factor form: with W = L L^H factored once per call, ln|I + W R| =
ln|I_r + s B B^H| for B = L^H F (Sylvester), from one real matrix product
per batch and an elementwise LDL^H, the same path for every m.  Only the
winner of a batch is formed as a matrix; the samples do not depend on this.

The sample pass runs chunk by chunk in buffers that fit ``_WORKSET_BYTES``
whatever m, reused from chunk to chunk, and one pass serves a power grid:
each chunk is drawn, multiplied into B and reduced to B B^H once; only the
scale s, the LDL^H and the incumbent update run per power.  Each power keeps
its own candidates, incumbent, tie rule and refinement, whose rounds draw
their perturbations once for every power.

Determinism: every sample is derived from fixed positions of Philox streams
keyed by (seed, stream id), so results are bit-identical for a given
(seed, config), alone or inside a grid, and the first N samples of a longer
run are exactly a shorter run's.  Chunking never changes a result: B is
formed over whole blocks of ``_BLOCK`` columns, so every sample meets the
same BLAS kernel, and ties go to the earliest sample.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import common_rsv, isotropic, weak_eavesdropper
from .core import (ChannelPair, ConvergenceError, HermitianMatrix,
                   check_gains, check_positive, over_powers, sym)

_WORKSET_BYTES = 1 << 22  # the sample pass's buffers, whatever m
_BLOCK = 64  # B = L^H F is formed over whole blocks of this many columns
# the largest P_T * lambda_max(W1) answered: float rates err by about 6 eps
# times it, 2e-7 relative here and 1.5e-6 at 1e12
_SNR_CEILING = 1e11
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


def _factor_map(w: HermitianMatrix) -> np.ndarray:
    """The real (2r, 2m) matrix that takes the stacked real and imaginary
    parts of any m-row F to those of B = L^H F, where W = L L^H keeps the r
    eigenvalues of W that the rank rule leaves nonzero: by Sylvester's
    identity |I + W F F^H| = |I_r + B B^H|."""
    lh = w.root().conj().T
    return np.block([[lh.real, -lh.imag], [lh.imag, lh.real]])


def _gram(b: np.ndarray, g: np.ndarray, work: np.ndarray) -> None:
    """B B^H for every sample n into ``g``, from the real and imaginary
    parts of B stored n-last, shape (2, r, k, n), packed as one real
    (r, r, n) array: the real part on and below the diagonal, the imaginary
    part above it, with (2, n) scratch ``work``; no power scale s enters."""
    bre, bim = b
    for i in range(b.shape[1]):
        for k in range(i + 1):
            np.einsum("pjn,pjn->n", b[:, i], b[:, k], out=g[i, k])
            if k < i:
                np.subtract(np.einsum("jn,jn->n", bim[i], bre[k], out=work[0]),
                            np.einsum("jn,jn->n", bre[i], bim[k], out=work[1]), out=g[k, i])


def _logdet_i_plus(gram: np.ndarray, s: np.ndarray, g: np.ndarray, work: np.ndarray):
    """ln|I_r + s_n B_n B_n^H| for every sample n, from B B^H packed as by
    :func:`_gram`, into ``work[0]``, with scratch g (r, r, n) and work (6, n).

    An elementwise LDL^H factorization runs in place on the r(r+1)/2 lower
    entries of s B B^H, each a length-n real array (a pair of them off the
    diagonal).  Every pivot is 1 + e with e >= 0, a Schur complement of the
    identity plus a PSD matrix, so no pivot is small and the log-determinant
    is the sum of log1p(e).
    """
    # g[i, k] and g[k, i], k < i: real and imaginary part of s (B B^H)_ik
    np.multiply(s, gram, out=g)
    total, inv, cr, ci, t1, t2 = work
    total.fill(0.0)

    def fused(op, a, b, c, d):  # op(a * b, c * d), in place
        return op(np.multiply(a, b, out=t1), np.multiply(c, d, out=t2), out=t1)

    for j in range(g.shape[0]):
        total += np.log1p(g[j, j], out=t1)
        np.divide(1.0, np.add(1.0, g[j, j], out=inv), out=inv)
        for i in range(j + 1, g.shape[0]):
            xr, xi = g[i, j], g[j, i]
            cr, ci = np.multiply(xr, inv, out=cr), np.multiply(xi, inv, out=ci)
            g[i, i] -= fused(np.add, xr, cr, xi, ci)
            for k in range(j + 1, i):
                # g_ik -= g_ij conj(g_kj) / pivot_j
                yr, yi = g[k, j], g[j, k]
                g[i, k] -= fused(np.add, cr, yr, ci, yi)
                g[k, i] -= fused(np.subtract, ci, yr, cr, yi)
    return total


class _Scorer:
    """Buffers, reused from batch to batch, that score up to ``width``
    samples F_n (rounded up to whole blocks), held by their real and
    imaginary parts in ``roots[n]``, (2, m, m); ``maps`` are the two
    :func:`_factor_map` of (W1, W2)."""

    def __init__(self, maps: list[np.ndarray], objective: Objective, width: int):
        m, (r1, r2) = maps[0].shape[1] // 2, (mp.shape[0] // 2 for mp in maps)
        width = -(-width // _BLOCK) * _BLOCK
        self.kron = np.kron(np.vstack(maps), np.eye(m))
        self.roots = np.zeros((width, 2, m, m))  # finite in every column
        self.b = np.empty((len(self.kron), width))
        self.grams = (np.empty((r1, r1, width)), np.empty(
            (r2, r2, width) if objective is Objective.EXACT else width))
        self.g, self.work = np.empty((max(r1, r2),) * 2 + (width,)), np.empty((2, 6, width))

    def load(self, n: int, blocks: bool = True) -> None:
        """What the objective needs of ``roots[:n]`` before the power scale:
        the :func:`_gram` of B = L1^H F, and that of L2^H F (EXACT) or
        ||L2^H F||_F^2 (WEAK), over whole blocks of columns or just n."""
        cols = -(-n // _BLOCK) * _BLOCK if blocks else n
        m, rows = self.roots.shape[-1], 2 * len(self.grams[0]) * self.roots.shape[-1]
        # one real product forms B = L^H F of both channels, n-last, without
        # transposing the sample-major roots
        b = np.matmul(self.kron, self.roots[:cols].reshape(cols, -1).T, out=self.b[:, :cols])
        for gram, bk in zip(self.grams, (b[:rows], b[rows:])):
            if gram.ndim == 1:
                np.einsum("jn,jn->n", bk, bk, out=gram[:cols])  # ||L2^H F||_F^2
            else:
                _gram(bk.reshape(2, len(gram), m, cols), gram[..., :cols], self.work[0, :2, :cols])

    def terms(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ln|I + W1 R_n| and ln|I + W2 R_n| (EXACT) or tr(W2 R_n) (WEAK) for
        R_n = s_n F_n F_n^H over the first s.size loaded roots, in scratch."""
        n = s.size
        return tuple(np.multiply(s, gram[:n], out=work[0, :n]) if gram.ndim == 1 else
                     _logdet_i_plus(gram[..., :n], s, self.g[:len(gram), :len(gram), :n],
                                    work[:, :n]) for gram, work in zip(self.grams, self.work))


def _chunk_samples(m: int) -> int:
    """Samples per chunk of the sample pass: the whole blocks (at least one)
    that ``_WORKSET_BYTES`` holds at 9 m^2 + 18 floats a sample."""
    return max(1, _WORKSET_BYTES // (8 * (9 * m * m + 18)) // _BLOCK) * _BLOCK


def _candidate_pool(pair: ChannelPair, powers: np.ndarray) -> list[list[np.ndarray]]:
    """Per power, the seeds of :func:`mc_capacity` (all feasible), each
    solved at that power alone; a solver that raises drops only its own."""
    m, eps = pair.m, float(pair.w2.spectrum()[0])
    solvers = (lambda p: weak_eavesdropper.solve_weak(pair, p),
               lambda p: isotropic.solve_isotropic_in_w1_basis(pair, eps, p),
               lambda p: common_rsv.solve_common_rsv(pair.common_basis(), p))
    pool = []
    for p in powers[:, None]:  # each power alone, as a grid of one
        cands = [(p[0] / m) * np.eye(m)]
        for solve in solvers:
            try:
                cands.append(solve(p).covariance_at(0))
            except (ValueError, ConvergenceError):
                pass
        pool.append(cands)
    return pool


@over_powers
def mc_capacity(pair: ChannelPair, powers: np.ndarray,
                objective: Objective = Objective.EXACT,
                cfg: OracleConfig | None = None,
                include_candidates: bool = True) -> list[tuple[float, HermitianMatrix]]:
    """Best clamped rate over random feasible covariances (plus candidates),
    at one power P_T or at each of a 1-D grid (a list, in grid order).

    Samples R = t * A A^H / tr(A A^H) with A a complex standard Gaussian
    matrix and t drawn from a 50/50 mixture of the full power and
    Uniform(0, P_T]; the boundary/interior mixture matters because the exact
    secrecy objective can decrease with power.  Each power is seeded on its
    own with (P_T/m) I and the covariances of ``solve_weak``,
    ``solve_isotropic_in_w1_basis`` at W2's largest eigenvalue and
    ``solve_common_rsv``, each solved at that power alone (a solver that
    raises drops only its own seed), so the result is an at-least-as-good
    check against each.  Refinement rounds perturb the incumbent locally
    with a scale shrinking tenfold per round.  Deterministic for a fixed
    (seed, config); ties go to the earliest sample.  One pass over the sample
    stream serves a grid, and each power's result is the bytes of that power
    solved alone.
    """
    cfg = cfg or OracleConfig()
    if float(powers.max()) * float(pair.w1.spectrum()[0]) > _SNR_CEILING:
        raise ValueError(f"the oracle needs P_T * lambda_max(W1) <= {_SNR_CEILING:g}")
    m = pair.m
    maps = [_factor_map(pair.w1), _factor_map(pair.w2)]
    # per power: the incumbent value and covariance; the zero covariance is
    # the clamp floor and is always achievable
    best = [(0.0, np.zeros((m, m), dtype=complex)) for _ in powers]

    def consider(i: int, s: np.ndarray):
        """Samples s_n F_n F_n^H at power i, F_n the first s.size roots
        loaded in ``sc``; only the winner is formed."""
        c1, c2 = sc.terms(s)
        vals = np.maximum(np.subtract(c1, c2, out=c1), 0.0, out=c1)
        j = int(np.argmax(vals))
        if vals[j] > best[i][0]:
            f = sc.roots[j, 0] + 1j * sc.roots[j, 1]
            best[i] = (float(vals[j]), s[j] * (f @ f.conj().T))

    def consider_psd(i: int, ev: np.ndarray, vec: np.ndarray, blocks: bool = True):
        """Covariances vec diag(ev) vec^H, ev >= 0, through their roots."""
        f = vec * np.sqrt(ev)[:, None, :]
        sc.roots[:len(f), 0], sc.roots[:len(f), 1] = f.real, f.imag
        sc.load(len(f), blocks)
        consider(i, np.ones(len(f)))

    pool = _candidate_pool(pair, powers) if include_candidates else []
    chunk = _chunk_samples(m)
    sc = _Scorer(maps, objective, min(chunk, max(cfg.samples, 500)))
    for i, cands in enumerate(pool):
        ev, vec = np.linalg.eigh(np.stack(cands))
        consider_psd(i, np.clip(ev, 0.0, None), vec, blocks=False)  # one batch a power

    u, (tr, om, s) = np.empty((len(sc.roots), 2)), np.empty((3, len(sc.roots)))
    rng_a, rng_t = _stream(cfg.seed, 1), _stream(cfg.seed, 2)
    for start in range(0, cfg.samples, chunk):
        n = min(chunk, cfg.samples - start)
        # sample-major draw keeps every sample at fixed stream positions, so
        # the first N samples of a longer run are exactly a shorter run's;
        # z[n] holds the real and imaginary parts of A_n
        z = rng_a.standard_normal(out=sc.roots[:n])
        np.einsum("nk,nk->n", z.reshape(n, -1), z.reshape(n, -1), out=tr[:n])
        rng_t.random(out=u[:n])
        sc.load(n)
        # what every power shares: the mixture's choice, 1 - U and the trace
        low = u[:n, 0] < 0.5
        np.subtract(1.0, u[:n, 1], out=om[:n])
        np.maximum(tr[:n], 1e-300, out=tr[:n])
        for i, p_total in enumerate(powers):
            np.copyto(np.multiply(p_total, om[:n], out=s[:n]), p_total, where=low)
            consider(i, np.divide(s[:n], tr[:n], out=s[:n]))

    n_ref = min(20_000, max(500, cfg.samples // 100))
    live = [i for i, (val, _) in enumerate(best) if val != 0.0]
    piece = max(_BLOCK, chunk // 2)  # with e and its eigh, within the working set
    rng_r = _stream(cfg.seed, 3)
    for round_idx in range(cfg.refine_rounds if live else 0):
        # one draw a round serves every power, its real parts before its
        # imaginary ones: a copy of the stream skips to the imaginary parts
        rng_i = copy.deepcopy(rng_r)
        for start in range(0, n_ref, piece):
            rng_i.standard_normal((min(piece, n_ref - start), m, m))
        bases = [best[i][1] for i in live]  # the incumbents the round perturbs
        for start in range(0, n_ref, piece):
            k = min(piece, n_ref - start)
            e = rng_r.standard_normal((k, m, m)) + 1j * rng_i.standard_normal((k, m, m))
            e = 0.5 * (e + np.conj(np.transpose(e, (0, 2, 1))))
            for i, base in zip(live, bases):
                scale = 0.1 * powers[i] / 10.0 ** round_idx
                ev, vec = np.linalg.eigh(base[None, :, :] + scale * e)
                ev = np.clip(ev, 0.0, None)
                shrink = powers[i] / np.maximum(ev.sum(axis=1), powers[i])  # min(1, P/tr)
                consider_psd(i, ev * shrink[:, None], vec)
        rng_r = rng_i

    return [(val, HermitianMatrix(sym(r))) for val, r in best]


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
    return 0.5 * (a + b)


def separable_oracle(lam1, lam2, p_total: float) -> float:
    """Best parallel-channel secrecy value sum_i [ln(1+l1_i p) - ln(1+l2_i p)].

    Modes with l1_i <= l2_i are never profitable and get zero power.  For the
    rest the per-mode objective is concave and strictly increasing, so the
    power constraint binds; a shared multiplier is bisected until the
    per-mode maximizers consume the full power.  The returned value is
    evaluated at a feasible allocation, hence always achievable.
    """
    l1, l2 = check_gains("lam1", lam1), check_gains("lam2", lam2)
    if l1.shape != l2.shape:
        raise ValueError("lam1 and lam2 must be paired 1-D vectors")
    check_positive("p_total", p_total)

    usable = l1 > l2
    if not np.any(usable):
        return 0.0
    g1, g2 = l1[usable], l2[usable]

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
