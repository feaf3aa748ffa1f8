"""Core domain types, rate evaluation and Hermitian spectral utilities.

All rates and capacities are in nats (natural logarithm).  Matrices are
small and dense; every spectral operation goes through ``numpy.linalg.eigh``
after mandatory symmetrization.  Every rank decision (nullspaces,
pseudo-inverses, active modes, "singular" solver branches) uses one relative
eigenvalue cutoff ``RANK_TOL * max_i |lambda_i|`` with the constant
``RANK_TOL = 1e-10``, applied in one place: :func:`clean_spectrum`, which
:meth:`HermitianMatrix.spectrum` applies to a matrix.  Every input passes
one rule per kind, written once here (the ``check_*`` functions,
:class:`HermitianMatrix`, :func:`_coerce_psd`): NaN, inf or a wrong shape is
a ValueError at entry.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, fields
from enum import Enum
from typing import Optional, Union

import numpy as np

# the relative eigenvalue cutoff of every rank decision
RANK_TOL = 1e-10

# construction-time guard: worst admissible asymmetry relative to ||A||
_ASYMMETRY_TOL = 1e-8
# unitarity / reconstruction tolerance for spectral decompositions
_SPECTRAL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """A multiplier search failed to meet its power tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NotApplicableError(ValueError):
    """An operation's mathematical precondition does not hold for this input."""


def check_positive(name: str, value: float) -> None:
    """Reject a ``value`` that is not a finite number above zero."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive")


def check_nonnegative(name: str, value) -> None:
    """Reject a ``value`` (a number, or any entry of an array) that is not a
    finite number at or above zero."""
    if not ((0.0 <= (v := np.asarray(value))) & (v < math.inf)).all():
        raise ValueError(f"{name} must be finite and nonnegative")


def check_powers(name: str, value) -> np.ndarray:
    """The power rule: ``value`` is one finite power above zero or a nonempty
    1-D array of them; returned as a 1-D float array (a grid of one)."""
    p = np.asarray(value, dtype=float)
    if p.ndim > 1 or p.size == 0:
        raise ValueError(f"{name} must be a float or a nonempty 1-D array")
    if not (0.0 < p.min() and p.max() < math.inf):  # NaN fails both
        raise ValueError(f"{name} must be finite and positive")
    return p.reshape(-1)


def over_powers(solve):
    """``solve(obj, powers, ...)``, a sequence of one outcome per power of a
    1-D grid, as a solver of ``(obj, p_total, ...)`` by :func:`check_powers`:
    one power gives its one outcome, a grid the whole sequence."""
    @functools.wraps(solve)
    def solver(obj, p_total, *args, **kwargs):
        outs = solve(obj, check_powers("p_total", p_total), *args, **kwargs)
        return outs if np.ndim(p_total) else outs[0]
    return solver


def check_gains(name: str, values, decreasing: bool = False) -> np.ndarray:
    """``values`` as a float vector: nonempty, 1-D, finite and nonnegative
    (and sorted in decreasing order if asked)."""
    g = np.asarray(values, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    if not ((g >= 0.0) & (g < math.inf)).all():
        raise ValueError(f"{name} must be finite and nonnegative")
    if decreasing and (np.diff(g) > 0).any():
        raise ValueError(f"{name} must be sorted in decreasing order")
    return g


def _zero_cut(w: np.ndarray) -> np.ndarray:
    """The magnitude at or below which an entry of the spectrum ``w`` (or
    of each in a stack along the last axis) is zero."""
    return RANK_TOL * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)


def clean_spectrum(w: np.ndarray) -> np.ndarray:
    """``w`` (or each in a stack) with every entry at or below ``RANK_TOL *
    max |w|`` set to exactly zero, negative round-off included: the one rank rule."""
    w = np.asarray(w, dtype=float)
    return np.where(w > _zero_cut(w), w, 0.0)


def _psd(w: np.ndarray) -> bool:
    """Whether no spectrum in ``w`` (one, or a stack along the last axis)
    has an eigenvalue below ``-RANK_TOL * max |w|``: the one PSD rule."""
    return bool((w.min(axis=-1, keepdims=True, initial=math.inf) >= -_zero_cut(w)).all())


def sym(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H) / 2 of a matrix or of each in a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _hermitian(a, ndim: int) -> np.ndarray:
    """The one Hermitian rule: ``a`` as one square matrix (``ndim`` 2) or a
    stack (``ndim`` 3) of them, finite and each within asymmetry ``1e-8 *
    ||A||``; returned symmetrized, as float64 or complex128."""
    a = np.asarray(a)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix{' stack' * (ndim > 2)}, "
                         f"got shape {a.shape}")
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    asym = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    # ||A|| by hypot: np.linalg.norm squares each entry, which overflows past 1.3e154
    mags = np.abs(a).reshape(*a.shape[:-2], a.shape[-1] ** 2)
    if (asym > _ASYMMETRY_TOL * np.hypot.reduce(mags, axis=-1, initial=0.0)).any():
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {np.max(asym):.3e} "
            f"exceeds {_ASYMMETRY_TOL:g} * ||A||")
    return sym(a)


class _Grid(Sequence):
    """A grid result as a sequence: its length is its first field's, and item
    i, one integer (a slice or a float is a TypeError), is point i's view
    ``self._point(i)``, built on demand."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, i):
        return self._point(operator.index(i))


def _unchecked(cls, *values, **named):
    """``cls(*values, **named)`` for values already checked (a grid's point or
    copy): the fields are set, and no rule of ``cls.__post_init__`` runs again."""
    out = object.__new__(cls)
    vars(out).update(zip((f.name for f in fields(cls)), values), **named)
    return out


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in decreasing order paired with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors)
        fault = _spectral_fault(w, v, 1)
        if fault:
            raise ValueError(fault)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A square Hermitian (or real symmetric) matrix.

    Construction symmetrizes the input; entries whose asymmetry exceeds
    ``1e-8 * ||A||`` are rejected rather than silently averaged away.
    Eigenvalues with ``|lambda_i| <= RANK_TOL * max_j |lambda_j|`` count as
    exactly zero for all rank and nullspace queries.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _hermitian(self.entries, 2)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def eig(self) -> SpectralDecomposition:
        """The checked eigendecomposition, computed on the first call and
        kept: every spectral query of this matrix shares it."""
        if "_eig" not in self.__dict__:
            _decompose(self)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        return self.eig().eigenvalues

    def spectrum(self) -> np.ndarray:
        """The eigenvalues (decreasing) through :func:`clean_spectrum`."""
        return clean_spectrum(self.eigenvalues())

    def rank(self) -> int:
        w = self.eigenvalues()
        return int(np.count_nonzero(np.abs(w) > _zero_cut(w)))

    def null_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the numerical nullspace."""
        dec = self.eig()
        keep = np.abs(dec.eigenvalues) <= _zero_cut(dec.eigenvalues)
        return dec.eigenvectors[:, keep]

    def is_psd(self) -> bool:
        return _psd(self.eigenvalues())

    def root(self) -> np.ndarray:
        """L with W = L L^H over the r eigenvalues the rank rule keeps (their
        eigenvectors times their square roots), kept like :meth:`eig`."""
        if "_root" not in self.__dict__:
            spec = self.spectrum()
            r = int(np.count_nonzero(spec))
            object.__setattr__(self, "_root", self.eig().eigenvectors[:, :r]
                               * np.sqrt(spec[:r]))
        return self._root

    def sqrt_psd(self) -> "HermitianMatrix":
        """Principal square root; tiny negative eigenvalues are clipped to zero."""
        dec = self.eig()
        w = np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
        return HermitianMatrix((dec.eigenvectors * w) @ dec.eigenvectors.conj().T)


MatrixLike = Union[HermitianMatrix, np.ndarray]


def as_hermitian(a: MatrixLike) -> HermitianMatrix:
    if isinstance(a, HermitianMatrix):
        return a
    return HermitianMatrix(np.asarray(a))


@dataclass(frozen=True, eq=False)
class ChannelPair:
    """Gram matrices (W1, W2) of the legitimate and eavesdropper channels.

    Structure that depends on the pair alone (shared eigenbasis, W2's
    omnidirectional class, range containment, the weak table) is
    computed on first use and kept on the pair: see :meth:`fact`.
    """

    w1: HermitianMatrix
    w2: HermitianMatrix

    def __post_init__(self):
        if self.w1.dim != self.w2.dim:
            raise ValueError(
                f"W1 and W2 must have equal dimension, got {self.w1.dim} and {self.w2.dim}"
            )
        if self.w1.entries.dtype == self.w2.entries.dtype:
            try:  # one batched eigh for the two; where a rule breaks, each alone names it
                _decompose(self.w1, self.w2)
            except ValueError:
                pass
        for name, w in (("W1", self.w1), ("W2", self.w2)):
            if not w.is_psd():
                raise ValueError(f"{name} is not positive semidefinite within RANK_TOL")
        object.__setattr__(self, "_facts", {})

    @property
    def m(self) -> int:
        return self.w1.dim

    def fact(self, name: str, compute):
        """``compute(self)``, run on the first call for ``name`` and kept; a
        ValueError it raised is kept without its traceback and raised again
        as a copy, so that no caller's frame outlives its call in the pair."""
        facts = self._facts
        if name not in facts:
            try:
                facts[name] = compute(self)
            except ValueError as err:
                facts[name] = err.with_traceback(None)
        if isinstance(kept := facts[name], ValueError):
            err = type(kept).__new__(type(kept), *kept.args)
            err.__dict__.update(vars(kept))
            try:
                raise err
            finally:
                del err  # its traceback holds this frame: no cycle through err
        return kept

    # the solver modules import this one, so they are imported on use
    def common_basis(self):
        """Shared eigenbasis (``common_rsv.detect_common_rsv``); raises
        ``NotCommutingError`` when W1 and W2 do not commute."""
        from . import common_rsv
        return self.fact("common_basis", common_rsv.detect_common_rsv)

    def omni(self):
        """W2's ``omnidirectional.classify_omni`` classification."""
        from . import omnidirectional as om
        return self.fact("omni", lambda p: om.classify_omni(p.w2))

    def range_contained(self) -> bool:
        """Whether range(W1) lies inside range(W2): W1's largest gain on
        W2's nullspace is zero by the one rank rule, i.e. at most
        ``RANK_TOL * lambda_max(W1)``, the cutoff that zeroes an eigenvalue
        of W1."""
        def compute(p):
            null = p.w2.null_basis()
            if null.shape[1] == 0:
                return True
            gain = np.linalg.eigvalsh(sym(null.conj().T @ p.w1.entries @ null))[-1]
            return bool(gain <= _zero_cut(p.w1.eigenvalues()))
        return self.fact("range_contained", compute)

    @classmethod
    def from_gram(cls, w1: MatrixLike, w2: MatrixLike) -> "ChannelPair":
        return cls(as_hermitian(w1), as_hermitian(w2))

    @classmethod
    def from_channels(cls, h1: np.ndarray, h2: np.ndarray) -> "ChannelPair":
        """Build the pair from raw channel matrices via W_k = H_k^H H_k."""
        h1, h2 = np.asarray(h1), np.asarray(h2)
        if (h1.ndim != 2 or h2.ndim != 2 or h1.shape[1] != h2.shape[1]
                or not np.isfinite(h1).all() or not np.isfinite(h2).all()):
            raise ValueError("H1 and H2 must be finite and 2-D with equal column counts")
        return cls(HermitianMatrix(h1.conj().T @ h1), HermitianMatrix(h2.conj().T @ h2))


def _spectral_fault(w: np.ndarray, v: np.ndarray, ndim: int, a=None) -> Optional[str]:
    """The message of the first rule of a checked eigendecomposition that ``w``
    (eigenvalues, ``ndim`` 1, or a stack of spectra) and ``v`` (eigenvector columns)
    break, else None: finite and shaped alike, decreasing, orthonormal within
    1e-10 and, given the matrices ``a``, reconstructing each within 1e-10 * ||A||."""
    if (w.ndim != ndim or v.shape != w.shape + w.shape[-1:]
            or not np.isfinite(w).all() or not np.isfinite(v).all()):
        return "expected m finite eigenvalues and finite m x m eigenvectors"
    if (np.diff(w) > 0).any():
        return "eigenvalues must be sorted in decreasing order"
    vh = v.conj().swapaxes(-1, -2)
    if np.abs(vh @ v - np.eye(w.shape[-1])).max() > _SPECTRAL_TOL:
        return "eigenvectors are not orthonormal within 1e-10"
    if a is not None and (
            np.linalg.norm((v * w[..., None, :]) @ vh - a, axis=(-2, -1))
            > _SPECTRAL_TOL * np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1e-300)).any():
        return "eigendecomposition failed to reconstruct the input"
    return None


def _decompose(*mats: HermitianMatrix) -> None:
    """Give each of ``mats`` (of one kind) without one its checked eigendecomposition
    from one batched ``eigh``, or raise the first rule broken and keep none."""
    mats = [m for m in mats if "_eig" not in m.__dict__]
    if mats:
        a = np.array([m.entries for m in mats])
        w, v = np.linalg.eigh(sym(a))
        w, v = w[:, ::-1].copy(), v[..., ::-1].copy()
        fault = _spectral_fault(w, v, 2, a)
        if fault:
            raise ValueError(fault)
        w.setflags(write=False)
        v.setflags(write=False)
        for m, wm, vm in zip(mats, w, v):
            object.__setattr__(m, "_eig", _unchecked(SpectralDecomposition, wm, vm))


class SolveStatus(Enum):
    SOLVED = "Solved"
    BOUNDS_ONLY = "BoundsOnly"
    ZERO_RATE = "ZeroRate"


@dataclass(frozen=True, eq=False)
class CapacityBounds:
    """Lower / mid / upper capacity values (nats) with an analytic gap bound."""

    lower_nats: float
    mid_nats: float
    upper_nats: float
    gap_bound_nats: float

    def __post_init__(self):
        lower, mid, upper, gap = (self.lower_nats, self.mid_nats,
                                  self.upper_nats, self.gap_bound_nats)
        # numpy operations, so that a grid's arrays take one test
        tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(upper), np.abs(gap)))
        if not np.all((lower <= mid + tol) & (mid <= upper + tol)
                      & (upper <= lower + gap + tol)):
            raise ValueError(f"bound chain violated: lower={lower!r} mid={mid!r} "
                             f"upper={upper!r} gap={gap!r}")


@dataclass(frozen=True, eq=False)
class CapacityBoundsGrid(_Grid):
    """:class:`CapacityBounds` over the points of a power grid, each field an
    array over the points, the chain checked once for the whole grid.  Item
    i (indexing, iteration) is point i's CapacityBounds, a view built on demand."""

    lower_nats: np.ndarray
    mid_nats: np.ndarray
    upper_nats: np.ndarray
    gap_bound_nats: np.ndarray

    __post_init__ = CapacityBounds.__post_init__  # one chain test over the arrays

    def _point(self, i: int) -> CapacityBounds:
        return _unchecked(CapacityBounds, *(float(a[i]) for a in vars(self).values()))


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Optimal covariance, capacity and multiplier returned by the solvers.

    ``mode_powers`` holds the per-eigenmode transmit powers for solvers that
    work in an eigenbasis; ``bounds`` is populated when only capacity bounds
    (not the exact value) are available.
    """

    covariance: HermitianMatrix
    capacity_nats: float
    lagrange_lambda: float
    active_modes: int
    power_used: float
    status: SolveStatus
    mode_powers: Optional[np.ndarray] = None
    bounds: Optional[CapacityBounds] = None

    def __post_init__(self):
        check_nonnegative("capacity_nats", self.capacity_nats)
        check_nonnegative("lagrange_lambda", self.lagrange_lambda)
        object.__setattr__(self, "covariance", as_hermitian(self.covariance))
        if not self.covariance.is_psd():
            raise ValueError("covariance must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class SolveResultGrid(_Grid):
    """:class:`SolveResult` over the points of a power grid, each field an
    array over the points (first axis), checked once for the whole grid by
    the rules of one result (``spectra``: the covariances' eigenvalues, when
    the solver has them).  Item i (indexing, iteration) is point i's
    SolveResult, a view built on demand that takes the grid's checks."""

    covariances: np.ndarray
    capacities: np.ndarray
    lambdas: np.ndarray
    active_modes: np.ndarray
    power_used: np.ndarray
    statuses: np.ndarray
    mode_powers: np.ndarray
    bounds: Optional[CapacityBoundsGrid] = None
    spectra: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, spectra):
        check_nonnegative("capacities", self.capacities)
        check_nonnegative("lambdas", self.lambdas)
        covs = _hermitian(self.covariances, 3)
        if not _psd(np.linalg.eigvalsh(covs) if spectra is None else spectra):
            raise ValueError("covariance must be positive semidefinite")
        covs.setflags(write=False)  # _hermitian's own copy, which views share
        object.__setattr__(self, "covariances", covs)

    def _with(self, **changes) -> "SolveResultGrid":
        """A copy with ``changes`` (``bounds``, ``statuses``) set, sharing the
        arrays already checked: they are not checked again."""
        return _unchecked(SolveResultGrid, **(vars(self) | changes))

    def covariance_at(self, i) -> np.ndarray:
        """Point i's covariance; the real zero matrix where it carries no power."""
        cov = self.covariances[i]
        if not cov.any():
            cov = np.zeros(cov.shape)
            cov.setflags(write=False)  # read-only, as every covariance is
        return cov

    def _point(self, i: int) -> SolveResult:
        return _unchecked(
            SolveResult, _unchecked(HermitianMatrix, self.covariance_at(i)),
            float(self.capacities[i]), float(self.lambdas[i]), int(self.active_modes[i]),
            float(self.power_used[i]), self.statuses[i], self.mode_powers[i],
            None if self.bounds is None else self.bounds[i])


@dataclass(frozen=True)
class KktResidual:
    """Norms of the KKT violations of a candidate (R, lambda).

    dual_feasibility    ||negative part of M||
    complementary_slackness  ||M R||
    power_slackness     |lambda * (tr R - P_T)|
    """

    dual_feasibility: float
    complementary_slackness: float
    power_slackness: float

    def max(self) -> float:
        return max(self.dual_feasibility, self.complementary_slackness,
                   self.power_slackness)

    @classmethod
    def of(cls, mat: np.ndarray, r: np.ndarray, lam: float,
           p_total: float) -> "KktResidual":
        """The violations of the dual matrix M = ``mat`` at covariance ``r``."""
        ev = np.linalg.eigvalsh(sym(mat))
        return cls(float(np.sqrt(np.sum(np.minimum(ev, 0.0) ** 2))),
                   frob(mat @ r), abs(lam * (float(np.trace(r).real) - p_total)))


def inv_winv_plus_r(w: HermitianMatrix, r: np.ndarray) -> np.ndarray:
    """(W^{-1} + R)^{-1} through the stable Hermitian congruence form
    W^(1/2) (I + W^(1/2) R W^(1/2))^{-1} W^(1/2)."""
    wh = w.sqrt_psd().entries
    inner = np.eye(w.dim) + sym(wh @ r @ wh)
    return sym(wh @ np.linalg.solve(inner, wh))


def _coerce_psd(r, m: int, stacked: bool = False):
    """``r`` as a checked covariance: square, finite, PSD, of dimension m (a
    HermitianMatrix); when ``stacked``, a 3-D ``r`` is a stack of them along
    a first axis, each checked by the same rules (a symmetrized array), or a
    checked :class:`SolveResultGrid`, which gives its covariances."""
    grid = stacked and isinstance(r, SolveResultGrid)
    stack = grid or stacked and not isinstance(r, HermitianMatrix) and np.ndim(r) == 3
    h = r.covariances if grid else _hermitian(r, 3) if stack else as_hermitian(r)
    dim = h.shape[-1] if stack else h.dim
    if dim != m:
        raise ValueError(f"covariance dimension {dim} does not match channel dimension {m}")
    if not (grid or (_psd(np.linalg.eigvalsh(h)) if stack else h.is_psd())):
        raise ValueError("covariance is not positive semidefinite within RANK_TOL")
    return h


def logdet_i_plus(w: HermitianMatrix, r: np.ndarray):
    """ln|I + W R| for PSD W and R, or for each R of a stack (an array), as
    ln|I_r + L^H R L| with W = L L^H (:meth:`HermitianMatrix.root`): W's
    null directions add exactly 0."""
    lr = w.root()
    ev = np.linalg.eigvalsh(sym(lr.conj().T @ r @ lr))
    out = np.log1p(np.clip(ev, 0.0, None)).sum(axis=-1)
    return out if out.ndim else float(out)


def secrecy_rate(pair: ChannelPair, r):
    """Signed secrecy rate ln|I + W1 R| - ln|I + W2 R| in nats, of one
    covariance R, or an array over a stack (n, m, m) of them or a checked grid's.

    Negative values are returned as-is; callers interpret them as zero rate.
    """
    rh = _coerce_psd(r, pair.m, stacked=True)
    a = getattr(rh, "entries", rh)
    return logdet_i_plus(pair.w1, a) - logdet_i_plus(pair.w2, a)


def weak_rate(pair: ChannelPair, r: MatrixLike) -> float:
    """Weak-eavesdropper rate ln|I + W1 R| - tr(W2 R) in nats (signed)."""
    rh = _coerce_psd(r, pair.m)
    leak = float(np.trace(pair.w2.entries @ rh.entries).real)
    return logdet_i_plus(pair.w1, rh.entries) - leak


def positive_part(a: HermitianMatrix) -> HermitianMatrix:
    """Projection onto the positive eigenmodes: sum of lambda_i u_i u_i^H over lambda_i > 0."""
    u = a.eig().eigenvectors
    return HermitianMatrix((u * a.spectrum()) @ u.conj().T)


def epsilon_from_pathloss(alpha: float, n2: float, m: float,
                          r_min: float, nu: float) -> float:
    """Worst-case eavesdropper gain alpha * n2 * m / r_min**nu from a minimum distance."""
    for name, val in (("alpha", alpha), ("n2", n2), ("m", m),
                      ("r_min", r_min), ("nu", nu)):
        check_positive(name, val)
    with np.errstate(over="ignore"):  # an overflow is inf, refused below
        eps = float(alpha * n2 * m * np.float64(r_min) ** -nu)
    check_nonnegative("epsilon", eps)
    return eps


NATS_PER_BIT = math.log(2.0)


def nats_to_bits(x: float) -> float:
    return x / NATS_PER_BIT
