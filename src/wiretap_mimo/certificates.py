"""Optimality certificates for zero-forcing, water-filling and isotropic signaling.

Each certificate checks the closed-form sufficient conditions under which a
low-complexity transmission strategy is exactly optimal for the wiretap
channel, and, when they hold, returns the certified covariance and capacity.
Constructive generators produce channels that pass the certificates by
design, and the KKT residual checker verifies stationarity, complementary
slackness and power slackness of any candidate (R, lambda).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import common_rsv
from ._waterfill import standard_waterfill
from .core import (ChannelPair, HermitianMatrix, KktResidual,
                   NotApplicableError, RANK_TOL, _Grid, _coerce_psd, _hermitian,
                   _unchecked, check_gains, check_nonnegative, check_positive,
                   clean_spectrum, frob, inv_winv_plus_r, over_powers,
                   secrecy_rate, sym)

# relative tolerance for "a single multiplier fits every mode" checks
_CONSISTENCY_TOL = 1e-8
# relative residual bound for "R's active directions are W2-null W1 eigenvectors"
_NECESSITY_TOL = 1e-8
_ZF_PRODUCT_TOL = 1e-10


class Verdict(Enum):
    SUFFICIENT_HOLDS = "SufficientHolds"
    NECESSARY_FAILS = "NecessaryFails"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of an optimality check with per-condition diagnostics.

    The certified covariance and capacity are present exactly when the
    verdict is SUFFICIENT_HOLDS.
    """

    verdict: Verdict
    details: dict = field(default_factory=dict)
    certified_covariance: Optional[HermitianMatrix] = None
    certified_capacity: Optional[float] = None

    def __post_init__(self):
        certified = (self.certified_covariance is not None
                     and self.certified_capacity is not None)
        if certified != (self.verdict is Verdict.SUFFICIENT_HOLDS):
            raise ValueError("certified fields must be present exactly for "
                             "SufficientHolds verdicts")


@dataclass(frozen=True, eq=False)
class CertificateGrid(_Grid):
    """One certificate over the points of a power grid, each field an array
    (a list for ``details``) over the points: a point that does not hold has
    NaN for its capacity and covariance.  The certificates build it and check
    the covariances that hold once, as one stack; the stack is read-only.
    Item i is point i's CertificateReport, a view built on demand."""

    verdicts: np.ndarray
    details: list[dict]
    capacities: np.ndarray
    covariances: np.ndarray

    @property
    def verdict(self) -> Optional[Verdict]:
        """The verdict every point shares, else None (the bench tracer reads it)."""
        verdicts = set(self.verdicts)
        return verdicts.pop() if len(verdicts) == 1 else None

    def covariance_at(self, i: int) -> Optional[np.ndarray]:
        """Point i's certified covariance; None where the certificate does not hold."""
        return self.covariances[i] if self.verdicts[i] is Verdict.SUFFICIENT_HOLDS else None

    def _point(self, i: int) -> CertificateReport:
        cov = self.covariance_at(i)
        held = cov is not None
        return _unchecked(CertificateReport, self.verdicts[i], self.details[i],
                          _unchecked(HermitianMatrix, cov) if held else None,
                          float(self.capacities[i]) if held else None)


def _each(pair: ChannelPair, p_total: np.ndarray, verdict: Verdict, **details) -> CertificateGrid:
    """The channel-level ``verdict`` (never SUFFICIENT_HOLDS) with ``details`` at each power."""
    n = p_total.size
    return CertificateGrid(np.full(n, verdict), [dict(details) for _ in range(n)],
                           np.full(n, np.nan),  # broadcast_to: a read-only stack
                           np.broadcast_to(np.nan, (n, pair.m, pair.m)))


def _grid(pair: ChannelPair, p_total: np.ndarray, details: list[dict], checks,
          covs: np.ndarray, capacities=None, **certified) -> CertificateGrid:
    """The grid of ``checks``, ``(passes, reason)`` pairs with ``passes`` a
    boolean array over the points: point k is INCONCLUSIVE with the reason of
    the first check it fails, else SUFFICIENT_HOLDS with covariance ``covs[k]``,
    capacity ``capacities[k]`` (else its secrecy rate, one call for the grid)
    and ``certified`` added to its details."""
    reasons = np.full(p_total.size, None)
    for passes, why in reversed(checks):  # the first check a point fails names it
        reasons[~passes] = why
    held = np.equal(reasons, None)
    for info, reason in zip(details, reasons.tolist()):
        info.update({"reason": reason} if reason else certified)
    caps = np.full(p_total.size, np.nan)
    if held.any() and capacities is None:  # secrecy_rate checks the held stack, once
        caps[held] = np.maximum(secrecy_rate(pair, covs[held]), 0.0)
    elif held.any():  # the held stack, checked once for the grid
        covs[held], caps[held] = _hermitian(covs[held], 3), capacities[held]
    covs[~held] = np.nan
    covs.setflags(write=False)
    return CertificateGrid(np.where(held, Verdict.SUFFICIENT_HOLDS, Verdict.INCONCLUSIVE),
                           details, caps, covs)


def _certificate(certify):
    """``certify(pair, powers)``, a grid, over :func:`over_powers`: where W1
    and W2 share no eigenbasis, every point is INCONCLUSIVE."""
    @over_powers
    @functools.wraps(certify)
    def run(pair: ChannelPair, p_total: np.ndarray) -> CertificateGrid:
        try:
            return certify(pair, p_total)
        except common_rsv.NotCommutingError as err:
            return _each(pair, p_total, Verdict.INCONCLUSIVE,
                         reason="W1 and W2 do not share an eigenbasis",
                         commutator_norm=err.commutator_norm)
    return run


def _covariances(basis: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The stack of ``V diag(p) V^H`` over the rows p of ``powers``."""
    return sym((basis * powers[:, None, :]) @ basis.conj().T)


@_certificate
def zf_certify(pair: ChannelPair, p_total: np.ndarray) -> CertificateGrid:
    """Certify zero-forcing: transmit only where the eavesdropper is blind.

    Sufficient conditions: shared eigenbasis, water-filling over the
    zero-leakage modes, and every leaky mode weak enough that activating it
    would not pay (lam1_i <= lam2_i + lambda).  A certified solution needs
    no wiretap code: the eavesdropper receives exactly nothing.  ``p_total``
    is a float (one report) or a 1-D grid (a :class:`CertificateGrid`).
    """
    if pair.w2.rank() == pair.m:
        return _each(pair, p_total, Verdict.NECESSARY_FAILS, w2_rank=pair.m, reason=(
            "W2 is positive definite: no zero-leakage direction exists"))
    channel = pair.common_basis()
    l1, l2 = channel.lam1, channel.lam2
    zf_mode = l2 == 0
    usable = zf_mode & (l1 > 0)
    if not usable.any():
        return _each(pair, p_total, Verdict.NECESSARY_FAILS, reason=(
            "no zero-leakage mode carries positive legitimate gain"))

    powers = np.zeros((p_total.size, pair.m))
    powers[:, usable], lams = standard_waterfill(l1[usable], p_total)
    covs = _covariances(channel.basis, powers)
    leaky = ~zf_mode
    margins = (l2[leaky] + lams[:, None] - l1[leaky]).min(axis=1, initial=math.inf)
    # both relative to the terms compared, so verdicts keep the scaling symmetry
    inactive_ok = margins >= -1e-12 * np.maximum(lams, l1[leaky].max(initial=0.0))
    # both norms of R / P_T, so that the test is scale-free and none overflows
    units = covs / p_total[:, None, None]
    leaks = np.linalg.norm(pair.w2.entries @ units, axis=(1, 2))
    scales = np.maximum(frob(pair.w2.entries) * np.linalg.norm(units, axis=(1, 2)), 1e-300)
    zf_modes = int(np.count_nonzero(usable))
    details = [{"zf_modes": zf_modes, "water_lambda": lam, "leaky_mode_margin": margin,
                "leaky_modes_inactive_ok": ok, "w2_r_product_norm": leak}
               for lam, margin, ok, leak in zip(lams.tolist(), margins.tolist(),
                                                inactive_ok.tolist(), (p_total * leaks).tolist())]
    # the sum over each point's active modes alone: numpy sums 8 or more terms
    # pairwise, so a full row with zeros on the idle modes rounds otherwise
    capacities = np.array([np.log(l1[row > 0] / lam).sum() for row, lam in zip(powers, lams)])
    return _grid(pair, p_total, details, [
        (inactive_ok, "a leaky mode is strong enough to be worth activating; "
                      "sufficiency fails"),
        (leaks <= _ZF_PRODUCT_TOL * scales, "numerical zero-forcing check W2 R = 0 failed"),
    ], covs, capacities, no_wiretap_code_needed=True)


def zf_necessity_check(pair: ChannelPair, r, p_total: float) -> CertificateReport:
    """Check the necessary conditions for a user-supplied R to be ZF-optimal.

    Active eigenvectors of R must be eigenvectors of W1, lie in the nullspace
    of W2, and carry water-filling powers with a single water level.  Passing
    never certifies optimality (verdict stays INCONCLUSIVE); any violation is
    NECESSARY_FAILS.
    """
    check_positive("p_total", p_total)  # never read: P_T sets no ZF condition
    dec = _coerce_psd(r, pair.m).eig()
    ev, u = dec.eigenvalues, dec.eigenvectors
    active = clean_spectrum(ev) > 0
    details: dict = {"active_modes": int(np.count_nonzero(active))}
    if not np.any(active):
        details["reason"] = "R carries no power; necessity checks are vacuous"
        return CertificateReport(Verdict.INCONCLUSIVE, details=details)

    ua = u[:, active]
    w1, w2 = pair.w1.entries, pair.w2.entries
    n1, n2 = max(frob(w1), 1e-300), max(frob(w2), 1e-300)

    # active directions must leak nothing
    null_resid = float(np.linalg.norm(w2 @ ua, 2)) / n2
    # and must be eigenvectors of W1
    w1u = w1 @ ua
    rayleigh = np.einsum("ij,ij->j", ua.conj(), w1u).real
    eig_resid = float(np.max(np.linalg.norm(w1u - ua * rayleigh, axis=0))) / n1
    # water-filling powers: p_i + 1/lam1_i must share one water level
    levels = ev[active] + 1.0 / rayleigh
    level_spread = float(np.max(levels) - np.min(levels))
    level_ok = level_spread <= _CONSISTENCY_TOL * float(np.mean(levels))

    # block structure of W2 in the eigenbasis of R: active block must vanish
    w2_hat = u.conj().T @ w2 @ u
    k = int(np.count_nonzero(active))
    block_active = float(np.linalg.norm(w2_hat[:k, :k]))
    block_cross = float(np.linalg.norm(w2_hat[:k, k:]))

    details.update({
        "w2_null_residual": null_resid,
        "w1_eigvec_residual": eig_resid,
        "water_level_spread": level_spread,
        "water_lambda": 1.0 / float(np.mean(levels)),
        "w2_active_block_norm": block_active,
        "w2_cross_block_norm": block_cross,
    })
    ok = null_resid <= _NECESSITY_TOL and eig_resid <= _NECESSITY_TOL and level_ok
    if not ok:
        details["reason"] = "necessary conditions for ZF optimality are violated"
        return CertificateReport(Verdict.NECESSARY_FAILS, details=details)
    details["reason"] = "necessary conditions hold; optimality not established"
    return CertificateReport(Verdict.INCONCLUSIVE, details=details)


@_certificate
def wf_certify(pair: ChannelPair, p_total: np.ndarray) -> CertificateGrid:
    """Certify that the standard water-filling covariance is wiretap-optimal.

    Requires a shared eigenbasis, one inverse-gain offset alpha with
    1/lam2_i = 1/lam1_i + alpha across all active modes, and inactive modes
    whose rate slope lam1_i - lam2_i stays within the secrecy multiplier
    lambda' = alpha lambda^2 / (1 + alpha lambda), lambda the water level.
    ``p_total`` is a float (one report) or a 1-D grid (a :class:`CertificateGrid`).
    """
    channel = pair.common_basis()
    l1, l2 = channel.lam1, channel.lam2
    if not (l1 > 0).any():
        return _each(pair, p_total, Verdict.INCONCLUSIVE, active_modes=0,
                     water_lambda=math.inf, reason="W1 carries no positive gain")
    powers, lams = standard_waterfill(l1, p_total)
    active = powers > 0
    with np.errstate(divide="ignore", invalid="ignore"):  # masked to active modes
        offsets = np.where(active & (l2 > 0), 1.0 / l2 - 1.0 / l1, 0.0)
    counts = np.count_nonzero(active, axis=1)
    alphas = offsets.sum(axis=1) / counts
    spreads = (np.where(active, offsets, -math.inf).max(axis=1)
               - np.where(active, offsets, math.inf).min(axis=1))
    # lambda' (read only where alpha > 0)
    lam_ps = alphas * lams * lams / (1.0 + np.maximum(alphas, 0.0) * lams)
    details = [{"active_modes": c, "water_lambda": lam, "alpha": alpha,
                "alpha_spread": spread, "lambda_prime": lam_p}
               for c, lam, alpha, spread, lam_p in zip(
                   *(a.tolist() for a in (counts, lams, alphas, spreads, lam_ps)))]
    return _grid(pair, p_total, details, [
        (~(active & (l2 == 0)).any(axis=1), "an active mode has zero eavesdropper "
         "gain: no inverse-gain offset (use the ZF check)"),
        ((alphas > 0) & (spreads <= _CONSISTENCY_TOL * np.abs(alphas)),
         "no single positive inverse-gain offset fits the active modes"),
        # the KKT rule of an idle mode: its rate slope at zero power, l1 - l2,
        # stays within the multiplier lambda' of the active ones
        (~(~active & (l1 - l2 > lam_ps[:, None] + _CONSISTENCY_TOL * l1)).any(axis=1),
         "an inactive mode would raise the secrecy rate: lam1 - lam2 > lambda'"),
    ], _covariances(channel.basis, powers))


@_certificate
def is_certify(pair: ChannelPair, p_total: np.ndarray) -> CertificateGrid:
    """Certify that the isotropic covariance R = (P_T / m) I is optimal.

    Requires a shared eigenbasis, W1 > W2 > 0, and one multiplier value
    lambda = 1/(a_i + a) - 1/(b_i + a) consistent across all modes, where
    a_i and b_i are the inverse eigenvalues and a = P_T / m.  ``p_total`` is
    a float (one report) or a 1-D grid (a :class:`CertificateGrid`).
    """
    channel = pair.common_basis()
    l1, l2 = channel.lam1, channel.lam2
    if (l2 <= 0).any() or (l1 <= l2).any():
        return _each(pair, p_total, Verdict.INCONCLUSIVE,
                     reason="requires W1 > W2 > 0 on every shared eigenmode")

    a = p_total / pair.m
    lambdas = l1 / (1.0 + a[:, None] * l1) - l2 / (1.0 + a[:, None] * l2)
    lams = np.mean(lambdas, axis=1)
    spreads = lambdas.max(axis=1) - lambdas.min(axis=1)
    details = [{"common_lambda": lam, "lambda_spread": spread}
               for lam, spread in zip(lams.tolist(), spreads.tolist())]
    return _grid(pair, p_total, details, [
        (spreads <= _CONSISTENCY_TOL * np.abs(lams),
         "mode multipliers disagree; isotropic signaling is not certified"),
    ], sym(a[:, None, None] * np.eye(pair.m)))  # a sym output: secrecy_rate's own check


def construct_is_optimal_channel(m: int, p_total: float, b1: float, a1: float,
                                 b_rest, basis: np.ndarray | None = None) -> ChannelPair:
    """Build a channel for which isotropic signaling at power P_T is optimal.

    The inverse eigenvalues are anchored at (a1, b1); each further b_i must
    exceed lam*a^2 / (1 - lam*a) strictly, which makes the matching a_i
    positive and keeps W1 > W2.  The optimal covariance of the returned pair
    is (P_T / m) I by construction.
    """
    b_rest = np.asarray(b_rest, dtype=float)
    if b_rest.shape != (m - 1,):  # no length matches an m below 1
        raise ValueError(f"need m >= 1 and b_rest of length m - 1, got m = {m!r}")
    check_positive("p_total", p_total)
    check_positive("b1", b1)
    if not 0 < a1 < b1:
        raise ValueError(f"violated: 0 < a1 < b1 (got a1 = {a1!r}, b1 = {b1!r})")
    a = p_total / m
    lam = 1.0 / (a1 + a) - 1.0 / (b1 + a)
    bound = lam * a * a / (1.0 - lam * a)
    bad = ~((b_rest > bound) & (b_rest < math.inf))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"violated: lam*a^2/(1 - lam*a) = {bound!r} < b_{i + 2} < inf "
            f"(got b_{i + 2} = {b_rest[i]!r})")
    a_rest = -a + 1.0 / (lam + 1.0 / (b_rest + a))
    return _pair_in_basis(1.0 / np.concatenate(([a1], a_rest)),
                          1.0 / np.concatenate(([b1], b_rest)), basis)


def construct_wf_optimal_channel(lam1, alpha: float,
                                 basis: np.ndarray | None = None) -> ChannelPair:
    """Build a channel on which standard water-filling is wiretap-optimal,
    by setting lam2_i = lam1_i / (1 + alpha * lam1_i) for every mode."""
    l1 = check_gains("lam1", lam1)
    check_positive("alpha", alpha)
    return _pair_in_basis(l1, l1 / (1.0 + alpha * l1), basis)


def _pair_in_basis(lam1, lam2, basis) -> ChannelPair:
    """The pair with eigenvalues (lam1, lam2) on the columns of the unitary
    ``basis`` (the standard basis when None)."""
    ch = common_rsv.CommonBasisChannel(
        np.eye(len(lam1)) if basis is None else basis, lam1, lam2)
    v = ch.basis
    return ChannelPair.from_gram((v * ch.lam1) @ v.conj().T,
                                 (v * ch.lam2) @ v.conj().T)


class KktForm(Enum):
    ZF = "ZFForm"
    WF = "WFForm"


def _regularized(w: HermitianMatrix) -> HermitianMatrix:
    ev = w.spectrum()
    if ev[0] == 0:
        raise NotApplicableError("W is zero; singular beyond regularization")
    if ev[-1] > 0:
        return w
    return HermitianMatrix(w.entries + RANK_TOL * ev[0] * np.eye(w.dim))


def kkt_residual_general(pair: ChannelPair, r, lam: float, form: KktForm,
                         p_total: float) -> KktResidual:
    """KKT violation norms of (R, lambda) for the exact secrecy problem.

    ZFForm evaluates M = lam*W1*R - W1 + W2 + lam*I (valid for zero-forcing
    candidates, where W2 R = 0); WFForm evaluates
    M = lam*I - (W1^{-1} + R)^{-1} + (W2^{-1} + R)^{-1}, regularizing
    near-singular Gram matrices by RANK_TOL * lam_max * I.
    """
    ra = _coerce_psd(r, pair.m).entries
    check_nonnegative("lam", lam)
    check_nonnegative("p_total", p_total)
    m = pair.m
    if form is KktForm.ZF:
        mat = sym(lam * (pair.w1.entries @ ra)) - pair.w1.entries \
            + pair.w2.entries + lam * np.eye(m)
    else:
        mat = lam * np.eye(m) - inv_winv_plus_r(_regularized(pair.w1), ra) \
            + inv_winv_plus_r(_regularized(pair.w2), ra)
    return KktResidual.of(mat, ra, lam, p_total)
