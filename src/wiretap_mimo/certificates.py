"""Optimality certificates for zero-forcing, water-filling and isotropic signaling.

Each certificate checks the closed-form sufficient conditions under which a
low-complexity transmission strategy is exactly optimal for the wiretap
channel, and, when they hold, returns the certified covariance and capacity.
Constructive generators produce channels that pass the certificates by
design, and the KKT residual checker verifies stationarity, complementary
slackness and power slackness of any candidate (R, lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import common_rsv
from ._waterfill import standard_waterfill
from .core import (ChannelPair, HermitianMatrix, KktResidual,
                   NotApplicableError, RANK_TOL, _coerce_psd, check_gains,
                   check_nonnegative, check_positive, clean_spectrum, frob,
                   inv_winv_plus_r, secrecy_rate, sym)

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


def _common_basis(pair: ChannelPair):
    """The pair's shared eigenbasis and None, or None and the inconclusive
    report when W1 and W2 do not commute."""
    try:
        return pair.common_basis(), None
    except common_rsv.NotCommutingError as err:
        return None, CertificateReport(Verdict.INCONCLUSIVE, details={
            "reason": "W1 and W2 do not share an eigenbasis",
            "commutator_norm": err.commutator_norm,
        })


def zf_certify(pair: ChannelPair, p_total: float) -> CertificateReport:
    """Certify zero-forcing: transmit only where the eavesdropper is blind.

    Sufficient conditions: shared eigenbasis, water-filling over the
    zero-leakage modes, and every leaky mode weak enough that activating it
    would not pay (lam1_i <= lam2_i + lambda).  A certified solution needs
    no wiretap code: the eavesdropper receives exactly nothing.
    """
    check_positive("p_total", p_total)
    if pair.w2.rank() == pair.m:
        return CertificateReport(Verdict.NECESSARY_FAILS, details={
            "reason": "W2 is positive definite: no zero-leakage direction exists",
            "w2_rank": pair.m,
        })
    channel, report = _common_basis(pair)
    if channel is None:
        return report
    l1, l2 = channel.lam1, channel.lam2
    zf_mode = l2 == 0
    usable = zf_mode & (l1 > 0)
    if not np.any(usable):
        return CertificateReport(Verdict.NECESSARY_FAILS, details={
            "reason": "no zero-leakage mode carries positive legitimate gain",
        })

    powers = np.zeros_like(l1)
    alloc, lam = standard_waterfill(l1[usable], p_total)
    powers[np.flatnonzero(usable)] = alloc

    leaky = ~zf_mode
    margin = float(np.min(l2[leaky] + lam - l1[leaky])) if np.any(leaky) else math.inf
    cond_c = margin >= -1e-12 * max(1.0, lam)
    details = {
        "zf_modes": int(np.count_nonzero(usable)),
        "water_lambda": lam,
        "leaky_mode_margin": margin,
        "leaky_modes_inactive_ok": bool(cond_c),
    }
    if not cond_c:
        details["reason"] = ("a leaky mode is strong enough to be worth activating; "
                             "sufficiency fails")
        return CertificateReport(Verdict.INCONCLUSIVE, details=details)

    cov = (channel.basis * powers) @ channel.basis.conj().T
    cov_h = HermitianMatrix(sym(cov))
    leak_norm = frob(pair.w2.entries @ cov_h.entries)
    scale = max(frob(pair.w2.entries) * frob(cov_h.entries), 1e-300)
    details["w2_r_product_norm"] = leak_norm
    if leak_norm > _ZF_PRODUCT_TOL * scale:
        details["reason"] = "numerical zero-forcing check W2 R = 0 failed"
        return CertificateReport(Verdict.INCONCLUSIVE, details=details)

    active = powers > 0
    capacity = float(np.sum(np.log(l1[active] / lam)))
    details["no_wiretap_code_needed"] = True
    return CertificateReport(Verdict.SUFFICIENT_HOLDS, details=details,
                             certified_covariance=cov_h,
                             certified_capacity=capacity)


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
    n1 = max(frob(w1), 1e-300)
    n2 = max(frob(w2), 1e-300)

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


def wf_certify(pair: ChannelPair, p_total: float) -> CertificateReport:
    """Certify that the standard water-filling covariance is wiretap-optimal.

    Requires a shared eigenbasis, one inverse-gain offset alpha with
    1/lam2_i = 1/lam1_i + alpha across all active modes, and inactive modes
    that either satisfy the same relation or are dominated (lam1_i <= lam2_i).
    """
    check_positive("p_total", p_total)
    channel, report = _common_basis(pair)
    if channel is None:
        return report
    l1, l2 = channel.lam1, channel.lam2
    powers, lam = standard_waterfill(l1, p_total)
    active = powers > 0
    details: dict = {"active_modes": int(np.count_nonzero(active)),
                     "water_lambda": lam}
    if not np.any(active):
        details["reason"] = "W1 carries no positive gain"
        return CertificateReport(Verdict.INCONCLUSIVE, details=details)

    if np.any(active & (l2 == 0)):
        details["reason"] = ("an active mode has zero eavesdropper gain; the "
                             "inverse-gain relation is undefined (use the ZF check)")
        return CertificateReport(Verdict.INCONCLUSIVE, details=details)

    alphas = 1.0 / l2[active] - 1.0 / l1[active]
    spread = float(np.max(alphas) - np.min(alphas))
    alpha = float(np.mean(alphas))
    details["alpha"] = alpha
    details["alpha_spread"] = spread
    if alpha <= 0 or spread > _CONSISTENCY_TOL * abs(alpha):
        details["reason"] = "no single positive inverse-gain offset fits the active modes"
        return CertificateReport(Verdict.INCONCLUSIVE, details=details)

    for i in np.flatnonzero(~active):
        if l1[i] <= l2[i] * (1 + 1e-12) + 1e-300:
            continue
        if l2[i] > 0:
            implied = 1.0 / l2[i] - 1.0 / l1[i]
            if abs(implied - alpha) <= _CONSISTENCY_TOL * abs(alpha):
                continue
        details["reason"] = f"inactive mode {i} satisfies neither the alpha relation " \
                            f"nor lam1 <= lam2"
        return CertificateReport(Verdict.INCONCLUSIVE, details=details)

    cov = (channel.basis * powers) @ channel.basis.conj().T
    cov_h = HermitianMatrix(sym(cov))
    capacity = max(secrecy_rate(pair, cov_h), 0.0)
    details["lambda_prime"] = alpha * lam * lam / (1.0 + alpha * lam)
    return CertificateReport(Verdict.SUFFICIENT_HOLDS, details=details,
                             certified_covariance=cov_h,
                             certified_capacity=capacity)


def is_certify(pair: ChannelPair, p_total: float) -> CertificateReport:
    """Certify that the isotropic covariance R = (P_T / m) I is optimal.

    Requires a shared eigenbasis, W1 > W2 > 0, and one multiplier value
    lambda = 1/(a_i + a) - 1/(b_i + a) consistent across all modes, where
    a_i and b_i are the inverse eigenvalues and a = P_T / m.
    """
    check_positive("p_total", p_total)
    channel, report = _common_basis(pair)
    if channel is None:
        return report
    l1, l2 = channel.lam1, channel.lam2
    details: dict = {}
    if np.any(l2 <= 0) or np.any(l1 <= l2):
        details["reason"] = "requires W1 > W2 > 0 on every shared eigenmode"
        return CertificateReport(Verdict.INCONCLUSIVE, details=details)

    a = p_total / pair.m
    lambdas = l1 / (1.0 + a * l1) - l2 / (1.0 + a * l2)
    spread = float(np.max(lambdas) - np.min(lambdas))
    lam = float(np.mean(lambdas))
    details["common_lambda"] = lam
    details["lambda_spread"] = spread
    if spread > _CONSISTENCY_TOL * abs(lam):
        details["reason"] = "mode multipliers disagree; isotropic signaling is not certified"
        return CertificateReport(Verdict.INCONCLUSIVE, details=details)

    cov_h = HermitianMatrix(a * np.eye(pair.m))
    capacity = max(secrecy_rate(pair, cov_h), 0.0)
    return CertificateReport(Verdict.SUFFICIENT_HOLDS, details=details,
                             certified_covariance=cov_h,
                             certified_capacity=capacity)


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
    a_all = np.concatenate(([a1], a_rest))
    b_all = np.concatenate(([b1], b_rest))
    return _pair_in_basis(1.0 / a_all, 1.0 / b_all, basis)


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
