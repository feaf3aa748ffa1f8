"""Secrecy capacities and optimal signaling for Gaussian MIMO wiretap channels.

The library computes, in closed form wherever one exists, the optimal
transmit covariance and secrecy capacity of the Gaussian MIMO wiretap
channel: the weak-eavesdropper solution with its capacity sandwich, the
isotropic and omnidirectional eavesdropper reductions, shared-eigenbasis
channels, and sufficient/necessary optimality certificates for zero-forcing,
standard water-filling and isotropic signaling.  Monte-Carlo and separable
brute-force oracles validate every closed form independently.

All capacities are in nats; the command line (``wiretap-mimo``) can convert
to bits.
"""

from .core import (CapacityBounds, CapacityBoundsGrid, ChannelPair,
                   ConvergenceError, HermitianMatrix, KktResidual,
                   NotApplicableError, SolveResult, SolveResultGrid,
                   SolveStatus, SpectralDecomposition, epsilon_from_pathloss,
                   nats_to_bits, positive_part, secrecy_rate, weak_rate)
from .weak_eavesdropper import (capacity_bounds_weak, kkt_residual_weak,
                                saturation_capacities, solve_weak,
                                solve_weak_with_bounds, threshold_power)
from .isotropic import (AsymptoticRegime, AsymptoticReport, IsotropicProblem,
                        NegligibilityReport, asymptotic_capacity,
                        capacity_bounds_isotropic, negligibility_margins,
                        solve_isotropic, threshold_powers)
from .omnidirectional import (OmniClassification, classify_omni,
                              range_containment_residual, solve_omni)
from .common_rsv import (CommonBasisChannel, NotCommutingError,
                         commutation_residual, detect_common_rsv,
                         solve_common_rsv)
from .certificates import (CertificateReport, KktForm, Verdict,
                           construct_is_optimal_channel,
                           construct_wf_optimal_channel, is_certify,
                           kkt_residual_general, wf_certify, zf_certify,
                           zf_necessity_check)
from .oracle import Objective, OracleConfig, mc_capacity, separable_oracle
from .auto import solve_auto

__version__ = "0.1.0"

__all__ = [
    "CapacityBounds", "CapacityBoundsGrid", "ChannelPair", "ConvergenceError",
    "HermitianMatrix", "KktResidual", "NotApplicableError", "SolveResult",
    "SolveResultGrid", "SolveStatus",
    "SpectralDecomposition", "epsilon_from_pathloss", "nats_to_bits",
    "positive_part", "secrecy_rate", "weak_rate",
    "capacity_bounds_weak", "kkt_residual_weak", "saturation_capacities",
    "solve_weak", "solve_weak_with_bounds", "threshold_power",
    "AsymptoticRegime", "AsymptoticReport", "IsotropicProblem",
    "NegligibilityReport", "asymptotic_capacity", "capacity_bounds_isotropic",
    "negligibility_margins", "solve_isotropic", "threshold_powers",
    "OmniClassification", "classify_omni", "range_containment_residual",
    "solve_omni", "CommonBasisChannel", "NotCommutingError",
    "commutation_residual", "detect_common_rsv", "solve_common_rsv",
    "CertificateReport", "KktForm", "Verdict", "construct_is_optimal_channel",
    "construct_wf_optimal_channel", "is_certify", "kkt_residual_general",
    "wf_certify", "zf_certify", "zf_necessity_check", "Objective",
    "OracleConfig", "mc_capacity", "separable_oracle", "solve_auto",
]
