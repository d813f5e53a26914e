"""lgqfi: temporal correlations, quantum Fisher information, certified bounds.

A numerical laboratory for small quantum systems linking three-time
(Leggett-Garg) correlation combinations of a bounded observable to lower
bounds on the quantum Fisher information, with exactly solvable reference
models (thermal qubit, transverse-field chain, GHZ), response-function
sum rules, and measurement-protocol simulations.
"""

from __future__ import annotations

from .bounds import (
    BestBound,
    BoundReport,
    best_bound,
    bound_Kp,
    bound_pure,
    bound_thermal,
    bound_thermal_time,
    bound_thermal_weak,
    bound_two_time,
    build_report,
    depth_witness,
    thermal_time,
)
from .errors import ConfigError, InvariantViolation, LgqfiError, NumericsError
from .kernels import (
    KernelResult,
    R_kernel,
    Y_CRIT,
    gamma,
    gamma_batch,
    gamma_p,
    gamma_p_zero_temperature,
    gamma_tilde,
    gamma_tilde_zero_temperature,
    gamma_zero_temperature,
    h_kernel,
    hp_kernel,
    hp_max,
    rp_kernel,
    rtilde_kernel,
)
from .linalg import Eigensystem, Operator, hermitian_eig, operator_norm
from .models import (
    ModelSpec,
    build_collective,
    build_ghz,
    build_ghz_effective,
    build_model,
    build_qubit,
    build_tfim,
    ghz_state,
    load_custom,
)
from .protocols import (
    JointDistribution,
    MeterConfig,
    ProtocolEstimate,
    ProtocolInstance,
    lgi_from_protocol,
    macrorealist_oracle,
    projective_joint,
    projective_mc,
    symmetrized_correlator,
    weak_two_meter,
)
from .response import (
    HolevoBound,
    fsum_upper,
    gamma_H,
    holevo,
    holevo_bound,
    m2_commutator,
    m2_moment,
    mn_gapped_lower,
    mn_moment,
    qfi_response,
)
from .spectral import (
    SpectralData,
    StationaryState,
    correlator,
    f_terms,
    kappa_terms,
    lgi_K,
    lgi_Kp,
    make_state,
    qfi,
    qfi_pure,
    spectral_data,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LgqfiError", "ConfigError", "NumericsError", "InvariantViolation",
    # linear algebra
    "Operator", "Eigensystem", "hermitian_eig", "operator_norm",
    # models
    "ModelSpec", "build_model", "build_qubit", "build_tfim", "build_ghz",
    "build_ghz_effective", "build_collective", "ghz_state", "load_custom",
    # kernels
    "KernelResult", "Y_CRIT", "h_kernel", "hp_kernel", "hp_max", "R_kernel",
    "rp_kernel", "rtilde_kernel", "gamma", "gamma_p", "gamma_batch",
    "gamma_tilde", "gamma_zero_temperature", "gamma_p_zero_temperature",
    "gamma_tilde_zero_temperature",
    # spectral
    "StationaryState", "SpectralData", "make_state", "spectral_data",
    "correlator", "lgi_K", "lgi_Kp", "kappa_terms", "qfi", "f_terms",
    "qfi_pure",
    # bounds
    "BoundReport", "BestBound", "thermal_time", "bound_pure", "bound_thermal",
    "bound_thermal_weak", "bound_thermal_time", "bound_two_time", "bound_Kp",
    "depth_witness", "build_report", "best_bound",
    # response
    "qfi_response", "fsum_upper", "m2_moment", "m2_commutator", "mn_moment",
    "mn_gapped_lower", "holevo", "gamma_H", "HolevoBound", "holevo_bound",
    # protocols
    "MeterConfig", "ProtocolEstimate", "ProtocolInstance", "JointDistribution",
    "projective_joint", "projective_mc", "symmetrized_correlator",
    "weak_two_meter", "lgi_from_protocol", "macrorealist_oracle",
]
