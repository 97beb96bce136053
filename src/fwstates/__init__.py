"""Fox-Wright functions, their bicomplex extension, and coherent states.

Evaluation of the series and its convergence geometry (complex and
bicomplex, with the nine-case domain classifier), coherent-state
construction for discrete and continuous spectra, and the Mellin-Barnes
measure kernels behind the resolution of unity.
"""

from .bicomplex import (
    E1,
    E2,
    ONE,
    ZERO,
    Bicomplex,
    Hyperbolic,
    compose_idempotent,
    decompose,
    leq_h,
    lt_h,
    pow_real,
)
from .coherent import (
    BCCoherentModel,
    BCStateVector,
    CoherentModel,
    StateVector,
    annihilation_residual,
    f_b,
    f_factor,
    ladder_elements,
    log_rho,
    log_rho_b,
    make_state,
    make_state_b,
    normalization,
    normalization_at,
    normalization_b,
    overlap,
    overlap_b,
    photon_distribution,
    rho,
    rho_b,
)
from .continuum import (
    DEFAULT_QUAD,
    SCHEMES,
    QuadConfig,
    log_rho_tilde,
    nu,
    nu_bicomplex,
    nu_with_error,
    overlap_tilde,
    rho_tilde,
    state_density,
)
from .errors import (
    ContourFailure,
    DomainError,
    DomainViolation,
    FWError,
    MaxTermsExceeded,
    PoleError,
    QuadratureFailure,
    SingularElement,
    TruncationError,
    ValidationError,
)
from .foxwright import (
    EvalResult,
    FWParams,
    as_pfq,
    boundary_exponent,
    evaluate,
    margin,
    oracle_bessel_j,
    oracle_pfq,
    radius,
)
from .foxwright_bc import (
    BCFWParams,
    ConvergenceReport,
    Domain,
    GridSpec,
    classify,
    contains_abs,
    region_sample,
)
from .foxwright_bc import evaluate as evaluate_bc
from .gammafn import (
    gamma,
    gamma_bicomplex,
    is_gamma_pole,
    log_gamma,
    log_gamma_ratio,
    log_gamma_vec,
    pochhammer,
)
from .hfunction import (
    DEFAULT_CONTOUR,
    ContourConfig,
    HWeightParams,
    MomentResult,
    eval_h,
    measure_density,
    measure_density_b,
    moment_check,
    weight,
)
from .schemas import BC_PARAMS_SCHEMA, FW_PARAMS_SCHEMA, load_bc_params, load_fw_params

__version__ = "0.1.0"
