"""sqspec: curvature power spectrum of the dissipative squeezed vacuum.

Library modules:

    background       quasi-de Sitter background and chain coefficients
    krylov           chain recurrence polynomials, squeezed-vacuum
                     amplitude series
    squeeze_dynamics evolution of the squeeze parameters (r_k, phi_k)
    bogoliubov       (alpha_k, beta_k), mode functions, occupation
    spectrum         gamma_z ratio, anchored power spectrum, tilt fit
    config/pipeline  sweep configuration, orchestration, artifact emission

The `sqspec` CLI exposes the sweep, the oracle suite and config inspection.
"""

__version__ = "0.1.0"

from .background import (
    CouplingCoefficients,
    LanczosChain,
    couplings,
    lanczos_chain,
    z_rate,
)
from .bogoliubov import (
    BogoliubovPair,
    bd_mode,
    coefficients,
    mode_function,
    occupation,
)
from .config import ConfigError, SweepConfig, load_config, parse_config, serialize
from .krylov import (
    AmplitudeDivergenceError,
    OtmssAmplitudes,
    characteristic_poly_residual,
    meixner_poly,
    otmss_amplitudes,
    tmss_amplitudes,
)
from .pipeline import RunReport, make_k_grid, run_sweep, verify, write_outputs
from .spectrum import (
    SpectrumRecord,
    bd_reference_power,
    fit_tilt,
    gamma_ratio,
)
from .squeeze_dynamics import (
    CappedGrowthWarning,
    ModeResult,
    SqueezeState,
    StepBudgetError,
    StepSizeUnderflowError,
    Trajectory,
    evolve_grid,
    integrate,
    rhs_closed_reference,
    rhs_conformal,
)

__all__ = [
    "__version__",
    "CouplingCoefficients", "LanczosChain",
    "couplings", "lanczos_chain", "z_rate",
    "OtmssAmplitudes", "AmplitudeDivergenceError",
    "meixner_poly", "characteristic_poly_residual",
    "otmss_amplitudes", "tmss_amplitudes",
    "SqueezeState", "Trajectory", "ModeResult",
    "CappedGrowthWarning", "StepSizeUnderflowError", "StepBudgetError",
    "rhs_conformal", "rhs_closed_reference",
    "integrate", "evolve_grid",
    "BogoliubovPair", "bd_mode", "coefficients",
    "mode_function", "occupation",
    "SpectrumRecord", "gamma_ratio", "bd_reference_power", "fit_tilt",
    "SweepConfig", "ConfigError", "load_config", "parse_config", "serialize",
    "RunReport", "make_k_grid", "run_sweep", "write_outputs", "verify",
]
