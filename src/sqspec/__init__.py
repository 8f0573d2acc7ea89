"""sqspec: curvature power spectrum of the dissipative squeezed vacuum.

Library modules:

    background       quasi-de Sitter background and chain coefficients
    krylov           chain recurrence polynomials, squeezed-vacuum
                     amplitude series
    squeeze_dynamics evolution of the squeeze parameters (r_k, phi_k)
    bogoliubov       (alpha_k, beta_k), mode functions, occupation
    spectrum         gamma_z ratio, anchored power spectrum, tilt fit
    config           sweep configuration, k grid, BD power law (stdlib only)
    pipeline         orchestration, artifact emission, the oracle suite

`import sqspec` loads no submodule: each public name is imported from its
submodule when first read, so resolving a configuration loads config alone.

The `sqspec` CLI exposes the sweep, the oracle suite and config inspection.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports, imported when it or a name is first read;
# __all__ is these names and __version__
_EXPORTS = {
    "background": ("CouplingCoefficients", "LanczosChain", "couplings", "lanczos_chain"),
    "krylov": (
        "OtmssAmplitudes", "AmplitudeDivergenceError", "meixner_poly",
        "characteristic_poly_residual", "otmss_amplitudes", "tmss_amplitudes",
    ),
    "squeeze_dynamics": (
        "SqueezeState", "Trajectory", "ModeResult", "StepSizeUnderflowError", "StepBudgetError",
        "rhs", "integrate", "evolve_grid",
    ),
    "bogoliubov": ("BogoliubovPair", "bd_mode", "coefficients", "mode_function", "occupation"),
    "spectrum": ("SpectrumRecord", "gamma_ratio", "fit_tilt"),
    "config": (
        "SweepConfig", "ConfigError", "load_config", "parse_config", "serialize",
        "bd_reference_power", "make_k_grid",
    ),
    "pipeline": ("RunReport", "run_sweep", "write_outputs", "verify"),
    "_integrators": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # PEP 562: called only for names not yet in the package namespace
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
