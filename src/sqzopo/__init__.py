"""Squeezed-vacuum modeling and calibration for sub-threshold OPOs.

Names load on first use (PEP 562): ``import sqzopo`` imports no submodule,
and the first access to an exported name, or to a submodule, imports the
module that defines it.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, declared once under the module that defines it.
_EXPORTS = {
    "calibration": (
        "FitResult", "MeasuredLevels", "dark_noise_correct", "dark_noise_uncorrect", "fit_joint",
        "fit_theta",
    ),
    "config": ("ConfigError", "ExperimentConfig"),
    "langevin": ("LangevinConfig", "SpectrumPoint", "simulate_output_spectrum"),
    "model": (
        "DetectionChain", "InfeasibleCorrectionError", "OpoCavity", "PumpOperatingPoint",
        "QuadratureVariances", "cavity_decay_rate", "detection_efficiency", "detuning",
        "escape_efficiency", "forward_variances", "from_db", "gain_from_x", "pump_parameter",
        "to_db",
    ),
    "phase_noise": (
        "PhaseNoiseModel", "QuadratureConvergenceError", "degrade_approx", "degrade_exact",
        "degrade_quadrature",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "dataset"}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name in _HOME:
        value = globals()[name] = getattr(value, name)
    return value
