"""Squeezed-vacuum modeling and calibration for sub-threshold OPOs."""

from .calibration import (
    FitResult,
    InfeasibleCorrectionError,
    MeasuredLevels,
    dark_noise_correct,
    dark_noise_uncorrect,
    fit_joint,
    fit_theta,
)
from .config import ConfigError, ExperimentConfig
from .langevin import LangevinConfig, SpectrumPoint, simulate_output_spectrum
from .model import (
    DetectionChain,
    OpoCavity,
    PumpOperatingPoint,
    QuadratureVariances,
    cavity_decay_rate,
    detection_efficiency,
    detuning,
    escape_efficiency,
    forward_variances,
    from_db,
    gain_from_x,
    pump_parameter,
    to_db,
)
from .phase_noise import (
    PhaseNoiseModel,
    QuadratureConvergenceError,
    degrade_approx,
    degrade_exact,
    degrade_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DetectionChain",
    "ExperimentConfig",
    "FitResult",
    "InfeasibleCorrectionError",
    "LangevinConfig",
    "MeasuredLevels",
    "OpoCavity",
    "PhaseNoiseModel",
    "PumpOperatingPoint",
    "QuadratureConvergenceError",
    "QuadratureVariances",
    "SpectrumPoint",
    "cavity_decay_rate",
    "dark_noise_correct",
    "dark_noise_uncorrect",
    "degrade_approx",
    "degrade_exact",
    "degrade_quadrature",
    "detection_efficiency",
    "detuning",
    "escape_efficiency",
    "fit_joint",
    "fit_theta",
    "forward_variances",
    "from_db",
    "gain_from_x",
    "pump_parameter",
    "simulate_output_spectrum",
    "to_db",
]
