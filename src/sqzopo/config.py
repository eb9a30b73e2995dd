"""JSON experiment description: parsing, validation and serialization.

Boundary units follow lab convention -- angles in degrees, powers in mW,
dark-noise clearance in dB -- and are converted to radians / watts / linear
ratios when domain objects are built.  A config is checked by deriving it
when built.  Serialization reproduces the parsed tree field-for-field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .model import (
    DetectionChain,
    InfeasibleCorrectionError,
    OpoCavity,
    PumpOperatingPoint,
    Record,
    cavity_decay_rate,
    detection_efficiency,
    detuning,
    escape_efficiency,
    forward_variances,
    from_db,
    gain_from_x,
)
from .phase_noise import PhaseNoiseModel


class ConfigError(ValueError):
    """Invalid experiment configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


PUMP_MODES = ("gain", "x", "power")

# The JSON schema, declared once: each ExperimentConfig attribute and the
# (section, key) it is read from and written to, in the order fields are
# checked and serialized.  The attributes in _OPTIONAL default to None.
_FIELDS = {
    "cavity_T": ("cavity", "T"),
    "cavity_L": ("cavity", "L"),
    "round_trip_m": ("cavity", "round_trip_m"),
    "zeta": ("detection", "zeta"),
    "eta": ("detection", "eta"),
    "xi": ("detection", "xi"),
    "dark_clearance_db": ("detection", "dark_clearance_db"),
    "pump_mode": ("pump", "mode"),
    "pump_value": ("pump", "value"),
    "threshold_mW": ("pump", "threshold_mW"),
    "theta_rms_deg": ("noise", "theta_rms_deg"),
    "frequency_hz": ("measurement", "frequency_hz"),
}
_OPTIONAL = ("dark_clearance_db", "threshold_mW")
_SECTION_KEYS = {
    name: {key for section, key in _FIELDS.values() if section == name}
    for name, _ in _FIELDS.values()
}


def _require(section: dict, section_name: str, key: str) -> object:
    if key not in section:
        raise ConfigError(f"{section_name}.{key}", "missing required field")
    return section[key]


def _read_json(path: str | Path) -> object:
    """Parse a JSON file; a file that cannot be decoded or parsed is named."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as err:  # bad syntax or bytes, or nesting too deep
        raise ConfigError(str(path), f"not valid JSON: {err}") from err


def _named(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError it raises reported
    against the input field ``path``; a ConfigError already names its own
    field, and an InfeasibleCorrectionError keeps its own exit code."""
    try:
        return build(*args, **kwargs)
    except (ConfigError, InfeasibleCorrectionError):
        raise
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


def _number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


class ExperimentConfig(Record):
    """One OPO + homodyne operating point, stored in boundary units."""

    def __init__(
        self, cavity_T: float, cavity_L: float, round_trip_m: float, zeta: float, eta: float,
        xi: float, pump_mode: str, pump_value: float, theta_rms_deg: float, frequency_hz: float,
        dark_clearance_db: float | None = None, threshold_mW: float | None = None,
    ) -> None:
        self._store(locals())
        if pump_mode not in PUMP_MODES:
            raise ConfigError("pump.mode", f"must be one of {PUMP_MODES}, got {pump_mode!r}")
        self.derived()
        _named("noise.theta_rms_deg", self.phase_noise)

    @classmethod
    def from_dict(cls, data: dict) -> ExperimentConfig:
        if not isinstance(data, dict):
            raise ConfigError("<root>", "configuration must be a JSON object")
        for name in data:
            if name not in _SECTION_KEYS:
                raise ConfigError(name, "unknown section")
        for name, keys in _SECTION_KEYS.items():
            if name not in data:
                raise ConfigError(name, "missing required section")
            if not isinstance(data[name], dict):
                raise ConfigError(name, "section must be a JSON object")
            for key in data[name]:
                if key not in keys:
                    raise ConfigError(f"{name}.{key}", "unknown field")

        _require(data["pump"], "pump", "mode")

        values: dict[str, object] = {}
        for attr, (name, key) in _FIELDS.items():
            value = data[name].get(key)
            if attr == "pump_mode" or (value is None and attr in _OPTIONAL):
                values[attr] = value  # the mode, checked when built, or an absent optional field
            else:
                values[attr] = _number(_require(data[name], name, key), f"{name}.{key}")
        return cls(**values)

    @classmethod
    def from_file(cls, path: str | Path) -> ExperimentConfig:
        return cls.from_dict(_read_json(path))

    def to_dict(self) -> dict:
        """Inverse of :meth:`from_dict`; optional fields are emitted only
        when present."""
        tree: dict[str, dict[str, object]] = {}
        for attr, (section, key) in _FIELDS.items():
            value = getattr(self, attr)
            if value is not None:
                tree.setdefault(section, {})[key] = value
        return tree

    # -- domain objects -------------------------------------------------

    def opo_cavity(self) -> OpoCavity:
        return OpoCavity(
            T=self.cavity_T, L=self.cavity_L, round_trip_length=self.round_trip_m
        )

    def detection_chain(self) -> DetectionChain:
        clearance = (
            None if self.dark_clearance_db is None else from_db(self.dark_clearance_db)
        )
        return DetectionChain(
            zeta=self.zeta, eta=self.eta, xi=self.xi, dark_clearance=clearance
        )

    def pump_operating_point(self) -> PumpOperatingPoint:
        """The pump reading, converted by the constructor its mode names."""
        if self.pump_mode == "gain":
            return PumpOperatingPoint.from_gain(self.pump_value)
        if self.pump_mode == "x":
            return PumpOperatingPoint(self.pump_value)
        if self.threshold_mW is None:
            raise ConfigError("pump.threshold_mW", "required when pump.mode is 'power'")
        return PumpOperatingPoint.from_power(
            self.pump_value * 1e-3, self.threshold_mW * 1e-3
        )

    def phase_noise(self) -> PhaseNoiseModel:
        return PhaseNoiseModel.from_degrees(self.theta_rms_deg)

    def omega(self) -> float:
        """Measurement sideband frequency in rad/s."""
        return 2.0 * math.pi * self.frequency_hz

    def derived(self) -> dict[str, float]:
        """All scalar quantities the forward model needs, plus the predicted
        variances, as one flat mapping; a violation names its config field."""
        cavity = _named("cavity", self.opo_cavity)
        alpha = detection_efficiency(_named("detection", self.detection_chain))
        rho = escape_efficiency(cavity)
        x = _named("pump.value", self.pump_operating_point).x
        if not self.frequency_hz >= 0:  # NaN too
            raise ConfigError("measurement.frequency_hz", "must be >= 0")
        omega_ratio = detuning(self.omega(), cavity)
        variances = _named(
            "measurement.frequency_hz", forward_variances, alpha, rho, x, omega_ratio
        )
        return {
            "alpha": alpha,
            "rho": rho,
            "gamma_rad_s": cavity_decay_rate(cavity),
            "x": x,
            "gain": gain_from_x(x),
            "detuning": omega_ratio,
            "r_plus": variances.r_plus,
            "r_minus": variances.r_minus,
            "r_plus_db": variances.r_plus_db,
            "r_minus_db": variances.r_minus_db,
        }
