"""Forward model of squeezed-vacuum generation in a sub-threshold OPO.

The anti-squeezed (+) and squeezed (-) quadrature variances of the output
mode, normalized to the shot-noise level, are

    R_plus  = 1 + alpha * rho * 4 x / ((1 - x)^2 + 4 Omega^2)
    R_minus = 1 - alpha * rho * 4 x / ((1 + x)^2 + 4 Omega^2)

with detection efficiency alpha = zeta * eta * xi^2, escape efficiency
rho = T / (T + L), pump parameter x (0 = unpumped, 1 = oscillation
threshold), and detuning Omega = omega / gamma for cavity decay rate
gamma = c (T + L) / l.

All variances are kept linear (shot noise = 1.0); convert to dB only at
presentation boundaries via :func:`to_db` / :func:`from_db`.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value

# Pump amplitudes this close to threshold make R_plus diverge at resonance;
# reject instead of returning inf.
PUMP_X_MAX = 1.0 - 1e-9


def _check_efficiency(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def _check_pump_parameter(x: float) -> float:
    if not 0.0 <= x <= PUMP_X_MAX:
        raise ValueError(f"pump parameter x must be in [0, {PUMP_X_MAX}], got {x}")
    return x


def _check_detuning(detuning: float) -> float:
    # A finite 4 Omega^2 keeps both denominators of the forward model finite,
    # so R+- is never inf/inf.
    if not (detuning >= 0.0 and 4.0 * detuning * detuning < math.inf):
        raise ValueError(f"detuning must be >= 0 with 4 detuning^2 finite, got {detuning}")
    return detuning


def to_db(linear: float) -> float:
    """Convert a linear power ratio to dB relative to shot noise."""
    if not linear > 0.0:
        raise ValueError(f"linear power ratio must be > 0, got {linear}")
    return 10.0 * math.log10(linear)


def from_db(level_db: float) -> float:
    """Convert a dB level back to a linear power ratio."""
    try:
        return 10.0 ** (level_db / 10.0)
    except OverflowError as err:
        raise ValueError(f"level {level_db} dB has no finite linear power ratio") from err


class InfeasibleCorrectionError(ValueError):
    """Measured power at or below the dark-noise floor: no optical level
    can be inferred from it.  Defined here so the CLI can catch it without
    loading :mod:`sqzopo.calibration`, which raises it."""


class Record:
    """Immutable value object.  A subclass's ``__init__`` names its fields in
    its signature and first calls ``self._store(locals())``, then checks them.
    Records compare, hash and print by field name (no ``__dict__``).

    Records are plain classes, not dataclasses, so that no call imports
    :mod:`dataclasses`; ``replace``, ``fields`` and ``asdict`` do not apply.
    A changed copy is ``type(r)(**{**vars(r), "field": value})``."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _store(self, values: dict) -> None:
        # One field at a time, in signature order, so that all instances of
        # a class share its key table.
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._fields
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class OpoCavity(Record):
    """OPO cavity: output-coupler transmission T, intracavity loss L, and
    round-trip length in meters."""

    def __init__(self, T: float, L: float, round_trip_length: float) -> None:
        self._store(locals())
        if not 0.0 < T < 1.0:
            raise ValueError(f"T must be in (0, 1), got {T}")
        if not 0.0 <= L < 1.0:
            raise ValueError(f"L must be in [0, 1), got {L}")
        if T + L >= 1.0:
            raise ValueError(f"T + L must be < 1, got {T + L}")
        if not round_trip_length > 0.0:
            raise ValueError(f"round_trip_length must be > 0 m, got {round_trip_length}")
        gamma = cavity_decay_rate(self)
        if not 0.0 < gamma < math.inf:
            raise ValueError(
                f"decay rate c (T + L) / l must be finite and > 0 rad/s, got {gamma}"
            )


class DetectionChain(Record):
    """Homodyne detection chain: propagation efficiency zeta, photodiode
    quantum efficiency eta and fringe visibility xi (enters as xi^2).  Dark
    noise is no loss: ``dark_noise_correct`` removes it from a reading."""

    def __init__(self, zeta: float, eta: float, xi: float) -> None:
        self._store(locals())
        for name, v in (("zeta", zeta), ("eta", eta), ("xi", xi)):
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")


class PumpOperatingPoint(Record):
    """How hard the OPO is pumped: the pump parameter x in [0, PUMP_X_MAX],
    built from one of three equivalent readings -- x itself (the constructor),
    the classical parametric amplification gain G = 1/(1-x)^2, or a pump
    power with its oscillation threshold (x = sqrt(P/P_th)).

    Only the physical inversion branch x = 1 - 1/sqrt(G) is accepted for
    gains, and operation must stay below threshold for powers.
    """

    def __init__(self, x: float) -> None:
        self._store(locals())
        _check_pump_parameter(x)

    @classmethod
    def from_gain(cls, gain: float) -> PumpOperatingPoint:
        if not 1.0 <= gain < math.inf:
            raise ValueError(
                f"classical gain must be finite and >= 1, got {gain}; supply the "
                "amplification gain (deamplification readings are not accepted)"
            )
        x = 1.0 - 1.0 / math.sqrt(gain)
        if x > PUMP_X_MAX:  # reported as the gain given, not the x it rounds to
            raise ValueError(f"classical gain {gain} puts x = 1 - 1/sqrt(G) above {PUMP_X_MAX}")
        return cls(x)

    @classmethod
    def from_power(cls, power: float, threshold: float) -> PumpOperatingPoint:
        """Power and threshold in mW, as a config gives them; x reads only their ratio."""
        if not 0.0 < threshold < math.inf:
            raise ValueError(f"threshold power must be finite and > 0 mW, got {threshold}")
        if not power >= 0.0:
            raise ValueError(f"pump power must be >= 0 mW, got {power}")
        if power >= threshold:
            raise ValueError(f"pump power {power} mW is at or above threshold {threshold} mW")
        return cls(math.sqrt(power / threshold))


class QuadratureVariances(Record):
    """Linear shot-noise-normalized variance pair (anti-squeezed, squeezed).

    The forward model produces r_plus >= 1 >= r_minus > 0; phase-noise
    mixing of a pair can legitimately swap the ordering, so only finite
    positive values are enforced here.
    """

    def __init__(self, r_plus: float, r_minus: float) -> None:
        self._store(locals())
        if not (0.0 < r_plus < math.inf and 0.0 < r_minus < math.inf):
            raise ValueError(f"variances must be finite and > 0, got ({r_plus}, {r_minus})")

    @property
    def r_plus_db(self) -> float:
        return to_db(self.r_plus)

    @property
    def r_minus_db(self) -> float:
        return to_db(self.r_minus)


def escape_efficiency(cavity: OpoCavity) -> float:
    """Fraction of intracavity photons leaving through the output coupler,
    T / (T + L)."""
    return cavity.T / (cavity.T + cavity.L)


def detection_efficiency(chain: DetectionChain) -> float:
    """Overall homodyne detection efficiency zeta * eta * xi^2."""
    return chain.zeta * chain.eta * chain.xi**2


def cavity_decay_rate(cavity: OpoCavity) -> float:
    """Cavity decay rate gamma = c (T + L) / l in rad/s."""
    return SPEED_OF_LIGHT * (cavity.T + cavity.L) / cavity.round_trip_length


def detuning(omega: float, cavity: OpoCavity) -> float:
    """Sideband frequency omega (rad/s) normalized to the cavity decay rate."""
    if not omega >= 0.0:
        raise ValueError(f"sideband frequency must be >= 0, got {omega}")
    return omega / cavity_decay_rate(cavity)


def pump_parameter(op: PumpOperatingPoint) -> float:
    """Normalized pump parameter x in [0, PUMP_X_MAX] of an operating point."""
    return op.x


def gain_from_x(x: float) -> float:
    """Classical parametric amplification gain G = 1/(1-x)^2."""
    return 1.0 / (1.0 - _check_pump_parameter(x)) ** 2


def forward_variances(
    alpha: float, rho: float, x: float, detuning: float
) -> QuadratureVariances:
    """Output-mode quadrature variances at detection efficiency alpha,
    escape efficiency rho, pump parameter x, and detuning Omega.

    The anti-squeezed (+) variance carries (1 - x)^2 in its denominator,
    so it diverges at threshold on resonance.  Each input is checked by itself,
    in signature order, on its way to :func:`_variances`, which runs unchecked.
    """
    alpha, rho = _check_efficiency("alpha", alpha), _check_efficiency("rho", rho)
    x, detuning = _check_pump_parameter(x), _check_detuning(detuning)
    return QuadratureVariances(*_variances(alpha, rho, x, detuning))


def _variances(alpha: float, rho: float, x: float, detuning: float) -> tuple[float, float]:
    four_om2 = 4.0 * detuning * detuning
    plus_den = (1.0 - x) ** 2 + four_om2
    minus_den = (1.0 + x) ** 2 + four_om2
    # Cancellation-free numerators: 1 -+ alpha rho 4x / denominator written
    # as a ratio of sums of non-negative terms, so the minimum-uncertainty
    # product R+ R- stays exact to machine precision arbitrarily close to
    # threshold.
    r_plus = (plus_den + 4.0 * alpha * rho * x) / plus_den
    r_minus = (plus_den + 4.0 * x * (1.0 - alpha * rho)) / minus_den
    return r_plus, r_minus
