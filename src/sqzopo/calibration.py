"""Inverse problems: detector dark-noise correction of measured dB levels
and recovery of phase jitter (and optionally pump parameter) from a
measured squeezing / anti-squeezing pair.

Jitter mixes the quadratures linearly and conserves R_+ + R_-, so both
fits invert the model in closed form.  Residuals are always formed in dB
so the squeezed (~0.15 linear) and anti-squeezed (~20 linear) readings
carry comparable weight.
"""

from __future__ import annotations

import math

from .model import (
    PUMP_X_MAX, QuadratureVariances, Record, forward_variances, from_db, gain_from_x, to_db
)
from .phase_noise import PhaseNoiseModel, degrade_approx, degrade_exact

THETA_MAX = math.pi / 4

# A fixed step count shrinks a unit bracket below one float spacing:
# 0.618^80 for golden-section search.
_GOLDEN_STEPS = 80
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class InfeasibleCorrectionError(ValueError):
    """Measured power at or below the dark-noise floor: no optical level
    can be inferred from it."""


class MeasuredLevels(Record):
    """A measured squeezing / anti-squeezing pair in dB relative to shot
    noise.  The anti-squeezing level may be left out (None) for the
    jitter-only fit, which does not read it."""

    def __init__(self, squeezing_db: float, anti_squeezing_db: float | None = None) -> None:
        self.__dict__.update(squeezing_db=squeezing_db, anti_squeezing_db=anti_squeezing_db)
        # Chained comparisons are False for NaN, so they also reject it.
        if not -math.inf < squeezing_db < 0.0:
            raise ValueError(
                f"squeezing level must be finite and below shot noise, got {squeezing_db} dB"
            )
        # Below about -3233 dB the linear ratio underflows to 0, and the fits'
        # squared dB residuals overflow.
        if from_db(squeezing_db) == 0.0:
            raise ValueError(
                f"squeezing level {squeezing_db} dB has no positive linear power ratio"
            )
        if anti_squeezing_db is not None and not 0.0 < anti_squeezing_db < math.inf:
            raise ValueError(
                f"anti-squeezing level must be finite and above shot noise, got "
                f"{anti_squeezing_db} dB"
            )


class FitResult(Record):
    """Fitted phase jitter (radians), optional pump parameter, the final
    sum of squared dB residuals, and the solver effort (golden-section
    steps of the edge search; 0 for a pure closed form)."""

    def __init__(
        self, theta_rms: float, residual: float, iterations: int, status: str = "ok",
        x: float | None = None,
    ) -> None:
        self.__dict__.update(
            theta_rms=theta_rms, residual=residual, iterations=iterations, status=status, x=x
        )
        if residual < 0.0:
            raise ValueError(f"residual must be >= 0, got {residual}")
        if not 0.0 <= theta_rms <= THETA_MAX:
            raise ValueError(f"theta_rms {theta_rms} outside [0, pi/4]")
        if x is not None and not 0.0 <= x < 1.0:
            raise ValueError(f"x {x} outside [0, 1)")

    @property
    def theta_rms_deg(self) -> float:
        return math.degrees(self.theta_rms)

    @property
    def gain(self) -> float | None:
        return None if self.x is None else gain_from_x(self.x)


def _check_reading(level_db: float, clearance: float) -> None:
    if not math.isfinite(level_db):
        raise ValueError(f"level must be a finite dB value, got {level_db}")
    if not 0.0 <= clearance < 1.0:
        raise ValueError(f"clearance must be in [0, 1), got {clearance}")


def dark_noise_correct(level_db: float, clearance: float) -> float:
    """Remove the detector circuit noise from a measured level.

    Both the measured trace and the shot-noise reference contain the same
    dark-noise power, so the inferred optical level is
    (measured - clearance) / (1 - clearance) in linear units.
    """
    _check_reading(level_db, clearance)
    if clearance == 0.0:
        return level_db
    lin = from_db(level_db)
    if lin <= clearance:
        raise InfeasibleCorrectionError(
            f"measured power {lin:.4g} is at or below the dark-noise "
            f"clearance {clearance:.4g}; reading is unphysical"
        )
    return to_db((lin - clearance) / (1.0 - clearance))


def dark_noise_uncorrect(level_db: float, clearance: float) -> float:
    """Exact inverse of :func:`dark_noise_correct`: re-add the dark noise
    to a corrected level to forward-simulate a raw reading."""
    _check_reading(level_db, clearance)
    if clearance == 0.0:
        return level_db
    return to_db(from_db(level_db) * (1.0 - clearance) + clearance)


def _below_floor(target_minus: float, R: QuadratureVariances) -> bool:
    # Tolerate one dB<->linear roundtrip of rounding before declaring a
    # measurement unexplainable by any jitter.
    return target_minus < R.r_minus * (1.0 - 1e-12)


def _jitter_mix(R: QuadratureVariances, target_minus: float) -> float:
    """lam of the mix R'_- = (R_+ + R_-)/2 - lam (R_+ - R_-)/2 giving
    ``target_minus``: exp(-2 theta_rms^2), or cos(2 theta_rms) if approx."""
    spread = R.r_plus - R.r_minus
    # No jitter changes an unsqueezed pair, so it needs none.
    return (R.r_plus + R.r_minus - 2.0 * target_minus) / spread if spread > 0.0 else 1.0


def _theta_from_mix(lam: float, use_approx: bool) -> float | None:
    """Jitter width with mix factor ``lam``; None if that exceeds pi/4."""
    if lam >= 1.0:
        return 0.0
    if use_approx:
        theta = 0.5 * math.acos(max(lam, -1.0))
    else:
        theta = math.sqrt(-0.5 * math.log(lam)) if lam > 0.0 else math.inf
    return theta if theta <= THETA_MAX else None


def _golden_min(f, lo: float, hi: float) -> tuple[float, float]:
    """Minimize ``f`` on [lo, hi] by golden-section search; the endpoints
    are candidates too.  Returns (minimum, argmin)."""
    a, b = lo, hi
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return min((fc, c), (fd, d), (f(lo), lo), (f(hi), hi))


def fit_theta(
    measured: MeasuredLevels,
    predicted: QuadratureVariances,
    *,
    use_approx: bool = False,
) -> FitResult:
    """Recover the rms phase jitter explaining a measured squeezing level.

    Inverts the jitter mix of the squeezed quadrature in closed form (the
    anti-squeezed one is nearly insensitive to jitter); a level needing
    more than pi/4 of jitter is clamped to pi/4.

    A measured level below the jitter-free floor ``predicted.r_minus``
    cannot be explained by any jitter; the result is then flagged
    ``status="infeasible"`` with the boundary value theta_rms = 0.
    """
    degrade = degrade_approx if use_approx else degrade_exact
    target = from_db(measured.squeezing_db)
    if _below_floor(target, predicted):
        theta, status = 0.0, "infeasible"
    else:
        theta, status = _theta_from_mix(_jitter_mix(predicted, target), use_approx), "ok"
        theta = THETA_MAX if theta is None else theta
    degraded = degrade(predicted, PhaseNoiseModel(theta))
    residual = (degraded.r_minus_db - measured.squeezing_db) ** 2
    return FitResult(theta_rms=theta, residual=residual, iterations=0, status=status)


def fit_joint(
    measured: MeasuredLevels,
    alpha: float,
    rho: float,
    detuning: float,
    *,
    use_approx: bool = False,
) -> FitResult:
    """Jointly recover (x, theta_rms) from a squeezing / anti-squeezing pair.

    Jitter conserves R_+ + R_- = 2 + c, so u = x^2 is the smaller root of
    c u^2 + (2c (k - 2) - 16 alpha rho) u + c k^2, k = 1 + 4 Omega^2 (the
    roots multiply to k^2 >= 1); theta_rms then follows as in :func:`fit_theta`.

    When no point of [0, PUMP_X_MAX] x [0, pi/4] reproduces the pair, the
    dB least-squares optimum lies on an edge of that box (x = 0 is a point
    of the theta_rms = 0 edge); the best of a golden-section search along
    each remaining edge is returned.  Deterministic for fixed inputs.
    """
    if measured.anti_squeezing_db is None:
        raise ValueError("the joint fit needs an anti-squeezing level")
    degrade = degrade_approx if use_approx else degrade_exact
    sq_db, asq_db = measured.squeezing_db, measured.anti_squeezing_db
    target_minus = from_db(sq_db)

    def resid(x: float, theta: float) -> float:
        degraded = degrade(forward_variances(alpha, rho, x, detuning), PhaseNoiseModel(theta))
        return (degraded.r_minus_db - sq_db) ** 2 + (degraded.r_plus_db - asq_db) ** 2

    c = target_minus + from_db(asq_db) - 2.0
    k = 1.0 + 4.0 * detuning * detuning
    b = 2.0 * c * (k - 2.0) - 16.0 * alpha * rho
    # b^2 - 4 c^2 k^2, factored so that it does not cancel; > 0 implies b < 0.
    disc = 64.0 * (c + 4.0 * alpha * rho) * (alpha * rho - c * detuning * detuning)
    if c >= 0.0 and disc > 0.0:
        x = math.sqrt(2.0 * c * k * k / (math.sqrt(disc) - b))
        if x <= PUMP_X_MAX:
            R = forward_variances(alpha, rho, x, detuning)
            theta = _theta_from_mix(_jitter_mix(R, target_minus), use_approx)
            if theta is not None and not _below_floor(target_minus, R):
                return FitResult(theta_rms=theta, residual=resid(x, theta), iterations=0, x=x)

    r0, x0 = _golden_min(lambda x: resid(x, 0.0), 0.0, PUMP_X_MAX)
    r1, x1 = _golden_min(lambda x: resid(x, THETA_MAX), 0.0, PUMP_X_MAX)
    r2, t2 = _golden_min(lambda t: resid(PUMP_X_MAX, t), 0.0, THETA_MAX)
    r, x, theta = min((r0, x0, 0.0), (r1, x1, THETA_MAX), (r2, PUMP_X_MAX, t2))
    return FitResult(theta_rms=theta, residual=r, iterations=3 * _GOLDEN_STEPS, x=x)
