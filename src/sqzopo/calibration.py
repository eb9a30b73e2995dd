"""Inverse problems: detector dark-noise correction of measured dB levels
and recovery of phase jitter (and optionally pump parameter) from a
measured squeezing / anti-squeezing pair.

Jitter mixes the quadratures linearly and conserves R_+ + R_-, so both
fits invert the model in closed form.  Residuals are always formed in dB
so the squeezed (~0.15 linear) and anti-squeezed (~20 linear) readings
carry comparable weight.  Each input is checked once, as it enters; the
fits then run unchecked on the float forms of model and phase_noise.
"""

from __future__ import annotations

import math

from .model import (
    PUMP_X_MAX, InfeasibleCorrectionError, QuadratureVariances, Record, _check_inputs,
    _check_pump_parameter, _variances, from_db, gain_from_x, to_db,
)
from .phase_noise import THETA_MAX, _jitter_for, _lam, _mixed

# A fixed step count shrinks a unit bracket below one float spacing:
# 0.618^80 for golden-section search.
_GOLDEN_STEPS = 80
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class MeasuredLevels(Record):
    """A measured squeezing / anti-squeezing pair in dB relative to shot
    noise.  The anti-squeezing level may be left out (None) for the
    jitter-only fit, which does not read it."""

    def __init__(self, squeezing_db: float, anti_squeezing_db: float | None = None) -> None:
        self._store(locals())
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
        self._store(locals())
        if not residual >= 0.0:
            raise ValueError(f"residual must be >= 0, got {residual}")
        if not 0.0 <= theta_rms <= THETA_MAX:
            raise ValueError(f"theta_rms {theta_rms} outside [0, pi/4]")
        if x is not None:
            _check_pump_parameter(x)

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


def _below_floor(target_minus: float, r_minus: float) -> bool:
    # Tolerate one dB<->linear roundtrip of rounding before declaring a
    # measurement unexplainable by any jitter.
    return target_minus < r_minus * (1.0 - 1e-12)


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
    Both records were checked when built; the float forms run unchecked.
    """
    r_plus, r_minus = predicted.r_plus, predicted.r_minus
    target = from_db(measured.squeezing_db)
    if _below_floor(target, r_minus):
        theta, status = 0.0, "infeasible"
    else:
        theta, status = _jitter_for(r_plus, r_minus, target, use_approx), "ok"
        theta = THETA_MAX if theta is None else theta
    degraded_minus = _mixed(r_plus, r_minus, _lam(theta, use_approx))[1]
    residual = (10.0 * math.log10(degraded_minus) - measured.squeezing_db) ** 2
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
    each remaining edge is returned.  That optimum is the fit, so its status
    stays ``"ok"``.  Deterministic for fixed inputs.
    alpha, rho and detuning are checked once; both branches then run
    unchecked on the float forms, which stay positive for x <= PUMP_X_MAX.
    """
    if measured.anti_squeezing_db is None:
        raise ValueError("the joint fit needs an anti-squeezing level")
    sq_db, asq_db = measured.squeezing_db, measured.anti_squeezing_db
    target_minus = from_db(sq_db)
    c = target_minus + from_db(asq_db) - 2.0
    _check_inputs(alpha, rho, 0.0, detuning)  # checks alpha, rho and detuning, once

    def resid(x: float, lam: float) -> float:
        r_plus, r_minus = _mixed(*_variances(alpha, rho, x, detuning), lam)
        return (10.0 * math.log10(r_minus) - sq_db) ** 2 + (10.0 * math.log10(r_plus) - asq_db) ** 2

    k = 1.0 + 4.0 * detuning * detuning
    b = 2.0 * c * (k - 2.0) - 16.0 * alpha * rho
    # b^2 - 4 c^2 k^2, factored so that it does not cancel; > 0 implies b < 0.
    disc = 64.0 * (c + 4.0 * alpha * rho) * (alpha * rho - c * detuning * detuning)
    if c >= 0.0 and disc > 0.0:
        x = math.sqrt(2.0 * c * k * k / (math.sqrt(disc) - b))
        if x <= PUMP_X_MAX:
            r_plus, r_minus = _variances(alpha, rho, x, detuning)
            theta = _jitter_for(r_plus, r_minus, target_minus, use_approx)
            if theta is not None and not _below_floor(target_minus, r_minus):
                residual = resid(x, _lam(theta, use_approx))
                return FitResult(theta_rms=theta, residual=residual, iterations=0, x=x)

    r0, x0 = _golden_min(lambda x: resid(x, 1.0), 0.0, PUMP_X_MAX)  # theta_rms = 0
    lam_max = _lam(THETA_MAX, use_approx)
    r1, x1 = _golden_min(lambda x: resid(x, lam_max), 0.0, PUMP_X_MAX)
    r2, t2 = _golden_min(lambda t: resid(PUMP_X_MAX, _lam(t, use_approx)), 0.0, THETA_MAX)
    r, x, theta = min((r0, x0, 0.0), (r1, x1, THETA_MAX), (r2, PUMP_X_MAX, t2))
    return FitResult(theta_rms=theta, residual=r, iterations=3 * _GOLDEN_STEPS, x=x)
