"""Inverse problems: detector dark-noise correction of measured dB levels
and recovery of phase jitter (and optionally pump parameter) from a
measured squeezing / anti-squeezing pair.

Jitter mixes the quadratures linearly and conserves R_+ + R_-, so both
fits invert the model in closed form.  Residuals are always formed in dB
so the squeezed (~0.15 linear) and anti-squeezed (~20 linear) readings
carry comparable weight.  Each input is checked by itself as it enters;
the fits then run unchecked on the float forms of model and phase_noise.
"""

from __future__ import annotations

import math

from .model import (
    PUMP_X_MAX, InfeasibleCorrectionError, QuadratureVariances, Record, _check_detuning,
    _check_efficiency, _check_pump_parameter, _variances, from_db, gain_from_x, to_db,
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
    """Fitted phase jitter (radians), the final sum of squared dB residuals,
    the branch the fit took and a joint fit's pump parameter.  fit_theta ends
    ``exact``, ``clamped`` (pi/4) or ``infeasible``; fit_joint ends ``exact``
    or on the edge that won: ``edge_theta0``, ``edge_theta_max`` or ``edge_x_max``."""

    def __init__(
        self, theta_rms: float, residual: float, branch: str, x: float | None = None
    ) -> None:
        self._store(locals())
        if x is not None:
            _check_pump_parameter(x)

    @property
    def status(self) -> str:
        return "infeasible" if self.branch == "infeasible" else "ok"

    @property
    def iterations(self) -> int:  # golden-section steps of the edge search
        return 3 * _GOLDEN_STEPS if self.branch.startswith("edge_") else 0

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
    anti-squeezed one is nearly insensitive to jitter) and takes the branch
    from the inverse, :func:`~sqzopo.phase_noise._jitter_for`: a level
    needing more than pi/4 of jitter ends ``clamped`` at pi/4, and a level
    below the jitter-free floor ``predicted.r_minus``, which no jitter
    explains, ends ``infeasible`` at theta_rms = 0.
    Both records were checked when built; the float forms run unchecked.
    """
    r_plus, r_minus = predicted.r_plus, predicted.r_minus
    theta, branch = _jitter_for(r_plus, r_minus, from_db(measured.squeezing_db), use_approx)
    degraded_minus = _mixed(r_plus, r_minus, _lam(theta, use_approx))[1]
    residual = (10.0 * math.log10(degraded_minus) - measured.squeezing_db) ** 2
    return FitResult(theta_rms=theta, residual=residual, branch=branch)


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
    roots multiply to k^2 >= 1); theta_rms and the branch then follow from the
    inverse :func:`fit_theta` uses.  When that branch is not ``exact``, or no x in
    [0, PUMP_X_MAX] solves, no point of [0, PUMP_X_MAX] x [0, pi/4] reproduces
    the pair: the dB least-squares optimum lies on an edge of that box (x = 0 is
    a point of the theta_rms = 0 edge); the best of a golden-section search along
    each remaining edge is returned, the first listed on a tie.  That optimum is
    the fit, so its status stays ``"ok"``; its branch names the edge.
    alpha, rho and detuning are checked once, in forward_variances' order; the
    branches then run unchecked on the float forms, positive for x <= PUMP_X_MAX.
    """
    if measured.anti_squeezing_db is None:
        raise ValueError("the joint fit needs an anti-squeezing level")
    sq_db, asq_db = measured.squeezing_db, measured.anti_squeezing_db
    target_minus = from_db(sq_db)
    c = target_minus + from_db(asq_db) - 2.0
    alpha, rho = _check_efficiency("alpha", alpha), _check_efficiency("rho", rho)
    detuning = _check_detuning(detuning)

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
            theta, branch = _jitter_for(r_plus, r_minus, target_minus, use_approx)
            if branch == "exact":
                residual = resid(x, _lam(theta, use_approx))
                return FitResult(theta_rms=theta, residual=residual, branch=branch, x=x)

    r0, x0 = _golden_min(lambda x: resid(x, 1.0), 0.0, PUMP_X_MAX)  # theta_rms = 0
    lam_max = _lam(THETA_MAX, use_approx)
    r1, x1 = _golden_min(lambda x: resid(x, lam_max), 0.0, PUMP_X_MAX)
    r2, t2 = _golden_min(lambda t: resid(PUMP_X_MAX, _lam(t, use_approx)), 0.0, THETA_MAX)
    r, x, theta, branch = min((r0, x0, 0.0, "edge_theta0"), (r1, x1, THETA_MAX, "edge_theta_max"),
                              (r2, PUMP_X_MAX, t2, "edge_x_max"), key=lambda e: e[:3])
    return FitResult(theta_rms=theta, residual=r, branch=branch, x=x)
