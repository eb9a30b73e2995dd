"""Degradation of squeezing by residual phase jitter of the homodyne lock.

When the relative phase between the local oscillator and the squeezed
quadrature fluctuates with a Gaussian distribution of rms width theta_rms,
the observed variances are the Gaussian average of

    R'_pm = R_pm cos^2(theta) + R_mp sin^2(theta).

Three mutually checking evaluations are provided:

- :func:`degrade_exact` -- the closed form of the Gaussian average,
  E[cos^2 theta] = (1 + exp(-2 theta_rms^2)) / 2.  Production path.
- :func:`degrade_approx` -- the small-angle surrogate that freezes the
  jitter at its rms value, R_pm cos^2(theta_rms) + R_mp sin^2(theta_rms).
- :func:`degrade_quadrature` -- direct trapezoid-rule integration of the
  Gaussian average, kept free of the closed form as a numerical check.

All three conserve R'_plus + R'_minus = R_plus + R_minus: jitter only
rebalances noise between the quadratures, it never adds or removes any.
"""

from __future__ import annotations

import math
import warnings

from .model import QuadratureVariances, Record


class PhaseNoiseModel(Record):
    """Gaussian rms phase jitter of the locked homodyne phase, in radians.

    The Gaussian-jitter picture is meant for small residual fluctuations;
    above pi/4 the construction warns but still evaluates (the closed form
    stays mathematically valid for any width).
    """

    def __init__(self, theta_rms: float) -> None:
        self.__dict__.update(theta_rms=theta_rms)
        if not 0.0 <= theta_rms < math.inf:
            raise ValueError(f"theta_rms must be finite and >= 0 rad, got {theta_rms}")
        if theta_rms > math.pi / 4:
            warnings.warn(
                f"theta_rms = {theta_rms:.3g} rad exceeds pi/4; the "
                "small-jitter picture is outside its intended regime",
                UserWarning,
                stacklevel=2,
            )

    @classmethod
    def from_degrees(cls, theta_rms_deg: float) -> PhaseNoiseModel:
        return cls(math.radians(theta_rms_deg))


def _mix(R: QuadratureVariances, lam: float) -> QuadratureVariances:
    # lam = E[cos^2] - E[sin^2] of the jitter distribution; lam = 1 is the
    # identity, lam = 0 full scrambling, lam = -1 a swap.
    c = 0.5 * (1.0 + lam)
    s = 0.5 * (1.0 - lam)
    return QuadratureVariances(
        r_plus=c * R.r_plus + s * R.r_minus,
        r_minus=c * R.r_minus + s * R.r_plus,
    )


def degrade_exact(R: QuadratureVariances, model: PhaseNoiseModel) -> QuadratureVariances:
    """Gaussian-averaged variances via the closed form
    E[cos(2 theta)] = exp(-2 theta_rms^2)."""
    return _mix(R, math.exp(-2.0 * model.theta_rms * model.theta_rms))


def degrade_approx(R: QuadratureVariances, model: PhaseNoiseModel) -> QuadratureVariances:
    """Small-angle surrogate: a fixed phase offset of theta_rms,
    R_pm cos^2(theta_rms) + R_mp sin^2(theta_rms)."""
    return _mix(R, math.cos(2.0 * model.theta_rms))


class QuadratureConvergenceError(RuntimeError):
    """Successive quadrature refinements failed to agree."""


QUADRATURE_NODES = 64


def degrade_quadrature(R: QuadratureVariances, model: PhaseNoiseModel) -> QuadratureVariances:
    """Numerically integrate the Gaussian average by the trapezoid rule.

    In t = theta / (sqrt(2) theta_rms) it is a whole-line integral against
    exp(-t^2), where the rule converges exponentially (Trefethen & Weideman,
    SIAM Rev. 56, 385, 2014): n nodes step sqrt(2 pi / n) over n + 1 points.

    The estimate is recomputed with twice the nodes; if the refinement moves
    either quadrature by more than 1e-9 relative, the integration has not
    converged and :class:`QuadratureConvergenceError` is raised.  Agrees
    with :func:`degrade_exact` to better than 1e-9 relative for
    theta_rms <= pi/4 at :data:`QUADRATURE_NODES` nodes.
    """
    if model.theta_rms == 0.0:
        return R

    def estimate(n: int) -> tuple[float, float]:
        h = math.sqrt(2.0 * math.pi / n)
        norm = h / math.sqrt(math.pi)
        cos2 = sin2 = 0.0
        for j in range(n // 2 + 1):
            t = h * (0.5 * n - j)
            # Even integrand: each t > 0 also stands for -t; the ends weigh half.
            w = (2.0 if 0 < j < 0.5 * n else 1.0) * norm * math.exp(-t * t)
            theta = math.sqrt(2.0) * model.theta_rms * t
            cos2 += w * math.cos(theta) ** 2
            sin2 += w * math.sin(theta) ** 2
        return R.r_plus * cos2 + R.r_minus * sin2, R.r_minus * cos2 + R.r_plus * sin2

    coarse = estimate(QUADRATURE_NODES)
    fine = estimate(2 * QUADRATURE_NODES)
    for a, b in zip(coarse, fine):
        if abs(a - b) > 1e-9 * abs(b):
            raise QuadratureConvergenceError(
                f"refinement {QUADRATURE_NODES} -> {2 * QUADRATURE_NODES} nodes "
                f"moved the estimate from {a} to {b}; reduce theta_rms"
            )
    return QuadratureVariances(r_plus=fine[0], r_minus=fine[1])
