"""Property-based round trips of the inverse problems: synthesize a reading
with the forward model and jitter mix, invert it, and get the inputs back.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqzopo.calibration import (
    MeasuredLevels,
    dark_noise_correct,
    dark_noise_uncorrect,
    fit_joint,
    fit_theta,
)
from sqzopo.model import forward_variances
from sqzopo.phase_noise import PhaseNoiseModel, degrade_approx, degrade_exact

# Fixed example sequence, so a run is reproducible and CI cannot flake.
ROUND_TRIP = settings(max_examples=300, deadline=None, derandomize=True)

efficiency = st.floats(0.7, 0.99)
operating_point = st.tuples(
    efficiency,  # alpha
    efficiency,  # rho
    st.floats(0.0, 0.5),  # detuning
    st.floats(0.05, 0.9),  # x
    st.floats(0.0, math.pi / 4),  # theta_rms
)


def _reading(alpha, rho, omega, x, theta, use_approx):
    degrade = degrade_approx if use_approx else degrade_exact
    predicted = forward_variances(alpha, rho, x, omega)
    degraded = degrade(predicted, PhaseNoiseModel(theta))
    # Too scrambled to read as a squeezing measurement (criterion 10's filter).
    assume(degraded.r_minus < 1.0 < degraded.r_plus)
    return predicted, MeasuredLevels(degraded.r_minus_db, degraded.r_plus_db)


@pytest.mark.parametrize("use_approx", [False, True])
@ROUND_TRIP
@given(point=operating_point)
def test_fit_joint_recovers_pump_and_jitter(use_approx, point):
    alpha, rho, omega, x, theta = point
    _, measured = _reading(alpha, rho, omega, x, theta, use_approx)
    fit = fit_joint(measured, alpha, rho, omega, use_approx=use_approx)
    assert fit.status == "ok"
    assert fit.x == pytest.approx(x, abs=1e-6)
    assert fit.theta_rms == pytest.approx(theta, abs=1e-6)


@pytest.mark.parametrize("use_approx", [False, True])
@ROUND_TRIP
@given(point=operating_point)
def test_fit_theta_recovers_jitter(use_approx, point):
    alpha, rho, omega, x, theta = point
    predicted, measured = _reading(alpha, rho, omega, x, theta, use_approx)
    fit = fit_theta(measured, predicted, use_approx=use_approx)
    assert fit.status == "ok"
    assert fit.iterations == 0
    assert fit.theta_rms == pytest.approx(theta, abs=1e-6)


@ROUND_TRIP
@given(level=st.floats(-20.0, 30.0), clearance=st.floats(0.0, 0.1))
def test_dark_noise_correct_undoes_uncorrect(level, clearance):
    raw = dark_noise_uncorrect(level, clearance)
    assert dark_noise_correct(raw, clearance) == pytest.approx(level, abs=1e-9)
