"""Property-based round trips of the inverse problems: synthesize a reading
with the forward model and jitter mix, invert it, and get the inputs back;
any other finite reading fits with a finite residual or is rejected.
The configuration boundary gets the same treatment: a parsed configuration
serializes back to itself, and a non-finite number in any field is rejected.
A one-step sweep at a configuration's own pump power reproduces predict.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

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
from sqzopo.cli import EXIT_OK, EXIT_VALIDATION, main, packaged_config_path
from sqzopo.config import ExperimentConfig
from sqzopo.model import QuadratureVariances, forward_variances
from sqzopo.phase_noise import PhaseNoiseModel, degrade_approx, degrade_exact

# Fixed example sequence, so a run is reproducible and CI cannot flake.
ROUND_TRIP = settings(max_examples=300, deadline=None, derandomize=True)

# The shipped configuration's derived quantities.
SHIPPED = ExperimentConfig.from_file(packaged_config_path()).derived()

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
    assert (fit.status, fit.iterations) == ("ok", 0)
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


@pytest.mark.parametrize("use_approx", [False, True])
@ROUND_TRIP
@given(
    sq_db=st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    asq_db=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_any_finite_reading_fits_or_is_rejected(use_approx, sq_db, asq_db):
    # Across the whole float range a reading either fits with a finite
    # residual or is rejected as a ValueError (exit 2 at the CLI).
    predicted = QuadratureVariances(SHIPPED["r_plus"], SHIPPED["r_minus"])
    joint = (SHIPPED["alpha"], SHIPPED["rho"], SHIPPED["detuning"])
    for fit, args in ((fit_theta, (predicted,)), (fit_joint, joint)):
        try:
            result = fit(MeasuredLevels(sq_db, asq_db), *args, use_approx=use_approx)
        except ValueError:
            continue
        assert math.isfinite(result.residual)


@ROUND_TRIP
@given(level=st.floats(-20.0, 30.0), clearance=st.floats(0.0, 0.1))
def test_dark_noise_correct_undoes_uncorrect(level, clearance):
    raw = dark_noise_uncorrect(level, clearance)
    assert dark_noise_correct(raw, clearance) == pytest.approx(level, abs=1e-9)


def _pump(mode, frac, threshold):
    # frac in [0, 1] places the operating point within each mode's valid range.
    if mode == "gain":
        return {"mode": mode, "value": 1.0 + 999.0 * frac}
    if mode == "x":
        return {"mode": mode, "value": 0.99 * frac}
    return {"mode": mode, "value": 0.99 * frac * threshold, "threshold_mW": threshold}


# Valid configuration trees in every pump mode, with and without the
# optional dark-noise clearance.
config_tree = st.builds(
    lambda T, L, l, zeta, eta, xi, clearance, pump, theta, f: {
        "cavity": {"T": T, "L": L, "round_trip_m": l},
        "detection": {"zeta": zeta, "eta": eta, "xi": xi}
        | ({} if clearance is None else {"dark_clearance_db": clearance}),
        "pump": pump,
        "noise": {"theta_rms_deg": theta},
        "measurement": {"frequency_hz": f},
    },
    st.floats(0.01, 0.5),
    st.floats(0.0, 0.4),
    st.floats(0.01, 10.0),
    *[st.floats(0.1, 1.0)] * 3,
    st.none() | st.floats(-40.0, -0.1),
    st.builds(_pump, st.sampled_from(("gain", "x", "power")), st.floats(0.0, 1.0),
              st.floats(1.0, 1000.0)),
    st.floats(0.0, 40.0),
    st.floats(0.0, 1e8),
)

# The same trees with a power-mode pump, which carries its own threshold.
power_config_tree = st.builds(
    lambda tree, pump: tree | {"pump": pump},
    config_tree,
    st.builds(_pump, st.just("power"), st.floats(0.0, 1.0), st.floats(1.0, 1000.0)),
)

NUMERIC_FIELDS = [
    ("cavity", "T"), ("cavity", "L"), ("cavity", "round_trip_m"),
    ("detection", "zeta"), ("detection", "eta"), ("detection", "xi"),
    ("detection", "dark_clearance_db"), ("pump", "value"), ("pump", "threshold_mW"),
    ("noise", "theta_rms_deg"), ("measurement", "frequency_hz"),
]


def _cli(tree: dict, command: str, *args: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(tree))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *args])
    return code, out.getvalue()


def _csv_row(text: str) -> dict[str, float]:
    header, row = text.splitlines()
    return dict(zip(header.split(","), map(float, row.split(","))))


@ROUND_TRIP
@given(tree=config_tree)
def test_config_round_trips_through_to_dict(tree):
    cfg = ExperimentConfig.from_dict(tree)
    assert cfg.to_dict() == tree
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@ROUND_TRIP
@given(
    tree=config_tree,
    field=st.sampled_from(NUMERIC_FIELDS),
    bad=st.sampled_from((math.nan, math.inf, -math.inf)),
)
def test_non_finite_config_field_exits_2(tree, field, bad):
    assert _cli(tree, "predict", "--corrected")[0] == EXIT_OK
    section, key = field
    tree[section][key] = bad
    assert _cli(tree, "predict", "--corrected") == (EXIT_VALIDATION, "")


@ROUND_TRIP
@given(tree=power_config_tree)
def test_one_step_sweep_matches_predict(tree):
    # Both commands print 6 significant digits, so they must agree digit for
    # digit: sweep at the config's own pump power is predict --corrected.
    power = repr(tree["pump"]["value"])
    code, sweep = _cli(tree, "sweep", "--pmin", power, "--pmax", power, "--steps", "1")
    assert code == EXIT_OK
    code, predict = _cli(tree, "predict", "--corrected", "--format", "csv")
    assert code == EXIT_OK
    row, report = _csv_row(sweep), _csv_row(predict)
    for column, key in (
        ("x", "x"), ("G", "gain"), ("R_plus", "r_plus"), ("R_minus", "r_minus"),
        ("R_plus_dB", "r_plus_db"), ("R_minus_dB", "r_minus_db"),
        ("Rp_corr_dB", "r_plus_corrected_db"), ("Rm_corr_dB", "r_minus_corrected_db"),
    ):
        assert row[column] == pytest.approx(report[key], rel=1e-9), column
