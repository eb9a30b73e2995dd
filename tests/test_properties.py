"""Property-based round trips of the inverse problems: synthesize a reading
with the forward model and jitter mix, invert it, and get the inputs back;
any other finite reading fits with a finite residual or is rejected.
The configuration boundary gets the same treatment: a parsed configuration
serializes back to itself, and any float in any field gives a finite report
or a named rejection, never a traceback.
A one-step sweep at a configuration's own pump power reproduces predict.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqzopo.calibration import (
    MeasuredLevels,
    dark_noise_correct,
    dark_noise_uncorrect,
    fit_joint,
    fit_theta,
)
from sqzopo.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION, main, packaged_config_path
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


def _cli_runs(tree: dict, *argvs: tuple[str, ...]) -> list[tuple[int, str]]:
    """Exit code and stdout of each ``(command, *args)`` on the config ``tree``."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(tree))
        for command, *args in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, str(path), *args])
            runs.append((code, out.getvalue()))
    return runs


def _cli(tree: dict, command: str, *args: str) -> tuple[int, str]:
    return _cli_runs(tree, (command, *args))[0]


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


# Every subcommand that reads a configuration, except the oracle.
CONFIG_COMMANDS = (
    ("predict", "--corrected"),
    ("sweep", "--anchor", "250:8.83", "--pmin", "0", "--pmax", "250", "--steps", "3"),
    ("fit", "--sq-db", "-5.8", "--asq-db", "12.72"),
    ("fit", "--joint", "--sq-db", "-5.8", "--asq-db", "12.72"),
)


def _reject_constant(name: str) -> float:
    raise AssertionError(f"{name} is not valid JSON")


# Non-finite numbers, and magnitudes where squares, products and quotients
# of a field over- or underflow.  Each is tried in each field of the shipped
# power-mode configuration, which reads every field, before any drawn float.
EDGE_FLOATS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e154, 1e-160, 1e-308, 5e-324, 0.0)
POWER_TREE = json.loads(packaged_config_path("paper_250mW_power.json").read_text())


def _at_every_edge(test):
    for field, value in itertools.product(NUMERIC_FIELDS, EDGE_FLOATS):
        test = example(tree=POWER_TREE, field=field, value=value)(test)
    return test


@settings(max_examples=100, deadline=None, derandomize=True)
@_at_every_edge
@given(tree=config_tree, field=st.sampled_from(NUMERIC_FIELDS), value=st.floats())
def test_any_float_in_a_config_field_exits_cleanly(tree, field, value):
    # Every config-reading command but the oracle: a finite report, or a
    # validation (2) or infeasibility (3) exit; only the pi/4 warning passes.
    section, key = field
    tree = {name: dict(fields) for name, fields in tree.items()}
    tree[section][key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", r"theta_rms = .* exceeds pi/4", UserWarning)
        runs = _cli_runs(tree, *CONFIG_COMMANDS)
    for argv, (code, out) in zip(CONFIG_COMMANDS, runs):
        if not math.isfinite(value):
            assert (code, out) == (EXIT_VALIDATION, ""), argv
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INFEASIBLE), argv
        if code != EXIT_OK:
            continue
        if argv[0] == "sweep":
            for row in out.splitlines()[1:]:
                assert all(math.isfinite(float(v)) for v in row.split(",")), (argv, row)
        else:
            json.loads(out, parse_constant=_reject_constant)


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
