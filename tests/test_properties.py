"""Property-based round trips of the inverse problems: synthesize a reading
with the forward model and jitter mix, invert it, and get the inputs back;
any other finite reading fits with a finite residual or is rejected.
The configuration boundary gets the same treatment: a parsed configuration
serializes back to itself, and any float in any field or float flag gives a
finite report or a named rejection, never a traceback; a config built from
any field values derives finite values or names the field it rejects.
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
from sqzopo.config import _FIELDS, _OPTIONAL, PUMP_MODES, ConfigError, ExperimentConfig
from sqzopo.model import QuadratureVariances, forward_variances
from sqzopo.phase_noise import PhaseNoiseModel, degrade_approx, degrade_exact

# Fixed example sequence, so a run is reproducible and CI cannot flake.
ROUND_TRIP = settings(max_examples=300, deadline=None, derandomize=True)

# Every way a fit can end.
BRANCHES = {"exact", "clamped", "infeasible", "edge_theta0", "edge_theta_max", "edge_x_max"}

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
# Made at pi/4, this reading inverts to a few ulps past it: still the closed form.
@example(point=(0.75, 0.75, 0.5, 0.25, math.pi / 4))
def test_fit_joint_recovers_pump_and_jitter(use_approx, point):
    alpha, rho, omega, x, theta = point
    _, measured = _reading(alpha, rho, omega, x, theta, use_approx)
    fit = fit_joint(measured, alpha, rho, omega, use_approx=use_approx)
    assert (fit.status, fit.branch) == ("ok", "exact")
    assert fit.x == pytest.approx(x, abs=1e-6)
    assert fit.theta_rms == pytest.approx(theta, abs=1e-6)


@pytest.mark.parametrize("use_approx", [False, True])
@ROUND_TRIP
@given(point=operating_point)
def test_fit_theta_recovers_jitter(use_approx, point):
    alpha, rho, omega, x, theta = point
    predicted, measured = _reading(alpha, rho, omega, x, theta, use_approx)
    fit = fit_theta(measured, predicted, use_approx=use_approx)
    assert (fit.status, fit.branch) == ("ok", "exact")
    assert fit.theta_rms == pytest.approx(theta, abs=1e-6)


@pytest.mark.parametrize("use_approx", [False, True])
@ROUND_TRIP
@given(
    sq_db=st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    asq_db=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_any_finite_reading_fits_or_is_rejected(use_approx, sq_db, asq_db):
    # Across the whole float range a reading either fits with a finite
    # residual and a jitter in range, or is rejected as a ValueError (exit 2
    # at the CLI).  FitResult does not check either bound itself.
    predicted = QuadratureVariances(SHIPPED["r_plus"], SHIPPED["r_minus"])
    joint = (SHIPPED["alpha"], SHIPPED["rho"], SHIPPED["detuning"])
    for fit, args in ((fit_theta, (predicted,)), (fit_joint, joint)):
        try:
            result = fit(MeasuredLevels(sq_db, asq_db), *args, use_approx=use_approx)
        except ValueError:
            continue
        assert 0.0 <= result.residual < math.inf
        assert 0.0 <= result.theta_rms <= math.pi / 4
        assert result.branch in BRANCHES


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


def _cli_runs(tree: dict, *argvs: tuple[str, ...]) -> list[tuple[int, str, str]]:
    """Exit code, stdout and stderr of each ``(command, *args)`` on the config
    ``tree``; ``correct`` reads no configuration."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(tree))
        for command, *args in argvs:
            config = [] if command == "correct" else [str(path)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *config, *args])
            runs.append((code, out.getvalue(), err.getvalue()))
    return runs


def _cli(tree: dict, command: str, *args: str) -> tuple[int, str]:
    return _cli_runs(tree, (command, *args))[0][:2]


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
SWEEP = ("sweep", "--anchor", "250:8.83", "--pmin", "0", "--pmax", "250", "--steps", "3")
FITS = (
    ("fit", "--sq-db", "-5.8", "--asq-db", "12.72"),
    ("fit", "--joint", "--sq-db", "-5.8", "--asq-db", "12.72"),
)
CONFIG_COMMANDS = (("predict", "--corrected"), SWEEP, *FITS)

# Each float flag and the commands that read it.  A drawn value is appended
# as ``--flag=value``, which overrides the command's own value of that flag.
CORRECT = ("correct", "--level-db=-5.6", "--clearance-db=-17.75")
FLAG_COMMANDS = {
    "--theta-deg": (SWEEP,),
    "--pmin": (SWEEP,),
    "--pmax": (SWEEP,),
    "--level-db": (CORRECT,),
    "--clearance-db": (CORRECT,),
    "--sq-db": FITS,
    "--asq-db": FITS,
    "--duration": (("oracle", "--segments", "8"),),
}


def _reject_constant(name: str) -> float:
    raise AssertionError(f"{name} is not valid JSON")


# Non-finite numbers, and magnitudes where squares, products and quotients
# of a field over- or underflow.  Each is tried in each field of the shipped
# power-mode configuration, which reads every field, before any drawn float.
EDGE_FLOATS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e154, 1e-160, 1e-308, 5e-324, 0.0)
POWER_TREE = json.loads(packaged_config_path("paper_250mW_power.json").read_text())


def _at_every_edge(test):
    for field, value in itertools.product([*NUMERIC_FIELDS, *FLAG_COMMANDS], EDGE_FLOATS):
        test = example(tree=POWER_TREE, entry=(field, value))(test)
    return test


# Durations the oracle rejects before numpy loads, for every drawn
# configuration: below 100 / gamma_total (gamma_total <= 2.7e10 rad/s), or
# too long for any memory (dt <= 2.7e-7 s, so >= 3.7e17 steps a segment).
REJECTED_DURATIONS = st.floats(max_value=1e-9) | st.floats(min_value=1e11) | st.just(math.nan)

# A config field or a float flag, with the float it is set to.
FIELD_ENTRY = st.tuples(
    st.sampled_from([*NUMERIC_FIELDS, *(f for f in FLAG_COMMANDS if f != "--duration")]),
    st.floats(),
) | st.tuples(st.just("--duration"), REJECTED_DURATIONS)


def _names(err: str, flag: str) -> bool:
    """Whether the one-line ``error: PATH: ...`` names ``flag`` in its path."""
    return err.count("\n") == 1 and flag in err.removeprefix("error: ").split(": ")[0].split("/")


@settings(max_examples=100, deadline=None, derandomize=True)
@_at_every_edge
@given(tree=config_tree, entry=FIELD_ENTRY)
def test_any_float_in_a_config_field_exits_cleanly(tree, entry):
    # Every command that reads the field or flag: a finite report, or a
    # validation (2) or infeasibility (3) exit; only the pi/4 warning passes.
    # A non-finite config field is always rejected, a flag always by name,
    # and the oracle is given only durations it rejects.
    field, value = entry
    if field in FLAG_COMMANDS:
        argvs = [(*argv, f"{field}={value!r}") for argv in FLAG_COMMANDS[field]]
    else:
        section, key = field
        tree = {name: dict(fields) for name, fields in tree.items()}
        tree[section][key] = value
        argvs = CONFIG_COMMANDS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", r"theta_rms = .* exceeds pi/4", UserWarning)
        runs = _cli_runs(tree, *argvs)
    for argv, (code, out, err) in zip(argvs, runs):
        if field in FLAG_COMMANDS:
            assert code != EXIT_VALIDATION or _names(err, field), (argv, err)
        elif not math.isfinite(value):
            assert (code, out) == (EXIT_VALIDATION, ""), argv
        if argv[0] == "oracle":
            assert (code, out) == (EXIT_VALIDATION, ""), argv
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INFEASIBLE), argv
        if code != EXIT_OK:
            continue
        if argv[0] == "sweep":
            for row in out.splitlines()[1:]:
                assert all(math.isfinite(float(v)) for v in row.split(",")), (argv, row)
        elif argv[0] == "correct":
            assert math.isfinite(float(out)), argv
        else:
            json.loads(out, parse_constant=_reject_constant)


# Any value of an ExperimentConfig field: any float, None where the field is
# optional, and a known pump mode or junk.
FIELD_VALUES = {attr: st.floats() | st.sampled_from(EDGE_FLOATS) for attr in _FIELDS}
FIELD_VALUES |= {attr: st.none() | FIELD_VALUES[attr] for attr in _OPTIONAL}
FIELD_VALUES["pump_mode"] = st.sampled_from((*PUMP_MODES, "volts", "Gain", "", None, 1.0))
FIELD_PATHS = {f"{section}.{key}" for section, key in _FIELDS.values()} | {"cavity", "detection"}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree=config_tree, changes=st.fixed_dictionaries({}, optional=FIELD_VALUES))
@example(tree=POWER_TREE, changes={"pump_mode": "bogus"})
@example(tree=POWER_TREE, changes={"frequency_hz": math.nan})
def test_a_built_config_derives_finite_values_or_names_its_field(tree, changes):
    # A valid config's fields, any of them replaced: the constructor either
    # names the field it rejects, or the record it returns derives finite
    # values in a known pump mode.
    fields = {attr: tree[section].get(key) for attr, (section, key) in _FIELDS.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", r"theta_rms = .* exceeds pi/4", UserWarning)
        try:
            cfg = ExperimentConfig(**fields | changes)
        except ConfigError as err:
            assert err.path in FIELD_PATHS, err
            return
        derived = cfg.derived()
    assert cfg.pump_mode in PUMP_MODES
    assert len(derived) == 10
    assert all(math.isfinite(value) for value in derived.values()), derived


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
