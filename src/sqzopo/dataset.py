"""Published benchmark values from the 946 nm PPKTP OPO squeezing experiment.

The shipped dataset, ``data/reference_dataset.json``, records the quoted
operating point of the source experiment: measured and
circuit-noise-corrected squeezing levels at 250 mW pump, the independently
calibrated efficiencies, the quoted model predictions, and the repeat run on
a second crystal.  Every record carries an ``anchor`` string naming where in
the experiment the number comes from, so a reproduction run can be audited
value by value.  The shipped file passes the same checks as a replacement
given with ``--dataset``.  This module alone reads the layout: it loads a
file, lists it (``paper --list``) and runs the reproduction checks on it
(``paper --check``).
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from .config import ConfigError, ExperimentConfig, _named, _number, _read_json, _require
from .model import PumpOperatingPoint, _check_inputs, forward_variances
from .phase_noise import PhaseNoiseModel, degrade_exact

CHECK_TOL_EFFICIENCY = 0.001
CHECK_TOL_SQUEEZING_DB = 0.10
CHECK_TOL_ANTI_DB = 0.05


def load_dataset(path: str | Path | None = None) -> dict:
    """Load the shipped dataset, or a replacement from a JSON file with the
    same structure.

    Every crystal needs a string ``name`` and a ``records`` object.  Each
    record needs a finite numeric ``value``, a finite numeric
    ``uncertainty`` where one is given, and a string ``anchor``.
    :class:`ConfigError` names the first field that does not comply; which
    records a check needs is up to the check that reads them.
    """
    if path is None:
        path = Path(__file__).with_name("data") / "reference_dataset.json"
    data = _read_json(path)
    crystals = data.get("crystals") if isinstance(data, dict) else None
    if not isinstance(crystals, list) or not all(isinstance(c, dict) for c in crystals):
        raise ConfigError(str(path), "not a reference dataset (no 'crystals' list)")
    for i, entry in enumerate(crystals):
        name = entry.get("name")
        if not isinstance(name, str):
            raise ConfigError(f"crystals[{i}].name", "expected a string")
        if not isinstance(entry.get("records"), dict):
            raise ConfigError(name, "missing, or without a 'records' object")
        for key, record in entry["records"].items():
            where = f"{name}.{key}"
            if not isinstance(record, dict):
                raise ConfigError(where, "record must be a JSON object")
            _number(_require(record, where, "value"), f"{where}.value")
            if "uncertainty" in record:
                _number(record["uncertainty"], f"{where}.uncertainty")
            if not isinstance(_require(record, where, "anchor"), str):
                raise ConfigError(f"{where}.anchor", "expected a string")
    return data


def crystal(dataset: dict, name: str) -> dict:
    """Record map of one crystal entry."""
    for entry in dataset["crystals"]:
        if entry.get("name") == name:
            return entry["records"]
    raise ConfigError(name, "missing, or without a 'records' object")


def listing(dataset: dict) -> Iterator[str]:
    """The lines of ``paper --list``: every record with its anchor."""
    yield str(dataset.get("experiment", "benchmark dataset"))
    for entry in dataset["crystals"]:
        yield ""
        yield f"{entry['name']}:"
        for name, rec in entry["records"].items():
            unc = f" +/- {rec['uncertainty']}" if "uncertainty" in rec else ""
            yield f"  {name} = {rec['value']}{unc}"
            yield f"      [{rec['anchor']}]"


def reproduce(dataset: dict, cfg: ExperimentConfig) -> list[tuple[str, bool, str]]:
    """Run the reproduction pipeline against the records of ``crystal_1``,
    each required where a check reads it and nowhere else.  Returns one
    (name, passed, detail) triple per check, in order."""
    from .calibration import MeasuredLevels, dark_noise_correct, fit_theta

    records = crystal(dataset, "crystal_1")
    derived = cfg.derived()
    results: list[tuple[str, bool, str]] = []

    def check(name: str, got: float, expected: float, tol: float) -> None:
        ok = abs(got - expected) <= tol
        results.append((name, ok, f"got {got:.4f}, expected {expected} +/- {tol}"))

    def read(name: str, field: str = "value", make=lambda value: value):
        value = _require(_require(records, "crystal_1", name), f"crystal_1.{name}", field)
        # A record the domain object rejects is named like a malformed one.
        return _named(f"crystal_1.{name}", make, value)

    # forward_variances checks these three together; check each as it is read.
    rho = read("rho", make=lambda rho: _check_inputs(1.0, rho, 0.0, 0.0) or rho)
    alpha = read("alpha", make=lambda alpha: _check_inputs(alpha, 1.0, 0.0, 0.0) or alpha)
    omega_ratio = read("detuning", make=lambda om: _check_inputs(1.0, 1.0, 0.0, om) or om)
    check("escape efficiency", derived["rho"], rho, CHECK_TOL_EFFICIENCY)
    check("detection efficiency", derived["alpha"], alpha, CHECK_TOL_EFFICIENCY)
    check("detuning", derived["detuning"], omega_ratio, CHECK_TOL_EFFICIENCY)

    # Predictions are evaluated at the quoted calibration values, not the
    # recomputed ones, so each check isolates one claim.
    x = read("gain", make=lambda gain: PumpOperatingPoint.from_gain(gain).x)
    predicted = forward_variances(alpha, rho, x, omega_ratio)
    jitter = read("theta_rms_deg", make=PhaseNoiseModel.from_degrees)
    for name, prefix, r in (
        ("jitter-free prediction", "predicted", predicted),
        ("jitter-corrected prediction", "corrected", degrade_exact(predicted, jitter)),
    ):
        sq_db = read(f"{prefix}_squeezing_db")
        asq_db = read(f"{prefix}_anti_squeezing_db")
        ok = (
            abs(r.r_minus_db - sq_db) <= CHECK_TOL_SQUEEZING_DB
            and abs(r.r_plus_db - asq_db) <= CHECK_TOL_ANTI_DB
        )
        detail = f"got ({r.r_minus_db:.2f}, {r.r_plus_db:.2f}) dB, expected ({sq_db}, {asq_db}) dB"
        results.append((name, ok, detail))

    # Correction step: the configured clearance must map the raw measured
    # level onto the quoted inferred one before the inferred level is fit.
    inferred = read("inferred_squeezing_db", make=MeasuredLevels)
    inferred_db = inferred.squeezing_db
    ok_corr = True
    corr_note = "no clearance configured, correction step skipped"
    clearance = cfg.detection_chain().dark_clearance
    if clearance is not None:
        corrected_db = read(
            "measured_squeezing_db", make=lambda db: dark_noise_correct(db, clearance)
        )
        ok_corr = abs(corrected_db - inferred_db) <= read("inferred_squeezing_db", "uncertainty")
        corr_note = f"corrected raw level {corrected_db:.2f} dB vs {inferred_db} dB"

    # The jitter-only fit reads the squeezing level alone.
    fit = fit_theta(inferred, predicted)
    expected_theta = read("theta_rms_deg")
    theta_tol = read("theta_rms_deg", "uncertainty")
    ok = ok_corr and fit.status == "ok" and abs(fit.theta_rms_deg - expected_theta) <= theta_tol
    detail = f"got {fit.theta_rms_deg:.2f} deg, expected {expected_theta} +/- {theta_tol} deg"
    results.append(("jitter recovery from measured squeezing", ok, f"{detail} ({corr_note})"))
    return results
