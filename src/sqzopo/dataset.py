"""Published benchmark values from the 946 nm PPKTP OPO squeezing experiment.

The embedded dataset records the quoted operating point of the source
experiment: measured and circuit-noise-corrected squeezing levels at 250 mW
pump, the independently calibrated efficiencies, the quoted model
predictions, and the repeat run on a second crystal.  Every record carries
an ``anchor`` string naming where in the experiment the number comes from,
so a reproduction run can be audited value by value.
"""

from __future__ import annotations

import copy
from pathlib import Path

from .config import ConfigError, _number, _read_json, _require

REFERENCE_DATASET: dict = {
    "experiment": "946 nm PPKTP sub-threshold OPO squeezed vacuum",
    "crystals": [
        {
            "name": "crystal_1",
            "pump_mW": 250.0,
            "records": {
                "measured_squeezing_db": {
                    "value": -5.6,
                    "uncertainty": 0.1,
                    "anchor": "squeezed-quadrature noise power at 250 mW pump, "
                    "zero-span 1 MHz, 30-trace average, circuit noise not removed",
                },
                "measured_anti_squeezing_db": {
                    "value": 12.7,
                    "uncertainty": 0.1,
                    "anchor": "anti-squeezed-quadrature noise power at 250 mW pump, "
                    "zero-span 1 MHz, 30-trace average, circuit noise not removed",
                },
                "inferred_squeezing_db": {
                    "value": -5.80,
                    "uncertainty": 0.1,
                    "anchor": "squeezing level after subtracting detector circuit noise",
                },
                "inferred_anti_squeezing_db": {
                    "value": 12.72,
                    "uncertainty": 0.1,
                    "anchor": "anti-squeezing level after subtracting detector circuit noise",
                },
                "gain": {
                    "value": 8.83,
                    "anchor": "measured classical parametric amplification gain",
                },
                "theta_rms_deg": {
                    "value": 4.3,
                    "uncertainty": 0.6,
                    "anchor": "total rms phase jitter from the error-signal noise "
                    "of the locking circuits",
                },
                "alpha": {
                    "value": 0.953,
                    "anchor": "detection efficiency from zeta ~ 1, eta = 0.994, "
                    "xi = 0.979",
                },
                "rho": {
                    "value": 0.932,
                    "anchor": "escape efficiency from T = 0.15, L = 0.011",
                },
                "detuning": {
                    "value": 0.028,
                    "anchor": "1 MHz sideband over the cavity decay rate "
                    "c (T + L) / l with l = 0.214 m",
                },
                "predicted_squeezing_db": {
                    "value": -8.20,
                    "anchor": "jitter-free model prediction at the quoted "
                    "(alpha, rho, G, detuning)",
                },
                "predicted_anti_squeezing_db": {
                    "value": 13.27,
                    "anchor": "jitter-free model prediction at the quoted "
                    "(alpha, rho, G, detuning)",
                },
                "corrected_squeezing_db": {
                    "value": -5.68,
                    "uncertainty": 0.56,
                    "anchor": "model prediction including 4.3 deg rms phase jitter",
                },
                "corrected_anti_squeezing_db": {
                    "value": 13.25,
                    "uncertainty": 0.1,
                    "anchor": "model prediction including 4.3 deg rms phase jitter",
                },
            },
        },
        {
            "name": "crystal_2",
            "records": {
                "inferred_squeezing_db": {
                    "value": -5.73,
                    "uncertainty": 0.1,
                    "anchor": "repeat run with a second PPKTP crystal, after "
                    "circuit-noise correction",
                },
                "inferred_anti_squeezing_db": {
                    "value": 12.22,
                    "uncertainty": 0.1,
                    "anchor": "repeat run with a second PPKTP crystal, after "
                    "circuit-noise correction",
                },
            },
        },
    ],
}


def load_dataset(path: str | Path | None = None) -> dict:
    """Return a copy of the embedded dataset, or load a replacement from a
    JSON file with the same structure.

    Every crystal of a replacement needs a string ``name`` and a
    ``records`` object.  Each record needs a finite numeric ``value``, a
    finite numeric ``uncertainty`` where one is given, and a string
    ``anchor``.  :class:`ConfigError` names the first field that does not
    comply; which records a check needs is up to the check that reads them.
    """
    if path is None:
        return copy.deepcopy(REFERENCE_DATASET)
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
