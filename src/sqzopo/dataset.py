"""Published benchmark values from the 946 nm PPKTP OPO squeezing experiment.

The shipped dataset, ``data/reference_dataset.json``, records the quoted
operating point of the source experiment: measured and
circuit-noise-corrected squeezing levels at 250 mW pump, the independently
calibrated efficiencies, the quoted model predictions, and the repeat run on
a second crystal.  Every record carries an ``anchor`` string naming where in
the experiment the number comes from, so a reproduction run can be audited
value by value.  The shipped file passes the same checks as a replacement
given with ``--dataset``.
"""

from __future__ import annotations

from pathlib import Path

from .config import ConfigError, _number, _read_json, _require


def load_dataset(path: str | Path | None = None) -> dict:
    """Load the shipped dataset, or a replacement from a JSON file with the
    same structure.

    Every crystal needs a string ``name`` and a ``records`` object.  Each
    record needs a finite numeric ``value``, a finite numeric
    ``uncertainty`` where one is given, and a string ``anchor``.  :class:`ConfigError` names the first field that does not
    comply; which records a check needs is up to the check that reads them.
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
