"""Configuration parsing, validation paths, and serialization roundtrips."""

from __future__ import annotations

import json
import math

import pytest

from sqzopo.cli import packaged_config_path
from sqzopo.config import ConfigError, ExperimentConfig
from sqzopo.model import cavity_decay_rate, detection_efficiency, escape_efficiency, from_db


def _base_dict() -> dict:
    return {
        "cavity": {"T": 0.15, "L": 0.011, "round_trip_m": 0.214},
        "detection": {"zeta": 1.0, "eta": 0.994, "xi": 0.979},
        "pump": {"mode": "gain", "value": 8.83},
        "noise": {"theta_rms_deg": 4.3},
        "measurement": {"frequency_hz": 1e6},
    }


class TestParsing:
    def test_shipped_configs_roundtrip(self):
        for name in ("paper_250mW.json", "paper_250mW_power.json"):
            path = packaged_config_path(name)
            raw = json.loads(path.read_text())
            cfg = ExperimentConfig.from_file(path)
            assert cfg.to_dict() == raw

    def test_dict_roundtrip_without_optionals(self):
        raw = _base_dict()
        assert ExperimentConfig.from_dict(raw).to_dict() == raw

    def test_dict_roundtrip_with_optionals(self):
        raw = _base_dict()
        raw["detection"]["dark_clearance_db"] = -17.75
        raw["pump"] = {"mode": "power", "value": 250.0, "threshold_mW": 567.93}
        assert ExperimentConfig.from_dict(raw).to_dict() == raw

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(bad)


class TestValidationPaths:
    def test_missing_section(self):
        raw = _base_dict()
        del raw["noise"]
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "noise"

    def test_unknown_section(self):
        raw = _base_dict()
        raw["laser"] = {}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "laser"

    def test_root_not_an_object(self):
        with pytest.raises(ConfigError, match="must be a JSON object") as exc:
            ExperimentConfig.from_dict([1])
        assert exc.value.path == "<root>"

    def test_section_not_an_object(self):
        raw = _base_dict()
        raw["cavity"] = 3
        with pytest.raises(ConfigError, match="section must be a JSON object") as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "cavity"

    def test_unknown_field(self):
        raw = _base_dict()
        raw["cavity"]["finesse"] = 300
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "cavity.finesse"

    def test_missing_field(self):
        raw = _base_dict()
        del raw["cavity"]["T"]
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "cavity.T"

    def test_wrong_type(self):
        raw = _base_dict()
        raw["cavity"]["T"] = "0.15"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "cavity.T"
        # json parses NaN and +-Infinity literals; huge integers overflow float
        for section, key in (("cavity", "T"), ("detection", "dark_clearance_db"),
                             ("pump", "value"), ("noise", "theta_rms_deg"),
                             ("measurement", "frequency_hz")):
            for value in (math.nan, math.inf, -math.inf, 10**400):
                raw = _base_dict()
                raw[section][key] = value
                with pytest.raises(ConfigError) as exc:
                    ExperimentConfig.from_dict(raw)
                assert exc.value.path == f"{section}.{key}", value

    def test_unphysical_cavity(self):
        raw = _base_dict()
        raw["cavity"]["L"] = 0.9
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "cavity"

    def test_bad_pump_mode(self):
        raw = _base_dict()
        raw["pump"]["mode"] = "volts"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "pump.mode"

    def test_power_mode_requires_threshold(self):
        raw = _base_dict()
        raw["pump"] = {"mode": "power", "value": 250.0}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "pump.threshold_mW"

    def test_deamplification_gain(self):
        raw = _base_dict()
        raw["pump"]["value"] = 0.8
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "pump.value"

    def test_negative_jitter(self):
        raw = _base_dict()
        raw["noise"]["theta_rms_deg"] = -1.0
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "noise.theta_rms_deg"

    def test_negative_frequency(self):
        raw = _base_dict()
        raw["measurement"]["frequency_hz"] = -1.0
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "measurement.frequency_hz"


class TestDerived:
    def test_matches_model_functions(self):
        cfg = ExperimentConfig.from_dict(_base_dict())
        derived = cfg.derived()
        assert derived["rho"] == escape_efficiency(cfg.opo_cavity())
        assert derived["alpha"] == detection_efficiency(cfg.detection_chain())
        assert derived["gamma_rad_s"] == cavity_decay_rate(cfg.opo_cavity())
        assert derived["gain"] == pytest.approx(8.83, rel=1e-12)
        assert derived["r_plus_db"] == pytest.approx(13.27, abs=0.05)
        assert derived["r_minus_db"] == pytest.approx(-8.20, abs=0.10)

    def test_boundary_unit_conversions(self):
        raw = _base_dict()
        raw["detection"]["dark_clearance_db"] = -17.75
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.omega() == pytest.approx(2.0 * math.pi * 1e6, rel=1e-12)
        assert cfg.phase_noise().theta_rms == pytest.approx(math.radians(4.3), rel=1e-12)
        assert cfg.detection_chain().dark_clearance == pytest.approx(
            from_db(-17.75), rel=1e-12
        )

    def test_names_the_offending_field(self):
        # A config checks itself when built, however it is built: here as
        # a changed copy of a parsed one.
        cfg = ExperimentConfig.from_dict(_base_dict())
        for change, path in (
            ({"cavity_L": 0.9}, "cavity"),
            ({"round_trip_m": 1e-308}, "cavity"),
            ({"xi": 2.0}, "detection"),
            ({"pump_value": 0.5}, "pump.value"),
            ({"pump_mode": "bogus"}, "pump.mode"),
            ({"pump_mode": "bogus", "threshold_mW": 567.9}, "pump.mode"),
            ({"frequency_hz": -1.0}, "measurement.frequency_hz"),
            ({"frequency_hz": 1e200}, "measurement.frequency_hz"),
        ):
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig(**{**vars(cfg), **change})
            assert exc.value.path == path, change

    def test_jitter_is_checked_after_the_derived_fields(self):
        raw = _base_dict()
        raw["noise"]["theta_rms_deg"] = -1.0
        raw["measurement"]["frequency_hz"] = -1.0
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "measurement.frequency_hz"

    @pytest.mark.parametrize("section, key, value, path", [
        # every number is parsed before the built config checks its mode
        ("cavity", "T", "abc", "cavity.T"),
        # the mode is checked before the config derives its cavity
        ("cavity", "L", 0.9, "pump.mode"),
    ])
    def test_a_bad_mode_with_another_error(self, section, key, value, path):
        raw = _base_dict()
        raw["pump"]["mode"] = "volts"
        raw[section][key] = value
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == path

    def test_power_mode_pump(self):
        raw = _base_dict()
        raw["pump"] = {"mode": "power", "value": 250.0, "threshold_mW": 567.9279350470405}
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.derived()["x"] == pytest.approx(0.6634732059319677, rel=1e-9)
