"""Command-line behavior: schemas, exit codes, end-to-end values."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sqzopo import cli, dataset
from sqzopo.calibration import MeasuredLevels, fit_joint
from sqzopo.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_VALIDATION,
    ORACLE_HEADER,
    SWEEP_HEADER,
)
from sqzopo.config import ExperimentConfig
from sqzopo.dataset import load_dataset
from sqzopo.langevin import LangevinConfig, simulate_output_spectrum
from sqzopo.model import QuadratureVariances
from sqzopo.phase_noise import PhaseNoiseModel, degrade_approx, degrade_exact

CONFIG = str(cli.packaged_config_path())
CONFIG_POWER = str(cli.packaged_config_path("paper_250mW_power.json"))
SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_config(tmp_path, mutate):
    raw = json.loads(cli.packaged_config_path().read_text())
    mutate(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestPredict:
    def test_json_report(self, capsys):
        code, out, _ = _run(capsys, "predict", CONFIG)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["alpha"] == pytest.approx(0.952690354, rel=1e-9)
        assert report["rho"] == pytest.approx(0.9316770186, rel=1e-9)
        assert report["gain"] == pytest.approx(8.83, rel=1e-9)
        assert report["r_plus_db"] == pytest.approx(13.27, abs=0.05)
        assert report["r_minus_db"] == pytest.approx(-8.20, abs=0.10)
        assert "r_minus_corrected_db" not in report

    def test_corrected_report(self, capsys):
        code, out, _ = _run(capsys, "predict", CONFIG, "--corrected")
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["r_minus_corrected_db"] == pytest.approx(-5.68, abs=0.10)
        assert report["r_plus_corrected_db"] == pytest.approx(13.25, abs=0.05)

    def test_approx_differs_slightly(self, capsys):
        _, out_exact, _ = _run(capsys, "predict", CONFIG, "--corrected")
        _, out_approx, _ = _run(capsys, "predict", CONFIG, "--corrected", "--approx")
        exact = json.loads(out_exact)["r_minus_corrected_db"]
        approx = json.loads(out_approx)["r_minus_corrected_db"]
        assert exact != approx
        assert abs(exact - approx) < 0.05

    def test_approx_implies_corrected(self, capsys):
        code, out, _ = _run(capsys, "predict", CONFIG, "--approx")
        report = json.loads(out)
        assert code == EXIT_OK
        predicted = QuadratureVariances(report["r_plus"], report["r_minus"])
        approx = degrade_approx(predicted, PhaseNoiseModel.from_degrees(4.3))
        assert report["theta_rms_deg"] == 4.3
        assert report["r_plus_corrected_db"] == approx.r_plus_db
        assert report["r_minus_corrected_db"] == approx.r_minus_db

    def test_csv_format(self, capsys):
        code, out, _ = _run(capsys, "predict", CONFIG, "--format", "csv")
        assert code == EXIT_OK
        header, row = out.strip().split("\n")
        assert len(header.split(",")) == len(row.split(","))
        assert "r_minus_db" in header

    def test_unpumped_config_is_shot_noise(self, capsys, tmp_path):
        path = _write_config(tmp_path, lambda raw: raw.update(pump={"mode": "x", "value": 0.0}))
        code, out, _ = _run(capsys, "predict", path)
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["r_plus_db"] == 0.0
        assert report["r_minus_db"] == 0.0

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        path = _write_config(tmp_path, lambda raw: raw["cavity"].update(L=0.9))
        code, _, err = _run(capsys, "predict", path)
        assert code == EXIT_VALIDATION
        assert "cavity" in err
        # json parses the NaN / Infinity literals; they must not reach a report,
        # nor may finite values whose linear power or 4 Omega^2 overflows, nor
        # dark noise above shot noise
        for section, key, value, named in (
            ("measurement", "frequency_hz", math.inf, "measurement.frequency_hz"),
            ("noise", "theta_rms_deg", math.nan, "noise.theta_rms_deg"),
            ("cavity", "T", -math.inf, "cavity.T"),
            ("measurement", "frequency_hz", 1e200, "measurement.frequency_hz"),
            ("detection", "dark_clearance_db", 1e308, "detection.dark_clearance_db"),
            ("detection", "dark_clearance_db", 0.5, "detection.dark_clearance_db"),
        ):
            path = _write_config(tmp_path, lambda raw: raw[section].update({key: value}))
            code, out, err = _run(capsys, "predict", path, "--corrected")
            assert (code, out) == (EXIT_VALIDATION, ""), (key, value)
            assert err.startswith(f"error: {named}: ") and err.count("\n") == 1, err

    def test_gain_at_threshold_names_pump_value(self, capsys, tmp_path):
        # x = 1.0 exactly, then x between PUMP_X_MAX and 1: all rejected at load,
        # a gain by the value the config gives
        for mode, value, message in (
            ("gain", 1e200, "classical gain 1e+200 puts x = 1 - 1/sqrt(G) above 0.999999999"),
            ("gain", 1e19, "classical gain 1e+19 puts x = 1 - 1/sqrt(G) above 0.999999999"),
            ("x", 0.9999999999, "pump parameter x must be in [0, 0.999999999], got 0.9999999999"),
        ):
            path = _write_config(tmp_path, lambda raw: raw.update(pump={"mode": mode, "value": value}))
            assert _run(capsys, "predict", path) == (
                EXIT_VALIDATION, "", f"error: pump.value: {message}\n"
            ), value

    def test_non_positive_threshold_names_it_in_every_mode(self, capsys, tmp_path):
        for mode, value in (("power", 250.0), ("gain", 8.83), ("x", 0.5)):
            pump = {"mode": mode, "value": value, "threshold_mW": -5}
            path = _write_config(tmp_path, lambda raw: raw.update(pump=pump))
            code, out, err = _run(capsys, "predict", path)
            assert (code, out) == (EXIT_VALIDATION, ""), mode
            assert err == "error: pump.threshold_mW: must be > 0 mW, got -5.0\n", mode

    def test_power_above_threshold_is_reported_in_mw(self, capsys, tmp_path):
        pump = {"mode": "power", "value": 600, "threshold_mW": 567.93}
        path = _write_config(tmp_path, lambda raw: raw.update(pump=pump))
        assert _run(capsys, "predict", path) == (
            EXIT_VALIDATION, "",
            "error: pump.value: pump power 600.0 mW is at or above threshold 567.93 mW\n",
        )

    @pytest.mark.parametrize(
        "cavity",
        [{"T": 1e-300, "L": 0.0, "round_trip_m": 1e300}, {"round_trip_m": 1e-308},
         {"round_trip_m": 5e-324}],
        ids=["decay-rate-0", "decay-rate-inf", "decay-rate-inf-subnormal"],
    )
    def test_decay_rate_out_of_range_names_cavity(self, capsys, tmp_path, cavity):
        path = _write_config(tmp_path, lambda raw: raw["cavity"].update(cavity))
        for argv in (("predict", path, "--corrected"),
                     ("sweep", path, "--pmin", "0", "--pmax", "100", "--anchor", "250:8.83")):
            code, out, err = _run(capsys, *argv)
            assert (code, out) == (EXIT_VALIDATION, ""), argv
            assert err.startswith("error: cavity: decay rate c (T + L) / l must be finite and > 0")

    def test_any_finite_jitter_width_gives_a_finite_report(self, capsys, tmp_path):
        path = _write_config(tmp_path, lambda raw: raw["noise"].update(theta_rms_deg=1e308))
        with pytest.warns(UserWarning, match="exceeds pi/4"):
            code, out, _ = _run(capsys, "predict", path, "--corrected")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["r_plus_corrected_db"] == report["r_minus_corrected_db"] > 0.0
        with pytest.warns(UserWarning, match="exceeds pi/4"):
            code, out, _ = _run(capsys, "sweep", path, "--pmin", "0", "--pmax", "100",
                                "--steps", "2", "--anchor", "250:8.83")
        assert code == EXIT_OK
        header, _, row = out.splitlines()
        columns = dict(zip(header.split(","), row.split(",")))
        assert columns["Rp_corr_dB"] == columns["Rm_corr_dB"]

    @pytest.mark.parametrize("content", [b'{"cavity": ', b"\x80\xff\xfe"], ids=["malformed", "binary"])
    def test_undecodable_config_is_named(self, capsys, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        code, out, err = _run(capsys, "predict", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"error: {path}: not valid JSON: ")

    def test_missing_config_exits_2(self, capsys):
        code, _, err = _run(capsys, "predict", "/nonexistent/config.json")
        assert code == EXIT_VALIDATION
        assert err


class TestSweep:
    def test_schema_and_monotonicity(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = _run(
            capsys, "sweep", CONFIG, "--pmin", "50", "--pmax", "450", "--steps", "9",
            "--anchor", "250:8.83", "--out", str(out_path),
        )
        assert code == EXIT_OK
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 10
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        powers = [r[0] for r in rows]
        plus_db = [r[5] for r in rows]
        minus_db = [r[6] for r in rows]
        assert powers == sorted(powers)
        # |dB| grows monotonically with pump power in both quadratures
        assert all(b > a for a, b in zip(plus_db, plus_db[1:]))
        assert all(b < a for a, b in zip(minus_db, minus_db[1:]))

    def test_single_step_matches_predict(self, capsys):
        code, out, _ = _run(
            capsys, "sweep", CONFIG, "--pmin", "250", "--pmax", "250", "--steps", "1",
            "--anchor", "250:8.83",
        )
        assert code == EXIT_OK
        header, row = out.strip().split("\n")
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        _, pred_out, _ = _run(capsys, "predict", CONFIG, "--corrected")
        report = json.loads(pred_out)
        assert values["x"] == pytest.approx(report["x"], rel=1e-6)
        assert values["R_plus_dB"] == pytest.approx(report["r_plus_db"], rel=1e-5)
        assert values["R_minus_dB"] == pytest.approx(report["r_minus_db"], rel=1e-5)
        assert values["Rm_corr_dB"] == pytest.approx(
            report["r_minus_corrected_db"], rel=1e-5
        )

    def test_benchmark_row_corrected_level(self, capsys):
        code, out, _ = _run(
            capsys, "sweep", CONFIG, "--pmin", "250", "--pmax", "250", "--steps", "1",
            "--anchor", "250:8.83", "--theta-deg", "4.3",
        )
        assert code == EXIT_OK
        row = out.strip().split("\n")[1].split(",")
        assert float(row[8]) == pytest.approx(-5.68, abs=0.10)

    def test_power_mode_config_supplies_threshold(self, capsys):
        code, out, _ = _run(
            capsys, "sweep", CONFIG_POWER, "--pmin", "50", "--pmax", "450", "--steps", "5"
        )
        assert code == EXIT_OK
        assert out.startswith(SWEEP_HEADER)

    def test_gain_mode_config_supplies_its_threshold(self, capsys, tmp_path):
        # threshold_mW is read in any pump mode; the power config differs
        # from this one only in its pump point and clearance, which sweep ignores
        path = _write_config(tmp_path, lambda raw: raw["pump"].update(threshold_mW=567.93))
        argv = ("--pmin", "50", "--pmax", "450", "--steps", "9")
        expected = _run(capsys, "sweep", CONFIG_POWER, *argv)
        assert expected[0] == EXIT_OK
        assert _run(capsys, "sweep", path, *argv) == expected
        # an --anchor still takes precedence
        anchored = ("--anchor", "250:8.83")
        assert _run(capsys, "sweep", path, *argv, *anchored) == _run(
            capsys, "sweep", CONFIG, *argv, *anchored
        )

    def test_sweep_into_threshold_exits_2(self, capsys):
        code, _, err = _run(
            capsys, "sweep", CONFIG, "--pmin", "50", "--pmax", "600", "--steps", "5",
            "--anchor", "250:8.83",
        )
        assert code == EXIT_VALIDATION
        assert "threshold" in err

    @pytest.mark.parametrize("span", [
        # (s - 1) / (s - 1) of the span puts the last row one ulp above
        # --pmax, where x passes PUMP_X_MAX though x at --pmax does not
        ("68.7", "567.92999886414", "37"),
        # the only row is --pmin, which is valid; --pmax is checked all the same
        ("50", "600", "1"),
    ])
    def test_pmax_is_checked_before_any_row(self, capsys, tmp_path, span):
        pmin, pmax, steps = span
        argv = ["sweep", CONFIG_POWER, "--pmin", pmin, "--pmax", pmax, "--steps", steps]
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: --pmax: ") and err.count("\n") == 1, err
        out_path = tmp_path / "sweep.csv"
        assert _run(capsys, *argv, "--out", str(out_path))[0] == EXIT_VALIDATION
        assert not out_path.exists()

    def test_missing_threshold_exits_2(self, capsys):
        code, _, err = _run(capsys, "sweep", CONFIG, "--pmin", "50", "--pmax", "450")
        assert code == EXIT_VALIDATION
        assert "threshold" in err

    def test_bad_anchor_exits_2(self, capsys):
        code, _, err = _run(
            capsys, "sweep", CONFIG, "--pmin", "50", "--pmax", "450", "--anchor", "250"
        )
        assert code == EXIT_VALIDATION
        assert "anchor" in err
        for anchor in ("nan:8.83", "inf:8.83", "250:nan", "250:inf"):
            code, out, _ = _run(
                capsys, "sweep", CONFIG, "--pmin", "50", "--pmax", "450", "--anchor", anchor
            )
            assert code == EXIT_VALIDATION, (anchor, out)

    @pytest.mark.parametrize(
        "anchor", ["250:0.5", "250:1e33", "250:1e20", "250:1", "0:8.83", "-250:8.83"]
    )
    def test_rejected_anchor_gain_is_named(self, capsys, anchor):
        # "=" keeps argparse from reading a negative power as an option.
        code, out, err = _run(
            capsys, "sweep", CONFIG, "--pmin", "50", "--pmax", "200", f"--anchor={anchor}"
        )
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: --anchor: ")

    def test_anchor_gain_past_the_pump_bound_is_reported_as_given(self, capsys):
        assert _run(
            capsys, "sweep", CONFIG, "--pmin", "50", "--pmax", "200", "--anchor", "250:1e200"
        ) == (
            EXIT_VALIDATION, "",
            "error: --anchor: classical gain 1e+200 puts x = 1 - 1/sqrt(G) above 0.999999999\n",
        )

    def test_anchor_with_non_finite_threshold_exits_2(self, capsys):
        # 1e300 mW at G = 1.0001 puts the threshold 1e300 / x^2 beyond float range
        code, out, err = _run(
            capsys, "sweep", CONFIG, "--pmin", "0", "--pmax", "1e300", "--steps", "2",
            "--anchor", "1e300:1.0001",
        )
        assert (code, out) == (EXIT_VALIDATION, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: --anchor: ")

    def test_non_finite_arguments_exit_2(self, capsys):
        for extra in (("--pmin", "nan"), ("--pmax", "nan"), ("--pmax", "inf"),
                      ("--theta-deg", "nan"), ("--theta-deg", "inf")):
            argv = {"--pmin": "50", "--pmax": "450", "--anchor": "250:8.83"}
            argv.update([extra])
            code, out, err = _run(
                capsys, "sweep", CONFIG, *(a for kv in argv.items() for a in kv)
            )
            assert code == EXIT_VALIDATION, (extra, out)
            assert extra[0] in err.removeprefix("error: ").split(": ")[0].split("/"), err

    def test_no_steps_exits_2(self, capsys):
        code, out, err = _run(
            capsys, "sweep", CONFIG, "--pmin", "50", "--pmax", "450", "--steps", "0",
            "--anchor", "250:8.83",
        )
        assert (code, out, err) == (EXIT_VALIDATION, "", "error: --steps: must be >= 1\n")

    def test_one_step_and_two_steps_start_on_the_same_row(self, capsys):
        # One grid expression serves every step count, so a -0 mW start
        # prints as 0 whether or not the sweep has a second row.
        rows = []
        for steps in ("1", "2"):
            code, out, _ = _run(
                capsys, "sweep", CONFIG, "--pmin=-0", "--pmax=-0", "--steps", steps,
                "--anchor", "250:8.83",
            )
            assert code == EXIT_OK
            rows.append(out.splitlines()[1])
        assert rows[0] == rows[1] == "0,0,1,1,1,0,0,0,0"

    def test_memory_does_not_grow_with_steps(self, tmp_path):
        argv = ["sweep", CONFIG, "--pmin", "50", "--pmax", "450", "--steps", "20000",
                "--anchor", "250:8.83", "--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == EXIT_OK  # warm-up: first-call imports and caches
        tracemalloc.start()
        try:
            assert cli.main(argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Each row is written as it is made; a list of all 20,000 takes ~6 MB.
        assert peak < 1_000_000

    def test_reader_leaving_early_exits_0(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sqzopo", "sweep", CONFIG, "--pmin", "50", "--pmax", "450",
             "--steps", "20000", "--anchor", "250:8.83"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline() == SWEEP_HEADER + "\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (EXIT_OK, "")


class TestCorrect:
    def test_benchmark_correction(self, capsys):
        # clearance -17.7469 dB is the linear 0.0168 of the benchmark pair
        code, out, _ = _run(
            capsys, "correct", "--level-db", "-5.6", "--clearance-db", "-17.7469"
        )
        assert code == EXIT_OK
        assert float(out) == pytest.approx(-5.80, abs=0.02)

    def test_shot_noise_unchanged(self, capsys):
        code, out, _ = _run(capsys, "correct", "--level-db", "0", "--clearance-db", "-20")
        assert code == EXIT_OK
        assert float(out) == pytest.approx(0.0, abs=1e-6)

    def test_ideal_detector_identity(self, capsys):
        # a clearance of -inf dB is a noiseless detector: level unchanged
        code, out, _ = _run(capsys, "correct", "--level-db", "-5.6", "--clearance-db=-inf")
        assert code == EXIT_OK
        assert float(out) == pytest.approx(-5.6, abs=1e-9)

    def test_infeasible_reading_exits_3(self, capsys):
        code, _, err = _run(
            capsys, "correct", "--level-db", "-20", "--clearance-db", "-17.7469"
        )
        assert code == EXIT_INFEASIBLE
        assert "dark" in err

    def test_nonnegative_clearance_exits_2(self, capsys):
        code, _, _ = _run(capsys, "correct", "--level-db", "-5.6", "--clearance-db", "3")
        assert code == EXIT_VALIDATION
        # 1e308 dB is finite, but its linear power overflows; each bad value
        # names its own flag
        for level, clearance, named in (
            ("nan", "-17.75", "--level-db"),
            ("inf", "-17.75", "--level-db"),
            ("nan", "-inf", "--level-db"),
            ("-5.6", "nan", "--clearance-db"),
            ("-5.6", "-1e-300", "--clearance-db"),
            ("1e308", "-20", "--level-db"),
        ):
            code, out, err = _run(
                capsys, "correct", f"--level-db={level}", f"--clearance-db={clearance}"
            )
            assert code == EXIT_VALIDATION, (level, clearance, out)
            assert out == ""
            assert err.startswith(f"error: {named}: ") and err.count("\n") == 1


class TestFit:
    def test_theta_fit_json(self, capsys):
        code, out, _ = _run(capsys, "fit", CONFIG, "--sq-db", "-5.80")
        assert code == EXIT_OK
        result = json.loads(out)
        assert set(result) == {"theta_rms_deg", "x", "gain", "residual_db2", "status"}
        assert result["status"] == "ok"
        assert abs(result["theta_rms_deg"] - 4.3) <= 0.6
        assert result["gain"] == pytest.approx(8.83, rel=1e-9)

    def test_joint_fit_matches_library(self, capsys):
        code, out, _ = _run(
            capsys, "fit", CONFIG, "--sq-db", "-5.80", "--asq-db", "12.72", "--joint"
        )
        assert code == EXIT_OK
        result = json.loads(out)
        cfg = cli.ExperimentConfig.from_file(CONFIG)
        derived = cfg.derived()
        expected = fit_joint(
            MeasuredLevels(-5.80, 12.72),
            derived["alpha"], derived["rho"], derived["detuning"],
        )
        assert result["theta_rms_deg"] == pytest.approx(expected.theta_rms_deg, rel=1e-9)
        assert result["x"] == pytest.approx(expected.x, rel=1e-9)
        assert result["x"] == pytest.approx(0.646, abs=0.005)
        assert result["theta_rms_deg"] == pytest.approx(4.4, abs=0.15)

    def test_joint_requires_anti_squeezing(self, capsys):
        code, _, err = _run(capsys, "fit", CONFIG, "--sq-db", "-5.80", "--joint")
        assert code == EXIT_VALIDATION
        assert "asq-db" in err

    def test_infeasible_fit_exits_3(self, capsys):
        code, out, _ = _run(capsys, "fit", CONFIG, "--sq-db", "-9.5")
        assert code == EXIT_INFEASIBLE
        assert json.loads(out)["status"] == "infeasible"

    def test_theta_fit_reads_no_anti_squeezing(self, capsys, tmp_path):
        # Unpumped, the predicted anti-squeezing is 0 dB; the jitter-only fit
        # must not stand that in for the reading it was not given.
        path = _write_config(tmp_path, lambda raw: raw.update(pump={"mode": "x", "value": 0.0}))
        code, out, err = _run(capsys, "fit", path, "--sq-db", "-1")
        assert (code, err) == (EXIT_INFEASIBLE, "")
        assert json.loads(out)["status"] == "infeasible"
        assert _run(capsys, "fit", path, "--sq-db", "-1", "--asq-db", "1") == (code, out, err)

    @pytest.mark.parametrize("joint", [False, True])
    def test_non_finite_levels_exit_2(self, capsys, joint):
        # the joint fit also reads the anti-squeezing level, whose linear power
        # overflows at 4000 dB
        for sq, asq in (("nan", "12.72"), ("-inf", "12.72"), ("-5.80", "nan"),
                        ("-5.80", "inf")) + (("-5.80", "4000"),) * joint:
            argv = ["fit", CONFIG, f"--sq-db={sq}", f"--asq-db={asq}"] + ["--joint"] * joint
            code, out, err = _run(capsys, *argv)
            assert code == EXIT_VALIDATION, (sq, asq, out)
            assert out == "" and "finite" in err
            assert err.startswith("error: --sq-db/--asq-db: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "levels",
        [
            ["--sq-db=-1e308", "--asq-db=12"],
            ["--sq-db=-1e200", "--asq-db=12", "--joint"],
            ["--sq-db=-4000", "--asq-db=12", "--joint"],
        ],
    )
    def test_squeezing_without_linear_ratio_exits_2(self, capsys, levels):
        # Below about -3233 dB the linear power ratio underflows to 0: the
        # squared dB residual would overflow, or the joint fit would report
        # a pump at threshold with status ok.
        code, out, err = _run(capsys, "fit", CONFIG, *levels)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: --sq-db/--asq-db: squeezing level ")
        assert err.count("\n") == 1


class TestOracle:
    def test_csv_schema(self, capsys):
        code, out, _ = _run(capsys, "oracle", CONFIG, "--seed", "3", "--segments", "8")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == ORACLE_HEADER
        assert len(lines) == 2
        row = lines[1].split(",")
        assert math.isnan(float(row[0]))  # gain-mode config has no pump power
        assert int(row[-2]) == 8
        assert int(row[-1]) == 3

    def test_power_config_reports_pump(self, capsys):
        code, out, _ = _run(capsys, "oracle", CONFIG_POWER, "--seed", "3", "--segments", "8")
        assert code == EXIT_OK
        assert float(out.strip().split("\n")[1].split(",")[0]) == pytest.approx(250.0)

    def test_assert_passes_with_adequate_statistics(self, capsys):
        code, _, err = _run(
            capsys, "oracle", CONFIG, "--seed", "7", "--segments", "96", "--assert"
        )
        assert code == EXIT_OK, err

    def test_assert_detects_statistical_miss(self, capsys):
        # seed chosen so the 8-segment estimate strays past three standard
        # errors, exercising the mismatch exit path
        code, _, err = _run(
            capsys, "oracle", CONFIG, "--seed", "1", "--segments", "8", "--assert"
        )
        assert code == EXIT_ORACLE_MISMATCH
        assert "mismatch" in err

    @pytest.mark.parametrize(
        "unix_only",
        [lambda mp: mp.delattr(os, "sysconf"), lambda mp: mp.setattr(os, "sysconf_names", {})],
        ids=["no-sysconf", "no-sysconf-names"],
    )
    def test_runs_without_os_sysconf(self, capsys, monkeypatch, unix_only):
        # As on Windows: the physical-memory check is skipped, not the run.
        argv = ("oracle", CONFIG, "--seed", "3", "--segments", "8")
        expected = _run(capsys, *argv)
        assert expected[0] == EXIT_OK
        unix_only(monkeypatch)
        assert _run(capsys, *argv) == expected

    def test_run_larger_than_memory_exits_2(self, capsys):
        # about 5e9 steps per segment; rejected before anything is allocated
        code, out, err = _run(capsys, "oracle", CONFIG, "--duration", "1")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "bytes of working memory" in err


class TestBenchmarkDataset:
    def test_list_shows_two_crystals(self, capsys):
        code, out, _ = _run(capsys, "paper", "--list")
        assert code == EXIT_OK
        assert out.count("crystal_") == 2
        assert "-5.6" in out
        assert "anchor" not in out  # anchors are printed as bracketed notes
        assert "[" in out

    def test_check_passes_and_prints_line_per_criterion(self, capsys):
        code, out, _ = _run(capsys, "paper", "--check")
        assert code == EXIT_OK
        lines = [line for line in out.strip().split("\n") if line]
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)

    def test_check_with_corrupted_dataset_fails(self, capsys, tmp_path):
        data = load_dataset()
        data["crystals"][0]["records"]["rho"]["value"] = 0.5
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(data))
        code, out, _ = _run(capsys, "paper", "--check", "--dataset", str(path))
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda recs: recs.pop("gain"),
            lambda recs: recs["theta_rms_deg"].pop("uncertainty"),
            lambda recs: recs["rho"].update(value="0.932"),
            lambda recs: recs["alpha"].update(value=math.nan),
            lambda recs: recs.update(detuning=0.028),
        ],
        ids=["missing-record", "missing-uncertainty", "string-value", "nan-value",
             "bare-number"],
    )
    def test_check_with_incomplete_dataset_exits_2(self, capsys, tmp_path, corrupt):
        data = load_dataset()
        corrupt(data["crystals"][0]["records"])
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, "paper", "--check", "--dataset", str(path))
        assert code == EXIT_VALIDATION
        assert out == "" and "crystal_1." in err

    @pytest.mark.parametrize(
        "record, value",
        [("theta_rms_deg", -2.0), ("gain", 0.5), ("alpha", -1.0), ("rho", 1.5),
         ("detuning", -0.1), ("inferred_squeezing_db", 1.0),
         # at or below the shipped -17.75 dB clearance: no optical level
         ("measured_squeezing_db", -20.0)],
    )
    def test_check_with_unphysical_record_names_it(self, capsys, tmp_path, record, value):
        data = load_dataset()
        data["crystals"][0]["records"][record]["value"] = value
        path = tmp_path / "unphysical.json"
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, "paper", "--check", "--dataset", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"error: crystal_1.{record}: ")

    def test_check_with_gain_past_the_pump_bound_names_the_gain(self, capsys, tmp_path):
        data = load_dataset()
        data["crystals"][0]["records"]["gain"]["value"] = 1e200
        path = tmp_path / "huge_gain.json"
        path.write_text(json.dumps(data))
        assert _run(capsys, "paper", "--check", "--dataset", str(path)) == (
            EXIT_VALIDATION, "",
            "error: crystal_1.gain: classical gain 1e+200 puts x = 1 - 1/sqrt(G) above "
            "0.999999999\n",
        )

    def test_check_with_huge_jitter_record_fails_its_criteria(self, capsys, tmp_path):
        # A finite record far outside the model runs to FAIL lines, not a traceback.
        data = load_dataset()
        data["crystals"][0]["records"]["theta_rms_deg"]["value"] = 1e308
        path = tmp_path / "huge_jitter.json"
        path.write_text(json.dumps(data))
        with pytest.warns(UserWarning, match="exceeds pi/4"):
            code, out, _ = _run(capsys, "paper", "--check", "--dataset", str(path))
        assert code == EXIT_CHECK_FAILED
        assert [line[:4] for line in out.splitlines()] == ["PASS"] * 4 + ["FAIL"] * 2

    def test_check_without_crystal_1_exits_2(self, capsys, tmp_path):
        for data in ({"crystals": []}, {"crystals": {}}, [], {"crystals": [{"name": "crystal_1"}]}):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            code, _, err = _run(capsys, "paper", "--check", "--dataset", str(path))
            assert code == EXIT_VALIDATION, data
            assert err

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (lambda c1: c1["records"].pop("gain"), "crystal_1.gain: "),
            (lambda c1: c1["records"]["theta_rms_deg"].pop("uncertainty"),
             "crystal_1.theta_rms_deg.uncertainty: "),
            (lambda c1: c1.update(name="crystal_3"), "crystal_1: "),
            # of two missing records, the one the check reads first is named
            (lambda c1: [c1["records"].pop(k)
                         for k in ("predicted_squeezing_db", "theta_rms_deg")],
             "crystal_1.theta_rms_deg: "),
        ],
        ids=["missing-record", "missing-uncertainty", "no-crystal-1", "two-missing"],
    )
    def test_list_needs_only_well_formed_records(self, capsys, tmp_path, corrupt, named):
        data = load_dataset()
        corrupt(data["crystals"][0])
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(data))
        code, out, _ = _run(capsys, "paper", "--list", "--dataset", str(path))
        assert code == EXIT_OK and "crystal_2:" in out
        code, out, err = _run(capsys, "paper", "--check", "--dataset", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"error: {named}")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda recs: recs["inferred_squeezing_db"].pop("anchor"),
            lambda recs: recs["inferred_anti_squeezing_db"].update(value="abc"),
            lambda recs: recs["inferred_squeezing_db"].update(uncertainty=math.inf),
            lambda recs: recs["inferred_squeezing_db"].update(anchor=5),
        ],
        ids=["missing-anchor", "string-value", "inf-uncertainty", "number-anchor"],
    )
    def test_list_with_malformed_crystal_2_exits_2(self, capsys, tmp_path, corrupt):
        data = load_dataset()
        corrupt(data["crystals"][1]["records"])
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        for mode in ("--list", "--check"):
            code, out, err = _run(capsys, "paper", mode, "--dataset", str(path))
            assert code == EXIT_VALIDATION
            assert out == "" and err.startswith("error: crystal_2.")

    def test_negative_uncertainty_is_named(self, capsys, tmp_path):
        data = load_dataset()
        data["crystals"][0]["records"]["theta_rms_deg"]["uncertainty"] = -0.6
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(data))
        for mode in ("--list", "--check"):
            code, out, err = _run(capsys, "paper", mode, "--dataset", str(path))
            assert (code, out) == (EXIT_VALIDATION, "")
            assert err == "error: crystal_1.theta_rms_deg.uncertainty: must be >= 0, got -0.6\n"

    def test_crystal_without_a_string_name_is_named(self, capsys, tmp_path):
        data = load_dataset()
        data["crystals"][1]["name"] = 5
        path = tmp_path / "nameless.json"
        path.write_text(json.dumps(data))
        for mode in ("--list", "--check"):
            code, out, err = _run(capsys, "paper", mode, "--dataset", str(path))
            assert (code, out) == (EXIT_VALIDATION, "")
            assert err == "error: crystals[1].name: expected a string\n"

    def test_malformed_json_dataset_is_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        for content in (b'{"crystals": [', b"\x80\xff\xfe"):  # truncated, not UTF-8
            path.write_bytes(content)
            for mode in ("--list", "--check"):
                code, out, err = _run(capsys, "paper", mode, "--dataset", str(path))
                assert (code, out) == (EXIT_VALIDATION, ""), content
                assert err.startswith(f"error: {path}: not valid JSON: ")

    @staticmethod
    def _utf8_dataset(tmp_path, note: str) -> str:
        """The shipped dataset, with ``note`` added to crystal_1's rho anchor,
        written as UTF-8."""
        raw = load_dataset()
        raw["crystals"][0]["records"]["rho"]["anchor"] += note
        path = tmp_path / "utf8.json"
        path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
        return str(path)

    def test_utf8_dataset_is_read_under_an_ascii_locale(self, tmp_path):
        # JSON is UTF-8 (RFC 8259, section 8.1), whatever the locale's encoding.
        path = self._utf8_dataset(tmp_path, " \u00b10.001")
        proc = _python("sqzopo", "paper", "--check", "--dataset", path, module=True,
                       env=_ascii_locale())
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), proc.stderr
        assert proc.stdout == PINNED_OUTPUT["paper-check"][1]

    def test_unencodable_anchor_is_escaped_under_an_ascii_locale(self, tmp_path):
        # stdout cannot carry U+0101 in ASCII: it is written as a backslash
        # escape, as stderr writes it, and every other line is unchanged.
        path = self._utf8_dataset(tmp_path, " \u0101")
        proc = _python("sqzopo", "paper", "--list", "--dataset", path, module=True,
                       env=_ascii_locale())
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), proc.stderr
        assert proc.stdout == PINNED_OUTPUT["paper-list"][1].replace(
            "L = 0.011]", "L = 0.011 \\u0101]"
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda recs: recs.pop("inferred_anti_squeezing_db"),
            lambda recs: recs["inferred_anti_squeezing_db"].update(value=999.0),
        ],
        ids=["missing", "999-dB"],
    )
    def test_check_reads_no_unchecked_anti_squeezing_record(self, capsys, tmp_path, corrupt):
        # No check compares crystal_1's inferred anti-squeezing level, and the
        # jitter-only fit reads the squeezing level alone.
        data = load_dataset()
        corrupt(data["crystals"][0]["records"])
        path = tmp_path / "no_anti.json"
        path.write_text(json.dumps(data))
        shipped = _run(capsys, "paper", "--check")
        assert _run(capsys, "paper", "--check", "--dataset", str(path)) == shipped
        assert shipped[0] == EXIT_OK

    def test_library_checks_match_the_command(self, capsys):
        results = dataset.reproduce(load_dataset(), ExperimentConfig.from_file(CONFIG))
        lines = [f"{'PASS' if ok else 'FAIL'}  [{i}] {name}: {detail}\n"
                 for i, (name, ok, detail) in enumerate(results, start=1)]
        assert len(results) == 6 and all(ok for _, ok, _ in results)
        assert "".join(lines) == _run(capsys, "paper", "--check")[1]

    def test_library_checks_without_a_clearance_skip_the_correction(self):
        # the power-mode config gives no clearance, so nothing is corrected
        results = dataset.reproduce(load_dataset(), ExperimentConfig.from_file(CONFIG_POWER))
        assert len(results) == 6 and all(ok for _, ok, _ in results)
        assert results[-1][2].endswith("(no clearance configured, correction step skipped)")

    def test_list_and_check_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["paper", "--list", "--check"])
        assert exc.value.code == EXIT_VALIDATION


# Exact stdout on the shipped gain-mode config and dataset.  The reports are
# plain float arithmetic, so any change to a column, its order or its
# formatting, or to a value or anchor of the dataset, shows up here.
PINNED_OUTPUT = {
    "predict-corrected-csv": (
        ["predict", CONFIG, "--corrected", "--format", "csv"],
        "alpha,rho,gamma_rad_s,x,gain,detuning,r_plus,r_minus,r_plus_db,r_minus_db,"
        "theta_rms_deg,r_plus_corrected_db,r_minus_corrected_db\n"
        "0.95269,0.931677,2.25545e+08,0.663473,8.83,0.0278578,21.245,0.149681,"
        "13.2726,-8.24834,4.3,13.2483,-5.7214\n",
    ),
    "sweep-anchor": (
        ["sweep", CONFIG, "--pmin", "50", "--pmax", "450", "--steps", "9",
         "--anchor", "250:8.83"],
        "pump_mW,x,G,R_plus,R_minus,R_plus_dB,R_minus_dB,Rp_corr_dB,Rm_corr_dB\n"
        "50,0.296714,2.02179,3.11658,0.374646,4.93678,-4.26379,4.91533,-4.08932\n"
        "100,0.419617,2.96873,5.38246,0.261893,7.30981,-5.81877,7.2866,-5.36747\n"
        "150,0.513924,4.23245,8.62253,0.204976,9.35635,-6.88297,9.33254,-5.98391\n"
        "200,0.593428,6.04959,13.511,0.1712,11.3069,-7.66496,11.2828,-6.09218\n"
        "250,0.663473,8.83,21.245,0.149681,13.2726,-8.24834,13.2483,-5.7214\n"
        "300,0.726798,13.3978,34.1916,0.135518,15.3392,-8.68003,15.3149,-4.86438\n"
        "350,0.785032,21.6398,57.5173,0.126124,17.598,-8.99201,17.5736,-3.49149\n"
        "400,0.839235,38.6914,103.924,0.119989,20.1671,-9.20857,20.1428,-1.54052\n"
        "450,0.890143,82.8595,209.291,0.116167,23.2075,-9.34919,23.1831,1.09816\n",
    ),
    "fit-joint": (
        ["fit", CONFIG, "--sq-db", "-5.80", "--asq-db", "12.72", "--joint"],
        "{\n"
        '  "theta_rms_deg": 4.381744799568733,\n'
        '  "x": 0.6456469025397391,\n'
        '  "gain": 7.963931819179099,\n'
        '  "residual_db2": 1.4617592573745349e-27,\n'
        '  "status": "ok"\n'
        "}\n",
    ),
    # no (x, theta_rms) reproduces -9 dB: the theta_rms = 0 edge answers
    "fit-joint-edge": (
        ["fit", CONFIG, "--sq-db", "-9", "--asq-db", "12.7", "--joint"],
        "{\n"
        '  "theta_rms_deg": 0.0,\n'
        '  "x": 0.651766889814156,\n'
        '  "gain": 8.2463141697351,\n'
        '  "residual_db2": 0.7585305299271945,\n'
        '  "status": "ok"\n'
        "}\n",
    ),
    "paper-check": (
        ["paper", "--check"],
        "PASS  [1] escape efficiency: got 0.9317, expected 0.932 +/- 0.001\n"
        "PASS  [2] detection efficiency: got 0.9527, expected 0.953 +/- 0.001\n"
        "PASS  [3] detuning: got 0.0279, expected 0.028 +/- 0.001\n"
        "PASS  [4] jitter-free prediction: got (-8.26, 13.27) dB, expected (-8.2, 13.27) dB\n"
        "PASS  [5] jitter-corrected prediction: got (-5.73, 13.25) dB, "
        "expected (-5.68, 13.25) dB\n"
        "PASS  [6] jitter recovery from measured squeezing: got 4.22 deg, "
        "expected 4.3 +/- 0.6 deg (corrected raw level -5.80 dB vs -5.8 dB)\n",
    ),
    "paper-list": (
        ["paper", "--list"],
        "946 nm PPKTP sub-threshold OPO squeezed vacuum\n"
        "\n"
        "crystal_1:\n"
        "  measured_squeezing_db = -5.6 +/- 0.1\n"
        "      [squeezed-quadrature noise power at 250 mW pump, "
        "zero-span 1 MHz, 30-trace average, circuit noise not removed]\n"
        "  measured_anti_squeezing_db = 12.7 +/- 0.1\n"
        "      [anti-squeezed-quadrature noise power at 250 mW pump, "
        "zero-span 1 MHz, 30-trace average, circuit noise not removed]\n"
        "  inferred_squeezing_db = -5.8 +/- 0.1\n"
        "      [squeezing level after subtracting detector circuit noise]\n"
        "  inferred_anti_squeezing_db = 12.72 +/- 0.1\n"
        "      [anti-squeezing level after subtracting detector circuit noise]\n"
        "  gain = 8.83\n"
        "      [measured classical parametric amplification gain]\n"
        "  theta_rms_deg = 4.3 +/- 0.6\n"
        "      [total rms phase jitter from the error-signal noise of the locking circuits]\n"
        "  alpha = 0.953\n"
        "      [detection efficiency from zeta ~ 1, eta = 0.994, xi = 0.979]\n"
        "  rho = 0.932\n"
        "      [escape efficiency from T = 0.15, L = 0.011]\n"
        "  detuning = 0.028\n"
        "      [1 MHz sideband over the cavity decay rate c (T + L) / l with l = 0.214 m]\n"
        "  predicted_squeezing_db = -8.2\n"
        "      [jitter-free model prediction at the quoted (alpha, rho, G, detuning)]\n"
        "  predicted_anti_squeezing_db = 13.27\n"
        "      [jitter-free model prediction at the quoted (alpha, rho, G, detuning)]\n"
        "  corrected_squeezing_db = -5.68 +/- 0.56\n"
        "      [model prediction including 4.3 deg rms phase jitter]\n"
        "  corrected_anti_squeezing_db = 13.25 +/- 0.1\n"
        "      [model prediction including 4.3 deg rms phase jitter]\n"
        "\n"
        "crystal_2:\n"
        "  inferred_squeezing_db = -5.73 +/- 0.1\n"
        "      [repeat run with a second PPKTP crystal, after circuit-noise correction]\n"
        "  inferred_anti_squeezing_db = 12.22 +/- 0.1\n"
        "      [repeat run with a second PPKTP crystal, after circuit-noise correction]\n"
    ),
}


class TestExactOutput:
    @pytest.mark.parametrize("name", list(PINNED_OUTPUT))
    def test_stdout_bytes(self, capsys, name):
        argv, expected = PINNED_OUTPUT[name]
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out == expected

    @pytest.mark.parametrize("name", list(PINNED_OUTPUT))
    def test_redirected_stdout_bytes(self, capsys, name):
        # A benchmark's in-process call swaps sys.stdout for an io.StringIO,
        # which has no encoding: the writer must find it at call time.
        argv, expected = PINNED_OUTPUT[name]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(list(argv))
        assert (code, sink.getvalue()) == (EXIT_OK, expected)
        assert capsys.readouterr() == ("", "")

    def test_out_file_bytes(self, capsys, tmp_path):
        argv, expected = PINNED_OUTPUT["sweep-anchor"]
        path = tmp_path / "sweep.csv"
        assert _run(capsys, *argv, "--out", str(path)) == (EXIT_OK, "", "")
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "argv",
        [PINNED_OUTPUT["sweep-anchor"][0], ("oracle", CONFIG, "--seed", "3", "--segments", "8")],
        ids=["sweep", "oracle"],
    )
    def test_out_dash_is_stdout(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        expected = _run(capsys, *argv)
        assert expected[0] == EXIT_OK
        assert _run(capsys, *argv, "--out", "-") == expected
        assert list(tmp_path.iterdir()) == []  # no file named "-"

    def test_oracle_row_matches_library(self, capsys):
        code, out, _ = _run(capsys, "oracle", CONFIG, "--seed", "3", "--segments", "8")
        assert code == EXIT_OK
        header, row = out.splitlines()

        cfg = ExperimentConfig.from_file(CONFIG)
        derived = cfg.derived()
        x = derived["x"]
        dt = 2.0 * cli.ORACLE_STABILITY_STEP / (derived["gamma_rad_s"] * (1.0 + x))
        sim = LangevinConfig.from_cavity(
            cfg.opo_cavity(), x=x, dt=dt, duration=cli.ORACLE_STEPS_PER_SEGMENT * dt,
            seed=3, segments=8,
        )
        (pt,) = simulate_output_spectrum(sim, [cfg.omega()])
        corrected = degrade_exact(QuadratureVariances(pt.r_plus, pt.r_minus), cfg.phase_noise())
        columns = [
            math.nan, x, derived["gain"], pt.r_plus, pt.r_minus,
            10.0 * math.log10(pt.r_plus), 10.0 * math.log10(pt.r_minus),
            corrected.r_plus_db, corrected.r_minus_db, pt.stderr_plus, pt.stderr_minus,
        ]
        expected = [f"{v:.6g}" for v in columns] + ["8", "3"]
        assert header == ORACLE_HEADER
        assert dict(zip(header.split(","), row.split(","))) == dict(
            zip(header.split(","), expected)
        )


def _ascii_locale() -> dict[str, str]:
    """Environment for an interpreter whose locale encoding is ASCII; skips
    the test where ``LC_ALL=C`` selects another encoding."""
    env = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    probe = _python(
        "import codecs, locale; print(codecs.lookup(locale.getpreferredencoding(False)).name)",
        env=env,
    )
    if probe.stdout.strip() != "ascii":
        pytest.skip(f"LC_ALL=C selects {probe.stdout.strip()!r}, not ASCII")
    return env


def _python(
    code: str, *args: str, module: bool = False, flags: tuple[str, ...] = (),
    env: dict[str, str] | None = None,
) -> subprocess.CompletedProcess:
    """Run ``code`` (or ``-m code``) in a fresh interpreter on the source
    tree, with interpreter ``flags`` before it and ``env`` added to its
    environment."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    cmd = [sys.executable, *flags, "-m" if module else "-c", code, *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


# Which of numpy, scipy and concurrent.futures the interpreter has loaded.
_LOADED = "[m for m in ('concurrent.futures', 'numpy', 'scipy') if m in sys.modules]"

# Which sqzopo submodules the interpreter has loaded, without the package prefix.
_SUBMODULES = "sorted(m[len('sqzopo.'):] for m in sys.modules if m.startswith('sqzopo.'))"

# Runs cli.main and prints its exit code and both loaded sets as JSON.
_GATE = f"""
import json, sys
from sqzopo import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, {_LOADED}, {_SUBMODULES}]))
"""

# What every subcommand loads: the CLI, its config parser and the forward model.
_CORE = ["cli", "config", "model", "phase_noise"]


class TestImportGate:
    """Only the oracle computes with numpy, so no other subcommand may load
    it; nothing loads scipy, and the oracle's threads need no
    concurrent.futures.  Each subcommand loads only the sqzopo modules it
    runs, and ``import sqzopo`` loads none."""

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (["predict", CONFIG, "--corrected"], []),
            (["sweep", CONFIG, "--pmin", "50", "--pmax", "450", "--steps", "9",
              "--anchor", "250:8.83"], []),
            (["correct", "--level-db", "-5.6", "--clearance-db", "-17.75"], ["calibration"]),
            (["fit", CONFIG, "--sq-db", "-5.80"], ["calibration"]),
            (["fit", CONFIG, "--sq-db", "-5.80", "--asq-db", "12.72", "--joint"],
             ["calibration"]),
            (["paper", "--check"], ["calibration", "dataset"]),
            (["paper", "--list"], ["dataset"]),
        ],
        ids=["predict-corrected", "sweep-anchor", "correct", "fit", "fit-joint",
             "paper-check", "paper-list"],
    )
    def test_subcommand_loads_neither(self, argv, modules):
        proc = _python(_GATE, *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            EXIT_OK, [], sorted(_CORE + modules)
        ]

    def test_oracle_subcommand_loads_numpy_only(self):
        proc = _python(_GATE, "oracle", CONFIG, "--segments", "8")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            EXIT_OK, ["numpy"], sorted(_CORE + ["langevin"])
        ]

    def test_package_import_loads_no_submodule(self):
        proc = _python(f"import sys, sqzopo\nprint({_SUBMODULES})\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]

    def test_every_export_resolves(self):
        # In a fresh interpreter, so each name is looked up through the lazy
        # namespace rather than found already loaded.
        proc = _python(
            "import sqzopo\n"
            "missing = [n for n in sqzopo.__all__ if getattr(sqzopo, n, None) is None]\n"
            "print(len(sqzopo.__all__), missing)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["30 []"]

    @pytest.mark.parametrize(
        "name", ["calibration", "cli", "config", "dataset", "langevin", "model", "phase_noise"]
    )
    def test_submodule_resolves_after_bare_import(self, name):
        proc = _python(
            "import sqzopo\n"
            f"module = sqzopo.{name}\n"
            "print(module.__name__)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"sqzopo.{name}"]

    @pytest.mark.parametrize("name", ["no_such_name", "__wrapped__", "__main__", "numpy"])
    def test_unknown_name_raises_attribute_error(self, name):
        import sqzopo

        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(sqzopo, name)

    def test_exports_keep_their_identity(self):
        import sqzopo
        from sqzopo import calibration, model

        assert sqzopo.InfeasibleCorrectionError is model.InfeasibleCorrectionError
        assert calibration.InfeasibleCorrectionError is model.InfeasibleCorrectionError
        assert sqzopo.fit_theta is calibration.fit_theta
        assert "fit_theta" in vars(sqzopo)  # cached after the first lookup

    def test_quadrature_loads_neither(self):
        proc = _python(
            "import sys\n"
            "from sqzopo import *\n"
            "degrade_quadrature(QuadratureVariances(21.2, 0.15), PhaseNoiseModel(0.075))\n"
            f"print({_LOADED})\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]

    def test_cli_import_loads_no_typing_or_resources(self):
        # -S keeps site-packages' .pth files from importing any of them first;
        # dataclasses, with the inspect it loads, would add ~15 ms to every CLI call.
        modules = ("typing", "importlib.resources", "dataclasses", "inspect")
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys; sys.path.insert(0, {str(SRC)!r}); import sqzopo.cli; "
             f"print([m for m in {modules!r} if m in sys.modules])"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]

    def test_oracle_loads_numpy_only(self):
        proc = _python(
            "import sys\n"
            "from sqzopo import *\n"
            f"print({_LOADED})\n"
            "simulate_output_spectrum(LangevinConfig(1.0, 0.0, 0.0, 0.01, 100.0, 0, 8), [1.0])\n"
            f"print({_LOADED})\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "['numpy']"]


@pytest.mark.parametrize("module", ["sqzopo", "sqzopo.cli"])
def test_python_m_matches_main(capsys, module):
    proc = _python(module, "predict", CONFIG, module=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    code, out, _ = _run(capsys, "predict", CONFIG)
    assert code == EXIT_OK
    assert proc.stdout == out
    assert json.loads(proc.stdout)["gain"] == pytest.approx(8.83, rel=1e-9)


class TestNoTraceback:
    """Inputs that must end in one error line and exit 2, not in a traceback
    with exit 1, the code of a failed ``paper --check``."""

    # json.loads raises RecursionError, not ValueError, on deep nesting;
    # ~1,000 levels do it on some interpreters, 100,000 on all.
    DEPTH = 100_000

    @pytest.mark.parametrize(
        "argv, content",
        [(("predict",), "[" * DEPTH + "]" * DEPTH),
         (("paper", "--list", "--dataset"), '{"a": ' * DEPTH + "1" + "}" * DEPTH)],
        ids=["config", "dataset"],
    )
    def test_deeply_nested_json_is_named(self, tmp_path, argv, content):
        path = tmp_path / "deep.json"
        path.write_text(content)
        proc = _python("sqzopo", *argv, str(path), module=True)
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, ""), proc.stderr
        assert proc.stderr.startswith(f"error: {path}: not valid JSON: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_warning_raised_as_error_exits_2(self, tmp_path, command):
        # Under -W error the pi/4 warning of a wide jitter is an exception.
        if command == "predict":
            argv = ("predict", _write_config(
                tmp_path, lambda raw: raw["noise"].update(theta_rms_deg=50.0)))
        else:
            argv = ("sweep", CONFIG, "--theta-deg", "60", "--pmin", "50", "--pmax", "450",
                    "--steps", "2", "--anchor", "250:8.83")
        proc = _python("sqzopo", *argv, module=True, flags=("-W", "error"))
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, ""), proc.stderr
        assert proc.stderr.startswith("error: theta_rms = ")
        assert "exceeds pi/4" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [("predict", "--corrected"),
         ("sweep", "--pmin", "50", "--pmax", "450", "--steps", "2", "--anchor", "250:8.83"),
         ("fit", "--sq-db", "-5.80"),
         ("oracle", "--segments", "8")],
        ids=lambda argv: argv[0],
    )
    def test_wide_jitter_warns_once(self, tmp_path, argv):
        # The config builds its jitter model as it loads.  The oracle's numpy
        # import resets the registry that keeps that warning from repeating,
        # so no jitter model may be built after it.
        path = _write_config(tmp_path, lambda raw: raw["noise"].update(theta_rms_deg=50.0))
        proc = _python("sqzopo", argv[0], path, *argv[1:], module=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr.count("exceeds pi/4") == 1, proc.stderr
