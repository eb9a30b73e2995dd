"""Acceptance gate: the numbered reproduction criteria, each at its stated
tolerance, one printed PASS line per criterion (run with ``pytest -s`` to
see them).

Criterion 9 runs the fixed-seed Monte-Carlo grid and dominates the
runtime (about a third of the suite's time on 2 cores); criterion 10, the
synthesize-then-fit property, takes milliseconds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sqzopo import cli
from sqzopo.calibration import MeasuredLevels, fit_joint, fit_theta
from sqzopo.langevin import LangevinConfig, simulate_output_spectrum
from sqzopo.model import (
    DetectionChain,
    OpoCavity,
    PumpOperatingPoint,
    cavity_decay_rate,
    detection_efficiency,
    detuning,
    escape_efficiency,
    forward_variances,
    pump_parameter,
)
from sqzopo.phase_noise import (
    PhaseNoiseModel,
    degrade_approx,
    degrade_exact,
    degrade_quadrature,
)

CAVITY = OpoCavity(T=0.15, L=0.011, round_trip_length=0.214)
CHAIN = DetectionChain(zeta=1.0, eta=0.994, xi=0.979)
BENCH_X = pump_parameter(PumpOperatingPoint.from_gain(8.83))
THEORY = forward_variances(0.953, 0.932, BENCH_X, 0.028)

DB = 10.0 / math.log(10.0)  # dB per unit relative deviation


def _report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_escape_efficiency():
    rho = escape_efficiency(CAVITY)
    assert rho == pytest.approx(0.932, abs=1e-3)
    _report(1, f"escape efficiency {rho:.4f} = 0.932 +/- 0.001")


def test_criterion_2_detection_efficiency():
    alpha = detection_efficiency(CHAIN)
    assert alpha == pytest.approx(0.953, abs=1e-3)
    _report(2, f"detection efficiency {alpha:.4f} = 0.953 +/- 0.001")


def test_criterion_3_detuning():
    omega_ratio = detuning(2.0 * math.pi * 1e6, CAVITY)
    assert omega_ratio == pytest.approx(0.028, abs=1e-3)
    _report(3, f"detuning {omega_ratio:.4f} = 0.028 +/- 0.001")


def test_criterion_4_theory_point():
    assert THEORY.r_minus_db == pytest.approx(-8.20, abs=0.10)
    assert THEORY.r_plus_db == pytest.approx(13.27, abs=0.05)
    _report(
        4,
        f"theory point ({THEORY.r_minus_db:.2f}, {THEORY.r_plus_db:.2f}) dB = "
        "(-8.20 +/- 0.10, +13.27 +/- 0.05) dB",
    )


def test_criterion_5_corrected_point():
    corrected = degrade_exact(THEORY, PhaseNoiseModel.from_degrees(4.3))
    assert corrected.r_minus_db == pytest.approx(-5.68, abs=0.10)
    assert corrected.r_plus_db == pytest.approx(13.25, abs=0.05)
    _report(
        5,
        f"corrected point ({corrected.r_minus_db:.2f}, {corrected.r_plus_db:.2f}) dB = "
        "(-5.68 +/- 0.10, +13.25 +/- 0.05) dB",
    )


def test_criterion_6_fit_recovery():
    fit = fit_theta(MeasuredLevels(-5.80, 12.72), THEORY)
    assert fit.status == "ok"
    assert abs(fit.theta_rms_deg - 4.3) <= 0.6
    # independently derived by a 0.01-degree grid scan: 4.22 degrees
    assert fit.theta_rms_deg == pytest.approx(4.2208, abs=0.01)
    _report(6, f"fitted jitter {fit.theta_rms_deg:.2f} deg inside 4.3 +/- 0.6 deg")


def test_criterion_7_minimum_uncertainty():
    rng = np.random.default_rng(70001)
    for x in rng.uniform(0.0, 1.0 - 1e-9, 1000):
        r = forward_variances(1.0, 1.0, float(x), 0.0)
        assert abs(r.r_plus * r.r_minus - 1.0) <= 1e-12
    rng = np.random.default_rng(70002)
    for _ in range(10_000):
        r = forward_variances(
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.0, 1.0 - 1e-9)),
            float(rng.uniform(0.0, 3.0)),
        )
        assert r.r_plus * r.r_minus >= 1.0 - 1e-12
    _report(7, "R+R- = 1 ideal (1000 draws); R+R- >= 1 - 1e-12 (10000 draws)")


def test_criterion_8_sum_conservation():
    rng = np.random.default_rng(80001)
    forms = (degrade_exact, degrade_approx, degrade_quadrature)
    for _ in range(1000):
        r = forward_variances(
            float(rng.uniform(0.3, 1.0)),
            float(rng.uniform(0.3, 1.0)),
            float(rng.uniform(0.0, 0.95)),
            float(rng.uniform(0.0, 1.0)),
        )
        model = PhaseNoiseModel(float(rng.uniform(0.0, math.pi / 4)))
        total = r.r_plus + r.r_minus
        for form in forms:
            out = form(r, model)
            assert abs(out.r_plus + out.r_minus - total) <= 1e-12 * total
    _report(8, "R'+ + R'- conserved to 1e-12 for all three jitter forms")


def test_criterion_9_oracle_equivalence():
    gamma_out = 299_792_458.0 * 0.15 / 0.214
    gamma_loss = 299_792_458.0 * 0.011 / 0.214
    rho = gamma_out / (gamma_out + gamma_loss)
    omega_ratios = (0.0, 0.03, 0.3, 1.0)
    worst_db = 0.0
    for i, x in enumerate((0.2, 0.5, 0.66)):
        gamma = gamma_out + gamma_loss
        dt = 0.08 / (gamma * (1.0 + x))
        cfg = LangevinConfig(
            gamma_out=gamma_out,
            gamma_loss=gamma_loss,
            x=x,
            dt=dt,
            duration=32768 * dt,
            seed=1000 + i,
            segments=2560,
        )
        points = simulate_output_spectrum(cfg, [om * gamma for om in omega_ratios])
        for om, pt in zip(omega_ratios, points):
            target = forward_variances(1.0, rho, x, om)
            for est, err, ref in (
                (pt.r_plus, pt.stderr_plus, target.r_plus),
                (pt.r_minus, pt.stderr_minus, target.r_minus),
            ):
                three_sigma_db = 3.0 * DB * err / est
                diff_db = abs(10.0 * math.log10(est / ref))
                assert three_sigma_db <= 0.3, f"x={x} Om={om}: 3se {three_sigma_db:.3f} dB"
                assert diff_db <= 0.3, f"x={x} Om={om}: off by {diff_db:.3f} dB"
                worst_db = max(worst_db, diff_db)

    # vacuum: flat at the shot-noise level within three standard errors
    gamma = gamma_out + gamma_loss
    dt = 0.08 / gamma
    vac = LangevinConfig(
        gamma_out=gamma_out,
        gamma_loss=gamma_loss,
        x=0.0,
        dt=dt,
        duration=8192 * dt,
        seed=1003,
        segments=512,
    )
    for pt in simulate_output_spectrum(vac, [om * gamma for om in (0.01, 0.1, 0.5, 1.5)]):
        assert abs(pt.r_plus - 1.0) <= 3.0 * pt.stderr_plus
        assert abs(pt.r_minus - 1.0) <= 3.0 * pt.stderr_minus
    _report(
        9,
        f"simulated spectra match the closed form within 0.3 dB at 3 standard "
        f"errors on the 12-point grid (worst {worst_db:.3f} dB); vacuum flat",
    )


def test_criterion_10_fit_self_consistency():
    # The joint fit inverts the model exactly, so exact synthetic pairs come
    # back to rounding error.
    x_tol = 1e-6
    theta_tol = 1e-6
    rng = np.random.default_rng(100001)
    recovered = 0
    while recovered < 100:
        x_true = float(rng.uniform(0.05, 0.9))
        theta_true = float(rng.uniform(0.0, math.pi / 4))
        degraded = degrade_exact(
            forward_variances(0.953, 0.932, x_true, 0.028), PhaseNoiseModel(theta_true)
        )
        if degraded.r_minus >= 1.0 or degraded.r_plus <= 1.0:
            continue  # too scrambled to read as a squeezing measurement
        fit = fit_joint(
            MeasuredLevels(degraded.r_minus_db, degraded.r_plus_db), 0.953, 0.932, 0.028
        )
        assert abs(fit.x - x_true) <= x_tol, (x_true, theta_true, fit.x)
        assert abs(fit.theta_rms - theta_true) <= theta_tol, (x_true, theta_true)
        recovered += 1
    _report(10, "synthesize-then-fit recovered (x, theta) on 100 seeded draws")


def test_criterion_11_reproduction_check_command(capsys):
    code = cli.main(["paper", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out
    with capsys.disabled():
        _report(11, "paper --check reproduces criteria 1-6 end to end (exit 0)")


def test_sweep_structure(capsys, tmp_path):
    # pump sweeps are checked structurally: monotone growth of |dB| with
    # power, agreement with the 250 mW anchor, and rejection at threshold
    out_path = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", str(cli.packaged_config_path()), "--pmin", "25", "--pmax", "550",
         "--steps", "22", "--anchor", "250:8.83", "--out", str(out_path)]
    )
    assert code == 0
    rows = [
        [float(v) for v in line.split(",")]
        for line in out_path.read_text().strip().split("\n")[1:]
    ]
    plus_db = [r[5] for r in rows]
    minus_db = [r[6] for r in rows]
    assert all(b > a for a, b in zip(plus_db, plus_db[1:]))
    assert all(b < a for a, b in zip(minus_db, minus_db[1:]))
    anchor_row = min(rows, key=lambda r: abs(r[0] - 250.0))
    assert anchor_row[2] == pytest.approx(8.83, rel=1e-6)

    code = cli.main(
        ["sweep", str(cli.packaged_config_path()), "--pmin", "25", "--pmax", "600",
         "--steps", "5", "--anchor", "250:8.83"]
    )
    assert code == 2
    capsys.readouterr()
    with capsys.disabled():
        _report(0, "sweep structure: monotone, anchored at 250 mW, threshold rejected")
