"""Phase-jitter degradation: closed form, small-angle surrogate, quadrature.

Frozen expectations were hand-evaluated from the Gaussian average
E[cos^2 theta] = (1 + exp(-2 t^2)) / 2 and from cos^2/sin^2 at the rms
angle; the trapezoid-rule path is checked against the closed form.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sqzopo import phase_noise
from sqzopo.model import QuadratureVariances, forward_variances, to_db
from sqzopo.phase_noise import (
    PhaseNoiseModel,
    QuadratureConvergenceError,
    degrade_approx,
    degrade_exact,
    degrade_quadrature,
)

# the benchmark operating point, rounded the way the source quotes it
R_QUOTED = QuadratureVariances(r_plus=21.24, r_minus=0.149)
THETA_43 = PhaseNoiseModel.from_degrees(4.3)


def _random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        r_plus = float(rng.uniform(1.0, 40.0))
        r_minus = float(rng.uniform(0.02, 1.0))
        yield QuadratureVariances(r_plus=r_plus, r_minus=r_minus)


class TestModelType:
    def test_negative_rms_rejected(self):
        with pytest.raises(ValueError):
            PhaseNoiseModel(-0.1)

    def test_large_rms_warns(self):
        with pytest.warns(UserWarning, match="pi/4"):
            PhaseNoiseModel(1.0)

    def test_huge_rms_warns_once_briefly_at_a_source_line(self):
        with pytest.warns(UserWarning, match=r"theta_rms = .* exceeds pi/4") as record:
            PhaseNoiseModel.from_degrees(1e308)
        assert len(record) == 1
        assert len(str(record[0].message)) < 200
        assert record[0].filename == phase_noise.__file__
        with pytest.warns(UserWarning, match="exceeds pi/4") as record:
            PhaseNoiseModel(1e306)
        assert record[0].filename == __file__

    def test_degrees_constructor(self):
        assert PhaseNoiseModel.from_degrees(4.3).theta_rms == pytest.approx(
            0.07504915783575616, rel=1e-12
        )


class TestDegradeExact:
    def test_zero_jitter_is_identity(self):
        out = degrade_exact(R_QUOTED, PhaseNoiseModel(0.0))
        assert out.r_plus == R_QUOTED.r_plus
        assert out.r_minus == R_QUOTED.r_minus

    def test_benchmark_correction(self):
        out = degrade_exact(R_QUOTED, THETA_43)
        # frozen: lambda = exp(-2 * 0.0750492^2) = 0.98879849...
        assert out.r_plus == pytest.approx(21.121874134274243, rel=1e-12)
        assert out.r_minus == pytest.approx(0.26712586572575425, rel=1e-12)
        assert out.r_minus_db == pytest.approx(-5.68, abs=0.10)
        assert out.r_plus_db == pytest.approx(13.25, abs=0.05)

    def test_full_scrambling_limit(self):
        # at 1e308 degrees theta_rms^2 overflows to inf, and exp(-inf) = 0
        for theta_rms in (10.0, math.radians(1e308)):
            with pytest.warns(UserWarning):
                wide = PhaseNoiseModel(theta_rms)
            out = degrade_exact(R_QUOTED, wide)
            mean = 0.5 * (R_QUOTED.r_plus + R_QUOTED.r_minus)
            assert out.r_plus == pytest.approx(mean, rel=1e-6)
            assert out.r_minus == pytest.approx(mean, rel=1e-6)


class TestDegradeApprox:
    def test_zero_jitter_is_identity(self):
        out = degrade_approx(R_QUOTED, PhaseNoiseModel(0.0))
        assert out.r_plus == R_QUOTED.r_plus
        assert out.r_minus == R_QUOTED.r_minus

    def test_quarter_turn_swaps_quadratures(self):
        with pytest.warns(UserWarning):
            ninety = PhaseNoiseModel(math.pi / 2)
        out = degrade_approx(R_QUOTED, ninety)
        assert out.r_plus == R_QUOTED.r_minus
        assert out.r_minus == R_QUOTED.r_plus

    def test_benchmark_correction(self):
        out = degrade_approx(R_QUOTED, THETA_43)
        # frozen: cos^2(4.3 deg) = 0.9943772..., sin^2 = 0.0056228...
        assert out.r_minus == pytest.approx(0.2676, abs=5e-5)
        assert out.r_minus == pytest.approx(0.26756958366879974, rel=1e-12)
        assert out.r_minus_db == pytest.approx(-5.72, abs=0.01)
        exact = degrade_exact(R_QUOTED, THETA_43)
        assert abs(out.r_minus_db - exact.r_minus_db) < 0.05


class TestDegradeQuadrature:
    def test_matches_closed_form(self):
        for theta in (0.01, 0.075, 0.2, 0.35, 0.5, math.pi / 4):
            model = PhaseNoiseModel(theta)
            exact = degrade_exact(R_QUOTED, model)
            quad = degrade_quadrature(R_QUOTED, model)
            assert quad.r_plus == pytest.approx(exact.r_plus, rel=1e-9)
            assert quad.r_minus == pytest.approx(exact.r_minus, rel=1e-9)

    def test_zero_jitter_is_identity(self):
        out = degrade_quadrature(R_QUOTED, PhaseNoiseModel(0.0))
        assert out.r_plus == R_QUOTED.r_plus
        assert out.r_minus == R_QUOTED.r_minus

    def test_symmetric_fixed_point(self):
        flat = QuadratureVariances(1.0, 1.0)
        for theta in (0.05, 0.3, 0.5):
            out = degrade_quadrature(flat, PhaseNoiseModel(theta))
            assert out.r_plus == pytest.approx(1.0, rel=1e-12)
            assert out.r_minus == pytest.approx(1.0, rel=1e-12)

    def test_nonconvergence_reported(self):
        with pytest.warns(UserWarning):
            wild = PhaseNoiseModel(5.0)
        with pytest.raises(QuadratureConvergenceError):
            degrade_quadrature(R_QUOTED, wild)


class TestSharedInvariants:
    def test_sum_conservation(self):
        thetas = [0.0, 0.02, 0.075, 0.2, math.pi / 4]
        for R in _random_pairs(50, seed=11):
            total = R.r_plus + R.r_minus
            for theta in thetas:
                model = PhaseNoiseModel(theta)
                for form in (degrade_exact, degrade_approx, degrade_quadrature):
                    out = form(R, model)
                    assert abs(out.r_plus + out.r_minus - total) <= 1e-12 * total

    def test_contraction(self):
        for R in _random_pairs(30, seed=12):
            for theta in np.linspace(0.0, math.pi / 4, 12):
                model = PhaseNoiseModel(float(theta))
                for form in (degrade_exact, degrade_approx):
                    out = form(R, model)
                    assert out.r_plus <= R.r_plus + 1e-12 * R.r_plus
                    assert out.r_minus >= R.r_minus - 1e-12 * R.r_minus

    def test_exact_mixes_less_than_approx(self):
        # (1 - exp(-2 t^2)) / 2 < sin^2(t) on (0, pi/2), so the closed form
        # moves the squeezed quadrature less than the surrogate does
        R = forward_variances(0.953, 0.932, 0.66, 0.028)
        for theta in np.linspace(0.01, math.pi / 4, 15):
            model = PhaseNoiseModel(float(theta))
            assert degrade_exact(R, model).r_minus < degrade_approx(R, model).r_minus

    def test_forms_agree_for_small_jitter(self):
        # within 0.1 dB for rms jitter up to 5 degrees over the operating range
        for R in _random_pairs(25, seed=13):
            for theta_deg in (0.5, 2.0, 4.3, 5.0):
                model = PhaseNoiseModel.from_degrees(theta_deg)
                exact = degrade_exact(R, model)
                approx = degrade_approx(R, model)
                assert abs(exact.r_minus_db - approx.r_minus_db) <= 0.1
                assert abs(exact.r_plus_db - approx.r_plus_db) <= 0.1

    def test_squeezed_variance_monotone_in_jitter(self):
        for R in _random_pairs(20, seed=14):
            thetas = np.linspace(0.0, math.pi / 4, 30)
            minus = [degrade_exact(R, PhaseNoiseModel(float(t))).r_minus for t in thetas]
            assert all(b >= a for a, b in zip(minus, minus[1:]))
