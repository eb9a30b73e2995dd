"""Forward-model operations and invariants.

Expected values marked "frozen" were computed by independent hand
evaluation of the closed forms (see the inline derivations); benchmark
values are checked at the tolerance the source experiment quotes them to.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sqzopo import (
    ExperimentConfig,
    FitResult,
    LangevinConfig,
    MeasuredLevels,
    PhaseNoiseModel,
    SpectrumPoint,
)
from sqzopo.model import (
    PUMP_X_MAX,
    DetectionChain,
    OpoCavity,
    PumpOperatingPoint,
    QuadratureVariances,
    cavity_decay_rate,
    detection_efficiency,
    detuning,
    escape_efficiency,
    forward_variances,
    from_db,
    gain_from_x,
    pump_parameter,
    to_db,
)

BENCH_CAVITY = OpoCavity(T=0.15, L=0.011, round_trip_length=0.214)
BENCH_CHAIN = DetectionChain(zeta=1.0, eta=0.994, xi=0.979)
BENCH_GAIN = 8.83

# 1 - 1/sqrt(8.83)
BENCH_X = 0.6634732059319677
# c * 0.161 / 0.214
BENCH_GAMMA = 225544793.1682243
# 2 pi 1e6 / BENCH_GAMMA
BENCH_DETUNING = 0.027857815819730427


class TestEscapeEfficiency:
    def test_benchmark_cavity(self):
        assert escape_efficiency(BENCH_CAVITY) == pytest.approx(0.932, abs=1e-3)
        assert escape_efficiency(BENCH_CAVITY) == pytest.approx(
            0.9316770186335404, rel=1e-12
        )

    def test_lossless_cavity(self):
        assert escape_efficiency(OpoCavity(0.15, 0.0, 0.214)) == 1.0

    def test_equal_transmission_and_loss(self):
        assert escape_efficiency(OpoCavity(0.10, 0.10, 0.214)) == 0.5


class TestDetectionEfficiency:
    def test_benchmark_chain(self):
        assert detection_efficiency(BENCH_CHAIN) == pytest.approx(0.953, abs=1e-3)
        assert detection_efficiency(BENCH_CHAIN) == pytest.approx(0.952690354, rel=1e-12)

    def test_ideal_chain(self):
        assert detection_efficiency(DetectionChain(1.0, 1.0, 1.0)) == 1.0

    def test_direct_product(self):
        # 0.9 * 0.994 * 0.979^2
        chain = DetectionChain(zeta=0.9, eta=0.994, xi=0.979)
        assert detection_efficiency(chain) == pytest.approx(0.8574213186, rel=1e-12)


class TestCavityDecayRate:
    def test_benchmark_cavity(self):
        assert cavity_decay_rate(BENCH_CAVITY) == pytest.approx(BENCH_GAMMA, rel=1e-12)

    def test_scale_invariance(self):
        # doubling T + L and the length together leaves the rate unchanged
        doubled = OpoCavity(T=0.30, L=0.022, round_trip_length=0.428)
        assert cavity_decay_rate(doubled) == pytest.approx(
            cavity_decay_rate(BENCH_CAVITY), rel=1e-12
        )

    def test_inverse_length(self):
        half = OpoCavity(T=0.15, L=0.011, round_trip_length=0.107)
        assert cavity_decay_rate(half) == pytest.approx(
            2.0 * cavity_decay_rate(BENCH_CAVITY), rel=1e-12
        )


class TestDetuning:
    def test_benchmark_point(self):
        om = 2.0 * math.pi * 1e6
        assert detuning(om, BENCH_CAVITY) == pytest.approx(0.028, abs=1e-3)
        assert detuning(om, BENCH_CAVITY) == pytest.approx(BENCH_DETUNING, rel=1e-12)

    def test_resonance(self):
        assert detuning(0.0, BENCH_CAVITY) == 0.0

    def test_at_decay_rate(self):
        assert detuning(cavity_decay_rate(BENCH_CAVITY), BENCH_CAVITY) == 1.0

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            detuning(-1.0, BENCH_CAVITY)


class TestPumpParameter:
    def test_benchmark_gain(self):
        x = pump_parameter(PumpOperatingPoint.from_gain(BENCH_GAIN))
        assert x == pytest.approx(BENCH_X, rel=1e-12)
        assert 1.0 / (1.0 - x) ** 2 == pytest.approx(BENCH_GAIN, rel=1e-12)

    def test_unit_gain(self):
        assert pump_parameter(PumpOperatingPoint.from_gain(1.0)) == 0.0

    def test_power_representation(self):
        # threshold back-computed from the gain point: P_th = P / x^2
        p_th = 0.250 / BENCH_X**2
        assert p_th == pytest.approx(0.5679279350470405, rel=1e-12)
        x = pump_parameter(PumpOperatingPoint.from_power(0.250, p_th))
        assert x == pytest.approx(BENCH_X, rel=1e-12)

    def test_x_passthrough(self):
        assert pump_parameter(PumpOperatingPoint.from_x(0.3)) == 0.3

    def test_deamplification_gain_rejected(self):
        with pytest.raises(ValueError, match="amplification"):
            PumpOperatingPoint.from_gain(0.5)

    def test_above_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            PumpOperatingPoint.from_power(0.6, 0.5679)

    def test_x_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PumpOperatingPoint.from_x(1.0)
        with pytest.raises(ValueError):
            PumpOperatingPoint.from_x(-0.1)

    def test_gain_rounding_x_to_one_rejected(self):
        # 1 - 1/sqrt(1e33) rounds to exactly 1.0, the threshold itself
        with pytest.raises(ValueError, match=r"\[0, 0\.999999999\], got 1\.0"):
            PumpOperatingPoint.from_gain(1e33)

    def test_representation_equivalence_grid(self):
        # gain and power descriptions agree whenever G = 1/(1 - sqrt(P/P_th))^2
        for gain in np.linspace(1.0, 60.0, 25):
            x_gain = pump_parameter(PumpOperatingPoint.from_gain(float(gain)))
            power_ratio = x_gain**2
            if power_ratio == 0.0:
                continue
            x_power = pump_parameter(PumpOperatingPoint.from_power(power_ratio, 1.0))
            assert x_power == pytest.approx(x_gain, rel=1e-12)

    def test_gain_from_x_roundtrip(self):
        for x in np.linspace(0.0, 0.95, 20):
            assert pump_parameter(
                PumpOperatingPoint.from_gain(gain_from_x(float(x)))
            ) == pytest.approx(x, abs=1e-12)


class TestForwardVariances:
    def test_benchmark_operating_point(self):
        # quoted calibrations: alpha = 0.953, rho = 0.932, G = 8.83, Omega = 0.028
        r = forward_variances(0.953, 0.932, BENCH_X, 0.028)
        # frozen from hand evaluation of the two Lorentzians
        assert r.r_plus == pytest.approx(21.25304810119104, rel=1e-12)
        assert r.r_minus == pytest.approx(0.14911931269588596, rel=1e-12)
        assert r.r_plus_db == pytest.approx(13.27, abs=0.05)
        assert r.r_minus_db == pytest.approx(-8.20, abs=0.10)

    def test_unpumped_is_shot_noise(self):
        r = forward_variances(0.7, 0.9, 0.0, 0.5)
        assert r.r_plus == 1.0
        assert r.r_minus == 1.0

    def test_ideal_on_resonance_closed_form(self):
        # alpha = rho = 1, Omega = 0: R+ = ((1+x)/(1-x))^2, R- its inverse
        r = forward_variances(1.0, 1.0, 0.5, 0.0)
        assert r.r_plus == pytest.approx(9.0, rel=1e-12)
        assert r.r_minus == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_threshold_rejected(self):
        with pytest.raises(ValueError):
            forward_variances(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            forward_variances(1.0, 1.0, PUMP_X_MAX + 1e-10, 0.0)

    def test_bad_efficiencies_rejected(self):
        with pytest.raises(ValueError):
            forward_variances(1.1, 1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            forward_variances(1.0, -0.1, 0.5, 0.0)
        with pytest.raises(ValueError):
            forward_variances(1.0, 1.0, 0.5, -0.01)

    def test_minimum_uncertainty_identity(self):
        rng = np.random.default_rng(20240501)
        for x in rng.uniform(0.0, 1.0 - 1e-9, 200):
            r = forward_variances(1.0, 1.0, float(x), 0.0)
            assert abs(r.r_plus * r.r_minus - 1.0) <= 1e-12

    def test_uncertainty_bound(self):
        rng = np.random.default_rng(20240502)
        for _ in range(2000):
            alpha = float(rng.uniform(0.0, 1.0))
            rho = float(rng.uniform(0.0, 1.0))
            x = float(rng.uniform(0.0, 1.0 - 1e-9))
            om = float(rng.uniform(0.0, 3.0))
            r = forward_variances(alpha, rho, x, om)
            assert r.r_plus * r.r_minus >= 1.0 - 1e-12
            assert r.r_plus >= 1.0
            assert 0.0 < r.r_minus <= 1.0

    def test_monotone_in_pump(self):
        xs = np.linspace(0.0, 0.95, 40)
        rs = [forward_variances(0.9, 0.9, float(x), 0.1) for x in xs]
        plus = [r.r_plus for r in rs]
        minus = [r.r_minus for r in rs]
        assert all(b > a for a, b in zip(plus, plus[1:]))
        assert all(b < a for a, b in zip(minus, minus[1:]))

    def test_detuning_with_infinite_square_rejected(self):
        # 4 Omega^2 overflows from Omega ~ 1e154 on: R+- would read inf/inf
        for omega_ratio in (1e154, 1e200, math.inf, math.nan):
            with pytest.raises(ValueError, match="detuning"):
                forward_variances(0.9, 0.9, 0.6, omega_ratio)
        assert forward_variances(0.9, 0.9, 0.6, 1e153).r_plus == 1.0

    def test_detuning_washout(self):
        on = forward_variances(0.9, 0.9, 0.6, 0.0)
        far = forward_variances(0.9, 0.9, 0.6, 1e6)
        assert far.r_plus == pytest.approx(1.0, abs=1e-9)
        assert far.r_minus == pytest.approx(1.0, abs=1e-9)
        for om in (0.01, 0.1, 1.0, 10.0):
            mid = forward_variances(0.9, 0.9, 0.6, om)
            assert 1.0 < mid.r_plus < on.r_plus
            assert on.r_minus < mid.r_minus < 1.0


class TestDbConversion:
    def test_reference_points(self):
        assert to_db(1.0) == 0.0
        assert to_db(0.1) == pytest.approx(-10.0, rel=1e-12)
        # anti-squeezing of the benchmark operating point
        assert to_db(21.24) == pytest.approx(13.271545124094315, rel=1e-12)

    def test_roundtrip(self):
        for v in np.logspace(-6, 6, 121):
            assert from_db(to_db(float(v))) == pytest.approx(v, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            to_db(0.0)
        with pytest.raises(ValueError):
            to_db(-2.0)

    def test_level_beyond_float_range_rejected(self):
        # 10^(x/10) overflows: a ValueError, not an OverflowError
        for level in (4000.0, 1e308):
            with pytest.raises(ValueError, match="no finite linear power ratio"):
                from_db(level)
        assert from_db(math.inf) == math.inf and from_db(-math.inf) == 0.0


class TestTypeInvariants:
    def test_cavity_validation(self):
        with pytest.raises(ValueError):
            OpoCavity(T=0.0, L=0.01, round_trip_length=0.2)
        with pytest.raises(ValueError):
            OpoCavity(T=0.6, L=0.4, round_trip_length=0.2)
        with pytest.raises(ValueError):
            OpoCavity(T=0.15, L=-0.01, round_trip_length=0.2)
        with pytest.raises(ValueError):
            OpoCavity(T=0.15, L=0.011, round_trip_length=0.0)
        # c (T + L) / l underflows to 0, or overflows, for in-range inputs
        for T, L, length in ((1e-300, 0.0, 1e300), (0.15, 0.011, 1e-308), (0.15, 0.011, 5e-324)):
            with pytest.raises(ValueError, match="decay rate"):
                OpoCavity(T=T, L=L, round_trip_length=length)

    def test_detection_validation(self):
        with pytest.raises(ValueError):
            DetectionChain(zeta=0.0, eta=0.994, xi=0.979)
        with pytest.raises(ValueError):
            DetectionChain(zeta=1.0, eta=1.01, xi=0.979)
        with pytest.raises(ValueError):
            DetectionChain(zeta=1.0, eta=0.994, xi=0.979, dark_clearance=1.0)

    def test_variance_positivity(self):
        with pytest.raises(ValueError):
            QuadratureVariances(r_plus=0.0, r_minus=0.5)
        with pytest.raises(ValueError):
            QuadratureVariances(r_plus=2.0, r_minus=-0.5)
        for r_plus, r_minus in ((math.nan, 0.5), (2.0, math.nan), (math.inf, 0.5)):
            with pytest.raises(ValueError, match="finite and > 0"):
                QuadratureVariances(r_plus=r_plus, r_minus=r_minus)


# One valid example of each record: its class, its required fields in
# signature order, its defaults, and a valid change to one field.
RECORDS = [
    (OpoCavity, dict(T=0.15, L=0.011, round_trip_length=0.214), {}, {"L": 0.02}),
    (DetectionChain, dict(zeta=1.0, eta=0.994, xi=0.979), {"dark_clearance": None},
     {"dark_clearance": 0.0168}),
    (PumpOperatingPoint, dict(x=BENCH_X), {}, {"x": 0.5}),
    (QuadratureVariances, dict(r_plus=21.2, r_minus=0.15), {}, {"r_minus": 0.2}),
    (PhaseNoiseModel, dict(theta_rms=0.075), {}, {"theta_rms": 0.0}),
    (MeasuredLevels, dict(squeezing_db=-5.8), {"anti_squeezing_db": None},
     {"anti_squeezing_db": 12.72}),
    (FitResult, dict(theta_rms=0.075, residual=0.0, iterations=0), {"status": "ok", "x": None},
     {"status": "infeasible"}),
    (ExperimentConfig,
     dict(cavity_T=0.15, cavity_L=0.011, round_trip_m=0.214, zeta=1.0, eta=0.994, xi=0.979,
          pump_mode="gain", pump_value=8.83, theta_rms_deg=4.3, frequency_hz=1e6),
     {"dark_clearance_db": None, "threshold_mW": None}, {"threshold_mW": 567.9}),
    (LangevinConfig,
     dict(gamma_out=1.0, gamma_loss=0.0, x=0.0, dt=0.01, duration=100.0, seed=0, segments=8),
     {}, {"seed": 1}),
    (SpectrumPoint,
     dict(omega=1.0, r_plus=2.0, r_minus=0.5, stderr_plus=0.1, stderr_minus=0.01, segments=8,
          seed=0, bin_spacing_hz=0.1),
     {}, {"stderr_plus": 0.2}),
]


@pytest.mark.parametrize(
    "cls, required, defaults, change", RECORDS, ids=[entry[0].__name__ for entry in RECORDS]
)
def test_record_contract(cls, required, defaults, change):
    fields = {**required, **defaults}
    record = cls(*required.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert record == cls(**required) == cls(*fields.values()) == cls(**fields)
    with pytest.raises(TypeError):
        cls(*list(required.values())[:-1])
    with pytest.raises(TypeError):
        cls(**required, unknown=1.0)

    other = cls(**{**fields, **change})
    assert record != other and not record == other
    assert record != type("Other", (cls,), {})(**fields)
    assert record != tuple(fields.values())
    assert hash(record) == hash(cls(**fields))
    assert len({record, cls(**fields), other}) == 2

    name, value = next(iter(change.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1.0
    assert record == cls(**fields)

    shown = ", ".join(f"{key}={val!r}" for key, val in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
