"""Dark-noise correction and jitter / pump fitting.

Fit expectations were frozen from independent grid searches: a 0.01-degree
scan of the jitter range for the scalar fit, and a (1e-4 in x) x
(0.01 degree) scan for the joint fit.  The closed-form fits reproduce them
to the digits asserted here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sqzopo.calibration import (
    FitResult,
    InfeasibleCorrectionError,
    MeasuredLevels,
    _golden_min,
    dark_noise_correct,
    dark_noise_uncorrect,
    fit_joint,
    fit_theta,
)
from sqzopo.model import (
    PUMP_X_MAX,
    PumpOperatingPoint,
    QuadratureVariances,
    forward_variances,
    from_db,
    pump_parameter,
    to_db,
)
from sqzopo.phase_noise import THETA_MAX, PhaseNoiseModel, degrade_approx, degrade_exact

BENCH_X = pump_parameter(PumpOperatingPoint.from_gain(8.83))
# jitter-free prediction at the quoted calibrations
PREDICTED = forward_variances(0.953, 0.932, BENCH_X, 0.028)
# clearance back-solved from the quoted -5.6 -> -5.80 dB correction pair
CLEARANCE = 0.0168


def _pair_summing_to_two() -> MeasuredLevels:
    """A -3 dB reading whose linear R_+ + R_- is exactly 2."""
    sq = -3.0
    asq = to_db(2.0 - from_db(sq))
    while from_db(sq) + from_db(asq) > 2.0:
        asq = math.nextafter(asq, 0.0)
    while from_db(sq) + from_db(asq) < 2.0:
        asq = math.nextafter(asq, math.inf)
    return MeasuredLevels(sq, asq)


def _pair_beyond_reach(omega: float) -> MeasuredLevels:
    """A sum just above R_+ + R_- at PUMP_X_MAX, which puts the root past it."""
    top = forward_variances(0.953, 0.932, PUMP_X_MAX, omega)
    return MeasuredLevels(top.r_minus_db, to_db(top.r_plus * (1.0 + 1e-6)))


def _reference_edge_search(measured, alpha, rho, detuning, use_approx):
    """The joint fit's edge search written with the public forward model
    and jitter mix, one checked evaluation per residual."""
    degrade = degrade_approx if use_approx else degrade_exact
    sq, asq = measured.squeezing_db, measured.anti_squeezing_db

    def resid(x, theta):
        d = degrade(forward_variances(alpha, rho, x, detuning), PhaseNoiseModel(theta))
        return (d.r_minus_db - sq) ** 2 + (d.r_plus_db - asq) ** 2

    r0, x0 = _golden_min(lambda x: resid(x, 0.0), 0.0, PUMP_X_MAX)
    r1, x1 = _golden_min(lambda x: resid(x, THETA_MAX), 0.0, PUMP_X_MAX)
    r2, t2 = _golden_min(lambda t: resid(PUMP_X_MAX, t), 0.0, THETA_MAX)
    # On a tie the edge listed first wins.
    edges = [(r0, x0, 0.0), (r1, x1, THETA_MAX), (r2, PUMP_X_MAX, t2)]
    best = min(edges)
    return (*best, ("edge_theta0", "edge_theta_max", "edge_x_max")[edges.index(best)])


class TestDarkNoiseCorrect:
    def test_benchmark_pair(self):
        corrected = dark_noise_correct(-5.6, CLEARANCE)
        assert corrected == pytest.approx(-5.80, abs=0.02)
        assert corrected == pytest.approx(-5.799749424485112, rel=1e-12)

    def test_ideal_detector_is_identity(self):
        # The general path would give -5.800000000000001 for -5.8 and raise
        # for -4000 dB, whose linear ratio underflows to 0.
        for level in (-12.0, -5.6, 0.0, 7.3, -5.8, -4000.0):
            assert dark_noise_correct(level, 0.0) == level
            assert dark_noise_uncorrect(level, 0.0) == level

    def test_shot_noise_maps_to_shot_noise(self):
        for clearance in (0.001, 0.0168, 0.1):
            assert dark_noise_correct(0.0, clearance) == pytest.approx(0.0, abs=1e-12)

    def test_reading_below_dark_noise_rejected(self):
        # from_db(-20) = 0.01 < 0.0168
        with pytest.raises(InfeasibleCorrectionError):
            dark_noise_correct(-20.0, CLEARANCE)

    def test_bad_clearance_rejected(self):
        with pytest.raises(ValueError):
            dark_noise_correct(-5.6, 1.0)
        with pytest.raises(ValueError):
            dark_noise_correct(-5.6, -0.01)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("clearance", [0.0, CLEARANCE])
    def test_non_finite_level_rejected(self, level, clearance):
        with pytest.raises(ValueError, match="finite"):
            dark_noise_correct(level, clearance)
        with pytest.raises(ValueError, match="finite"):
            dark_noise_uncorrect(level, clearance)

    def test_correction_direction(self):
        # below shot noise the inferred level is more squeezed, above it is
        # more anti-squeezed
        assert dark_noise_correct(-5.6, CLEARANCE) < -5.6
        assert dark_noise_correct(12.72, CLEARANCE) > 12.72


class TestDarkNoiseUncorrect:
    def test_roundtrip_grid(self):
        for level in np.linspace(-15.0, 20.0, 36):
            for clearance in (0.0, 0.001, 0.01, 0.0168, 0.05, 0.1):
                raw = dark_noise_uncorrect(float(level), clearance)
                assert dark_noise_correct(raw, clearance) == pytest.approx(
                    level, abs=1e-12
                )

    def test_pure_dark_floor(self):
        # a vanishing corrected level leaves only the dark noise
        assert dark_noise_uncorrect(-400.0, CLEARANCE) == pytest.approx(
            to_db(CLEARANCE), abs=1e-9
        )

    def test_benchmark_anti_squeezing(self):
        # frozen: 18.7068 * (1 - 0.0168) + 0.0168 back in dB
        assert dark_noise_uncorrect(12.72, CLEARANCE) == pytest.approx(
            12.650383792472077, rel=1e-12
        )


class TestMeasuredLevels:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasuredLevels(squeezing_db=0.5, anti_squeezing_db=12.7)
        with pytest.raises(ValueError):
            MeasuredLevels(squeezing_db=-5.6, anti_squeezing_db=-1.0)
        for sq, asq in ((math.nan, 12.7), (-math.inf, 12.7), (-5.6, math.nan), (-5.6, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                MeasuredLevels(squeezing_db=sq, anti_squeezing_db=asq)

    def test_optional_fields(self):
        # The jitter-only fit reads no anti-squeezing level; the joint fit
        # needs one.
        levels = MeasuredLevels(-5.80)
        assert levels.anti_squeezing_db is None
        assert fit_theta(levels, PREDICTED) == fit_theta(MeasuredLevels(-5.80, 12.72), PREDICTED)
        with pytest.raises(ValueError, match="anti-squeezing"):
            fit_joint(levels, 0.953, 0.932, 0.028)


class TestFitResult:
    def test_pump_range(self):
        # The model's bound: x between PUMP_X_MAX and 1 is out of range too.
        for x in (0.9999999995, 1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"x must be in \[0, 0\.999999999\], got"):
                FitResult(0.0, 0.0, "exact", x=x)

    @pytest.mark.parametrize(
        "branch, status, iterations",
        [("exact", "ok", 0), ("clamped", "ok", 0), ("infeasible", "infeasible", 0),
         ("edge_theta0", "ok", 240), ("edge_theta_max", "ok", 240), ("edge_x_max", "ok", 240)],
    )
    def test_status_and_iterations_follow_the_branch(self, branch, status, iterations):
        fit = FitResult(0.075, 0.0, branch)
        assert (fit.status, fit.iterations) == (status, iterations)
        for name, value in (("status", status), ("iterations", iterations)):
            with pytest.raises(TypeError):
                FitResult(0.075, 0.0, branch, **{name: value})
            with pytest.raises(AttributeError):
                setattr(fit, name, value)


def _reference_jitter(R, target, use_approx):
    """The closed-form jitter inverse read from a checked record, unclamped."""
    spread = R.r_plus - R.r_minus
    lam = (R.r_plus + R.r_minus - 2.0 * target) / spread if spread > 0.0 else 1.0
    if lam >= 1.0:
        return 0.0
    if use_approx:
        theta = 0.5 * math.acos(max(lam, -1.0))
    else:
        theta = math.sqrt(-0.5 * math.log(lam)) if lam > 0.0 else math.inf
    return theta


def _reference_fit_theta(measured, predicted, use_approx):
    """fit_theta on the public records: the residual is read from the
    checked record that the jitter mix returns."""
    degrade = degrade_approx if use_approx else degrade_exact
    target = from_db(measured.squeezing_db)
    if target < predicted.r_minus * (1.0 - 1e-12):
        theta, branch = 0.0, "infeasible"
    else:
        theta = _reference_jitter(predicted, target, use_approx)
        # Rounding 1e-12 past pi/4 still reads as pi/4.
        if theta > THETA_MAX * (1.0 + 1e-12):
            theta, branch = THETA_MAX, "clamped"
        else:
            theta, branch = min(theta, THETA_MAX), "exact"
    degraded = degrade(predicted, PhaseNoiseModel(theta))
    return theta, (degraded.r_minus_db - measured.squeezing_db) ** 2, branch


def _reference_joint_exact(measured, alpha, rho, detuning, use_approx):
    """fit_joint's closed form on the public records: the root x, then
    forward_variances at x, its jitter and a residual read from records."""
    degrade = degrade_approx if use_approx else degrade_exact
    sq, asq = measured.squeezing_db, measured.anti_squeezing_db
    target = from_db(sq)
    c = target + from_db(asq) - 2.0
    k = 1.0 + 4.0 * detuning * detuning
    b = 2.0 * c * (k - 2.0) - 16.0 * alpha * rho
    disc = 64.0 * (c + 4.0 * alpha * rho) * (alpha * rho - c * detuning * detuning)
    x = math.sqrt(2.0 * c * k * k / (math.sqrt(disc) - b))
    R = forward_variances(alpha, rho, x, detuning)
    theta = min(_reference_jitter(R, target, use_approx), THETA_MAX)
    d = degrade(R, PhaseNoiseModel(theta))
    return theta, (d.r_minus_db - sq) ** 2 + (d.r_plus_db - asq) ** 2, "exact", x


class TestFitTheta:
    def test_benchmark_recovery(self):
        measured = MeasuredLevels(squeezing_db=-5.80, anti_squeezing_db=12.72)
        fit = fit_theta(measured, PREDICTED)
        assert (fit.status, fit.branch) == ("ok", "exact")
        # frozen from a 0.01-degree grid scan: 4.22 degrees
        assert fit.theta_rms_deg == pytest.approx(4.220796937626596, abs=0.01)
        assert fit.theta_rms_deg == pytest.approx(4.22080, abs=1e-4)
        assert abs(fit.theta_rms_deg - 4.3) <= 0.6
        assert fit.residual < 1e-12
        assert fit.x is None and fit.gain is None

    def test_measurement_at_floor_gives_zero_jitter(self):
        measured = MeasuredLevels(
            squeezing_db=to_db(PREDICTED.r_minus), anti_squeezing_db=PREDICTED.r_plus_db
        )
        fit = fit_theta(measured, PREDICTED)
        assert fit.status == "ok"
        assert fit.theta_rms_deg == pytest.approx(0.0, abs=0.01)

    def test_pipeline_composition_with_correction(self):
        # correcting the raw -5.6 dB reading first lands on the same jitter
        raw_fit = fit_theta(
            MeasuredLevels(dark_noise_correct(-5.6, CLEARANCE), 12.72), PREDICTED
        )
        direct_fit = fit_theta(MeasuredLevels(-5.80, 12.72), PREDICTED)
        assert abs(raw_fit.theta_rms_deg - direct_fit.theta_rms_deg) <= 0.05

    @pytest.mark.parametrize("use_approx", [False, True])
    def test_infeasible_below_floor(self, use_approx):
        measured = MeasuredLevels(squeezing_db=-9.5, anti_squeezing_db=12.72)
        fit = fit_theta(measured, PREDICTED, use_approx=use_approx)
        assert (fit.status, fit.branch) == ("infeasible", "infeasible")
        assert fit.theta_rms == 0.0
        assert fit.residual > 0.0

    def test_approx_form_close_to_exact(self):
        measured = MeasuredLevels(squeezing_db=-5.80, anti_squeezing_db=12.72)
        exact = fit_theta(measured, PREDICTED)
        approx = fit_theta(measured, PREDICTED, use_approx=True)
        assert approx.theta_rms_deg == pytest.approx(exact.theta_rms_deg, abs=0.05)

    @pytest.mark.parametrize("use_approx", [False, True])
    def test_closed_form_matches_reference_bit_for_bit(self, use_approx):
        # Seeded pairs: forward-model predictions and arbitrary pairs below
        # shot noise, either way round (R_+ + R_- < 2 lets the small-angle
        # law clamp), with readings below the floor, at it, within reach and
        # beyond pi/4.
        rng = np.random.default_rng(27)
        kinds = set()
        for i in range(240):
            if i % 4 == 3:
                predicted = QuadratureVariances(*(float(v) for v in rng.uniform(0.05, 0.99, 2)))
            else:
                predicted = forward_variances(
                    float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.5, 1.0)),
                    float(rng.uniform(0.0, 0.99)), float(rng.choice([0.0, 0.028, 0.6])),
                )
            floor, mid = predicted.r_minus, 0.5 * (predicted.r_plus + predicted.r_minus)
            target = float(rng.uniform(0.3 * floor, min(mid * 1.2, 0.999)))
            if i % 8 == 1:  # either side of the floor's 1e-12 tolerance
                target = floor * (1.0 - 10.0 ** float(rng.uniform(-14.0, -10.0)))
            measured = MeasuredLevels(to_db(target))
            fit = fit_theta(measured, predicted, use_approx=use_approx)
            expected = _reference_fit_theta(measured, predicted, use_approx)
            assert (fit.theta_rms, fit.residual, fit.branch) == expected, (measured, predicted)
            assert fit.x is None
            kinds.add(fit.branch)
            kinds.add("unsqueezed" if predicted.r_plus <= predicted.r_minus else "squeezed")
        assert kinds == {"exact", "infeasible", "clamped", "unsqueezed", "squeezed"}


class TestFitJoint:
    def test_benchmark_recovery(self):
        measured = MeasuredLevels(squeezing_db=-5.80, anti_squeezing_db=12.72)
        fit = fit_joint(measured, 0.953, 0.932, 0.028)
        # frozen from the 2-D grid scan: x = 0.6456, theta = 4.39 deg,
        # residual 4.35e-6 (gain 7.96)
        assert (fit.status, fit.branch) == ("ok", "exact")
        assert fit.x == pytest.approx(0.6456, abs=1e-3)
        assert fit.theta_rms_deg == pytest.approx(4.39, abs=0.02)
        assert fit.gain == pytest.approx(7.96, abs=0.02)
        assert fit.residual <= 4.3482e-6
        # the exact inversion of the pair
        assert fit.x == pytest.approx(0.645591, abs=1e-6)
        assert fit.theta_rms_deg == pytest.approx(4.39262, abs=1e-4)

    def test_self_consistency_fixed_point(self):
        # exact synthetic data is recovered to optimizer precision
        x_true, theta_true = 0.55, math.radians(3.1)
        r = forward_variances(0.953, 0.932, x_true, 0.028)
        degraded = degrade_exact(r, PhaseNoiseModel(theta_true))
        measured = MeasuredLevels(degraded.r_minus_db, degraded.r_plus_db)
        fit = fit_joint(measured, 0.953, 0.932, 0.028)
        assert fit.x == pytest.approx(x_true, abs=1e-6)
        assert fit.theta_rms == pytest.approx(theta_true, abs=1e-6)
        assert fit.residual < 1e-15

    def test_second_crystal_converges(self):
        # second-crystal levels: fitted values are recorded, not asserted
        # against the source (computed here: x = 0.628, theta = 4.64 deg)
        measured = MeasuredLevels(squeezing_db=-5.73, anti_squeezing_db=12.22)
        fit = fit_joint(measured, 0.953, 0.932, 0.028)
        assert fit.status == "ok"
        assert 0.0 < fit.x < 1.0
        assert 0.0 <= fit.theta_rms <= math.pi / 4
        assert fit.residual < 1e-4
        assert fit.x == pytest.approx(0.628139, abs=1e-6)
        assert fit.theta_rms_deg == pytest.approx(4.63725, abs=1e-4)

    def test_residual_optimality_over_seed_grid(self):
        # Each pair against a 100 x 33 grid over [0, 0.999] x [0, pi/4] and
        # against the residual frozen from the earlier grid-seeded
        # Nelder-Mead fit.  The last three pairs have no exact solution: the
        # sum lies below 2, the squeezing below the jitter-free floor, and
        # the anti-squeezing beyond what x < 1 reaches.
        cases = [
            (-5.80, 12.72, 1.0662583811632705e-18, 3.0111019778894736e-18),
            (-3.0, 1.0, 2.234976974663874, 2.234976974663874),
            (-9.0, 9.5, 3.5194023779918924, 3.5194023779918924),
            (-0.5, 35.0, 19.866837376031278, 19.8668373760313),
        ]
        x_grid = np.linspace(0.0, 0.999, 100)
        theta_grid = np.linspace(0.0, math.pi / 4, 33)
        for sq, asq, *frozen in cases:
            measured = MeasuredLevels(squeezing_db=sq, anti_squeezing_db=asq)
            for degrade, previous in zip((degrade_exact, degrade_approx), frozen):
                fit = fit_joint(
                    measured, 0.953, 0.932, 0.028, use_approx=degrade is degrade_approx
                )

                def resid(x, theta):
                    d = degrade(
                        forward_variances(0.953, 0.932, x, 0.028), PhaseNoiseModel(theta)
                    )
                    return (d.r_minus_db - sq) ** 2 + (d.r_plus_db - asq) ** 2

                grid_best = min(
                    resid(float(x), float(t)) for x in x_grid for t in theta_grid
                )
                case = (sq, asq, degrade.__name__, fit)
                assert fit.status == "ok", case
                assert fit.residual <= grid_best, case
                assert fit.residual <= previous * (1 + 1e-9) + 1e-12, case
                assert fit.residual == pytest.approx(resid(fit.x, fit.theta_rms), abs=1e-12)

    @pytest.mark.parametrize(
        "x_true, theta_true, omega",
        [(0.55, 0.05, 0.0), (0.3, 0.2, 0.0), (0.55, 0.05, 0.6), (0.9, 0.3, 0.6),
         (0.99, 0.01, 0.028), (0.99, 0.002, 0.0), (1e-4, 0.0, 0.028)],
    )
    def test_exact_reading_solved_in_closed_form(self, x_true, theta_true, omega):
        # Omega = 0.6 makes k = 1 + 4 Omega^2 > 2, so the quadratic's linear
        # coefficient has a positive first term.
        degraded = degrade_exact(
            forward_variances(0.953, 0.932, x_true, omega), PhaseNoiseModel(theta_true)
        )
        measured = MeasuredLevels(degraded.r_minus_db, degraded.r_plus_db)
        fit = fit_joint(measured, 0.953, 0.932, omega)
        assert (fit.status, fit.branch) == ("ok", "exact")
        assert fit.x == pytest.approx(x_true, abs=1e-9)
        assert fit.theta_rms == pytest.approx(theta_true, abs=1e-6)

    @pytest.mark.parametrize("use_approx", [False, True])
    def test_exact_branch_matches_reference_bit_for_bit(self, use_approx):
        # Seeded readings that some (x, theta_rms) reproduces under the law fitted.
        degrade = degrade_approx if use_approx else degrade_exact
        rng = np.random.default_rng(28)
        solved = 0
        while solved < 220:
            alpha, rho = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.5, 1.0))
            detuning = float(rng.choice([0.0, 0.028, 0.6]))
            R = forward_variances(alpha, rho, float(rng.uniform(0.01, 0.99)), detuning)
            d = degrade(R, PhaseNoiseModel(float(rng.uniform(0.0, 0.7))))
            if not d.r_minus < 1.0 < d.r_plus:  # jitter can lift R_- above shot noise
                continue
            solved += 1
            measured = MeasuredLevels(d.r_minus_db, d.r_plus_db)
            fit = fit_joint(measured, alpha, rho, detuning, use_approx=use_approx)
            expected = _reference_joint_exact(measured, alpha, rho, detuning, use_approx)
            case = (measured, alpha, rho, detuning)
            assert (fit.theta_rms, fit.residual, fit.branch, fit.x) == expected, case
            assert fit.status == "ok", case

    def test_sum_of_two_solved_at_x_zero(self):
        # R_+ + R_- = 2 exactly puts the root at x = 0, whose shot-noise
        # levels cannot explain any squeezing: the edge search answers.
        measured = _pair_summing_to_two()
        sq, asq = measured.squeezing_db, measured.anti_squeezing_db
        assert from_db(sq) + from_db(asq) == 2.0
        fit = fit_joint(measured, 0.953, 0.932, 0.028)
        assert (fit.status, fit.branch) == ("ok", "edge_theta0")
        assert fit.residual < (sq**2 + asq**2)

    @pytest.mark.parametrize("use_approx", [False, True])
    @pytest.mark.parametrize("omega", [0.0, 0.028])
    def test_sum_beyond_reach_falls_back(self, omega, use_approx):
        # The optimum is the corner (PUMP_X_MAX, 0), which ends both the
        # theta_rms = 0 edge and the x = PUMP_X_MAX one; the edge listed first wins.
        fit = fit_joint(_pair_beyond_reach(omega), 0.953, 0.932, omega, use_approx=use_approx)
        assert (fit.status, fit.branch) == ("ok", "edge_theta0")
        assert (fit.x, fit.theta_rms) == (PUMP_X_MAX, 0.0)

    def test_edge_search_matches_reference_bit_for_bit(self):
        # Seeded pairs that take the edge branch, under both jitter laws and
        # at Omega = 0 and > 0: strong readings (where theta_rms = 0 and
        # x -> 1 win) and weak ones (where theta_rms = pi/4 can win).
        rng = np.random.default_rng(26)
        cases = [(_pair_summing_to_two(), 0.028), (_pair_beyond_reach(0.0), 0.0),
                 (_pair_beyond_reach(0.028), 0.028)]
        while len(cases) < 2 * 130:
            if len(cases) % 2:
                sq, asq = -rng.uniform(0.5, 15.0), rng.uniform(0.5, 40.0)
            else:
                sq, asq = -rng.uniform(0.001, 1.0), rng.uniform(0.001, 3.0)
            omega = (0.0, 0.028, 0.6)[len(cases) % 3]
            measured = MeasuredLevels(float(sq), float(asq))
            if fit_joint(measured, 0.953, 0.932, omega).branch != "exact":
                cases.append((measured, omega))
        winners = set()
        for measured, omega in cases:
            for use_approx in (False, True):
                fit = fit_joint(measured, 0.953, 0.932, omega, use_approx=use_approx)
                if fit.branch == "exact":
                    continue  # the other law can solve a pair exactly
                case = (measured, omega, use_approx)
                assert fit.status == "ok", case
                expected = _reference_edge_search(measured, 0.953, 0.932, omega, use_approx)
                assert (fit.residual, fit.x, fit.theta_rms, fit.branch) == expected, case
                winners.add((use_approx, fit.branch))
        # theta_rms = pi/4 wins only under the exact law.
        assert winners == {(False, "edge_theta0"), (False, "edge_theta_max"),
                           (False, "edge_x_max"), (True, "edge_theta0"), (True, "edge_x_max")}

    @pytest.mark.parametrize("measured", [MeasuredLevels(-5.80, 12.72), MeasuredLevels(-9.0, 9.5)],
                             ids=["exact", "edge"])
    @pytest.mark.parametrize(
        "alpha, rho, detuning",
        [(a, 0.932, 0.028) for a in (math.nan, math.inf, -math.inf, -0.1, 1.5)]
        + [(0.953, r, 0.028) for r in (math.nan, math.inf, -math.inf, -0.1, 1.5)]
        + [(0.953, 0.932, om) for om in (math.nan, -0.1, math.inf)]
        # Two bad inputs: both checks report the same one first.
        + [(1.5, 0.932, -0.1), (math.nan, 0.932, math.inf), (0.953, -0.1, math.nan),
           (0.953, math.inf, -0.1), (-0.1, 1.5, 0.028), (math.nan, -math.inf, 0.028)],
    )
    def test_bad_model_input_named_as_forward_variances_names_it(
        self, measured, alpha, rho, detuning
    ):
        with pytest.raises(ValueError) as expected:
            forward_variances(alpha, rho, 0.5, detuning)
        with pytest.raises(ValueError) as err:
            fit_joint(measured, alpha, rho, detuning)
        assert str(err.value) == str(expected.value)
        assert str(err.value).startswith(
            "alpha must" if alpha != 0.953 else "rho must" if rho != 0.932 else "detuning must"
        )

    @pytest.mark.parametrize(
        "measured, alpha, rho, detuning, message",
        [(MeasuredLevels(-13.0, 3.0), -0.1, 0.8, 1.5, "alpha must be in [0, 1], got -0.1"),
         (MeasuredLevels(-13.0, 3.0), 0.9, -0.1, 1.0, "rho must be in [0, 1], got -0.1")],
        ids=["alpha", "rho"],
    )
    def test_negative_efficiency_is_not_a_math_domain_error(
        self, measured, alpha, rho, detuning, message
    ):
        # A negative alpha rho can make the quadratic's root complex, so the
        # inputs must be checked before it is taken.
        with pytest.raises(ValueError) as err:
            fit_joint(measured, alpha, rho, detuning)
        assert str(err.value) == message

    def test_deterministic(self):
        measured = MeasuredLevels(squeezing_db=-5.80, anti_squeezing_db=12.72)
        first = fit_joint(measured, 0.953, 0.932, 0.028)
        second = fit_joint(measured, 0.953, 0.932, 0.028)
        assert first == second

    def test_synthesize_then_fit_recovers_parameters(self):
        # scaled-down version of the acceptance property: exact inversion
        x_tol = 1e-6
        theta_tol = 1e-6
        rng = np.random.default_rng(77)
        done = 0
        while done < 10:
            x_true = float(rng.uniform(0.05, 0.9))
            theta_true = float(rng.uniform(0.0, math.pi / 4))
            degraded = degrade_exact(
                forward_variances(0.953, 0.932, x_true, 0.028),
                PhaseNoiseModel(theta_true),
            )
            if degraded.r_minus >= 1.0 or degraded.r_plus <= 1.0:
                continue
            measured = MeasuredLevels(degraded.r_minus_db, degraded.r_plus_db)
            fit = fit_joint(measured, 0.953, 0.932, 0.028)
            assert abs(fit.x - x_true) <= x_tol
            assert abs(fit.theta_rms - theta_true) <= theta_tol
            done += 1
