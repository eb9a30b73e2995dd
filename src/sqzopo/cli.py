"""Command-line surface: predictions, dark-noise corrections, jitter fits,
pump-power sweeps, Monte-Carlo oracle runs, and the embedded benchmark
dataset, which :mod:`sqzopo.dataset` reads, lists and checks.

Exit codes: 0 success, 1 a `paper --check` criterion failed, 2 validation
error, 3 infeasible fit or correction, 4 oracle assertion failure.  Reports
go to stdout, diagnostics to stderr.  A handler imports the modules only it
uses, so each call loads just what its subcommand runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from .config import ConfigError, ExperimentConfig, _named
from .model import (
    PUMP_X_MAX,
    InfeasibleCorrectionError,
    PumpOperatingPoint,
    QuadratureVariances,
    forward_variances,
    from_db,
    gain_from_x,
)
from .phase_noise import PhaseNoiseModel, degrade_approx, degrade_exact

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE_MISMATCH = 4

SWEEP_HEADER = "pump_mW,x,G,R_plus,R_minus,R_plus_dB,R_minus_dB,Rp_corr_dB,Rm_corr_dB"
ORACLE_HEADER = SWEEP_HEADER + ",stderr_plus,stderr_minus,segments,seed"

# Default Euler step keeps the dimensionless step at 0.04, well inside the
# 0.1 stability bound.
ORACLE_STABILITY_STEP = 0.04
ORACLE_STEPS_PER_SEGMENT = 8192


def packaged_config_path(name: str = "paper_250mW.json") -> Path:
    """Path of a configuration file shipped with the package."""
    return Path(__file__).with_name("data") / name


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _levels(pump_mw: float, x: float, r: QuadratureVariances, jitter: PhaseNoiseModel) -> str:
    """The ``SWEEP_HEADER`` columns of one row, which oracle rows extend."""
    corrected = degrade_exact(r, jitter)
    return ",".join(
        _fmt(v)
        for v in (
            pump_mw,
            x,
            gain_from_x(x),
            r.r_plus,
            r.r_minus,
            r.r_plus_db,
            r.r_minus_db,
            corrected.r_plus_db,
            corrected.r_minus_db,
        )
    )


def _write_csv(lines: Iterable[str], out: str | None = None) -> None:
    """Write each line as it comes, to stdout or to the file ``out``."""
    if out is None or out == "-":
        sys.stdout.writelines(line + "\n" for line in lines)
    else:
        with open(out, "w", newline="\n") as f:
            f.writelines(line + "\n" for line in lines)


def _cmd_predict(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    report = cfg.derived()
    if args.corrected or args.approx:
        degrade = degrade_approx if args.approx else degrade_exact
        r = QuadratureVariances(report["r_plus"], report["r_minus"])
        corrected = degrade(r, cfg.phase_noise())
        report["theta_rms_deg"] = cfg.theta_rms_deg
        report["r_plus_corrected_db"] = corrected.r_plus_db
        report["r_minus_corrected_db"] = corrected.r_minus_db
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        _write_csv([",".join(report), ",".join(_fmt(v) for v in report.values())])
    return EXIT_OK


def _sweep_threshold_mw(args: argparse.Namespace, cfg: ExperimentConfig) -> float:
    if args.anchor is not None:
        try:
            power_s, gain_s = args.anchor.split(":")
            power_mw, gain = float(power_s), float(gain_s)
        except ValueError as err:
            raise ConfigError("--anchor", f"expected 'P_mW:G', got {args.anchor!r}") from err
        x = _named("--anchor", PumpOperatingPoint.from_gain, gain).x
        if x == 0.0:
            raise ConfigError("--anchor", "gain 1 carries no threshold information")
        if not 0.0 < power_mw < math.inf:
            raise ConfigError("--anchor", f"pump power must be finite and > 0 mW, got {power_mw}")
        threshold_mw = power_mw / x**2
        if not threshold_mw < math.inf:
            raise ConfigError("--anchor", f"threshold {power_mw:g} mW / {x:.3g}^2 is not finite")
        return threshold_mw
    if cfg.pump_mode == "power" and cfg.threshold_mW is not None:
        return cfg.threshold_mW
    raise ConfigError(
        "pump", "sweep needs a threshold: use --anchor P_mW:G or a power-mode config"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    derived = cfg.derived()
    threshold_mw = _sweep_threshold_mw(args, cfg)
    if args.steps < 1:
        raise ConfigError("--steps", "must be >= 1")
    if not 0 <= args.pmin <= args.pmax:
        raise ConfigError("--pmin/--pmax", "need 0 <= pmin <= pmax")
    if math.sqrt(args.pmax / threshold_mw) > PUMP_X_MAX:
        raise ConfigError(
            "--pmax",
            f"{args.pmax} mW is not far enough below the {threshold_mw:.6g} mW threshold",
        )
    theta_deg = cfg.theta_rms_deg if args.theta_deg is None else args.theta_deg
    jitter = _named("--theta-deg", PhaseNoiseModel.from_degrees, theta_deg)

    def rows():
        yield SWEEP_HEADER
        for i in range(args.steps):
            power_mw = args.pmin + (args.pmax - args.pmin) * i / max(args.steps - 1, 1)
            x = math.sqrt(power_mw / threshold_mw)
            r = forward_variances(derived["alpha"], derived["rho"], x, derived["detuning"])
            yield _levels(power_mw, x, r, jitter)

    _write_csv(rows(), args.out)
    return EXIT_OK


def _cmd_correct(args: argparse.Namespace) -> int:
    from .calibration import dark_noise_correct

    if args.clearance_db >= 0.0:
        raise ConfigError("--clearance-db", "dark noise must lie below shot noise (< 0 dB)")
    corrected = _named(
        "--level-db/--clearance-db", dark_noise_correct, args.level_db, from_db(args.clearance_db)
    )
    print(f"{corrected:.6f}")
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    from .calibration import MeasuredLevels, fit_joint, fit_theta

    cfg = ExperimentConfig.from_file(args.config)
    derived = cfg.derived()
    measured = _named("--sq-db/--asq-db", MeasuredLevels, args.sq_db, args.asq_db)

    if args.joint:
        # The joint fit also reads the anti-squeezing level's linear ratio.
        fit = _named(
            "--sq-db/--asq-db", fit_joint, measured, derived["alpha"], derived["rho"],
            derived["detuning"], use_approx=args.approx,
        )
        x, gain = fit.x, fit.gain
    else:
        predicted = QuadratureVariances(derived["r_plus"], derived["r_minus"])
        fit = fit_theta(measured, predicted, use_approx=args.approx)
        x, gain = derived["x"], derived["gain"]

    print(
        json.dumps(
            {
                "theta_rms_deg": fit.theta_rms_deg,
                "x": x,
                "gain": gain,
                "residual_db2": fit.residual,
                "status": fit.status,
            },
            indent=2,
        )
    )
    return EXIT_OK if fit.status == "ok" else EXIT_INFEASIBLE


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .langevin import LangevinConfig, simulate_output_spectrum

    cfg = ExperimentConfig.from_file(args.config)
    derived = cfg.derived()
    cavity = cfg.opo_cavity()
    x = derived["x"]
    gamma = derived["gamma_rad_s"]
    dt = 2.0 * ORACLE_STABILITY_STEP / (gamma * (1.0 + x))
    duration = args.duration if args.duration is not None else ORACLE_STEPS_PER_SEGMENT * dt
    sim_cfg = _named(
        "--duration/--seed/--segments", LangevinConfig.from_cavity,
        cavity, x=x, dt=dt, duration=duration, seed=args.seed, segments=args.segments,
    )
    # The memory guard reads the run's size, the Nyquist check the sideband.
    (pt,) = _named(
        "--duration/--segments/measurement.frequency_hz", simulate_output_spectrum,
        sim_cfg, [cfg.omega()],
    )

    pump_mw = cfg.pump_value if cfg.pump_mode == "power" else math.nan
    r = QuadratureVariances(pt.r_plus, pt.r_minus)
    row = (
        f"{_levels(pump_mw, x, r, cfg.phase_noise())},"
        f"{_fmt(pt.stderr_plus)},{_fmt(pt.stderr_minus)},{pt.segments},{pt.seed}"
    )
    _write_csv([ORACLE_HEADER, row], args.out)

    if args.check:
        # The oracle models the cavity alone: perfect detection, one sideband.
        target = forward_variances(1.0, derived["rho"], x, derived["detuning"])
        if abs(pt.r_plus - target.r_plus) > 3.0 * pt.stderr_plus or abs(
            pt.r_minus - target.r_minus
        ) > 3.0 * pt.stderr_minus:
            print(
                f"oracle mismatch at omega = {pt.omega:.6g} rad/s: "
                f"({pt.r_plus:.4f}, {pt.r_minus:.4f}) vs "
                f"({target.r_plus:.4f}, {target.r_minus:.4f}) "
                f"at 3 standard errors",
                file=sys.stderr,
            )
            return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def _cmd_paper(args: argparse.Namespace) -> int:
    from . import dataset

    data = dataset.load_dataset(args.dataset)
    if args.list:
        for line in dataset.listing(data):
            print(line)
        return EXIT_OK

    results = dataset.reproduce(data, ExperimentConfig.from_file(packaged_config_path()))
    for i, (name, ok, detail) in enumerate(results, start=1):
        print(f"{'PASS' if ok else 'FAIL'}  [{i}] {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzopo",
        description="Squeezed-vacuum OPO modeling, calibration, and fitting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="forward-model report for a configuration")
    p.add_argument("config", help="JSON experiment configuration")
    p.add_argument("--corrected", action="store_true", help="include jitter-degraded levels")
    p.add_argument("--approx", action="store_true", help="use the small-angle jitter form")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("sweep", help="pump-power sweep as CSV")
    p.add_argument("config")
    p.add_argument("--pmin", type=float, required=True, help="lowest pump power, mW")
    p.add_argument("--pmax", type=float, required=True, help="highest pump power, mW")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--theta-deg", type=float, default=None, help="override jitter, degrees")
    p.add_argument("--anchor", default=None, help="P_mW:G pair fixing the threshold")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("correct", help="remove detector dark noise from a dB level")
    p.add_argument("--level-db", type=float, required=True)
    p.add_argument("--clearance-db", type=float, required=True,
                   help="dark noise relative to shot noise, dB (< 0)")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("fit", help="recover jitter (and pump) from measured levels")
    p.add_argument("config")
    p.add_argument("--sq-db", type=float, required=True, help="measured squeezing, dB")
    p.add_argument("--asq-db", type=float, default=None, help="measured anti-squeezing, dB")
    p.add_argument("--joint", action="store_true", help="fit pump parameter as well")
    p.add_argument("--approx", action="store_true", help="use the small-angle jitter form")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("oracle", help="Monte-Carlo spectrum estimate as CSV")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--segments", type=int, default=64)
    p.add_argument("--duration", type=float, default=None, help="segment length, seconds")
    p.add_argument("--assert", dest="check", action="store_true",
                   help="fail if the estimate misses the model by > 3 standard errors")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("paper", help="embedded benchmark dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true", help="print the dataset records")
    group.add_argument("--check", action="store_true",
                       help="run the reproduction pipeline against the dataset")
    p.add_argument("--dataset", default=None, help="replace the embedded dataset (JSON)")
    p.set_defaults(func=_cmd_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early (`| head`); send the rest to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except InfeasibleCorrectionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
