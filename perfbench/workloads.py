"""The three workloads: what each sends to sqzopo and how each output is checked.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has returned and been checked.  Inputs come from
``random.Random(seed)`` alone; sqzopo sees only the generated values.  The
reasons for each workload are in README.md next to this file.

Importing this module imports sqzopo, so a worker's ``import workloads`` is
the "import sqzopo" step of its set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import resource
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from sqzopo import (
    ExperimentConfig,
    LangevinConfig,
    MeasuredLevels,
    PhaseNoiseModel,
    PumpOperatingPoint,
    QuadratureVariances,
    dark_noise_correct,
    dark_noise_uncorrect,
    degrade_approx,
    degrade_exact,
    degrade_quadrature,
    fit_joint,
    fit_theta,
    forward_variances,
    from_db,
    gain_from_x,
    pump_parameter,
    simulate_output_spectrum,
)
from sqzopo import calibration, cli, dataset

from tracing import NULL, ROOT, Tracer, median

SPEED_OF_LIGHT = 299_792_458.0

# Criterion 10's recovery tolerances: two spacings of the joint fit's seeding
# grid (100 pump values over [0, 0.999], 33 jitter values over [0, pi/4]).
X_TOL = 2.0 * 0.999 / 99
THETA_TOL = 2.0 * (math.pi / 4) / 32

# Share of calibration readings that carry +-0.1 dB reading noise: one in four.
NOISY_EVERY = 4
READING_NOISE_DB = 0.1

# oracle_grid: criterion 9's pump levels plus vacuum, its cavity and its
# 0.04 dimensionless step, on 16 sideband frequencies (units of the cavity
# decay rate) that include criterion 9's 0, 0.03, 0.3 and 1.0.
ORACLE_LEVELS = (0.2, 0.5, 0.66, 0.0)
ORACLE_OMEGAS = (0.0, 0.01, 0.03, 0.06, 0.1, 0.15, 0.2, 0.3,
                 0.4, 0.5, 0.6, 0.75, 0.9, 1.0, 1.2, 1.5)
ORACLE_CAVITY = (0.15, 0.011, 0.214)  # T, L, round trip (m)
ORACLE_STEP = 0.04
# Pooled estimates must sit within this many standard errors of the closed form.
ORACLE_Z_MAX = 5.0

# Defaults of `sqzopo oracle`, which the CLI check reproduces in-process.
CLI_ORACLE_SEED = 12345
CLI_ORACLE_SEGMENTS = 64
CLI_ORACLE_STEPS = 8192

SWEEP_HEADER = "pump_mW,x,G,R_plus,R_minus,R_plus_dB,R_minus_dB,Rp_corr_dB,Rm_corr_dB"

# Runs the installed console script's entry point, as `sqzopo ARGS` would.
CLI_SHIM = "from sqzopo.cli import run; run()"

CLI_SUBCOMMANDS = ("predict", "sweep", "correct", "fit", "fit_joint", "oracle", "paper")
LAYERS = ("cli", "config", "dataset", "model", "phase_noise", "calibration", "langevin", "bench")


@dataclass(frozen=True)
class Size:
    """Work per run.  ``*_min_ops`` is also the count at which the latency tail
    is the highest percentile with ten samples beyond it."""

    cli_block: tuple[str, ...]
    cli_setup_calls: int
    calib_min_ops: int
    oracle_segments: int
    oracle_steps: int
    oracle_min_ops: int
    probe_repeats: int


# One block of the CLI mix: 30 calls over the 7 subcommands.
_FULL_CLI_BLOCK = (
    ("predict_json",) * 2 + ("predict_json_corrected",) * 2 + ("predict_json_approx",)
    + ("predict_csv", "predict_csv_corrected") + ("sweep",) * 4 + ("correct",) * 4
    + ("fit",) * 3 + ("fit_approx",) + ("fit_joint",) * 4 + ("oracle",) * 3 + ("paper",) * 4
)

SIZES = {
    "full": Size(_FULL_CLI_BLOCK, 3, 100, 32, 32768, 100, 3),
    "tiny": Size(("predict_json_corrected", "sweep", "correct", "fit", "fit_joint",
                  "oracle", "paper"), 1, 8, 16, 4096, 8, 1),
}


# -- checks ---------------------------------------------------------------


class Check:
    """Collects the verdicts of one operation's output checks.  With
    ``tamper`` every expected value is deliberately wrong, so every
    operation must fail; the smoke test uses this to prove failures count."""

    def __init__(self, tamper: bool = False) -> None:
        self.tamper = tamper
        self.ok = True

    def close(self, got: float, want: float, rel: float = 0.0, abs_tol: float = 0.0) -> None:
        if self.tamper:
            want = want + 1.0 + abs(want)
        if math.isnan(got) and math.isnan(want):
            return
        if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol):
            self.ok = False

    def equal(self, got, want) -> None:
        if self.tamper or got != want:
            self.ok = False

    def at_most(self, got: float, limit: float) -> None:
        if self.tamper or not got <= limit:
            self.ok = False


def tail_index(n: int, n_min: int) -> int:
    """Index in the sorted samples of the fixed tail percentile
    (n_min - 10) / n_min: at n == n_min exactly ten samples lie beyond it."""
    if n_min <= 10:
        return n - 1
    return max(-(-n * (n_min - 10) // n_min) - 1, 0)


def tail_percentile(n_min: int) -> float:
    return 100.0 if n_min <= 10 else 100.0 * (n_min - 10) / n_min


@dataclass
class LoopResult:
    latencies: list[float]
    traced: list[float]
    untraced: list[float]
    failures: list[bool]  # per operation, in order

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(self.failures)


def closed_loop(blocks, seconds: float, min_ops: int, tracer, tamper: bool) -> LoopResult:
    """Run operations one at a time until at least ``min_ops`` ran and
    ``seconds`` passed, stopping only between blocks.

    ``blocks`` yields lists of operations; an operation is a callable
    ``op(tr, check) -> latency_s``.  Every block holds the same mix of
    inputs.  When ``tracer`` is given, whole blocks alternate between traced
    and untraced, starting traced, and at least one of each runs: traced and
    untraced operations then see the same inputs under the same conditions,
    which is what the tracing overhead compares.
    """
    res = LoopResult([], [], [], [])
    t_end = time.perf_counter() + seconds
    for i, block in enumerate(blocks):
        if (res.attempted >= min_ops and time.perf_counter() >= t_end
                and (tracer is None or i >= 2)):
            break
        traced = tracer is not None and i % 2 == 0
        tr = tracer if traced else NULL
        for op in block:
            check = Check(tamper)
            with tr.span(ROOT, "op"):
                latency = op(tr, check)
            res.latencies.append(latency)
            (res.traced if traced else res.untraced).append(latency)
            res.failures.append(not check.ok)
    return res


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- independent reference model -----------------------------------------


def reference_levels(alpha, rho, x, omega_ratio, theta) -> tuple[float, float]:
    """(squeezing, anti-squeezing) dB of the paper's closed forms, written
    out here independently of sqzopo: the forward model followed by the
    Gaussian jitter mix."""
    four = 4.0 * omega_ratio * omega_ratio
    rp = 1.0 + alpha * rho * 4.0 * x / ((1.0 - x) ** 2 + four)
    rm = 1.0 - alpha * rho * 4.0 * x / ((1.0 + x) ** 2 + four)
    lam = math.exp(-2.0 * theta * theta)
    plus = 0.5 * (1.0 + lam) * rp + 0.5 * (1.0 - lam) * rm
    minus = 0.5 * (1.0 + lam) * rm + 0.5 * (1.0 - lam) * rp
    return 10.0 * math.log10(minus), 10.0 * math.log10(plus)


def _config_params(cfg: dict) -> tuple[float, float, float, float]:
    """alpha, rho, x and detuning of a generated configuration."""
    cav, det, pump = cfg["cavity"], cfg["detection"], cfg["pump"]
    alpha = det["zeta"] * det["eta"] * det["xi"] ** 2
    rho = cav["T"] / (cav["T"] + cav["L"])
    gamma = SPEED_OF_LIGHT * (cav["T"] + cav["L"]) / cav["round_trip_m"]
    if pump["mode"] == "x":
        x = pump["value"]
    elif pump["mode"] == "gain":
        x = 1.0 - 1.0 / math.sqrt(pump["value"])
    else:
        x = math.sqrt(pump["value"] / pump["threshold_mW"])
    return alpha, rho, x, 2.0 * math.pi * cfg["measurement"]["frequency_hz"] / gamma


# -- cli_session ----------------------------------------------------------


def _gen_config(rng: random.Random) -> dict:
    mode = rng.choice(("gain", "x", "power"))
    if mode == "gain":
        pump = {"mode": "gain", "value": rng.uniform(1.5, 20.0)}
    elif mode == "x":
        pump = {"mode": "x", "value": rng.uniform(0.1, 0.85)}
    else:
        threshold = rng.uniform(200.0, 800.0)
        pump = {"mode": "power", "value": threshold * rng.uniform(0.05, 0.7),
                "threshold_mW": threshold}
    return {
        "cavity": {"T": rng.uniform(0.05, 0.3), "L": rng.uniform(0.001, 0.03),
                   "round_trip_m": rng.uniform(0.1, 0.6)},
        "detection": {"zeta": rng.uniform(0.9, 1.0), "eta": rng.uniform(0.9, 1.0),
                      "xi": rng.uniform(0.9, 1.0),
                      "dark_clearance_db": rng.uniform(-25.0, -12.0)},
        "pump": pump,
        "noise": {"theta_rms_deg": rng.uniform(0.5, 10.0)},
        "measurement": {"frequency_hz": rng.uniform(0.0, 20e6)},
    }


def _record_fit(tr, name: str, fit, status: str) -> None:
    """Solver effort and outcome of one fit, for the calibration layer metrics."""
    tr.value(f"calibration.{name}_iterations", fit.iterations)
    tr.value("calibration.status." + status, 1)


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _load(tr, path: str) -> tuple[ExperimentConfig, dict]:
    with tr.span("config", "from_file"):
        cfg = ExperimentConfig.from_file(path)
    with tr.span("config", "derived"):
        derived = cfg.derived()
    return cfg, derived


def _expect_predict(path: str, corrected: bool, approx: bool, fmt: str,
                    tr, ck: Check, out: str, code: int) -> None:
    cfg, want = _load(tr, path)
    if corrected:
        with tr.span("model", "forward_variances"):
            r = forward_variances(want["alpha"], want["rho"], want["x"], want["detuning"])
        name, degrade = ("degrade_approx", degrade_approx) if approx else ("degrade_exact", degrade_exact)
        with tr.span("phase_noise", name):
            c = degrade(r, cfg.phase_noise())
        want.update(theta_rms_deg=cfg.theta_rms_deg, r_plus_corrected_db=c.r_plus_db,
                    r_minus_corrected_db=c.r_minus_db)
    with tr.span("bench", "check"):
        ck.equal(code, 0)
        if fmt == "json":
            got = json.loads(out)
            ck.equal(sorted(got), sorted(want))
            for k in want:
                ck.close(got.get(k, math.nan), want[k], rel=1e-9)
        else:
            header, row = out.strip().split("\n")
            ck.equal(header.split(","), list(want))
            for g, k in zip(_floats(row), want):
                ck.close(g, want[k], rel=1e-5)


def _expect_sweep(path: str, anchor, pmin, pmax, steps, theta_deg,
                  tr, ck: Check, out: str, code: int) -> None:
    cfg, d = _load(tr, path)
    if anchor is None:
        threshold = cfg.threshold_mW
    else:
        with tr.span("model", "pump_parameter"):
            xa = pump_parameter(PumpOperatingPoint.from_gain(anchor[1]))
        threshold = anchor[0] / xa**2
    jitter = PhaseNoiseModel.from_degrees(cfg.theta_rms_deg if theta_deg is None else theta_deg)
    rows = []
    for i in range(steps):
        p = pmin + (pmax - pmin) * i / (steps - 1)
        x = math.sqrt(p / threshold)
        with tr.span("model", "forward_variances"):
            r = forward_variances(d["alpha"], d["rho"], x, d["detuning"])
        with tr.span("phase_noise", "degrade_exact"):
            c = degrade_exact(r, jitter)
        rows.append((p, x, gain_from_x(x), r.r_plus, r.r_minus, r.r_plus_db,
                     r.r_minus_db, c.r_plus_db, c.r_minus_db))
    with tr.span("bench", "check"):
        lines = out.strip().split("\n")
        ck.equal(code, 0)
        ck.equal(lines[0], SWEEP_HEADER)
        ck.equal(len(lines) - 1, len(rows))
        for line, want in zip(lines[1:], rows):
            for g, w in zip(_floats(line), want):
                ck.close(g, w, rel=1e-5, abs_tol=1e-12)


def _expect_fit(path: str, sq, asq, joint, approx, tr, ck: Check, out: str, code: int) -> None:
    _, d = _load(tr, path)
    measured = MeasuredLevels(sq, d["r_plus_db"] if asq is None else asq)
    status = None
    if joint:
        with tr.span("calibration", "fit_joint"):
            try:
                fit = fit_joint(measured, d["alpha"], d["rho"], d["detuning"], use_approx=approx)
            except calibration.FitConvergenceError as err:
                fit, status = err.best, "not_converged"
        x, gain = fit.x, fit.gain
        _record_fit(tr, "fit_joint", fit, status or fit.status)
    else:
        with tr.span("model", "forward_variances"):
            predicted = forward_variances(d["alpha"], d["rho"], d["x"], d["detuning"])
        with tr.span("calibration", "fit_theta"):
            fit = fit_theta(measured, predicted, use_approx=approx)
        x, gain = d["x"], d["gain"]
        _record_fit(tr, "fit_theta", fit, fit.status)
    status = status or fit.status
    with tr.span("bench", "check"):
        got = json.loads(out)
        ck.equal(code, 0 if status == "ok" else 3)
        ck.equal(got["status"], status)
        for k, w in (("theta_rms_deg", fit.theta_rms_deg), ("x", x), ("gain", gain),
                     ("residual_db2", fit.residual)):
            ck.close(got[k], w, rel=1e-9, abs_tol=1e-12)


def _expect_oracle(path: str, tr, ck: Check, out: str, code: int) -> None:
    cfg, d = _load(tr, path)
    x, gamma = d["x"], d["gamma_rad_s"]
    dt = 2.0 * ORACLE_STEP / (gamma * (1.0 + x))
    sim = LangevinConfig.from_cavity(cfg.opo_cavity(), x=x, dt=dt, duration=CLI_ORACLE_STEPS * dt,
                                     seed=CLI_ORACLE_SEED, segments=CLI_ORACLE_SEGMENTS)
    with tr.span("langevin", "simulate_output_spectrum"):
        (pt,) = simulate_output_spectrum(sim, [cfg.omega()])
    tr.value("langevin.segment_steps", CLI_ORACLE_SEGMENTS * CLI_ORACLE_STEPS)
    tr.value("langevin.bins", 1)
    with tr.span("phase_noise", "degrade_exact"):
        c = degrade_exact(QuadratureVariances(pt.r_plus, pt.r_minus), cfg.phase_noise())
    with tr.span("model", "forward_variances"):
        target = forward_variances(1.0, sim.gamma_out / sim.gamma_total, x, pt.omega / sim.gamma_total)
    within = (abs(pt.r_plus - target.r_plus) <= 3.0 * pt.stderr_plus
              and abs(pt.r_minus - target.r_minus) <= 3.0 * pt.stderr_minus)
    pump_mw = cfg.pump_value if cfg.pump_mode == "power" else math.nan
    want = (pump_mw, x, d["gain"], pt.r_plus, pt.r_minus, 10.0 * math.log10(pt.r_plus),
            10.0 * math.log10(pt.r_minus), c.r_plus_db, c.r_minus_db, pt.stderr_plus,
            pt.stderr_minus, CLI_ORACLE_SEGMENTS, CLI_ORACLE_SEED)
    with tr.span("bench", "check"):
        # --assert exits 4 when the estimate misses the closed form by more
        # than three standard errors, which a fair draw does 0.5% of the time.
        ck.equal(code, 0 if within else 4)
        lines = out.strip().split("\n")
        ck.equal(len(lines), 2)
        for g, w in zip(_floats(lines[-1]), want):
            ck.close(g, w, rel=1e-5)


def _expect_correct(level: float, clearance_db: float, tr, ck: Check, out: str, code: int) -> None:
    with tr.span("calibration", "dark_noise_correct"):
        want = dark_noise_correct(level, from_db(clearance_db))
    with tr.span("bench", "check"):
        ck.equal(code, 0)
        ck.close(float(out), want, abs_tol=1.5e-6)


def _expect_paper(tr, ck: Check, out: str, code: int) -> None:
    with tr.span("dataset", "load_dataset"):
        data = dataset.load_dataset()
    with tr.span("dataset", "crystal"):
        rec = dataset.crystal(data, "crystal_1")
    with tr.span("model", "pump_parameter"):
        x = pump_parameter(PumpOperatingPoint.from_gain(rec["gain"]["value"]))
    with tr.span("model", "forward_variances"):
        predicted = forward_variances(rec["alpha"]["value"], rec["rho"]["value"], x,
                                      rec["detuning"]["value"])
    measured = MeasuredLevels(rec["inferred_squeezing_db"]["value"],
                              rec["inferred_anti_squeezing_db"]["value"])
    with tr.span("calibration", "fit_theta"):
        fit = fit_theta(measured, predicted)
    _record_fit(tr, "fit_theta", fit, fit.status)
    with tr.span("bench", "check"):
        lines = out.strip().split("\n")
        ck.equal(code, 0)
        ck.equal([ln.split()[0] for ln in lines], ["PASS"] * 6)
        got = re.search(r"got (-?[0-9.]+) deg", lines[-1])
        ck.close(float(got.group(1)) if got else math.nan, round(fit.theta_rms_deg, 2),
                 abs_tol=0.006)


def _cli_call(kind: str, rng: random.Random, workdir: Path, index: int):
    """Generate one CLI call: (subcommand label, argv, expectation), where
    ``expectation(tr, check, stdout, exit_code)`` checks the call's output."""
    cfg = _gen_config(rng)
    path = workdir / f"cfg{index}.json"
    path.write_text(json.dumps(cfg))
    alpha, rho, x, omega = _config_params(cfg)
    if kind.startswith("predict"):
        fmt = "csv" if "csv" in kind else "json"
        corrected = "corrected" in kind or "approx" in kind
        approx = "approx" in kind
        argv = ["predict", str(path), "--format", fmt]
        argv += ["--corrected"] * corrected + ["--approx"] * approx
        return "predict", argv, partial(_expect_predict, path, corrected, approx, fmt)
    if kind == "sweep":
        if cfg["pump"]["mode"] == "power":
            anchor, threshold = None, cfg["pump"]["threshold_mW"]
        else:
            anchor = (rng.uniform(100.0, 400.0), rng.uniform(2.0, 15.0))
            threshold = anchor[0] / (1.0 - 1.0 / math.sqrt(anchor[1])) ** 2
        pmax = threshold * rng.uniform(0.3, 0.9)
        pmin = pmax * rng.uniform(0.05, 0.3)
        steps = rng.randint(5, 40)
        theta_deg = rng.choice((None, rng.uniform(0.0, 8.0)))
        argv = ["sweep", str(path), f"--pmin={pmin!r}", f"--pmax={pmax!r}", f"--steps={steps}"]
        argv += [] if anchor is None else [f"--anchor={anchor[0]!r}:{anchor[1]!r}"]
        argv += [] if theta_deg is None else [f"--theta-deg={theta_deg!r}"]
        return "sweep", argv, partial(_expect_sweep, path, anchor, pmin, pmax, steps, theta_deg)
    if kind == "correct":
        level, clearance = rng.uniform(-8.0, 15.0), rng.uniform(-25.0, -12.0)
        argv = ["correct", f"--level-db={level!r}", f"--clearance-db={clearance!r}"]
        return "correct", argv, partial(_expect_correct, level, clearance)
    if kind.startswith("fit"):
        joint, approx = kind == "fit_joint", kind == "fit_approx"
        while True:
            if joint:
                x = rng.uniform(0.1, 0.85)
            theta = math.radians(rng.uniform(0.5, 15.0 if joint else 10.0))
            sq, asq = reference_levels(alpha, rho, x, omega, theta)
            if sq < -0.3 and asq > 0.3:  # readable as a squeezing measurement
                break
            cfg = _gen_config(rng)
            alpha, rho, x, omega = _config_params(cfg)
        path.write_text(json.dumps(cfg))
        asq_arg = asq if joint or rng.random() < 0.5 else None
        argv = ["fit", str(path), f"--sq-db={sq!r}"]
        argv += [] if asq_arg is None else [f"--asq-db={asq_arg!r}"]
        argv += ["--joint"] * joint + ["--approx"] * approx
        return "fit_joint" if joint else "fit", argv, partial(
            _expect_fit, path, sq, asq_arg, joint, approx)
    if kind == "oracle":
        return "oracle", ["oracle", str(path), "--assert"], partial(_expect_oracle, path)
    if kind == "paper":
        return "paper", ["paper", "--check"], _expect_paper
    raise ValueError(f"unknown CLI call kind {kind!r}")


def _run_cli(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI_SHIM, *argv], capture_output=True,
                          text=True, timeout=120)
    return time.perf_counter() - t0, proc


def cli_session(seed: int, seconds: float, size: Size, tracer, tamper: bool, workdir: Path) -> dict:
    rng = random.Random(seed)
    counter = iter(range(10**9))

    def make_op(sub, argv, expect):
        def op(tr, ck):
            with tr.span("cli", sub):
                latency, proc = _run_cli(argv)
            tr.value(f"cli.{sub}.latency", latency)
            try:
                expect(tr, ck, proc.stdout, proc.returncode)
            except (ValueError, KeyError, IndexError, AttributeError) as err:
                print(f"cli {sub} output unreadable: {err!r}: {proc.stderr[-300:]}", file=sys.stderr)
                ck.ok = False
            return latency
        return op

    def blocks():
        while True:
            kinds = list(size.cli_block)
            rng.shuffle(kinds)
            yield [make_op(*_cli_call(k, rng, workdir, next(counter))) for k in kinds]

    # Set-up: the run's first CLI calls start a cold interpreter each; their
    # median is setup_s and they stay out of the latency percentiles.
    setup = []
    setup_failed = 0
    for _ in range(size.cli_setup_calls):
        ck = Check(tamper)
        setup.append(make_op(*_cli_call("predict_json", rng, workdir, next(counter)))(NULL, ck))
        setup_failed += not ck.ok

    loop = closed_loop(blocks(), seconds, len(size.cli_block), tracer, tamper)
    result = _summary(loop, len(size.cli_block), tracer)
    result["metrics"]["setup_s"] = median(setup)
    result["metrics"]["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    result["attempted"] += len(setup)
    result["failed"] += setup_failed
    result["detail"]["prefix_ops"] += len(setup)
    result["detail"]["prefix_failed"] += setup_failed
    result["detail"]["setup_samples_s"] = setup
    if tracer is not None:
        result["metrics"].update(_cli_inproc_probe(size, rng, workdir))
        for sub in CLI_SUBCOMMANDS:
            result["metrics"][f"cli.{sub}.latency_s"] = median(tracer.values[f"cli.{sub}.latency"])
    return result


def _cli_inproc_probe(size: Size, rng: random.Random, workdir: Path) -> dict:
    """Warm in-process `cli.main(argv)` per subcommand; the gap to the
    subprocess latency is interpreter start-up plus import."""
    out = {}
    kinds = {"predict": "predict_json_corrected", "sweep": "sweep", "correct": "correct",
             "fit": "fit", "fit_joint": "fit_joint", "oracle": "oracle", "paper": "paper"}
    for sub, kind in kinds.items():
        _, argv, _ = _cli_call(kind, rng, workdir, 10**6 + len(out))
        times = []
        for _ in range(1 + size.probe_repeats):
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(argv)
            times.append(time.perf_counter() - t0)
        out[f"cli.{sub}.inproc_ms"] = 1e3 * median(times[1:])
    return out


# -- calibration_batch ----------------------------------------------------


def _gen_measurement(rng: random.Random, noisy: bool) -> tuple:
    while True:
        alpha, rho = rng.uniform(0.7, 0.99), rng.uniform(0.7, 0.99)
        omega, x = rng.uniform(0.0, 0.5), rng.uniform(0.05, 0.9)
        theta, clearance = rng.uniform(0.0, math.pi / 4), 10.0 ** (rng.uniform(-25.0, -12.0) / 10.0)
        sq, asq = reference_levels(alpha, rho, x, omega, theta)
        # Too scrambled to read as a squeezing measurement (criterion 10's
        # filter), with room for the reading noise.
        if sq < -0.5 and asq > 0.5:
            break
    if noisy:
        sq += rng.uniform(-READING_NOISE_DB, READING_NOISE_DB)
        asq += rng.uniform(-READING_NOISE_DB, READING_NOISE_DB)
    return alpha, rho, omega, x, theta, clearance, sq, asq, noisy


def _calibrate(m: tuple, tr, ck: Check) -> float:
    alpha, rho, omega, x, theta, clearance, sq, asq, noisy = m
    status_joint = None
    t0 = time.perf_counter()
    with tr.span("calibration", "dark_noise_uncorrect"):
        raw = (dark_noise_uncorrect(sq, clearance), dark_noise_uncorrect(asq, clearance))
    with tr.span("calibration", "dark_noise_correct"):
        level = (dark_noise_correct(raw[0], clearance), dark_noise_correct(raw[1], clearance))
    measured = MeasuredLevels(*level)
    with tr.span("model", "forward_variances"):
        predicted = forward_variances(alpha, rho, x, omega)
    with tr.span("calibration", "fit_theta"):
        ft = fit_theta(measured, predicted)
    with tr.span("calibration", "fit_joint"):
        try:
            fj = fit_joint(measured, alpha, rho, omega)
        except calibration.FitConvergenceError as err:
            fj, status_joint = err.best, "not_converged"
    with tr.span("model", "forward_variances"):
        fitted = forward_variances(alpha, rho, fj.x, omega)
    jitter = PhaseNoiseModel(fj.theta_rms)
    with tr.span("phase_noise", "degrade_quadrature"):
        quad = degrade_quadrature(fitted, jitter)
    with tr.span("phase_noise", "degrade_exact"):
        exact = degrade_exact(fitted, jitter)
    latency = time.perf_counter() - t0

    status_joint = status_joint or fj.status
    _record_fit(tr, "fit_theta", ft, ft.status)
    _record_fit(tr, "fit_joint", fj, status_joint)
    with tr.span("bench", "check"):
        ck.close(level[0], sq, abs_tol=1e-9)
        ck.close(level[1], asq, abs_tol=1e-9)
        ck.close(quad.r_plus, exact.r_plus, rel=1e-9)
        ck.close(quad.r_minus, exact.r_minus, rel=1e-9)
        if noisy:
            # No exact solution: each fit must do at least as well as the
            # point that generated the reading.
            gen_sq, gen_asq = reference_levels(alpha, rho, x, omega, theta)
            ck.at_most(ft.residual, (gen_sq - level[0]) ** 2 * (1 + 1e-9) + 1e-12)
            ck.at_most(fj.residual, ((gen_sq - level[0]) ** 2 + (gen_asq - level[1]) ** 2)
                       * (1 + 1e-9) + 1e-12)
            ck.equal(ft.status in ("ok", "infeasible") and status_joint in ("ok", "infeasible"), True)
        else:
            ck.equal((ft.status, status_joint), ("ok", "ok"))
            ck.close(ft.theta_rms, theta, abs_tol=THETA_TOL)
            ck.close(fj.theta_rms, theta, abs_tol=THETA_TOL)
            ck.close(fj.x, x, abs_tol=X_TOL)
    return latency


def calibration_setup() -> None:
    """One warm-up call of each function the calibration loop times."""
    _calibrate(_gen_measurement(random.Random(0), False), NULL, Check())


def calibration_batch(seed: int, seconds: float, size: Size, tracer, tamper: bool, workdir: Path) -> dict:
    rng = random.Random(seed)

    def blocks():
        while True:
            readings = [_gen_measurement(rng, k == NOISY_EVERY - 1) for k in range(NOISY_EVERY)]
            yield [partial(_calibrate, m) for m in readings]

    loop = closed_loop(blocks(), seconds, size.calib_min_ops, tracer, tamper)
    result = _summary(loop, size.calib_min_ops, tracer)
    result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    return result


# -- oracle_grid ----------------------------------------------------------


def _oracle_config(x: float, seed: int, segments: int, steps: int) -> LangevinConfig:
    T, L, length = ORACLE_CAVITY
    gamma_out, gamma_loss = SPEED_OF_LIGHT * T / length, SPEED_OF_LIGHT * L / length
    dt = 2.0 * ORACLE_STEP / ((gamma_out + gamma_loss) * (1.0 + x))
    return LangevinConfig(gamma_out=gamma_out, gamma_loss=gamma_loss, x=x, dt=dt,
                          duration=steps * dt, seed=seed, segments=segments)


def oracle_setup() -> None:
    """One warm-up call of the simulation at a small size."""
    cfg = _oracle_config(0.5, 1, 8, 2048)
    simulate_output_spectrum(cfg, [om * cfg.gamma_total for om in ORACLE_OMEGAS])
    forward_variances(1.0, 0.9, 0.5, 0.1)


def oracle_grid(seed: int, seconds: float, size: Size, tracer, tamper: bool, workdir: Path) -> dict:
    base = random.Random(seed).getrandbits(48)
    calls = []  # (level index, check, points) per call, in order
    rss_before = peak_rss_mb()

    def op(tr, ck, level: int, call_seed: int) -> float:
        cfg = _oracle_config(ORACLE_LEVELS[level], call_seed, size.oracle_segments, size.oracle_steps)
        omegas = [om * cfg.gamma_total for om in ORACLE_OMEGAS]
        t0 = time.perf_counter()
        with tr.span("langevin", "simulate_output_spectrum"):
            points = simulate_output_spectrum(cfg, omegas)
        latency = time.perf_counter() - t0
        tr.value("langevin.segment_steps", size.oracle_segments * size.oracle_steps)
        tr.value("langevin.bins", len(omegas))
        with tr.span("bench", "check"):
            ck.equal(len(points), len(omegas))
            for p in points:
                ck.equal((p.segments, p.seed), (size.oracle_segments, call_seed))
                ck.equal(all(math.isfinite(v) and v > 0 for v in
                             (p.r_plus, p.r_minus, p.stderr_plus, p.stderr_minus)), True)
            calls.append((level, ck, points))
        return latency

    def blocks():
        k = 0
        while True:
            yield [lambda tr, ck, lv=lv, s=base + k + lv: op(tr, ck, lv, s)
                   for lv in range(len(ORACLE_LEVELS))]
            k += len(ORACLE_LEVELS)

    loop = closed_loop(blocks(), seconds, size.oracle_min_ops, tracer, tamper)

    # Pool the first oracle_min_ops calls, which every run makes, by level:
    # each bin of the pooled estimate must lie within ORACLE_Z_MAX pooled
    # standard errors of the closed form.  As in criterion 9 the comparison
    # is in dB, where the skew of periodogram averages matters less.  The
    # fixed prefix keeps the verdict a function of the seed alone, however
    # fast the program runs.  A level that misses fails all of its calls.
    pooled = calls[: size.oracle_min_ops]
    rho = ORACLE_CAVITY[0] / (ORACLE_CAVITY[0] + ORACLE_CAVITY[1])
    worst_z = worst_db = 0.0
    failed_levels = set()
    for lv, x in enumerate(ORACLE_LEVELS):
        mine = [pts for level, _, pts in pooled if level == lv]
        ck = Check(tamper)
        for j, om in enumerate(ORACLE_OMEGAS):
            target = forward_variances(1.0, rho, x, om)
            for attr, ref in (("r_plus", target.r_plus), ("r_minus", target.r_minus)):
                mean = sum(getattr(pts[j], attr) for pts in mine) / len(mine)
                se = math.sqrt(sum(getattr(pts[j], "stderr_" + attr[2:]) ** 2 for pts in mine)) / len(mine)
                diff_db = abs(10.0 * math.log10(mean / ref))
                se_db = 10.0 / math.log(10.0) * se / mean
                ck.at_most(diff_db, ORACLE_Z_MAX * se_db)
                worst_z = max(worst_z, diff_db / se_db)
                worst_db = max(worst_db, diff_db)
        if not ck.ok:
            failed_levels.add(lv)
    loop.failures = [not ck.ok or level in failed_levels for level, ck, _ in calls]
    digest = hashlib.sha256()
    for _, _, points in pooled:
        for p in points:
            digest.update(struct.pack("<4d", p.r_plus, p.r_minus, p.stderr_plus, p.stderr_minus))

    result = _summary(loop, size.oracle_min_ops, tracer)
    result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    result["detail"].update(
        digest=digest.hexdigest(), pooled_calls=len(pooled),
        worst_z=worst_z, worst_db=worst_db, calls_per_level=len(calls) // len(ORACLE_LEVELS))
    if tracer is not None:
        result["metrics"]["langevin.rss_growth_mb"] = peak_rss_mb() - rss_before
    return result


# -- shared summary -------------------------------------------------------


def _summary(loop: LoopResult, n_min: int, tracer) -> dict:
    lat = sorted(loop.latencies)
    metrics = {
        "latency_p50_ms": 1e3 * median(lat),
        "latency_tail_ms": 1e3 * lat[tail_index(len(lat), n_min)],
        "ops_per_s": len(lat) / sum(lat),
    }
    # Failures among the first n_min operations, which every run makes
    # whatever its speed: comparable across commits, unlike ``failed``.
    detail = {"ops": len(lat), "tail_percentile": tail_percentile(n_min),
              "prefix_ops": min(n_min, loop.attempted),
              "prefix_failed": sum(loop.failures[:n_min])}
    if tracer is not None:
        metrics.update(layer_metrics(tracer, loop))
    return {"attempted": loop.attempted, "failed": loop.failed, "metrics": metrics, "detail": detail}


_SPAN_METRICS = (
    # metric prefix, layer, span name, scale to the metric's unit, unit suffix
    ("config.from_file", "config", "from_file", 1e6, "_us"),
    ("config.derived", "config", "derived", 1e6, "_us"),
    ("dataset.load", "dataset", "load_dataset", 1e6, "_us"),
    ("model.forward_variances", "model", "forward_variances", 1e6, "_us"),
    ("phase_noise.degrade_exact", "phase_noise", "degrade_exact", 1e6, "_us"),
    ("phase_noise.degrade_quadrature", "phase_noise", "degrade_quadrature", 1e3, "_ms"),
    ("calibration.fit_theta", "calibration", "fit_theta", 1e3, "_ms"),
    ("calibration.fit_joint", "calibration", "fit_joint", 1e3, "_ms"),
    ("langevin.simulate", "langevin", "simulate_output_spectrum", 1.0, "_s"),
)


def layer_metrics(tr: Tracer, loop: LoopResult) -> dict:
    """Per-layer numbers of the traced operations."""
    out = {}
    for prefix, layer, name, scale, suffix in _SPAN_METRICS:
        d = tr.durations(layer, name)
        out[prefix + suffix] = scale * median(d)
        out[prefix + "_calls"] = len(d)
    v = tr.values
    # FitResult.iterations: function evaluations of fit_theta's bounded
    # search, simplex iterations of fit_joint.
    for name, metric in (("fit_theta", "fit_theta_nfev"), ("fit_joint", "fit_joint_nit")):
        out["calibration." + metric] = median(v[f"calibration.{name}_iterations"])
    fits = out["calibration.fit_theta_calls"] + out["calibration.fit_joint_calls"]
    out["calibration.infeasible"] = len(v["calibration.status.infeasible"])
    out["calibration.not_converged"] = len(v["calibration.status.not_converged"])
    out["calibration.recovered_frac"] = len(v["calibration.status.ok"]) / fits if fits else 0.0
    sim = tr.durations("langevin", "simulate_output_spectrum")
    steps = v["langevin.segment_steps"]
    out["langevin.msteps_per_s"] = sum(steps) / sum(sim) / 1e6 if sim else 0.0
    # Computed, per simulate call: float64 noise drawn for two ports and two
    # quadratures, and sideband bins asked for.
    out["langevin.noise_bytes_computed"] = 2 * 2 * 8 * median(steps)
    out["langevin.bins_requested"] = median(v["langevin.bins"])
    out["langevin.rss_growth_mb"] = 0.0
    self_s = tr.self_times()
    wall = sum(tr.durations(ROOT, "op"))
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = self_s.get(layer, 0.0)
    out["trace.wall_s"] = wall
    out["trace.unaccounted_frac"] = self_s.get(ROOT, 0.0) / wall if wall else 0.0
    out["trace.overhead_frac"] = (
        median(loop.traced) / median(loop.untraced) - 1.0 if loop.untraced else 0.0)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.latency_s"] = 0.0
        out[f"cli.{sub}.inproc_ms"] = 0.0
    out["trace.spans"] = len(tr.spans)
    return out


WORKLOADS = {
    "cli_session": (None, cli_session),
    "calibration_batch": (calibration_setup, calibration_batch),
    "oracle_grid": (oracle_setup, oracle_grid),
}
