"""sqzopo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sqzopo is imported from ``src/``.
Prints a machine-facts header line, a detail line, and as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Exits non-zero without a result when the
checkout holds no sqzopo sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cli_session", "calibration_batch", "oracle_grid")
# In-process workloads start this many fresh workers per run, the last of
# which runs the workload; setup_s is the median of their start-to-ready times.
SETUP_WORKERS = 3
# Every process of a run is stopped by then, so the run ends within 180 s.
RUN_TIMEOUT_S = 165.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_MODULES = ("numpy", "sqzopo", "scipy.signal", "scipy.optimize")


class BenchError(RuntimeError):
    pass


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a worker and the CLI calls it has running."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _worker(env: dict, args: argparse.Namespace, setup_only: bool,
            deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its start-to-ready seconds and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    cmd += ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    watchdog = threading.Timer(_remaining(deadline), _kill_group, (proc,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker exited with code {code} (ready line {ready.strip()!r})")
    return setup_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def _import_probe(env: dict, repeats: int, deadline: float) -> dict:
    """Interpreter start-up and `-X importtime` cumulative import times on
    fresh interpreters, medians over ``repeats``."""
    startup, found = [], {m: [] for m in IMPORT_MODULES}
    code = "import sqzopo; import scipy.optimize; import scipy.signal"
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True,
                       timeout=_remaining(deadline))
        startup.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=_remaining(deadline))
        for name, seconds in _import_costs(proc.stderr).items():
            found[name].append(seconds)
    out = {"import.python_startup_s": statistics.median(startup)}
    out.update({f"import.{m}_s": statistics.median(v) for m, v in found.items()})
    return out


def _import_costs(report: str) -> dict[str, float]:
    """Seconds each of IMPORT_MODULES costs in an `-X importtime` report: the
    cumulative time of every outermost entry of the module or a submodule.
    (A package entry can be missing when a submodule pulled it in.)"""
    entries = []
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
    costs = dict.fromkeys(IMPORT_MODULES, 0.0)
    ancestors: list[tuple[int, str]] = []
    # The report lists children before their parent; reversed, parents come first.
    for indent, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        for module in IMPORT_MODULES:
            inside = (name == module or name.startswith(module + ".")) and not any(
                a == module or a.startswith(module + ".") for _, a in ancestors)
            if inside:
                costs[module] += cumulative
        ancestors.append((indent, name))
    return costs


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown (git not available)"
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(args: argparse.Namespace) -> dict:
    src = (ROOT / "src" / "sqzopo" / "__init__.py").read_text()
    version = re.search(r'__version__ = "([^"]+)"', src)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "sqzopo": version.group(1) if version else "unknown",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "size": args.size,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few operations per workload, for the smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sqzopo" / "__init__.py").is_file():
        print(f"error: no sqzopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    print(json.dumps({"header": machine_facts(args)}), flush=True)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        if args.workload != "cli_session":
            for _ in range(SETUP_WORKERS - 1 if args.size == "full" else 0):
                setups.append(_worker(env, args, True, deadline)[0])
        setup_s, result = _worker(env, args, False, deadline)
        metrics = result["metrics"]
        if args.workload != "cli_session":
            setups.append(setup_s)
            metrics["setup_s"] = statistics.median(setups)
            result["detail"]["setup_samples_s"] = setups
        if args.trace:
            metrics.update(_import_probe(env, 3 if args.size == "full" else 1, deadline))
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as err:
        print(f"error: {err!r}", file=sys.stderr)
        return 3

    print(json.dumps({"detail": result["detail"]}), flush=True)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
