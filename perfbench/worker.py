"""One benchmark worker: set-up, then (unless --setup-only) one workload run.

Started by run.py in a fresh interpreter.  Set-up is ``import workloads``
(which imports sqzopo) plus one warm-up call of each function the workload
times; the worker then prints ``READY``, so the parent can time process
start to ready.  The run's raw result follows as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import workloads  # noqa: E402  (imports sqzopo: part of the timed set-up)
from tracing import Tracer  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    setup, run = workloads.WORKLOADS[args.workload]
    if setup is not None:
        setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        result = run(args.seed, args.seconds, workloads.SIZES[args.size], tracer, False, Path(tmp))
    if tracer is not None:
        tracer.dump(ROOT / ".perfbench-out" / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
