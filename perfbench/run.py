"""sfwmlab benchmark: real CLI commands, timed end to end, outputs checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        runs one workload and prints one JSON object as its last line:
        the end-to-end metrics with --trace 0, the per-layer metrics with
        --trace 1.
    python3 perfbench/run.py --workload all [--seed n] [--seconds s]
        runs every workload untraced and prints each metric by name and unit.

Each workload runs in its own single-threaded worker process.  set-up time
is sampled over several fresh processes and reported as their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cw-first-stop", "cw-multi-stop-wide", "pulsed-design")
SETUP_SAMPLES = 9
# A run must end within 180 s; leave room for the set-up samples.
TIME_LIMIT_S = 170.0
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _worker(args, deadline) -> tuple[dict, float]:
    """Run the worker once; return its result and its start time."""
    env = dict(os.environ, **SINGLE_THREADED)
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1]), started


def run_workload(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            result, started = _worker([*common, "--setup-only"], deadline)
            setup.append(result["ready"] - started)
    result, started = _worker(
        [*common, "--seconds", repr(seconds), "--trace", str(int(trace))], deadline)
    ready = result.pop("ready")
    if not trace:
        setup.append(ready - started)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sfwmlab" / "__init__.py").is_file():
        print(f"no sfwmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))))
            return 0
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, False)
            print(f"{workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in sorted(result["metrics"].items()):
                print(f"  {name:22s} {metric['value']:12.6g} {metric['unit']}")
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
