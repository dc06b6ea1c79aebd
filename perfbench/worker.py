"""One benchmark workload, run in-process through ``sfwmlab.cli.main``.

``run.py`` starts this script once per sample of set-up time
(``--setup-only``) and once for the measured run.  It prints one JSON
object as the last line of its standard output.

    python3 perfbench/worker.py --write-reference
        regenerates perfbench/reference_digests.json from this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from tracing import PER_LAYER, Tracer, peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE_DIGESTS = HERE / "reference_digests.json"

WORKLOADS = ("cw-first-stop", "cw-multi-stop-wide", "pulsed-design")

PAPER = "paper-defaults"
ENGINEERED = "engineered-defaults"
STOP_DELAY_S = 11.1e-9
# Two of run_tia's time chunks (5.8 s each at the default 2e7 events per
# chunk), so the carry across a chunk edge is exercised.
CW_ACQUISITION_S = 9.0
PULSED_ACQUISITION_S = 300.0
MULTI_STOP_RANGE_NS = [10.0, 330.0]
# A round runs the design session three times, and every design command but
# optimize three times within each session, so that each command's median
# rests on many samples even where the histogram takes most of a round.
SESSIONS_PER_ROUND = 3
QUICK_REPEATS = 3
# Other tenants slow this host's cores by up to 2x for seconds to minutes,
# and its disk's latency drifts too.  Two fixed reference tasks run after
# every command, and the median of each over a run measures how fast the
# host did that kind of work during the run.  Each command's median time is
# scaled to a host on which its reference takes the nominal time below
# (about the reference's median on the 2-vCPU reference machine).  "objects"
# does what most design commands mostly do: copy a nested config-like
# structure, encode it as JSON and write it to a file.  "loop" is a plain
# interpreter loop, which the host's drift moves less; the histogram and
# optimize follow it more closely.
REFERENCE_S = {"loop": 2.8e-3, "objects": 2.5e-3}
REFERENCE_LOOP_N = 30000
REFERENCE_DOC = {
    "sections": [{f"key{i}": [float(j) for j in range(8)] for i in range(12)}
                 for _ in range(6)],
    "meta": {"name": "reference", "values": [1, 2, 3]},
}

RATES_POWER_MW = 30.0
SWEEP_VALUES = "0.01:0.06:11"
MU_VALUES = (0.01, 0.025, 8)
DETUNING_VALUES = "0.3:1.4:12"
# engineered-defaults is inverse-calibrated to this CAR at mu = 0.01.
ENGINEERED_CAR_AT_MU = 250.0
OPTIMIZE_BOUNDS = {
    "detuning_hz": (5e11, 8.2e12),
    "tau_s": (2e-12, 2e-11),
    "rep_rate_hz": (5e7, 5e8),
    "peak_power_w": (0.05, 5.0),
}
OPTIMIZE_MU_MIN = 0.005
OPTIMIZE_GRID_POINTS = 7
# Round k of a run simulates with seed * ROUND_SEED_STRIDE + k.
ROUND_SEED_STRIDE = 10000

# Deterministic outputs whose sha256 every run records (not a gate).
DIGESTED = ("rates/rates.csv", "rates_overrides/rates.csv",
            "calibrate/calibration.json", "sweep/sweep.csv", "sweep/fit.json",
            "car_curve_mu/car_curve.csv", "car_curve_detuning/car_curve.csv",
            "optimize/design.json")


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that touches no program state."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP_N):
        total += i * i
    return time.perf_counter() - start


def reference_objects(path: Path) -> float:
    """Wall time of copying REFERENCE_DOC, encoding it and writing it out."""
    start = time.perf_counter()
    for _ in range(3):
        text = json.dumps(copy.deepcopy(REFERENCE_DOC))
    with open(path, "w") as fh:
        fh.write(text)
    return time.perf_counter() - start


def import_program():
    """Import sfwmlab from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sfwmlab
    import sfwmlab.cli  # noqa: F401  (part of set-up: every command goes through it)

    if Path(sfwmlab.__file__).resolve().parent != (src / "sfwmlab").resolve():
        raise SystemExit(f"sfwmlab imported from {sfwmlab.__file__}, not {src}")


@dataclass
class Op:
    """One CLI command of a round; ``argv`` leaves out ``--seed``.

    ``round_seed`` gives the command a fresh seed in every round.
    ``reference`` names the host reference its time is scaled by.
    ``expect_exit`` 2 marks a contract probe: bad input that must end with
    exit code 2 and a message, and counts as failed otherwise.
    """

    name: str
    argv: list
    metric: str | None = None
    check: Callable | None = None
    expect_exit: int = 0
    round_seed: bool = False
    reference: str = "objects"


class Workload:
    """Set-up state and the fixed round of operations of one workload."""

    def __init__(self, name: str, seed: int, work: Path):
        from sfwmlab.config import load_config

        self.name, self.seed, self.work = name, seed, work
        work.mkdir(parents=True, exist_ok=True)
        self.paper = load_config(PAPER)
        self.engineered = load_config(ENGINEERED)
        hist_config = PAPER
        if name == "cw-multi-stop-wide":
            raw = copy.deepcopy(self.paper.raw)
            raw["analysis"]["tia"]["policy"] = "multi-stop"
            raw["analysis"]["tia"]["range_ns"] = MULTI_STOP_RANGE_NS
            path = work / "multi_stop_wide.json"
            with open(path, "w") as fh:
                json.dump(raw, fh, indent=2)
            load_config(path)
            hist_config = str(path)
        self._grid_best = None
        self._rates_57 = None
        self.floor = [0.0, 0.0]  # accidental floor over all rounds: observed, expected
        self.ops = [self._histogram_op(hist_config)]
        self.ops += self._session_ops() * SESSIONS_PER_ROUND
        if name == "pulsed-design":
            self.ops += self._probe_ops()

    def out_dir(self, name: str) -> Path:
        return self.work / name

    def _cmd(self, name, *argv):
        return [*argv, "--out", str(self.out_dir(name))]

    def seed_for(self, op: Op, round_index: int) -> int:
        """The run's seed, or for a simulation one derived from it per round."""
        return self.seed * ROUND_SEED_STRIDE + round_index if op.round_seed else self.seed

    def _histogram_op(self, config) -> Op:
        if self.name == "pulsed-design":
            setup = self.engineered.setup
            return Op("histogram", self._cmd(
                "histogram", "histogram", "--config", ENGINEERED,
                "--duration", repr(PULSED_ACQUISITION_S), "--svg"),
                "histogram_s",
                lambda out: checks.check_pulsed_histogram(out, PULSED_ACQUISITION_S, setup),
                round_seed=True, reference="loop")
        policy = "first-stop" if self.name == "cw-first-stop" else "multi-stop"

        def check(out):
            observed, expected = checks.check_cw_histogram(
                out / "histogram.csv", CW_ACQUISITION_S, STOP_DELAY_S, policy)
            self.floor[0] += observed
            self.floor[1] += expected

        return Op("histogram", self._cmd(
            "histogram", "histogram", "--config", config,
            "--duration", repr(CW_ACQUISITION_S)),
            "histogram_s", check, round_seed=True, reference="loop")

    def check_run(self) -> None:
        """Checks on all rounds together; the floor gains their statistics."""
        if self.floor[1]:
            checks.check_floor_sum(*self.floor, f"{self.name} floor over all rounds")

    def _session_ops(self) -> list:
        from sfwmlab.config import apply_calibration_file

        mus = [float(v) for v in np.geomspace(*MU_VALUES)]
        tau_s = self.engineered.setup.pump.tau_s

        def rates_57(out):
            self._rates_57 = checks.check_paper_rates(out / "rates.csv")

        def rates_30(out):
            checks.check_quadratic_rates(out / "rates.csv", RATES_POWER_MW, self._rates_57)

        def design(out):
            checks.check_design(out / "design.json", self.engineered.setup,
                                OPTIMIZE_BOUNDS, OPTIMIZE_MU_MIN, self.grid_best())

        bounds = []
        for key, (lo, hi) in OPTIMIZE_BOUNDS.items():
            bounds += ["--bound", f"{key}={lo!r}:{hi!r}"]
        quick = [
            Op("rates", self._cmd("rates", "rates", "--config", PAPER), None, rates_57),
            Op("rates_overrides", self._cmd(
                "rates_overrides", "rates", "--config", PAPER,
                "--power-mw", repr(RATES_POWER_MW), "--mode", "binned", "--window-ps", "800"),
                "rates_s", rates_30),
            Op("calibrate", self._cmd(
                "calibrate", "calibrate", "--config", PAPER,
                "--measured-c", repr(checks.PAPER_C), "--measured-n0", repr(checks.PAPER_N0),
                "--measured-n1", repr(checks.PAPER_N1)),
                "calibrate_s",
                lambda out: checks.check_calibration(
                    out / "calibration.json", self.paper, apply_calibration_file)),
            Op("sweep", self._cmd(
                "sweep", "sweep", "--config", PAPER, "--param", "pump.power_w",
                "--values", SWEEP_VALUES),
                "sweep_s", checks.check_sweep),
            Op("car_curve_mu", self._cmd(
                "car_curve_mu", "car-curve", "--config", ENGINEERED,
                "--mu", "{}:{}:{}:log".format(*MU_VALUES)),
                "car_curve_mu_s",
                lambda out: checks.check_car_vs_mu(
                    out / "car_curve.csv", mus, tau_s, ENGINEERED_CAR_AT_MU)),
            Op("car_curve_detuning", self._cmd(
                "car_curve_detuning", "car-curve", "--config", PAPER,
                "--detuning", DETUNING_VALUES),
                "car_curve_detuning_s",
                lambda out: checks.check_car_vs_detuning(out / "car_curve.csv")),
        ]
        return quick * QUICK_REPEATS + [
            Op("optimize", self._cmd(
                "optimize", "optimize", "--config", ENGINEERED, *bounds,
                "--mu-min", repr(OPTIMIZE_MU_MIN),
                "--grid-points", str(OPTIMIZE_GRID_POINTS)),
                "optimize_s", design, reference="loop"),
        ]

    def _probe_ops(self) -> list:
        # Never probe --duration inf: run_tia's chunk-edge loop does not end on it.
        return [
            Op("probe_rates_nan", self._cmd(
                "probe_rates_nan", "rates", "--config", PAPER, "--power-mw", "nan"),
                expect_exit=2),
            Op("probe_histogram_nan", self._cmd(
                "probe_histogram_nan", "histogram", "--config", PAPER, "--duration", "nan"),
                expect_exit=2),
        ]

    def grid_best(self) -> float:
        """Best feasible CAR of optimize's coarse grid, computed once."""
        if self._grid_best is None:
            from sfwmlab.errors import ConfigError, NumericsError

            self._grid_best = checks.grid_best_car(
                self.engineered.setup, OPTIMIZE_BOUNDS, OPTIMIZE_MU_MIN,
                OPTIMIZE_GRID_POINTS, (ConfigError, NumericsError))
        return self._grid_best

    def digests(self) -> dict:
        out = {}
        for rel in DIGESTED:
            path = self.work / rel
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        return out


class Runner:
    """Runs whole rounds of a workload and keeps the tallies."""

    def __init__(self, workload: Workload, tracer=None):
        import sfwmlab.cli

        self.cli = sfwmlab.cli
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times = {}
        self.reference = {kind: [] for kind in REFERENCE_S}  # after every command
        self._reported = set()

    def _report(self, key, message) -> None:
        if key not in self._reported:
            self._reported.add(key)
            print(f"[{self.workload.name}] {message}", file=sys.stderr)

    def run_op(self, op: Op, round_index: int) -> float:
        """Run and check one command; return its wall time."""
        self.attempted += 1
        captured_err = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(captured_err):
                rc = self.cli.main(
                    [*op.argv, "--seed", str(self.workload.seed_for(op, round_index))])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback out of cli.main breaks the contract
            rc, error = None, exc
        elapsed = time.perf_counter() - start
        self.reference["loop"].append(reference_loop())
        self.reference["objects"].append(
            reference_objects(self.workload.work / "reference.json"))

        if op.expect_exit != 0:
            if rc != op.expect_exit or not captured_err.getvalue().strip() or error:
                self.failed += 1
                what = f"{type(error).__name__}: {error}" if error else f"exit {rc}"
                self._report(op.name, f"contract probe {op.name} failed: {what} "
                             f"(expected exit {op.expect_exit} with a message)")
            return elapsed
        if rc != 0 or error:
            self.failed += 1
            detail = "".join(traceback.format_exception(error)) if error else \
                captured_err.getvalue()
            self._report(op.name, f"{op.name} failed (exit {rc}): {detail}")
            return elapsed
        if self.tracer:
            self.tracer.paused = True
        try:
            op.check(self.workload.out_dir(op.name))
        except checks.CheckFailed as exc:
            self.correct = False
            self._report(("check", op.name), f"check of {op.name} failed: {exc}")
        finally:
            if self.tracer:
                self.tracer.paused = False
        if op.metric:
            self.times.setdefault(op.metric, (op.reference, []))[1].append(elapsed)
        return elapsed

    def run_round(self, round_index: int) -> float:
        """Run every operation once; return their summed wall time."""
        return sum(self.run_op(op, round_index) for op in self.workload.ops)

    def check_run(self) -> None:
        try:
            self.workload.check_run()
        except checks.CheckFailed as exc:
            self.correct = False
            self._report("run", f"check over all rounds failed: {exc}")


def _digest_report(name: str, digests: dict) -> None:
    with open(OUT / f"digests-{name}.json", "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
    try:
        with open(REFERENCE_DIGESTS) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        print("digests: no reference set", file=sys.stderr)
        return
    differ = sorted(k for k in digests if digests[k] != reference.get(k))
    print(f"digests: {len(digests) - len(differ)}/{len(digests)} identical to the "
          f"reference set" + (f"; differ: {', '.join(differ)}" if differ else ""),
          file=sys.stderr)


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    runner = Runner(workload, tracer)
    traced_walls, untraced_walls = {}, []
    deadline = time.monotonic() + seconds
    pass_id = 0
    while True:
        # Traced and untraced passes alternate, the first one traced, so the
        # run_tia memory figure comes from the first simulation of the process.
        traced = trace and pass_id % 2 == 0
        if traced:
            tracer.pass_id = pass_id
            tracer.install()
        wall = runner.run_round(pass_id)
        if traced:
            tracer.uninstall()
            traced_walls[pass_id] = wall
        else:
            untraced_walls.append(wall)
        if pass_id == 0:
            _digest_report(workload.name, workload.digests())
        pass_id += 1
        if time.monotonic() >= deadline and (not trace or untraced_walls):
            break

    runner.check_run()
    if trace:
        layer = tracer.layer_metrics(traced_walls, untraced_walls)
        if tracer.absent:
            print(f"absent call sites: {', '.join(tracer.absent)}", file=sys.stderr)
        tracer.dump(OUT / f"trace-{workload.name}.json",
                    {"workload": workload.name, "seed": workload.seed,
                     "traced_walls": traced_walls, "untraced_walls": untraced_walls})
        for kind, samples in runner.reference.items():
            layer[f"host.{kind}_reference_s"] = statistics.median(samples)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {"peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}
        scale = {}
        for kind, samples in runner.reference.items():
            median = statistics.median(samples)
            scale[kind] = REFERENCE_S[kind] / median
            print(f"{kind} reference: median {median * 1e3:.4f} ms over "
                  f"{len(samples)} samples", file=sys.stderr)
        for name, (kind, samples) in sorted(runner.times.items()):
            metrics[name] = {"value": statistics.median(samples) * scale[kind], "unit": "s"}
    return {"correct": runner.correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def write_reference() -> None:
    work = OUT / f"reference-{os.getpid()}"
    try:
        workload = Workload("pulsed-design", 0, work)
        runner = Runner(workload)
        for op in workload.ops[1:]:
            runner.run_op(op, 0)
        if not runner.correct:
            raise SystemExit("a check failed; reference set not written")
        with open(REFERENCE_DIGESTS, "w") as fh:
            json.dump(workload.digests(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {REFERENCE_DIGESTS}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    import_program()
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload = Workload(args.workload, args.seed, work)
        ready = time.monotonic()
        if args.setup_only:
            result = {}
        else:
            result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
