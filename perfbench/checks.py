"""Correctness checks on the outputs of each benchmarked command.

Every check compares with a value computed here, from the paper's
measurements and the counting statistics of a start-stop analyser, or with
a property the method must have.  None compares with a stored copy of
earlier output.  Statistical tolerances are Z_MAX Poisson standard
deviations, so a correct program fails one only with negligible
probability on any seed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace

import numpy as np

# Reference measurement of the paper's device at 57 mW CW.
PAPER_C = 80.0
PAPER_N0 = 3.45e6
PAPER_N1 = 1.34e6
PAPER_POWER_MW = 57.0

Z_MAX = 5.0
PEAK_HALF_WIDTH_S = 400e-12


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value, expected, rel, what) -> None:
    _require(math.isclose(value, expected, rel_tol=rel, abs_tol=0.0),
             f"{what}: {value!r} is not within {rel:g} of {expected!r}")


def _z_check(observed, expected, what) -> float:
    z = (observed - expected) / math.sqrt(expected)
    _require(abs(z) <= Z_MAX, f"{what}: observed {observed} vs expected "
             f"{expected:.6g} (z = {z:.2f})")
    return z


def read_histogram(path):
    """(metadata dict, bin centers, counts) of a histogram CSV."""
    meta, rows = {}, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif not line.startswith("delay_s"):
                rows.append(line)
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    return meta, data[:, 0], data[:, 1]


def read_curve(path):
    """Column name -> array of a curve CSV (param,r,C,N0,N1,A,CAR)."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def read_rates(path) -> dict:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")][1:]
    return {name: float(value) for name, value in (line.strip().split(",") for line in lines)}


def _singles(meta, t, n0_rate, n1_rate):
    n0, n1 = int(meta["n_starts"]), int(meta["n_stops"])
    _require(float(meta["acquisition_time_s"]) == t,
             f"acquisition time {meta['acquisition_time_s']} != {t}")
    _z_check(n0, n0_rate * t, "start singles")
    _z_check(n1, n1_rate * t, "stop singles")
    return n0, n1


def _bin_edges(centers):
    width = (centers[-1] - centers[0]) / (centers.size - 1)
    return centers - width / 2.0, centers + width / 2.0


def check_floor_sum(observed, expected, what) -> None:
    _z_check(observed, expected, what)


def check_cw_histogram(path, t, stop_delay_s, policy) -> tuple[float, float]:
    """CW run of the paper's device: singles, accidental floor, peak.

    First-stop: a start's first stop lands in [a, b) with probability
    exp(-r1 a) - exp(-r1 b), the accidental depletion of a start-stop
    analyser (Coates, J. Phys. E 1, 878, 1968).  Multi-stop: every
    (start, stop) pair is enumerated (Wahl et al., Opt. Express 11, 3583,
    2003), so the floor is flat at n0 n1 dt / T.  Both floors are
    conditioned on the run's own singles counts.  Returns the observed and
    expected off-peak floor, for a check over many runs.
    """
    meta, centers, counts = read_histogram(path)
    _require(meta.get("policy") == policy, f"policy {meta.get('policy')} != {policy}")
    n0, n1 = _singles(meta, t, PAPER_N0, PAPER_N1)
    lo, hi = _bin_edges(centers)
    r1 = n1 / t
    if policy == "first-stop":
        floor = n0 * (np.exp(-r1 * lo) - np.exp(-r1 * hi))
        pair_survival = math.exp(-r1 * stop_delay_s)
    else:
        floor = n0 * r1 * (hi - lo)
        pair_survival = 1.0
    in_peak = np.abs(centers - stop_delay_s) <= PEAK_HALF_WIDTH_S
    observed, expected = float(counts[~in_peak].sum()), float(floor[~in_peak].sum())
    _z_check(observed, expected, f"{policy} accidental floor")
    expected_floor = float(floor[in_peak].sum())
    excess = float(counts[in_peak].sum()) - expected_floor
    expected_excess = PAPER_C * t * pair_survival
    sigma = math.sqrt(expected_floor + expected_excess)
    _require(abs(excess - expected_excess) <= Z_MAX * sigma,
             f"{policy} peak excess {excess:.1f} vs {expected_excess:.1f} "
             f"(sigma {sigma:.1f})")
    return observed, expected


def check_pulsed_histogram(out_dir, t, setup) -> None:
    """Pulsed singles agree with the analytic time-averaged rates."""
    meta, _, counts = read_histogram(out_dir / "histogram.csv")
    obs = setup.predict()
    _singles(meta, t, obs.singles0, obs.singles1)
    _require(counts.sum() > 0, "pulsed histogram is empty")
    svg = (out_dir / "histogram.svg").read_text()
    _require(svg.lstrip().startswith("<svg") and svg.rstrip().endswith("</svg>"),
             "histogram.svg is not a complete SVG document")


def check_paper_rates(path) -> dict:
    rates = read_rates(path)
    _close(rates["C_per_s"], PAPER_C, 1e-9, "C at 57 mW")
    _close(rates["N0_per_s"], PAPER_N0, 1e-9, "N0 at 57 mW")
    _close(rates["N1_per_s"], PAPER_N1, 1e-9, "N1 at 57 mW")
    return rates


def check_quadratic_rates(path, power_mw, reference) -> None:
    """Pair generation is quadratic in pump power at these powers."""
    rates = read_rates(path)
    exponent = math.log(rates["C_per_s"] / reference["C_per_s"]) / math.log(
        power_mw / PAPER_POWER_MW)
    _require(1.95 <= exponent <= 2.05, f"C power-law exponent {exponent:.4f}")


def check_calibration(path, paper_cfg, apply_calibration_file) -> None:
    """Predicting with the written calibration reproduces its inputs."""
    obs = apply_calibration_file(paper_cfg, path).setup.predict()
    _close(obs.coincidences, PAPER_C, 1e-9, "calibrated C")
    _close(obs.singles0, PAPER_N0, 1e-9, "calibrated N0")
    _close(obs.singles1, PAPER_N1, 1e-9, "calibrated N1")


def check_sweep(out_dir) -> None:
    """fit.json is the least-squares line through log C vs log power."""
    curve = read_curve(out_dir / "sweep.csv")
    with open(out_dir / "fit.json") as fh:
        fit = json.load(fh)
    lx, ly = np.log(curve["param"]), np.log(curve["C"])
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    _close(fit["exponent"], slope, 1e-9, "fit exponent")
    _close(fit["coefficient"], math.exp(intercept), 1e-9, "fit coefficient")
    _require(fit["n_points"] == lx.size, "fit point count")


def check_car_vs_mu(path, mus, tau_s, car_at_first) -> None:
    """r*tau hits each requested mu and CAR falls beyond the knee."""
    curve = read_curve(path)
    _require(curve["param"].size == len(mus), "mu curve length")
    for mu, r in zip(mus, curve["r"]):
        _close(r * tau_s, mu, 1e-9, f"pairs per pulse at mu={mu:g}")
    car = curve["CAR"]
    _require(bool(np.all(np.diff(car) < 0.0)), f"CAR not strictly decreasing: {car}")
    _close(car[0], car_at_first, 1e-6, f"CAR at mu={mus[0]:g}")


def check_car_vs_detuning(path) -> None:
    """The curve passes through the calibration point at 1.4 THz."""
    curve = read_curve(path)
    last = {name: column[-1] for name, column in curve.items()}
    _close(last["param"], 1.4e12, 1e-12, "last detuning")
    _close(last["C"], PAPER_C, 1e-9, "C at 1.4 THz")
    _close(last["N0"], PAPER_N0, 1e-9, "N0 at 1.4 THz")
    _close(last["N1"], PAPER_N1, 1e-9, "N1 at 1.4 THz")


_SEARCH_FIELDS = {
    "detuning_hz": None,
    "tau_s": "tau_s",
    "rep_rate_hz": "rep_rate_hz",
    "peak_power_w": "power_w",
}


def _design_point(setup, point):
    pump = {field: point[name] for name, field in _SEARCH_FIELDS.items()
            if field and name in point}
    s = replace(setup, pump=replace(setup.pump, **pump))
    if "detuning_hz" in point:
        s = s.with_detuning(point["detuning_hz"])
    return s


def grid_best_car(setup, bounds, mu_min, points, domain_errors) -> float:
    """Best feasible CAR over the coarse grid, evaluated with Setup.predict."""
    names = sorted(bounds)
    axes = [np.linspace(lo, hi, points) for lo, hi in (bounds[n] for n in names)]
    best = -math.inf
    for values in itertools.product(*axes):
        try:
            s = _design_point(setup, dict(zip(names, map(float, values))))
            obs = s.predict()
        except domain_errors:
            continue
        if obs.pair_rate * s.pump.tau_s >= mu_min:
            best = max(best, obs.car)
    return best


def check_design(path, setup, bounds, mu_min, grid_best) -> None:
    """Inside the box, feasible, self-consistent, at least the grid's best."""
    with open(path) as fh:
        design = json.load(fh)
    best = design["best"]
    _require(sorted(best) == sorted(bounds), f"design parameters {sorted(best)}")
    for name, (lo, hi) in bounds.items():
        _require(lo <= best[name] <= hi, f"{name}={best[name]} outside [{lo}, {hi}]")
    _require(design["pairs_per_pulse"] >= mu_min,
             f"pairs per pulse {design['pairs_per_pulse']} below {mu_min}")
    s = _design_point(setup, best)
    obs = s.predict()
    _close(design["car"], obs.car, 1e-9, "design CAR re-evaluated")
    _close(design["pairs_per_pulse"], obs.pair_rate * s.pump.tau_s, 1e-9,
           "design pairs per pulse re-evaluated")
    _require(design["car"] >= grid_best,
             f"design CAR {design['car']} below the grid's best {grid_best}")

