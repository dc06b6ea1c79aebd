"""Parameter sweeps, power-law fits, CAR curves and a small design search.

Everything here drives the analytic model; sweeps and grid scans are pure
functions of the configuration and are deterministic.  The one 1-D solver
is ``_bisect``: it finds the pump-power turnover and the peak power of a
target pairs-per-pulse.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import Setup, set_path
from .errors import ConfigError, NumericsError, PowerSolveError
from .model import ModelObservables, assemble_observables, pair_generation_rate, rate_budget

CURVE_COLUMNS = ("param", "r", "C", "N0", "N1", "A", "CAR")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter (dot-addressed SI field) and its values."""

    param: str
    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ConfigError("sweep needs at least one value")
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ConfigError("sweep values must be strictly monotone")


@dataclass
class CurveResult:
    """Rows of (parameter value, observables), order preserved."""

    param: str
    values: tuple
    observables: list
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        if name == "param":
            return np.asarray(self.values, dtype=float)
        return np.array([obs.as_row()[name] for obs in self.observables])

    def write_csv(self, path) -> None:
        lines = [f"# param={self.param}"]
        for key in sorted(self.meta):
            lines.append(f"# {key}={self.meta[key]}")
        lines.append(",".join(CURVE_COLUMNS))
        for v, obs in zip(self.values, self.observables):
            row = obs.as_row()
            cells = [repr(float(v))] + [repr(float(row[c])) for c in CURVE_COLUMNS[1:]]
            lines.append(",".join(cells))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def sweep(setup: Setup, spec: SweepSpec) -> CurveResult:
    """Evaluate the model at each value of one parameter, all else frozen."""
    observables = []
    for v in spec.values:
        observables.append(set_path(setup, spec.param, v).predict())
    return CurveResult(param=spec.param, values=spec.values, observables=observables)


@dataclass(frozen=True)
class FitResult:
    """Power-law fit y = coefficient * x^exponent in log-log space."""

    exponent: float
    coefficient: float
    residual_rms: float
    n_points: int


def fit_power_law(points) -> FitResult:
    """Least-squares line through (log x, log y); the slope is the exponent."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ConfigError(f"power-law fit needs at least 3 points, got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ConfigError("power-law fit requires positive data")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    with np.errstate(over="ignore"):  # a coefficient beyond the float range is inf
        return FitResult(
            exponent=float(slope),
            coefficient=float(np.exp(intercept)),
            residual_rms=float(np.sqrt(np.mean(resid**2))),
            n_points=len(pts),
        )


def _rate_at_power(setup: Setup, power_w: float) -> float:
    return pair_generation_rate(setup.waveguide, power_w, setup.idler)


def _bisect(below, lo: float, hi: float, rel_tol: float) -> float:
    """Midpoint of the final bracket around the point where ``below`` turns
    false, for a predicate true on [lo, x) and false on [x, hi]."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * max(hi, 1e-30):
            break
    return 0.5 * (lo + hi)


# Highest peak power, in W, the turnover scan looks at.
_TURNOVER_SCAN_MAX_W = 1e4


def _turnover_power(setup: Setup) -> float:
    """Upper end of the monotone-increasing branch of rate vs peak power.

    The rate grows quadratically until the nonlinear phase pushes the
    envelope over. Walk a geometric grid up to the first power whose rate
    falls, then bisect the two grid cells below it for the point where the
    rate stops rising. Nothing past that first fall is evaluated.
    """
    grid = np.geomspace(1e-6, _TURNOVER_SCAN_MAX_W, 400)
    # First local maximum, not the global one: the envelope oscillates at
    # high power and only the first lobe is the monotone branch.
    previous = _rate_at_power(setup, grid[0])
    for i in range(1, len(grid)):
        rate = _rate_at_power(setup, grid[i])
        if rate < previous:
            break
        previous = rate
    else:
        return float(grid[-1])

    # Within a few 1e-8 of the flat maximum the two rates round alike, so
    # the turnover is found to about that, not to the bisection's 1e-12.
    def rising(p):
        return _rate_at_power(setup, p) < _rate_at_power(setup, p * (1.0 + 1e-9))

    return _bisect(rising, grid[max(i - 2, 0)], grid[i], 1e-12)


# Largest relative miss of mu a solved power may give.  The bisection
# brackets the power to 1e-12, which moves mu by up to about 1e-12 on the
# quadratic branch; a larger miss means it stopped on its absolute floor.
_MU_REL_TOL = 1e-9


def power_for_pairs_per_pulse(setup: Setup, mu: float) -> float:
    """Peak power at which the in-pulse rate times tau equals ``mu``.

    Bisection on the monotone-increasing branch below the phase-envelope
    turnover (``_turnover_power``, itself a bisection); raises if ``mu`` is
    unreachable there, or if the power found misses ``mu`` by more than
    ``_MU_REL_TOL`` (a ``mu`` so small that its power lies below the
    bisection's resolution).
    """
    return next(_solve_powers(setup, (mu,)))


def _solve_powers(setup: Setup, mus):
    """Yield ``power_for_pairs_per_pulse(setup, mu)`` for each of ``mus`` in
    turn, solving the turnover once, before the first solve that needs it.
    A generator, so a caller interleaving other work with the solves sees
    their errors in the order of ``mus``."""
    tau = setup.pump.tau_s
    p_turn = mu_max = None
    for mu in mus:
        if not 0.0 < mu < math.inf:
            raise ConfigError(f"pairs per pulse must be positive and finite, got {mu}")
        if setup.pump.mode != "pulsed":
            raise ConfigError("pairs-per-pulse solve requires a pulsed pump")
        if p_turn is None:
            p_turn = _turnover_power(setup)
            mu_max = _rate_at_power(setup, p_turn) * tau
        if mu > mu_max:
            raise PowerSolveError(
                f"mu={mu:.4g} unreachable on the monotone branch (max {mu_max:.4g} "
                f"at peak power {p_turn:.4g} W)"
            )
        power = _bisect(lambda p: _rate_at_power(setup, p) * tau < mu, 0.0, p_turn, 1e-12)
        achieved = _rate_at_power(setup, power) * tau
        if not abs(achieved - mu) <= _MU_REL_TOL * mu:
            raise NumericsError(
                f"power solve for mu={mu:.4g} did not converge: {power:.4g} W gives "
                f"mu={achieved:.4g}"
            )
        yield power


def car_vs_mu(setup: Setup, mus) -> CurveResult:
    """CAR versus expected pairs per pulse; solves peak power per point,
    below a turnover solved once per curve.

    Accidentals are counted in ``setup.analysis.accidental_mode``.
    """
    mus = tuple(float(m) for m in mus)
    observables = [set_path(setup, "pump.power_w", power).predict()
                   for power in _solve_powers(setup, mus)]
    return CurveResult(
        param="pairs_per_pulse",
        values=mus,
        observables=observables,
        meta={"accidental_mode": setup.analysis.accidental_mode},
    )


def car_vs_detuning(setup: Setup, detunings_hz) -> CurveResult:
    """CAR versus channel detuning magnitude, noise and leakage included."""
    values = tuple(float(v) for v in detunings_hz)
    if any(v <= 0 for v in values):
        raise ConfigError("detuning sweep values must be positive magnitudes")
    observables = [setup.with_detuning(nu).predict() for nu in values]
    return CurveResult(param="detuning_hz", values=values, observables=observables)


# ------------------------------------------------------------------
# Constrained design search

# Search dimensions: name -> the PumpConfig field it sets, or None for the
# channel detuning (``Setup.channels_at``).
_SEARCH_FIELDS = {
    "detuning_hz": None,
    "tau_s": "tau_s",
    "rep_rate_hz": "rep_rate_hz",
    "peak_power_w": "power_w",
}


# Coordinate descent stops once every step is below this share of its span.
_DESCENT_REL_TOL = 1e-3


@dataclass
class DesignResult:
    """Best feasible point of a CAR maximization plus its search trace."""

    best: dict
    car: float
    pairs_per_pulse: float
    coincidence_rate: float
    trace: list = field(default_factory=list)


def _point_builder(setup: Setup, names):
    """A function from a search point over ``names`` to its setup.

    The pump fields are replaced together, and each setup is built by one
    keyword call of the ``Setup`` constructor on the point's pump and channel
    pair, so the pump and the setup are validated on the point's final
    values.  The pump of each distinct set of pump values and the channel
    pair of each detuning are built once per builder and shared by every
    setup that uses them.  A part whose construction raises is not
    remembered: it raises again at every point that needs it.
    """
    pump_names = [n for n in names if _SEARCH_FIELDS[n]]
    pump_fields = [_SEARCH_FIELDS[n] for n in pump_names]
    pumps, channels = {}, {}

    def build(point) -> Setup:
        values = dict(zip(names, map(float, point)))
        pump, idler, signal = setup.pump, setup.idler, setup.signal
        if pump_fields:
            key = tuple(values[n] for n in pump_names)
            if key not in pumps:
                pumps[key] = replace(setup.pump, **dict(zip(pump_fields, key)))
            pump = pumps[key]
        if "detuning_hz" in values:
            nu = values["detuning_hz"]
            if nu not in channels:
                channels[nu] = setup.channels_at(nu)
            idler, signal = channels[nu]["idler"], channels[nu]["signal"]
        return Setup(waveguide=setup.waveguide, pump=pump, coupling=setup.coupling,
                     idler=idler, signal=signal, noise=setup.noise, analysis=setup.analysis)

    return build


def _evaluate(setup: Setup, obs: ModelObservables,
              constraint) -> tuple[float, float, float, bool]:
    """CAR, pairs per pulse, coincidence rate and feasibility of a point
    whose setup and observables are ``setup`` and ``obs``."""
    mu = obs.pair_rate * setup.pump.tau_s if setup.pump.mode == "pulsed" else math.nan
    kind, bound = constraint
    feasible = (mu if kind == "mu_min" else obs.coincidences) >= bound
    return obs.car, mu, obs.coincidences, feasible


def optimize_car(
    setup: Setup,
    bounds: dict,
    constraint: tuple,
    grid_points: int = 7,
) -> DesignResult:
    """Maximize CAR over box bounds with a coarse grid then coordinate descent.

    ``bounds`` maps a subset of {detuning_hz, tau_s, rep_rate_hz,
    peak_power_w} to (lo, hi); ``constraint`` is ("mu_min", x) or
    ("c_min", x).  Deterministic: a fixed grid, then per-coordinate steps
    halved until below ``_DESCENT_REL_TOL`` of each span.  The result is
    never an infeasible point and is at least as good as the best grid
    point.

    Each point's setup is built afresh (``_point_builder``) and its
    observables assembled (``model.assemble_observables``) from the rate
    budget of its peak power and detuning, which is computed once per call
    for each distinct pair of the two: 49 budgets for a 7^4 grid over
    detuning, pulse duration, repetition rate and peak power.  A budget that
    raises is not kept; it is computed again at the next point that needs it.
    """
    if not bounds:
        raise ConfigError("optimize_car needs at least one bounded parameter")
    unknown = set(bounds) - set(_SEARCH_FIELDS)
    if unknown:
        raise ConfigError(f"unknown search parameter(s): {sorted(unknown)}")
    names = sorted(bounds)
    lows = np.array([float(bounds[n][0]) for n in names])
    highs = np.array([float(bounds[n][1]) for n in names])
    for n, lo, hi in zip(names, lows, highs):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"bound {n}={lo}:{hi} must have finite endpoints")
    if np.any(highs < lows):
        raise ConfigError("each bound must satisfy lo <= hi")
    kind, bound = constraint
    if kind not in ("mu_min", "c_min"):
        raise ConfigError(f"unknown constraint kind {kind!r}; use 'mu_min' or 'c_min'")
    if not math.isfinite(bound):
        raise ConfigError(f"constraint {kind}={bound} must be finite")
    if grid_points < 2:
        raise ConfigError(f"grid_points must be at least 2, got {grid_points}")
    spans = highs - lows

    trace = []
    build = _point_builder(setup, names)
    # The search varies no part of the setup that the budget reads besides
    # the pump's power and the channels' detuning.
    budgets = {}

    def infeasible_safe_eval(point):
        try:
            s = build(point)
            key = (s.pump.power_w, s.signal.detuning_hz)
            budget = budgets.get(key)
            if budget is None:
                budget = budgets[key] = rate_budget(s)
            car, mu, c, feasible = _evaluate(s, assemble_observables(s, budget), constraint)
        except (ConfigError, NumericsError):
            # Out-of-domain points (noise table span, unreachable power)
            # count as infeasible rather than aborting the search.
            return -math.inf, math.nan, math.nan, False
        trace.append({"point": dict(zip(names, map(float, point))), "car": car,
                      "feasible": feasible})
        return (car if feasible else -math.inf), mu, c, feasible

    axes = [
        np.linspace(lo, hi, grid_points) if hi > lo else np.array([lo])
        for lo, hi in zip(lows, highs)
    ]
    best_point, best_car, best_mu, best_c = None, -math.inf, math.nan, math.nan
    for point in itertools.product(*axes):
        car, mu, c, feasible = infeasible_safe_eval(np.array(point))
        if feasible and car > best_car:
            best_point, best_car, best_mu, best_c = np.array(point), car, mu, c
    if best_point is None:
        raise ConfigError("no feasible point in the search box")

    steps = np.where(spans > 0, spans / max(grid_points - 1, 1) / 2.0, 0.0)
    while np.any(steps > _DESCENT_REL_TOL * np.maximum(spans, 1e-300)):
        improved = False
        for i in range(len(names)):
            if steps[i] == 0.0:
                continue
            for direction in (+1.0, -1.0):
                candidate = best_point.copy()
                candidate[i] = np.clip(candidate[i] + direction * steps[i], lows[i], highs[i])
                if candidate[i] == best_point[i]:
                    continue
                car, mu, c, feasible = infeasible_safe_eval(candidate)
                if feasible and car > best_car:
                    best_point, best_car, best_mu, best_c = candidate, car, mu, c
                    improved = True
                    break
        if not improved:
            steps = steps / 2.0

    return DesignResult(
        best=dict(zip(names, map(float, best_point))),
        car=float(best_car),
        pairs_per_pulse=float(best_mu),
        coincidence_rate=float(best_c),
        trace=trace,
    )
