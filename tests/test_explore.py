import copy
import itertools
import math

import numpy as np
import pytest

from sfwmlab import explore
from sfwmlab.config import Setup, load_config, set_path
from sfwmlab.devices import PumpConfig
from sfwmlab.errors import ConfigError, ExtrapolationError, NumericsError, PowerSolveError
from sfwmlab.explore import (
    SweepSpec,
    _point_builder,
    car_vs_detuning,
    car_vs_mu,
    fit_power_law,
    optimize_car,
    power_for_pairs_per_pulse,
    sweep,
)
from sfwmlab.model import assemble_observables, pair_generation_rate, rate_budget

from conftest import make_noise_free, with_analysis


class TestSweep:
    def test_power_sweep_monotone(self, paper_cfg):
        spec = SweepSpec("pump.power_w", np.linspace(0.010, 0.060, 6))
        curve = sweep(paper_cfg.setup, spec)
        c = curve.column("C")
        assert np.all(np.diff(c) > 0)

    def test_output_coupling_square_law_exact(self, paper_cfg):
        spec = SweepSpec("coupling.output_scale", (0.25, 0.5, 0.75, 1.0))
        curve = sweep(paper_cfg.setup, spec)
        c = curve.column("C")
        ratios = c / c[-1]
        assert ratios == pytest.approx([1 / 16, 1 / 4, 9 / 16, 1.0], rel=1e-9)

    def test_unresolvable_path(self, paper_cfg):
        with pytest.raises(ConfigError):
            sweep(paper_cfg.setup, SweepSpec("pump.nonsense", (1.0, 2.0)))

    def test_order_preserved_under_permutation(self, paper_cfg):
        up = sweep(paper_cfg.setup, SweepSpec("pump.power_w", (0.01, 0.03, 0.05)))
        down = sweep(paper_cfg.setup, SweepSpec("pump.power_w", (0.05, 0.03, 0.01)))
        assert np.allclose(up.column("C"), down.column("C")[::-1])

    def test_singles_decomposition_terms(self, paper_cfg):
        # The singles budget splits into a quadratic pair part, a linear
        # scattering+leakage part and a constant dark part that always sum
        # to the total.
        setup = paper_cfg.setup
        lo = setup.predict()
        hi = set_path(setup, "pump.power_w", 2 * setup.pump.power_w).predict()
        for obs in (lo, hi):
            for arm in ("N0", "N1"):
                p = obs.singles_parts[arm]
                assert p["pairs"] + p["scattering"] + p["leakage"] + p["dark"] == (
                    pytest.approx(p["total"], rel=1e-15)
                )
        for arm in ("N0", "N1"):
            assert hi.singles_parts[arm]["scattering"] == pytest.approx(
                2 * lo.singles_parts[arm]["scattering"], rel=1e-12
            )
            assert hi.singles_parts[arm]["leakage"] == pytest.approx(
                2 * lo.singles_parts[arm]["leakage"], rel=1e-12
            )
            assert hi.singles_parts[arm]["dark"] == lo.singles_parts[arm]["dark"]
            # the pair term is quadratic up to the small nonlinear-phase pull
            assert hi.singles_parts[arm]["pairs"] == pytest.approx(
                4 * lo.singles_parts[arm]["pairs"], rel=0.06
            )
        # at the calibrated operating point the singles are dominated by
        # spontaneous scattering, not by pair photons
        assert lo.singles_parts["N0"]["scattering"] > 0.9 * lo.singles0

    def test_sweep_values_must_be_monotone(self):
        with pytest.raises(ConfigError):
            SweepSpec("pump.power_w", (0.01, 0.05, 0.03))


class TestFitPowerLaw:
    def test_exact_quadratic(self):
        xs = np.linspace(1.0, 5.0, 8)
        fit = fit_power_law(zip(xs, 3.0 * xs**2))
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-12)
        assert fit.residual_rms < 1e-12

    def test_constant_is_exponent_zero(self):
        xs = np.linspace(1.0, 5.0, 6)
        fit = fit_power_law(zip(xs, np.full_like(xs, 7.0)))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ConfigError):
            fit_power_law([(1.0, 1.0), (2.0, -1.0), (3.0, 2.0)])

    def test_rejects_too_few_points(self):
        with pytest.raises(ConfigError):
            fit_power_law([(1.0, 1.0), (2.0, 4.0)])

    def test_model_power_quadratic_band(self, paper_cfg):
        # The nonlinear phase perturbs the pure square law by under 3%
        # over this power range.
        spec = SweepSpec("pump.power_w", np.linspace(0.010, 0.060, 8))
        curve = sweep(paper_cfg.setup, spec)
        fit = fit_power_law(zip(curve.column("param"), curve.column("C")))
        assert 1.95 <= fit.exponent <= 2.05

    def test_model_coupling_square_law_exact(self, paper_cfg):
        spec = SweepSpec("coupling.output_scale", np.linspace(0.2, 1.0, 8))
        curve = sweep(paper_cfg.setup, spec)
        fit = fit_power_law(zip(curve.column("param"), curve.column("C")))
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)


class TestPowerForPairsPerPulse:
    def test_round_trip(self, paper_pulsed_cfg):
        setup = paper_pulsed_cfg.setup
        for mu in (1e-4, 1e-3, 0.01):
            power = power_for_pairs_per_pulse(setup, mu)
            s = set_path(setup, "pump.power_w", power)
            assert s.predict().pair_rate * setup.pump.tau_s == pytest.approx(
                mu, rel=1e-6
            )

    def test_peak_power_scale(self, paper_pulsed_cfg):
        power = power_for_pairs_per_pulse(paper_pulsed_cfg.setup, 0.01)
        assert 0.1 < power < 1.0  # hundreds of milliwatts

    def test_quadrupling_mu_doubles_power(self, paper_pulsed_cfg):
        p1 = power_for_pairs_per_pulse(paper_pulsed_cfg.setup, 1e-4)
        p4 = power_for_pairs_per_pulse(paper_pulsed_cfg.setup, 4e-4)
        assert p4 / p1 == pytest.approx(2.0, rel=0.02)

    def test_unreachable_mu(self, paper_pulsed_cfg):
        with pytest.raises(PowerSolveError):
            power_for_pairs_per_pulse(paper_pulsed_cfg.setup, 10.0)

    @pytest.mark.parametrize("mu", [1e-80, 1e-300])
    def test_mu_below_solver_resolution_is_an_error(self, engineered_cfg, mu):
        # Powers this small fall under the bisection's absolute floor; the
        # powers it stopped at gave mu = 1.0018e-80 and 1.2e-86.
        with pytest.raises(NumericsError, match=f"mu={mu:.4g}"):
            power_for_pairs_per_pulse(engineered_cfg.setup, mu)

    def test_requires_pulsed(self, paper_cfg):
        with pytest.raises(ConfigError):
            power_for_pairs_per_pulse(paper_cfg.setup, 0.01)


class TestCarVsMu:
    def test_monotone_decreasing_above_dark_knee(self, paper_pulsed_cfg):
        mus = np.geomspace(0.004, 0.02, 6)
        curve = car_vs_mu(paper_pulsed_cfg.setup, mus)
        cars = curve.column("CAR")
        assert np.all(np.diff(cars) < 0)

    def test_factor_two_band_at_centipair(self, paper_pulsed_cfg):
        curve = car_vs_mu(paper_pulsed_cfg.setup, [0.01])
        assert 25.0 <= curve.observables[0].car <= 100.0

    def test_gated_mode_runs_and_is_lower(self, paper_pulsed_cfg):
        setup = paper_pulsed_cfg.setup
        binned = car_vs_mu(with_analysis(setup, accidental_mode="binned"), [0.01])
        gated = car_vs_mu(with_analysis(setup, accidental_mode="gated"), [0.01])
        # The gated window is the whole pulse period, far wider than the
        # binned coincidence window, so its CAR is far lower.
        assert gated.observables[0].car < binned.observables[0].car

    def test_gated_car_below_inverse_mu_without_scattering(self, paper_pulsed_cfg):
        # The gated accidental window is the whole pulse period, which caps
        # the CAR at 1/mu however small the scattering is (31.3 at mu = 0.01
        # with the 1000 /s darks).
        raw = copy.deepcopy(paper_pulsed_cfg.raw)
        raw["noise"]["raman_table"] = [[-8.5, 0.0], [8.5, 0.0]]
        raw["analysis"]["accidental_mode"] = "gated"
        curve = car_vs_mu(load_config(raw).setup, [0.01])
        assert curve.observables[0].car < 1.0 / 0.01

    def test_car_times_mu_constant_without_noise(self, paper_pulsed_cfg):
        # Noise-free, dark-free: CAR = 1/(sigma*r*t), so CAR*mu depends
        # only on tau, sigma and the window.
        raw = make_noise_free(paper_pulsed_cfg.raw)
        setup = load_config(raw).setup
        mus = (0.001, 0.004, 0.01, 0.02)
        curve = car_vs_mu(setup, mus)
        products = curve.column("CAR") * np.asarray(mus)
        assert np.all(np.abs(products / products[0] - 1.0) < 1e-9)


def _car_vs_mu_per_point(setup, mus):
    """Reference for car_vs_mu: one power_for_pairs_per_pulse (each solving
    its own turnover), set_path and predict per mu."""
    return [set_path(setup, "pump.power_w", power_for_pairs_per_pulse(setup, float(mu))).predict()
            for mu in mus]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ConfigError, NumericsError) as exc:
        return type(exc), str(exc)


def _rate(setup, power_w):
    """The pair rate at a peak power, computed apart from ``explore``."""
    return pair_generation_rate(setup.waveguide, power_w, setup.idler)


def _first_fall(setup):
    """The turnover scan's grid and the index of its first power whose rate
    is below the one before."""
    grid = np.geomspace(1e-6, explore._TURNOVER_SCAN_MAX_W, 400)
    rates = [_rate(setup, p) for p in grid]
    return grid, next(i for i in range(1, grid.size) if rates[i] < rates[i - 1])


class TestTurnoverPower:
    @pytest.mark.parametrize("cfg", ["engineered_cfg", "paper_pulsed_cfg"])
    def test_scan_stops_at_the_first_fall(self, cfg, request, monkeypatch):
        setup = request.getfixturevalue(cfg).setup
        grid, i = _first_fall(setup)
        powers = []

        def recording(waveguide, power_w, channel):
            powers.append(power_w)
            return pair_generation_rate(waveguide, power_w, channel)

        monkeypatch.setattr(explore, "pair_generation_rate", recording)
        car_vs_mu(setup, np.geomspace(0.01, 0.02, 4))
        # Every grid point up to the first fall, nothing past it.
        assert set(grid[:i + 1]) <= set(powers)
        assert max(powers) <= grid[i]

    @pytest.mark.parametrize("cfg", ["engineered_cfg", "paper_pulsed_cfg"])
    def test_turnover_is_the_maximum_of_its_bracket(self, cfg, request):
        setup = request.getfixturevalue(cfg).setup
        grid, i = _first_fall(setup)
        lo, hi = grid[i - 2], grid[i]
        # Two dense scans, the second over the first's best two steps.
        for _ in range(2):
            scan = np.linspace(lo, hi, 1001)
            k = int(np.argmax([_rate(setup, p) for p in scan]))
            lo, hi = scan[max(k - 1, 0)], scan[min(k + 1, scan.size - 1)]
        assert explore._turnover_power(setup) == pytest.approx(scan[k], rel=1e-6)

    @pytest.mark.parametrize("cfg", ["engineered_cfg", "paper_pulsed_cfg"])
    def test_mu_just_below_the_maximum_solves(self, cfg, request):
        setup = request.getfixturevalue(cfg).setup
        tau = setup.pump.tau_s
        p_turn = explore._turnover_power(setup)
        mu_max = _rate(setup, p_turn) * tau
        for gap in (1e-3, 1e-6, 1e-9):
            mu = mu_max * (1.0 - gap)
            power = power_for_pairs_per_pulse(setup, mu)
            assert power <= p_turn
            assert _rate(setup, power) * tau == pytest.approx(mu, rel=1e-9)
        with pytest.raises(PowerSolveError, match="unreachable on the monotone branch"):
            power_for_pairs_per_pulse(setup, mu_max * (1.0 + 1e-9))


class TestCarVsMuSharedTurnover:
    @pytest.mark.parametrize("mode", ["binned", "gated"])
    def test_rows_bit_identical_to_per_point_solves(self, engineered_cfg, paper_pulsed_cfg, mode):
        for cfg, mus in ((engineered_cfg, np.geomspace(0.01, 0.025, 8)),
                         (paper_pulsed_cfg, np.geomspace(1e-4, 0.02, 9))):
            setup = with_analysis(cfg.setup, accidental_mode=mode)
            curve = car_vs_mu(setup, mus)
            assert curve.observables == _car_vs_mu_per_point(setup, mus)
            assert curve.values == tuple(float(m) for m in mus)

    @pytest.mark.parametrize("mus, cw", [
        ([0.01, -1.0], False),   # first non-positive mu
        ([0.0], False),
        ([0.01], True),          # CW pump
        ([-1.0, 0.01], True),    # mu is checked before the pump
        ([0.01, 10.0, -1.0], False),  # unreachable before non-positive
        ([0.01, -1.0, 10.0], False),  # non-positive before unreachable
        ([1e-80], False),        # below the solver's resolution
        ([], True),              # nothing to solve
    ])
    def test_errors_match_per_point_solves(self, paper_cfg, engineered_cfg, mus, cw):
        setup = (paper_cfg if cw else engineered_cfg).setup
        expected = _outcome(_car_vs_mu_per_point, setup, mus)
        got = _outcome(car_vs_mu, setup, mus)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got.observables == expected


class TestNonFiniteMu:
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_refused_before_solving(self, engineered_cfg, monkeypatch, mu):
        def unexpected(*args):
            raise AssertionError("the pair rate was evaluated")

        monkeypatch.setattr(explore, "pair_generation_rate", unexpected)
        with pytest.raises(ConfigError, match="pairs per pulse must be positive and finite"):
            power_for_pairs_per_pulse(engineered_cfg.setup, mu)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_refused_within_a_curve(self, engineered_cfg, mu):
        with pytest.raises(ConfigError, match="pairs per pulse must be positive and finite"):
            car_vs_mu(engineered_cfg.setup, [0.01, mu])


class TestCarSigmaScaling:
    def test_car_sigma_product_fixed_peak_power(self, paper_pulsed_cfg):
        # At fixed peak power and window, C and the singles scale with the
        # duty cycle, so CAR*sigma is invariant; exact once dark counts are
        # removed (darks do not scale with sigma and break it at the tens
        # of percent level at small duty cycles).
        raw = copy.deepcopy(paper_pulsed_cfg.raw)
        for ch in raw["channels"].values():
            ch["dark_rate_per_s"] = 0.0
        setup = load_config(raw).setup
        setup = set_path(setup, "pump.power_w", 0.45)
        products = []
        for tau_ps, rep_mhz in ((5.0, 100.0), (10.0, 100.0), (5.0, 400.0), (20.0, 250.0)):
            s = set_path(setup, "pump.tau_s", tau_ps * 1e-12)
            s = set_path(s, "pump.rep_rate_hz", rep_mhz * 1e6)
            obs = s.predict()
            products.append(obs.car * s.pump.duty_cycle)
        products = np.asarray(products)
        assert np.all(np.abs(products / products[0] - 1.0) < 0.01)


class TestCarVsDetuning:
    def test_flat_band_within_model_spread(self, paper_cfg):
        # With the shipped occupancy-flattened noise table the CAR varies
        # only through the phase-matching envelope: a third-of-a-unit
        # spread, qualitatively flat.
        nus = np.linspace(0.6e12, 1.4e12, 9)
        curve = car_vs_detuning(paper_cfg.setup, nus)
        cars = curve.column("CAR")
        assert cars.max() / cars.min() < 1.35

    def test_leakage_collapses_car_close_to_pump(self, paper_cfg):
        curve = car_vs_detuning(paper_cfg.setup, [0.3e12, 1.0e12])
        car_03, car_10 = curve.column("CAR")
        assert car_03 < 0.5 * car_10

    def test_infinite_rejection_removes_low_detuning_drop(self, paper_cfg):
        raw = copy.deepcopy(paper_cfg.raw)
        raw["noise"]["pump_rejection"] = {
            "base_db": 500.0, "floor_db": 500.0, "ramp_thz": 0.6,
        }
        setup = load_config(raw).setup
        curve = car_vs_detuning(setup, [0.3e12, 1.0e12])
        car_03, car_10 = curve.column("CAR")
        assert car_03 > 0.5 * car_10

    def test_outside_table_domain_errors(self, paper_cfg):
        with pytest.raises(ExtrapolationError):
            car_vs_detuning(paper_cfg.setup, [9.0e12])

    def test_rejects_nonpositive_values(self, paper_cfg):
        with pytest.raises(ConfigError):
            car_vs_detuning(paper_cfg.setup, [-1e12])


class TestWindowCalibration:
    def test_target_reproduced(self, engineered_cfg):
        setup = engineered_cfg.setup
        power = power_for_pairs_per_pulse(setup, 0.01)
        obs = set_path(setup, "pump.power_w", power).predict()
        assert obs.car == pytest.approx(250.0, rel=1e-6)


# The box the design benchmark searches, on its 7-point grid.
_DESIGN_BOX = {"detuning_hz": (5e11, 8.2e12), "tau_s": (2e-12, 2e-11),
               "rep_rate_hz": (5e7, 5e8), "peak_power_w": (0.05, 5.0)}


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; returns the one-element count."""
    count = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


class TestOptimizeCar:
    def test_detuning_search_finds_low_noise_window(self, engineered_cfg):
        setup = engineered_cfg.setup
        setup = set_path(setup, "pump.power_w", 0.4)
        bounds = {"detuning_hz": (0.5e12, 8.2e12)}
        result = optimize_car(setup, bounds, ("c_min", 0.0), grid_points=17)
        assert 7.05e12 <= result.best["detuning_hz"] <= 7.75e12
        # independent grid oracle over the same table
        grid = np.linspace(0.5e12, 8.2e12, 301)
        cars = [setup.with_detuning(nu).predict().car for nu in grid]
        assert result.car >= max(cars) * (1 - 5e-3)

    def test_point_box_echoes_point(self, paper_pulsed_cfg):
        setup = paper_pulsed_cfg.setup
        bounds = {"peak_power_w": (0.3, 0.3), "tau_s": (5e-12, 5e-12)}
        result = optimize_car(setup, bounds, ("c_min", 0.0))
        assert result.best == {"peak_power_w": 0.3, "tau_s": 5e-12}

    def test_result_at_least_best_grid_point(self, paper_pulsed_cfg):
        setup = paper_pulsed_cfg.setup
        bounds = {"peak_power_w": (0.05, 1.0)}
        result = optimize_car(setup, bounds, ("mu_min", 1e-4), grid_points=5)
        grid_cars = []
        for p in np.linspace(0.05, 1.0, 5):
            s = set_path(setup, "pump.power_w", float(p))
            obs = s.predict()
            if obs.pair_rate * setup.pump.tau_s >= 1e-4:
                grid_cars.append(obs.car)
        assert result.car >= max(grid_cars) - 1e-12

    def test_returned_point_reproduces_car(self, paper_pulsed_cfg):
        setup = paper_pulsed_cfg.setup
        result = optimize_car(setup, {"peak_power_w": (0.05, 1.0)}, ("mu_min", 1e-4))
        s = set_path(setup, "pump.power_w", result.best["peak_power_w"])
        assert s.predict().car == pytest.approx(result.car, rel=1e-9)

    def test_trace_reproducible(self, paper_pulsed_cfg):
        setup = paper_pulsed_cfg.setup
        runs = [optimize_car(setup, {"peak_power_w": (0.05, 1.0)}, ("mu_min", 1e-4))
                for _ in range(2)]
        assert runs[0].trace == runs[1].trace
        assert runs[0].best == runs[1].best

    def test_infeasible_constraint_rejected(self, paper_pulsed_cfg):
        setup = paper_pulsed_cfg.setup
        with pytest.raises(ConfigError):
            optimize_car(setup, {"peak_power_w": (0.01, 0.02)}, ("mu_min", 1.0))

    def test_unknown_constraint_kind_rejected(self, paper_pulsed_cfg):
        # Named as such, not reported as a box without feasible points.
        with pytest.raises(ConfigError, match="unknown constraint kind 'mu_max'"):
            optimize_car(paper_pulsed_cfg.setup, {"peak_power_w": (0.1, 1.0)},
                         ("mu_max", 0.01))

    def test_point_judged_on_its_final_pump(self, engineered_cfg):
        # tau * B = 0.25 at the point, but the base tau (5 ps) with the new
        # B has a duty cycle of 2: the point must not fail on that mix.
        setup = engineered_cfg.setup
        assert setup.pump.tau_s * 4e11 > 1.0
        s = _point_builder(setup, ["rep_rate_hz", "tau_s"])([4e11, 6.25e-13])
        assert (s.pump.rep_rate_hz, s.pump.tau_s) == (4e11, 6.25e-13)
        bounds = {"rep_rate_hz": (4e11, 4e11), "tau_s": (6.25e-13, 6.25e-13)}
        result = optimize_car(setup, bounds, ("mu_min", 0.0))
        assert result.best == {"rep_rate_hz": 4e11, "tau_s": 6.25e-13}

    def test_invalid_final_pump_is_infeasible(self, engineered_cfg):
        setup = engineered_cfg.setup
        with pytest.raises(ConfigError, match="duty cycle"):
            _point_builder(setup, ["rep_rate_hz", "tau_s"])([4e11, 5e-12])
        bounds = {"rep_rate_hz": (4e11, 4e11), "tau_s": (6.25e-13, 5e-12)}
        result = optimize_car(setup, bounds, ("mu_min", 0.0), grid_points=2)
        points = [t["point"] for t in result.trace]
        assert {"rep_rate_hz": 4e11, "tau_s": 5e-12} not in points
        assert all(p["tau_s"] * p["rep_rate_hz"] <= 1.0 for p in points)
        assert result.best["tau_s"] * 4e11 <= 1.0
        with pytest.raises(ConfigError, match="no feasible point"):
            optimize_car(setup, {"rep_rate_hz": (4e11, 4e11), "tau_s": (5e-12, 5e-12)},
                         ("mu_min", 0.0))

    def test_parts_that_raise_are_built_again(self, engineered_cfg, monkeypatch):
        built = _count_calls(monkeypatch, PumpConfig, "__post_init__")
        moved = _count_calls(monkeypatch, Setup, "channels_at")
        build = explore._point_builder(engineered_cfg.setup,
                                       ["detuning_hz", "rep_rate_hz", "tau_s"])
        # The valid pump of the second point is built once, the invalid pump
        # of the first and the zero detuning's channels at every call.
        for n in (1, 2):
            with pytest.raises(ConfigError, match="duty cycle"):
                build([1.4e12, 4e11, 5e-12])
            with pytest.raises(ConfigError, match="detuning magnitude"):
                build([0.0, 4e11, 6.25e-13])
            assert (built, moved) == ([n + 1], [n])
        for _ in range(2):
            build([1.4e12, 4e11, 6.25e-13])
        assert (built, moved) == ([3], [3])

    def test_grid_builds_each_pump_and_channel_pair_once(self, engineered_cfg, monkeypatch):
        # The grid holds 7^3 = 343 distinct (tau, B, P) pumps, 7 detunings
        # and 7^2 = 49 distinct (P, detuning) rate budgets.
        built = _count_calls(monkeypatch, PumpConfig, "__post_init__")
        moved = _count_calls(monkeypatch, Setup, "channels_at")
        budgets = _count_calls(monkeypatch, explore, "rate_budget")
        # The constructions made so far, at each evaluation.
        made = []
        evaluate = explore._evaluate

        def evaluate_and_count(setup, obs, constraint):
            made.append((built[0], moved[0], budgets[0]))
            return evaluate(setup, obs, constraint)

        monkeypatch.setattr(explore, "_evaluate", evaluate_and_count)
        result = optimize_car(engineered_cfg.setup, _DESIGN_BOX, ("mu_min", 0.005))
        assert len(result.trace) == len(made) == 2482
        assert made[7 ** 4 - 1] == (343, 7, 49)

    def test_trace_equals_building_every_point_afresh(self, engineered_cfg, monkeypatch):
        setup = engineered_cfg.setup
        shared = optimize_car(setup, _DESIGN_BOX, ("mu_min", 0.005))
        # The fresh search builds every point afresh and evaluates it through
        # Setup.predict: it computes no rate budget, so it shares none.
        builder = explore._point_builder
        monkeypatch.setattr(explore, "_point_builder",
                            lambda s, names: lambda point: builder(s, names)(point))
        monkeypatch.setattr(explore, "rate_budget", lambda s: None)
        monkeypatch.setattr(explore, "assemble_observables", lambda s, budget: s.predict())
        fresh = optimize_car(setup, _DESIGN_BOX, ("mu_min", 0.005))
        assert len(shared.trace) == len(fresh.trace) == 2482
        assert sum(not t["feasible"] for t in shared.trace) == 491
        for a, b in zip(shared.trace, fresh.trace):
            assert a == b
        assert (shared.best, shared.car, shared.pairs_per_pulse, shared.coincidence_rate) == (
            fresh.best, fresh.car, fresh.pairs_per_pulse, fresh.coincidence_rate)

    def test_pulse_timing_leaves_the_budget_unchanged(self, engineered_cfg):
        # A pump that differs only in tau and B has the same rate budget, and
        # assembling the point from the shared budget is its full prediction.
        setup = engineered_cfg.setup
        other = _point_builder(setup, ["rep_rate_hz", "tau_s"])([4e11, 6.25e-13])
        assert (other.pump.tau_s, other.pump.rep_rate_hz) != (
            setup.pump.tau_s, setup.pump.rep_rate_hz)
        assert rate_budget(other) == rate_budget(setup)
        assert assemble_observables(other, rate_budget(setup)) == other.predict()
        assert other.predict() != setup.predict()

    def test_budget_that_raises_is_computed_again(self, engineered_cfg, monkeypatch):
        # 9 THz lies beyond the noise table (8.5 THz): the one budget of the
        # box raises at each of the 7 grid points that need it.
        budgets = _count_calls(monkeypatch, explore, "rate_budget")
        bounds = {"detuning_hz": (9e12, 9e12), "tau_s": (2e-12, 5e-12)}
        with pytest.raises(ConfigError, match="no feasible point"):
            optimize_car(engineered_cfg.setup, bounds, ("mu_min", 0.0))
        assert budgets == [7]
        with pytest.raises(ExtrapolationError):
            rate_budget(_point_builder(engineered_cfg.setup, ["detuning_hz"])([9e12]))

    def test_grouped_point_equals_path_chain(self, engineered_cfg):
        bounds = _DESIGN_BOX
        paths = {"detuning_hz": "channels.detuning_hz", "tau_s": "pump.tau_s",
                 "rep_rate_hz": "pump.rep_rate_hz", "peak_power_w": "pump.power_w"}
        names = sorted(bounds)
        setup = engineered_cfg.setup
        axes = [np.linspace(*bounds[n], 7) for n in names]
        for point in itertools.product(*axes):
            chained = setup
            for name, value in zip(names, point):
                chained = set_path(chained, paths[name], float(value))
            assert _point_builder(setup, names)(np.array(point)) == chained

    def test_unknown_parameter_rejected(self, paper_pulsed_cfg):
        with pytest.raises(ConfigError):
            optimize_car(paper_pulsed_cfg.setup, {"bogus": (0.0, 1.0)}, ("mu_min", 1e-4))


class TestCurveCsv:
    def test_csv_columns_and_metadata(self, tmp_path, paper_cfg):
        spec = SweepSpec("pump.power_w", (0.01, 0.02))
        curve = sweep(paper_cfg.setup, spec)
        curve.meta["config_hash"] = paper_cfg.config_hash
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# param=pump.power_w"
        assert lines[1].startswith("# config_hash=")
        assert lines[2] == "param,r,C,N0,N1,A,CAR"
        assert len(lines) == 5
        first = lines[3].split(",")
        assert float(first[0]) == 0.01
        assert len(first) == 7
