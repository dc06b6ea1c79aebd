import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sfwmlab import model
from sfwmlab.config import AnalysisOptions, Setup, set_path
from sfwmlab.devices import (
    CouplingSpec,
    DetectionChannel,
    NoiseModel,
    PumpConfig,
    PumpRejection,
    WaveguideSpec,
)
from sfwmlab.errors import ConfigError, InconsistentMeasurementError, NumericsError
from sfwmlab.eventsim import TiaConfig
from sfwmlab.model import (
    build_raman_table,
    calibrate_eta_alpha,
    calibrate_raman,
    pair_generation_rate,
    phase_mismatch,
    predict_observables,
    pump_leakage_rate,
    raman_noise_rate,
    sinc,
    thermal_occupancy,
)

from conftest import with_analysis

WG = WaveguideSpec(length_m=0.071, prop_loss_db_per_cm=0.7,
                   gamma_per_w_m=14.0, beta2_s2_per_m=3.048e-25)
PUMP = PumpConfig(wavelength_m=1549.315e-9, power_w=0.057)
COUP = CouplingSpec(total_insertion_loss_db=14.24)
CH0 = DetectionChannel(detuning_hz=-1.4e12, bandwidth_hz=50e9,
                       filter_loss_db=6.51, detector_qe=0.18,
                       dark_rate_hz=1000.0, label="idler")
CH1 = DetectionChannel(detuning_hz=+1.4e12, bandwidth_hz=50e9,
                       filter_loss_db=6.75, detector_qe=0.08,
                       dark_rate_hz=1000.0, label="signal")
QUIET = NoiseModel(raman_table=((-9e12, 0.0), (9e12, 0.0)),
                   pump_rejection=PumpRejection(base_db=400.0, floor_db=400.0))
SETUP = Setup(waveguide=WG, pump=PUMP, coupling=COUP, idler=CH0, signal=CH1, noise=QUIET,
              analysis=AnalysisOptions(
                  window_s=400e-12, accidental_mode="binned",
                  tia=TiaConfig(bin_width_s=16e-12, range_s=(10e-9, 12.208e-9),
                                stop_delay_s=11.1e-9)))


class TestSinc:
    def test_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_at_pi(self):
        assert abs(sinc(math.pi)) < 1e-15

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_bounded(self, x):
        assert abs(sinc(x)) <= 1.0 + 1e-12

    def test_limit_at_infinity(self):
        assert sinc(math.inf) == sinc(-math.inf) == 0.0


class TestPairGenerationRate:
    def test_device_operating_point(self):
        # Independent high-precision evaluation of the rate formula with the
        # stated device beta2 (mpmath, 40 digits).
        assert pair_generation_rate(WG, PUMP.power_w, CH0) == pytest.approx(
            43296749.026502960, rel=1e-12
        )

    def test_zero_power(self):
        assert pair_generation_rate(WG, 0.0, CH0) == 0.0

    @pytest.mark.parametrize("power_w", [1e305, 1e308])
    def test_overflow_is_a_numerical_failure(self, power_w):
        # The squared amplitude overflows, or the amplitude is already
        # infinite and the phase-matching envelope zero.
        with pytest.raises(NumericsError, match="overflows"):
            pair_generation_rate(WG, power_w, CH0)

    def test_phase_matching_null(self):
        # Detuning that drives the phase argument to pi (root of the phase
        # equation, found analytically) kills the rate.
        nu_null = 2687332833422.7136
        ch = replace(CH0, detuning_hz=-nu_null)
        peak = pair_generation_rate(WG, PUMP.power_w, replace(CH0, detuning_hz=-1e9))
        assert phase_mismatch(WG, PUMP.power_w, nu_null) == pytest.approx(math.pi, rel=1e-12)
        assert pair_generation_rate(WG, PUMP.power_w, ch) < 1e-9 * peak

    def test_rate_maximized_at_zero_phase(self):
        # With anomalous dispersion the phase argument crosses zero at some
        # detuning; the envelope is maximal there.
        wg = replace(WG, beta2_s2_per_m=-2.806e-26)
        nu_zero = math.sqrt(
            -wg.gamma_per_w_m * PUMP.power_w * 2.0
            / (wg.beta2_s2_per_m * (2 * math.pi) ** 2)
        )
        assert phase_mismatch(wg, PUMP.power_w, nu_zero) == pytest.approx(0.0, abs=1e-12)
        r_zero = pair_generation_rate(wg, PUMP.power_w, replace(CH0, detuning_hz=-nu_zero))
        for nu in (0.5 * nu_zero, 1.5 * nu_zero, 3 * nu_zero):
            r = pair_generation_rate(wg, PUMP.power_w, replace(CH0, detuning_hz=-nu))
            assert r <= r_zero * (1 + 1e-12)


class TestEtaAlphaAnalytic:
    # WaveguideSpec.eta_alpha() in its analytic mode, L_eff/L.
    def test_lossless(self):
        assert replace(WG, prop_loss_db_per_cm=0.0).eta_alpha() == 1.0

    def test_device_value(self):
        # 0.7 dB/cm is alpha = 16.118095650958320 /m.
        assert WG.eta_alpha() == pytest.approx(0.5955866008162681, rel=1e-12)

    # 0-200 /m in alpha, steps of 1 /m (0.0434 dB/cm).
    @given(st.floats(min_value=0.0, max_value=8.686))
    @settings(max_examples=50)
    def test_monotone_decreasing_in_alpha(self, loss_db_per_cm):
        lossy = replace(WG, prop_loss_db_per_cm=loss_db_per_cm + 0.0434)
        assert lossy.eta_alpha() < replace(WG, prop_loss_db_per_cm=loss_db_per_cm).eta_alpha()


class TestThermalOccupancy:
    def test_room_temperature_value(self):
        # h = 6.62607015e-34, k = 1.380649e-23, evaluated at 40 digits.
        assert thermal_occupancy(1.4e12, 300.0) == pytest.approx(
            3.9836379508884314, rel=1e-12
        )

    def test_high_frequency_asymptote(self):
        assert thermal_occupancy(5e14, 4.0) == 0.0
        assert thermal_occupancy(5e13, 30.0) < 1e-30

    def test_stokes_anti_stokes_ratio_converges(self):
        prev = math.inf
        for nu in (2e12, 1e12, 0.5e12, 0.1e12, 0.01e12):
            n = thermal_occupancy(nu, 300.0)
            ratio = (n + 1.0) / n
            assert ratio < prev
            prev = ratio
        n = thermal_occupancy(0.1e12, 300.0)
        assert (n + 1.0) / n < 1.02

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            thermal_occupancy(0.0, 300.0)


class TestRamanNoiseRate:
    def test_zero_coefficient_gives_zero(self):
        assert raman_noise_rate(QUIET, CH0, PUMP, WG) == 0.0

    def test_linear_in_power(self):
        noise = NoiseModel(raman_table=((-9e12, 0.4), (9e12, 0.4)))
        r1 = raman_noise_rate(noise, CH0, PUMP, WG)
        r2 = raman_noise_rate(noise, CH0, replace(PUMP, power_w=2 * PUMP.power_w), WG)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_stokes_side_exceeds_anti_stokes_at_equal_rho(self):
        noise = NoiseModel(raman_table=((-9e12, 0.4), (9e12, 0.4)))
        assert raman_noise_rate(noise, CH0, PUMP, WG) > raman_noise_rate(
            noise, CH1, PUMP, WG
        )

    def test_zero_detuning_rejected(self):
        noise = NoiseModel(raman_table=((-9e12, 0.4), (9e12, 0.4)))
        ch = replace(CH1, detuning_hz=1.0)  # valid construction
        with pytest.raises(ConfigError):
            raman_noise_rate(noise, replace(ch, detuning_hz=0.0), PUMP, WG)


class TestPumpLeakage:
    def test_negligible_at_floor(self):
        noise = NoiseModel(raman_table=((-9e12, 0.4), (9e12, 0.4)))
        leak = pump_leakage_rate(noise, CH0, PUMP)
        r_n = raman_noise_rate(noise, CH0, PUMP, WG)
        assert leak < 0.01 * r_n

    def test_maximal_at_zero_detuning(self):
        noise = NoiseModel(raman_table=((-9e12, 0.4), (9e12, 0.4)))
        at_zero = pump_leakage_rate(noise, replace(CH0, detuning_hz=-1.0), PUMP)
        leaks = [
            pump_leakage_rate(noise, replace(CH0, detuning_hz=-nu), PUMP)
            for nu in (0.1e12, 0.3e12, 0.5e12, 0.6e12, 1e12)
        ]
        assert at_zero >= leaks[0]
        assert all(b <= a for a, b in zip(leaks, leaks[1:]))
        # flat at the rejection floor beyond the ramp
        assert leaks[-1] == pytest.approx(leaks[-2], rel=1e-12)


class TestPredictObservables:
    def test_observable_identities(self):
        noise = NoiseModel(raman_table=((-9e12, 0.4), (9e12, 0.45)))
        obs = predict_observables(replace(SETUP, noise=noise))
        assert obs.accidentals == pytest.approx(
            obs.singles0 * obs.singles1 * 400e-12, rel=1e-12
        )
        assert obs.car == pytest.approx(obs.coincidences / obs.accidentals, rel=1e-12)
        for arm in ("N0", "N1"):
            parts = obs.singles_parts[arm]
            total = parts["pairs"] + parts["scattering"] + parts["leakage"] + parts["dark"]
            assert parts["total"] == pytest.approx(total, rel=1e-15)
        assert obs.singles0 == parts_total(obs, "N0")
        assert obs.singles1 == parts_total(obs, "N1")

    @pytest.mark.parametrize("path, value, match", [
        ("channels.detuning_hz", 1e300, "phase mismatch overflows"),
        ("noise.temperature_k", 1e-320, "thermal energy underflows"),
        ("channels.detuning_hz", 1e-320, "phonon energy underflows"),
        ("pump.wavelength_m", 1e300, "pump photon energy underflows"),
    ])
    def test_extreme_finite_inputs_are_numerical_failures(self, paper_cfg, path, value,
                                                          match):
        # Each used to escape as an OverflowError or a ZeroDivisionError.
        setup = set_path(paper_cfg.setup, path, value)
        with pytest.raises(NumericsError, match=match):
            setup.predict()

    def test_gated_requires_pulsed(self):
        with pytest.raises(ConfigError):
            predict_observables(with_analysis(SETUP, accidental_mode="gated"))

    def test_gated_accidentals_use_rep_rate(self):
        pump = PumpConfig(wavelength_m=1549.315e-9, power_w=0.4, mode="pulsed",
                          tau_s=5e-12, rep_rate_hz=100e6)
        obs = predict_observables(
            with_analysis(replace(SETUP, pump=pump), accidental_mode="gated"))
        assert obs.accidentals == pytest.approx(
            obs.singles0 * obs.singles1 / 100e6, rel=1e-12
        )

    def test_asymmetric_detunings_rejected(self):
        with pytest.raises(ConfigError):
            predict_observables(replace(SETUP, signal=replace(CH1, detuning_hz=1.5e12)))

    def test_one_rate_budget_per_prediction(self, monkeypatch):
        # sigma, eta_alpha, eta_out and r(idler) are derived once; the
        # signal arm evaluates its own pair rate.
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(model, "pair_generation_rate",
                            counted("rate", model.pair_generation_rate))
        monkeypatch.setattr(CouplingSpec, "output_efficiency",
                            counted("eta_out", CouplingSpec.output_efficiency))
        predict_observables(SETUP)
        assert calls == {"rate": 2, "eta_out": 1}

    @pytest.mark.parametrize("mode", ["binned", "gated"])
    def test_overflowing_accidentals_are_a_numerical_failure(self, mode):
        pump = PumpConfig(wavelength_m=1549.315e-9, power_w=0.4, mode="pulsed",
                          tau_s=5e-12, rep_rate_hz=1e-300)
        setup = with_analysis(replace(SETUP, pump=pump, idler=replace(CH0, dark_rate_hz=1e300)),
                              window_s=1e300, accidental_mode=mode)
        with pytest.raises(NumericsError, match="accidental rate"):
            predict_observables(setup)

    def test_dark_rate_lowers_car(self):
        noise = NoiseModel(raman_table=((-9e12, 0.4), (9e12, 0.45)))
        base = predict_observables(replace(SETUP, noise=noise))
        darker = predict_observables(replace(
            SETUP, idler=replace(CH0, dark_rate_hz=5000.0),
            signal=replace(CH1, dark_rate_hz=5000.0), noise=noise,
        ))
        assert darker.car < base.car


def parts_total(obs, arm):
    return obs.singles_parts[arm]["total"]


# Random-configuration strategy for the algebraic CAR identity.
@st.composite
def noise_free_setups(draw):
    length = draw(st.floats(min_value=0.005, max_value=0.2))
    loss = draw(st.floats(min_value=0.0, max_value=2.0))
    gamma = draw(st.floats(min_value=1.0, max_value=30.0))
    power = draw(st.floats(min_value=1e-3, max_value=0.3))
    nu = draw(st.floats(min_value=0.2e12, max_value=2.0e12))
    qe0 = draw(st.floats(min_value=0.05, max_value=1.0))
    qe1 = draw(st.floats(min_value=0.05, max_value=1.0))
    loss0 = draw(st.floats(min_value=0.0, max_value=8.0))
    loss1 = draw(st.floats(min_value=0.0, max_value=8.0))
    total_db = loss * length * 100.0 + draw(st.floats(min_value=0.0, max_value=12.0))
    window = draw(st.floats(min_value=1e-12, max_value=1e-8))
    wg = WaveguideSpec(length_m=length, prop_loss_db_per_cm=loss,
                       gamma_per_w_m=gamma, beta2_s2_per_m=3.048e-25)
    pump = PumpConfig(wavelength_m=1549.315e-9, power_w=power)
    coup = CouplingSpec(total_insertion_loss_db=total_db)
    ch0 = DetectionChannel(detuning_hz=-nu, bandwidth_hz=50e9,
                           filter_loss_db=loss0, detector_qe=qe0)
    ch1 = DetectionChannel(detuning_hz=+nu, bandwidth_hz=50e9,
                           filter_loss_db=loss1, detector_qe=qe1)
    return with_analysis(
        replace(SETUP, waveguide=wg, pump=pump, coupling=coup, idler=ch0, signal=ch1),
        window_s=window,
    )


class TestNoiseFreeCarIdentity:
    @given(noise_free_setups())
    @settings(max_examples=60, deadline=None)
    def test_car_is_inverse_rate_window_product(self, setup):
        # With no noise and no darks the efficiencies cancel and
        # CAR = 1/(sigma * r * t) for any configuration.
        window = setup.analysis.window_s
        obs = predict_observables(setup)
        r = obs.pair_rate
        if r <= 0:
            return
        assert obs.car == pytest.approx(1.0 / (r * window), rel=1e-9)

    def test_all_unit_efficiencies_reduce_exactly(self):
        wg = WaveguideSpec(length_m=0.071, prop_loss_db_per_cm=0.0,
                           gamma_per_w_m=14.0, beta2_s2_per_m=3.048e-25,
                           eta_alpha_mode="calibrated", eta_alpha_value=1.0)
        coup = CouplingSpec(total_insertion_loss_db=0.0)
        ch0 = DetectionChannel(detuning_hz=-1.4e12, bandwidth_hz=50e9,
                               filter_loss_db=0.0, detector_qe=1.0)
        ch1 = DetectionChannel(detuning_hz=+1.4e12, bandwidth_hz=50e9,
                               filter_loss_db=0.0, detector_qe=1.0)
        window = 1e-9
        obs = predict_observables(with_analysis(
            replace(SETUP, waveguide=wg, coupling=coup, idler=ch0, signal=ch1),
            window_s=window,
        ))
        assert obs.coincidences == pytest.approx(obs.pair_rate, rel=1e-12)
        assert obs.car == pytest.approx(1.0 / (obs.pair_rate * window), rel=1e-12)


class TestCalibrateEtaAlpha:
    def test_device_calibration_value(self):
        eta = calibrate_eta_alpha(80.0, SETUP)
        assert eta == pytest.approx(0.15, abs=0.01)

    def test_boundary_gives_unity(self):
        r = pair_generation_rate(WG, PUMP.power_w, CH0)
        lossless = (COUP.output_efficiency(WG) ** 2
                    * CH0.collection_efficiency * CH1.collection_efficiency * r)
        assert calibrate_eta_alpha(lossless, SETUP) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_round_trip_through_prediction(self):
        eta = calibrate_eta_alpha(80.0, SETUP)
        wg = replace(WG, eta_alpha_mode="calibrated", eta_alpha_value=eta)
        obs = predict_observables(replace(SETUP, waveguide=wg,
                                          idler=replace(CH0, dark_rate_hz=0.0),
                                          signal=replace(CH1, dark_rate_hz=0.0)))
        assert obs.coincidences == pytest.approx(80.0, rel=1e-9)

    def test_impossible_measurement_rejected(self):
        with pytest.raises(InconsistentMeasurementError):
            calibrate_eta_alpha(1e12, SETUP)


class TestCalibrateRaman:
    def _calibrated_setup(self):
        eta = calibrate_eta_alpha(80.0, SETUP)
        wg = replace(WG, eta_alpha_mode="calibrated", eta_alpha_value=eta)
        return replace(SETUP, waveguide=wg)

    def test_device_noise_rates(self):
        # Inverting the singles equations at the measured rates gives
        # nearly equal per-side generation rates (the small-detuning
        # observation), around 2.4e8 and 2.2e8 photons/s.
        setup = self._calibrated_setup()
        wg = setup.waveguide
        rho0, rho1 = calibrate_raman(3.45e6, 1.34e6, setup)
        occ0 = thermal_occupancy(1.4e12, 300.0) + 1.0
        occ1 = thermal_occupancy(1.4e12, 300.0)
        rn0 = rho0 * 50e9 * 0.057 * wg.effective_length_m * occ0
        rn1 = rho1 * 50e9 * 0.057 * wg.effective_length_m * occ1
        assert rn0 == pytest.approx(2.4e8, rel=0.05)
        assert rn1 == pytest.approx(2.2e8, rel=0.05)
        assert rn0 / rn1 == pytest.approx(1.0, abs=0.15)

    def test_round_trip_reproduces_singles(self):
        setup = self._calibrated_setup()
        rho0, rho1 = calibrate_raman(3.45e6, 1.34e6, setup)
        noise = NoiseModel(
            raman_table=((-1.4e12, rho0), (1.4e12, rho1)),
            pump_rejection=PumpRejection(base_db=400.0, floor_db=400.0),
        )
        obs = predict_observables(replace(setup, noise=noise))
        assert obs.singles0 == pytest.approx(3.45e6, rel=1e-9)
        assert obs.singles1 == pytest.approx(1.34e6, rel=1e-9)

    def test_boundary_gives_zero_rho(self):
        setup = self._calibrated_setup()
        base = predict_observables(setup)
        with pytest.raises(InconsistentMeasurementError):
            calibrate_raman(base.singles0, base.singles1, setup)
        rho0, rho1 = calibrate_raman(base.singles0 * (1 + 1e-9),
                                     base.singles1 * (1 + 1e-9), setup)
        assert 0.0 <= rho0 < 1e-6
        assert 0.0 <= rho1 < 1e-6

    def test_swapping_detectors_swaps_singles(self):
        # Swapping detector efficiencies between the arms swaps the
        # predicted pair contributions, the detector QE asymmetry being the
        # only arm asymmetry at small detuning apart from occupancy.
        setup = replace(self._calibrated_setup(),
                        noise=NoiseModel(raman_table=((-9e12, 0.42), (9e12, 0.42))))
        obs = predict_observables(setup)
        swapped = predict_observables(replace(
            setup,
            idler=replace(CH0, filter_loss_db=CH1.filter_loss_db, detector_qe=CH1.detector_qe),
            signal=replace(CH1, filter_loss_db=CH0.filter_loss_db, detector_qe=CH0.detector_qe),
        ))
        p0 = obs.singles_parts["N0"]["pairs"]
        p1 = obs.singles_parts["N1"]["pairs"]
        assert swapped.singles_parts["N0"]["pairs"] == pytest.approx(p1, rel=1e-12)
        assert swapped.singles_parts["N1"]["pairs"] == pytest.approx(p0, rel=1e-12)


class TestBuildRamanTable:
    def test_anchored_values_survive(self):
        table = build_raman_table(0.40, 0.46, 1.4e12, 300.0)
        noise = NoiseModel(raman_table=table)
        assert noise.rho(-1.4e12) == pytest.approx(0.40, rel=1e-6)
        assert noise.rho(+1.4e12) == pytest.approx(0.46, rel=1e-6)

    def test_occupancy_compensation_flattens_effective_noise(self):
        table = build_raman_table(0.40, 0.46, 1.4e12, 300.0)
        noise = NoiseModel(raman_table=table)
        ref = noise.rho(-1.4e12) * (thermal_occupancy(1.4e12, 300.0) + 1.0)
        for nu in (0.3e12, 0.6e12, 1.0e12, 2.0e12, 5.0e12):
            eff = noise.rho(-nu) * (thermal_occupancy(nu, 300.0) + 1.0)
            assert eff == pytest.approx(ref, rel=5e-3)
