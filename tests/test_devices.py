import dataclasses
import math
import re

import numpy as np
import pytest

from sfwmlab.config import load_config
from sfwmlab.devices import (
    CouplingSpec,
    DetectionChannel,
    NoiseModel,
    PumpConfig,
    PumpRejection,
    WaveguideSpec,
    coupling_from_insertion,
)
from sfwmlab.errors import ConfigError, ExtrapolationError
from sfwmlab.explore import SweepSpec, sweep
from sfwmlab.units import db_to_linear, effective_length, gamma_from_n2, prop_loss_to_alpha


def test_waveguide_derived_quantities():
    wg = WaveguideSpec(length_m=0.071, prop_loss_db_per_cm=0.7,
                       gamma_per_w_m=14.0, beta2_s2_per_m=3.048e-25)
    assert wg.alpha_np_per_m == pytest.approx(16.118095650958320, rel=1e-12)
    assert wg.effective_length_m == pytest.approx(0.042286648657955036, rel=1e-12)
    assert wg.eta_alpha() == pytest.approx(0.5955866008162681, rel=1e-12)


def test_waveguide_gamma_consistency_check():
    # gamma is the waveguide's one nonlinearity field: the loader converts a
    # document's n2 and A_eff to it at the pump wavelength, and keeps neither.
    assert [f.name for f in dataclasses.fields(WaveguideSpec)] == [
        "length_m", "prop_loss_db_per_cm", "gamma_per_w_m", "beta2_s2_per_m",
        "eta_alpha_mode", "eta_alpha_value"]
    raw = load_config("paper-defaults").raw
    del raw["waveguide"]["gamma_per_w_m"]
    raw["waveguide"].update(n2_m2_per_w=3e-18, a_eff_um2=0.86)
    setup = load_config(raw).setup
    assert setup.waveguide.gamma_per_w_m == gamma_from_n2(
        3e-18, 0.86e-12, setup.pump.wavelength_m)


def test_waveguide_rejects_bad_values():
    with pytest.raises(ConfigError):
        WaveguideSpec(length_m=0.0, prop_loss_db_per_cm=0.7,
                      gamma_per_w_m=14.0, beta2_s2_per_m=0.0)
    with pytest.raises(ConfigError):
        WaveguideSpec(length_m=0.071, prop_loss_db_per_cm=0.7,
                      gamma_per_w_m=14.0, beta2_s2_per_m=0.0,
                      eta_alpha_mode="calibrated", eta_alpha_value=1.5)


def test_pump_duty_cycle():
    cw = PumpConfig(wavelength_m=1549.315e-9, power_w=0.057)
    assert cw.duty_cycle == 1.0
    pulsed = PumpConfig(wavelength_m=1549.315e-9, power_w=0.057, mode="pulsed",
                        tau_s=5e-12, rep_rate_hz=100e6)
    assert pulsed.duty_cycle == pytest.approx(5e-4, rel=1e-12)


def test_pump_rejects_overfull_duty_cycle():
    with pytest.raises(ConfigError):
        PumpConfig(wavelength_m=1549.315e-9, power_w=0.057, mode="pulsed",
                   tau_s=2e-8, rep_rate_hz=100e6)


def test_channel_collection_efficiency_values():
    # 18% QE behind 6.51 dB and 8% behind 6.75 dB.
    ch0 = DetectionChannel(detuning_hz=-1.4e12, bandwidth_hz=50e9,
                           filter_loss_db=6.51, detector_qe=0.18)
    ch1 = DetectionChannel(detuning_hz=+1.4e12, bandwidth_hz=50e9,
                           filter_loss_db=6.75, detector_qe=0.08)
    assert ch0.collection_efficiency == pytest.approx(0.040, rel=0.05)
    assert ch1.collection_efficiency == pytest.approx(0.017, rel=0.05)
    assert ch0.collection_efficiency == pytest.approx(0.18 * 10 ** -0.651, rel=1e-9)
    assert ch0.is_stokes and not ch1.is_stokes


_WAVEGUIDE = WaveguideSpec(length_m=0.071, prop_loss_db_per_cm=0.7,
                           gamma_per_w_m=14.0, beta2_s2_per_m=3.048e-25)
_CHANNEL = DetectionChannel(detuning_hz=-1.4e12, bandwidth_hz=50e9,
                            filter_loss_db=6.51, detector_qe=0.18)


def _waveguide_factors(wg):
    alpha = prop_loss_to_alpha(wg.prop_loss_db_per_cm)
    return {"alpha_np_per_m": alpha,
            "effective_length_m": effective_length(alpha, wg.length_m)}


def _channel_factors(ch):
    return {"collection_efficiency": ch.detector_qe * db_to_linear(ch.filter_loss_db)}


@pytest.mark.parametrize("obj, changes, factors", [
    (_WAVEGUIDE, {"prop_loss_db_per_cm": 1.3}, _waveguide_factors),
    (_WAVEGUIDE, {"length_m": 0.02}, _waveguide_factors),
    (_CHANNEL, {"filter_loss_db": 3.2}, _channel_factors),
    (_CHANNEL, {"detector_qe": 0.6}, _channel_factors),
])
def test_derived_factors_are_computed_once_per_object(obj, changes, factors):
    # A copy of the object before any factor was read, to compare against.
    fresh = dataclasses.replace(obj)
    before = factors(obj)
    assert {name: getattr(obj, name) for name in before} == before
    changed = dataclasses.replace(obj, **changes)
    expected = factors(changed)
    assert expected != before
    assert set(before) <= vars(obj).keys()
    # Read twice: the remembered value is the one computed.
    for _ in range(2):
        assert {name: getattr(changed, name) for name in expected} == expected
        assert {name: getattr(obj, name) for name in before} == before
    # The remembered factors are not fields.
    assert obj == fresh and hash(obj) == hash(fresh) and repr(obj) == repr(fresh)
    assert changed != obj
    assert not set(before) & {f.name for f in dataclasses.fields(obj)}
    assert not any(name in repr(obj) for name in before)


def test_coupling_from_insertion_device_budget():
    in_db, out_db, eta = coupling_from_insertion(14.24, 0.7, 0.071, 0.5)
    assert in_db == pytest.approx(4.635, abs=1e-9)
    assert out_db == pytest.approx(4.635, abs=1e-9)
    # budget identity: facets plus propagation reproduce the total exactly
    assert in_db + out_db + 0.7 * 7.1 == pytest.approx(14.24, abs=1e-12)
    assert eta == pytest.approx(0.344, abs=5e-4)


def test_coupling_no_propagation_loss():
    _, out_db, eta = coupling_from_insertion(8.0, 0.0, 0.071, 0.5)
    assert eta == pytest.approx(10 ** (-8.0 / 20.0), rel=1e-12)


def test_coupling_split_one_puts_all_loss_on_input():
    in_db, out_db, eta = coupling_from_insertion(14.24, 0.7, 0.071, 1.0)
    assert out_db == 0.0
    assert eta == 1.0
    assert in_db == pytest.approx(14.24 - 4.97, abs=1e-9)


def test_coupling_below_propagation_is_invalid():
    with pytest.raises(ConfigError):
        coupling_from_insertion(4.0, 0.7, 0.071, 0.5)


def test_coupling_spec_output_efficiency():
    wg = WaveguideSpec(length_m=0.071, prop_loss_db_per_cm=0.7,
                       gamma_per_w_m=14.0, beta2_s2_per_m=3.048e-25)
    coup = CouplingSpec(total_insertion_loss_db=14.24)
    assert coup.output_efficiency(wg) == pytest.approx(0.3439537113806398, rel=1e-12)
    scaled = CouplingSpec(total_insertion_loss_db=14.24, output_scale=0.5)
    assert scaled.output_efficiency(wg) == pytest.approx(0.5 * 0.3439537113806398, rel=1e-12)


def test_pump_rejection_curve_monotone():
    rej = PumpRejection(base_db=40.0, floor_db=120.0, ramp_hz=0.6e12)
    values = [rej.rejection_db(nu) for nu in (0.0, 0.1e12, 0.3e12, 0.6e12, 2e12)]
    assert values[0] == 40.0
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 120.0


def test_noise_model_interpolation_and_domain():
    noise = NoiseModel(raman_table=((-2e12, 0.4), (-1e12, 0.2), (1e12, 0.1), (2e12, 0.3)))
    assert noise.rho(-1.5e12) == pytest.approx(0.3, rel=1e-12)
    assert noise.rho(1e12) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ExtrapolationError):
        noise.rho(3e12)
    with pytest.raises(ExtrapolationError):
        noise.rho(-2.5e12)


_TABLE = ((-2e12, 0.4), (-1e12, 0.2), (1e12, 0.1), (2e12, 0.3))


def test_noise_model_rho_is_interp_on_the_table():
    noise = NoiseModel(raman_table=_TABLE)
    det = np.array([d for d, _ in _TABLE])
    rho = np.array([r for _, r in _TABLE])
    for nu in np.concatenate([np.linspace(-2e12, 2e12, 101), det,
                              np.nextafter(det[1:], -np.inf), np.nextafter(det[:-1], np.inf)]):
        assert noise.rho(nu) == float(np.interp(nu, det, rho))
    with pytest.raises(ExtrapolationError):
        noise.rho(np.nextafter(det[-1], np.inf))
    with pytest.raises(ExtrapolationError):
        noise.rho(np.nextafter(det[0], -np.inf))


def test_noise_model_remembers_rho_bit_for_bit():
    noise = NoiseModel(raman_table=_TABLE)
    det = np.array([d for d, _ in _TABLE])
    rho = np.array([r for _, r in _TABLE])
    nodes_and_midpoints = [float(d) for d in det] + [float(d) for d in (det[1:] + det[:-1]) / 2]
    for _ in range(2):
        for nu in nodes_and_midpoints:
            assert noise.rho(nu) == float(np.interp(nu, det, rho))
    # A new model built from the same table computes its own values.
    assert dataclasses.replace(noise).rho(nodes_and_midpoints[-1]) == noise.rho(
        nodes_and_midpoints[-1])


@pytest.mark.parametrize("nu", [2.5e12, -3e12, float(np.nextafter(2e12, np.inf))])
def test_noise_model_out_of_span_raises_every_time(nu):
    noise = NoiseModel(raman_table=_TABLE)
    for _ in range(2):
        with pytest.raises(ExtrapolationError, match="outside raman table span"):
            noise.rho(nu)
    # A value found after the failure is still the table's.
    assert noise.rho(1.5e12) == 0.2


def test_noise_model_equality_and_hash_follow_its_fields():
    noise = NoiseModel(raman_table=_TABLE)
    same = NoiseModel(raman_table=tuple(_TABLE))
    # Values remembered by one model and not by the other change nothing.
    noise.rho(1.5e12)
    noise.rho(-1.2e12)
    assert noise == same and hash(noise) == hash(same)
    assert dataclasses.replace(noise) == noise
    assert hash(dataclasses.replace(noise)) == hash(noise)
    changed = NoiseModel(raman_table=_TABLE[:-1] + ((2e12, 0.31),))
    assert noise != changed
    assert noise != dataclasses.replace(noise, temperature_k=301.0)
    assert "_det" not in repr(noise) and "_rho" not in repr(noise)
    assert repr(noise) == repr(same)
    assert [f.name for f in dataclasses.fields(noise)] == [
        "raman_table", "temperature_k", "pump_rejection", "note"]


def test_noise_model_rejects_bad_tables():
    with pytest.raises(ConfigError):
        NoiseModel(raman_table=((1e12, 0.1), (1e12, 0.2)))
    with pytest.raises(ConfigError):
        NoiseModel(raman_table=((-1e12, -0.1), (1e12, 0.2)))
    with pytest.raises(ConfigError, match="raman coefficients must be non-negative"):
        NoiseModel(raman_table=((-1e12, math.nan), (1e12, 0.2)))


_NAN_REFUSED = [
    ("pump.power_w", "pump power must be non-negative"),
    ("pump.wavelength_m", "pump wavelength must be positive"),
    ("pump.tau_s", "pulse duration must be positive"),
    ("pump.rep_rate_hz", "repetition rate must be positive"),
    ("waveguide.length_m", "waveguide length must be positive"),
    ("waveguide.prop_loss_db_per_cm", "propagation loss must be non-negative"),
    ("waveguide.gamma_per_w_m", "gamma must be positive"),
    ("waveguide.beta2_s2_per_m", "group-velocity dispersion must be finite"),
    ("coupling.total_insertion_loss_db", "total insertion loss must be non-negative"),
    ("noise.temperature_k", "temperature must be positive"),
    ("noise.pump_rejection.base_db", "base rejection must be finite"),
    ("noise.pump_rejection.floor_db", "rejection floor must be finite"),
    ("noise.pump_rejection.ramp_hz", "rejection ramp width must be positive"),
    ("signal.bandwidth_hz", "channel bandwidth must be positive"),
    ("signal.filter_loss_db", "filter loss must be non-negative"),
    ("signal.dark_rate_hz", "dark rate must be non-negative"),
    ("signal.jitter_fwhm_s", "jitter must be non-negative"),
    ("analysis.window_s", "coincidence window must be positive"),
    ("analysis.tia.bin_width_s", "bin width must be positive"),
]
# Fields that must be finite refuse either infinity too.
_FINITE = ("waveguide.beta2_s2_per_m", "noise.pump_rejection.base_db",
           "noise.pump_rejection.floor_db")


@pytest.mark.parametrize("path, requirement, value", [
    pytest.param(path, requirement, math.nan, id=f"{path}-{requirement}")
    for path, requirement in _NAN_REFUSED
] + [
    pytest.param(path, requirement, value, id=f"{path}-{value}")
    for path, requirement in _NAN_REFUSED if path in _FINITE
    for value in (math.inf, -math.inf)
])
def test_nan_field_is_refused_under_its_path(engineered_cfg, path, requirement, value):
    # A NaN fails the field's range check instead of reaching the model,
    # and is refused under the field it was set into.
    message = re.escape(f"{path}: {requirement}, got {value!r}")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        sweep(engineered_cfg.setup, SweepSpec(path, (value,)))

