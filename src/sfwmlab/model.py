"""Analytic count-rate model for a four-wave-mixing pair source.

The chain is: a phase-matched pair-generation rate, per-photon collection
efficiencies, spontaneous-scattering and residual-pump noise terms, dark
counts, and the coincidence/accidental bookkeeping that yields the CAR.
The rate functions are pure device-level functions in SI units; the
pair rate and the phase mismatch take the pump's in-waveguide power in W
(the peak power when the pump is pulsed), not a pump, so a solver over
power evaluates them without building one.
``predict_observables`` and the two calibrations take a validated
``Setup`` (``sfwmlab.config``), which owns the cross-field rules (channel
signs and symmetry, gated accidentals only with a pulsed pump), and derive
each factor of the rate budget once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .constants import BOLTZMANN_K, PLANCK_H
from .devices import DetectionChannel, NoiseModel, PumpConfig, WaveguideSpec
from .errors import ConfigError, InconsistentMeasurementError, NumericsError

if TYPE_CHECKING:
    from .config import Setup


def sinc(x: float) -> float:
    """Unnormalized sinc: sin(x)/x with sinc(0) = 1 and sinc(±inf) = 0."""
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return math.sin(x) / x


def phase_mismatch(
    waveguide: WaveguideSpec, power_w: float, detuning_hz: float
) -> float:
    """Phase argument beta2*(2*pi*nu)^2*L/2 + gamma*P*L, in radians.

    ``power_w`` is the pump's in-waveguide power P in W, the peak power
    when the pump is pulsed.
    """
    nu = abs(detuning_hz)
    try:
        linear = waveguide.beta2_s2_per_m * (2.0 * math.pi * nu) ** 2 * waveguide.length_m / 2.0
    except OverflowError:
        raise NumericsError(f"phase mismatch overflows at detuning {detuning_hz:.6g} Hz") from None
    nonlinear = waveguide.gamma_per_w_m * power_w * waveguide.length_m
    return linear + nonlinear


def pair_generation_rate(
    waveguide: WaveguideSpec, power_w: float, channel: DetectionChannel
) -> float:
    """In-waveguide pair generation rate into the channel passband, pairs/s.

    rate = dnu * (gamma * P * L_eff)^2 * sinc^2(phase); P is ``power_w``,
    the pump's in-waveguide power in W.  For a pulsed pump that is the peak
    power, so this is the in-pulse rate.
    """
    amplitude = (
        waveguide.gamma_per_w_m * power_w * waveguide.effective_length_m
    )
    envelope = sinc(phase_mismatch(waveguide, power_w, channel.detuning_hz)) ** 2
    try:
        rate = channel.bandwidth_hz * amplitude**2 * envelope
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise NumericsError(f"pair generation rate overflows at pump power {power_w} W")
    return rate


def thermal_occupancy(frequency_hz: float, temperature_k: float) -> float:
    """Bose-Einstein phonon occupancy 1/(exp(h*nu/k*T) - 1)."""
    if frequency_hz <= 0.0:
        raise ValueError(f"occupancy requires a positive frequency, got {frequency_hz}")
    if temperature_k <= 0.0:
        raise ValueError(f"occupancy requires a positive temperature, got {temperature_k}")
    try:
        x = PLANCK_H * frequency_hz / (BOLTZMANN_K * temperature_k)
    except ZeroDivisionError:
        raise NumericsError(
            f"thermal energy underflows at temperature {temperature_k:.6g} K") from None
    if x > 700.0:
        return 0.0  # expm1 would overflow; occupancy underflows anyway
    try:
        return 1.0 / math.expm1(x)
    except ZeroDivisionError:
        raise NumericsError(
            f"phonon energy underflows at frequency {frequency_hz:.6g} Hz") from None


def raman_occupancy(channel: DetectionChannel, temperature_k: float) -> float:
    """Occupancy weight for a channel: n+1 on the Stokes (red) side, n above."""
    if channel.detuning_hz == 0.0:
        raise ConfigError("noise model undefined at zero detuning (channel overlaps the pump)")
    n = thermal_occupancy(abs(channel.detuning_hz), temperature_k)
    return n + 1.0 if channel.is_stokes else n


def raman_noise_rate(
    noise: NoiseModel,
    channel: DetectionChannel,
    pump: PumpConfig,
    waveguide: WaveguideSpec,
) -> float:
    """Spontaneous-scattering photon rate into the channel, photons/s.

    rate = rho(detuning) * dnu * P * L_eff * occupancy; linear in pump power
    (in-pulse rate when the pump is pulsed).
    """
    rho = noise.rho(channel.detuning_hz)
    occ = raman_occupancy(channel, noise.temperature_k)
    return (
        rho
        * channel.bandwidth_hz
        * pump.power_w
        * waveguide.effective_length_m
        * occ
    )


def pump_leakage_rate(
    noise: NoiseModel, channel: DetectionChannel, pump: PumpConfig
) -> float:
    """Residual pump photon rate passing the channel filter, photons/s.

    The rejection curve is the out-of-band suppression relative to the
    filter's in-band transmission (the in-band insertion loss lives in the
    channel's collection efficiency), so this rate slots into the singles
    budget exactly like a noise-generation rate.
    """
    try:
        flux = pump.power_w / (PLANCK_H * pump.frequency_hz)
    except ZeroDivisionError:
        raise NumericsError(
            f"pump photon energy underflows at wavelength {pump.wavelength_m:.6g} m") from None
    return flux * 10.0 ** (-noise.pump_rejection.rejection_db(channel.detuning_hz) / 10.0)


@dataclass(frozen=True)
class ModelObservables:
    """Predicted observables for one configuration.

    ``pair_rate`` is the in-waveguide generation rate r; ``coincidences``,
    ``singles0``, ``singles1`` and ``accidentals`` are detected rates in
    counts/s; ``car`` is coincidences/accidentals for the stated window and
    accidental mode.  ``meta`` echoes the conventions used (duty cycle,
    eta_alpha, passbands) and ``singles_parts`` splits each singles rate
    into pair / scattering / leakage / dark contributions that sum to the
    total exactly.
    """

    pair_rate: float
    coincidences: float
    singles0: float
    singles1: float
    accidentals: float
    car: float
    window_s: float
    accidental_mode: str
    singles_parts: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        return {
            "r": self.pair_rate,
            "C": self.coincidences,
            "N0": self.singles0,
            "N1": self.singles1,
            "A": self.accidentals,
            "CAR": self.car,
        }


def singles_rate_parts(
    setup: Setup,
    channel: DetectionChannel,
    gain: float,
    eta_alpha: float,
    r: float,
    r_n: float,
) -> dict:
    """Detected singles rate for one arm, split by physical origin.

    ``gain`` is sigma*eta (duty cycle times output efficiency), ``r`` the
    arm's pair rate and ``r_n`` its scattering rate.  parts: pair photons
    sigma*eta*eta_i*eta_alpha*r, scattering noise sigma*eta*eta_i*r_n, pump
    leakage sigma*eta*eta_i*leak, darks d_i.
    """
    arm = gain * channel.collection_efficiency
    parts = {
        "pairs": arm * eta_alpha * r,
        "scattering": arm * r_n,
        "leakage": arm * pump_leakage_rate(setup.noise, channel, setup.pump),
        "dark": channel.dark_rate_hz,
    }
    parts["total"] = parts["pairs"] + parts["scattering"] + parts["leakage"] + parts["dark"]
    return parts


def predict_observables(setup: Setup) -> ModelObservables:
    """Evaluate the full rate model for the setup's signal/idler pair.

    ``setup.analysis.accidental_mode``: "binned" counts accidentals in a
    window t as A = N0*N1*t; "gated" (pulsed pump only) treats all
    same-pulse counts as coincident, A = N0*N1/B, and ignores the window.
    """
    waveguide, pump, ch0, ch1 = setup.waveguide, setup.pump, setup.idler, setup.signal
    window_s = setup.analysis.window_s
    accidental_mode = setup.analysis.accidental_mode

    sigma = pump.duty_cycle
    eta_alpha = waveguide.eta_alpha()
    eta_out = setup.coupling.output_efficiency(waveguide)
    r = pair_generation_rate(waveguide, pump.power_w, ch0)

    coincidences = (
        sigma
        * eta_alpha**2
        * eta_out**2
        * ch0.collection_efficiency
        * ch1.collection_efficiency
        * r
    )
    gain = sigma * eta_out
    parts0 = singles_rate_parts(setup, ch0, gain, eta_alpha, r,
                                raman_noise_rate(setup.noise, ch0, pump, waveguide))
    parts1 = singles_rate_parts(setup, ch1, gain, eta_alpha,
                                pair_generation_rate(waveguide, pump.power_w, ch1),
                                raman_noise_rate(setup.noise, ch1, pump, waveguide))
    n0 = parts0["total"]
    n1 = parts1["total"]

    if accidental_mode == "gated":
        accidentals = n0 * n1 / pump.rep_rate_hz
    else:
        accidentals = n0 * n1 * window_s
    if not math.isfinite(accidentals):
        raise NumericsError(
            f"accidental rate overflows: singles {n0:.6g}/s and {n1:.6g}/s "
            f"({accidental_mode} accidentals)"
        )

    if accidentals > 0.0:
        car = coincidences / accidentals
    else:
        car = math.inf if coincidences > 0.0 else math.nan

    return ModelObservables(
        pair_rate=r,
        coincidences=coincidences,
        singles0=n0,
        singles1=n1,
        accidentals=accidentals,
        car=car,
        window_s=window_s,
        accidental_mode=accidental_mode,
        singles_parts={"N0": parts0, "N1": parts1},
        meta={
            "duty_cycle": sigma,
            "eta_alpha": eta_alpha,
            "eta_alpha_mode": waveguide.eta_alpha_mode,
            "output_efficiency": eta_out,
            "bandwidth0_hz": ch0.bandwidth_hz,
            "bandwidth1_hz": ch1.bandwidth_hz,
        },
    )


def calibrate_eta_alpha(measured_coincidences: float, setup: Setup) -> float:
    """Fit the in-waveguide survival from a measured coincidence rate.

    Inverts C = sigma * eta_alpha^2 * eta^2 * eta_0 * eta_1 * r.  Raises if
    the measurement exceeds what a lossless guide could deliver.
    """
    if measured_coincidences <= 0.0:
        raise InconsistentMeasurementError(
            f"measured coincidence rate must be positive, got {measured_coincidences}"
        )
    waveguide = setup.waveguide
    r = pair_generation_rate(waveguide, setup.pump.power_w, setup.idler)
    lossless = (
        setup.pump.duty_cycle
        * setup.coupling.output_efficiency(waveguide) ** 2
        * setup.idler.collection_efficiency
        * setup.signal.collection_efficiency
        * r
    )
    if measured_coincidences > lossless:
        raise InconsistentMeasurementError(
            f"measured coincidence rate {measured_coincidences:.6g}/s exceeds the "
            f"lossless-guide bound {lossless:.6g}/s"
        )
    return math.sqrt(measured_coincidences / lossless)


def calibrate_raman(measured_n0: float, measured_n1: float, setup: Setup) -> tuple[float, float]:
    """Fit the per-arm noise coefficients rho from measured singles rates.

    The waveguide's eta_alpha must already be fixed (analytic or previously
    calibrated).  Each arm's singles budget without scattering (pairs, dark
    counts and pump leakage) is removed before inverting the singles
    equation; the returned pair is (rho at the idler's detuning, rho at the
    signal's detuning).
    """
    waveguide, pump = setup.waveguide, setup.pump
    gain = pump.duty_cycle * setup.coupling.output_efficiency(waveguide)
    eta_alpha = waveguide.eta_alpha()

    rhos = []
    for ch, measured in ((setup.idler, measured_n0), (setup.signal, measured_n1)):
        r = pair_generation_rate(waveguide, pump.power_w, ch)
        parts = singles_rate_parts(setup, ch, gain, eta_alpha, r, 0.0)
        if measured <= parts["total"]:
            raise InconsistentMeasurementError(
                f"measured singles {measured:.6g}/s for {ch.label or 'channel'} are at or "
                f"below the pair+dark+leakage floor {parts['total']:.6g}/s"
            )
        arm = gain * ch.collection_efficiency
        r_n = (measured - ch.dark_rate_hz - parts["leakage"]) / arm - eta_alpha * r
        occ = raman_occupancy(ch, setup.noise.temperature_k)
        rho = r_n / (
            ch.bandwidth_hz * pump.power_w * waveguide.effective_length_m * occ
        )
        if not math.isfinite(rho):
            raise NumericsError(f"fitted scattering coefficient for {ch.label or 'channel'} is "
                                f"not finite at measured singles {measured:.6g}/s")
        rhos.append(rho)
    return rhos[0], rhos[1]


# Detuning span of a built noise table: |nu| from RAMAN_TABLE_MIN_HZ to
# RAMAN_TABLE_SPAN_HZ on each side of the pump.
RAMAN_TABLE_MIN_HZ = 0.05e12
RAMAN_TABLE_SPAN_HZ = 8.5e12


def build_raman_table(
    rho_stokes: float,
    rho_anti_stokes: float,
    anchor_hz: float,
    temperature_k: float,
) -> tuple[tuple[float, float], ...]:
    """Build a signed-detuning rho table anchored at measured values.

    The shape is occupancy-compensated per side: rho(nu) * occ(nu) is flat
    at the anchored level, reflecting that the scattering gain grows with
    shift roughly as fast as the thermal occupancy falls at small shifts
    (and matching the observed flatness of the correlation quality across
    the measured detuning range).
    """
    if anchor_hz < RAMAN_TABLE_MIN_HZ or anchor_hz > RAMAN_TABLE_SPAN_HZ:
        raise ConfigError("anchor detuning outside the table span")
    if rho_stokes < 0.0 or rho_anti_stokes < 0.0:
        raise ConfigError("anchored rho values must be non-negative")

    grid = []
    nu = RAMAN_TABLE_MIN_HZ
    while nu < 1.0e12:
        grid.append(nu)
        nu += 0.05e12
    while nu < 2.0e12:
        grid.append(nu)
        nu += 0.1e12
    while nu <= RAMAN_TABLE_SPAN_HZ:
        grid.append(nu)
        nu += 0.25e12
    if grid[-1] < RAMAN_TABLE_SPAN_HZ:
        grid.append(RAMAN_TABLE_SPAN_HZ)

    def compensated(nu: float, rho_anchor: float, stokes: bool) -> float:
        occ_anchor = thermal_occupancy(anchor_hz, temperature_k) + (1.0 if stokes else 0.0)
        occ_nu = thermal_occupancy(nu, temperature_k) + (1.0 if stokes else 0.0)
        return rho_anchor * occ_anchor / occ_nu

    table = [(-nu, compensated(nu, rho_stokes, True)) for nu in reversed(grid)]
    table += [(nu, compensated(nu, rho_anti_stokes, False)) for nu in grid]
    return tuple(table)
