"""Domain types describing the source: waveguide, pump, detection arms, noise.

All objects are immutable after construction and validated on construction;
every stored quantity is in SI base units.  Each range check of a number
states what a valid value satisfies, so a NaN fails it.  A derived factor
the model reads on every evaluation (the loss coefficient and effective
length of the guide, the collection efficiency of a channel, the noise
coefficient at a detuning) is computed once per object; it is not a field,
so equality, hashing and ``repr`` still see the fields alone, and
``dataclasses.replace`` builds an object that computes its factors afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, ExtrapolationError, FieldError
from .units import (
    db_to_linear,
    effective_length,
    prop_loss_to_alpha,
    wavelength_to_frequency,
)

@dataclass(frozen=True)
class WaveguideSpec:
    """Geometry, loss, nonlinearity and dispersion of the nonlinear medium.

    ``eta_alpha_mode`` selects how the in-waveguide pair-photon survival is
    obtained: ``"analytic"`` uses L_eff/L for uniform generation along the
    guide, ``"calibrated"`` uses ``eta_alpha_value`` fitted from a measured
    coincidence rate.  The two can differ substantially for a lossy guide;
    they are never merged silently.
    """

    length_m: float
    prop_loss_db_per_cm: float
    gamma_per_w_m: float
    beta2_s2_per_m: float
    eta_alpha_mode: str = "analytic"
    eta_alpha_value: float | None = None

    def __post_init__(self):
        if not self.length_m > 0.0:
            raise FieldError("length_m", "waveguide length must be positive", self.length_m)
        if not self.prop_loss_db_per_cm >= 0.0:
            raise FieldError("prop_loss_db_per_cm", "propagation loss must be non-negative",
                             self.prop_loss_db_per_cm)
        if not self.gamma_per_w_m > 0.0:
            raise FieldError("gamma_per_w_m", "gamma must be positive", self.gamma_per_w_m)
        if self.eta_alpha_mode not in ("analytic", "calibrated"):
            raise ConfigError(f"unknown eta_alpha_mode {self.eta_alpha_mode!r}")
        if self.eta_alpha_mode == "calibrated":
            v = self.eta_alpha_value
            if v is None or not 0.0 < v <= 1.0:
                raise FieldError("eta_alpha_value", "calibrated eta_alpha must be in (0, 1]", v)

    @cached_property
    def alpha_np_per_m(self) -> float:
        return prop_loss_to_alpha(self.prop_loss_db_per_cm)

    @cached_property
    def effective_length_m(self) -> float:
        return effective_length(self.alpha_np_per_m, self.length_m)

    def eta_alpha(self) -> float:
        """In-waveguide survival probability of one pair photon.

        Analytic: L_eff/L, the mean survival of a photon generated uniformly
        along the guide, since survival from z to the output facet is
        exp(-alpha*(L - z)).
        """
        if self.eta_alpha_mode == "calibrated":
            return float(self.eta_alpha_value)
        return self.effective_length_m / self.length_m


@dataclass(frozen=True)
class PumpConfig:
    """Pump laser: wavelength, in-waveguide power and temporal mode.

    ``power_w`` is the in-waveguide power; for pulsed operation it is the
    PEAK power, so rate formulas evaluated with it give in-pulse rates and
    the duty cycle converts to time averages.
    """

    wavelength_m: float
    power_w: float
    mode: str = "cw"
    tau_s: float | None = None
    rep_rate_hz: float | None = None

    def __post_init__(self):
        if not self.wavelength_m > 0.0:
            raise FieldError("wavelength_m", "pump wavelength must be positive",
                             self.wavelength_m)
        if not math.isfinite(self.frequency_hz):
            raise FieldError("wavelength_m", "pump wavelength must give a finite frequency",
                             self.wavelength_m)
        if not self.power_w >= 0.0:
            raise FieldError("power_w", "pump power must be non-negative", self.power_w)
        if self.mode == "cw":
            if self.tau_s is not None or self.rep_rate_hz is not None:
                raise ConfigError("cw pump takes no pulse parameters")
        elif self.mode == "pulsed":
            if self.tau_s is None or self.rep_rate_hz is None:
                raise ConfigError("pulsed pump requires tau_s and rep_rate_hz")
            if not self.tau_s > 0.0:
                raise FieldError("tau_s", "pulse duration must be positive", self.tau_s)
            if not self.rep_rate_hz > 0.0:
                raise FieldError("rep_rate_hz", "repetition rate must be positive",
                                 self.rep_rate_hz)
            if not 0.0 < self.tau_s * self.rep_rate_hz <= 1.0:
                raise ConfigError(
                    f"duty cycle tau*B must be in (0, 1], got {self.tau_s * self.rep_rate_hz}"
                )
        else:
            raise ConfigError(f"unknown pump mode {self.mode!r}")

    @property
    def frequency_hz(self) -> float:
        return wavelength_to_frequency(self.wavelength_m)

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the pump is on: 1 for CW, tau*B for pulses."""
        if self.mode == "cw":
            return 1.0
        return self.tau_s * self.rep_rate_hz


@dataclass(frozen=True)
class DetectionChannel:
    """One collection arm: filter passband, losses, detector properties.

    ``detuning_hz`` is signed: the signal arm sits above the pump
    (detuning > 0), the idler arm below (detuning < 0).  The idler side is
    the Stokes side for thermal-noise bookkeeping.
    """

    detuning_hz: float
    bandwidth_hz: float
    filter_loss_db: float
    detector_qe: float
    dark_rate_hz: float = 0.0
    jitter_fwhm_s: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not self.bandwidth_hz > 0.0:
            raise FieldError("bandwidth_hz", "channel bandwidth must be positive",
                             self.bandwidth_hz)
        if not 0.0 < self.detector_qe <= 1.0:
            raise FieldError("detector_qe", "detector QE must be in (0, 1]", self.detector_qe)
        if not self.filter_loss_db >= 0.0:
            raise FieldError("filter_loss_db", "filter loss must be non-negative",
                             self.filter_loss_db)
        if not self.dark_rate_hz >= 0.0:
            raise FieldError("dark_rate_hz", "dark rate must be non-negative", self.dark_rate_hz)
        if not self.jitter_fwhm_s >= 0.0:
            raise FieldError("jitter_fwhm_s", "jitter must be non-negative", self.jitter_fwhm_s)
        if not 0.0 < self.collection_efficiency <= 1.0:
            raise FieldError("filter_loss_db", "filter loss must leave a collection "
                             "efficiency in (0, 1]", self.filter_loss_db)

    @cached_property
    def collection_efficiency(self) -> float:
        """Filter transmission times detector QE (the eta_i of the rate model)."""
        return self.detector_qe * db_to_linear(self.filter_loss_db)

    @property
    def is_stokes(self) -> bool:
        return self.detuning_hz < 0.0


def coupling_from_insertion(
    total_db: float, prop_loss_db_per_cm: float, length_m: float, split: float
) -> tuple[float, float, float]:
    """Split a fiber-to-fiber insertion loss into facet losses.

    Returns ``(input_facet_db, output_facet_db, output_efficiency)``.  The
    propagation part ``prop_loss * L`` is removed first; ``split`` is the
    fraction of the remaining coupling loss assigned to the input facet.
    """
    if not 0.0 <= split <= 1.0:
        raise ConfigError(f"facet split must be in [0, 1], got {split}")
    prop_db = prop_loss_db_per_cm * length_m * 100.0
    coupling_db = total_db - prop_db
    if coupling_db < 0.0:
        raise ConfigError(
            f"total insertion loss {total_db} dB is below the propagation loss {prop_db} dB"
        )
    input_db = split * coupling_db
    output_db = (1.0 - split) * coupling_db
    return input_db, output_db, db_to_linear(output_db)


@dataclass(frozen=True)
class CouplingSpec:
    """Chip insertion-loss budget and the output-coupling knob.

    ``output_scale`` models deliberate output misalignment (0 < scale <= 1)
    and multiplies the output-facet efficiency; the dB budget identity
    input + output + propagation = total always holds for the facet losses
    themselves.
    """

    total_insertion_loss_db: float
    input_split: float = 0.5
    output_scale: float = 1.0

    def __post_init__(self):
        if not self.total_insertion_loss_db >= 0.0:
            raise FieldError("total_insertion_loss_db",
                             "total insertion loss must be non-negative",
                             self.total_insertion_loss_db)
        if not 0.0 <= self.input_split <= 1.0:
            raise FieldError("input_split", "input_split must be in [0, 1]", self.input_split)
        if not 0.0 < self.output_scale <= 1.0:
            raise FieldError("output_scale", "output_scale must be in (0, 1]", self.output_scale)

    def output_efficiency(self, waveguide: WaveguideSpec) -> float:
        """Chip-to-fiber survival of one photon at the output facet."""
        _, _, eta_out = coupling_from_insertion(
            self.total_insertion_loss_db,
            waveguide.prop_loss_db_per_cm,
            waveguide.length_m,
            self.input_split,
        )
        return self.output_scale * eta_out


@dataclass(frozen=True)
class PumpRejection:
    """Out-of-band suppression of residual pump light by the channel filters.

    The curve ramps linearly from ``base_db`` at zero detuning to
    ``floor_db`` at ``ramp_hz`` and stays at the floor beyond; it is
    monotone non-decreasing in |detuning| by construction.
    """

    base_db: float = 40.0
    floor_db: float = 120.0
    ramp_hz: float = 0.6e12

    def __post_init__(self):
        if not self.floor_db >= self.base_db:
            raise FieldError("floor_db", "rejection floor must be at least the base rejection "
                             f"{self.base_db!r} dB", self.floor_db)
        if not self.ramp_hz > 0.0:
            raise FieldError("ramp_hz", "rejection ramp width must be positive", self.ramp_hz)

    def rejection_db(self, detuning_hz: float) -> float:
        frac = min(1.0, abs(detuning_hz) / self.ramp_hz)
        return self.base_db + (self.floor_db - self.base_db) * frac


@dataclass(frozen=True)
class NoiseModel:
    """Spectral noise coefficient table plus temperature and pump rejection.

    ``raman_table`` maps signed detuning (Hz) to a spontaneous-scattering
    coefficient rho in photons / (s Hz W m), linearly interpolated between
    nodes.  Lookups outside the tabulated span raise; nothing extrapolates
    silently.
    """

    raman_table: tuple[tuple[float, float], ...]
    temperature_k: float = 300.0
    pump_rejection: PumpRejection = field(default_factory=PumpRejection)
    note: str = ""

    def __post_init__(self):
        if not self.temperature_k > 0.0:
            raise FieldError("temperature_k", "temperature must be positive", self.temperature_k)
        table = self.raman_table
        if not table:
            raise FieldError("raman_table", "raman table must have at least one entry", table)
        for i, (d, r) in enumerate(table):
            if i and d <= table[i - 1][0]:
                raise FieldError("raman_table", "raman table detunings must be strictly "
                                 "increasing", table[i], index=i)
            if not r >= 0.0:
                raise FieldError("raman_table", "raman coefficients must be non-negative",
                                 table[i], index=i)
        # The interpolation nodes, built once, and the coefficient at each
        # detuning looked up so far: not fields, so equality and hashing
        # still see the table alone.
        object.__setattr__(self, "_det", np.array([d for d, _ in table]))
        object.__setattr__(self, "_rho", np.array([r for _, r in table]))
        object.__setattr__(self, "_rho_at", {})

    def rho(self, detuning_hz: float) -> float:
        """Interpolated noise coefficient at a signed detuning.

        A detuning outside the table raises on every call; only values
        found are remembered."""
        value = self._rho_at.get(detuning_hz)
        if value is None:
            det = self._det
            if detuning_hz < det[0] or detuning_hz > det[-1]:
                raise ExtrapolationError(
                    f"detuning {detuning_hz:.4g} Hz outside raman table span "
                    f"[{det[0]:.4g}, {det[-1]:.4g}] Hz"
                )
            value = self._rho_at[detuning_hz] = float(np.interp(detuning_hz, det, self._rho))
        return value
