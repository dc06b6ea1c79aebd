"""Unit conversions used at the configuration boundary.

Everything downstream works in SI base units; dB, nm, ps/nm/km and friends
are accepted only here.
"""

import math

from .constants import C_VACUUM


def db_to_linear(x_db: float) -> float:
    """Convert an attenuation in dB to a power transmission fraction."""
    return 10.0 ** (-x_db / 10.0)


def wavelength_to_frequency(wavelength_m: float) -> float:
    """Vacuum wavelength in meters to frequency in Hz."""
    if wavelength_m <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    return C_VACUUM / wavelength_m


def frequency_to_wavelength(frequency_hz: float) -> float:
    """Frequency in Hz to vacuum wavelength in meters."""
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return C_VACUUM / frequency_hz


def gamma_from_n2(n2_m2_per_w: float, a_eff_m2: float, wavelength_m: float) -> float:
    """Nonlinear coefficient gamma = 2*pi*n2 / (lambda * A_eff), in 1/(W m)."""
    if n2_m2_per_w < 0.0:
        raise ValueError(f"n2 must be non-negative, got {n2_m2_per_w}")
    if a_eff_m2 <= 0.0 or wavelength_m <= 0.0:
        raise ValueError("a_eff and wavelength must be positive")
    return 2.0 * math.pi * n2_m2_per_w / (wavelength_m * a_eff_m2)


def beta2_from_dispersion(d_ps_per_nm_km: float, wavelength_m: float) -> float:
    """Dispersion parameter D (ps/nm/km) to beta2 (s^2/m) at a wavelength.

    beta2 = -D * lambda^2 / (2*pi*c); normal dispersion (D < 0) gives
    beta2 > 0.
    """
    if wavelength_m <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    d_si = d_ps_per_nm_km * 1e-6  # ps/(nm km) -> s/m^2
    return -d_si * wavelength_m**2 / (2.0 * math.pi * C_VACUUM)


def prop_loss_to_alpha(loss_db_per_cm: float) -> float:
    """Propagation loss in dB/cm to a power attenuation coefficient in Np/m."""
    if loss_db_per_cm < 0.0:
        raise ValueError(f"loss must be non-negative, got {loss_db_per_cm}")
    return loss_db_per_cm * 100.0 * math.log(10.0) / 10.0


def effective_length(alpha_np_per_m: float, length_m: float) -> float:
    """Effective interaction length (1 - exp(-alpha*L)) / alpha, in meters.

    Continuous at alpha = 0 where it equals L; tends to 1/alpha for
    alpha*L >> 1.
    """
    if length_m <= 0.0:
        raise ValueError(f"length must be positive, got {length_m}")
    if alpha_np_per_m < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha_np_per_m}")
    x = alpha_np_per_m * length_m
    if x < 1e-6:
        # Series keeps the alpha -> 0 limit exact and avoids underflow.
        return length_m * (1.0 - x / 2.0 + x * x / 6.0)
    return -math.expm1(-x) / alpha_np_per_m


def filter_fwhm_to_bandwidth(fwhm_nm: float, center_wavelength_m: float) -> float:
    """Filter FWHM in nm to an equivalent frequency passband in Hz."""
    if fwhm_nm <= 0.0 or center_wavelength_m <= 0.0:
        raise ValueError("filter width and wavelength must be positive")
    return C_VACUUM * fwhm_nm * 1e-9 / center_wavelength_m**2
