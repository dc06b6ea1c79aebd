"""Start-stop histogram analysis: the peak, the accidental floor and the CAR
estimate of a simulated run, and the ``analysis.json`` that reports them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .eventsim import HistogramResult, TiaRunResult


@dataclass
class AnalysisResult:
    """Peak and floor statistics extracted from a delay histogram.

    ``coincidence_rate`` is the floor-subtracted peak-window rate (clamped
    at zero, flagged, if the net is negative); uncertainties are Poisson,
    propagated from raw counts.
    """

    peak_delay_s: float
    peak_fwhm_s: float
    coincidence_rate: float
    accidental_rate_per_bin: float
    car_estimate: float
    uncertainties: dict = field(default_factory=dict)
    flags: tuple = ()


def check_peak_window(peak_window_s: float, bin_edges) -> None:
    """Refuse a peak window ``analyze_histogram`` cannot use on a histogram
    with ``bin_edges``: one that, around some maximum bin, holds every bin
    center and leaves no off-peak bin for the floor.  The middle bin is the
    worst case, so for n bins of width w the rule is window/2 >= floor(n/2) w,
    evaluated on the centers and with the ``<=`` that ``analyze_histogram``
    uses."""
    centers = 0.5 * (bin_edges[:-1] + bin_edges[1:])
    reach = np.maximum(centers - centers[0], centers[-1] - centers).min()
    if reach <= peak_window_s / 2.0:
        raise ConfigError(
            f"peak window {peak_window_s:.3g}s must be narrower than the range "
            f"{bin_edges[-1] - bin_edges[0]:.3g}s and than {2 * reach:.3g}s, twice the "
            "distance from the middle bin's center to the farthest one, to leave off-peak "
            "bins for the floor estimate"
        )


def peak_window(options) -> float:
    """The peak window of a setup's analysis ``options``: twice the
    coincidence window, refused if ``analyze_histogram`` could not use it."""
    try:
        check_peak_window(2 * options.window_s, options.tia.bin_edges)
    except ConfigError as exc:
        raise ConfigError(f"analysis.coincidence_window_ps, analysis.tia.range_ns: {exc} "
                          "(the peak window is twice the coincidence window)") from None
    return 2 * options.window_s


def analyze_histogram(hist: HistogramResult, peak_window_s: float) -> AnalysisResult:
    """Extract peak position/width and the net coincidence rate.

    The floor is the median of bins outside ``peak_window_s`` around the
    maximum bin (median for robustness against the peak tail); the net rate
    is the peak-window sum minus floor times the number of window bins.
    """
    centers = hist.bin_centers
    counts = hist.counts.astype(np.float64)
    check_peak_window(peak_window_s, hist.bin_edges)
    if counts.sum() == 0:
        return AnalysisResult(
            peak_delay_s=math.nan,
            peak_fwhm_s=math.nan,
            coincidence_rate=0.0,
            accidental_rate_per_bin=0.0,
            car_estimate=math.nan,
            flags=("empty",),
        )

    imax = int(np.argmax(counts))
    in_peak = np.abs(centers - centers[imax]) <= peak_window_s / 2.0
    n_peak = int(in_peak.sum())
    n_off = int((~in_peak).sum())

    floor = float(np.median(counts[~in_peak]))
    net = float(counts[in_peak].sum() - floor * n_peak)
    t_acq = hist.acquisition_time

    flags = []
    if net <= 0.0:
        flags.append("nonpositive_net")
        rate = 0.0
    else:
        rate = net / t_acq

    excess = counts[in_peak] - floor
    pos = np.clip(excess, 0.0, None)
    if pos.sum() > 0.0:
        centroid = float(np.sum(centers[in_peak] * pos) / pos.sum())
        fwhm = _fwhm_interpolated(centers[in_peak], excess)
    else:
        centroid = float(centers[imax])
        fwhm = math.nan
        flags.append("no_peak_excess")

    # Poisson errors: window sum plus the floor-median uncertainty
    # (pi/2 factor for median vs mean efficiency), propagated linearly.
    var_net = float(counts[in_peak].sum()) + n_peak**2 * (math.pi / 2.0) * max(floor, 1.0) / n_off
    sigma_net = math.sqrt(var_net)
    floor_counts_in_window = floor * n_peak
    car = net / floor_counts_in_window if floor_counts_in_window > 0 else math.inf

    return AnalysisResult(
        peak_delay_s=centroid,
        peak_fwhm_s=fwhm,
        coincidence_rate=rate,
        accidental_rate_per_bin=floor / t_acq,
        car_estimate=car,
        uncertainties={
            "net_counts": sigma_net,
            "coincidence_rate": sigma_net / t_acq,
            "car": sigma_net / floor_counts_in_window if floor_counts_in_window > 0 else math.nan,
        },
        flags=tuple(flags),
    )


def _fwhm_interpolated(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum via linear interpolation of crossings."""
    imax = int(np.argmax(y))
    half = y[imax] / 2.0
    left = math.nan
    for i in range(imax, 0, -1):
        if y[i - 1] <= half <= y[i]:
            frac = (half - y[i - 1]) / (y[i] - y[i - 1])
            left = x[i - 1] + frac * (x[i] - x[i - 1])
            break
    right = math.nan
    for i in range(imax, y.size - 1):
        if y[i + 1] <= half <= y[i]:
            frac = (y[i] - half) / (y[i] - y[i + 1])
            right = x[i] + frac * (x[i + 1] - x[i])
            break
    return right - left


def analysis_document(analysis: AnalysisResult, run: TiaRunResult) -> dict:
    """``analysis`` of ``run``'s histogram and the run's singles rates, or the
    empty flag alone; non-finite values are None, flagged ``nonfinite:<key>``."""
    if "empty" in analysis.flags:
        return {"flags": ["empty"]}
    doc, nonfinite = null_nonfinite({
        "peak_delay_s": analysis.peak_delay_s,
        "peak_fwhm_s": analysis.peak_fwhm_s,
        "coincidence_rate_per_s": analysis.coincidence_rate,
        "accidental_rate_per_bin_per_s": analysis.accidental_rate_per_bin,
        "car_estimate": analysis.car_estimate,
        "uncertainties": analysis.uncertainties,
        "singles_rate0_per_s": run.n_starts / run.duration,
        "singles_rate1_per_s": run.n_stops / run.duration,
    })
    doc["flags"] = [*analysis.flags, *(f"nonfinite:{key}" for key in nonfinite)]
    return doc


def null_nonfinite(doc: dict) -> tuple[dict, list]:
    """The document with non-finite floats replaced by None, and the dotted
    keys of those floats, sorted."""
    keys = []

    def clean(value, path):
        if isinstance(value, dict):
            return {k: clean(v, f"{path}.{k}" if path else k) for k, v in value.items()}
        if isinstance(value, float) and not math.isfinite(value):
            keys.append(path)
            return None
        return value

    return clean(doc, ""), sorted(keys)
