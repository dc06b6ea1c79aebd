import math

import numpy as np
import pytest

from sfwmlab.analysis import analyze_histogram
from sfwmlab.errors import ConfigError
from sfwmlab.eventsim import HistogramResult


class TestAnalyzeHistogram:
    def _flat_histogram(self, level=100):
        edges = 10e-9 + np.arange(101) * 16e-12
        counts = np.full(100, level, dtype=np.int64)
        return HistogramResult(bin_edges=edges, counts=counts, acquisition_time=10.0)

    def test_flat_histogram_flags_no_peak(self):
        result = analyze_histogram(self._flat_histogram(), peak_window_s=160e-12)
        assert result.coincidence_rate == 0.0
        assert "nonpositive_net" in result.flags or "no_peak_excess" in result.flags

    def test_empty_histogram_flagged(self):
        result = analyze_histogram(self._flat_histogram(level=0), peak_window_s=160e-12)
        assert result.flags == ("empty",)
        assert result.coincidence_rate == 0.0

    def test_peak_window_wider_than_range_rejected(self):
        with pytest.raises(ConfigError):
            analyze_histogram(self._flat_histogram(), peak_window_s=1.0)

    @pytest.mark.parametrize("n_bins", [1, 2, 139, 140])
    def test_window_holding_every_bin_around_the_middle_rejected(self, n_bins):
        # A window is refused when, around some maximum bin, it holds every
        # center: at half a window of floor(n/2) bins, around the middle bin.
        edges = 10e-9 + np.arange(n_bins + 1) * 16e-12
        centers = 0.5 * (edges[:-1] + edges[1:])
        reach = min(np.abs(centers - c).max() for c in centers)
        assert reach == pytest.approx(n_bins // 2 * 16e-12, rel=1e-9, abs=1e-30)
        counts = np.arange(n_bins, dtype=np.int64) % 7 + 10
        hist = HistogramResult(bin_edges=edges, counts=counts, acquisition_time=10.0)
        with pytest.raises(ConfigError, match="off-peak bins"):
            analyze_histogram(hist, peak_window_s=2 * reach)
        if n_bins > 1:
            analyze_histogram(hist, peak_window_s=math.nextafter(2 * reach, 0.0))

    def test_synthetic_peak_recovery(self):
        # A clean Gaussian peak over a flat floor: the analysis recovers
        # position, width and net rate.
        edges = 10e-9 + np.arange(139) * 16e-12
        centers = 0.5 * (edges[:-1] + edges[1:])
        sigma = 85e-12
        amplitude = 50000.0
        floor = 2000.0
        profile = amplitude * 16e-12 / (sigma * math.sqrt(2 * math.pi)) * np.exp(
            -0.5 * ((centers - 11.1e-9) / sigma) ** 2
        )
        counts = np.round(profile + floor).astype(np.int64)
        hist = HistogramResult(bin_edges=edges, counts=counts, acquisition_time=100.0)
        result = analyze_histogram(hist, peak_window_s=800e-12)
        assert result.peak_delay_s == pytest.approx(11.1e-9, abs=2e-12)
        assert result.peak_fwhm_s == pytest.approx(2.3548 * sigma, rel=0.05)
        assert result.coincidence_rate == pytest.approx(amplitude / 100.0, rel=0.02)

    @staticmethod
    def _floor_with_excess(excess_bin, top_bin=None):
        """A flat floor of 100 counts over 10-330 ns in 16 ps bins with an
        excess of 40 counts in ``excess_bin`` and, if given, a floor
        fluctuation of 60 in ``top_bin``, for a run with an 11.1 ns stop
        delay."""
        edges = 10e-9 + np.arange(20001) * 16e-12
        counts = np.full(20000, 100, dtype=np.int64)
        counts[excess_bin] += 40
        if top_bin is not None:
            counts[top_bin] += 60
        return HistogramResult(bin_edges=edges, counts=counts, acquisition_time=9.0,
                               metadata={"stop_delay_s": 11.1e-9})

    def test_maximum_far_from_the_stop_delay_is_flagged(self):
        # The coincidence excess sits in the bin of 11.1 ns (68), but a
        # fluctuation at 289.94 ns (17496) holds the maximum bin.
        result = analyze_histogram(self._floor_with_excess(68, top_bin=17496),
                                   peak_window_s=800e-12)
        assert result.peak_delay_s == pytest.approx(289.944e-9, abs=1e-12)
        assert "peak_off_stop_delay" in result.flags

    @pytest.mark.parametrize("excess_bin", [68, 68 + 25, 68 - 24])
    def test_maximum_within_half_the_window_is_not_flagged(self, excess_bin):
        # Half the 800 ps window is 25 bins; bin 68's center lies 4 ps below
        # the stop delay, so bins 44 and 93 lie within 400 ps of it.
        result = analyze_histogram(self._floor_with_excess(excess_bin),
                                   peak_window_s=800e-12)
        assert "peak_off_stop_delay" not in result.flags

    def test_maximum_just_past_half_the_window_is_flagged(self):
        result = analyze_histogram(self._floor_with_excess(68 + 26), peak_window_s=800e-12)
        assert "peak_off_stop_delay" in result.flags

    def test_histogram_without_a_stop_delay_is_not_checked(self):
        hist = self._floor_with_excess(68, top_bin=17496)
        hist.metadata = {}
        assert analyze_histogram(hist, peak_window_s=800e-12).flags == ()
