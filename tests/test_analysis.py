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
