import copy
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import sfwmlab
import sfwmlab.eventsim as eventsim
from sfwmlab.analysis import analyze_histogram
from sfwmlab.config import load_config, set_path
from sfwmlab.errors import ConfigError, FieldError, NumericsError
from sfwmlab.eventsim import (
    FWHM_TO_SIGMA,
    MAX_TIA_BINS,
    HistogramResult,
    TiaConfig,
    _Recycler,
    _bin_counts,
    _bin_edge,
    _bin_starts,
    _cw_bulk_rate,
    _epoch_arms,
    _epoch_children,
    _epoch_length,
    _generator,
    _jittered,
    _match_window,
    _poisson_times,
    _pulsed_times,
    _start_domain,
    _thin,
    _tia_epoch,
    _tiles,
    _windows,
    component_rates,
    run_tia,
)
from sfwmlab.explore import power_for_pairs_per_pulse

from conftest import make_noise_free, with_analysis


def _poisson(rate_hz, duration_s, seed):
    return _poisson_times(rate_hz, duration_s, _generator(seed))


def _search_ranges(starts, stops, window, single):
    """Stop-index ranges [i0, i1) holding the matches of each start: two
    searches, or one and the next index with ``single``."""
    i0 = np.searchsorted(stops, starts + window[0], side="left")
    if single:
        return i0, np.minimum(i0 + 1, stops.size)
    return i0, np.searchsorted(stops, starts + window[1], side="left")


def _expand_stop_ranges(starts, stops, i0, i1, window):
    """Delays stop - start for stop indices [i0[j], i1[j]) of each start.

    Only the stops p with p >= s + lo and p < s + hi, ``window`` = (lo, hi),
    are kept: the float comparisons ``searchsorted`` makes, so a candidate
    range that holds the matching one gives the same delays.
    """
    counts = i1 - i0
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.float64)
    # flat[m] = i0[j] + (m - first output slot of start j)
    flat = np.arange(total)
    flat -= np.repeat(np.cumsum(counts) - counts - i0, counts)
    delays = stops[flat]
    s = np.repeat(starts, counts)
    lo, hi = window
    keep = delays >= s + lo
    keep &= delays < s + hi
    delays -= s
    return delays[keep]


def _pair_delays(starts, stops, cfg):
    """Delays (stop - start) selected by the TIA policy, limited to delays
    below the histogram range maximum: every start's index range searched
    in the whole stop array and expanded at once, an algorithm apart from
    the walk of ``_bin_starts``, which must reproduce it."""
    window, single = _match_window(cfg)
    i0, i1 = _search_ranges(starts, stops, window, single)
    return _expand_stop_ranges(starts, stops, i0, i1, window)


def _histogram(starts, stops, cfg):
    """One-pass reference: every start against every stop, then binned."""
    counts, _ = np.histogram(_pair_delays(starts, stops, cfg), bins=cfg.bin_edges)
    return counts


def _arms(setup, duration_s, seed):
    """(seeds, (arm0, arm1)) of a CW run generated as one epoch of ``duration_s``."""
    children = _epoch_children(seed, 0)
    return children, _epoch_arms(setup, component_rates(setup), children, 0,
                                 (duration_s, 0), duration_s,
                                 setup.analysis.tia.stop_delay_s, _Recycler())


def _full_streams(setup, duration_s, seed):
    """All starts and stops of a CW run in one epoch: ``_epoch_arms`` plus
    the start arm's bulk drawn over the whole run."""
    children, (arm0, arm1) = _arms(setup, duration_s, seed)
    bulk0 = _poisson_times(_cw_bulk_rate(component_rates(setup), 0), duration_s,
                           _generator(children["bulk0"]))
    return np.sort(np.concatenate([arm0, bulk0])), arm1


def test_public_names_resolve():
    for name in sfwmlab.__all__:
        assert hasattr(sfwmlab, name), name


class TestPoissonStream:
    def test_zero_rate_is_empty(self):
        assert _poisson(0.0, 1.0, 1).size == 0

    def test_count_statistics(self):
        assert abs(_poisson(1e6, 1.0, 12345).size - 1e6) < 5 * 1000.0

    def test_determinism(self):
        assert np.array_equal(_poisson(1e5, 1.0, 777), _poisson(1e5, 1.0, 777))

    def test_sorted_within_duration(self):
        times = _poisson(1e4, 2.0, 3)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0 and times[-1] < 2.0


class TestRecycler:
    def test_released_array_serves_a_request_that_fills_half(self):
        arrays = _Recycler()
        a = arrays.empty(1000)
        b = arrays.empty(1000)
        assert not np.shares_memory(a, b)
        arrays.release(a[:-1])  # a view of the array is enough
        assert np.shares_memory(arrays.empty(600), a)
        # Less than half of a released array: a new one.
        arrays.release(b)
        assert not np.shares_memory(arrays.empty(400), b)
        assert np.shares_memory(arrays.empty(1010), b)  # 1/64 to spare

    def test_foreign_arrays_are_ignored(self):
        arrays = _Recycler()
        x = np.zeros(1000)
        arrays.release(x)
        y = arrays.empty(1000)
        assert not np.shares_memory(x, y)
        y[:] = 1.0
        assert not x.any()


class TestMergeSorted:
    # Insertions into 100000 values: below 98 each run between them is
    # copied, above that a mask places them.
    @pytest.mark.parametrize("n_small", [0, 1, 40, 97, 98, 5000, 100000])
    def test_matches_insert(self, n_small):
        gen = np.random.default_rng(n_small)
        big = np.sort(gen.random(100000))
        # Half the small array repeats values of the big one: ties.
        small = np.sort(np.concatenate([gen.random(n_small - n_small // 2),
                                        gen.choice(big, n_small // 2)]))
        expected = np.insert(big, np.searchsorted(big, small), small)
        for a, b in ((big, small), (small, big)):
            merged = eventsim._merge_sorted(a.copy(), b.copy(), _Recycler())
            assert np.array_equal(merged, expected)


def _pulsed(in_pulse_rate_hz, tau_s, rep_rate_hz, duration_s, seed):
    windows = math.ceil(duration_s * rep_rate_hz - 1e-9)
    return _pulsed_times(in_pulse_rate_hz, tau_s, rep_rate_hz, windows, _generator(seed))


class TestPulsedStream:
    def test_gating_invariant(self):
        b = 1e8
        tau = 5e-12
        times = _pulsed(2e9, tau, b, 0.01, 9)
        phase = np.mod(times, 1.0 / b)
        assert np.all(phase < tau * (1 + 1e-6))

    def test_expected_count(self):
        # 0.01 mean events per pulse at 100 MHz over one second.
        times = _pulsed(0.01 / 5e-12, 5e-12, 1e8, 1.0, 21)
        assert abs(times.size - 1e6) < 5 * 1000.0

    def test_full_duty_cycle_is_homogeneous(self):
        b = 1e6
        duration = 1.0
        times = _pulsed(2e5, 1.0 / b, b, duration, 5)
        # With tau*B = 1 the windows tile all of time: uniform arrivals.
        result = stats.kstest(times, "uniform", args=(0.0, duration))
        assert result.pvalue > 0.01


class TestDetect:
    """Detector effects as ``run_tia`` applies them: timing jitter, dark
    counts, and the per-arm survival of pair photons."""

    def test_identity(self):
        times = _poisson(1e4, 1.0, 11)
        assert _jittered(times, 0.0, _generator(12)) is times

    def test_binomial_thinning(self, paper_cfg):
        # Each photon of a pair survives its arm independently: C r = P0 P1,
        # and the arm-0 pair photons of an epoch are a binomial share of the
        # pair photons of arm 1 (noise-free, so arm 1 holds only those).
        setup = load_config(make_noise_free(paper_cfg.raw)).setup
        rates = component_rates(setup)
        obs = rates["observables"]
        p0 = obs.singles_parts["N0"]["pairs"]
        p1 = obs.singles_parts["N1"]["pairs"]
        assert rates["both"] * obs.pair_rate == pytest.approx(p0 * p1, rel=1e-12)
        _, (arm0, arm1) = _arms(setup, 5.0, 14)
        share = rates["both"] / p1
        n = arm1.size
        assert abs(n - p1 * 5.0) < 5 * math.sqrt(p1 * 5.0)
        assert abs(arm0.size - share * n) < 5 * math.sqrt(n * share * (1 - share))

    def test_dark_counts_added(self, paper_cfg):
        # Without pump light only the dark counts remain, on both arms.
        raw = dict(paper_cfg.raw, pump=dict(paper_cfg.raw["pump"], power_mw=0.0))
        result = run_tia(load_config(raw).setup, 20.0, 15)
        expected = 1000.0 * 20.0
        assert abs(result.n_starts - expected) < 5 * math.sqrt(expected)
        assert abs(result.n_stops - expected) < 5 * math.sqrt(expected)

    def test_jitter_quadrature_sum(self):
        # The same underlying events through two detectors with 141 ps
        # jitter each: the delay spread is the quadrature sum, 200 ps FWHM.
        base = _poisson(2e4, 10.0, 17)
        jit = 200e-12 / math.sqrt(2.0)
        arm0 = _jittered(base, jit, _generator(18))
        arm1 = _jittered(base, jit, _generator(19))
        fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0)) * float(np.std(arm1 - arm0))
        assert fwhm == pytest.approx(200e-12, rel=0.05)

    def test_rejects_bad_survival(self, clean_raw):
        # Survival probabilities come from the channel efficiencies.
        clean_raw["channels"]["signal"]["detector_qe"] = 1.5
        with pytest.raises(ConfigError, match="QE"):
            load_config(clean_raw)


class TestEpochArms:
    def test_lossless_streams_pair_exactly(self, paper_cfg):
        raw = make_noise_free(paper_cfg.raw)
        raw["waveguide"]["eta_alpha"] = 1.0
        raw["waveguide"]["prop_loss_db_per_cm"] = 0.0
        raw["coupling"]["total_insertion_loss_db"] = 0.0
        raw["pump"]["power_mw"] = 0.2  # keep the rate manageable
        for ch in raw["channels"].values():
            ch["filter_loss_db"] = 0.0
            ch["detector_qe"] = 1.0
            ch["jitter_fwhm_ps"] = 0.0
        _, (starts, stops) = _arms(load_config(raw).setup, 0.5, 123)
        assert starts.size == stops.size > 100
        assert np.allclose(stops - starts, 11.1e-9, atol=1e-15)


class TestTiaHistogram:
    CFG = TiaConfig(bin_width_s=16e-12, range_s=(10e-9, 12.208e-9),
                    policy="first-stop", stop_delay_s=11.1e-9)
    MULTI = TiaConfig(bin_width_s=16e-12, range_s=(10e-9, 12.208e-9),
                      policy="multi-stop", stop_delay_s=11.1e-9)

    def test_single_pair_lands_in_delay_bin(self):
        counts = _histogram(np.array([1.0]), np.array([1.0 + 11.1e-9]), self.CFG)
        assert counts.sum() == 1
        bin_idx = int(np.argmax(counts))
        lo = self.CFG.bin_edges[bin_idx]
        hi = self.CFG.bin_edges[bin_idx + 1]
        assert lo <= 11.1e-9 < hi

    def test_no_stops_gives_empty_histogram(self):
        assert _histogram(_poisson(1e4, 1.0, 40), np.empty(0), self.CFG).sum() == 0

    def test_first_stop_total_bounded_by_starts(self):
        starts = _poisson(1e5, 1.0, 41)
        stops = _poisson(1e5, 1.0, 42)
        assert _histogram(starts, stops, self.CFG).sum() <= starts.size

    def test_accidental_floor_level(self):
        # Independent streams: multi-stop floor per bin is R0*R1*bin*T.
        r0, r1, duration = 2e5, 1e5, 5.0
        starts = _poisson(r0, duration, 43)
        stops = _poisson(r1, duration, 44)
        counts = _histogram(starts, stops, self.MULTI)
        expected = r0 * r1 * 16e-12 * duration
        sigma_mean = math.sqrt(expected / counts.size)
        assert abs(counts.mean() - expected) < 3 * sigma_mean

    def test_first_stop_agrees_with_multi_stop_at_low_occupancy(self):
        # When stop_rate * range << 1 the two policies coincide within
        # counting noise.
        starts = _poisson(2e5, 5.0, 45)
        stops = _poisson(1e5, 5.0, 46)
        first = _histogram(starts, stops, self.CFG)
        multi = _histogram(starts, stops, self.MULTI)
        diff = first.sum() - multi.sum()
        assert abs(diff) < 3 * math.sqrt(multi.sum() + 1)

    def test_policies_agree_per_bin_at_full_rates(self, paper_cfg):
        # Full singles rates over a 40 ns span: the first-stop depletion
        # (stop rate x range ~ 0.05) stays far below the per-bin Poisson
        # spread at this acquisition time.
        starts, stops = _full_streams(paper_cfg.setup, 1.0, 55)
        histograms = {}
        for policy in ("first-stop", "multi-stop"):
            cfg = TiaConfig(bin_width_s=16e-12, range_s=(0.0, 40e-9),
                            policy=policy, stop_delay_s=11.1e-9)
            histograms[policy] = _histogram(starts, stops, cfg)
        first = histograms["first-stop"]
        multi = histograms["multi-stop"]
        assert np.all(first <= multi)  # first-stop can only drop pairs
        sigma = np.sqrt(np.maximum(multi, 1))
        assert np.all(multi - first < 3 * sigma)

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            TiaConfig(bin_width_s=16e-12, range_s=(12e-9, 12e-9))

    @pytest.mark.parametrize("range_s", [(-3e-9, -1e-9), (-3e-9, 0.0)])
    def test_first_stop_range_below_zero_rejected(self, range_s):
        # First-stop delays are never negative: no entry could be binned.
        with pytest.raises(FieldError, match="first-stop delay range must reach above 0") as e:
            TiaConfig(bin_width_s=16e-12, range_s=range_s, stop_delay_s=-2e-9)
        assert e.value.field == "range_s"
        TiaConfig(bin_width_s=16e-12, range_s=range_s, policy="multi-stop", stop_delay_s=-2e-9)

    @pytest.mark.parametrize("range_s", [(1.0, 1.0 + 1e-13), (-1.0 - 1e-13, -1.0)])
    def test_bin_width_below_float_resolution_rejected(self, range_s):
        # 1e-17 s bins near 1 s: 9993 bins, whose edges held 451 values.
        with pytest.raises(FieldError, match="at least 2\\^10 float spacings") as e:
            TiaConfig(1e-17, range_s, "multi-stop", range_s[0])
        assert e.value.field == "bin_width_s"
        # The bound is 2^10 spacings of the end farther from 0.
        width = 2**10 * math.ulp(1.0 + 1e-13)
        TiaConfig(width, range_s, "multi-stop", range_s[0])
        with pytest.raises(FieldError):
            TiaConfig(math.nextafter(width, 0.0), range_s, "multi-stop", range_s[0])

    def test_range_must_span_stop_delay(self):
        with pytest.raises(ConfigError):
            TiaConfig(bin_width_s=16e-12, range_s=(0.0, 5e-9), stop_delay_s=11.1e-9)


class TestRunTia:
    def test_determinism(self, paper_cfg):
        a = run_tia(paper_cfg.setup, 0.2, 99)
        b = run_tia(paper_cfg.setup, 0.2, 99)
        assert np.array_equal(a.histogram.counts, b.histogram.counts)
        assert a.n_starts == b.n_starts

    def test_chunked_run_counts_match_rates(self, paper_cfg, monkeypatch):
        # Force 16 epochs of 1/16 s and verify the summed counts still match.
        monkeypatch.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**17)
        setup = paper_cfg.setup
        obs = setup.predict()
        duration = 1.0
        result = run_tia(setup, duration, 7)
        expected0 = obs.singles0 * duration
        expected1 = obs.singles1 * duration
        assert abs(result.n_starts - expected0) < 4 * math.sqrt(expected0)
        assert abs(result.n_stops - expected1) < 4 * math.sqrt(expected1)

    def test_epochs_reuse_the_arrays_of_earlier_ones(self, paper_cfg, monkeypatch):
        # Three epochs of 0.5 s.  From epoch 1 on, the stops binned lie in an
        # array handed out in an earlier epoch, not in fresh memory.
        tia_epoch, empty = eventsim._tia_epoch, eventsim._Recycler.empty
        bin_starts = eventsim._bin_starts
        handed, stops = [], []

        def record_epoch(*args):
            handed.append([])
            return tia_epoch(*args)

        def record_empty(arrays, n):
            handed[-1].append(empty(arrays, n))
            return handed[-1][-1]

        def record_stops(starts, epoch_stops, *args):
            if len(stops) < len(handed):
                stops.append(epoch_stops)
            return bin_starts(starts, epoch_stops, *args)

        monkeypatch.setattr(eventsim, "_tia_epoch", record_epoch)
        monkeypatch.setattr(eventsim._Recycler, "empty", record_empty)
        monkeypatch.setattr(eventsim, "_bin_starts", record_stops)
        run_tia(paper_cfg.setup, 1.5, 3)
        assert len(stops) == 3 and stops[0].size > 600000
        for e in (1, 2):
            earlier = [a for epoch_arrays in handed[:e] for a in epoch_arrays]
            assert any(np.shares_memory(stops[e], a) for a in earlier)

    def test_one_epoch_run_reuses_released_arrays(self, paper_cfg, monkeypatch):
        # 0.4 s is one epoch of 0.5 s.  The start domain's stop gaps go into
        # the array of the stop arm's draws, which the merge released.
        empty = eventsim._Recycler.empty
        handed = []

        def record_empty(arrays, n):
            handed.append(empty(arrays, n))
            return handed[-1]

        monkeypatch.setattr(eventsim._Recycler, "empty", record_empty)
        run_tia(paper_cfg.setup, 0.4, 3)
        assert any(np.shares_memory(a, b) for i, a in enumerate(handed) for b in handed[:i])

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_rejects_bad_duration(self, paper_cfg, duration):
        with pytest.raises(ConfigError, match="duration"):
            run_tia(paper_cfg.setup, duration, 1)

    @pytest.mark.parametrize("duration, epochs", [(1e30, "2e+30"), (1e308, "inf")])
    def test_rejects_more_epochs_than_stay_exact(self, paper_cfg, monkeypatch, duration,
                                                 epochs):
        # 0.5 s epochs: refused before the first epoch is generated.
        def generated(*args):
            raise AssertionError("an epoch was generated")

        monkeypatch.setattr(eventsim, "_tia_epoch", generated)
        with pytest.raises(NumericsError) as raised:
            run_tia(paper_cfg.setup, duration, 1)
        message = str(raised.value)
        assert f"{duration:.4g} s run holds {epochs} epochs of 0.5 s" in message
        assert "at most 2^53" in message

    def test_rejects_a_bulk_draw_past_the_stream_bound(self, paper_cfg, monkeypatch):
        # A 0.5 ms multi-stop range sets epochs of 2^-9 s, twice its reach,
        # over which an idler dark rate of 1e12 /s draws 1.95e9 bulk starts.
        tia = TiaConfig(bin_width_s=1e-6, range_s=(0.0, 5e-4), policy="multi-stop",
                        stop_delay_s=1e-4)
        setup = set_path(with_analysis(paper_cfg.setup, tia=tia), "idler.dark_rate_hz", 1e12)

        def generated(*args):
            raise AssertionError("an epoch was generated")

        monkeypatch.setattr(eventsim, "_tia_epoch", generated)
        with pytest.raises(NumericsError, match="the arm 0 bulk draw rate 1e\\+12 /s would "
                           "put 1.953e\\+09 events in one 0.001953 s epoch"):
            run_tia(setup, 1.0, 1)

    def test_epochs_have_equal_length(self, paper_cfg, monkeypatch):
        epochs = []
        epoch_arms = eventsim._epoch_arms

        def record(setup, rates, children, e, epoch, duration_s, *args):
            epochs.append((e, epoch, duration_s))
            return epoch_arms(setup, rates, children, e, epoch, duration_s, *args)

        monkeypatch.setattr(eventsim, "_epoch_arms", record)
        # 1.34e6 generated events/s and 2^17 per epoch: 0.098 s at most, so
        # epochs of 2^-4 s, and a 0.3 s run takes four and a shorter fifth.
        monkeypatch.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**17)
        run_tia(paper_cfg.setup, 0.3, 1)
        assert epochs == [(e, (0.0625, 0), 0.3) for e in range(5)]

    def test_zero_duration_gives_empty(self, paper_cfg):
        result = run_tia(paper_cfg.setup, 0.0, 1)
        assert result.histogram.total_counts == 0
        analysis = analyze_histogram(result.histogram, peak_window_s=800e-12)
        assert "empty" in analysis.flags


class TestEpochs:
    """The stream definition: epochs of 2^k s (CW) or 2^k pulse periods
    (pulsed) keyed on (seed, epoch), in times relative to the epoch start."""

    @staticmethod
    def _reach(setup):
        tia = setup.analysis.tia
        return (tia.range_s[1] - min(tia.range_s[0], 0.0) + abs(tia.stop_delay_s)
                + 10.0 * (setup.idler.jitter_fwhm_s + setup.signal.jitter_fwhm_s))

    def test_shipped_epoch_lengths(self, paper_cfg, engineered_cfg):
        # About 2^20 generated events: 1.34e6 stops/s; 2722 singles/s at 100 MHz.
        assert _epoch_length(paper_cfg.setup, component_rates(paper_cfg.setup)) == (0.5, 0)
        rates = component_rates(engineered_cfg.setup)
        assert _epoch_length(engineered_cfg.setup, rates) == (2**35 / 1e8, 2**35)

    @pytest.mark.parametrize("rep_rate_hz", [1e8, 76.3e6, 123456.7, 0.1234567e6 + 1e-9])
    def test_pulsed_epoch_is_whole_pulse_periods_within_the_budget(self, engineered_cfg,
                                                                   rep_rate_hz):
        # A rep rate with a fractional part in Hz gets as short an epoch as
        # any other: the largest 2^k periods holding at most 2^20 events.
        setup = set_path(engineered_cfg.setup, "pump.rep_rate_hz", rep_rate_hz)
        rates = component_rates(setup)
        epoch_s, pulses = _epoch_length(setup, rates)
        assert pulses > 0 and pulses & (pulses - 1) == 0  # a power of two
        assert epoch_s == pulses / rep_rate_hz
        obs = rates["observables"]
        events = (obs.singles0 + obs.singles1) * epoch_s
        assert eventsim._EVENTS_PER_EPOCH / 2 < events <= eventsim._EVENTS_PER_EPOCH

    def test_vanishing_rep_rate_gives_one_pulse_period(self, engineered_cfg):
        setup = set_path(engineered_cfg.setup, "pump.rep_rate_hz", 1e-294)
        assert _epoch_length(setup, component_rates(setup)) == (1 / 1e-294, 1)
        result = run_tia(setup, 10.0, 1)
        assert result.n_starts > 0 and result.histogram.total_counts == 0

    @pytest.mark.parametrize("pulsed", [False, True])
    def test_epoch_spans_twice_the_reach(self, paper_cfg, engineered_cfg, pulsed):
        # A 0.7 ms delay range with a 0.1 ms stop delay: the rates alone
        # would give epochs shorter than twice the reach, 1.6 ms.
        tia = TiaConfig(bin_width_s=1e-6, range_s=(-2e-4, 5e-4), policy="multi-stop",
                        stop_delay_s=1e-4)
        setup = with_analysis((engineered_cfg if pulsed else paper_cfg).setup, tia=tia)
        rates = component_rates(setup)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**4)
            epoch_s, pulses = _epoch_length(setup, rates)
        reach = self._reach(setup)
        assert 2 * reach <= epoch_s < 10 * reach
        if pulsed:
            assert epoch_s == pulses / setup.pump.rep_rate_hz

    def test_pulsed_epoch_edges_lie_on_the_pulse_grid(self, engineered_cfg, monkeypatch):
        # 76.3 MHz and 2^4 events per epoch: 2^21 periods, 27 ms, which is
        # no power of two of seconds.
        raw = copy.deepcopy(engineered_cfg.raw)
        raw["pump"]["rep_rate_mhz"] = 76.3
        for ch in raw["channels"].values():
            ch["dark_rate_per_s"] = 0.0
            ch["jitter_fwhm_ps"] = 0.0
        setup = load_config(raw).setup
        pump = setup.pump
        rates = component_rates(setup)
        monkeypatch.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**4)
        epoch = _epoch_length(setup, rates)
        assert epoch == (2**21 / 76.3e6, 2**21)
        times = []
        for e in range(1, 40):
            arms = _epoch_arms(setup, rates, _epoch_children(3, e), e, epoch, 2.0, 0.0,
                               _Recycler())
            times.append(e * epoch[0] + np.concatenate(arms))
        times = np.concatenate(times)
        assert times.size > 50
        # Time since the latest pulse k/B of the run's grid, in periods.
        phase = np.mod(times * pump.rep_rate_hz + 0.5, 1.0) - 0.5
        assert np.all(phase > -1e-6)
        assert np.all(phase < pump.tau_s * pump.rep_rate_hz * (1 + 1e-6))

    def test_last_pulsed_epoch_ends_with_the_run(self, engineered_cfg):
        # Epochs of 2^10 periods at 100 MHz, 20 pairs per pulse; the run
        # ends 100.5 periods into the second epoch, which holds 101 windows.
        raw = copy.deepcopy(engineered_cfg.raw)
        for ch in raw["channels"].values():
            ch["jitter_fwhm_ps"] = 0.0
        setup = load_config(raw).setup
        rates = {name: 0.0 for name in component_rates(setup) if name != "observables"}
        rates["both"] = 2e9
        epoch = (2**10 / 1e8, 2**10)
        duration = (2**10 + 100.5) / 1e8
        arms = _epoch_arms(setup, rates, _epoch_children(3, 1), 1, epoch, duration, 0.0,
                           _Recycler())
        windows = np.unique(np.floor(arms[1] * 1e8))
        assert np.array_equal(windows, np.arange(101))

    def test_epochs_do_not_depend_on_duration(self, paper_cfg, monkeypatch):
        # Epochs of 2^-7 s; runs of three and of five share epochs 0 and 1.
        monkeypatch.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**14)
        epoch_arms = eventsim._epoch_arms
        bin_starts = eventsim._bin_starts
        runs = []
        for duration in (2.5 * 2.0**-7, 4.5 * 2.0**-7):
            arms, bulk = [], []

            # Copies: the run's recycler reuses the arrays of finished epochs.
            def record_arms(*args):
                result = epoch_arms(*args)
                arms.append(tuple(a.copy() for a in result))
                return result

            def record_bulk(starts, stops, cfg, domain=None):
                if domain is not None:
                    bulk.append((starts.copy(), np.array(domain)))
                return bin_starts(starts, stops, cfg, domain)

            with monkeypatch.context() as m:
                m.setattr(eventsim, "_epoch_arms", record_arms)
                m.setattr(eventsim, "_bin_starts", record_bulk)
                run_tia(paper_cfg.setup, duration, 9)
            runs.append((arms, bulk))
        (arms3, bulk3), (arms5, bulk5) = runs
        assert (len(arms3), len(arms5)) == (3, 5)
        for e in (0, 1):
            # Arm 0's and arm 1's events, the drawn offsets and the domain's
            # windows and length.
            assert arms3[e][1].size > 1000 and bulk3[e][0].size > 50
            for a, b in zip(arms3[e] + bulk3[e], arms5[e] + bulk5[e]):
                assert np.array_equal(a, b)
        assert not np.array_equal(arms3[2][1], arms5[2][1])  # 3's last is short

    def test_late_epoch_bins_like_epoch_zero(self, paper_cfg):
        # Epoch 2^17 of 0.5 s begins 18.2 h into the run, where absolute float
        # times are 7.3 ps apart.  Under epoch 0's key it gives epoch 0's
        # events, entries and carry, bit for bit.
        setup = paper_cfg.setup
        tia = setup.analysis.tia
        rates = component_rates(setup)
        epoch = _epoch_length(setup, rates)
        epoch_s = epoch[0]
        children = _epoch_children(5, 0)
        empty = (np.empty(0), np.empty(0))
        results = []
        for e in (0, 2**17):
            results.append(_tia_epoch(setup, rates, tia, children, e, epoch,
                                      (e + 1) * epoch_s, (0.0, epoch_s), empty, _Recycler()))
        (counts0, n00, n10, tail0), (counts1, n01, n11, tail1) = results
        assert counts0.sum() > 1000
        assert np.array_equal(counts0, counts1)
        assert (n00, n10) == (n01, n11)
        assert all(np.array_equal(a, b) for a, b in zip(tail0, tail1))


def _reference_domain(stops, cfg, t_lo, t_hi):
    """The start domain of ``_start_domain`` as segment bounds ``(seg_lo,
    seg_hi)`` and ``first``, each bound computed from its stops: segment k
    of stop p_k = ``stops[first + k]`` is (max(p_k - hi, p_{k-1} - lo), p_k -
    max(lo, range_lo)], clipped to [t_lo, t_hi], where one cut away entirely
    stays empty.  An algorithm apart from the stop-gap length and the
    thinning of ``_start_domain`` and ``_thin``, which must reproduce it
    to rounding."""
    (lo, hi), _ = _match_window(cfg)
    top = max(lo, cfg.range_s[0])
    first = int(np.searchsorted(stops, t_lo + top, side="left"))
    end = int(np.searchsorted(stops, t_hi + hi, side="right"))
    p = stops[first:end]
    seg_lo = p - hi
    seg_hi = p - lo
    # Stop p_{k-1} is the first match of the starts up to p_{k-1} - lo.
    np.maximum(seg_lo[1:], seg_hi[:-1], out=seg_lo[1:])
    if first > 0 and p.size:
        seg_lo[0] = max(seg_lo[0], stops[first - 1] - lo)
    if top != lo:
        np.subtract(p, top, out=seg_hi)
    # Both bounds are non-decreasing, so clipping sets a prefix and a suffix.
    seg_lo[:np.searchsorted(seg_lo, t_lo, side="left")] = t_lo
    seg_lo[np.searchsorted(seg_lo, t_hi, side="right"):] = t_hi
    np.maximum(seg_hi, seg_lo, out=seg_hi)
    seg_hi[np.searchsorted(seg_hi, t_hi, side="right"):] = t_hi
    return seg_lo, seg_hi, first


def _window_of(u, cfg, domain):
    """The window index of each offset along the windows of ``domain``."""
    return np.minimum((u / _windows(cfg)[1]).astype(np.intp), domain.n - 1)


def _thinned_on_grid(stops, cfg, t_lo, t_hi, step=0.25):
    """Reference segments (seg_lo, seg_hi) of a domain on a grid where they
    are exact, after checking ``_start_domain`` and ``_thin`` against them:
    the domain's windows and length, and offsets ``step`` apart along
    every window, which put starts on every segment edge.  A start is
    kept iff it lies in its window's segment, with the window's stop as
    its first."""
    seg_lo, seg_hi, first = _reference_domain(stops, cfg, t_lo, t_hi)
    domain = _start_domain(stops, cfg, t_lo, t_hi, _Recycler())
    assert (domain.first, domain.n) == (first, seg_lo.size)
    assert domain.covered == np.sum(seg_hi - seg_lo)
    u = np.arange(0.0, domain.n * _windows(cfg)[1], step)
    k = _window_of(u, cfg, domain)
    s, i, p, kept = _thin(u, stops, cfg, domain)
    inside = (s > seg_lo[k]) & (s <= seg_hi[k])
    assert np.array_equal(np.isfinite(p), inside) and kept == inside.sum()
    assert np.array_equal(i[inside], first + k[inside])
    return seg_lo, seg_hi


def _segments(stops, policy, rng, t_lo, t_hi, stop_delay=2.0):
    """The non-empty segments of the start domain (``_thinned_on_grid``)."""
    cfg = TiaConfig(bin_width_s=0.5, range_s=rng, policy=policy, stop_delay_s=stop_delay)
    seg_lo, seg_hi = _thinned_on_grid(np.array(stops, dtype=float), cfg, t_lo, t_hi)
    assert np.all(seg_hi >= seg_lo)
    assert np.all(seg_lo[1:] >= seg_hi[:-1])  # sorted and disjoint
    return [(a, b) for a, b in zip(seg_lo, seg_hi) if b > a]


class TestStartDomain:
    def test_multi_stop_windows_merge_where_they_overlap(self):
        # Windows (p - 3, p - 1]: (2, 4] and (3, 5] overlap, (7, 9] does not.
        # Each stop keeps its own segment, which begins where the earlier
        # stop stops matching, and the segments cover the windows' union.
        segments = _segments([5.0, 6.0, 10.0], "multi-stop", (1.0, 3.0), 0.0, 20.0)
        assert segments == [(2.0, 4.0), (4.0, 5.0), (7.0, 9.0)]
        union = [list(segments[0])]
        for a, b in segments[1:]:
            if a == union[-1][1]:
                union[-1][1] = b
            else:
                union.append([a, b])
        assert union == [[2.0, 5.0], [7.0, 9.0]]

    def test_multi_stop_negative_range_start(self):
        assert _segments([5.0], "multi-stop", (-1.0, 3.0), 0.0, 20.0,
                         stop_delay=0.0) == [(2.0, 6.0)]

    def test_first_stop_window_cut_off_at_previous_stop(self):
        # (max(prev, p - 3), p - 1]: the second window starts at the first
        # stop, the third is empty, the fourth is not cut.
        assert _segments([5.0, 7.0, 7.5, 12.0], "first-stop", (1.0, 3.0), 0.0, 20.0) == [
            (2.0, 4.0), (5.0, 6.0), (9.0, 11.0)]

    def test_first_stop_delays_below_zero_do_not_widen_windows(self):
        assert _segments([5.0], "first-stop", (-1.0, 3.0), 0.0, 20.0,
                         stop_delay=0.0) == [(2.0, 5.0)]

    def test_clipped_to_interval(self):
        stops = [5.0, 7.0, 7.5, 12.0]
        assert _segments(stops, "first-stop", (1.0, 3.0), 3.0, 10.0) == [
            (3.0, 4.0), (5.0, 6.0), (9.0, 10.0)]
        # A stop before the interval still cuts the window of the next one.
        assert _segments(stops, "first-stop", (1.0, 3.0), 5.5, 20.0) == [
            (5.5, 6.0), (9.0, 11.0)]
        assert _segments([2.0, 5.0, 30.0], "multi-stop", (1.0, 3.0), 0.0, 8.0) == [
            (0.0, 1.0), (2.0, 4.0)]

    @pytest.mark.parametrize("policy", ["first-stop", "multi-stop"])
    @pytest.mark.parametrize("rng", [(10.0, 40.0), (0.0, 25.0), (-8.0, 30.0)])
    def test_domain_holds_every_productive_start(self, policy, rng):
        # Every start outside the domain gives no entry: restricting the
        # starts to it leaves the delays unchanged.  Integer times make
        # starts sit exactly on window edges.
        gen = np.random.default_rng(3)
        stops = np.sort(gen.integers(0, 4000, 150)).astype(float)
        starts = np.arange(0.0, 4000.0, 0.5)
        cfg = TiaConfig(bin_width_s=1.0, range_s=rng, policy=policy,
                        stop_delay_s=max(rng[0], 0.0))
        # The slab begins below the first start: a start on t_lo is not in it.
        seg_lo, seg_hi = _thinned_on_grid(stops, cfg, -1.0, 4000.0)
        k = np.searchsorted(seg_lo, starts, side="left") - 1
        inside = (k >= 0) & (starts <= seg_hi[np.maximum(k, 0)])
        assert inside.mean() < 0.9
        full = np.sort(_pair_delays(starts, stops, cfg))
        full = full[full >= rng[0]]  # shorter delays are never binned
        restricted = np.sort(_pair_delays(starts[inside], stops, cfg))
        restricted = restricted[restricted >= rng[0]]
        assert full.size > 100
        assert np.array_equal(full, restricted)


def _domain_starts(rate_hz, stops, cfg, t_lo, t_hi, rng):
    """A rate-``rate_hz`` Poisson process on the start domain, as
    ``_tia_epoch`` draws it on the windows and thins it: (offsets, domain,
    kept times, their first-stop indices)."""
    arrays = _Recycler()
    domain = _start_domain(stops, cfg, t_lo, t_hi, arrays)
    u = _poisson_times(rate_hz, domain.n * _windows(cfg)[1], rng, arrays)
    s, i, p, kept = _thin(u, stops, cfg, domain)
    inside = np.isfinite(p)
    assert kept == inside.sum()
    return u, domain, s[inside], i[inside]


class TestRestrictedPoisson:
    """Offsets drawn along the domain's windows and thinned (``_thin``) are
    the Poisson process restricted to the domain."""

    def test_single_segment_is_the_plain_process(self):
        # The one window of stop 3 in a (1, 3) multi-stop window is (0, 2],
        # all of it in the domain.
        cfg = TiaConfig(bin_width_s=0.5, range_s=(1.0, 3.0), policy="multi-stop",
                        stop_delay_s=2.0)
        u, domain, a, i = _domain_starts(1e4, np.array([3.0]), cfg, 0.0, 10.0,
                                         np.random.default_rng(5))
        b = _poisson_times(1e4, 2.0, np.random.default_rng(5))
        assert (domain.n, domain.covered) == (1, 2.0)
        # Offset u is the start (3 - u) - 1, which is 2 - u up to rounding.
        assert np.allclose(a, 2.0 - b, rtol=0.0, atol=np.spacing(4.0))
        assert np.array_equal(i, np.zeros(a.size))

    def test_points_fill_segments_uniformly(self):
        # Windows (-1, 1] and (-1, 1] of the repeated stop 2 and (5, 7] of
        # stop 8 hold the segments (0, 1] (cut at t_lo = 0), none (the first
        # 2 matches every start of the second window) and (5, 7].
        stops = np.array([2.0, 2.0, 8.0])
        cfg = TiaConfig(bin_width_s=0.5, range_s=(1.0, 3.0), policy="multi-stop",
                        stop_delay_s=2.0)
        rate = 1e5
        u, domain, times, seg = _domain_starts(rate, stops, cfg, 0.0, 20.0,
                                               np.random.default_rng(6))
        assert (domain.first, domain.n, domain.covered) == (0, 3, 3.0)
        # Three windows of 2 are drawn on.
        assert abs(u.size - rate * 6.0) < 4 * math.sqrt(rate * 6.0)
        in_first = (times > 0.0) & (times <= 1.0)
        in_last = (times > 5.0) & (times <= 7.0)
        assert np.all(in_first | in_last)
        # The empty middle segment gets no point.
        assert np.array_equal(seg, np.where(in_first, 0, 2))
        # Poisson(r covered) points, spread over the segments by length.
        n = times.size
        assert abs(n - rate * 3.0) < 4 * math.sqrt(rate * 3.0)
        frac = in_last.sum() / n
        assert abs(frac - 2.0 / 3.0) < 4 * math.sqrt(frac * (1 - frac) / n)
        assert stats.kstest(times[in_first], "uniform", args=(0.0, 1.0)).pvalue > 1e-3
        assert stats.kstest(times[in_last], "uniform", args=(5.0, 2.0)).pvalue > 1e-3


@st.composite
def _domain_cases(draw):
    """Stops, a TIA window and a slab, on a grid offset far enough from 0
    that differences round: repeated stops, gaps shorter than top - lo
    (first-stop with a positive range start), negative range starts and
    slabs that cut segments at either end."""
    unit = draw(st.sampled_from([1.0, 0.37, 1e-9, 2.2e-12]))
    origin = draw(st.sampled_from([0.0, 0.5, 37.25]))
    grid = st.integers(-5, 60)
    stops = origin + unit * np.sort(np.array(draw(st.lists(grid, max_size=40)), dtype=float))
    policy = draw(st.sampled_from(["first-stop", "multi-stop"]))
    lo = draw(st.integers(-6, 8))
    # A first-stop range reaches above 0 (``TiaConfig``).
    hi = (max(lo, 0) if policy == "first-stop" else lo) + draw(st.integers(1, 12))
    t_lo, t_hi = sorted(draw(st.lists(grid, min_size=2, max_size=2)))
    cfg = TiaConfig(bin_width_s=unit, range_s=(lo * unit, hi * unit), policy=policy,
                    stop_delay_s=lo * unit)
    offsets = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30))
    return stops, cfg, origin + unit * t_lo, origin + unit * t_hi, offsets


def _domain_case(stops, policy, range_s, t_lo, t_hi):
    cfg = TiaConfig(bin_width_s=1.0, range_s=range_s, policy=policy, stop_delay_s=range_s[0])
    return np.array(stops, dtype=float), cfg, t_lo, t_hi, [0.1, 0.5, 0.9]


class TestStartDomainLengths:
    """``_start_domain``'s length and ``_thin``'s kept points against the
    bounds of ``_reference_domain``."""

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(_domain_cases())
    # Gaps shorter than top - lo and repeated stops between cut segments.
    @example(_domain_case([0, 2, 3, 3, 10, 11, 11, 20, 24, 30, 31], "first-stop", (4.0, 6.0),
                          -5.0, 40.0))
    # A slab that cuts windows at both ends.
    @example(_domain_case(np.arange(0.0, 30.0, 1.5), "multi-stop", (1.0, 4.0), 5.3, 20.7))
    # The stop 5 before ``first`` cuts the window (4, 6] of stop 7.
    @example(_domain_case([0, 5, 7, 12], "first-stop", (1.0, 3.0), 4.5, 20.0))
    # Negative range starts under both policies.
    @example(_domain_case(np.arange(0.0, 30.0, 1.5), "multi-stop", (-3.0, 2.0), 5.3, 20.7))
    @example(_domain_case(np.arange(0.0, 30.0, 1.5), "first-stop", (-3.0, 2.0), 5.3, 20.7))
    def test_matches_the_reference_bounds(self, case):
        stops, cfg, t_lo, t_hi, offsets = case
        seg_lo, seg_hi, first = _reference_domain(stops, cfg, t_lo, t_hi)
        domain = _start_domain(stops, cfg, t_lo, t_hi, _Recycler())
        assert (domain.first, domain.n, domain.t_lo, domain.t_hi) == (first, seg_lo.size,
                                                                       t_lo, t_hi)
        lengths = seg_hi - seg_lo
        # A length rounds a few times at the scale of the times it comes
        # from, and a sum once per term at the scale of the total.
        scale = max(abs(t_lo), abs(t_hi), *map(abs, cfg.range_s),
                    np.abs(stops).max(initial=0.0), lengths.sum())
        tol = 16 * np.finfo(float).eps * scale * (domain.n + 1)
        assert abs(domain.covered - lengths.sum()) <= tol
        if not domain.n:
            return
        # Points across every window, at its start and on its segment's
        # two edges.
        (lo, _), _ = _match_window(cfg)
        top, w = _windows(cfg)
        end = stops[first:first + domain.n] - top
        d = np.concatenate([np.outer(np.ones(domain.n), np.append(offsets, 0.0)) * w,
                            (end - seg_lo)[:, None], (end - seg_hi)[:, None]], axis=1)
        u = (d + (np.arange(domain.n) * w)[:, None])[(d >= 0.0) & (d < w)]
        u = u[u < domain.n * w]
        k = _window_of(u, cfg, domain)
        s, i, p, kept = _thin(u, stops, cfg, domain)
        got = np.isfinite(p)
        assert kept == got.sum()
        # A point is kept iff it lies in its window's segment, up to
        # rounding at the segment's edges.
        assert np.all(got[(s > seg_lo[k] + tol) & (s <= seg_hi[k] - tol)])
        assert not np.any(got[(s <= seg_lo[k] - tol) | (s > seg_hi[k] + tol)])
        # A kept start's first stop is its window's, p_k, except where
        # rounding put it past p_k - lo, and then it was searched.
        assert np.array_equal(i[got], np.searchsorted(stops, s[got] + lo, side="left"))
        assert np.array_equal(p[got], stops[i[got]])
        settled = got & (s + lo <= stops[first + k])
        assert np.all(i[settled] == first + k[settled])
        assert np.all(settled[got & (s <= seg_hi[k] - tol)])


def _segment_of(starts, seg_lo, seg_hi):
    """(index, inside) of the closed segment holding each start; a start on
    the edge two segments share is the earlier one's, as (lo, hi] holds it."""
    k = np.searchsorted(seg_hi, starts, side="left")
    inside = (k < seg_hi.size) & (starts >= seg_lo[np.minimum(k, seg_hi.size - 1)])
    return k, inside


def _bin_recording_searches(starts, stops, cfg, domain=None):
    """``_bin_starts``' counts and number binned, and the starts it
    searched."""
    searched = []
    first_stops = eventsim._first_stops

    def search(s, *args):
        searched.append(s.copy())
        return first_stops(s, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(eventsim, "_first_stops", search)
        binned = _bin_starts(starts, stops, cfg, domain)
    return binned, np.concatenate(searched) if searched else np.empty(0)


class TestBlockHistogram:
    """Drawn starts thinned to their windows' segments and walked from the
    windows' stops in ``_bin_starts`` give the delays, and the histogram,
    of ``_pair_delays`` over all stops."""

    @staticmethod
    def _check(u, stops, cfg, domain):
        """Window path against the search path for the offsets ``u`` along
        the windows of ``domain``; returns the kept starts and those that
        were searched instead of settled by their window's stop."""
        s, i, p, kept = _thin(u, stops, cfg, domain)
        inside = np.isfinite(p)
        starts = s[inside]
        (counts, n), searched = _bin_recording_searches(u, stops, cfg, domain)
        assert n == kept == starts.size
        assert np.array_equal(counts, _histogram(starts, stops, cfg))
        settled = ~np.isin(starts, searched)
        i0, i1 = _search_ranges(starts[settled], stops, *_match_window(cfg))
        # A settled start's matches begin at its window's stop.
        first = domain.first + _window_of(u, cfg, domain)[inside][settled]
        assert np.array_equal(i0, first)
        delays = _expand_stop_ranges(starts[settled], stops, first, i1, cfg.range_s)
        assert np.array_equal(np.sort(delays),
                              np.sort(_pair_delays(starts[settled], stops, cfg)))
        return starts, searched

    def _grid_case(self, stops, range_s, t_lo, t_hi, expect_segments):
        # Integer stops and quarter-step offsets put starts on window edges
        # and give delays of exactly lo and hi.
        stops = np.array(stops, dtype=float)
        cfg = TiaConfig(bin_width_s=0.25, range_s=range_s, policy="multi-stop",
                        stop_delay_s=max(range_s[0], 0.0))
        seg_lo, seg_hi = _thinned_on_grid(stops, cfg, t_lo, t_hi)
        assert list(zip(seg_lo, seg_hi)) == expect_segments
        domain = _start_domain(stops, cfg, t_lo, t_hi, _Recycler())
        u = np.arange(0.0, domain.n * _windows(cfg)[1], 0.25)
        starts, searched = self._check(u, stops, cfg, domain)
        assert searched.size == 0
        # The kept starts are the quarter steps in (seg_lo, seg_hi].
        grid = np.arange(t_lo, t_hi + 0.125, 0.25)
        k, inside = _segment_of(grid, seg_lo, seg_hi)
        inside &= grid > seg_lo[np.minimum(k, seg_lo.size - 1)]
        assert np.array_equal(np.sort(starts), grid[inside])
        assert _histogram(starts, stops, cfg).sum() > 0
        return domain.first

    def test_merged_windows(self):
        # Windows (2, 4] and (3, 5] overlap: the segment of 6 begins where 5
        # stops matching.
        first = self._grid_case([0.0, 5.0, 6.0, 10.0, 30.0], (1.0, 3.0), 1.0, 25.0,
                                [(2.0, 4.0), (4.0, 5.0), (7.0, 9.0)])
        assert first == 1

    def test_segment_clipped_at_slab_edge(self):
        first = self._grid_case([0.0, 5.0, 6.0, 10.0, 30.0], (1.0, 3.0), 3.0, 8.0,
                                [(3.0, 4.0), (4.0, 5.0), (7.0, 8.0)])
        assert first == 1

    def test_empty_segments(self):
        # The windows of 4 and 20 are cut away to (3, 3] and (17, 17]: no
        # start of theirs is kept.
        first = self._grid_case([1.0, 4.0, 10.0, 20.0, 40.0], (1.0, 3.0), 3.0, 17.0,
                                [(3.0, 3.0), (7.0, 9.0), (17.0, 17.0)])
        assert first == 1

    def test_negative_range_start(self):
        # Windows (p - 3, p + 2]: those of 0, 5 and 6 touch or overlap.
        first = self._grid_case([-10.0, 0.0, 5.0, 6.0, 12.0, 30.0], (-2.0, 3.0), 1.0, 25.0,
                                [(1.0, 2.0), (2.0, 7.0), (7.0, 8.0), (9.0, 14.0)])
        assert first == 1

    def test_start_in_a_wrong_block_is_searched(self, monkeypatch):
        # A start that rounding put past its window's stop minus lo matches
        # from a later stop, and is searched instead of losing its stops.
        # Windows that end half a unit late, (p - 2.5, p - 0.5] for the (1,
        # 3) window, put every start within 0.5 of a window's end there.
        stops = np.array([0.0, 5.0, 6.0, 10.0, 30.0])
        cfg = TiaConfig(bin_width_s=0.25, range_s=(1.0, 3.0), policy="multi-stop",
                        stop_delay_s=2.0)
        domain = _start_domain(stops, cfg, 1.0, 25.0, _Recycler())
        assert (domain.first, domain.n) == (1, 3)
        monkeypatch.setattr(eventsim, "_windows", lambda cfg: (0.5, 2.0))
        starts, searched = self._check(np.array([0.25, 1.0, 2.25, 4.0]), stops, cfg, domain)
        assert np.array_equal(starts, [4.25, 3.5, 5.25, 9.5])
        assert np.array_equal(searched, [4.25, 5.25, 9.5])

    @pytest.mark.parametrize("range_s", [(10e-9, 330e-9), (-50e-9, 120e-9)])
    def test_restricted_poisson_starts(self, range_s):
        # Continuous times half a second into a run, so that sums round.
        gen = np.random.default_rng(31)
        stops = 0.5 + np.sort(gen.random(4000)) * 2e-3
        cfg = TiaConfig(bin_width_s=1e-9, range_s=range_s, policy="multi-stop",
                        stop_delay_s=max(range_s[0], 0.0))
        u, domain, starts, i = _domain_starts(2e7, stops, cfg, 0.5002, 0.5018,
                                              np.random.default_rng(32))
        assert starts.size > 5000
        kept, searched = self._check(u, stops, cfg, domain)
        assert np.array_equal(kept, starts) and searched.size == 0
        # Each batch thins its own offsets.
        assert np.array_equal(_bin_starts(u, stops, cfg, domain)[0],
                              _histogram(starts, stops, cfg))


def _brute_force_delays(starts, stops, cfg):
    """O(n m) reference: every (start, stop) pair checked."""
    lo, hi = cfg.range_s
    d = stops[None, :] - starts[:, None]
    if cfg.policy == "multi-stop":
        return np.sort(d[(d >= lo) & (d < hi)])
    out = []
    for row in d:
        after = row[row >= 0.0]
        if after.size and after.min() < hi:
            out.append(after.min())
    return np.sort(np.array(out))


class TestPairDelays:
    @pytest.mark.parametrize("policy", ["first-stop", "multi-stop"])
    @pytest.mark.parametrize("rng", [(10.0, 40.0), (0.0, 25.0), (-8.0, 30.0)])
    def test_matches_brute_force(self, policy, rng):
        # Integer times give ties at every boundary: equal start and stop,
        # delays of exactly lo and hi.
        gen = np.random.default_rng(11)
        cfg = TiaConfig(bin_width_s=1.0, range_s=rng, policy=policy,
                        stop_delay_s=max(rng[0], 0.0))
        for _ in range(20):
            starts = np.sort(gen.integers(0, 500, gen.integers(0, 80))).astype(float)
            stops = np.sort(gen.integers(0, 500, gen.integers(0, 80))).astype(float)
            expected = _brute_force_delays(starts, stops, cfg)
            got = np.sort(_pair_delays(starts, stops, cfg))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("policy", ["first-stop", "multi-stop"])
    @pytest.mark.parametrize("rng", [(10.0, 40.0), (0.0, 25.0), (-8.0, 30.0)])
    def test_walk_matches_brute_force(self, monkeypatch, batch, policy, rng):
        # The ties above through ``_bin_starts``, whose walks run on in
        # batches of one or seven starts.
        monkeypatch.setattr(eventsim, "_BLOCK_BATCH", batch)
        gen = np.random.default_rng(11)
        cfg = TiaConfig(bin_width_s=1.0, range_s=rng, policy=policy,
                        stop_delay_s=max(rng[0], 0.0))
        for _ in range(20):
            starts = np.sort(gen.integers(0, 500, gen.integers(0, 80))).astype(float)
            stops = np.sort(gen.integers(0, 500, gen.integers(0, 80))).astype(float)
            expected = np.histogram(_brute_force_delays(starts, stops, cfg),
                                    bins=cfg.bin_edges)[0]
            counts, n = _bin_starts(starts, stops, cfg)
            assert np.array_equal(counts, expected) and n == starts.size

    @pytest.mark.parametrize("policy", ["first-stop", "multi-stop"])
    def test_matches_brute_force_on_continuous_times(self, policy):
        gen = np.random.default_rng(12)
        cfg = TiaConfig(bin_width_s=1e-9, range_s=(2e-9, 50e-9), policy=policy,
                        stop_delay_s=10e-9)
        starts = np.sort(gen.random(400)) * 1e-6
        stops = np.sort(gen.random(300)) * 1e-6
        assert np.array_equal(np.sort(_pair_delays(starts, stops, cfg)),
                              _brute_force_delays(starts, stops, cfg))


@st.composite
def _binning_cases(draw, bins=st.integers(1, 300)):
    """A TiaConfig plus values on, next to, between and outside its edges."""
    width = draw(st.sampled_from([1.0, 0.1, 16e-12, 1e-9, 3.3e-12]))
    lo = draw(st.integers(-200, 200)) * width * draw(st.sampled_from([1.0, 0.37, 1.013]))
    n = draw(bins)
    hi = lo + (n - draw(st.sampled_from([0.0, 0.5, 0.999]))) * width
    while (hi - lo) / width > MAX_TIA_BINS:
        hi = np.nextafter(hi, -np.inf)
    # Multi-stop, which takes ranges below 0; the edges do not depend on the policy.
    tia = TiaConfig(bin_width_s=width, range_s=(lo, hi), policy="multi-stop",
                    stop_delay_s=lo)
    edges = tia.bin_edges
    picks = st.lists(st.integers(0, edges.size - 1), max_size=40)
    on = edges[draw(picks)]
    inside = edges[0] + (edges[-1] - edges[0]) * np.array(
        draw(st.lists(st.floats(0.0, 1.0), max_size=40)))
    span = edges[-1] - edges[0]
    outside = np.array(draw(st.lists(st.floats(0.0, 3.0), max_size=10)))
    values = np.concatenate([
        on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf), inside,
        edges[0] - span * outside, edges[-1] + span * outside,
        [edges[0], edges[-1], np.nextafter(edges[-1], np.inf)],
    ])
    return tia, np.array(draw(st.permutations(values)))


def _bins(tia):
    """``_bin_counts``' bin arguments of a TiaConfig."""
    return tia.range_s[0], tia.bin_width_s, tia.n_bins


class TestBinCounts:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_binning_cases())
    def test_matches_np_histogram(self, case):
        tia, values = case
        expected = np.histogram(values, bins=tia.bin_edges)[0]
        bins = _bin_counts(values, *_bins(tia))
        assert bins.dtype == np.intp
        assert np.array_equal(np.bincount(bins, minlength=tia.n_bins), expected)

    def test_empty(self):
        tia = TiaConfig(bin_width_s=1.0, range_s=(0.0, 5.0))
        assert _bin_counts(np.empty(0), *_bins(tia)).size == 0

    @pytest.mark.parametrize("policy", ["first-stop", "multi-stop"])
    def test_delay_rounded_below_the_range_is_dropped(self, policy):
        # A stop at fl(s + lo) is a match of start s, yet fl(p - s) falls
        # below lo for most s in [0, 0.5).  Without the range mask of
        # ``_bin_counts`` such a delay would take bin index -1: the last bin.
        tia = TiaConfig(bin_width_s=1e-9, range_s=(10e-9, 330e-9), policy=policy,
                        stop_delay_s=10e-9)
        lo = tia.range_s[0]
        starts = np.sort(_generator(5).random(2000)) * 0.5
        stops = starts + lo
        below = stops - starts < lo
        assert 1000 < np.count_nonzero(below) < starts.size
        j = int(np.argmax(below))
        counts, n = _bin_starts(starts[j:j + 1], stops[j:j + 1], tia)
        assert n == 1 and not counts.any()
        # The same delays, every one of them from the reference search.
        delays = _pair_delays(starts, stops, tia)
        assert np.count_nonzero(delays < lo) == np.count_nonzero(below)
        counts, n = _bin_starts(starts, stops, tia)
        assert n == starts.size
        assert np.array_equal(counts, np.histogram(delays, bins=tia.bin_edges)[0])
        assert counts.sum() == np.count_nonzero(delays >= lo)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_binning_cases(bins=st.integers(1, 300) | st.just(MAX_TIA_BINS)))
    def test_computed_edges_are_the_config_edges(self, case):
        # ``_bin_counts`` compares against edges it computes one at a time;
        # each must be the config's edge bit for bit, whatever the sign of
        # lo, the width's binary expansion or the number of bins.
        tia, _ = case
        lo, width, n = _bins(tia)
        edges = tia.bin_edges
        k = np.arange(n + 1, dtype=np.intp)
        computed = _bin_edge(k, lo, width, out=np.empty(n + 1))
        assert np.array_equal(computed.view(np.uint64), edges.view(np.uint64))
        assert np.array_equal(edges.view(np.uint64),
                              (lo + np.arange(n + 1) * width).view(np.uint64))
        for j in (0, 1, n // 2, n - 1, n):
            edge = np.float64(_bin_edge(j, lo, width))
            assert edge.view(np.uint64) == edges[j].view(np.uint64)


class TestRunTiaStatistics:
    """Restricted-domain CW runs against the analytic model, over many
    epoch edges (40 epochs of 1/16 s per run) and fixed seeds."""

    SEEDS = (1, 2, 3, 4, 5, 6)
    DURATION = 2.5
    BIN = 16e-12
    RANGE = (10e-9, 12.208e-9)
    DELAY = 11.1e-9

    def _runs(self, setup, policy):
        tia = TiaConfig(bin_width_s=self.BIN, range_s=self.RANGE, policy=policy,
                        stop_delay_s=self.DELAY)
        setup = with_analysis(setup, tia=tia)
        return [run_tia(setup, self.DURATION, seed) for seed in self.SEEDS]

    def _check(self, setup, policy, monkeypatch):
        monkeypatch.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**17)
        assert _epoch_length(setup, component_rates(setup)) == (self.DURATION / 40, 0)
        obs = setup.predict()
        runs = self._runs(setup, policy)
        t_total = self.DURATION * len(runs)
        for run in runs:
            for n, rate in ((run.n_starts, obs.singles0), (run.n_stops, obs.singles1)):
                expected = rate * self.DURATION
                assert abs(n - expected) < 4 * math.sqrt(expected)
        n0 = sum(r.n_starts for r in runs)
        n1 = sum(r.n_stops for r in runs)
        counts = sum(r.histogram.counts for r in runs)
        hist = HistogramResult(bin_edges=runs[0].histogram.bin_edges, counts=counts,
                               acquisition_time=t_total)
        analysis = analyze_histogram(hist, peak_window_s=800e-12)

        lo, hi = hist.bin_edges[:-1], hist.bin_edges[1:]
        r1 = n1 / t_total
        if policy == "first-stop":
            # Coates, J. Phys. E 1, 878 (1968): a start's first stop lands in
            # [a, b) with probability exp(-r1 a) - exp(-r1 b).
            floor = n0 * (np.exp(-r1 * lo) - np.exp(-r1 * hi))
            survival = math.exp(-r1 * self.DELAY)
        else:
            floor = n0 * r1 * (hi - lo)
            survival = 1.0
        off = np.abs(hist.bin_centers - self.DELAY) > 400e-12
        observed, expected = counts[off].sum(), floor[off].sum()
        assert abs(observed - expected) < 4 * math.sqrt(expected)
        if policy == "first-stop":
            # The depletion is resolved: a flat floor is rejected.
            flat = (n0 * r1 * (hi - lo))[off].sum()
            assert abs(observed - flat) > 2 * math.sqrt(flat)
        else:
            # Flat: no trend across the off-peak bins.
            x = hist.bin_centers[off]
            slope = np.polyfit(x - x.mean(), counts[off], 1)[0]
            sigma_slope = math.sqrt(floor[off].mean() / np.sum((x - x.mean()) ** 2))
            assert abs(slope) < 4 * sigma_slope

        dc = analysis.coincidence_rate - obs.coincidences * survival
        assert abs(dc) < 4 * analysis.uncertainties["coincidence_rate"]

    def test_first_stop(self, paper_cfg, monkeypatch):
        self._check(paper_cfg.setup, "first-stop", monkeypatch)

    def test_multi_stop(self, paper_cfg, monkeypatch):
        self._check(paper_cfg.setup, "multi-stop", monkeypatch)


class TestPulsedRunAgainstPulseResolvedModel:
    """Pulsed runs at 0.01 pairs per pulse against pulse-resolved
    accidentals, built here from the model's rates: ``predict_observables``
    counts them as binned or gated instead.

    A multi-stop histogram of a pulsed run has a peak in every pulse slot.
    In a window of width t, a side slot holds f*N0p*N1p/B + (D0*N1p + N0p*D1
    + D0*D1)*t accidentals per second, and the central slot C*f more: Np is
    an arm's singles rate less its darks D, B the repetition rate and f the
    share of the Gaussian peak of the two detectors' jitters inside the
    window.  The expected counts are pinned to a tenth of a count.
    """

    DURATION = 600.0
    HALF_WINDOW = 200e-12
    DELAY = 11.1e-9

    @pytest.mark.parametrize("config, side_counts, net_counts", [
        ("paper_pulsed_cfg", 555.2, 1087.6), ("engineered_cfg", 58.1, 1087.6)])
    def test_side_peaks_and_net_coincidences(self, request, config, side_counts, net_counts):
        setup = request.getfixturevalue(config).setup
        setup = set_path(setup, "pump.power_w", power_for_pairs_per_pulse(setup, 0.01))
        tia = TiaConfig(bin_width_s=16e-12, range_s=(0.0, 25e-9), policy="multi-stop",
                        stop_delay_s=self.DELAY)
        setup = with_analysis(setup, tia=tia)
        hist = run_tia(setup, self.DURATION, 3).histogram

        def window(center):
            inside = np.abs(hist.bin_centers - center) <= self.HALF_WINDOW
            return int(hist.counts[inside].sum()), np.count_nonzero(inside) * tia.bin_width_s

        central, t = window(self.DELAY)
        period = 1.0 / setup.pump.rep_rate_hz
        side = (window(self.DELAY - period)[0] + window(self.DELAY + period)[0]) / 2

        obs = setup.predict()
        d0, d1 = setup.idler.dark_rate_hz, setup.signal.dark_rate_hz
        n0p, n1p = obs.singles0 - d0, obs.singles1 - d1
        sigma = math.hypot(setup.idler.jitter_fwhm_s, setup.signal.jitter_fwhm_s) * FWHM_TO_SIGMA
        f = math.erf(self.HALF_WINDOW / (math.sqrt(2.0) * sigma))
        expected_side = (f * n0p * n1p * period + (d0 * n1p + n0p * d1 + d0 * d1) * t) \
            * self.DURATION
        expected_net = obs.coincidences * f * self.DURATION
        assert expected_side == pytest.approx(side_counts, abs=0.05)
        assert expected_net == pytest.approx(net_counts, abs=0.05)
        # Poisson counts: the side estimate is the mean of two slots, and the
        # net count is the central slot less that mean.
        assert abs(side - expected_side) <= 3 * math.sqrt(expected_side / 2)
        assert abs(central - side - expected_net) <= 3 * math.sqrt(expected_net
                                                                   + 1.5 * expected_side)


# Pool sizes the runs below are repeated with.
WORKER_COUNTS = (1, 2, 3)


class TestRunTiaPool:
    """``_bin_starts`` batches, each placing its drawn starts, run on a
    thread pool of ``_WORKERS`` threads; integer counts add in any order
    and every epoch's streams are keyed on (seed, epoch), so runs are
    bit-identical for every pool size."""

    @pytest.fixture(autouse=True)
    def _fast_thread_switching(self):
        # Switch threads often, so that a lost update between workers shows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _runs(setup, duration_s, monkeypatch):
        results = []
        for workers in WORKER_COUNTS:
            with monkeypatch.context() as m:
                m.setattr(eventsim, "_WORKERS", workers)
                # Many batches per worker, and several epochs.
                m.setattr(eventsim, "_BLOCK_BATCH", 1000)
                m.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**16)
                results.append(run_tia(setup, duration_s, 5))
        return results

    @pytest.mark.parametrize("case", ["first-stop", "multi-stop", "pulsed"])
    def test_output_does_not_depend_on_worker_count(self, paper_cfg, engineered_cfg,
                                                    monkeypatch, case):
        if case == "pulsed":
            # Epochs of 2^31 periods, 21.5 s.
            setup, duration_s = engineered_cfg.setup, 300.0
        else:
            # Epochs of 1/32 s.
            tia = TiaConfig(bin_width_s=1e-9, range_s=(10e-9, 330e-9), policy=case,
                            stop_delay_s=11.1e-9)
            setup, duration_s = with_analysis(paper_cfg.setup, tia=tia), 0.05
        calls = []
        on_pool = eventsim._on_pool

        def counted(task, n):
            calls.append(n)
            return on_pool(task, n)

        monkeypatch.setattr(eventsim, "_on_pool", counted)
        reference, *others = self._runs(setup, duration_s, monkeypatch)
        assert reference.histogram.total_counts > 0
        # Some call had more batches than the largest pool has workers.
        assert max(calls) > 1000 * max(WORKER_COUNTS)
        for result in others:
            assert np.array_equal(result.histogram.counts, reference.histogram.counts)
            assert (result.n_starts, result.n_stops) == (reference.n_starts,
                                                          reference.n_stops)
            assert result.histogram.metadata == reference.histogram.metadata

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        threads = []

        def broken(*args):
            threads.append(threading.current_thread())
            raise RuntimeError("binning failed")

        monkeypatch.setattr(eventsim, "_bin_counts", broken)
        monkeypatch.setattr(eventsim, "_WORKERS", 2)
        monkeypatch.setattr(eventsim, "_BLOCK_BATCH", 100)
        starts = np.arange(1000.0)
        cfg = TiaConfig(bin_width_s=0.1, range_s=(0.0, 1.0), stop_delay_s=0.5)
        with pytest.raises(RuntimeError, match="binning failed"):
            _bin_starts(starts, starts + 0.5, cfg)
        assert threads and threading.main_thread() not in threads


class TestRunTiaBlockPath:
    """Runs of both policies through ``_bin_starts``: drawn bulk starts are
    settled by their window's stop, explicit starts are searched, and so
    are bulk starts drawn over the slab of a dense multi-stop range."""

    # (policy, range maximum, duration): epochs of 2^-9 s at 330 ns, of
    # 2^-10 s at 810 ns, whose windows overlap (r1 w = 1.08) and whose bulk
    # is drawn over the slab.
    CASES = (("first-stop", 330e-9, 0.005), ("multi-stop", 330e-9, 0.005),
             ("multi-stop", 810e-9, 0.0015))

    @staticmethod
    def _setup(setup, policy, range_hi=330e-9):
        tia = TiaConfig(bin_width_s=1e-9, range_s=(10e-9, range_hi), policy=policy,
                        stop_delay_s=11.1e-9)
        return with_analysis(setup, tia=tia)

    @classmethod
    def _run(cls, setup, policy, monkeypatch, seed=8, range_hi=330e-9, duration_s=0.005):
        monkeypatch.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**13)
        return run_tia(cls._setup(setup, policy, range_hi), duration_s, seed)

    @pytest.mark.parametrize("batch", [1, 7, 10**9])
    def test_histogram_does_not_depend_on_batch_size(self, paper_cfg, monkeypatch, batch):
        monkeypatch.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**13)
        for policy, range_hi, duration_s in self.CASES:
            setup = self._setup(paper_cfg.setup, policy, range_hi)
            rates = component_rates(setup)
            n_epochs = math.ceil(duration_s / _epoch_length(setup, rates)[0])
            assert n_epochs > 1
            calls = []

            def counted(starts, stops, cfg, domain=None):
                binned, searched = _bin_recording_searches(starts, stops, cfg, domain)
                calls.append((starts.size, domain is not None, searched.size))
                return binned

            with monkeypatch.context() as m:
                m.setattr(eventsim, "_bin_starts", counted)
                reference = self._run(paper_cfg.setup, policy, m, 8, range_hi, duration_s)
                assert reference.histogram.total_counts > 1000
                m.setattr(eventsim, "_BLOCK_BATCH", batch)
                results = []
                for workers in WORKER_COUNTS:
                    m.setattr(eventsim, "_WORKERS", workers)
                    results.append(self._run(paper_cfg.setup, policy, m, 8, range_hi,
                                             duration_s))
            for result in results:
                assert np.array_equal(result.histogram.counts, reference.histogram.counts)
                assert (result.n_starts, result.n_stops) == (reference.n_starts,
                                                              reference.n_stops)
            # One call for the explicit starts and one for the bulk per epoch.
            per_run = 2 * n_epochs
            assert len(calls) == per_run * (1 + len(WORKER_COUNTS))
            assert all(calls[i:i + per_run] == calls[:per_run]
                       for i in range(per_run, len(calls), per_run))
            explicit, bulk = calls[0:per_run:2], calls[1:per_run:2]
            # Every explicit start is searched.
            assert not any(thinned for _, thinned, _ in explicit)
            assert all(n == searched for n, _, searched in explicit)
            n_starts, n_thinned, n_searched = np.sum(bulk, axis=0)
            assert n_starts > 5000
            if _tiles(rates, setup.analysis.tia):
                # The windows settle nearly every bulk start.
                assert n_thinned == n_epochs
                assert n_searched < 0.01 * n_starts
            else:
                assert n_thinned == 0 and n_searched == n_starts

    def test_matches_searching_every_start(self, paper_cfg, monkeypatch):
        # The reference bins ``_pair_delays`` of all of an epoch's starts at once.
        def search_all(starts, stops, cfg, domain=None):
            if domain is not None:
                s, _, p, _ = _thin(starts, stops, cfg, domain)
                starts = s[np.isfinite(p)]
            return (np.histogram(_pair_delays(starts, stops, cfg), bins=cfg.bin_edges)[0],
                    starts.size)

        for policy, range_hi, duration_s in self.CASES:
            for seed in (8, 9):
                binned = self._run(paper_cfg.setup, policy, monkeypatch, seed, range_hi,
                                   duration_s)
                with monkeypatch.context() as m:
                    m.setattr(eventsim, "_bin_starts", search_all)
                    searched = self._run(paper_cfg.setup, policy, m, seed, range_hi,
                                         duration_s)
                assert binned.histogram.total_counts > 1000
                assert np.array_equal(binned.histogram.counts, searched.histogram.counts)
                assert binned.n_starts == searched.n_starts


class TestDenseMultiStop:
    """Multi-stop ranges holding many stops per start (r1 Δt of 5 and 11)."""

    @staticmethod
    def _setup(setup, span_s):
        tia = TiaConfig(bin_width_s=1e-9, range_s=(10e-9, 10e-9 + span_s),
                        policy="multi-stop", stop_delay_s=11.1e-9)
        return with_analysis(setup, tia=tia)

    def test_binning_takes_at_most_a_batch_of_delays(self, paper_cfg, monkeypatch):
        # About 5.4 stops per start at 4 µs, so a batch's expanded delays
        # would be several batches long; the walk bins at most one batch's
        # worth at a time, each delay once.
        setup = self._setup(paper_cfg.setup, 4e-6)
        bin_counts = eventsim._bin_counts
        sizes = []

        def recorded(values, *bins):
            sizes.append(values.size)
            return bin_counts(values, *bins)

        monkeypatch.setattr(eventsim, "_bin_counts", recorded)
        result = run_tia(setup, 0.02, 4)
        assert sum(sizes) == result.histogram.total_counts > 300000
        assert max(sizes) <= eventsim._BLOCK_BATCH

    def test_flat_floor_at_eight_microseconds(self, paper_cfg):
        # The tolerance of ``TestRunTiaStatistics``.
        setup = self._setup(paper_cfg.setup, 8e-6)
        duration = 0.05
        result = run_tia(setup, duration, 1)
        hist = result.histogram
        lo, hi = hist.bin_edges[:-1], hist.bin_edges[1:]
        floor = result.n_starts * (result.n_stops / duration) * (hi - lo)
        off = np.abs(hist.bin_centers - 11.1e-9) > 400e-12
        observed, expected = hist.counts[off].sum(), floor[off].sum()
        assert expected > 1e6
        assert abs(observed - expected) < 4 * math.sqrt(expected)


class TestBulkDraw:
    """The CW bulk is drawn on the windows of ``_start_domain`` while they
    overlap less than they tile (r1 w <= 1), and over the slab otherwise,
    so the draw holds at most about 1.6 times the starts in the domain; it
    is drawn in one piece per epoch, whose expected size the epoch counts
    among its generated events."""

    @staticmethod
    def _epochs(setup, duration_s, monkeypatch):
        """Each epoch's slab, domain (or None) and bulk draws, each draw as
        (span, start, size)."""
        epochs = []
        tia_epoch, epoch_arms = eventsim._tia_epoch, eventsim._epoch_arms
        start_domain, poisson_times = eventsim._start_domain, eventsim._poisson_times

        def epoch(*args):
            epochs.append({"slab": args[7], "domain": None, "draws": None})
            return tia_epoch(*args)

        def arms(*args):
            result = epoch_arms(*args)
            epochs[-1]["draws"] = []  # the draws after the arms' are the bulk's
            return result

        def domain(*args):
            epochs[-1]["domain"] = start_domain(*args)
            return epochs[-1]["domain"]

        def draw(rate_hz, span_s, rng, arrays=None, start_s=0.0):
            times = poisson_times(rate_hz, span_s, rng, arrays, start_s)
            if epochs and epochs[-1]["draws"] is not None:
                epochs[-1]["draws"].append((span_s, start_s, times.size))
            return times

        monkeypatch.setattr(eventsim, "_tia_epoch", epoch)
        monkeypatch.setattr(eventsim, "_epoch_arms", arms)
        monkeypatch.setattr(eventsim, "_start_domain", domain)
        monkeypatch.setattr(eventsim, "_poisson_times", draw)
        run_tia(setup, duration_s, 3)
        return epochs

    # r1 = 1.34e6 /s at paper-defaults: windows tile up to w = 746 ns.
    @pytest.mark.parametrize("policy, range_s, duration_s, thinned", [
        ("first-stop", (10e-9, 12.208e-9), 0.6, True),
        ("multi-stop", (10e-9, 330e-9), 0.6, True),
        ("multi-stop", (10e-9, 710e-9), 0.6, True),
        ("multi-stop", (10e-9, 810e-9), 0.1, False),
        ("multi-stop", (10e-9, 8010e-9), 0.02, False),
    ])
    def test_bulk_draw_is_bounded(self, paper_cfg, monkeypatch, policy, range_s, duration_s,
                                  thinned):
        tia = TiaConfig(bin_width_s=1e-9, range_s=range_s, policy=policy,
                        stop_delay_s=11.1e-9)
        setup = with_analysis(paper_cfg.setup, tia=tia)
        rates = component_rates(setup)
        assert _tiles(rates, tia) is thinned
        r0 = _cw_bulk_rate(rates, 0)
        epoch_s = _epoch_length(setup, rates)[0]
        epochs = self._epochs(setup, duration_s, monkeypatch)
        assert len(epochs) == math.ceil(duration_s / epoch_s)
        for epoch in epochs:
            # One draw per epoch, expected to fit the epoch's event budget.
            [(span, start, size)] = epoch["draws"]
            assert r0 * span <= eventsim._EVENTS_PER_EPOCH
            s_lo, s_hi = epoch["slab"]
            domain = epoch["domain"]
            if thinned:
                # Offsets along the windows, which hold at most 1.6 times
                # the domain.
                assert start == 0.0
                assert span == pytest.approx(domain.n * _windows(tia)[1], rel=1e-12)
                assert domain.covered <= span <= 1.6 * domain.covered
            else:
                # Times over the slab.
                assert domain is None
                assert start == s_lo
                assert span == pytest.approx(s_hi - s_lo, rel=1e-12)
                expected = r0 * (s_hi - s_lo)
                assert abs(size - expected) < 5 * math.sqrt(expected)

    def test_dense_start_arm_is_drawn_within_the_epoch(self, paper_cfg, monkeypatch):
        # An idler dark rate of 1e10 /s, about 7500 times the stop rate:
        # the bulk draw, 3e7 starts/s on first-stop windows 2.2 ns long,
        # sets epochs of 2^-5 s.  Drawing all 5e8 starts of the run would
        # take 4 GB.
        setup = set_path(paper_cfg.setup, "idler.dark_rate_hz", 1e10)
        # Each worker holds one batch's temporaries.
        monkeypatch.setattr(eventsim, "_WORKERS", 2)
        tracemalloc.start()
        try:
            epochs = self._epochs(setup, 0.05, monkeypatch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = eventsim._EVENTS_PER_EPOCH
        sizes = [size for epoch in epochs for _, _, size in epoch["draws"]]
        assert len(epochs) == len(sizes) == 2
        assert budget / 2 < sizes[0]
        assert max(sizes) <= budget + 5 * math.sqrt(budget)
        # A few epoch-sized float64 arrays.
        assert peak < 4 * 8 * budget


class TestRunTiaChunking:
    """Epoch-by-epoch, restricted-domain runs against one pass over the same
    events.

    ``_epoch_arms``, the bulk draw (``_poisson_times``) and ``_thin`` are
    replaced by views of fixed event sets, shifted into each epoch's time:
    pair photons and stop-arm noise selected by emission time, and a
    start-arm bulk selected by the bounds (``_reference_domain``) of the
    requested domain or, where the bulk is drawn over the slab (the 0.5 ms
    ranges), by the slab.  The histogram must then equal one pass over all
    events exactly: no start is lost or counted twice at an epoch edge, and
    every start outside the domain is one that cannot reach the histogram.
    Shifting by a whole epoch is exact, so the delays are those of the
    single pass.
    """

    # 52 epochs of 2^-10 s; 26 of 2^-9 s at the 0.5 ms ranges, whose reach
    # (``_epoch_length``) is longer than half of 2^-10 s.
    DURATION = 0.05

    @pytest.fixture()
    def events(self, monkeypatch):
        gen = np.random.default_rng(21)
        n = self.DURATION
        emit = np.sort(gen.random(2000)) * n
        start_jitter = gen.normal(0.0, 30e-12, emit.size)
        bulk0 = np.sort(gen.random(20000)) * n
        stop_emit = np.concatenate([emit, np.sort(gen.random(5000)) * n])
        stop_jitter = np.concatenate([gen.normal(0.0, 30e-12, emit.size),
                                      np.zeros(stop_emit.size - emit.size)])
        epoch_starts = []
        domains = []
        placed = []
        start_domain = eventsim._start_domain

        def clip(t):
            t = np.sort(t)
            return t[(t >= 0.0) & (t < n)]

        def epoch_arms(setup, rates, children, e, epoch, duration_s, stop_delay_s, arrays):
            epoch_s = epoch[0]
            t0 = e * epoch_s
            epoch_starts.append(t0)
            pairs = (emit >= t0) & (emit < t0 + epoch_s)
            noise = (stop_emit >= t0) & (stop_emit < t0 + epoch_s)
            return (clip(emit[pairs] + start_jitter[pairs]) - t0,
                    clip(stop_emit[noise] + stop_jitter[noise] + stop_delay_s) - t0)

        def domain(stops, cfg, t_lo, t_hi, arrays):
            # Built after the epoch's arms.
            t0 = epoch_starts[-1]
            domains.append((t_lo, t_hi))
            seg_lo, seg_hi, first = _reference_domain(stops, cfg, t_lo, t_hi)
            starts = bulk0 - t0
            k = np.searchsorted(seg_lo, starts, side="right") - 1
            inside = k >= 0
            inside[inside] = starts[inside] <= seg_hi[k[inside]]
            placed[:] = [starts[inside], first + k[inside]]
            return start_domain(stops, cfg, t_lo, t_hi, arrays)

        def bulk(rate_hz, span_s, rng, arrays=None, start_s=0.0):
            if len(domains) == len(epoch_starts):
                # The offsets index the epoch's bulk starts in the domain.
                return np.arange(float(placed[0].size))
            # Drawn over the slab [start_s, start_s + span_s).
            starts = bulk0 - epoch_starts[-1]
            return starts[(starts >= start_s) & (starts < start_s + span_s)]

        def thin(u, stops, cfg, domain):
            j = u.astype(np.intp)
            i = placed[1][j]
            return placed[0][j], i, stops[i], j.size

        monkeypatch.setattr(eventsim, "_epoch_arms", epoch_arms)
        monkeypatch.setattr(eventsim, "_start_domain", domain)
        monkeypatch.setattr(eventsim, "_poisson_times", bulk)
        monkeypatch.setattr(eventsim, "_thin", thin)
        # 1.34e6 generated events/s: epochs of 2^-10 s, or longer for a long reach.
        monkeypatch.setattr(eventsim, "_EVENTS_PER_EPOCH", 2**11)
        starts = clip(np.concatenate([emit + start_jitter, bulk0]))
        return starts, lambda delay: clip(stop_emit + stop_jitter + delay)

    @pytest.mark.parametrize("policy, range_s, delay, width", [
        ("first-stop", (10e-9, 12.208e-9), 11.1e-9, 16e-12),
        ("multi-stop", (10e-9, 12.208e-9), 11.1e-9, 16e-12),
        ("first-stop", (0.0, 5e-4), 1e-4, 1e-6),
        ("multi-stop", (-2e-4, 5e-4), 1e-4, 1e-6),
    ])
    def test_matches_single_pass(self, paper_cfg, events, policy, range_s, delay, width):
        starts, stops_for = events
        stops = stops_for(delay)
        tia = TiaConfig(bin_width_s=width, range_s=range_s, policy=policy,
                        stop_delay_s=delay)
        result = run_tia(with_analysis(paper_cfg.setup, tia=tia), self.DURATION, 1)
        expected = _histogram(starts, stops, tia)
        assert expected.sum() > 1000
        assert result.n_stops == stops.size
        assert np.array_equal(result.histogram.counts, expected)


class TestHistogramCsv:
    def test_golden_format(self, tmp_path):
        edges = np.array([0.0, 1e-9, 2e-9])
        counts = np.array([3, 5], dtype=np.int64)
        hist = HistogramResult(bin_edges=edges, counts=counts, acquisition_time=2.0,
                               metadata={"seed": 7, "policy": "first-stop"})
        path = tmp_path / "h.csv"
        hist.write_csv(path)
        expected = (
            "# policy=first-stop\n"
            "# seed=7\n"
            "# acquisition_time_s=2.0\n"
            "delay_s,counts\n"
            "5e-10,3\n"
            "1.5000000000000002e-09,5\n"
        )
        assert path.read_text() == expected

    def test_blocks_write_the_one_shot_bytes(self, tmp_path):
        # Two full blocks and part of a third, against every line formatted
        # at once.
        n = 2 * eventsim._CSV_BLOCK + 3
        edges = -5e-9 + np.arange(n + 1) * 16e-12
        counts = np.random.default_rng(8).poisson(2.0, n)
        hist = HistogramResult(bin_edges=edges, counts=counts, acquisition_time=9.0,
                               metadata={"seed": 7})
        lines = ["# seed=7", "# acquisition_time_s=9.0", "delay_s,counts"]
        lines += [f"{float(c)!r},{int(k)}" for c, k in zip(hist.bin_centers, counts)]
        path = tmp_path / "h.csv"
        hist.write_csv(path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_csv_is_byte_stable(self, tmp_path, paper_cfg):
        paths = []
        for name in ("a.csv", "b.csv"):
            result = run_tia(paper_cfg.setup, 0.05, 4)
            p = tmp_path / name
            result.histogram.write_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()
