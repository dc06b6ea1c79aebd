"""Monte Carlo photon-counting simulator and start-stop delay histograms.

``run_tia`` synthesizes detection timestamps from the analytic rate model
(collection losses split each pair emission into two-arm and one-arm
events; timing jitter, noise and dark counts are added per arm) and
histograms them start-against-stop the way a time interval analyzer does.
The result is an independent statistical check of the analytic
predictions.  Detector dead time is not modelled: measured singles rates
are taken as detected rates.

Planning: ``plan_run`` decides a run before its first draw, from the
configuration and the duration alone, and is the one place where those
decisions and the refusals made then live: the component rates, each
arm's non-pair rates split into gated and homogeneous parts, whether the
start arm's bulk is thinned on the stops' windows, the jitter pad, the
epoch, the epoch count and the run's pulse count.  ``run_tia`` builds the
plan once and every later step reads it.

Restricted-domain sampling: each arm's homogeneous part, in CW all its
non-pair events and pulsed its darks (``plan_run``), is one
homogeneous Poisson process.  Gaussian timing jitter displaces such a
process into an identically distributed one (the displacement theorem;
Kingman, *Poisson Processes*, 1993), so it is drawn unjittered.  Only
starts a little before a stop can give a histogram entry, so in either
pump mode ``run_tia`` draws the start arm's homogeneous part only on the
start times that can reach the histogram given the stops already generated
(about 0.3 % of the run at the shipped range) and counts the rest as one
Poisson number.  The result is identical in distribution to generating
every start.  The domain is one segment per stop, inside the stop's window
of equal length w; the process is drawn along the windows laid end to end,
a point's window found by division, and thinned to the segments (Lewis and
Shedler, 1979): a point is kept iff the stop before its window's does not
match it and it lies in the slab (``_start_domain``, ``_thin``).  The
windows hold at most about 1.6 times the domain while r1 w <= 1; denser
ranges, whose windows overlap more than they tile, draw the process over
the whole slab (``plan_run``).  Either way it is drawn in one piece per epoch
(``_bin_bulk``), whose expected size counts among the epoch's generated
events.  A pulsed start arm's gated part, its one-arm pair photons and
noise, follows the pulse comb; jittered, it is a Poisson process too, and
its parts on disjoint slabs and pulses are independent.  ``run_tia`` draws
it once per slab, after the slab's stops are known, only on the pulses
whose events can land in a stop's window or cross a slab end (0.0009 % of
the pulses at engineered-defaults, 2 % at the 500 MHz, 5 W corner of the
design box), and counts the events of the slab's other pulses as one
Poisson number (``_gated_pulses``, ``_bin_gated``); over a dense range the
domain is the slab and every pulse of it is drawn.  Arm 0's explicit
events are then its pair photons alone, in either pump mode.

Enumeration: the stops a start s matches are consecutive in the sorted stop
array, from its first match to the last below s plus the range maximum,
the rule a time-tag correlator applies (Wahl et al., Opt. Express 11, 3583,
2003).  ``_bin_starts`` bins the starts in batches of ``_BLOCK_BATCH``,
each stepping on from its starts' first stops, so a batch's memory does not
grow with the range.  A bulk start kept in the window of stop p has p as
its first stop; every other start is searched.  A walk step selects the
starts that go on, their stops and their stop indices through one index
(``np.flatnonzero`` of the step's mask, then ``np.take``), and the binning
its in-range delays with ``np.compress``: selecting with a boolean mask
that is partly true costs several times what building one index and
gathering through it does, once per array.

Epochs: a run is cut into epochs each holding about ``_EVENTS_PER_EPOCH``
generated events, the drawn bulk among them (``plan_run``).  Stream
i of epoch e is seeded with ``SeedSequence(seed, spawn_key=(e, i))``, so the
epochs' streams are independent whatever the bit generator.  An epoch's
times are relative to its start, so a stop at 24 h carries the precision of
one at 0 s and the carry into the next epoch shifts by the epoch length
exactly.  An epoch's events depend only on the configuration, the seed and
e: not on the run's duration beyond its own end.  A run holds one epoch's
events at a time.

Memory: a CW epoch's arrays are megabytes each (about 670 000 stops, 5.4
MB, in a 0.5 s epoch of paper-defaults), and the system maps and zeroes
fresh pages for every fresh array that size.  ``run_tia`` therefore gives
every run one recycler (``_Recycler``), freed when it returns: the stop
arm's draws and merge, the start domain's stop gaps, the gated draw's
pulse ranges and the drawn starts are written with numpy's ``out=`` into
plain numpy arrays that earlier steps or epochs released at the point where
they stopped using them.  A request takes a released array only if it fills at least half
of it, so a short request does not tie up a much longer array.  The
drawn bulk starts are one of the epoch's streams, so the epoch bounds their
array as it bounds every other.

Threads: the enumerate-and-bin batches, each thinning its own drawn starts,
run on a thread pool with one worker per CPU the process may run on
(``os.sched_getaffinity``); numpy releases the GIL in the searches, gathers
and sorts they spend their time in.  Each worker bins its batches into its
own integer counts, and integer sums do not depend on order, so the output
depends on neither the batch size nor the worker count.

Determinism: every stochastic routine takes a seed and draws from numpy's
PCG64 bit generator (``RNG_ALGORITHM``; O'Neill, "PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014); identical seeds and configurations give bit-identical
outputs.  That epochs do not depend on one another comes from their
``SeedSequence`` keys, not from the bit generator.  The start arm's
non-pair events are drawn per slab given its stops, from the streams of
the epoch that bins it: the bulk from ``bulk0`` and, pulsed, the gated part
from ``only0``, ``noise0`` and ``jgated0``.  The stop arm and the epoch
edges do not depend on them.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import RNG_ALGORITHM
from .errors import ConfigError, FieldError, NumericsError
from .model import predict_observables

# Gaussian FWHM to standard deviation.
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def _generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class _Recycler:
    """The epoch-sized float64 arrays of one run, used again once released.

    ``empty(n)`` hands out the first n elements of the shortest released
    array that holds them if they fill at least half of it.  Otherwise it
    makes a new array, 1/64 longer than asked so that the next epoch's
    slightly longer request fits, in place of the longest released array
    too short for n.  ``release`` takes back the arrays under the given
    views and ignores arrays it did not hand out.
    """

    def __init__(self):
        self._lent = {}  # id -> array, for the arrays handed out
        self._free = []  # released arrays, shortest first

    def empty(self, n) -> np.ndarray:
        k = sum(x.size < n for x in self._free)  # the ones too short come first
        if k < len(self._free) and self._free[k].size <= 2 * n:
            x = self._free.pop(k)
        else:
            if k:
                del self._free[k - 1]
            x = np.empty(n + n // 64)
        self._lent[id(x)] = x
        return x[:n]

    def release(self, *views) -> None:
        for v in views:
            x = self._lent.pop(id(v if v.base is None else v.base), None)
            if x is not None:
                self._free.append(x)
                self._free.sort(key=len)


def _poisson_times(rate_hz, span_s, rng, arrays=None, start_s=0.0) -> np.ndarray:
    """Sorted arrivals of a rate-``rate_hz`` Poisson process on [start_s,
    start_s + span_s), in an array of the recycler ``arrays`` (a new one by
    default)."""
    # Exponential inter-arrival sampling, conditioned on the count:
    # normalized cumulative exponential gaps are the order statistics of
    # uniforms, so the output is sorted without an O(n log n) sort.
    if span_s <= 0.0 or rate_hz == 0.0:
        return np.empty(0, dtype=np.float64)
    n = rng.poisson(rate_hz * span_s)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    cum = np.empty(n + 1) if arrays is None else arrays.empty(n + 1)
    rng.standard_exponential(out=cum)
    np.cumsum(cum, out=cum)
    np.multiply(cum, span_s / cum[-1], out=cum)
    if start_s:
        cum += start_s
    return cum[:-1]


def _merge_sorted(a: np.ndarray, b: np.ndarray, arrays) -> np.ndarray:
    """Merge two sorted arrays into one sorted array of ``arrays``, which
    takes back the input that is not returned."""
    if a.size < b.size:
        a, b = b, a
    if b.size == 0:
        merged = a
    else:
        merged = arrays.empty(a.size + b.size)
        at = np.searchsorted(a, b)
        at += np.arange(b.size)  # where b[j] goes
        if b.size <= a.size >> 10:
            # Few insertions: a copy per run of a between them costs less
            # than np.insert's full-length mask.
            lo = 0
            for j, i in enumerate(at.tolist()):
                merged[lo:i] = a[lo - j:i - j]
                lo = i + 1
            merged[lo:] = a[lo - b.size:]
        else:
            keep = np.ones(merged.size, dtype=bool)
            keep[at] = False
            merged[keep] = a
        merged[at] = b
    arrays.release(*(x for x in (a, b) if x is not merged))
    return merged


def _pulsed_times(rate_hz, tau_s, rep_rate_hz, n_windows, rng) -> np.ndarray:
    """Arrivals at rate ``rate_hz`` inside the pulse windows [k/B, k/B +
    tau_s), k < ``n_windows``, unsorted: every caller jitters and then sorts
    them."""
    # An epoch is a whole number of pulse periods, so the window grids of
    # consecutive epochs join into the one grid k/B of the run.
    if n_windows <= 0 or rate_hz == 0.0:
        return np.empty(0, dtype=np.float64)
    n = rng.poisson(rate_hz * tau_s * n_windows)
    window = rng.integers(0, n_windows, n)
    return window / rep_rate_hz + rng.random(n) * tau_s


# Most bins a histogram may have: each takes an int64 count per worker and
# a float edge, and the largest shipped or benchmarked range has 20000.
MAX_TIA_BINS = 10**6


@dataclass(frozen=True)
class TiaConfig:
    """Start-stop histogrammer settings.

    ``policy``: "first-stop" pairs each start with the earliest stop at or
    after it; "multi-stop" counts every stop falling inside the delay range
    of each start.  ``range_s`` must span the inserted ``stop_delay_s``.
    """

    bin_width_s: float
    range_s: tuple[float, float]
    policy: str = "first-stop"
    stop_delay_s: float = 0.0

    def __post_init__(self):
        if not self.bin_width_s > 0.0:
            raise FieldError("bin_width_s", "bin width must be positive", self.bin_width_s)
        lo, hi = self.range_s
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise FieldError("range_s", "delay range ends must be finite", self.range_s)
        if hi <= lo:
            raise FieldError("range_s", "delay range must not be empty", self.range_s)
        # Compared as a float: a span of 1e308 overflows an int conversion.
        if (hi - lo) / self.bin_width_s > MAX_TIA_BINS:
            raise FieldError("bin_width_s",
                             f"bin width must give at most {MAX_TIA_BINS} bins over the "
                             "delay range", self.bin_width_s)
        # ``_bin_counts`` takes a value's bin from the uniform spacing and
        # moves it by one bin at most, which is enough only while the edges'
        # rounding, an ulp at the range's end farther from 0, is far below a
        # bin.  2^10 float spacings per bin keep every edge distinct and the
        # estimate well inside one bin.
        if self.bin_width_s < 2**10 * math.ulp(max(abs(lo), abs(hi))):
            raise FieldError("bin_width_s", "bin width must be at least 2^10 float spacings "
                             "at the delay range's end farther from 0", self.bin_width_s)
        if not lo <= self.stop_delay_s <= hi:
            raise FieldError("stop_delay_s", "stop delay must lie in the delay range",
                             self.stop_delay_s)
        if self.policy not in ("first-stop", "multi-stop"):
            raise FieldError("policy", "unknown TIA policy", self.policy)
        if self.policy == "first-stop" and hi <= 0.0:
            # A start's first stop is at or after it, so no delay is below 0.
            raise FieldError("range_s", "a first-stop delay range must reach above 0",
                             self.range_s)

    @property
    def n_bins(self) -> int:
        lo, hi = self.range_s
        return max(1, int(math.ceil((hi - lo) / self.bin_width_s - 1e-9)))

    @property
    def bin_edges(self) -> np.ndarray:
        return _bin_edge(np.arange(self.n_bins + 1), self.range_s[0], self.bin_width_s)


def _bin_edge(k, lo, width, out=None):
    """Edge k of bins ``width`` wide from ``lo``, lo + k width, for an integer
    k or an integer array of them (into ``out`` if given): every bin edge a
    histogram uses comes from these two float operations."""
    edge = np.multiply(k, width, out=out)
    edge += lo
    return edge


# Bins formatted per write: bounds the text ``write_csv`` holds at once.
_CSV_BLOCK = 1 << 16


@dataclass
class HistogramResult:
    """Binned start-stop delays plus the run metadata needed to reproduce it."""

    bin_edges: np.ndarray
    counts: np.ndarray
    acquisition_time: float
    metadata: dict = field(default_factory=dict)

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def total_counts(self) -> int:
        return int(self.counts.sum())

    def write_csv(self, path) -> None:
        """CSV with '#' metadata comment lines, then 'delay_s,counts' per bin.

        delay_s is the bin center; floats use shortest round-trip formatting
        and lines end with LF.  The format is byte-stable for fixed inputs.
        """
        with open(path, "w", newline="\n") as fh:
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            fh.write(f"# acquisition_time_s={self.acquisition_time!r}\n")
            fh.write("delay_s,counts\n")
            centers = self.bin_centers
            for j in range(0, centers.size, _CSV_BLOCK):
                block = zip(centers[j:j + _CSV_BLOCK].tolist(),
                            self.counts[j:j + _CSV_BLOCK].tolist())
                fh.write("".join(f"{c!r},{int(n)}\n" for c, n in block))


def _window(cfg: TiaConfig):
    """The TIA policy as (lo, hi, top, single): start s matches the stops p
    with s + lo <= p < s + hi, consecutive from its first p >= s + lo, or,
    with ``single`` (first-stop), only its first stop p >= s if p < s + hi;
    the histogram drops the delays below its range.  Stop p's start-domain
    window (``_start_domain``) is (p - hi, p - top], top = max(lo,
    range_lo), w = hi - top long, positive for every accepted
    configuration."""
    range_lo, hi = cfg.range_s
    single = cfg.policy == "first-stop"
    lo = 0.0 if single else range_lo
    return lo, hi, max(lo, range_lo), single


def _cut_lengths(stops, a, b, cfg, t_lo, t_hi) -> np.ndarray:
    """Lengths of the start-domain segments of stops a to b - 1 clipped to
    [t_lo, t_hi], from their bounds (``_start_domain``)."""
    lo, hi, top, _ = _window(cfg)
    p = stops[a:b]
    begin = p - hi
    # Stop p_{k-1} is the first match of the starts up to p_{k-1} - lo.
    np.maximum(begin[1:], p[:-1] - lo, out=begin[1:])
    if 0 < a < b:
        begin[0] = max(begin[0], stops[a - 1] - lo)
    np.maximum(begin, t_lo, out=begin)
    cut = np.minimum(p - top, t_hi)
    cut -= begin
    return np.maximum(cut, 0.0, out=cut)


class _Domain(NamedTuple):
    """The start domain of the slab [t_lo, t_hi] (``_start_domain``):
    windows of stops ``first`` to ``first + n - 1``, ``covered`` long in
    all."""

    first: int
    n: int
    t_lo: float
    t_hi: float
    covered: float


def _start_domain(stops: np.ndarray, cfg: TiaConfig, t_lo: float, t_hi: float,
                  arrays) -> _Domain:
    """Start times in [t_lo, t_hi] that can give a histogram entry.

    The domain is one segment per stop p_k = ``stops[first + k]``, k < n,
    that can reach the interval.  With (lo, hi, top) those of ``_window``
    and w = hi - top, segment k is
    (max(p_k - hi, p_{k-1} - lo), p_k - top] cut to [t_lo, t_hi]: a
    start s inside it has p_k as its first stop p >= s + lo, and p_k < s +
    hi (up to rounding at the edges); later starts only reach delays below
    the range.  Every start that pairs with a stop at a binnable delay lies
    in a segment.  Segment k lies in window k, (p_k - hi, p_k - top], and
    holds its points s with p_{k-1} < s + lo and t_lo < s <= t_hi; the bulk
    is drawn on the windows and thinned to the segments (``_thin``).

    Only the domain's length, ``covered``, is summed.  Unclipped, segment k
    is min(w, p_k - p_{k-1} - (top - lo)) long, or 0 if that is negative,
    so the lengths come from the stop gaps; only the first segment, whose
    earlier stop may lie before ``first``, and those the interval cuts take
    their bounds (``_cut_lengths``).  The gaps go into an array of the
    recycler ``arrays``, which takes it back.
    """
    lo, hi, top, _ = _window(cfg)
    # Only stops whose segment can reach [t_lo, t_hi] matter.
    first = int(np.searchsorted(stops, t_lo + top, side="left"))
    end = int(np.searchsorted(stops, t_hi + hi, side="right"))
    covered = 0.0
    if end > first:
        # Bounds are non-decreasing in k, so t_lo cuts segments below the
        # first p_k >= t_lo + hi and t_hi those from the first p_k > t_hi +
        # top; one more on either side leaves rounding no say.
        p = stops[first:end]
        head = min(int(np.searchsorted(p, t_lo + hi, side="right")) + 1, p.size)
        tail = max(int(np.searchsorted(p, t_hi + top, side="left")) - 1, head)
        gaps = arrays.empty(tail - head)
        np.subtract(p[head:tail], p[head - 1:tail - 1], out=gaps)
        # min(w, max(gap - (top - lo), 0)) summed as clip(gap, top - lo, hi - lo).
        np.clip(gaps, top - lo, hi - lo, out=gaps)
        covered = float(gaps.sum()) - (top - lo) * gaps.size
        arrays.release(gaps)
        covered += float(_cut_lengths(stops, first, first + head, cfg, t_lo, t_hi).sum())
        covered += float(_cut_lengths(stops, first + tail, end, cfg, t_lo, t_hi).sum())
    return _Domain(first, end - first, t_lo, t_hi, covered)


def _thin(u, stops, cfg, domain):
    """Times, first-stop indices and first stops of the offsets ``u`` along
    the windows of ``domain`` (``_start_domain``), and how many lie in the
    domain; a point outside it gets the first stop +inf, which matches
    nothing.

    Window k holds the offsets [k w, (k + 1) w), and offset u in it is the
    start s = p_k - top - (u - k w) in (p_k - hi, p_k - top].  The point
    stays iff s lies in segment k: the stop before p_k is below s + lo and
    t_lo < s <= t_hi.  By the restriction theorem (Kingman, *Poisson
    Processes*, 1993) the points of a rate-r Poisson process on the windows
    that lie in their segments are a rate-r Poisson process on the domain:
    thinning (Lewis and Shedler, Naval Res. Logist. Q. 26, 403, 1979).  A
    kept start with p_k < s + lo, which rounding can give at a segment's
    end, is searched (``_first_stops``).
    """
    lo, hi, top, _ = _window(cfg)
    w = hi - top
    s = np.divide(u, w)
    k = s.astype(np.intp)  # u >= 0, so this is the floor
    np.minimum(k, domain.n - 1, out=k)
    np.multiply(k, w, out=s)
    np.subtract(u, s, out=s)
    k += domain.first
    p = np.take(stops, k)
    np.subtract(p, s, out=s)
    s -= top
    s_lo = s + lo
    k -= 1
    out = np.take(stops, k, mode="clip") >= s_lo
    k += 1
    if domain.first == 0:
        out[k == 0] = False  # stop 0 has no stop before it
    out |= s <= domain.t_lo
    out |= s > domain.t_hi
    outside = np.flatnonzero(out)  # an index writes faster than the mask
    p[outside] = np.inf
    kept = out.size - outside.size
    np.less(p, s_lo, out=out)
    if out.any():
        k[out] = _first_stops(s[out], stops, lo)
        p[out] = np.take(stops, k[out], mode="clip")
    return s, k, p, kept


# Starts per batch: bounds the temporaries each worker holds.  Counts add,
# so the histogram does not depend on it.
_BLOCK_BATCH = 1 << 16


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Worker threads of the batch pool: numpy releases the GIL in the searches,
# gathers and sorts the batches spend their time in.
_WORKERS = _usable_cpus()


@functools.lru_cache(maxsize=None)
def _pool(workers):
    # Imported on first use: importing it adds about 7 ms to every start of
    # the command-line tool, most of whose commands simulate nothing.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="sfwmlab-batch")


# A forked child inherits the pool without its threads.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _on_pool(task, n):
    """Run ``task(batches)`` once per worker and return the results.

    Worker w gets the batch offsets (w + i W) B below ``n``, B =
    ``_BLOCK_BATCH`` and W = ``_WORKERS``, and so holds one batch's
    temporaries at a time.  Every task ends before this returns; the first
    exception raised in one is raised here.  A single batch runs on the
    calling thread: a worker would only add its round trip.
    """
    step = _WORKERS * _BLOCK_BATCH
    if n <= _BLOCK_BATCH:
        return [task(range(0, n, step))] if n else []
    pool = _pool(_WORKERS)
    tasks = [pool.submit(task, range(j, n, step))
             for j in range(0, min(n, step), _BLOCK_BATCH)]
    for t in tasks:
        t.exception()  # waits for the task to end
    return [t.result() for t in tasks]


def _bin_counts(values, lo, width, n):
    """The counts of ``np.histogram`` of ``values`` over the ``n`` bins
    ``width`` wide from ``lo``, as the bin index of each value counted,
    without sorting: ``np.bincount`` of the result, to n bins, is the
    histogram.  Bin i holds edge i <= v < edge i + 1 (``_bin_edge``), the
    last bin also v == edge n, and values outside the edges are dropped.  The
    index from the uniform spacing is within one bin of the right one (its
    rounding error is far below a bin while the edges' ulp is), and one
    comparison against a computed edge either way settles it.  Adding the
    indices (``np.add.at``) costs what the values do, however many bins
    there are.  The values in range are selected with ``np.compress``, a
    fraction of the cost of a boolean index, and the edges are computed
    into one buffer rather than gathered from an array of them.
    """
    top = _bin_edge(n, lo, width)
    # Not redundant in a walk, which bins only stops p >= s + lo: fl(p - s)
    # can still fall below lo, and its index -1 would count in the last bin.
    keep = values >= lo
    keep &= values <= top
    values = np.compress(keep, values)
    x = np.subtract(values, lo)  # the values in bins, then bin edges
    x *= n / (top - lo)
    i = x.astype(np.intp)
    np.minimum(i, n - 1, out=i)
    below = keep[:values.size]
    i -= np.less(values, _bin_edge(i, lo, width, out=x), out=below)
    # Up one bin where v >= edge i + 1.
    i += 1
    i -= np.less(values, _bin_edge(i, lo, width, out=x), out=below)
    return np.minimum(i, n - 1, out=i)


def _first_stops(starts, stops, lo):
    """Index of the first stop p >= s + lo of each start s in ``stops``."""
    return np.searchsorted(stops, starts + lo, side="left")


def _bin_starts(starts, stops, cfg, domain=None):
    """Histogram counts of the delays of ``starts`` against ``stops``, and
    how many starts were binned.

    Starts are binned in batches of ``_BLOCK_BATCH`` on the batch pool
    (``_on_pool``), each worker into its own integer counts, which add in
    any order.  A batch finds each start's first stop and walks: it bins
    that stop for the starts it matches and, multi-stop, moves those on to
    the next stop until none is left, so it bins at most ``_BLOCK_BATCH``
    delays at a time however many stops a start matches.  Each step makes
    one index of the starts that match their stop and takes their times,
    stops and stop indices through it (``np.take``), which costs a fraction
    of selecting each with the boolean mask.  Given ``domain``
    (``_start_domain``), ``starts`` are offsets along its windows, which
    each batch thins to the domain (``_thin``), with their windows' stops
    as their first; only the starts in the domain count as binned.  Every
    other start is searched (``_first_stops``).
    """
    lo, hi, _, single = _window(cfg)
    bins = cfg.range_s[0], cfg.bin_width_s, cfg.n_bins
    if stops.size == 0:
        return np.zeros(cfg.n_bins, dtype=np.int64), starts.size if domain is None else 0

    def binned(batches):
        counts = np.zeros(cfg.n_bins, dtype=np.int64)
        n = 0
        for j in batches:
            s = starts[j:j + _BLOCK_BATCH]
            if domain is None:
                n += s.size
                i = _first_stops(s, stops, lo)
                p = np.take(stops, i, mode="clip")
            else:
                s, i, p, kept = _thin(s, stops, cfg, domain)
                n += kept
            # Every stop from the first on is at or after s + lo, so a
            # start's matches end at its first stop at or after s + hi.
            while True:
                keep = p < s + hi
                keep &= i < stops.size
                at = np.flatnonzero(keep)
                if not at.size:
                    break
                s = np.take(s, at)
                p = np.take(p, at)
                p -= s
                np.add.at(counts, _bin_counts(p, *bins), 1)
                if single:
                    break
                i = np.take(i, at)
                i += 1
                p = np.take(stops, i, mode="clip")
        return counts, n

    results = _on_pool(binned, starts.size)
    return (sum((c for c, _ in results), np.zeros(cfg.n_bins, dtype=np.int64)),
            sum(n for _, n in results))


def component_rates(setup) -> dict:
    """Time-averaged detected rates for each independent event category.

    A pair emission survives to arm 0 with probability s0 and to arm 1 with
    s1, independently; splitting the Poisson emission process by outcome
    (both arms / arm 0 only / arm 1 only) yields independent Poisson
    processes whose rates reproduce the analytic singles and coincidence
    rates exactly.  Scattering noise, pump leakage and darks are independent
    per arm by construction.
    """
    obs = predict_observables(setup)
    both = obs.coincidences
    pairs0 = obs.singles_parts["N0"]["pairs"]
    pairs1 = obs.singles_parts["N1"]["pairs"]
    noise0 = obs.singles_parts["N0"]["scattering"] + obs.singles_parts["N0"]["leakage"]
    noise1 = obs.singles_parts["N1"]["scattering"] + obs.singles_parts["N1"]["leakage"]
    return {
        "both": both,
        "only0": pairs0 - both,
        "only1": pairs1 - both,
        "noise0": noise0,
        "noise1": noise1,
        "dark0": setup.idler.dark_rate_hz,
        "dark1": setup.signal.dark_rate_hz,
        "observables": obs,
    }


# The stream definition.  Category i of epoch e in a run with seed s is
# drawn from ``SeedSequence(s, spawn_key=(e, i))`` in the order below, and an
# epoch holds about ``_EVENTS_PER_EPOCH`` generated events
# (``plan_run``); changing either changes every simulated stream for a
# given seed.  The epoch also bounds memory: a run holds the events of one
# epoch and the few carried over from the epoch before.
_CATEGORIES = ("both", "jitter0", "jitter1", "bulk0", "bulk1",
               "only0", "only1", "noise0", "noise1", "jgated0", "jgated1")
_EVENTS_PER_EPOCH = 2**20
# Most events a stream may expect in one epoch, 0.5 GiB of float64 times.
_MAX_STREAM_EVENTS = 2**26
# Most epochs a run may hold: every epoch index e up to 2^53 is an exact
# float64, so the epoch start e E a run computes is exact in CW (E = 2^k s)
# and rounded once when pulsed.
_MAX_EPOCHS = 2**53


def _epoch_children(entropy, e) -> dict:
    """Seeds of epoch e's category streams, keyed on (seed, e)."""
    return {name: np.random.SeedSequence(entropy, spawn_key=(e, i))
            for i, name in enumerate(_CATEGORIES)}


class RunPlan(NamedTuple):
    """A counting run as ``plan_run`` decides it before its first draw.

    ``rates`` are the component rates (``component_rates``) and
    ``nonpair`` each arm's (gated, homogeneous) non-pair rates.  ``tiles``
    says whether the start arm's bulk is thinned on the stops' windows
    (``_start_domain``) rather than drawn over the slab, and ``pad`` is how
    far timing jitter may move an event.  The run holds ``n_epochs`` epochs
    of ``epoch`` = (E, P), E seconds and, pulsed, P pulse periods (0 in CW),
    the last one possibly shorter, and ``n_pulses`` pulse windows k/B, those
    that begin before it ends (0 in CW).
    """

    setup: object
    duration_s: float
    rates: dict
    nonpair: tuple
    tiles: bool
    pad: float
    epoch: tuple
    n_epochs: int
    n_pulses: int


def plan_run(setup, duration_s) -> RunPlan:
    """Everything ``run_tia`` decides about a run of ``duration_s`` before
    its first draw, from the configuration and the duration alone.

    Refused here, before anything is drawn: a duration that is not finite
    and non-negative and a negative component rate (``ConfigError``); an
    epoch of more pulse periods than a float can count, a pulsed run whose
    pulse windows a float cannot count, a run of more than ``_MAX_EPOCHS``
    epochs, and a run whose epoch 0, the longest, would expect more than
    ``_MAX_STREAM_EVENTS`` events in one of its arrays (``NumericsError``).

    Non-pair rates.  An arm's homogeneous part is a single Poisson process,
    drawn by ``_poisson_times`` from stream ``bulk{arm}`` and never
    jittered: Gaussian jitter displaces a homogeneous process into an
    identically distributed one.  In CW it holds all of them, the one-arm
    pair leftovers, scattering/leakage noise and darks; pulsed, the darks.
    The gated part, pulsed the one-arm pair photons and noise, follows the
    pulse comb, which makes jitter observable (it smears the comb), so it is
    drawn in the pulse windows and jittered: the stop arm's in every window
    of the epoch (``_uncorrelated_arm_times``), the start arm's per slab on
    the pulses that can reach the stops, the rest counted (``_bin_gated``).
    In CW it is empty.

    Tiling.  The start arm's bulk is thinned on the windows of
    ``_start_domain``, w long (``_window``), while r1 w <= 1, r1 the stop
    arm's singles rate: the windows then overlap less than they tile, so
    they hold at most about 1/(1 - e^-1) = 1.6 times the domain.  Otherwise
    it is drawn over the slab.  ``_bin_bulk`` draws r0 r1 w or r0 bulk
    starts per second of slab on average, r0 the rate of arm 0's
    homogeneous part.

    Jitter pad: 10 FWHM of both arms.  The epoch carry assumes that jitter
    moves no event farther, and the pad also bounds sampling: the start
    arm's gated events are drawn only on the pulses whose span, widened by
    the pad, can reach a stop's window or a slab end (``_gated_pulses``), so
    an event more than 10 combined FWHM (over 23 sigma) from its pulse is
    never drawn.

    Epoch (E, P).  CW: E = 2^k s and P = 0.  Pulsed: P = 2^k pulse periods
    and E = P/B, so every epoch begins on the run's pulse grid.  k is the
    largest for which an epoch holds at most ``_EVENTS_PER_EPOCH`` generated
    events on average, a rate below 1 Hz counted as 1 Hz; generated are arm
    1's singles, arm 0's pair photons and gated non-pair events and the bulk
    starts drawn for its homogeneous part.  k is raised, if need be, until E
    is at least twice the reach: the farthest an event carried into the next
    epoch lies from the epoch end (the histogram range, the stop delay and
    the jitter pad).  Carried times then lie in [E/2, 2E], where subtracting
    E is exact (Sterbenz's lemma).

    Stream bound.  The arrays of an epoch are its pair photons, arm 0's
    gated non-pair events, arm 0's bulk draw and arm 1's non-pair events,
    gated and homogeneous; the gated events come in the epoch's pulse
    windows, the rest in its span.

    Arm 0's gated events count at their full rate in both the epoch and the
    stream bound on purpose, though ``_bin_gated`` draws only those near
    the stops: a dense range draws all of a slab's, and the count keeps the
    epoch edges, and so every stop, independent of how arm 0 is drawn.
    """
    if not math.isfinite(duration_s) or duration_s < 0.0:
        raise ConfigError(f"duration must be finite and non-negative, got {duration_s}")
    rates = component_rates(setup)
    for name, rate in rates.items():
        if name != "observables" and rate < 0.0:
            raise ConfigError(f"negative component rate {rate}")
    pump, tia = setup.pump, setup.analysis.tia
    pulsed = pump.mode == "pulsed"
    nonpair = []
    for arm in (0, 1):
        only, noise, dark = (rates[f"{name}{arm}"] for name in ("only", "noise", "dark"))
        nonpair.append((only + noise, dark) if pulsed else (0.0, only + noise + dark))
    r1 = rates["observables"].singles1
    _, hi, top, _ = _window(tia)
    tiles = r1 * (hi - top) <= 1.0
    bulk_draw = nonpair[0][1] * (r1 * (hi - top) if tiles else 1.0)
    pad = 10.0 * (setup.idler.jitter_fwhm_s + setup.signal.jitter_fwhm_s)

    reach = hi - min(tia.range_s[0], 0.0) + abs(tia.stop_delay_s) + pad + 1e-9
    generated = r1 + (rates["both"] + nonpair[0][0] + bulk_draw)
    per_s = _EVENTS_PER_EPOCH / max(generated, 1.0)
    n_pulses = 0
    if not pulsed:
        # reach < 2^m, m = frexp(reach)[1]
        k = max(math.floor(math.log2(per_s)), math.frexp(reach)[1] + 1)
        epoch = math.ldexp(1.0, k), 0
    else:
        b = pump.rep_rate_hz
        try:
            # reach B < 2^(m + n), n = frexp(B)[1]; rounding P/B to the
            # nearest float cannot take it below 2 reach, a float.
            k = max(math.floor(math.log2(per_s * b)),
                    math.frexp(reach)[1] + math.frexp(b)[1] + 1, 0)
            epoch = (1 << k) / b, 1 << k
        except OverflowError:
            raise NumericsError(f"a {b:.4g} Hz rep rate puts more pulse periods in one "
                                "epoch than a float can count") from None
        if not math.isfinite(duration_s * b):
            raise NumericsError(f"a {duration_s:.4g} s run at a {b:.4g} Hz rep rate holds "
                                "more pulse windows than a float can count")
        n_pulses = math.ceil(duration_s * b - 1e-9)
    epochs = duration_s / epoch[0]
    if not epochs <= _MAX_EPOCHS:
        raise NumericsError(f"a {duration_s:.4g} s run holds {epochs:.4g} epochs of "
                            f"{epoch[0]:.4g} s; a run may hold at most 2^53, the count "
                            "up to which the epoch start stays exact")

    # Epoch 0 emits in [0, span) or, pulsed, in its first pulse windows.
    span = min(epoch[0], duration_s)
    gated = min(epoch[1], n_pulses) / pump.rep_rate_hz if pulsed else span
    # (name, rate in the pulse windows, rate over the span)
    rows = (("pair event", rates["both"], 0.0),
            ("arm 0 gated non-pair event", nonpair[0][0], 0.0),
            ("arm 0 bulk draw", 0.0, bulk_draw),
            ("arm 1 non-pair event", *nonpair[1]))
    for name, in_windows, in_span in rows:
        events = in_windows * gated + in_span * span
        if not events <= _MAX_STREAM_EVENTS:
            raise NumericsError(f"the {name} rate {in_windows + in_span:.4g} /s would put "
                                f"{events:.4g} events in one {epoch[0]:.4g} s epoch; an "
                                f"epoch may hold at most {_MAX_STREAM_EVENTS}")
    return RunPlan(setup, duration_s, rates, tuple(nonpair), tiles, pad, epoch,
                   max(1, math.ceil(epochs)), n_pulses)


def _jittered(times, fwhm_s, rng) -> np.ndarray:
    if fwhm_s <= 0.0 or times.size == 0:
        return times
    smear = rng.standard_normal(times.size)
    np.multiply(smear, fwhm_s * FWHM_TO_SIGMA, out=smear)
    np.add(smear, times, out=smear)
    return smear


def _uncorrelated_arm_times(plan, span_s, n_windows, children, arrays) -> np.ndarray:
    """Sorted timestamps of the stop arm's non-pair events (``plan_run``):
    its gated part in the first ``n_windows`` pulse windows (none in CW),
    concatenated, jittered and sorted once, and its homogeneous part in [0,
    span_s), merged in unjittered.  Arm 0's non-pair events are drawn on the
    start times and pulses the stops need (``_bin_bulk``, ``_bin_gated``).
    """
    setup = plan.setup
    pump = setup.pump
    gated = np.empty(0)
    if pump.mode == "pulsed":
        gated = np.concatenate([
            _pulsed_times(plan.rates[f"{name}1"] / pump.duty_cycle, pump.tau_s,
                          pump.rep_rate_hz, n_windows, _generator(children[f"{name}1"]))
            for name in ("only", "noise")])
        gated = _jittered(gated, setup.signal.jitter_fwhm_s,
                          _generator(children["jgated1"]))
        gated.sort()
    bulk = _poisson_times(plan.nonpair[1][1], span_s, _generator(children["bulk1"]), arrays)
    return _merge_sorted(bulk, gated, arrays)


def _epoch_arms(plan, children, e, arrays):
    """Raw (arm0, arm1) timestamps of epoch e of ``plan``, relative to its
    start t0 = e E, ``plan.epoch`` = (E, P): the emissions in its span [0,
    min(E, duration - t0)) or, pulsed, in its first min(P, n_pulses - e P)
    pulse windows, those of the run's that begin before it ends.

    Arm 0 holds its pair photons alone: the caller draws its non-pair
    events on the start times it needs, the homogeneous part with
    ``children["bulk0"]`` (``_bin_bulk``) and, pulsed, the gated part with
    ``children["only0"]``, ``children["noise0"]`` and ``children["jgated0"]``
    (``_bin_gated``).  Arm 1 adds its non-pair events
    (``_uncorrelated_arm_times``).  Events may leave the epoch after jitter
    or the stop-arm delay; they are clipped to the run, [-t0, duration -
    t0) in epoch time, only, so adjacent epochs tile the full run exactly.
    Either arm may be a view of an array of the recycler ``arrays``.
    """
    setup = plan.setup
    pump = setup.pump
    epoch_s, pulses = plan.epoch
    t0 = e * epoch_s
    span = min(epoch_s, plan.duration_s - t0)
    windows = min(pulses, plan.n_pulses - e * pulses)
    if pump.mode == "pulsed":
        pair_times = _pulsed_times(plan.rates["both"] / pump.duty_cycle, pump.tau_s,
                                   pump.rep_rate_hz, windows, _generator(children["both"]))
    else:
        pair_times = _poisson_times(plan.rates["both"], span, _generator(children["both"]))

    stop_delay_s = setup.analysis.tia.stop_delay_s
    out = []
    for arm, ch in ((0, setup.idler), (1, setup.signal)):
        pairs = _jittered(pair_times, ch.jitter_fwhm_s,
                          _generator(children[f"jitter{arm}"]))
        if pairs is pair_times:
            pairs = pair_times.copy()
        pairs.sort()
        a = pairs
        if arm == 1:
            a = _merge_sorted(_uncorrelated_arm_times(plan, span, windows, children, arrays),
                              pairs, arrays)
            if stop_delay_s != 0.0:
                a += stop_delay_s  # a is this epoch's own array
        lo = int(np.searchsorted(a, -t0, side="left"))
        hi = int(np.searchsorted(a, plan.duration_s - t0, side="left"))
        out.append(a[lo:hi])
    return out[0], out[1]


@dataclass
class TiaRunResult:
    """Virtual TIA run: histogram plus raw singles counters."""

    histogram: HistogramResult
    n_starts: int
    n_stops: int
    duration: float


def _bin_bulk(plan, stops, slab, rng, arrays):
    """Histogram counts of the start arm's homogeneous part (``plan_run``)
    in the slab [s_lo, s_hi], drawn from ``rng``, and how many starts it
    holds.

    While the windows of ``_start_domain`` tile (``plan.tiles``), the part
    is drawn on them and thinned to the domain, and its starts outside the
    domain are only counted; otherwise it is drawn over the slab and every
    start searched.  Either way it is drawn in one piece, which
    ``plan_run`` counts among the epoch's events.
    """
    tia = plan.setup.analysis.tia
    s_lo, s_hi = slab
    rate = plan.nonpair[0][1]
    if plan.tiles:
        _, hi, top, _ = _window(tia)
        domain = _start_domain(stops, tia, s_lo, s_hi, arrays)
        bulk = _poisson_times(rate, domain.n * (hi - top), rng, arrays)
        counts, n0 = _bin_starts(bulk, stops, tia, domain)
        # Bulk starts outside the domain are only counted.
        n0 += int(rng.poisson(rate * max(s_hi - s_lo - domain.covered, 0.0)))
    else:
        bulk = _poisson_times(rate, s_hi - s_lo, rng, arrays, s_lo)
        counts, n0 = _bin_starts(bulk, stops, tia)
    arrays.release(bulk)
    return counts, n0


class _Pulses(NamedTuple):
    """The pulses of a slab (``_gated_pulses``): the u-th of the ``n``
    drawn, u < n, is pulse u + shift[i], i the first range with ends[i] > u;
    ``counted`` more pulses of the slab are only counted."""

    shift: np.ndarray
    ends: np.ndarray
    n: int
    counted: int


def _gated_pulses(plan, stops, slab, run, arrays) -> _Pulses:
    """The pulses on which ``_bin_gated`` draws the start arm's gated events
    for the slab [s_lo, s_hi].

    Pulse j's events lie in its span [j/B - pad, j/B + tau + pad], pad the
    jitter pad (``plan.pad``) and j counted from the epoch start.  Drawn
    are the run's pulses, ``run`` = (first, last), whose span meets the slab
    and either crosses one of its ends or meets the window (p - hi, p - top]
    of a stop p (``_start_domain``), which takes pulses ceil((p - hi - pad -
    tau) B) to floor((p - top + pad) B).  Both ends rise with p, so range k
    adds the pulses from the end of range k - 1 on, and one pass over the
    stops gives the union.  While the windows do not tile (``plan.tiles``),
    the domain is the slab and every pulse meeting it is drawn.  The others lie
    inside the slab and are counted.  The ranges go into two arrays of the
    recycler ``arrays``, ``shift`` and ``ends``, which the caller releases.
    """
    pump = plan.setup.pump
    b, tau, pad = pump.rep_rate_hz, pump.tau_s, plan.pad
    _, hi, top, _ = _window(plan.setup.analysis.tia)
    s_lo, s_hi = slab
    # The run's pulses j_lo to j_hi meet the slab; m_lo to m_hi lie inside it.
    j_lo = max(math.ceil((s_lo - tau - pad) * b), run[0])
    j_hi = min(math.floor((s_hi + pad) * b), run[1])
    m_lo = max(math.floor((s_lo + pad) * b) + 1, j_lo)
    m_hi = min(math.ceil((s_hi - tau - pad) * b) - 1, j_hi)
    if plan.tiles and m_lo <= m_hi:
        # A pulse period's margin leaves rounding no say.
        near = stops[np.searchsorted(stops, s_lo + top - 1.0 / b, side="left"):
                     np.searchsorted(stops, s_hi + hi + 1.0 / b, side="right")]
    else:
        m_lo, m_hi = j_hi + 1, j_hi
        near = stops[:0]
    # Range k is [before_k + 1, last_k]: the pulses crossing the slab's start,
    # those near each stop, cut to the inside, and those crossing its end.
    before = arrays.empty(near.size + 2)
    last = arrays.empty(near.size + 2)
    before[0], last[0] = j_lo - 1, m_lo - 1
    before[-1], last[-1] = m_hi, j_hi
    x = before[1:-1]
    np.subtract(near, hi + pad + tau, out=x)
    x *= b
    np.ceil(x, out=x)
    np.clip(x, m_lo, m_hi + 1, out=x)
    x -= 1.0
    x = last[1:-1]
    np.subtract(near, top - pad, out=x)
    x *= b
    np.floor(x, out=x)
    np.clip(x, m_lo - 1, m_hi, out=x)
    # Range k adds the pulses after the last of range k - 1.
    np.maximum(before[1:], last[:-1], out=before[1:])
    np.subtract(last, before, out=before)
    np.maximum(before, 0.0, out=before)
    ends = np.cumsum(before, out=before)
    shift = np.subtract(last, ends, out=last)
    shift += 1.0
    n = int(ends[-1])
    return _Pulses(shift, ends, n, max(j_hi - j_lo + 1, 0) - n)


def _bin_gated(plan, stops, slab, run, children, arrays):
    """Histogram counts of the start arm's gated part (``plan_run``),
    pulsed, in the slab [s_lo, s_hi), and how many starts it holds.

    Each category, one-arm pair photons from stream ``only0`` and noise from
    ``noise0``, has mu = rate / B events per pulse.  They are drawn, Poisson
    mu n in all, on the n pulses that can reach the stops or cross the
    slab's ends (``_gated_pulses``), in their windows [j/B, j/B + tau), and
    jittered from ``jgated0``; those that land in the slab are binned as
    searched starts.  The slab's other pulses add Poisson mu m starts, m
    their number.  Jittered, the gated events are a Poisson process
    (displacement theorem), and its parts in disjoint slabs and pulses are
    independent, so this is exact in distribution.
    """
    setup = plan.setup
    pump = setup.pump
    s_lo, s_hi = slab
    pulses = _gated_pulses(plan, stops, slab, run, arrays)
    drawn = []
    n0 = 0
    for name in ("only", "noise"):
        mu = plan.rates[f"{name}0"] / pump.rep_rate_hz
        rng = _generator(children[f"{name}0"])
        u = rng.integers(0, pulses.n, rng.poisson(mu * pulses.n))
        j = u + np.take(pulses.shift, np.searchsorted(pulses.ends, u, side="right"))
        drawn.append(j / pump.rep_rate_hz + rng.random(u.size) * pump.tau_s)
        n0 += int(rng.poisson(mu * pulses.counted))
    arrays.release(pulses.shift, pulses.ends)
    starts = _jittered(np.concatenate(drawn), setup.idler.jitter_fwhm_s,
                       _generator(children["jgated0"]))
    starts = starts[(starts >= s_lo) & (starts < s_hi)]
    counts, n = _bin_starts(starts, stops, setup.analysis.tia)
    return counts, n0 + n


def _tia_epoch(plan, children, e, slab, carry, arrays):
    """Generate epoch e of ``plan`` (``_epoch_arms``) and histogram the
    starts of its slab; all times are epoch time.

    ``carry`` = (starts, stops) are the explicit starts and the stops
    carried over from the epoch before.  ``slab`` = (s_lo, s_hi) is the
    start-time interval whose stops are all known once the epoch is
    generated; the start arm's homogeneous part is drawn on it in one piece
    and binned on the stops' windows or over the slab (``_bin_bulk``), in
    either pump mode, and, pulsed, its gated part on the pulses that can
    reach the stops or the slab's ends (``_bin_gated``).  Returns (counts,
    n_starts, n_stops, carry): the next ``carry`` holds the explicit starts
    at or after s_hi and the stops a later slab can still pair with, in the
    next epoch's time.  The epoch's arrays come from the recycler ``arrays``
    and go back to it.
    """
    tia = plan.setup.analysis.tia
    s_hi = slab[1]
    arm0, arm1 = _epoch_arms(plan, children, e, arrays)
    n0, n1 = arm0.size, arm1.size
    # The carried tails are tiny (a guard interval's worth of events), so
    # merging beats a full re-sort.
    explicit = _merge_sorted(arm0, carry[0], arrays)
    stops = _merge_sorted(arm1, carry[1], arrays)
    del arm0, arm1
    cut = int(np.searchsorted(explicit, s_hi, side="left"))
    counts, _ = _bin_starts(explicit[:cut], stops, tia)
    c, dn0 = _bin_bulk(plan, stops, slab, _generator(children["bulk0"]), arrays)
    counts += c
    n0 += dn0
    if plan.setup.pump.mode == "pulsed":
        # The run's pulses, counted from the epoch start.
        first = -e * plan.epoch[1]
        run = (first, first + plan.n_pulses - 1)
        c, dn0 = _bin_gated(plan, stops, slab, run, children, arrays)
        counts += c
        n0 += dn0
    keep = int(np.searchsorted(stops, s_hi + min(tia.range_s[0], 0.0), side="left"))
    # Shifting by the epoch length is exact (``plan_run``).
    epoch_s = plan.epoch[0]
    carry = (explicit[cut:] - epoch_s, stops[keep:] - epoch_s)
    arrays.release(explicit, stops)
    return counts, n0, n1, carry


def run_tia(setup, duration_s: float, rng_seed) -> TiaRunResult:
    """Simulate a full counting run, one epoch at a time.

    The histogrammer settings (policy, range, bins, stop delay) come from
    ``setup.analysis.tia``; a run with other settings takes a setup whose
    analysis is replaced.  ``plan_run`` decides the run, and makes every
    refusal, before anything is drawn.

    Epochs (``plan_run``, the last one possibly shorter) are independent
    intervals of the same Poisson processes, and counts add.  After epoch e
    every stop below its end + stop_delay - jitter pad is final, so the
    starts of the slab [S_{e-1}, S_e), with S_e that bound minus the range
    maximum, are histogrammed then; later starts and the stops they need are
    carried into epoch e + 1, shifted by the epoch length, which is exact.
    The events of one epoch and the carry are held at once.

    In either pump mode each arm's homogeneous part is drawn unjittered: the
    start arm's only on the start times that can reach the histogram
    (``_start_domain``), the rest of it counted, or, for dense multi-stop
    ranges, over each slab (``_bin_bulk``); the stop arm's over each epoch.
    A pulsed start arm's gated part is drawn per slab on the pulses that can
    reach the stops, the other pulses' events counted (``_bin_gated``).
    Every start histogrammed goes through ``_bin_starts``, whose batches
    thin the drawn starts and run on one worker thread per usable CPU; the
    output does not depend on how many there are.
    """
    plan = plan_run(setup, duration_s)
    tia = setup.analysis.tia
    epoch_s = plan.epoch[0]
    # Stops of later epochs lie at or above the epoch end + stop_delay -
    # jitter_pad; a start below that minus the range maximum cannot reach them.
    lag = tia.stop_delay_s - plan.pad - tia.range_s[1] - 1e-9
    entropy = np.random.SeedSequence(rng_seed).entropy

    counts = np.zeros(tia.n_bins, dtype=np.int64)
    carry = (np.empty(0), np.empty(0))
    arrays = _Recycler()
    n0 = 0
    n1 = 0
    s_lo = 0.0
    for e in range(plan.n_epochs):
        end = duration_s - e * epoch_s  # the run's end in epoch time
        s_hi = end if e + 1 == plan.n_epochs else min(epoch_s + lag, end)
        c, dn0, dn1, carry = _tia_epoch(plan, _epoch_children(entropy, e), e, (s_lo, s_hi),
                                        carry, arrays)
        counts += c
        n0 += dn0
        n1 += dn1
        s_lo = s_hi - epoch_s

    hist = HistogramResult(
        bin_edges=tia.bin_edges,
        counts=counts,
        acquisition_time=duration_s,
        metadata={
            "policy": tia.policy,
            "bin_width_s": tia.bin_width_s,
            "stop_delay_s": tia.stop_delay_s,
            "seed": rng_seed,
            "rng_algorithm": RNG_ALGORITHM,
            "n_starts": n0,
            "n_stops": n1,
        },
    )
    return TiaRunResult(histogram=hist, n_starts=n0, n_stops=n1, duration=duration_s)
