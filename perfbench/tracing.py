"""Layer-boundary spans for the traced run.

Each wrapper sits at the name through which the calling layer reaches a
function (``run_tia`` as imported into ``sfwmlab.cli``, ``pair_generation_rate``
as imported into ``sfwmlab.explore``, ...), so the program itself runs
unchanged.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
import time

# (span name, module, attribute path) of every wrapped call site.
SITES = (
    ("cli.main", "sfwmlab.cli", "main"),
    ("config.load_config", "sfwmlab.cli", "load_config"),
    ("config.load_config", "sfwmlab.config", "load_config"),
    ("config.calibrate_config", "sfwmlab.cli", "calibrate_config"),
    ("config.set_path", "sfwmlab.explore", "set_path"),
    ("model.predict_observables", "sfwmlab.config", "predict_observables"),
    ("model.predict_observables", "sfwmlab.eventsim", "predict_observables"),
    ("model.pair_generation_rate", "sfwmlab.explore", "pair_generation_rate"),
    ("explore.sweep", "sfwmlab.cli", "sweep"),
    ("explore.fit_power_law", "sfwmlab.cli", "fit_power_law"),
    ("explore.car_vs_mu", "sfwmlab.cli", "car_vs_mu"),
    ("explore.car_vs_detuning", "sfwmlab.cli", "car_vs_detuning"),
    ("explore.power_for_pairs_per_pulse", "sfwmlab.explore", "power_for_pairs_per_pulse"),
    ("explore.optimize_car", "sfwmlab.cli", "optimize_car"),
    ("eventsim.run_tia", "sfwmlab.cli", "run_tia"),
    ("eventsim.component_rates", "sfwmlab.eventsim", "component_rates"),
    ("eventsim.analyze_histogram", "sfwmlab.cli", "analyze_histogram"),
    ("eventsim.write_csv", "sfwmlab.eventsim", "HistogramResult.write_csv"),
    ("svgplot.write_svg", "sfwmlab.cli", "write_svg"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.  Counts are
# those of the first round, whose simulation seed is the run's seed; times
# are medians over the traced rounds of a run.
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("config.load_config.calls", "count"),
    ("config.load_config.self_s", "s"),
    ("config.calibrate_config.self_s", "s"),
    ("config.set_path.calls", "count"),
    ("model.predict_observables.calls", "count"),
    ("model.predict_observables.us_per_call", "us"),
    ("model.pair_generation_rate.calls", "count"),
    ("model.pair_generation_rate.us_per_call", "us"),
    ("explore.power_for_pairs_per_pulse.calls", "count"),
    ("explore.power_for_pairs_per_pulse.rate_evals_per_call", "count"),
    ("explore.power_for_pairs_per_pulse.self_s", "s"),
    ("explore.car_vs_mu.self_s", "s"),
    ("explore.car_vs_detuning.self_s", "s"),
    ("explore.sweep.self_s", "s"),
    ("explore.fit_power_law.self_s", "s"),
    ("explore.optimize_car.evaluations", "count"),
    ("explore.optimize_car.infeasible", "count"),
    ("explore.optimize_car.self_s", "s"),
    ("eventsim.component_rates.self_s", "s"),
    ("eventsim.run_tia.self_s", "s"),
    ("eventsim.run_tia.events", "count"),
    ("eventsim.run_tia.events_per_s", "1/s"),
    ("eventsim.run_tia.entries", "count"),
    ("eventsim.run_tia.entries_per_s", "1/s"),
    ("eventsim.run_tia.entries_per_event", "ratio"),
    ("eventsim.run_tia.rss_mb", "MB"),
    ("eventsim.analyze_histogram.self_s", "s"),
    ("eventsim.write_csv.self_s", "s"),
    ("svgplot.write_svg.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("host.loop_reference_s", "s"),
    ("host.objects_reference_s", "s"),
)


def _current_rss_mb() -> float:
    """Resident set now; falls back to the peak where /proc is missing."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_tia_counts(result, rss_at_entry) -> dict:
    hist = result.histogram
    return {
        "events": int(result.n_starts + result.n_stops),
        "entries": int(hist.total_counts),
        "rss_mb": max(0.0, peak_rss_mb() - rss_at_entry),
    }


def _optimize_counts(result, _rss) -> dict:
    return {
        "evaluations": len(result.trace),
        "infeasible": sum(1 for t in result.trace if not t["feasible"]),
    }


_RESULT_COUNTS = {
    "eventsim.run_tia": _run_tia_counts,
    "explore.optimize_car": _optimize_counts,
}


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics.

    A span is ``[name, start, end, parent, pass_id, counts]``; ``parent`` is
    the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self.absent = []
        self.pass_id = -1
        self.paused = False  # set while the benchmark checks outputs
        self._stack = []
        self._installed = []  # (owner, attribute, original)

    def install(self) -> None:
        self.absent = []
        for name, module, path in SITES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_result = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
            spans.append(span)
            stack.append(index)
            rss = _current_rss_mb() if on_result else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result:
                span[5] = on_result(result, rss)
            return result

        return traced

    def dump(self, path, extra) -> None:
        """Write every span, times in ns from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["fields"] = ["name", "start_ns", "end_ns", "parent", "pass", "counts"]
        doc["spans"] = [[name, round((start - t0) * 1e9), round((end - t0) * 1e9),
                         parent, pass_id, counts]
                        for name, start, end, parent, pass_id, counts in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self, traced_walls: dict, untraced_walls: list) -> dict:
        """Per-layer metrics from the spans of every traced pass.

        ``traced_walls`` maps each traced pass id to its wall time;
        ``untraced_walls`` holds the wall times of the untraced passes.
        """
        per_pass = [self._pass_metrics(p) for p in sorted(traced_walls)]
        first = per_pass[0]
        # Simulation counts follow each round's seed; every other count must
        # repeat exactly from round to round.
        for later in per_pass[1:]:
            for key in first["counts"]:
                if key.startswith("eventsim."):
                    continue
                if later["counts"][key] != first["counts"][key]:
                    raise RuntimeError(
                        f"count {key} differs between passes: "
                        f"{first['counts'][key]} vs {later['counts'][key]}"
                    )
        out = dict(first["counts"])
        for key in first["times"]:
            out[key] = statistics.median(m["times"][key] for m in per_pass)
        out["eventsim.run_tia.rss_mb"] = first["rss_mb"]
        out["trace.overhead_s"] = (
            statistics.median(traced_walls.values()) - statistics.median(untraced_walls)
        )
        return out

    def _pass_metrics(self, pass_id) -> dict:
        spans = self.spans
        idx = [i for i, s in enumerate(spans) if s[4] == pass_id]
        child_time = {i: 0.0 for i in idx}
        for i in idx:
            parent = spans[i][3]
            if parent >= 0:
                child_time[parent] += spans[i][2] - spans[i][1]
        calls, incl, self_s = {}, {}, {}
        for i in idx:
            name, start, end = spans[i][0], spans[i][1], spans[i][2]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]

        def has_ancestor(i, name):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        def total(name, key):
            return sum(spans[i][5][key] for i in idx
                       if spans[i][0] == name and spans[i][5] is not None)

        solver = "explore.power_for_pairs_per_pulse"
        solver_evals = sum(1 for i in idx if spans[i][0] == "model.pair_generation_rate"
                           and has_ancestor(i, solver))
        events = total("eventsim.run_tia", "events")
        entries = total("eventsim.run_tia", "entries")
        tia_s = incl.get("eventsim.run_tia", 0.0)
        rss = [spans[i][5]["rss_mb"] for i in idx
               if spans[i][0] == "eventsim.run_tia" and spans[i][5] is not None]

        def per_call_us(name):
            return incl[name] / calls[name] * 1e6 if calls.get(name) else 0.0

        counts = {
            "config.load_config.calls": calls.get("config.load_config", 0),
            "config.set_path.calls": calls.get("config.set_path", 0),
            "model.predict_observables.calls": calls.get("model.predict_observables", 0),
            "model.pair_generation_rate.calls": calls.get("model.pair_generation_rate", 0),
            "explore.power_for_pairs_per_pulse.calls": calls.get(solver, 0),
            "explore.power_for_pairs_per_pulse.rate_evals_per_call":
                solver_evals / calls[solver] if calls.get(solver) else 0.0,
            "explore.optimize_car.evaluations": total("explore.optimize_car", "evaluations"),
            "explore.optimize_car.infeasible": total("explore.optimize_car", "infeasible"),
            "eventsim.run_tia.events": events,
            "eventsim.run_tia.entries": entries,
            "eventsim.run_tia.entries_per_event": entries / events if events else 0.0,
        }
        times = {
            "model.predict_observables.us_per_call": per_call_us("model.predict_observables"),
            "model.pair_generation_rate.us_per_call": per_call_us("model.pair_generation_rate"),
            "eventsim.run_tia.events_per_s": events / tia_s if tia_s else 0.0,
            "eventsim.run_tia.entries_per_s": entries / tia_s if tia_s else 0.0,
        }
        for name in ("cli.main", "config.load_config", "config.calibrate_config",
                     solver, "explore.car_vs_mu", "explore.car_vs_detuning",
                     "explore.sweep", "explore.fit_power_law", "explore.optimize_car",
                     "eventsim.component_rates", "eventsim.run_tia",
                     "eventsim.analyze_histogram", "eventsim.write_csv",
                     "svgplot.write_svg"):
            times[f"{name}.self_s"] = self_s.get(name, 0.0)
        return {"counts": counts, "times": times, "rss_mb": rss[0] if rss else 0.0}
