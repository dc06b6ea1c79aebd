"""Command-line interface: rates, calibration, histograms, sweeps, search.

Exit codes: 0 success, 2 configuration error, 3 calibration inconsistency,
4 numerical failure.  Every command writes a run manifest next to its
outputs; deterministic commands are byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import analysis_document, analyze_histogram, null_nonfinite, peak_window
from .config import (
    ExperimentConfig,
    calibrate_config,
    load_config,
    overlay,
    read_calibration,
)
from .constants import DEFAULT_SEED
from .errors import ConfigError, InconsistentMeasurementError, NumericsError
from .eventsim import run_tia
from .explore import (
    SweepSpec,
    car_vs_detuning,
    car_vs_mu,
    fit_power_law,
    optimize_car,
    sweep,
)
from .svgplot import write_svg


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig, seed, outputs):
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "config_hash": cfg.config_hash,
        "seed": seed,
        "tool_version": __version__,
        "outputs": sorted(str(p.name) for p in outputs),
    })


# Command-line overrides: (argument, section, key) of the raw document.
_OVERRIDES = (
    ("power_mw", "pump", "power_mw"),
    ("mode", "analysis", "accidental_mode"),
    ("window_ps", "analysis", "coincidence_window_ps"),
)


def _load(args) -> ExperimentConfig:
    """The config, with ``--calibration`` and the override flags overlaid
    on it in one edit of its document."""
    cfg = load_config(args.config)
    values = read_calibration(args.calibration) if args.calibration else {}
    values.update({(section, key): getattr(args, arg) for arg, section, key in _OVERRIDES
                   if getattr(args, arg, None) is not None})
    return load_config(overlay(cfg.raw, values)) if values else cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _spec_number(text: str, spec: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"bad number {text!r} in values spec {spec!r}") from None


# Most values one spec may list: each is a model evaluation, and numpy
# allocates a lo:hi:count list in full.
MAX_VALUES = 10_000


def _parse_values(spec: str) -> tuple:
    """Value list syntax: 'lo:hi:count[:log]' or comma-separated numbers."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad values spec {spec!r}; use lo:hi:count[:log]")
        lo, hi = _spec_number(parts[0], spec), _spec_number(parts[1], spec)
        count = _spec_number(parts[2], spec, int)
        if not 1 <= count <= MAX_VALUES:
            raise ConfigError(f"values count must be 1 to {MAX_VALUES}, got {count}")
        if len(parts) == 4:
            if parts[3] != "log":
                raise ConfigError(f"bad spacing {parts[3]!r}; only 'log' is recognized")
            if not lo * hi > 0.0:
                raise ConfigError(f"log spacing needs nonzero endpoints of one sign: {spec!r}")
            values = np.geomspace(lo, hi, count)
        else:
            values = np.linspace(lo, hi, count)
    else:
        items = spec.split(",")
        if len(items) > MAX_VALUES:
            raise ConfigError(f"at most {MAX_VALUES} values may be listed, got {len(items)}")
        values = [_spec_number(v, spec) for v in items]
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"values must be finite numbers: {spec!r}")
    return tuple(float(v) for v in values)


def _print_observables(obs) -> None:
    meta = obs.meta
    print(f"pair generation rate r : {obs.pair_rate:.6g} pairs/s (in-waveguide)")
    print(f"coincidence rate C     : {obs.coincidences:.6g} /s")
    print(f"singles N0 (idler arm) : {obs.singles0:.6g} /s")
    print(f"singles N1 (signal arm): {obs.singles1:.6g} /s")
    print(f"accidentals A          : {obs.accidentals:.6g} /s ({obs.accidental_mode})")
    print(f"CAR                    : {obs.car:.6g}")
    print(f"conventions: duty_cycle={meta['duty_cycle']:.6g} "
          f"eta_alpha={meta['eta_alpha']:.6g} ({meta['eta_alpha_mode']}) "
          f"passband0={meta['bandwidth0_hz']:.6g} Hz "
          f"passband1={meta['bandwidth1_hz']:.6g} Hz "
          f"window={obs.window_s:.6g} s")


def cmd_rates(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    obs = cfg.setup.predict()
    _print_observables(obs)
    rates_csv = out / "rates.csv"
    rows = [
        ("r_pairs_per_s", obs.pair_rate),
        ("C_per_s", obs.coincidences),
        ("N0_per_s", obs.singles0),
        ("N1_per_s", obs.singles1),
        ("A_per_s", obs.accidentals),
        ("CAR", obs.car),
    ]
    with open(rates_csv, "w", newline="\n") as fh:
        fh.write(f"# config_hash={cfg.config_hash}\n")
        fh.write(f"# accidental_mode={obs.accidental_mode}\n")
        fh.write(f"# window_s={obs.window_s!r}\n")
        fh.write(f"# eta_alpha={obs.meta['eta_alpha']!r} ({obs.meta['eta_alpha_mode']})\n")
        fh.write("observable,value\n")
        for name, value in rows:
            fh.write(f"{name},{float(value)!r}\n")
    _write_manifest(out, "rates", cfg, args.seed, [rates_csv])
    return 0


def cmd_calibrate(args) -> int:
    for flag, value in (("--measured-c", args.measured_c), ("--measured-n0", args.measured_n0),
                        ("--measured-n1", args.measured_n1)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number, got {value}")
    cfg = _load(args)
    out = _out_dir(args)
    calibrated = calibrate_config(
        cfg, args.measured_c, args.measured_n0, args.measured_n1
    )
    calib_path = out / "calibration.json"
    doc = calibrated.calibration
    with open(calib_path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    check = calibrated.setup.predict()
    print(f"eta_alpha = {doc['eta_alpha']:.6g}")
    print(f"reproduced: C={check.coincidences:.6g}/s N0={check.singles0:.6g}/s "
          f"N1={check.singles1:.6g}/s")
    _write_manifest(out, "calibrate", cfg, args.seed, [calib_path])
    return 0


def _write_json(path: Path, doc: dict) -> None:
    """Strict JSON, non-finite floats written as null; sorted keys, LF line end."""
    with open(path, "w", newline="\n") as fh:
        json.dump(null_nonfinite(doc)[0], fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _print_analysis(analysis) -> None:
    if "empty" in analysis.flags:
        print("empty histogram (no counts); analysis flagged")
        return
    print(f"peak delay  : {analysis.peak_delay_s * 1e9:.4f} ns")
    print(f"peak FWHM   : {analysis.peak_fwhm_s * 1e12:.1f} ps")
    print(f"net C       : {analysis.coincidence_rate:.4g} /s "
          f"(+- {analysis.uncertainties['coincidence_rate']:.2g})")
    print(f"CAR estimate: {analysis.car_estimate:.4g}")


def cmd_histogram(args) -> int:
    if not math.isfinite(args.duration) or args.duration < 0.0:
        raise ConfigError(
            f"--duration must be a finite non-negative number of seconds, got {args.duration}")
    cfg = _load(args)
    peak_window_s = peak_window(cfg.setup.analysis)
    out = _out_dir(args)
    result = run_tia(cfg.setup, args.duration, args.seed)
    hist = result.histogram
    hist.metadata["config_hash"] = cfg.config_hash
    hist_csv = out / "histogram.csv"
    hist.write_csv(hist_csv)
    analysis = analyze_histogram(hist, peak_window_s=peak_window_s)
    _print_analysis(analysis)
    analysis_path = out / "analysis.json"
    _write_json(analysis_path, analysis_document(analysis, result))
    outputs = [hist_csv, analysis_path]

    if args.svg:
        svg_path = out / "histogram.svg"
        write_svg(svg_path, hist.bin_centers * 1e9, hist.counts, xlabel="delay (ns)",
                  ylabel="counts per bin", title=f"start-stop histogram, {args.duration:g} s",
                  step=True)
        outputs.append(svg_path)
    _write_manifest(out, "histogram", cfg, args.seed, outputs)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    spec = SweepSpec(param=args.param, values=_parse_values(args.values))
    curve = sweep(cfg.setup, spec)
    curve.meta["config_hash"] = cfg.config_hash
    curve_csv = out / "sweep.csv"
    curve.write_csv(curve_csv)
    outputs = [curve_csv]

    xs = curve.column("param")
    ys = curve.column("C")
    if len(xs) >= 3 and (xs > 0).all() and (ys > 0).all():
        fit = fit_power_law(zip(xs, ys))
        fit_path = out / "fit.json"
        _write_json(fit_path, {
            "quantity": "C",
            "exponent": fit.exponent,
            "coefficient": fit.coefficient,
            "residual_rms_log": fit.residual_rms,
            "n_points": fit.n_points,
        })
        outputs.append(fit_path)
        print(f"C vs {args.param}: exponent {fit.exponent:.4f} "
              f"(coefficient {fit.coefficient:.6g}, rms {fit.residual_rms:.2g})")
    if args.svg:
        svg_path = out / "sweep.svg"
        write_svg(svg_path, xs, ys, xlabel=args.param, ylabel="C (/s)",
                  title="coincidence rate sweep")
        outputs.append(svg_path)
    _write_manifest(out, "sweep", cfg, args.seed, outputs)
    return 0


def cmd_car_curve(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    if args.detuning is not None:
        values = []
        for thz in _parse_values(args.detuning):
            values.append(thz * 1e12)
            if not math.isfinite(values[-1]):
                raise ConfigError(f"--detuning: detuning must be finite in Hz, got {thz!r} THz")
        curve = car_vs_detuning(cfg.setup, values)
    else:
        curve = car_vs_mu(cfg.setup, _parse_values(args.mu))
    curve.meta["config_hash"] = cfg.config_hash
    curve_csv = out / "car_curve.csv"
    curve.write_csv(curve_csv)
    outputs = [curve_csv]
    for v, obs in zip(curve.values, curve.observables):
        print(f"{curve.param}={v:.6g}  CAR={obs.car:.6g}  C={obs.coincidences:.6g}/s")
    if args.svg:
        svg_path = out / "car_curve.svg"
        write_svg(svg_path, curve.column("param"), curve.column("CAR"),
                  xlabel=curve.param, ylabel="CAR", title="CAR curve")
        outputs.append(svg_path)
    _write_manifest(out, "car-curve", cfg, args.seed, outputs)
    return 0


def cmd_optimize(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    bounds = {}
    for item in args.bound:
        try:
            name, span = item.split("=")
            lo, hi = span.split(":")
            lo, hi = float(lo), float(hi)
        except ValueError as exc:
            raise ConfigError(f"bad bound {item!r}; use name=lo:hi") from exc
        if name in bounds:
            raise ConfigError(f"--bound {name} given more than once")
        bounds[name] = (lo, hi)
    if args.mu_min is not None:
        constraint = ("mu_min", args.mu_min)
    else:
        constraint = ("c_min", args.c_min)
    kind, value = constraint
    if not (math.isfinite(value) and value > 0.0):
        flag = "--" + kind.replace("_", "-")
        raise ConfigError(f"{flag} must be a finite positive number, got {value}")
    # Each grid point is a model evaluation; a point bound has one.
    points = math.prod(1 if lo == hi else args.grid_points for lo, hi in bounds.values())
    if points > MAX_VALUES:
        raise ConfigError(f"--grid-points {args.grid_points} over {len(bounds)} bounds "
                          f"gives {points} grid points, more than {MAX_VALUES}")
    result = optimize_car(cfg.setup, bounds, constraint, grid_points=args.grid_points)
    result_path = out / "design.json"
    # A CW pump has no pairs per pulse: it is written as null.
    _write_json(result_path, {
        "best": result.best,
        "car": result.car,
        "pairs_per_pulse": result.pairs_per_pulse,
        "coincidence_rate_per_s": result.coincidence_rate,
        "evaluations": len(result.trace),
    })
    print(f"best point: {result.best}")
    at = (f" at {result.pairs_per_pulse:.4g} pairs/pulse"
          if math.isfinite(result.pairs_per_pulse) else "")
    print(f"CAR {result.car:.6g}{at}, "
          f"C={result.coincidence_rate:.4g}/s ({len(result.trace)} evaluations)")
    _write_manifest(out, "optimize", cfg, args.seed, [result_path])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfwmlab",
        description="Photon-pair source modeling and virtual counting experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, svg=False):
        p.add_argument("--config", required=True,
                       help="config path, or the names paper-defaults / engineered-defaults")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--calibration", help="calibration JSON to overlay on the config")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="non-negative simulation seed, recorded in the manifest")
        if svg:
            p.add_argument("--svg", action="store_true", help="also write an SVG plot")

    p = sub.add_parser("rates", help="evaluate the analytic observables")
    common(p)
    p.add_argument("--power-mw", type=float, help="override the pump power")
    p.add_argument("--mode", choices=["binned", "gated"], help="accidental mode override")
    p.add_argument("--window-ps", type=float, help="coincidence window override")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("calibrate", help="fit eta_alpha and the noise table")
    common(p)
    p.add_argument("--measured-c", type=float, required=True)
    p.add_argument("--measured-n0", type=float, required=True)
    p.add_argument("--measured-n1", type=float, required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("histogram", help="simulate a counting run and histogram it")
    common(p, svg=True)
    p.add_argument("--duration", type=float, required=True, help="acquisition time, s")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("sweep", help="sweep one parameter of the analytic model")
    common(p, svg=True)
    p.add_argument("--param", required=True, help="dot path, e.g. pump.power_w")
    p.add_argument("--values", required=True, help="lo:hi:count[:log] or v1,v2,...")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("car-curve", help="CAR vs pairs-per-pulse or detuning")
    common(p, svg=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", help="pairs-per-pulse values, lo:hi:count[:log]")
    group.add_argument("--detuning", help="detuning values in THz, lo:hi:count[:log]")
    p.add_argument("--mode", choices=["binned", "gated"], help="accidental mode override")
    p.set_defaults(func=cmd_car_curve)

    p = sub.add_parser("optimize", help="maximize CAR over box bounds")
    common(p)
    p.add_argument("--bound", action="append", default=[],
                   help="name=lo:hi (detuning_hz, tau_s, rep_rate_hz, peak_power_w)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu-min", type=float, help="feasibility: pairs per pulse at least")
    group.add_argument("--c-min", type=float, help="feasibility: coincidence rate at least")
    p.add_argument("--grid-points", type=int, default=7)
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except InconsistentMeasurementError as exc:
        print(f"calibration inconsistency: {exc}", file=sys.stderr)
        return InconsistentMeasurementError.exit_code
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NumericsError.exit_code
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
