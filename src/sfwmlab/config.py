"""Experiment configuration: strict JSON schema, unit boundary, defaults.

The on-disk format is a single JSON document with units encoded in key
names (power_mw, detuning_thz, ...).  Unknown keys are rejected.  Loading
converts everything to an SI ``Setup`` tree and keeps the validated
document unchanged as ``ExperimentConfig.raw``: overrides and calibrations
edit a copy of it (``overlay``) and load that again.

Two documents ship in ``sfwmlab.data`` and load by name: ``paper-defaults``,
the measured device, and ``engineered-defaults``, a pulsed design in the
low-scattering window.  Each file is the one statement of its configuration.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from importlib import resources

from .devices import (
    CouplingSpec,
    DetectionChannel,
    NoiseModel,
    PumpConfig,
    PumpRejection,
    WaveguideSpec,
)
from .errors import ConfigError, FieldError, NumericsError
from .eventsim import TiaConfig
from .model import (
    ModelObservables,
    build_raman_table,
    calibrate_eta_alpha,
    calibrate_raman,
    predict_observables,
)
from .units import (
    beta2_from_dispersion,
    filter_fwhm_to_bandwidth,
    frequency_to_wavelength,
    gamma_from_n2,
)


@dataclass(frozen=True)
class AnalysisOptions:
    """Coincidence-counting conventions used when evaluating observables."""

    window_s: float
    accidental_mode: str
    tia: TiaConfig

    def __post_init__(self):
        if not self.window_s > 0.0:
            raise FieldError("window_s", "coincidence window must be positive", self.window_s)
        if self.accidental_mode not in ("binned", "gated"):
            raise FieldError("accidental_mode", "unknown accidental mode", self.accidental_mode)


# Matching tolerance for the signal/idler detuning symmetry check.
DETUNING_RTOL = 1e-9


@dataclass(frozen=True)
class Setup:
    """Full SI description of one source + detection configuration.

    Construction checks the rules that span its parts: the idler sits below
    the pump and the signal symmetrically above, and gated accidentals need
    a pulsed pump.  The model takes a ``Setup`` and relies on both.
    """

    waveguide: WaveguideSpec
    pump: PumpConfig
    coupling: CouplingSpec
    idler: DetectionChannel
    signal: DetectionChannel
    noise: NoiseModel
    analysis: AnalysisOptions

    def __post_init__(self):
        idler, signal = self.idler.detuning_hz, self.signal.detuning_hz
        if idler >= 0.0 or signal <= 0.0:
            raise ConfigError(
                "expected the idler below the pump (detuning < 0) and the signal above"
            )
        if not math.isclose(-idler, signal, rel_tol=DETUNING_RTOL):
            raise ConfigError(
                f"idler and signal detunings must be symmetric about the pump, got "
                f"{idler:.6g} and {signal:.6g}"
            )
        if self.analysis.accidental_mode == "gated" and self.pump.mode != "pulsed":
            raise ConfigError("analysis.accidental_mode 'gated' requires a pulsed pump")

    def predict(self) -> ModelObservables:
        return predict_observables(self)

    def channels_at(self, detuning_hz: float) -> dict:
        """The idler and signal moved to symmetric detunings of magnitude |nu|,
        as keyword arguments of ``replace``."""
        nu = abs(detuning_hz)
        if nu <= 0.0:
            raise FieldError("detuning_hz", "detuning magnitude must be positive", detuning_hz)
        return {
            "idler": replace(self.idler, detuning_hz=-nu),
            "signal": replace(self.signal, detuning_hz=+nu),
        }

    def with_detuning(self, detuning_hz: float) -> "Setup":
        """Move both channels to symmetric detunings of magnitude |nu|."""
        return replace(self, **self.channels_at(detuning_hz))


def set_path(setup: Setup, path: str, value):
    """Return a copy of the setup with one dot-addressed numeric field
    replaced, e.g. ``pump.power_w``.

    Only dataclass fields are addressable: a derived property
    (``pump.duty_cycle``) or an attribute of a number cannot be set.
    ``channels.detuning_hz`` is special-cased to move both channels
    symmetrically (idler negative, signal positive).  A value out of its
    field's range is reported under ``path``.
    """
    try:
        if path == "channels.detuning_hz":
            return setup.with_detuning(value)
        parts = path.split(".")
        objs = [setup]
        for part in parts:
            if not is_dataclass(objs[-1]) or part not in {f.name for f in fields(objs[-1])}:
                raise ConfigError(f"unknown parameter path {path!r} (no field {part!r})")
            objs.append(getattr(objs[-1], part))
        if not isinstance(objs.pop(), (int, float)):
            raise ConfigError(f"parameter path {path!r} does not address a numeric field")
        new = value
        for obj, attr in zip(reversed(objs), reversed(parts)):
            new = replace(obj, **{attr: new})
        return new
    except FieldError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ------------------------------------------------------------------
# JSON schema
#
# One key table per section.  It maps each key the section may hold to the
# field the key fills and to how its value is read: a string by ``str``, a
# number by its conversion to SI, one float operation (``float`` keeps the
# number as it is).  A key without a reader is read by its section's
# ``_build_*`` function: ``eta_alpha`` ("analytic" or a number), the lists
# ``raman_table`` ([detuning_thz, rho] rows) and ``range_ns`` ([min, max]),
# and the subsections.  From the tables come the keys a section may hold, the
# fields read from it, and the key a field out of range is reported by.

_TOP_KEYS = ("waveguide", "pump", "coupling", "channels", "noise", "analysis")

_WAVEGUIDE = {"length_cm": ("length_m", lambda cm: cm / 100.0),
              "prop_loss_db_per_cm": ("prop_loss_db_per_cm", float),
              "gamma_per_w_m": ("gamma_per_w_m", float),
              "n2_m2_per_w": ("n2_m2_per_w", float),
              "a_eff_um2": ("a_eff_m2", lambda um2: um2 * 1e-12),
              "dispersion_ps_per_nm_km": ("dispersion_ps_per_nm_km", float),
              "beta2_s2_per_m": ("beta2_s2_per_m", float),
              "eta_alpha": ("eta_alpha_value", None)}
_PUMP = {"wavelength_nm": ("wavelength_m", lambda nm: nm * 1e-9),
         "power_mw": ("power_w", lambda mw: mw * 1e-3),
         "mode": ("mode", str),
         "tau_ps": ("tau_s", lambda ps: ps * 1e-12),
         "rep_rate_mhz": ("rep_rate_hz", lambda mhz: mhz * 1e6)}
_COUPLING = {"total_insertion_loss_db": ("total_insertion_loss_db", float),
             "input_split": ("input_split", float),
             "output_scale": ("output_scale", float)}
# The demux width fills the passband, which ``_build_channel`` narrows to
# the bandpass filter's width.
_CHANNEL = {"detuning_thz": ("detuning_hz", lambda thz: thz * 1e12),
            "awg_fwhm_ghz": ("bandwidth_hz", lambda ghz: ghz * 1e9),
            "bpf_fwhm_nm": ("bpf_fwhm_nm", float),
            "filter_loss_db": ("filter_loss_db", float),
            "detector_qe": ("detector_qe", float),
            "dark_rate_per_s": ("dark_rate_hz", float),
            "jitter_fwhm_ps": ("jitter_fwhm_s", lambda ps: ps * 1e-12)}
_NOISE = {"temperature_k": ("temperature_k", float),
          "raman_table": ("raman_table", None),
          "pump_rejection": ("pump_rejection", None),
          "note": ("note", str)}
_PUMP_REJECTION = {"base_db": ("base_db", float),
                   "floor_db": ("floor_db", float),
                   "ramp_thz": ("ramp_hz", lambda thz: thz * 1e12)}
_ANALYSIS = {"coincidence_window_ps": ("window_s", lambda ps: ps * 1e-12),
             "accidental_mode": ("accidental_mode", str),
             "tia": ("tia", None)}
_TIA = {"bin_ps": ("bin_width_s", lambda ps: ps * 1e-12),
        "range_ns": ("range_s", None),
        "policy": ("policy", str),
        "stop_delay_ns": ("stop_delay_s", lambda ns: ns * 1e-9)}


def _require(section: dict, name: str, keys, optional: set = frozenset()):
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(section).__name__}")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    missing = set(keys) - optional - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {name}: {sorted(missing)}")


def _finite(v, name: str, key: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{name}.{key} must be a finite number, got {v!r}")
    return float(v)


def _fields(section: dict, name: str, table: dict) -> dict:
    """The fields ``section`` fills by the keys it gives that ``table`` can
    read: a string by ``str``, a number checked finite and converted to SI."""
    return {field: to_si(section[key] if to_si is str else _finite(section[key], name, key))
            for key, (field, to_si) in table.items() if to_si and key in section}


def _construct(cls, section: dict, name: str, table: dict, **fields):
    """``cls(**fields)``; a field out of range is reported by the key of
    ``section`` that fills it in ``table``, or that key's entry at fault,
    and the value as the document gives it."""
    try:
        return cls(**fields)
    except FieldError as exc:
        key = next((key for key, (field, _) in table.items() if field == exc.field), None)
        if key not in section:
            raise
        value = section[key]
        if exc.index is not None:
            key, value = f"{key}[{exc.index}]", value[exc.index]
        raise ConfigError(f"{name}.{key}: {exc.requirement}, got {value!r}") from None


def _build_waveguide(raw: dict, pump_wavelength_m: float) -> WaveguideSpec:
    _require(raw, "waveguide", _WAVEGUIDE, {"gamma_per_w_m", "n2_m2_per_w", "a_eff_um2",
                                            "dispersion_ps_per_nm_km", "beta2_s2_per_m"})
    if ("gamma_per_w_m" in raw) == ("n2_m2_per_w" in raw):
        raise ConfigError("waveguide needs exactly one of gamma_per_w_m or n2_m2_per_w")
    if ("n2_m2_per_w" in raw) != ("a_eff_um2" in raw):
        raise ConfigError("waveguide.a_eff_um2 goes with n2_m2_per_w: give both or neither")
    if ("dispersion_ps_per_nm_km" in raw) == ("beta2_s2_per_m" in raw):
        raise ConfigError(
            "waveguide needs exactly one of dispersion_ps_per_nm_km or beta2_s2_per_m"
        )
    fields = _fields(raw, "waveguide", _WAVEGUIDE)

    if "n2_m2_per_w" in fields:
        for key in ("n2_m2_per_w", "a_eff_um2"):
            if raw[key] <= 0.0:
                raise ConfigError(f"waveguide.{key}: must be positive, got {raw[key]!r}")
        try:
            gamma = gamma_from_n2(fields.pop("n2_m2_per_w"), fields.pop("a_eff_m2"),
                                  pump_wavelength_m)
        except (ValueError, ZeroDivisionError):  # A_eff, or lambda * A_eff, underflows to 0
            gamma = math.inf
        if not 0.0 < gamma < math.inf:
            raise ConfigError(
                f"waveguide.n2_m2_per_w, waveguide.a_eff_um2: must give a positive finite "
                f"gamma, got {gamma!r} from {raw['n2_m2_per_w']!r} and {raw['a_eff_um2']!r}")
        fields["gamma_per_w_m"] = gamma
    if "dispersion_ps_per_nm_km" in fields:
        try:
            fields["beta2_s2_per_m"] = beta2_from_dispersion(
                fields.pop("dispersion_ps_per_nm_km"), pump_wavelength_m)
        except OverflowError:  # the wavelength squared
            raise ConfigError(f"waveguide.dispersion_ps_per_nm_km: beta2 overflows at the pump "
                              f"wavelength, {pump_wavelength_m:g} m") from None

    eta_alpha = raw["eta_alpha"]
    if eta_alpha == "analytic":
        mode = "analytic"
    elif isinstance(eta_alpha, (int, float)) and not isinstance(eta_alpha, bool):
        mode = "calibrated"
        fields["eta_alpha_value"] = _finite(eta_alpha, "waveguide", "eta_alpha")
    else:
        raise ConfigError("waveguide.eta_alpha must be 'analytic' or a number")
    return _construct(WaveguideSpec, raw, "waveguide", _WAVEGUIDE, eta_alpha_mode=mode,
                      **fields)


def _build_pump(raw: dict) -> PumpConfig:
    pulse = {"tau_ps", "rep_rate_mhz"}
    _require(raw, "pump", _PUMP, pulse)
    mode = raw["mode"]
    if mode == "cw":
        if pulse & set(raw):
            raise ConfigError("cw pump takes no tau_ps/rep_rate_mhz")
    elif mode == "pulsed":
        if not pulse <= set(raw):
            raise ConfigError("pulsed pump requires tau_ps and rep_rate_mhz")
    else:
        raise ConfigError(f"pump.mode must be 'cw' or 'pulsed', got {mode!r}")
    return _construct(PumpConfig, raw, "pump", _PUMP, **_fields(raw, "pump", _PUMP))


def _build_coupling(raw: dict) -> CouplingSpec:
    _require(raw, "coupling", _COUPLING, {"input_split", "output_scale"})
    return _construct(CouplingSpec, raw, "coupling", _COUPLING,
                      **_fields(raw, "coupling", _COUPLING))


def _build_channel(raw: dict, name: str, pump: PumpConfig, expect_sign: int) -> DetectionChannel:
    path = f"channels.{name}"
    _require(raw, path, _CHANNEL)
    fields = _fields(raw, path, _CHANNEL)
    detuning = fields["detuning_hz"]
    if expect_sign < 0 and detuning >= 0:
        raise ConfigError(f"{path}.detuning_thz must be negative (below the pump)")
    if expect_sign > 0 and detuning <= 0:
        raise ConfigError(f"{path}.detuning_thz must be positive (above the pump)")
    channel_hz = pump.frequency_hz + detuning
    if not 0.0 < channel_hz < math.inf:
        raise ConfigError(f"{path}.detuning_thz must leave the channel frequency "
                          f"positive and finite, got {detuning / 1e12:g}")
    bpf_nm = fields.pop("bpf_fwhm_nm")
    if bpf_nm <= 0.0:
        raise ConfigError(f"{path}.bpf_fwhm_nm must be positive, got {bpf_nm}")
    # Effective passband: the narrower of the demux channel and the bandpass
    # filter, rectangular approximation, at the channel's own wavelength.
    # bpf_fwhm_nm is positive, so only the demux width can leave the
    # passband empty.
    fields["bandwidth_hz"] = min(
        fields["bandwidth_hz"],
        filter_fwhm_to_bandwidth(bpf_nm, frequency_to_wavelength(channel_hz)))
    return _construct(DetectionChannel, raw, path, _CHANNEL, label=name, **fields)


def _build_noise(raw: dict) -> NoiseModel:
    _require(raw, "noise", _NOISE, {"note"})
    table = raw["raman_table"]
    if not isinstance(table, list) or not all(
        isinstance(row, list) and len(row) == 2 for row in table
    ):
        raise ConfigError("noise.raman_table must be a list of [detuning_thz, rho] pairs")
    raman_table = tuple((_finite(d, "noise", "raman_table") * 1e12,
                         _finite(r, "noise", "raman_table")) for d, r in table)
    rej = raw["pump_rejection"]
    _require(rej, "noise.pump_rejection", _PUMP_REJECTION)
    fields = _fields(raw, "noise", _NOISE)
    fields["pump_rejection"] = _construct(
        PumpRejection, rej, "noise.pump_rejection", _PUMP_REJECTION,
        **_fields(rej, "noise.pump_rejection", _PUMP_REJECTION))
    return _construct(NoiseModel, raw, "noise", _NOISE, raman_table=raman_table, **fields)


def _build_analysis(raw: dict) -> AnalysisOptions:
    _require(raw, "analysis", _ANALYSIS)
    tia = raw["tia"]
    _require(tia, "analysis.tia", _TIA)
    rng = tia["range_ns"]
    if not isinstance(rng, list) or len(rng) != 2:
        raise ConfigError("analysis.tia.range_ns must be [min, max]")
    fields = _fields(raw, "analysis", _ANALYSIS)
    fields["tia"] = _construct(
        TiaConfig, tia, "analysis.tia", _TIA,
        range_s=tuple(_finite(v, "analysis.tia", "range_ns") * 1e-9 for v in rng),
        **_fields(tia, "analysis.tia", _TIA))
    return _construct(AnalysisOptions, raw, "analysis", _ANALYSIS, **fields)


# A calibration document holds what a calibration fits: ``eta_alpha``,
# ``raman_table`` and ``note``.  Each sits in a config document under the
# same key, in the section named here.
_CALIBRATION_SECTIONS = {"eta_alpha": "waveguide", "raman_table": "noise", "note": "noise"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated configuration document plus its SI ``Setup`` view."""

    raw: dict
    setup: Setup

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw)

    @property
    def calibration(self) -> dict:
        """The calibration document this configuration carries."""
        return {key: self.raw[section][key] for key, section in _CALIBRATION_SECTIONS.items()
                if key in self.raw[section]}


def validate_config(raw: dict) -> Setup:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    _require(raw, "config", _TOP_KEYS)
    pump = _build_pump(raw["pump"])
    waveguide = _build_waveguide(raw["waveguide"], pump.wavelength_m)
    coupling = _build_coupling(raw["coupling"])
    channels = raw["channels"]
    _require(channels, "channels", {"idler", "signal"})
    idler = _build_channel(channels["idler"], "idler", pump, expect_sign=-1)
    signal = _build_channel(channels["signal"], "signal", pump, expect_sign=+1)
    noise = _build_noise(raw["noise"])
    analysis = _build_analysis(raw["analysis"])
    return Setup(
        waveguide=waveguide,
        pump=pump,
        coupling=coupling,
        idler=idler,
        signal=signal,
        noise=noise,
        analysis=analysis,
    )


def _read_json(path, what: str):
    """Parse a JSON file; undecodable text or bad JSON is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _shipped_raw(name: str) -> dict:
    """The document of a shipped configuration, not yet validated."""
    return json.loads(resources.files("sfwmlab.data").joinpath(_NAMED_CONFIGS[name]).read_text())


def load_config(source) -> ExperimentConfig:
    """Load and validate a configuration from a path, a shipped name, or a dict."""
    if isinstance(source, dict):
        raw = copy.deepcopy(source)
    elif str(source) in _NAMED_CONFIGS:
        raw = _shipped_raw(str(source))
    else:
        raw = _read_json(source, "configuration")
    return ExperimentConfig(raw=raw, setup=validate_config(raw))


def config_hash(raw: dict) -> str:
    """Platform-stable digest of a configuration document."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


_NAMED_CONFIGS = {
    "paper-defaults": "paper_defaults.json",
    "engineered-defaults": "engineered_defaults.json",
}


# ------------------------------------------------------------------
# Reference configurations
#
# The measured device is the shipped data/paper_defaults.json: a 7.1 cm
# chalcogenide strip waveguide pumped at 1549.315 nm, with a 40-channel
# 100 GHz demux (50 GHz channel FWHM), 0.5 nm bandpass cleanup filters, and
# two superconducting detectors whose 200/sqrt(2) ps FWHM jitter gives a
# 200 ps coincidence peak, read out through a start-stop time interval
# analyzer with a 2 m (11.1 ns) delay line on the stop arm.  The file holds
# the calibration below; the uncalibrated device is the same document with
# the analytic survival and no scattering.
#
# The engineered design is the shipped data/engineered_defaults.json: the
# calibrated device with beta2 lowered to 1e-26 s^2/m so that phase matching
# reaches 7.4 THz, both channels moved there, and a 5 ps, 100 MHz pulsed
# pump.  Its noise table is the calibrated one with a reduced-scattering
# window over 7.05-7.75 THz.  The window's coefficient was inverse-calibrated
# once, so that the binned CAR at 0.01 pairs per pulse is 250: a design
# target, not a measurement, as the table's note says.  Re-targeting the
# design means editing the file's window rows.

# Reference measurement used for the shipped calibration: net coincidence
# rate and the two singles rates at 57 mW in-waveguide CW pump power and
# 1.4 THz detuning.
MEASURED_COINCIDENCE_RATE = 80.0
MEASURED_SINGLES0 = 3.45e6
MEASURED_SINGLES1 = 1.34e6

def overlay(raw: dict, values: dict) -> dict:
    """A copy of a config document with each ``(section, key)`` of ``values``
    set to its value: the one route by which a document is edited."""
    raw = copy.deepcopy(raw)
    for (section, key), value in values.items():
        raw[section][key] = value
    return raw


def _calibration_values(calibration) -> dict:
    """A calibration document as ``(section, key)`` values for ``overlay``.

    A missing or empty ``note`` keeps the config's own note.
    """
    _require(calibration, "calibration file", _CALIBRATION_SECTIONS, {"note"})
    return {(_CALIBRATION_SECTIONS[key], key): value for key, value in calibration.items()
            if key != "note" or value}


def read_calibration(path) -> dict:
    """A calibration file as ``(section, key)`` values for ``overlay``."""
    return _calibration_values(_read_json(path, "calibration file"))


# Largest relative miss of a re-predicted rate that a calibration may have.
# The reference measurement (C = 80/s, N0 = 3.45e6/s, N1 = 1.34e6/s)
# round-trips to 1.4e-16, and acceptance criterion 3 holds it to 1e-9.
_CALIBRATION_RTOL = 1e-9


def calibrate_config(
    cfg: ExperimentConfig,
    measured_c: float,
    measured_n0: float,
    measured_n1: float,
) -> ExperimentConfig:
    """Calibrate a configuration against measured coincidence/singles rates.

    Fits the in-waveguide survival from the coincidence rate, then the
    per-side scattering coefficients from the singles rates, and rebuilds
    the noise table anchored at the channel detuning.  Re-predicting with
    the returned configuration reproduces the three inputs to
    ``_CALIBRATION_RTOL``; a calibration that does not, such as one whose
    re-predicted C underflows to 0 for a subnormal measured C, raises
    ``NumericsError`` naming the quantity.
    """
    s = cfg.setup
    eta_alpha = calibrate_eta_alpha(measured_c, s)
    wg_cal = replace(
        s.waveguide, eta_alpha_mode="calibrated", eta_alpha_value=eta_alpha
    )
    rho0, rho1 = calibrate_raman(measured_n0, measured_n1, replace(s, waveguide=wg_cal))
    table = build_raman_table(
        rho_stokes=rho0,
        rho_anti_stokes=rho1,
        anchor_hz=abs(s.idler.detuning_hz),
        temperature_k=s.noise.temperature_k,
    )
    calibrated = load_config(overlay(cfg.raw, _calibration_values({
        "eta_alpha": eta_alpha,
        "raman_table": [[d / 1e12, r] for d, r in table],
        "note": "calibrated against C={}, N0={}, N1={} at {} mW".format(
            measured_c, measured_n0, measured_n1, cfg.raw["pump"]["power_mw"]),
    })))
    check = calibrated.setup.predict()
    for name, measured, value in (("C", measured_c, check.coincidences),
                                  ("N0", measured_n0, check.singles0),
                                  ("N1", measured_n1, check.singles1)):
        if not abs(value - measured) <= _CALIBRATION_RTOL * abs(measured):
            raise NumericsError(
                f"the calibration does not reproduce the measured {name}: it "
                f"re-predicts {value:.6g}/s for {measured:.6g}/s (relative "
                f"tolerance {_CALIBRATION_RTOL:g})")
    return calibrated


def paper_defaults(calibrated: bool = True) -> ExperimentConfig:
    """The measured-device configuration as shipped, or before calibration:
    analytic in-guide survival and no scattering."""
    if calibrated:
        return load_config("paper-defaults")
    return load_config(overlay(_shipped_raw("paper-defaults"), _calibration_values({
        "eta_alpha": "analytic",
        "raman_table": [[-8.5, 0.0], [8.5, 0.0]],
        "note": "uncalibrated",
    })))


def engineered_defaults() -> ExperimentConfig:
    """The dispersion-engineered pulsed design as shipped."""
    return load_config("engineered-defaults")


def apply_calibration_file(cfg: ExperimentConfig, path) -> ExperimentConfig:
    """Overlay a calibration file (eta_alpha + noise table) on a config."""
    return load_config(overlay(cfg.raw, read_calibration(path)))
