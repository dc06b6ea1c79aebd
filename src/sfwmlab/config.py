"""Experiment configuration: strict JSON schema, unit boundary, defaults.

The on-disk format is a single JSON document with units encoded in key
names (power_mw, detuning_thz, ...).  Unknown keys are rejected.  Loading
converts everything to an SI ``Setup`` tree and keeps the validated
document unchanged as ``ExperimentConfig.raw``: overrides and calibrations
edit a copy of it and load that again.

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
        if self.window_s <= 0.0:
            raise FieldError("window_s", "coincidence window must be positive", self.window_s)
        if self.accidental_mode not in ("binned", "gated"):
            raise FieldError("accidental_mode", "unknown accidental mode", self.accidental_mode)


# Matching tolerance for the signal/idler detuning symmetry check.
DETUNING_RTOL = 1e-9


def _check_channel_pair(idler: DetectionChannel, signal: DetectionChannel) -> None:
    if idler.detuning_hz >= 0.0 or signal.detuning_hz <= 0.0:
        raise ConfigError(
            "expected the idler below the pump (detuning < 0) and the signal above"
        )
    if not math.isclose(-idler.detuning_hz, signal.detuning_hz, rel_tol=DETUNING_RTOL):
        raise ConfigError(
            f"idler and signal detunings must be symmetric about the pump, got "
            f"{idler.detuning_hz:.6g} and {signal.detuning_hz:.6g}"
        )


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
        _check_channel_pair(self.idler, self.signal)
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


def get_path(setup: Setup, path: str):
    """Resolve a dot-addressed numeric field, e.g. ``pump.power_w``.

    Only dataclass fields are addressable: a derived property
    (``pump.duty_cycle``) or an attribute of a number cannot be set.
    """
    obj = setup
    for part in path.split("."):
        if not is_dataclass(obj) or part not in {f.name for f in fields(obj)}:
            raise ConfigError(f"unknown parameter path {path!r} (no field {part!r})")
        obj = getattr(obj, part)
    if not isinstance(obj, (int, float)):
        raise ConfigError(f"parameter path {path!r} does not address a numeric field")
    return obj


def set_path(setup: Setup, path: str, value):
    """Return a copy of the setup with one dot-addressed field replaced.

    ``channels.detuning_hz`` is special-cased to move both channels
    symmetrically (idler negative, signal positive).  A value out of its
    field's range is reported under ``path``.
    """
    try:
        if path == "channels.detuning_hz":
            return setup.with_detuning(value)
        parts = path.split(".")
        get_path(setup, path)  # validates
        objs = [setup]
        for part in parts[:-1]:
            objs.append(getattr(objs[-1], part))
        new = value
        for obj, attr in zip(reversed(objs), reversed(parts)):
            new = replace(obj, **{attr: new})
        return new
    except FieldError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ------------------------------------------------------------------
# JSON schema

_TOP_KEYS = ("waveguide", "pump", "coupling", "channels", "noise", "analysis")


def _require(section: dict, name: str, keys: set, optional: set = frozenset()):
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(section).__name__}")
    unknown = set(section) - keys - optional
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    missing = keys - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {name}: {sorted(missing)}")


def _finite(v, name: str, key: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{name}.{key} must be a finite number, got {v!r}")
    return float(v)


def _number(section: dict, name: str, key: str) -> float:
    return _finite(section[key], name, key)


def _construct(cls, section: dict, name: str, keys: dict, **fields):
    """``cls(**fields)``; a field out of range is reported by the key of
    ``section`` it was read from (``keys[field]``, else the field's own
    name), or that key's entry at fault, and the value as the document
    gives it."""
    try:
        return cls(**fields)
    except FieldError as exc:
        key = keys.get(exc.field, exc.field)
        if key not in section:
            raise
        value = section[key]
        if exc.index is not None:
            key, value = f"{key}[{exc.index}]", value[exc.index]
        raise ConfigError(f"{name}.{key}: {exc.requirement}, got {value!r}") from None


def _build_waveguide(raw: dict, pump_wavelength_m: float) -> WaveguideSpec:
    keys = {"length_cm", "prop_loss_db_per_cm", "eta_alpha"}
    optional = {"gamma_per_w_m", "n2_m2_per_w", "a_eff_um2",
                "dispersion_ps_per_nm_km", "beta2_s2_per_m"}
    _require(raw, "waveguide", keys, optional)

    if ("gamma_per_w_m" in raw) == ("n2_m2_per_w" in raw):
        raise ConfigError("waveguide needs exactly one of gamma_per_w_m or n2_m2_per_w")
    if ("n2_m2_per_w" in raw) != ("a_eff_um2" in raw):
        raise ConfigError("waveguide.a_eff_um2 goes with n2_m2_per_w: give both or neither")
    if ("dispersion_ps_per_nm_km" in raw) == ("beta2_s2_per_m" in raw):
        raise ConfigError(
            "waveguide needs exactly one of dispersion_ps_per_nm_km or beta2_s2_per_m"
        )

    if "gamma_per_w_m" in raw:
        gamma = _number(raw, "waveguide", "gamma_per_w_m")
    else:
        n2 = _number(raw, "waveguide", "n2_m2_per_w")
        a_eff_um2 = _number(raw, "waveguide", "a_eff_um2")
        for key, value in (("n2_m2_per_w", n2), ("a_eff_um2", a_eff_um2)):
            if value <= 0.0:
                raise ConfigError(f"waveguide.{key}: must be positive, got {raw[key]!r}")
        gamma = gamma_from_n2(n2, a_eff_um2 * 1e-12, pump_wavelength_m)
        if not 0.0 < gamma < math.inf:
            raise ConfigError(
                f"waveguide.n2_m2_per_w, waveguide.a_eff_um2: must give a positive finite "
                f"gamma, got {gamma!r} from {raw['n2_m2_per_w']!r} and {raw['a_eff_um2']!r}")

    if "beta2_s2_per_m" in raw:
        beta2 = _number(raw, "waveguide", "beta2_s2_per_m")
    else:
        beta2 = beta2_from_dispersion(
            _number(raw, "waveguide", "dispersion_ps_per_nm_km"), pump_wavelength_m
        )

    eta_alpha = raw["eta_alpha"]
    if eta_alpha == "analytic":
        mode, value = "analytic", None
    elif isinstance(eta_alpha, (int, float)) and not isinstance(eta_alpha, bool):
        mode, value = "calibrated", _number(raw, "waveguide", "eta_alpha")
    else:
        raise ConfigError("waveguide.eta_alpha must be 'analytic' or a number")

    return _construct(
        WaveguideSpec, raw, "waveguide",
        {"length_m": "length_cm", "eta_alpha_value": "eta_alpha"},
        length_m=_number(raw, "waveguide", "length_cm") / 100.0,
        prop_loss_db_per_cm=_number(raw, "waveguide", "prop_loss_db_per_cm"),
        gamma_per_w_m=gamma,
        beta2_s2_per_m=beta2,
        eta_alpha_mode=mode,
        eta_alpha_value=value,
    )


def _build_pump(raw: dict) -> PumpConfig:
    keys = {"wavelength_nm", "power_mw", "mode"}
    optional = {"tau_ps", "rep_rate_mhz"}
    _require(raw, "pump", keys, optional)
    mode = raw["mode"]
    if mode == "cw":
        if optional & set(raw):
            raise ConfigError("cw pump takes no tau_ps/rep_rate_mhz")
        extra = {}
    elif mode == "pulsed":
        if not optional <= set(raw):
            raise ConfigError("pulsed pump requires tau_ps and rep_rate_mhz")
        extra = {
            "tau_s": _number(raw, "pump", "tau_ps") * 1e-12,
            "rep_rate_hz": _number(raw, "pump", "rep_rate_mhz") * 1e6,
        }
    else:
        raise ConfigError(f"pump.mode must be 'cw' or 'pulsed', got {mode!r}")
    return _construct(
        PumpConfig, raw, "pump",
        {"wavelength_m": "wavelength_nm", "power_w": "power_mw", "tau_s": "tau_ps",
         "rep_rate_hz": "rep_rate_mhz"},
        wavelength_m=_number(raw, "pump", "wavelength_nm") * 1e-9,
        power_w=_number(raw, "pump", "power_mw") * 1e-3,
        mode=mode,
        **extra,
    )


def _build_coupling(raw: dict) -> CouplingSpec:
    keys = {"total_insertion_loss_db"}
    optional = ("input_split", "output_scale")
    _require(raw, "coupling", keys, set(optional))
    return _construct(
        CouplingSpec, raw, "coupling", {},
        total_insertion_loss_db=_number(raw, "coupling", "total_insertion_loss_db"),
        **{key: _number(raw, "coupling", key) for key in optional if key in raw},
    )


def _build_channel(raw: dict, name: str, pump: PumpConfig, expect_sign: int) -> DetectionChannel:
    keys = {"detuning_thz", "awg_fwhm_ghz", "bpf_fwhm_nm", "filter_loss_db",
            "detector_qe", "dark_rate_per_s", "jitter_fwhm_ps"}
    path = f"channels.{name}"
    _require(raw, path, keys)
    detuning = _number(raw, path, "detuning_thz") * 1e12
    if expect_sign < 0 and detuning >= 0:
        raise ConfigError(f"{path}.detuning_thz must be negative (below the pump)")
    if expect_sign > 0 and detuning <= 0:
        raise ConfigError(f"{path}.detuning_thz must be positive (above the pump)")
    channel_hz = pump.frequency_hz + detuning
    if not 0.0 < channel_hz < math.inf:
        raise ConfigError(f"{path}.detuning_thz must leave the channel frequency "
                          f"positive and finite, got {detuning / 1e12:g}")
    bpf_nm = _number(raw, path, "bpf_fwhm_nm")
    if bpf_nm <= 0.0:
        raise ConfigError(f"{path}.bpf_fwhm_nm must be positive, got {bpf_nm}")
    # Effective passband: the narrower of the demux channel and the bandpass
    # filter, rectangular approximation, at the channel's own wavelength.
    bpf_hz = filter_fwhm_to_bandwidth(bpf_nm, frequency_to_wavelength(channel_hz))
    awg_hz = _number(raw, path, "awg_fwhm_ghz") * 1e9
    # bpf_fwhm_nm is positive, so only the demux width can leave the
    # passband empty.
    return _construct(
        DetectionChannel, raw, path,
        {"bandwidth_hz": "awg_fwhm_ghz", "dark_rate_hz": "dark_rate_per_s",
         "jitter_fwhm_s": "jitter_fwhm_ps"},
        detuning_hz=detuning,
        bandwidth_hz=min(awg_hz, bpf_hz),
        filter_loss_db=_number(raw, path, "filter_loss_db"),
        detector_qe=_number(raw, path, "detector_qe"),
        dark_rate_hz=_number(raw, path, "dark_rate_per_s"),
        jitter_fwhm_s=_number(raw, path, "jitter_fwhm_ps") * 1e-12,
        label=name,
    )


def _build_noise(raw: dict) -> NoiseModel:
    keys = {"temperature_k", "raman_table", "pump_rejection"}
    optional = {"note"}
    _require(raw, "noise", keys, optional)
    table = raw["raman_table"]
    if not isinstance(table, list) or not all(
        isinstance(row, list) and len(row) == 2 for row in table
    ):
        raise ConfigError("noise.raman_table must be a list of [detuning_thz, rho] pairs")
    raman_table = tuple((_finite(d, "noise", "raman_table") * 1e12,
                         _finite(r, "noise", "raman_table")) for d, r in table)
    rej = raw["pump_rejection"]
    _require(rej, "noise.pump_rejection", {"base_db", "floor_db", "ramp_thz"})
    return _construct(
        NoiseModel, raw, "noise", {},
        raman_table=raman_table,
        temperature_k=_number(raw, "noise", "temperature_k"),
        pump_rejection=_construct(
            PumpRejection, rej, "noise.pump_rejection", {"ramp_hz": "ramp_thz"},
            base_db=_number(rej, "noise.pump_rejection", "base_db"),
            floor_db=_number(rej, "noise.pump_rejection", "floor_db"),
            ramp_hz=_number(rej, "noise.pump_rejection", "ramp_thz") * 1e12,
        ),
        **{key: str(raw[key]) for key in optional if key in raw},
    )


def _build_analysis(raw: dict) -> AnalysisOptions:
    keys = {"coincidence_window_ps", "accidental_mode", "tia"}
    _require(raw, "analysis", keys)
    tia = raw["tia"]
    _require(tia, "analysis.tia", {"bin_ps", "range_ns", "policy", "stop_delay_ns"})
    rng = tia["range_ns"]
    if not isinstance(rng, list) or len(rng) != 2:
        raise ConfigError("analysis.tia.range_ns must be [min, max]")
    return _construct(
        AnalysisOptions, raw, "analysis", {"window_s": "coincidence_window_ps"},
        window_s=_number(raw, "analysis", "coincidence_window_ps") * 1e-12,
        accidental_mode=str(raw["accidental_mode"]),
        tia=_construct(
            TiaConfig, tia, "analysis.tia",
            {"bin_width_s": "bin_ps", "range_s": "range_ns", "stop_delay_s": "stop_delay_ns"},
            bin_width_s=_number(tia, "analysis.tia", "bin_ps") * 1e-12,
            range_s=tuple(_finite(v, "analysis.tia", "range_ns") * 1e-9 for v in rng),
            policy=str(tia["policy"]),
            stop_delay_s=_number(tia, "analysis.tia", "stop_delay_ns") * 1e-9,
        ),
    )


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
    _require(raw, "config", set(_TOP_KEYS))
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

def _with_calibration(raw: dict, calibration: dict) -> dict:
    """A copy of a config document with a calibration document applied.

    A missing or empty ``note`` keeps the config's own note.
    """
    _require(calibration, "calibration file", {"eta_alpha", "raman_table"}, {"note"})
    raw = copy.deepcopy(raw)
    for key, value in calibration.items():
        if key != "note" or value:
            raw[_CALIBRATION_SECTIONS[key]][key] = value
    return raw


def _table_thz(table) -> list:
    """Noise table rows as the document writes them: [detuning_thz, rho]."""
    return [[d / 1e12, r] for d, r in table]


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
    calibrated = load_config(_with_calibration(cfg.raw, {
        "eta_alpha": eta_alpha,
        "raman_table": _table_thz(table),
        "note": "calibrated against C={}, N0={}, N1={} at {} mW".format(
            measured_c, measured_n0, measured_n1, cfg.raw["pump"]["power_mw"]),
    }))
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


def _uncalibrated_paper_raw() -> dict:
    """The measured device before calibration: analytic in-guide survival
    and no scattering."""
    return _with_calibration(_shipped_raw("paper-defaults"), {
        "eta_alpha": "analytic",
        "raman_table": [[-8.5, 0.0], [8.5, 0.0]],
        "note": "uncalibrated",
    })


def paper_defaults(calibrated: bool = True) -> ExperimentConfig:
    """The measured-device configuration as shipped, or before calibration."""
    if calibrated:
        return load_config("paper-defaults")
    return load_config(_uncalibrated_paper_raw())


def engineered_defaults() -> ExperimentConfig:
    """The dispersion-engineered pulsed design as shipped."""
    return load_config("engineered-defaults")


def apply_calibration_file(cfg: ExperimentConfig, path) -> ExperimentConfig:
    """Overlay a calibration file (eta_alpha + noise table) on a config."""
    return load_config(_with_calibration(cfg.raw, _read_json(path, "calibration file")))
