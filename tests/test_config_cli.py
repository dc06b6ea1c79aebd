import copy
import json
import math
import re
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sfwmlab import cli
from sfwmlab.cli import main
from sfwmlab.config import (
    MEASURED_COINCIDENCE_RATE,
    MEASURED_SINGLES0,
    MEASURED_SINGLES1,
    calibrate_config,
    config_hash,
    load_config,
    paper_defaults,
)
from sfwmlab.errors import ConfigError
from sfwmlab.eventsim import MAX_TIA_BINS
from sfwmlab.explore import car_vs_mu

from conftest import make_noise_free, with_analysis


class TestConfigDocument:
    def test_load_save_load_is_identity(self, tmp_path, paper_cfg):
        # A loaded document, written out as JSON, loads back unchanged.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(paper_cfg.raw, indent=2))
        reloaded = load_config(path)
        assert reloaded.raw == paper_cfg.raw
        assert reloaded.config_hash == paper_cfg.config_hash
        assert reloaded.setup == paper_cfg.setup

    def test_unknown_key_rejected(self, clean_raw):
        clean_raw["waveguide"]["bogus_field"] = 1.0
        with pytest.raises(ConfigError, match="bogus_field"):
            load_config(clean_raw)

    def test_missing_key_rejected(self, clean_raw):
        del clean_raw["pump"]["power_mw"]
        with pytest.raises(ConfigError, match="power_mw"):
            load_config(clean_raw)

    def test_wrong_detuning_sign_rejected(self, clean_raw):
        clean_raw["channels"]["idler"]["detuning_thz"] = 1.4
        with pytest.raises(ConfigError, match="idler"):
            load_config(clean_raw)

    def test_asymmetric_detunings_rejected(self, clean_raw):
        clean_raw["channels"]["signal"]["detuning_thz"] = 1.5
        with pytest.raises(ConfigError, match="symmetric"):
            load_config(clean_raw)

    def test_gamma_specified_both_ways_rejected(self, clean_raw):
        clean_raw["waveguide"]["n2_m2_per_w"] = 3e-18
        clean_raw["waveguide"]["a_eff_um2"] = 0.86
        with pytest.raises(ConfigError, match="gamma"):
            load_config(clean_raw)

    def test_gamma_from_n2_route(self, clean_raw):
        del clean_raw["waveguide"]["gamma_per_w_m"]
        clean_raw["waveguide"]["n2_m2_per_w"] = 3e-18
        clean_raw["waveguide"]["a_eff_um2"] = 0.86
        cfg = load_config(clean_raw)
        assert cfg.setup.waveguide.gamma_per_w_m == pytest.approx(14.15, abs=0.05)

    @pytest.mark.parametrize("a_eff_um2", [0.86, -1.0])
    def test_a_eff_without_n2_rejected(self, clean_raw, a_eff_um2):
        # A_eff only feeds the n2 route; next to gamma it would be ignored.
        clean_raw["waveguide"]["a_eff_um2"] = a_eff_um2
        with pytest.raises(ConfigError, match="a_eff_um2"):
            load_config(clean_raw)

    @pytest.mark.parametrize("tia", [{"range_ns": [-1e308, 1e308]}, {"bin_ps": 1e-6}])
    def test_tia_bin_count_capped(self, clean_raw, tia):
        # 1e308 spans overflow an int bin count; 1e-6 ps bins over 2.2 ns
        # would be 2.2e9 bins.  Both are rejected on loading.
        clean_raw["analysis"]["tia"].update(tia)
        message = re.escape(f"analysis.tia.bin_ps: bin width must give at most "
                            f"{MAX_TIA_BINS} bins over the delay range")
        with pytest.raises(ConfigError, match="^" + message):
            load_config(clean_raw)

    @pytest.mark.parametrize("section, key, value", [
        ("pump", "power_mw", math.nan),
        ("waveguide", "eta_alpha", math.inf),
        ("coupling", "total_insertion_loss_db", -math.inf),
        pytest.param("analysis.tia", "range_ns", [10.0, math.inf], id="tia-range_ns-value3"),
        ("noise", "raman_table", [[-1.4, math.nan], [1.4, 0.4]]),
        ("channels.idler", "detector_qe", math.nan),
        ("analysis.tia", "bin_ps", math.inf),
        ("noise.pump_rejection", "base_db", -math.inf),
    ])
    def test_non_finite_numbers_rejected(self, clean_raw, section, key, value):
        # The message names the full dotted path of the key.
        target = clean_raw
        for part in section.split("."):
            target = target[part]
        target[key] = value
        message = re.escape(f"{section}.{key} must be a finite number")
        with pytest.raises(ConfigError, match="^" + message):
            load_config(clean_raw)

    @pytest.mark.parametrize("section, key, value, message", [
        ("analysis.tia", "bin_ps", 0, "bin width must be positive, got 0"),
        ("pump", "power_mw", -1, "pump power must be non-negative, got -1"),
        ("channels.idler", "detector_qe", 1.5, "detector QE must be in (0, 1], got 1.5"),
        ("analysis", "coincidence_window_ps", -5,
         "coincidence window must be positive, got -5"),
        ("analysis.tia", "range_ns", [5, 1], "delay range must not be empty, got [5, 1]"),
        ("analysis.tia", "stop_delay_ns", 500,
         "stop delay must lie in the delay range, got 500"),
        ("channels.signal", "awg_fwhm_ghz", -3, "channel bandwidth must be positive, got -3"),
        ("noise.pump_rejection", "ramp_thz", 0,
         "rejection ramp width must be positive, got 0"),
        ("waveguide", "length_cm", 0, "waveguide length must be positive, got 0"),
    ])
    def test_range_errors_name_the_key(self, clean_raw, section, key, value, message):
        # The message starts with the full dotted path of the key and gives
        # the value as the document writes it, not in SI units.
        target = clean_raw
        for part in section.split("."):
            target = target[part]
        target[key] = value
        expected = re.escape(f"{section}.{key}: {message}")
        with pytest.raises(ConfigError, match=f"^{expected}$"):
            load_config(clean_raw)

    def test_gated_accidentals_need_a_pulsed_pump(self, clean_raw):
        clean_raw["analysis"]["accidental_mode"] = "gated"
        with pytest.raises(ConfigError, match="analysis.accidental_mode"):
            load_config(clean_raw)

    @pytest.mark.parametrize("path, value, match", [
        (("pump",), 5, "pump must be a JSON object"),
        (("channels", "idler"), None, "channels.idler must be a JSON object"),
        (("noise", "pump_rejection"), [40.0], "pump_rejection must be a JSON object"),
        (("coupling", "input_split"), "0.5", "input_split"),
        (("coupling", "output_scale"), None, "output_scale"),
        (("noise", "raman_table"), [["-8.5", 0.0], [8.5, 0.0]], "raman_table"),
        (("noise", "raman_table"), [[-8.5, {}], [8.5, 0.0]], "raman_table"),
        (("channels", "signal", "bpf_fwhm_nm"), 0.0, "bpf_fwhm_nm"),
        (("channels", "idler", "bpf_fwhm_nm"), -0.5, "bpf_fwhm_nm"),
        (("channels", "idler", "detuning_thz"), -500.0, "detuning_thz"),
    ])
    def test_malformed_values_rejected(self, clean_raw, path, value, match):
        target = clean_raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=match):
            load_config(clean_raw)

    def test_effective_passband_is_narrower_filter(self, paper_cfg):
        # 50 GHz demux channel against a ~62 GHz bandpass: the demux wins.
        assert paper_cfg.setup.idler.bandwidth_hz == pytest.approx(50e9, rel=1e-12)

    def test_named_configs_load(self):
        for name in ("paper-defaults", "engineered-defaults"):
            cfg = load_config(name)
            assert cfg.setup.pump.power_w > 0

    def test_hash_stable_under_key_order(self, paper_cfg):
        shuffled = {k: paper_cfg.raw[k] for k in reversed(list(paper_cfg.raw))}
        assert config_hash(shuffled) == paper_cfg.config_hash


def _key_paths(doc, prefix=()):
    """Every dict key and list index of a JSON document, as key paths."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


def _n2_beta2_raw() -> dict:
    """paper-defaults before calibration on the other two waveguide routes:
    gamma from n2 and A_eff, dispersion given as beta2."""
    raw = paper_defaults(calibrated=False).raw
    waveguide = raw["waveguide"]
    del waveguide["gamma_per_w_m"], waveguide["dispersion_ps_per_nm_km"]
    waveguide.update(n2_m2_per_w=3e-18, a_eff_um2=0.86, beta2_s2_per_m=3.048e-25)
    return raw


_FUZZED_DOCS = (load_config("paper-defaults").raw, load_config("engineered-defaults").raw,
                _n2_beta2_raw())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(_FUZZED_DOCS).flatmap(
           lambda doc: st.tuples(st.just(doc), st.sampled_from(list(_key_paths(doc))))),
       value=st.integers() | st.floats() | _JSON_VALUES)
def test_load_config_accepts_or_raises_config_error(case, value):
    # One value of a document replaced by any JSON value, a bare number
    # (floats include nan and +-inf) in most cases since most values of a
    # document are numbers: the document loads, or loading raises ConfigError.
    # The documents are paper-defaults, engineered-defaults (pulsed) and
    # one on the n2 and beta2 routes.
    doc, path = case
    raw = copy.deepcopy(doc)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        load_config(raw)
    except ConfigError:
        pass


class TestShippedData:
    def test_paper_defaults_file_matches_factory(self, paper_uncalibrated_cfg):
        # The shipped file is the uncalibrated device calibrated against the
        # reference measurement.
        calibrated = calibrate_config(paper_uncalibrated_cfg, MEASURED_COINCIDENCE_RATE,
                                      MEASURED_SINGLES0, MEASURED_SINGLES1)
        assert load_config("paper-defaults").raw == calibrated.raw

    def test_engineered_window_dips_below_surroundings(self, engineered_cfg):
        # The design's reduced-scattering window at 7.4 THz, on both sides.
        noise = engineered_cfg.setup.noise
        for sign in (-1.0, 1.0):
            assert noise.rho(sign * 7.4e12) < noise.rho(sign * 6.5e12)
            assert noise.rho(sign * 7.4e12) < noise.rho(sign * 8.3e12)


class TestCalibrationFlow:
    def test_calibrated_config_reproduces_measurements(self, paper_uncalibrated_cfg):
        cfg = calibrate_config(paper_uncalibrated_cfg, 80.0, 3.45e6, 1.34e6)
        obs = cfg.setup.predict()
        assert obs.coincidences == pytest.approx(80.0, rel=1e-9)
        assert obs.singles0 == pytest.approx(3.45e6, rel=1e-9)
        assert obs.singles1 == pytest.approx(1.34e6, rel=1e-9)

    def test_analytic_and_calibrated_survival_disagree(self, paper_cfg,
                                                       paper_uncalibrated_cfg):
        # The analytic in-guide survival and the coincidence-fitted one are
        # both reported and differ by about 4x for this device; they are
        # never merged.
        analytic = paper_uncalibrated_cfg.setup.waveguide.eta_alpha()
        fitted = paper_cfg.setup.waveguide.eta_alpha()
        assert analytic == pytest.approx(0.596, abs=0.01)
        assert fitted == pytest.approx(0.15, abs=0.01)


class TestTmModeComparison:
    @staticmethod
    def tm_mode_raw(te_raw) -> dict:
        """The same chip on its higher-loss polarization."""
        raw = copy.deepcopy(te_raw)
        raw["waveguide"]["prop_loss_db_per_cm"] = 1.3
        raw["waveguide"]["dispersion_ps_per_nm_km"] = 22.0
        raw["coupling"]["total_insertion_loss_db"] = 18.6
        return raw

    def test_higher_loss_polarization_gives_fewer_coincidences(self,
                                                               paper_uncalibrated_cfg):
        te = paper_uncalibrated_cfg.setup.predict()
        tm = load_config(self.tm_mode_raw(paper_uncalibrated_cfg.raw)).setup.predict()
        assert tm.coincidences < te.coincidences


# Attributes that are no dataclass field: derived properties and an
# attribute of a float.
_UNKNOWN_PARAMS = ("pump.duty_cycle", "idler.collection_efficiency",
                   "waveguide.effective_length_m", "analysis.tia.n_bins", "pump.power_w.real")


class TestCli:
    def test_rates_command(self, tmp_path, capsys):
        code = main(["rates", "--config", "paper-defaults", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "coincidence rate" in out
        assert (tmp_path / "rates.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "rates"
        assert set(manifest) == {"command", "config_hash", "seed", "tool_version",
                                 "outputs"}
        text = (tmp_path / "rates.csv").read_text()
        assert "C_per_s,80.0" in text

    def test_rates_zero_power_only_darks(self, tmp_path, capsys):
        code = main(["rates", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--power-mw", "0"])
        assert code == 0
        text = (tmp_path / "rates.csv").read_text()
        rows = dict(
            line.split(",") for line in text.splitlines()
            if line and not line.startswith(("#", "observable"))
        )
        assert float(rows["r_pairs_per_s"]) == 0.0
        assert float(rows["C_per_s"]) == 0.0
        assert float(rows["N0_per_s"]) == 1000.0
        assert float(rows["N1_per_s"]) == 1000.0

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"waveguide": {}}')
        assert main(["rates", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["rates", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text, match", [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"raman_table": [[-8.5, 0.0], [8.5, 0.0]]}', "eta_alpha"),
        ('{"eta_alpha": 0.15}', "raman_table"),
    ])
    def test_bad_calibration_file_exit_code(self, tmp_path, capsys, text, match):
        calib = tmp_path / "calibration.json"
        calib.write_text(text)
        code = main(["rates", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--calibration", str(calib)])
        assert code == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--config", "--calibration"])
    def test_directory_path_exit_code(self, tmp_path, capsys, flag):
        # A repeated --config takes the last value.
        assert main(["rates", "--config", "paper-defaults", "--out", str(tmp_path / "out"),
                     flag, str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["1,a", "0.01:0.05:x", "0:0.05:5:log", "nan,0.02",
                                        "0:1:1000000000000", "1:2:10001:log"])
    def test_bad_values_spec_exit_code(self, tmp_path, capsys, values):
        code = main(["sweep", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--param", "pump.power_w", "--values", values])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("param", _UNKNOWN_PARAMS)
    def test_unknown_param_path_exit_code(self, tmp_path, capsys, param):
        # Only dataclass fields are addressable: a derived property or an
        # attribute of a number is an unknown path, not a traceback.
        code = main(["sweep", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--param", param, "--values", "0.01,0.02"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: unknown parameter path")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("param, values, requirement", [
        ("pump.power_w", "-1,0,1", "pump power must be non-negative, got -1.0"),
        ("noise.temperature_k", "300,0", "temperature must be positive, got 0.0"),
        ("idler.detector_qe", "0.5,1.5", "detector QE must be in (0, 1], got 1.5"),
        ("channels.detuning_hz", "0,1e12", "detuning magnitude must be positive, got 0.0"),
        ("pump.wavelength_m", "1.55e-6,1e-320",
         "pump wavelength must give a finite frequency, got 1e-320"),
    ])
    def test_sweep_value_out_of_range_names_the_path(self, tmp_path, capsys, param, values,
                                                     requirement):
        code = main(["sweep", "--config", "paper-defaults", "--out", str(tmp_path),
                     f"--param={param}", f"--values={values}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {param}: {requirement}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_values_count_capped_before_allocation(self, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("numpy was asked for the value array")

        monkeypatch.setattr(cli.np, "linspace", allocate)
        monkeypatch.setattr(cli.np, "geomspace", allocate)
        for spec in ("0:1:1000000000000", f"1:2:{cli.MAX_VALUES + 1}:log"):
            with pytest.raises(ConfigError, match="values count"):
                cli._parse_values(spec)
        with pytest.raises(ConfigError, match="at most"):
            cli._parse_values(",".join(["1"] * (cli.MAX_VALUES + 1)))

    def test_values_count_at_cap_accepted(self):
        assert len(cli._parse_values(f"0:1:{cli.MAX_VALUES}")) == cli.MAX_VALUES

    def test_calibrate_roundtrip_through_files(self, tmp_path, capsys):
        code = main([
            "calibrate", "--config", "paper-defaults", "--out", str(tmp_path),
            "--measured-c", "80", "--measured-n0", "3.45e6", "--measured-n1", "1.34e6",
        ])
        assert code == 0
        assert (tmp_path / "calibration.json").exists()
        code = main([
            "rates", "--config", "paper-defaults", "--out", str(tmp_path / "r"),
            "--calibration", str(tmp_path / "calibration.json"),
        ])
        assert code == 0
        text = (tmp_path / "r" / "rates.csv").read_text()
        assert "C_per_s,80.0" in text

    @pytest.mark.parametrize("flag", ["--measured-c", "--measured-n0", "--measured-n1"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_calibrate_non_finite_measurement_exit_code(self, tmp_path, capsys, flag, value):
        measured = {"--measured-c": "80", "--measured-n0": "3.45e6", "--measured-n1": "1.34e6"}
        measured[flag] = value
        code = main(["calibrate", "--config", "paper-defaults", "--out", str(tmp_path),
                     *(f"{name}={v}" for name, v in measured.items())])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
        assert flag in err
        assert not (tmp_path / "calibration.json").exists()

    def test_calibrate_impossible_measurement_exit_code(self, tmp_path, capsys):
        code = main([
            "calibrate", "--config", "paper-defaults", "--out", str(tmp_path),
            "--measured-c", "1e12", "--measured-n0", "3.45e6", "--measured-n1", "1.34e6",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "bound" in err  # names the violated bound

    def test_calibrate_overflowing_scattering_coefficient_exit_code(self, tmp_path, capsys):
        code = main([
            "calibrate", "--config", "paper-defaults", "--out", str(tmp_path),
            "--measured-c", "80", "--measured-n0", "1e308", "--measured-n1", "1.34e6",
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and len(err.strip().splitlines()) == 1
        assert "scattering coefficient for idler" in err and "1e+308/s" in err
        assert not (tmp_path / "calibration.json").exists()

    def test_calibrate_unreproduced_measurement_exit_code(self, tmp_path, capsys):
        # A subnormal C fits a survival whose re-predicted C underflows to 0.
        code = main([
            "calibrate", "--config", "paper-defaults", "--out", str(tmp_path),
            "--measured-c", "1e-320", "--measured-n0", "3.45e6", "--measured-n1", "1.34e6",
        ])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("numerical failure") and len(err.strip().splitlines()) == 1
        assert "does not reproduce the measured C" in err and "re-predicts 0/s" in err
        assert not (tmp_path / "calibration.json").exists()

    def test_empty_histogram_analysis_bytes(self, tmp_path, capsys):
        code = main(["histogram", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--duration", "0"])
        assert code == 0
        assert capsys.readouterr().out == "empty histogram (no counts); analysis flagged\n"
        assert (tmp_path / "analysis.json").read_bytes() == b'{\n  "flags": [\n    "empty"\n  ]\n}\n'

    def test_histogram_determinism_and_svg(self, tmp_path):
        args = ["histogram", "--config", "paper-defaults", "--duration", "0.05",
                "--seed", "7", "--svg"]
        code = main(args + ["--out", str(tmp_path / "a")])
        assert code == 0
        code = main(args + ["--out", str(tmp_path / "b")])
        assert code == 0
        a = (tmp_path / "a" / "histogram.csv").read_bytes()
        b = (tmp_path / "b" / "histogram.csv").read_bytes()
        assert a == b
        svg = (tmp_path / "a" / "histogram.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_rates_nan_power_exit_code(self, tmp_path, capsys):
        code = main(["rates", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--power-mw", "nan"])
        assert code == 2
        assert "power_mw" in capsys.readouterr().err
        assert not (tmp_path / "rates.csv").exists()

    def test_rates_overflowing_accidentals_exit_code(self, tmp_path, capsys):
        # N0*N1*t overflows at this window: a numerical failure, not A=inf
        # and CAR=0 written as results.
        code = main(["rates", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--window-ps", "1e308"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and "accidental rate" in err
        assert not (tmp_path / "rates.csv").exists()

    def test_rates_underflowing_temperature_exit_code(self, tmp_path, capsys, clean_raw):
        # k*T underflows to zero, which divided the phonon energy by zero.
        clean_raw["noise"]["temperature_k"] = 1e-320
        path = tmp_path / "cold.json"
        path.write_text(json.dumps(clean_raw))
        code = main(["rates", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and "temperature" in err
        assert not (tmp_path / "out" / "rates.csv").exists()

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
    def test_histogram_bad_duration_exit_code(self, tmp_path, capsys, duration):
        code = main(["histogram", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--duration", duration])
        assert code == 2
        assert "--duration" in capsys.readouterr().err
        assert not (tmp_path / "histogram.csv").exists()

    @pytest.mark.parametrize("config, changes, duration, expected", [
        # The epoch cannot be shorter than twice the carry reach, 59.6 ns
        # here, so these dark rates would put 6e292 and 6e8 stops in one.
        pytest.param("paper_cfg", {("channels", "signal", "dark_rate_per_s"): 1e300}, "9",
                     ("rate 1e+300 /s", "5.96e-08 s epoch"), id="1e+300-9"),
        pytest.param("paper_cfg", {("channels", "signal", "dark_rate_per_s"): 1e16}, "0.001",
                     ("rate 1e+16 /s", "5.96e-08 s epoch"), id="1e+16-0.001"),
        # 1e30 s at 1e296 pulses/s: the run's pulse windows overflow a float.
        pytest.param("engineered_cfg",
                     {("pump", "rep_rate_mhz"): 1e290, ("pump", "tau_ps"): 1e-290}, "1e30",
                     ("1e+30 s run", "1e+296 Hz rep rate"), id="pulse-windows-1e+30"),
    ])
    def test_histogram_extreme_rate_exit_code(self, tmp_path, capsys, request, config,
                                              changes, duration, expected):
        raw = copy.deepcopy(request.getfixturevalue(config).raw)
        for (*parents, key), value in changes.items():
            doc = raw
            for name in parents:
                doc = doc[name]
            doc[key] = value
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(raw))
        code = main(["histogram", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--duration", duration])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and len(err.strip().splitlines()) == 1
        assert all(text in err for text in expected), err
        assert not (tmp_path / "out" / "histogram.csv").exists()

    @pytest.mark.parametrize("key, value", [("n2_m2_per_w", -3e-18), ("n2_m2_per_w", 0.0),
                                            ("a_eff_um2", 0.0), ("a_eff_um2", -0.86)])
    def test_bad_n2_route_value_exit_code(self, tmp_path, capsys, clean_raw, key, value):
        waveguide = clean_raw["waveguide"]
        del waveguide["gamma_per_w_m"]
        waveguide.update(n2_m2_per_w=3e-18, a_eff_um2=0.86)
        waveguide[key] = value
        path = tmp_path / "n2.json"
        path.write_text(json.dumps(clean_raw))
        code = main(["rates", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: waveguide.{key}: must be positive, got {value!r}\n"
        assert not (tmp_path / "out" / "rates.csv").exists()

    @pytest.mark.parametrize("n2, a_eff_um2", [(1e-320, 1e300), (1e300, 1e-300),
                                               (3e-18, 1e-311), (3e-18, 1e-320)])
    def test_n2_route_gamma_out_of_range_names_keys(self, tmp_path, capsys, clean_raw,
                                                    n2, a_eff_um2):
        # Each value is positive, but gamma = 2 pi n2 / (lambda A_eff) underflows
        # to 0 or overflows to inf: lambda A_eff, or A_eff in m^2 itself, can
        # underflow to 0.
        waveguide = clean_raw["waveguide"]
        del waveguide["gamma_per_w_m"]
        waveguide.update(n2_m2_per_w=n2, a_eff_um2=a_eff_um2)
        path = tmp_path / "n2.json"
        path.write_text(json.dumps(clean_raw))
        code = main(["rates", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: waveguide.n2_m2_per_w, "
                              "waveguide.a_eff_um2: must give a positive finite gamma")
        assert not (tmp_path / "out" / "rates.csv").exists()

    def test_cw_design_json_is_strict(self, tmp_path):
        # A CW pump has no pairs per pulse.
        code = main(["optimize", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--bound", "peak_power_w=0.01:0.1", "--c-min", "1"])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads((tmp_path / "design.json").read_text(), parse_constant=reject)
        assert doc["pairs_per_pulse"] is None
        assert doc["car"] > 0.0

    def test_analysis_json_is_strict(self, tmp_path):
        # The shipped engineered-defaults range has no off-pulse floor, so
        # the CAR estimate and its uncertainty are infinite / undefined.
        code = main(["histogram", "--config", "engineered-defaults", "--out", str(tmp_path),
                     "--duration", "300"])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads((tmp_path / "analysis.json").read_text(), parse_constant=reject)
        assert doc["car_estimate"] is None
        assert doc["uncertainties"]["car"] is None
        assert "nonfinite:car_estimate" in doc["flags"]
        assert "nonfinite:uncertainties.car" in doc["flags"]
        assert doc["coincidence_rate_per_s"] > 0.0

    def test_sweep_command_with_fit(self, tmp_path, capsys):
        code = main([
            "sweep", "--config", "paper-defaults", "--out", str(tmp_path),
            "--param", "pump.power_w", "--values", "0.01:0.06:6",
        ])
        assert code == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert 1.95 <= fit["exponent"] <= 2.05
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "param,r,C,N0,N1,A,CAR"

    def test_fit_json_is_strict(self, tmp_path, capsys):
        # C falls by 290 decades over the swept losses: the fitted
        # coefficient lies beyond the float range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--config", "paper-defaults", "--out", str(tmp_path),
                         "--param", "coupling.total_insertion_loss_db",
                         "--values", "100,1000,3000"])
        assert code == 0
        assert capsys.readouterr().err == ""

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        fit = json.loads((tmp_path / "fit.json").read_text(), parse_constant=reject)
        assert fit["coefficient"] is None
        assert fit["exponent"] < 0.0

    def test_car_curve_command(self, tmp_path, capsys):
        code = main([
            "car-curve", "--config", "engineered-defaults", "--out", str(tmp_path),
            "--mu", "0.008:0.02:4",
        ])
        assert code == 0
        assert (tmp_path / "car_curve.csv").exists()
        out = capsys.readouterr().out
        assert "CAR=" in out

    def test_car_curve_svg_without_a_finite_car(self, tmp_path, clean_raw):
        # No pump and no darks: C = A = 0, so every CAR is NaN.  The CSV
        # keeps the NaNs, and the plot is drawn without them.
        clean_raw["pump"]["power_mw"] = 0.0
        for ch in clean_raw["channels"].values():
            ch["dark_rate_per_s"] = 0.0
        path = tmp_path / "dark.json"
        path.write_text(json.dumps(clean_raw))
        out = tmp_path / "out"
        code = main(["car-curve", "--config", str(path), "--out", str(out),
                     "--detuning", "0.5,1.0,1.4", "--svg"])
        assert code == 0
        rows = (out / "car_curve.csv").read_text().splitlines()[-3:]
        assert all(row.endswith(",nan") for row in rows)
        svg = (out / "car_curve.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "<path" not in svg
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["car_curve.csv", "car_curve.svg"]

    def test_car_curve_gated_mode_override(self, tmp_path, engineered_cfg):
        # --mode reaches car_vs_mu only through the config override.
        code = main([
            "car-curve", "--config", "engineered-defaults", "--out", str(tmp_path),
            "--mu", "0.008:0.02:4", "--mode", "gated",
        ])
        assert code == 0
        lines = (tmp_path / "car_curve.csv").read_text().splitlines()
        assert "# accidental_mode=gated" in lines
        rows = [line.split(",") for line in lines if not line.startswith(("#", "param"))]
        gated = with_analysis(engineered_cfg.setup, accidental_mode="gated")
        expected = car_vs_mu(gated, cli._parse_values("0.008:0.02:4")).column("CAR")
        assert [float(row[6]) for row in rows] == expected.tolist()

    def test_histogram_gated_cw_config_exit_code(self, tmp_path, capsys, clean_raw):
        clean_raw["analysis"]["accidental_mode"] = "gated"
        path = tmp_path / "gated_cw.json"
        path.write_text(json.dumps(clean_raw))
        code = main(["histogram", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--duration", "0.001"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
        assert "analysis.accidental_mode" in err
        assert not (tmp_path / "out" / "histogram.csv").exists()

    def test_histogram_first_stop_range_below_zero_exit_code(self, tmp_path, capsys,
                                                            clean_raw):
        # First-stop delays are never negative, so no entry could be binned.
        clean_raw["analysis"]["tia"].update(policy="first-stop", range_ns=[-3, -1],
                                            stop_delay_ns=-2)
        path = tmp_path / "below_zero.json"
        path.write_text(json.dumps(clean_raw))
        code = main(["histogram", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--duration", "0.05"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
        assert ("analysis.tia.range_ns: a first-stop delay range must reach above 0, "
                "got [-3, -1]") in err
        assert not (tmp_path / "out" / "histogram.csv").exists()

    def test_histogram_peak_window_wider_than_range_refused_before_simulating(
            self, tmp_path, capsys, clean_raw, monkeypatch):
        # Twice the 400 ps coincidence window is an 800 ps peak window; the
        # bins of a 10.8-11.4 ns range span 608 ps.
        clean_raw["analysis"]["tia"].update(range_ns=[10.8, 11.4], stop_delay_ns=11.1)
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(clean_raw))

        def simulated(*args):
            raise AssertionError("the run was simulated")

        monkeypatch.setattr(cli, "run_tia", simulated)
        code = main(["histogram", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--duration", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
        assert "analysis.coincidence_window_ps" in err and "analysis.tia.range_ns" in err
        assert "peak window 8e-10s must be narrower than the range 6.08e-10s" in err
        assert not (tmp_path / "out" / "histogram.csv").exists()

    @pytest.mark.parametrize("tia, window_ps", [
        # 139 bins of 16 ps: a peak window of 2222 ps holds all 69 bins on
        # either side of the middle one, though the bins span 2224 ps.
        ({"range_ns": [10, 12.224], "stop_delay_ns": 11.112}, 1111),
        # One bin leaves no other bin for the floor, however narrow the window.
        ({"range_ns": [11.092, 11.108], "stop_delay_ns": 11.1}, 4),
    ], ids=["139-bins", "one-bin"])
    def test_histogram_peak_window_without_floor_refused_before_simulating(
            self, tmp_path, capsys, paper_cfg, monkeypatch, tia, window_ps):
        raw = make_noise_free(paper_cfg.raw)
        raw["analysis"]["tia"].update(policy="multi-stop", **tia)
        raw["analysis"]["coincidence_window_ps"] = window_ps
        path = tmp_path / "no_floor.json"
        path.write_text(json.dumps(raw))

        def simulated(*args):
            raise AssertionError("the run was simulated")

        monkeypatch.setattr(cli, "run_tia", simulated)
        code = main(["histogram", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--duration", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
        assert "analysis.coincidence_window_ps, analysis.tia.range_ns" in err
        assert "to leave off-peak bins for the floor estimate" in err
        assert not (tmp_path / "out").exists()

    def test_histogram_peak_window_one_bin_narrower_runs(self, tmp_path, paper_cfg):
        # Half of a 2190 ps peak window is below the 69 bins of 16 ps from
        # the middle bin to either end, so each end bin is off the peak.
        raw = make_noise_free(paper_cfg.raw)
        raw["analysis"]["tia"].update(policy="multi-stop", range_ns=[10, 12.224],
                                      stop_delay_ns=11.112)
        raw["analysis"]["coincidence_window_ps"] = 1111 - 16
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main(["histogram", "--config", str(path), "--out", str(out),
                     "--duration", "0.5"])
        assert code == 0
        assert {"histogram.csv", "analysis.json", "manifest.json"} <= {
            p.name for p in out.iterdir()}

    def test_histogram_sub_ulp_bin_width_refused(self, tmp_path, capsys, clean_raw):
        # 1e-17 s bins over [1, 1 + 1e-13] s: 9993 bins, but the spacing of
        # floats near 1 s is 2.2e-16 s, so their edges held 451 values.
        clean_raw["analysis"]["tia"].update(range_ns=[1e9, 1e9 + 1e-4], bin_ps=1e-5,
                                            stop_delay_ns=1e9)
        clean_raw["analysis"]["coincidence_window_ps"] = 1e-5
        path = tmp_path / "sub_ulp.json"
        path.write_text(json.dumps(clean_raw))
        code = main(["histogram", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--duration", "0.01"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
        assert ("analysis.tia.bin_ps: bin width must be at least 2^10 float spacings at "
                "the delay range's end farther from 0, got 1e-05") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edits, message", [
        ({("noise", "raman_table"): []},
         "noise.raman_table: raman table must have at least one entry, got []"),
        ({("noise", "raman_table"): [[-8.5, 0.1], [-8.5, 0.2], [8.5, 0.1]]},
         "noise.raman_table[1]: raman table detunings must be strictly increasing, "
         "got [-8.5, 0.2]"),
        ({("noise", "raman_table"): [[-8.5, 0.1], [8.5, -0.1]]},
         "noise.raman_table[1]: raman coefficients must be non-negative, got [8.5, -0.1]"),
        ({("noise", "pump_rejection", "floor_db"): 30},
         "noise.pump_rejection.floor_db: rejection floor must be at least the base "
         "rejection 40.0 dB, got 30"),
        ({("channels", "idler", "filter_loss_db"): 1e5},
         "channels.idler.filter_loss_db: filter loss must leave a collection efficiency "
         "in (0, 1], got 100000.0"),
        ({("waveguide", "prop_loss_db_per_cm"): -1},
         "waveguide.prop_loss_db_per_cm: propagation loss must be non-negative, got -1"),
        ({("waveguide", "gamma_per_w_m"): 0},
         "waveguide.gamma_per_w_m: gamma must be positive, got 0"),
        ({("waveguide", "beta2_s2_per_m"): 0.0},
         "waveguide needs exactly one of dispersion_ps_per_nm_km or beta2_s2_per_m"),
        ({("pump", "mode"): "pulsed", ("pump", "tau_ps"): 5.0, ("pump", "rep_rate_mhz"): 0},
         "pump.rep_rate_mhz: repetition rate must be positive, got 0"),
        ({("pump", "tau_ps"): 5.0}, "cw pump takes no tau_ps/rep_rate_mhz"),
        ({("pump", "mode"): "pulsed", ("pump", "tau_ps"): 5.0},
         "pulsed pump requires tau_ps and rep_rate_mhz"),
        ({("channels", "signal", "detuning_thz"): 0},
         "channels.signal.detuning_thz must be positive (above the pump)"),
        ({("channels", "signal", "filter_loss_db"): -1},
         "channels.signal.filter_loss_db: filter loss must be non-negative, got -1"),
        ({("coupling", "total_insertion_loss_db"): -1},
         "coupling.total_insertion_loss_db: total insertion loss must be non-negative, got -1"),
        ({("pump", "wavelength_nm"): 1e-311},
         "pump.wavelength_nm: pump wavelength must give a finite frequency, got 1e-311"),
        ({("pump", "wavelength_nm"): 1e300},
         "waveguide.dispersion_ps_per_nm_km: beta2 overflows at the pump wavelength, 1e+291 m"),
        (None, "configuration root must be a JSON object"),
    ], ids=["empty-table", "table-not-increasing", "table-negative-rho", "rejection-floor",
            "no-collection", "negative-prop-loss", "zero-gamma", "two-dispersion-keys",
            "zero-rep-rate", "cw-with-tau", "pulsed-without-rep-rate", "zero-signal-detuning",
            "negative-filter-loss", "negative-insertion-loss", "subnormal-pump-wavelength",
            "overflowing-beta2", "array-root"])
    def test_document_refusals_exit_2_with_one_line(self, tmp_path, capsys, clean_raw,
                                                    edits, message):
        # ``None`` stands for a document whose root is an array.
        doc = [clean_raw] if edits is None else clean_raw
        for keys, value in (edits or {}).items():
            target = clean_raw
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["rates", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == f"configuration error: {message}"
        assert not (tmp_path / "out").exists()

    def test_car_curve_unreachable_mu_exit_code(self, tmp_path):
        code = main([
            "car-curve", "--config", "engineered-defaults", "--out", str(tmp_path),
            "--mu", "5.0,10.0",
        ])
        assert code == 4

    def test_car_curve_mu_below_solver_resolution_exit_code(self, tmp_path, capsys):
        # Both points gave the same C before the solve was checked.
        code = main([
            "car-curve", "--config", "engineered-defaults", "--out", str(tmp_path),
            "--mu", "1e-300:1e-299:2",
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "mu=1e-300" in err and "Traceback" not in err
        assert not (tmp_path / "car_curve.csv").exists()

    @pytest.mark.parametrize("spec, given", [("1e300:1e301:2", "1e+300"),
                                             ("1.4,-3e296", "-3e+296"), ("2e296", "2e+296")])
    def test_car_curve_detuning_beyond_hz_names_the_flag(self, tmp_path, capsys, spec, given):
        # The THz -> Hz conversion overflowed and the refusal used to name
        # an inf Hz detuning the command line never gave, with exit 4.
        code = main(["car-curve", "--config", "paper-defaults", "--out", str(tmp_path),
                     "--detuning", spec])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == (f"configuration error: --detuning: detuning must be finite "
                               f"in Hz, got {given} THz")
        assert not (tmp_path / "car_curve.csv").exists()

    def test_optimize_point_bounds_echoes(self, tmp_path, capsys):
        code = main([
            "optimize", "--config", "engineered-defaults", "--out", str(tmp_path),
            "--bound", "peak_power_w=0.3:0.3", "--mu-min", "1e-6",
        ])
        assert code == 0
        doc = json.loads((tmp_path / "design.json").read_text())
        assert doc["best"] == {"peak_power_w": 0.3}

    @pytest.mark.parametrize("args, match", [
        (["--bound", "peak_power_w=nan:1", "--mu-min", "1e-6"], "peak_power_w=nan:1.0"),
        (["--bound", "peak_power_w=0.1:inf", "--mu-min", "1e-6"], "peak_power_w=0.1:inf"),
        (["--bound", "tau_s=-inf:1e-9", "--mu-min", "1e-6"], "tau_s=-inf:1e-09"),
        (["--bound", "peak_power_w=0.1:1", "--mu-min", "nan"], "--mu-min"),
        (["--bound", "peak_power_w=0.1:1", "--mu-min", "-1"], "--mu-min"),
        (["--bound", "peak_power_w=0.1:1", "--c-min", "inf"], "--c-min"),
        (["--bound", "peak_power_w=0.1:1", "--c-min", "0"], "--c-min"),
        (["--bound", "peak_power_w=0.1:1", "--mu-min", "1e-6", "--grid-points", "0"],
         "grid_points"),
        (["--bound", "peak_power_w=0.1:1", "--mu-min", "1e-6", "--grid-points", "1"],
         "grid_points"),
        (["--bound", "peak_power_w=0.1:1", "--bound", "tau_s=1e-12:1e-11", "--mu-min", "1e-6",
          "--grid-points", "101"], "--grid-points"),
        (["--bound", "peak_power_w=0.1:1", "--bound", "tau_s=1e-12:1e-11",
          "--bound", "rep_rate_hz=1e7:1e9", "--bound", "detuning_hz=1e12:2e12",
          "--mu-min", "1e-6", "--grid-points", "1000"], "--grid-points"),
        # A repeated name would otherwise drop all but its last bound.
        (["--bound", "tau_s=1e-12:2e-12", "--bound", "tau_s=3e-12:4e-12", "--mu-min", "1e-6"],
         "--bound tau_s given more than once"),
    ])
    def test_optimize_bad_input_exit_code(self, tmp_path, capsys, args, match):
        code = main(["optimize", "--config", "engineered-defaults", "--out", str(tmp_path),
                     *args])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
        assert match in err and "no feasible point" not in err
        assert not (tmp_path / "design.json").exists()

    @pytest.mark.parametrize("flags", [["--mu-min", "1e-6", "--c-min", "1e9"], []])
    def test_optimize_needs_exactly_one_constraint(self, tmp_path, flags):
        # With both flags, --c-min used to be dropped without a word.
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", "engineered-defaults", "--out", str(tmp_path),
                  "--bound", "peak_power_w=0.1:1", *flags])
        assert exc.value.code == 2
        assert not (tmp_path / "design.json").exists()

    def test_optimize_point_bounds_do_not_count_toward_grid_cap(self, tmp_path):
        # 10001 points on one axis would pass the cap; a point bound has one.
        code = main([
            "optimize", "--config", "engineered-defaults", "--out", str(tmp_path),
            "--bound", "peak_power_w=0.3:0.3", "--bound", "tau_s=5e-12:5e-12",
            "--mu-min", "1e-6", "--grid-points", str(cli.MAX_VALUES + 1),
        ])
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["rates"],
        ["calibrate", "--measured-c", "80", "--measured-n0", "3.45e6", "--measured-n1", "1.34e6"],
        ["histogram", "--duration", "0.001"],
        ["sweep", "--param", "pump.power_w", "--values", "0.01,0.02"],
        ["car-curve", "--detuning", "1.4"],
        ["optimize", "--bound", "peak_power_w=0.3:0.3", "--mu-min", "1e-6"],
    ])
    def test_negative_seed_exit_code(self, tmp_path, capsys, argv):
        code = main(argv + ["--config", "paper-defaults" if argv[0] != "optimize"
                            else "engineered-defaults", "--out", str(tmp_path),
                            "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
        assert "--seed" in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["rates"],
        ["calibrate", "--measured-c", "80", "--measured-n0", "3.45e6", "--measured-n1", "1.34e6"],
        ["optimize", "--bound", "peak_power_w=0.3:0.3", "--mu-min", "1e-6"],
    ])
    def test_svg_only_where_a_plot_is_written(self, tmp_path, argv):
        # rates, calibrate and optimize write no plot, so they take no --svg.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", "engineered-defaults", "--out", str(tmp_path), "--svg"])
        assert exc.value.code == 2

    def test_bad_bound_syntax_exit_code(self, tmp_path):
        code = main([
            "optimize", "--config", "engineered-defaults", "--out", str(tmp_path),
            "--bound", "peak_power_w", "--mu-min", "1e-6",
        ])
        assert code == 2


# Values that break a number or a path: each flag draws from these and from
# a few valid values of its own.
_BAD_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "", "x")


def _values(*good):
    return st.sampled_from(good + _BAD_VALUES)


_SPECS = st.sampled_from(("0.01:0.05:3", "0.008,0.02", "1:2:3:log", "-1:1:3:log", "0:1:0",
                          "1e308:1e308:2", "nan,1", "1,1") + _BAD_VALUES)
_BOUND = st.builds("{}={}:{}".format,
                   st.sampled_from(("peak_power_w", "tau_s", "rep_rate_hz", "detuning_hz",
                                    "x", "")),
                   _values("0.1", "1e-12"), _values("1", "1e-11"))
_COMMON_FLAGS = {
    "--config": st.sampled_from(("paper-defaults", "engineered-defaults", "", "x")),
    "--calibration": st.sampled_from(("", "x")),
    "--seed": _values("7"),
}
_SVG = {"--svg": st.none()}
# Per command: (required flags, flags); a flag's value is a string, None for
# a switch, or a list for a repeated flag.  `histogram --duration` stays at
# most 0.01 s and `optimize` has at most two bounds, so every case is quick.
_COMMANDS = {
    "rates": ({"--config"}, {
        "--power-mw": _values("1.0"), "--mode": st.sampled_from(("binned", "gated", "x")),
        "--window-ps": _values("800")}),
    "calibrate": ({"--config", "--measured-c", "--measured-n0", "--measured-n1"}, {
        "--measured-c": _values("80"), "--measured-n0": _values("3.45e6"),
        "--measured-n1": _values("1.34e6")}),
    "histogram": ({"--config", "--duration"}, {
        **_SVG, "--duration": st.sampled_from(
            ("0.01", "0.001", "0", "-1", "nan", "inf", "-inf", "", "x"))}),
    "sweep": ({"--config", "--param", "--values"}, {
        **_SVG, "--param": st.sampled_from(("pump.power_w", "pump", "pump.x", "", "x")
                                            + _UNKNOWN_PARAMS),
        "--values": _SPECS}),
    "car-curve": ({"--config"}, {
        **_SVG, "--mu": _SPECS, "--detuning": _SPECS,
        "--mode": st.sampled_from(("binned", "gated"))}),
    "optimize": ({"--config"}, {
        "--bound": st.lists(_BOUND, min_size=1, max_size=2),
        "--mu-min": _values("1e-6"), "--c-min": _values("1"),
        "--grid-points": _values("2", "3", "101")}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, flags = _COMMANDS[command]
    argv = [command]
    for flag, values in {**_COMMON_FLAGS, **flags}.items():
        if flag in required or draw(st.booleans()):
            value = draw(values)
            if value is None:
                argv.append(flag)
            else:
                argv += [f"{flag}={v}" for v in (value if isinstance(value, list) else [value])]
    return argv


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=["histogram", "--config=paper-defaults", "--duration=0.001", "--seed=-1"])
@example(argv=["rates", "--config=paper-defaults", "--power-mw=1e308"])
@example(argv=["car-curve", "--config=paper-defaults", "--detuning=1e308:1e308:2"])
@example(argv=["car-curve", "--config=paper-defaults", "--detuning="])
# Finite inputs whose arithmetic overflows or divides by an underflowed zero.
@example(argv=["sweep", "--config=paper-defaults", "--param=channels.detuning_hz",
               "--values=1e300,1e301"])
@example(argv=["car-curve", "--config=paper-defaults", "--detuning=1e290,2e290"])
@example(argv=["optimize", "--config=paper-defaults", "--bound=detuning_hz=1e300:1e301",
               "--c-min=1"])
@example(argv=["sweep", "--config=paper-defaults", "--param=noise.temperature_k",
               "--values=1e-320,1e-310"])
@example(argv=["sweep", "--config=paper-defaults", "--param=channels.detuning_hz",
               "--values=1e-320,1e-310"])
@example(argv=["sweep", "--config=paper-defaults", "--param=pump.wavelength_m",
               "--values=1e300,1e301"])
def test_cli_arguments_end_in_an_exit_code(tmp_path, argv):
    # Any argv drawn from the commands' flags ends in argparse's exit 2 or
    # in one of the documented exit codes, never in another exception.
    try:
        code = main(argv + ["--out", str(tmp_path)])
    except SystemExit as exc:
        code = exc.code
        assert code == 2, argv
    assert code in (0, 2, 3, 4), argv
