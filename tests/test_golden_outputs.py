"""Byte-level golden outputs of the deterministic commands.

Each case runs one command on a shipped configuration, paper-defaults unless
it says otherwise, and pins the sha256 of every file it writes.  The inputs
of ``GOLDEN`` avoid log-spaced values and the pulsed power solve, so those
bytes rest on IEEE double arithmetic and Python's ``math`` only; the pulsed
pins below also rest on numpy's ``geomspace``.  A change that moves any digest
changes what the commands write: it must say why, and record the new digests
here.
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from sfwmlab import explore
from sfwmlab.cli import main
from sfwmlab.config import engineered_defaults, paper_defaults

GOLDEN = {
    "rates": (
        ["rates"],
        {
            "manifest.json": "2ed02fb5bba83f8e5c4ed846314cfbfce0388c02c39dff60fd0468bc5e7d6eea",
            "rates.csv": "726f748c121b281436b7909ef1694477ec003fd5f7156fbd074fca0530ebd715",
        },
    ),
    "calibrate": (
        ["calibrate", "--measured-c", "80", "--measured-n0", "3.45e6",
         "--measured-n1", "1.34e6"],
        {
            "calibration.json": "2a1ca6a9a576943250214a285f53e5514278a23a28bb2863cf6562c566579c92",
            "manifest.json": "644fb036bfed4643ab59db3ecd569e17875c3e30a272af69b6debc6e5631fa46",
        },
    ),
    # Two values, so no power-law fit (np.polyfit) and no fit.json.
    "sweep": (
        ["sweep", "--param", "pump.power_w", "--values", "0.03,0.057"],
        {
            "manifest.json": "f0efd4acdc0b5b84aa2cf44d7e22d9b13585721d2e264e40abe6a67e9d06afee",
            "sweep.csv": "4b6fa6372da50786d3c3d3d1adc1a3016c95d9fa423b1db16aeee6e6a46ec79a",
        },
    ),
    "car-curve": (
        ["car-curve", "--detuning", "0.5,1.4,3.0"],
        {
            "car_curve.csv": "0c6f1666620e8ccdc7b8ed43636049655f147da7fae46be186f3696b3249beb5",
            "manifest.json": "708d9d48b652f9f9dbe95fa3bb91c85ec03b30d0cd862925ccff2959a685a0c3",
        },
    ),
    # A short series: the plot draws every point.
    "car-curve-svg": (
        ["car-curve", "--detuning", "0.5,1.0,1.4", "--svg"],
        {
            "car_curve.csv": "9fd6f78e70b72f2b2db0f458558734aae345c09d67e7f70d131d074ae38678fe",
            "car_curve.svg": "c2065d873033460ec7d6c9e3fa32506c0da23c94c9627f12ee01bac8bc50f78d",
            "manifest.json": "ab00331e9e68dc5107c48021a66e9a4ff2bd18d618534487884c271e5a965396",
        },
    ),
    # A CW pump has no pairs per pulse: design.json writes it as null.
    "optimize": (
        ["optimize", "--bound", "detuning_hz=5e11:3e12", "--bound", "peak_power_w=0.01:0.1",
         "--c-min", "1"],
        {
            "design.json": "f395ab0bdb7aeb37162c229d50eff6b9b7b7ec1e8ef083f873ed45c6862b6cd5",
            "manifest.json": "41fa946f28dcca571c3a7188dd4aab35cada6e59eb9f6ae8552257e95b7f9c41",
        },
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_bytes_are_pinned(tmp_path, command):
    argv, digests = GOLDEN[command]
    assert main(argv + ["--config", "paper-defaults", "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests


# The pulsed design search of the benchmark: engineered-defaults over its
# four-parameter box on a 7-point grid, under a pairs-per-pulse floor.  The
# grid alone makes 2401 of its 2482 model evaluations.
PULSED_OPTIMIZE = (
    ["optimize", "--config", "engineered-defaults",
     "--bound", "detuning_hz=5e11:8.2e12", "--bound", "tau_s=2e-12:2e-11",
     "--bound", "rep_rate_hz=5e7:5e8", "--bound", "peak_power_w=0.05:5.0",
     "--mu-min", "0.005", "--grid-points", "7"],
    {
        "design.json": "45a1a074de95bef35ed4d88b2ec0422161a2acf1348c00140a39bfc5c0ffa46c",
        "manifest.json": "3665ab2aa589ff6ab86c15fb57fe0cb6eeced35f386b74d3441226c49c58e35b",
    },
)


def test_pulsed_optimize_bytes_are_pinned(tmp_path):
    argv, digests = PULSED_OPTIMIZE
    assert main(argv + ["--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests
    assert json.loads((tmp_path / "design.json").read_text())["evaluations"] == 2482


# The CAR curve against pairs per pulse of the benchmark: eight log-spaced
# values of mu, each solved for its peak power below one turnover.
PULSED_MU_CURVE = (
    ["car-curve", "--config", "engineered-defaults", "--mu", "0.01:0.025:8:log"],
    {
        "car_curve.csv": "3373c16eaafcc85f0c236a7425131298f2216026f40c144458bd70834c45cfa9",
        "manifest.json": "315cd4b4d6c5a5b719e51c06a1aa7a0dfc8bec163756f7ca94f40faa48885db9",
    },
)


def test_pulsed_mu_curve_bytes_are_pinned(tmp_path, monkeypatch):
    argv, digests = PULSED_MU_CURVE
    assert main(argv + ["--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests
    # The turnover scan and bisection, then one bisection and one check per mu.
    rate, calls = explore.pair_generation_rate, []

    def counted(*args):
        calls.append(args)
        return rate(*args)

    monkeypatch.setattr(explore, "pair_generation_rate", counted)
    explore.car_vs_mu(engineered_defaults().setup, np.geomspace(0.01, 0.025, 8))
    assert len(calls) == 658


def test_calibration_and_flag_overlays_bytes_are_pinned(tmp_path):
    # paper-defaults' own calibration overlaid with every override flag: the
    # bytes of the same flags alone.
    calibration = tmp_path / "calibration.json"
    calibration.write_text(json.dumps(paper_defaults().calibration))
    out = tmp_path / "out"
    assert main(["rates", "--config", "paper-defaults", "--calibration", str(calibration),
                 "--power-mw", "30", "--mode", "binned", "--window-ps", "800",
                 "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == {
        "manifest.json": "725416775dc77deb26b1f745ac82ffce41162697edf05c78e6abaa96086ea83d",
        "rates.csv": "aa5fb3d4e823b291e3d86642b0ebabca51d069dd6c5382e9f0e9dcde31c280f6",
    }


def test_cw_optimize_console_line_has_no_pairs_per_pulse(tmp_path, capsys):
    # A CW pump has no pairs per pulse: the summary leaves the clause out.
    argv, digests = GOLDEN["optimize"]
    assert main(argv + ["--config", "paper-defaults", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out and "pairs/pulse" not in out
    assert "CAR " in out
    written = hashlib.sha256((tmp_path / "design.json").read_bytes()).hexdigest()
    assert written == digests["design.json"]


# Simulated histograms: short fixed-seed ``histogram`` runs that cross epoch
# edges.  Unlike the digests above, these rest on numpy's PCG64
# ``Generator`` streams (its Poisson, exponential, normal, uniform and
# integer draws) as of numpy 2.4.6, with which they were made; a numpy
# release that changes one of those algorithms changes them too.
SIMULATED = {
    "paper-defaults first-stop": (
        "paper-defaults", "1.0", "1000",
        {
            "analysis.json": "b7290972d9ca8bb9228fc56879cfc157d9c963f406fa77d7708b7ba919dd7d75",
            "histogram.csv": "46134977ee912ab576acc441f8552babcbae2a0cdf419db96c0a2e3c365edbd6",
        },
    ),
    # Epochs of 0.25 s: the CW bulk draw counts among an epoch's events.
    # The maximum bin, at 148.98 ns, is a floor fluctuation far from the
    # 11.1 ns stop delay, which analysis.json flags.
    "10-330 ns multi-stop": (
        "multi-stop", "1.0", "1000",
        {
            "analysis.json": "4171096047ba51c398a437bfa82f9f60f55c7ffb08cbf818f1203d81ada9e009",
            "histogram.csv": "06e75672c7916df2ac40436dac9af06fda710a72d12aa06c80183c8e3b131b32",
        },
    ),
    # Darks are drawn unjittered, arm 0's on the stops' windows.
    "engineered-defaults": (
        "engineered-defaults", "400", "7",
        {
            "analysis.json": "6bfe1528a20b057df72766b1b7b95d285b9e321151743b1425ad78437a8bf366",
            "histogram.csv": "c90171e047facea78e699b76bb98adfb32ca3cef44c375837ebd97fd03156ec9",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(SIMULATED))
def test_simulated_bytes_are_pinned(tmp_path, case):
    config, duration, seed, digests = SIMULATED[case]
    if config == "multi-stop":
        raw = copy.deepcopy(paper_defaults().raw)
        raw["analysis"]["tia"].update(policy="multi-stop", range_ns=[10.0, 330.0])
        config = tmp_path / "multi_stop.json"
        config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["histogram", "--config", str(config), "--duration", duration,
                 "--seed", seed, "--out", str(out)]) == 0
    written = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in digests}
    assert written == digests, np.__version__
