import copy
from dataclasses import replace

import pytest

from sfwmlab.config import (
    engineered_defaults,
    load_config,
    paper_defaults,
)


@pytest.fixture(scope="session")
def paper_cfg():
    return paper_defaults()


@pytest.fixture(scope="session")
def paper_uncalibrated_cfg():
    return paper_defaults(calibrated=False)


@pytest.fixture(scope="session")
def paper_pulsed_cfg(paper_cfg):
    raw = copy.deepcopy(paper_cfg.raw)
    raw["pump"]["mode"] = "pulsed"
    raw["pump"]["tau_ps"] = 5.0
    raw["pump"]["rep_rate_mhz"] = 100.0
    return load_config(raw)


@pytest.fixture(scope="session")
def engineered_cfg():
    return engineered_defaults()


@pytest.fixture()
def clean_raw(paper_cfg):
    """A mutable copy of the calibrated default document."""
    return copy.deepcopy(paper_cfg.raw)


def with_analysis(setup, **changes):
    """The setup with some analysis settings (window_s, accidental_mode,
    tia) replaced: the one route by which tests vary them."""
    return replace(setup, analysis=replace(setup.analysis, **changes))


def make_noise_free(raw):
    """Zero out scattering, leakage and darks in a raw config document."""
    raw = copy.deepcopy(raw)
    raw["noise"]["raman_table"] = [[-8.5, 0.0], [8.5, 0.0]]
    raw["noise"]["pump_rejection"] = {
        "base_db": 400.0,
        "floor_db": 400.0,
        "ramp_thz": 0.6,
    }
    for ch in raw["channels"].values():
        ch["dark_rate_per_s"] = 0.0
    return raw
