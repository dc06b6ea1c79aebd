"""Modeling and virtual-experiment toolkit for waveguide photon-pair sources.

Layers:

* :mod:`sfwmlab.units`, :mod:`sfwmlab.devices`, :mod:`sfwmlab.model` -
  the analytic rate/noise/CAR model and its calibration procedures.
* :mod:`sfwmlab.eventsim` - Monte Carlo timestamp streams and start-stop
  histograms, an independent statistical check of the model.
* :mod:`sfwmlab.analysis` - peak, floor and CAR estimate of a histogram.
* :mod:`sfwmlab.explore` - sweeps, power-law fits, CAR curves, design search.
* :mod:`sfwmlab.config` / :mod:`sfwmlab.cli` - configuration documents and
  the command-line front end.
"""

__version__ = "0.1.0"

from .analysis import AnalysisResult, analyze_histogram
from .config import (
    ExperimentConfig,
    Setup,
    engineered_defaults,
    load_config,
    paper_defaults,
)
from .devices import (
    CouplingSpec,
    DetectionChannel,
    NoiseModel,
    PumpConfig,
    PumpRejection,
    WaveguideSpec,
)
from .eventsim import HistogramResult, TiaConfig, run_tia
from .explore import (
    CurveResult,
    DesignResult,
    FitResult,
    SweepSpec,
    car_vs_detuning,
    car_vs_mu,
    fit_power_law,
    optimize_car,
    power_for_pairs_per_pulse,
    sweep,
)
from .model import (
    ModelObservables,
    calibrate_eta_alpha,
    calibrate_raman,
    pair_generation_rate,
    predict_observables,
    pump_leakage_rate,
    raman_noise_rate,
    thermal_occupancy,
)

__all__ = [
    "__version__",
    "AnalysisResult",
    "CouplingSpec",
    "CurveResult",
    "DesignResult",
    "DetectionChannel",
    "ExperimentConfig",
    "FitResult",
    "HistogramResult",
    "ModelObservables",
    "NoiseModel",
    "PumpConfig",
    "PumpRejection",
    "Setup",
    "SweepSpec",
    "TiaConfig",
    "WaveguideSpec",
    "analyze_histogram",
    "calibrate_eta_alpha",
    "calibrate_raman",
    "car_vs_detuning",
    "car_vs_mu",
    "engineered_defaults",
    "fit_power_law",
    "load_config",
    "optimize_car",
    "pair_generation_rate",
    "paper_defaults",
    "power_for_pairs_per_pulse",
    "predict_observables",
    "pump_leakage_rate",
    "raman_noise_rate",
    "run_tia",
    "sweep",
    "thermal_occupancy",
]
