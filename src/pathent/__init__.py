"""Desk-scale simulation and certification of single-photon path
entanglement generated from phase-randomized coherent states via the
decoy-state method, measured with noisy balanced homodyne detectors."""

from .config import ExperimentConfig, load_config
from .decoy import (
    DecoyIntensitySet,
    bound_statistic,
    estimate_single_photon_statistic,
)
from .fock import build_postselection_operators
from .homodyne import MeasurementSettings, SampleBatch, sample_batch
from .states import NoiseModel, bell_state, compensated_intensity

__all__ = [
    "DecoyIntensitySet",
    "ExperimentConfig",
    "MeasurementSettings",
    "NoiseModel",
    "SampleBatch",
    "bell_state",
    "bound_statistic",
    "build_postselection_operators",
    "compensated_intensity",
    "estimate_single_photon_statistic",
    "load_config",
    "sample_batch",
]

__version__ = "0.1.0"
