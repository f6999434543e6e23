"""Desk-scale simulation and certification of single-photon path
entanglement generated from phase-randomized coherent states via the
decoy-state method, measured with noisy balanced homodyne detectors."""

from .config import ExperimentConfig, load_config
from .decoy import (
    DecoyIntensitySet,
    bound_interval,
    bound_statistic,
    estimate_single_photon_statistic,
)
from .fock import (
    TruncatedOperator,
    build_postselection_operators,
    psd_operator_sqrt,
    wavefunction_value,
    window_overlap,
)
from .homodyne import (
    MeasurementSettings,
    SampleBatch,
    joint_pdf_fock,
    sample_batch,
    sample_fock_pair,
)
from .states import (
    NoiseModel,
    TwoModeFockState,
    bell_state,
    compensated_intensity,
    loss_on_coherent,
    poisson_weights,
    splitter_output,
)

__all__ = [
    "DecoyIntensitySet",
    "ExperimentConfig",
    "MeasurementSettings",
    "NoiseModel",
    "SampleBatch",
    "TruncatedOperator",
    "TwoModeFockState",
    "bell_state",
    "bound_interval",
    "bound_statistic",
    "build_postselection_operators",
    "compensated_intensity",
    "estimate_single_photon_statistic",
    "joint_pdf_fock",
    "load_config",
    "loss_on_coherent",
    "poisson_weights",
    "psd_operator_sqrt",
    "sample_batch",
    "sample_fock_pair",
    "splitter_output",
    "wavefunction_value",
    "window_overlap",
]

__version__ = "0.1.0"
