"""Structured experiment configuration.

Flat INI-style files (key = value under section headers), diff-friendly and
fully covered by defaults that reproduce the experiment's operating point:
decoy intensities {0.0872, 0.2314, 0.9840}, photodiode transmittance 0.617,
electronic-noise-equivalent transmittance 0.6, and the 8-phase dtheta grid
from -pi to pi in pi/4 steps.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .decoy import DecoyIntensitySet
from .homodyne import PIPELINES
from .states import NoiseModel, compensated_intensity

DEFAULT_INTENSITIES = (0.0872, 0.2314, 0.9840)
# The CHSH scan holds one count table of 4 * (thresholds + 1) int64 cells per
# batch and runs the decoy chain once per threshold and setting; the default
# grid has 101 thresholds.
MAX_THRESHOLDS = 100_000
# Each tomography count table holds (bins per axis + 2)^2 int64 cells, and the
# POVM one overlap matrix per bin; the default grid has 50 bins per axis.
MAX_BINS = 1000
# The POVM's phase table holds 4 doubles per setting and pair of unordered Fock
# pairs, ~n_phases * (cutoff + 1)^4: ~1.1 MB at the default point, ~80 MB at the cap.
MAX_POVM_CELLS = 10_000_000
# Tomography counts n_phases * (bins per axis)^2 cells per intensity label, and
# the MLE's temporaries are as large; the default has 20,000, 8 phases fit at MAX_BINS.
MAX_HISTOGRAM_CELLS = 10_000_000


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    intensities: tuple = DEFAULT_INTENSITIES
    eta_pd: float = 0.617
    v_e: float = 2.0 / 3.0
    pipeline: str = "equivalent"
    samples_per_point: int = 1_000_000
    vacuum_samples: int = 50_000_000
    t_min: float = 0.0
    t_max: float = 2.0
    t_step: float = 0.02
    t_fixed: float = 1.0
    n_phases: int = 8
    cutoff: int = 10
    bin_width: float = 0.2
    x_range: float = 5.0
    # The MLE stops once two consecutive iterations each gain less than
    # `tolerance` in log-likelihood; a run whose `max_iterations` L-BFGS
    # iterations end first exits 4. At the default point it takes ~100.
    max_iterations: int = 500
    tolerance: float = 1e-9
    seed: int = 12345
    workers: int = 1
    scale: int = 1

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"unknown pipeline {self.pipeline!r}")
        if self.samples_per_point < 1 or self.vacuum_samples < 1:
            raise ConfigError("sample counts must be at least 1")
        if not all(np.isfinite((self.t_max, self.t_step, self.t_fixed))):
            raise ConfigError("thresholds t_max, t_step and t_fixed must be finite")
        if self.t_step <= 0 or self.t_max < self.t_min:
            raise ConfigError("threshold grid is empty")
        if not (self.t_min >= 0 and self.t_fixed >= 0):
            raise ConfigError("thresholds t_min and t_fixed must be non-negative")
        steps = self._threshold_steps()
        if not (np.isfinite(steps) and steps < MAX_THRESHOLDS):
            raise ConfigError(f"t_min, t_max and t_step give over {MAX_THRESHOLDS} thresholds")
        if self.n_phases < 1:
            raise ConfigError("phase grid is empty")
        if self.scale < 1 or self.workers < 1:
            raise ConfigError("scale and workers must be at least 1")
        if self.max_iterations < 1:
            raise ConfigError("tomography max_iterations must be at least 1")
        try:  # each object checks its own rules as it is built
            self.intensity_set, self.noise
            if self.pipeline != "ideal-fock":  # ideal-fock's |1> source is noiseless
                if not np.isfinite(compensated_intensity(max(self.intensities), self.noise)):
                    raise ValueError("eta_pd and v_e overflow the compensated source intensity")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.cutoff < 1:
            raise ConfigError("cutoff must be at least 1")
        if self.n_phases * (self.cutoff + 1) ** 4 > MAX_POVM_CELLS:
            raise ConfigError(f"n_phases * (cutoff + 1)^4 is over {MAX_POVM_CELLS} POVM cells")
        if not self.tolerance > 0:
            raise ConfigError("tolerance must be positive")
        for key in ("bin_width", "x_range"):
            if not 0 < getattr(self, key) < np.inf:
                raise ConfigError(f"{key} must be positive and finite")
        n_bins = 2.0 * self.x_range / self.bin_width  # inf when bin_width is tiny
        if not (np.isfinite(n_bins) and round(n_bins) <= MAX_BINS):
            raise ConfigError(f"x_range and bin_width give over {MAX_BINS} bins per axis")
        if round(n_bins) < 1:
            raise ConfigError("bin_width leaves no bin in [-x_range, x_range]")
        if self.n_phases * round(n_bins) ** 2 > MAX_HISTOGRAM_CELLS:
            raise ConfigError(f"n_phases * bins^2 is over {MAX_HISTOGRAM_CELLS} histogram cells")

    @property
    def intensity_set(self) -> DecoyIntensitySet:
        return DecoyIntensitySet(self.intensities)

    @property
    def noise(self) -> NoiseModel:
        return NoiseModel(self.eta_pd, self.v_e)

    def _threshold_steps(self) -> float:
        """The largest n with t_min + n t_step <= t_max, to a relative 1e-9
        (0.3 / 0.1 = 2.9999999999999996 gives 3); inf when t_step is tiny."""
        return float(np.floor((self.t_max - self.t_min) / self.t_step * (1.0 + 1e-9)))

    def t_grid(self) -> np.ndarray:
        return self.t_min + self.t_step * np.arange(int(self._threshold_steps()) + 1)

    def bin_edges(self) -> np.ndarray:
        n_bins = int(round(2.0 * self.x_range / self.bin_width))
        return np.linspace(-self.x_range, self.x_range, n_bins + 1)

    def dtheta_grid(self) -> np.ndarray:
        return -np.pi + (2.0 * np.pi / self.n_phases) * np.arange(self.n_phases)

    def scaled(self, count: int) -> int:
        return max(1, count // self.scale)

    def content_hash(self) -> str:
        """Hash of every field but `workers`, which changes no output."""
        fields = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "workers"}
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_SECTION_FIELDS = {
    "source": ("intensities",),
    "noise": ("eta_pd", "v_e"),
    "sampling": ("pipeline", "samples_per_point", "vacuum_samples", "seed"),
    "chsh": ("t_min", "t_max", "t_step", "t_fixed"),
    "phases": ("n_phases",),
    "tomography": ("cutoff", "bin_width", "x_range", "max_iterations", "tolerance"),
    "run": ("workers", "scale"),
}

# Each INI value is parsed by the type of its field's default.
_PARSERS = {
    int: int,
    float: float,
    str: str.strip,
    tuple: lambda raw: tuple(float(v) for v in raw.split(",")),
}


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        items = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    defaults = ExperimentConfig.__dataclass_fields__
    kwargs = {}
    for section, pairs in items.items():
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in pairs:
            if key not in _SECTION_FIELDS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                kwargs[key] = _PARSERS[type(defaults[key].default)](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def with_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **overrides) if overrides else config
