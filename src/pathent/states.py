"""Source and channel models.

The balanced-homodyne noise model, two-mode Fock states and the 50:50
splitter action on Fock inputs, and the source intensity that compensates
the loss-equivalent reduction, which folds photodiode inefficiency and
electronic noise into a single fictitious transmittance in front of the
splitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    """Balanced-homodyne noise parameters.

    eta_pd is the photodiode transmittance; v_e the electronic noise variance
    in shot-noise units (vacuum quadrature variance 1/2, so the additive
    electronic noise has variance v_e / 2 on the raw samples).
    """

    eta_pd: float = 1.0
    v_e: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta_pd <= 1.0):
            raise ValueError("eta_pd must be in (0, 1]")
        if not 0 <= self.v_e < np.inf:
            raise ValueError("v_e must be non-negative and finite")

    @property
    def eta_ele(self) -> float:
        return 1.0 / (1.0 + self.v_e)

    @property
    def eta_tot(self) -> float:
        return self.eta_pd * self.eta_ele


IDEAL_NOISE = NoiseModel(eta_pd=1.0, v_e=0.0)


@dataclass(frozen=True)
class TwoModeFockState:
    """Pure two-mode state with amplitudes over |j, k>, j, k <= cutoff."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        d = self.cutoff + 1
        if amps.shape != (d, d):
            raise ValueError(f"expected {d}x{d} amplitude grid, got {amps.shape}")
        norm = np.sum(np.abs(amps) ** 2)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} deviates from 1")
        object.__setattr__(self, "amplitudes", amps)

    def vector(self) -> np.ndarray:
        """Flattened amplitudes; index (j, k) -> j * (cutoff+1) + k."""
        return self.amplitudes.reshape(-1)


def bell_state(cutoff: int = 1) -> TwoModeFockState:
    """The single-photon path-entangled target (|01> + |10>) / sqrt(2)."""
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    amps[0, 1] = amps[1, 0] = 1.0 / np.sqrt(2.0)
    return TwoModeFockState(cutoff, amps)


def splitter_output(n: int, cutoff: int) -> TwoModeFockState:
    """n-photon Fock state through a symmetric 50:50 splitter.

    Output is sum_k sqrt(C(n, k) / 2^n) |k, n-k> in the real-amplitude
    convention a_dag -> (a_dag + b_dag) / sqrt(2). For n = 1 this is the Bell
    state (|01> + |10>) / sqrt(2).
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if n > cutoff:
        raise ValueError(f"photon number {n} exceeds cutoff {cutoff}")
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for k in range(n + 1):
        amps[k, n - k] = np.sqrt(comb(n, k) / 2.0**n)
    return TwoModeFockState(cutoff, amps)


def compensated_intensity(mu_target: float, noise: NoiseModel) -> float:
    """Source intensity that lands at mu_target after the equivalent loss.

    Loss only attenuates a coherent state's intensity (mu -> mu * eta), so
    compensated_intensity(mu, nm) * nm.eta_tot == mu.
    """
    if noise.eta_tot <= 0:
        raise ValueError("total transmittance must be positive")
    if mu_target < 0:
        raise ValueError("intensity must be non-negative")
    return mu_target / noise.eta_tot
