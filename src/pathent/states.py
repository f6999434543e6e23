"""Source and channel models.

The balanced-homodyne noise model, the single-photon Bell target, and the
source intensity that compensates the loss-equivalent reduction, which
folds photodiode inefficiency and electronic noise into a single fictitious
transmittance in front of the splitter.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def bell_state(cutoff: int = 1) -> np.ndarray:
    """The single-photon path-entangled target (|01> + |10>) / sqrt(2), as
    unit amplitudes over |j, k>, j, k <= cutoff, at index j (cutoff + 1) + k."""
    vec = np.zeros((cutoff + 1) ** 2, dtype=complex)
    vec[1] = vec[cutoff + 1] = 1.0 / np.sqrt(2.0)
    return vec


def compensated_intensity(mu_target: float, noise: NoiseModel) -> float:
    """Source intensity that lands at mu_target after the equivalent loss.

    Loss only attenuates a coherent state's intensity (mu -> mu * eta), so
    compensated_intensity(mu, nm) * nm.eta_tot == mu.
    """
    if noise.eta_tot <= 0:
        raise ValueError("total transmittance eta_pd * eta_ele must be positive")
    if mu_target < 0:
        raise ValueError("intensity must be non-negative")
    return mu_target / noise.eta_tot
