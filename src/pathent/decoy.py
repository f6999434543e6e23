"""Decoy-intensity linear estimator for the single-photon yield, with
rigorous parity-dependent bounds.

The estimator takes the statistic measured at each intensity label as one
sequence, vacuum first: `gains[j]` belongs to label j (0 = vacuum, j = mu_j).
The same machinery serves scalar coincidence probabilities and per-bin
densities: the gain entries may be numpy arrays and everything broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class DecoyIntensitySet:
    """Strictly increasing positive intensities mu_1 < ... < mu_L.

    The vacuum intensity mu_0 = 0 is implicit: it is label 0 of every gain
    sequence, and mu_j is label j.
    """

    intensities: tuple

    def __post_init__(self):
        mus = tuple(float(m) for m in self.intensities)
        if len(mus) < 1:
            raise ValueError("need at least one decoy intensity")
        if not all(0 < m < np.inf for m in mus):
            raise ValueError("decoy intensities must be positive and finite")
        if any(b <= a for a, b in zip(mus, mus[1:])):
            raise ValueError("decoy intensities must be strictly increasing")
        object.__setattr__(self, "intensities", mus)

    @property
    def num_levels(self) -> int:
        return len(self.intensities)

    @cached_property
    def estimator_coefficients(self) -> tuple[np.ndarray, float]:
        """Linear weights (w_1..w_L, w_0) so the single-photon estimate is
        sum_j w_j Q_{mu_j} + w_0 Q_{mu_0}. Computed once per set; the weight
        array is read-only because every caller shares it."""
        mus = np.asarray(self.intensities)
        L = len(mus)
        prod = np.prod(mus)
        w = np.empty(L)
        for j in range(L):
            den = np.prod([mus[i] - mus[j] for i in range(L) if i != j]) if L > 1 else 1.0
            w[j] = prod * np.exp(mus[j]) / (mus[j] ** 2 * den)
        w0 = float(-np.sum(w * np.exp(-mus)))
        w.flags.writeable = False
        return w, w0

    @cached_property
    def _delta(self) -> float:
        """Delta_L of `bound_interval`, computed once per set."""
        w, w0 = self.estimator_coefficients
        # Gains for Y_n = 1 (all n): Q_mu = 1 for every intensity including vacuum.
        all_ones = float(np.sum(w) + w0)
        sign = -1.0 if self.num_levels % 2 == 0 else 1.0
        delta = sign * (all_ones - 1.0)
        if delta < -1e-12:
            raise ArithmeticError(f"negative bound interval {delta:.3e}: implementation fault")
        return max(delta, 0.0)


def estimate_single_photon_statistic(gains, intensity_set: DecoyIntensitySet):
    """Linear decoy estimate of the single-photon yield Y_1 from `gains[j]`,
    the statistic at intensity label j (Q_0 the vacuum, Q_{mu_j} at j >= 1).

    mu_1...mu_L * sum_j mu_j^-2 (e^{mu_j} Q_{mu_j} - Q_0) / prod_{i!=j}(mu_i - mu_j).
    Exact when Y_n vanishes for n >= 2; linear in the gains; broadcasts over
    array-valued gains.
    """
    if len(gains) != intensity_set.num_levels + 1:
        raise ValueError("need one gain per intensity label, the vacuum first")
    w, w0 = intensity_set.estimator_coefficients
    est = w0 * np.asarray(gains[0], dtype=float)
    for wj, qj in zip(w, gains[1:]):
        est = est + wj * np.asarray(qj, dtype=float)
    return est if est.ndim else float(est)


def bound_interval(intensity_set: DecoyIntensitySet) -> float:
    """Worst-case gap Delta_L between the estimate and the true Y_1.

    Delta_L = (-1)^(L+1) * (mu_1...mu_L * sum_j mu_j^-2 (e^{mu_j} - 1)
    / prod_{i!=j}(mu_i - mu_j)  -  1), i.e. the estimator applied to the
    all-ones yield sequence minus its exact single-photon answer, saturated
    by Y_n = 1 for all n >= 2. Always non-negative for a valid set; computed
    once per set.
    """
    return intensity_set._delta


def bound_statistic(estimate, intensity_set: DecoyIntensitySet) -> tuple:
    """Parity rule: L odd -> [estimate - Delta_L, estimate]; L even ->
    [estimate, estimate + Delta_L], with the bounds (not the raw estimate)
    clamped to [0, 1]. Returns (estimate, lower, upper); broadcasts over
    array-valued estimates."""
    delta = bound_interval(intensity_set)
    if intensity_set.num_levels % 2 == 1:
        lower, upper = estimate - delta, estimate
    else:
        lower, upper = estimate, estimate + delta
    return estimate, np.clip(lower, 0.0, 1.0), np.clip(upper, 0.0, 1.0)


def exact_gains(yields: np.ndarray, mu: float, n_max: int | None = None):
    """Oracle helper: gain Q_mu = sum_n Y_n mu^n e^-mu / n! from a truncated
    yield sequence (series summed over the full provided range)."""
    from scipy.stats import poisson

    yields = np.asarray(yields, dtype=float)
    top = yields.shape[0] - 1 if n_max is None else min(n_max, yields.shape[0] - 1)
    n = np.arange(top + 1)
    w = poisson.pmf(n, mu)
    return np.tensordot(w, yields[: top + 1], axes=(0, 0))
