"""Helpers shared by the test modules."""

import numpy as np

from pathent.fock import PSD_EIG_TOL


def records(batch):
    """Every record of `batch` as two whole arrays (x_a, x_b): copies of its
    chunks, concatenated in order (`chunks` overwrites one scratch pair)."""
    arms = [(x_a.copy(), x_b.copy()) for x_a, x_b in batch.chunks()]
    return tuple(np.concatenate(arm) for arm in zip(*arms))


def psd_operator_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of the square array `a` via
    eigendecomposition.

    Rejects inputs with an eigenvalue below -1e-8; small negative eigenvalues
    above that are clipped to zero.
    """
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise ValueError("operator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    if w[0] < -PSD_EIG_TOL:
        raise ValueError(f"operator is not PSD (min eigenvalue {w[0]:.3e})")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return 0.5 * (root + root.conj().T)
