"""Helpers shared by the test modules."""

import numpy as np

from pathent.fock import PSD_EIG_TOL


def records(batch):
    """Every record of `batch` as two whole arrays (x_a, x_b): copies of its
    chunks, concatenated in order (`chunks` overwrites one scratch pair)."""
    arms = [(x_a.copy(), x_b.copy()) for x_a, x_b in batch.chunks()]
    return tuple(np.concatenate(arm) for arm in zip(*arms))


def reference_cells(kind, grid, x_a, x_b):
    """Counts of the records (x_a[i], x_b[i]) in the cells of
    `chsh.threshold_binning(grid)` (kind "threshold") or
    `tomography.histogram_binning(grid)` (kind "histogram"), in the cell
    order of their masses, found by numpy's own searches.

    A threshold cell is a sign quadrant 2 (x_a > 0) + (x_b > 0) and the
    number of distinct levels below min(|x_a|, |x_b|), a NaN in either arm
    counting as 0. A histogram cell is a cell (i, j) of
    [-inf, *grid, inf] per arm, by `np.histogram2d`, which drops NaN and
    counts a record on the last bound in the last cell.
    """
    x_a, x_b = np.asarray(x_a, dtype=float), np.asarray(x_b, dtype=float)
    if kind == "threshold":
        levels = np.unique(np.asarray(grid, dtype=float))
        depth = np.searchsorted(levels, np.fmax(np.minimum(np.abs(x_a), np.abs(x_b)), 0.0))
        cells = depth + (levels.size + 1) * (2 * (x_a > 0) + (x_b > 0))
        return np.bincount(cells, minlength=4 * (levels.size + 1))
    bounds = np.concatenate(([-np.inf], grid, [np.inf]))
    return np.histogram2d(x_a, x_b, (bounds, bounds))[0].astype(np.int64).ravel()


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
