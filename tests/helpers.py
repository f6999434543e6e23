"""Helpers shared by the test modules: reference implementations the
pipelines are compared against, and test-only wrappers of `pathent`."""

from math import comb

import numpy as np

from pathent.fock import (
    PSD_EIG_TOL,
    build_postselection_operators,
    hermite_functions,
    overlap_matrices,
)


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


def postselection_at(T: float, cutoff: int, theta: float):
    """(Q_discard, Q_pass) at threshold T and LO phase theta: the phase-0
    pair of `build_postselection_operators` with entry (m, n) of each times
    e^(i(n-m)theta), i.e. conjugated by U = diag(e^(i n theta))."""
    q, _ = build_postselection_operators(T, cutoff)
    k = np.arange(cutoff + 1)
    q = q * np.exp(1j * (k - k[:, None]) * theta)
    return q, np.eye(cutoff + 1) - q


def exact_gains(yields: np.ndarray, mu: float, n_max: int | None = None):
    """Gain Q_mu = sum_n Y_n mu^n e^-mu / n! from a truncated yield sequence
    (series summed over the full provided range)."""
    from scipy.stats import poisson

    yields = np.asarray(yields, dtype=float)
    top = yields.shape[0] - 1 if n_max is None else min(n_max, yields.shape[0] - 1)
    n = np.arange(top + 1)
    w = poisson.pmf(n, mu)
    return np.tensordot(w, yields[: top + 1], axes=(0, 0))


def wavefunction_value(n: int, x: float, theta: float = 0.0) -> complex:
    """Quadrature wavefunction psi_n(x, theta) = phi_n(x) e^(i n theta),
    from `hermite_functions`.

    The local-oscillator phase enters only as the n-dependent phase factor,
    so |psi_n| is theta-independent.
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if not np.isfinite(x):
        raise ValueError("quadrature value must be finite")
    amp = hermite_functions(n, np.asarray(x, dtype=float))[n]
    return complex(amp * np.exp(1j * n * theta))


def window_overlap(m: int, n: int, T: float) -> float:
    """Integral of phi_m(x) phi_n(x) over [-T, T] (theta = 0 convention),
    one entry of `overlap_matrices`.

    Exactly zero for odd m + n by parity; the caller applies any
    e^(i(n-m)theta) phase factor.
    """
    if T < 0:
        raise ValueError("threshold must be non-negative")
    if m < 0 or n < 0:
        raise ValueError("photon numbers must be non-negative")
    return float(overlap_matrices((-T, T), max(m, n))[0, m, n])


def splitter_output(n: int, cutoff: int) -> np.ndarray:
    """n-photon Fock state through a symmetric 50:50 splitter.

    Output is sum_k sqrt(C(n, k) / 2^n) |k, n-k> in the real-amplitude
    convention a_dag -> (a_dag + b_dag) / sqrt(2), as the (cutoff + 1)-square
    amplitude array over |j, k>. For n = 1 this is the Bell state
    (|01> + |10>) / sqrt(2).
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if n > cutoff:
        raise ValueError(f"photon number {n} exceeds cutoff {cutoff}")
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for k in range(n + 1):
        amps[k, n - k] = np.sqrt(comb(n, k) / 2.0**n)
    return amps


def joint_pdf_fock(n, x_a, x_b, dtheta: float):
    """Exact joint density of (x_a, x_b) for Fock input |n> at phase gap dtheta.

    The amplitude is sum_k c_k psi_k(x_a, phi_a) psi_{n-k}(x_b, phi_b) with
    splitter coefficients c_k; the density depends on the phases only through
    dtheta = phi_a - phi_b. Broadcasts over array x_a, x_b.
    """
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    coeffs = splitter_output(n, n)
    phi_a_vals = hermite_functions(n, x_a)
    phi_b_vals = hermite_functions(n, x_b)
    amp = np.zeros(np.broadcast_shapes(x_a.shape, x_b.shape), dtype=complex)
    for k in range(n + 1):
        c = coeffs[k, n - k].real
        amp = amp + c * np.exp(1j * k * dtheta) * phi_a_vals[k] * phi_b_vals[n - k]
    return np.abs(amp) ** 2
