"""Exact quadrature-representation math on truncated Fock spaces.

Provides the harmonic-oscillator quadrature wavefunctions (vacuum variance
1/2 convention), their overlap integrals over an interval (threshold windows
and tomography bins), and the pass/discard post-selection operators used by
the thresholded homodyne measurement model.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PSD_EIG_TOL = 1e-8


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Normalized oscillator eigenfunctions phi_n(x), n = 0..n_max.

    phi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) exp(-x^2/2), evaluated by the
    stable three-term recurrence (no explicit factorials, safe past n = 10).

    Returns array of shape (n_max + 1,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * x * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def wavefunction_value(n: int, x: float, theta: float = 0.0) -> complex:
    """Quadrature wavefunction psi_n(x, theta) = phi_n(x) e^(i n theta).

    The local-oscillator phase enters only as the n-dependent phase factor,
    so |psi_n| is theta-independent.
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if not np.isfinite(x):
        raise ValueError("quadrature value must be finite")
    amp = hermite_functions(n, np.asarray(x, dtype=float))[n]
    return complex(amp * np.exp(1j * n * theta))


@lru_cache(maxsize=32)
def _gauss_legendre(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def overlap_matrix(lo: float, hi: float, cutoff: int, order: int) -> np.ndarray:
    """Integrals of phi_m(x) phi_n(x) over [lo, hi], m, n = 0..cutoff, by
    `order`-point Gauss-Legendre quadrature: the threshold windows' and the
    tomography bins' overlaps alike."""
    nodes, weights = _gauss_legendre(order)
    half = 0.5 * (hi - lo)
    x = lo + half * (nodes + 1.0)
    w = half * weights
    phi = hermite_functions(cutoff, x)  # (cutoff + 1, order)
    return (phi * w) @ phi.T


def _overlap_order(T: float) -> int:
    # Integrand is polynomial * Gaussian; this order holds erf(T) to < 1e-13
    # for T up to ~10 and photon numbers up to 16.
    return max(60, int(24 * T) + 40)


def window_overlap(m: int, n: int, T: float) -> float:
    """Integral of phi_m(x) phi_n(x) over [-T, T] (theta = 0 convention).

    Exactly zero for odd m + n by parity; the caller applies any
    e^(i(n-m)theta) phase factor.
    """
    if T < 0:
        raise ValueError("threshold must be non-negative")
    if m < 0 or n < 0:
        raise ValueError("photon numbers must be non-negative")
    if (m + n) % 2 == 1:
        return 0.0
    lo, hi = sorted((m, n))
    return float(overlap_matrix(-T, T, hi, _overlap_order(T))[lo, hi])


def build_postselection_operators(
    T: float, cutoff: int, theta: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Discard/pass operator pair (Q_discard, Q_pass) at threshold T, as
    (cutoff + 1)-square complex arrays.

    Q_discard[m, n] = e^(i(n-m)theta) * window_overlap(m, n, T) and
    Q_pass = I - Q_discard. Both are PSD on the truncated space; restricted to
    the {|0>, |1>} subspace they are diagonal, hence theta-independent.
    """
    if T < 0:
        raise ValueError("threshold must be non-negative")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    d = cutoff + 1
    # The upper triangle, odd m + n zeroed by parity, mirrored: exactly Hermitian.
    overlap = np.triu(overlap_matrix(-T, T, cutoff, _overlap_order(T)))
    m, n = np.ogrid[:d, :d]
    overlap[(m + n) % 2 == 1] = 0.0
    q = (overlap + np.triu(overlap, 1).T) * np.exp(1j * (n - m) * theta)
    q_pass = np.eye(d, dtype=complex) - q
    for name, mat in (("Q_discard", q), ("Q_pass", q_pass)):
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -PSD_EIG_TOL:
            raise ArithmeticError(
                f"{name} not PSD (min eigenvalue {low:.3e}); quadrature failure"
            )
    return q, q_pass


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
