"""Exact quadrature-representation math on truncated Fock spaces.

Provides the harmonic-oscillator quadrature wavefunctions (vacuum variance
1/2 convention), overlap integrals over symmetric threshold windows, and the
pass/discard post-selection operators used by the thresholded homodyne
measurement model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PSD_EIG_TOL = 1e-8


@dataclass(frozen=True)
class TruncatedOperator:
    """Complex operator on a Fock space truncated at photon number `cutoff`.

    `entries` has dimension (cutoff+1)**modes along each axis.
    """

    cutoff: int
    modes: int
    entries: np.ndarray

    def __post_init__(self):
        dim = (self.cutoff + 1) ** self.modes
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {entries.shape}")
        object.__setattr__(self, "entries", entries)


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


def _window_quadrature(T: float, order: int):
    """Gauss-Legendre nodes/weights mapped to [-T, T]."""
    nodes, weights = _gauss_legendre(order)
    return nodes * T, weights * T


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
    if T == 0.0:
        return 0.0
    x, w = _window_quadrature(T, _overlap_order(T))
    phi = hermite_functions(max(m, n), x)
    return float(np.dot(w, phi[m] * phi[n]))


def build_postselection_operators(
    T: float, cutoff: int, theta: float = 0.0
) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Discard/pass operator pair (Q_discard, Q_pass) at threshold T.

    Q_discard[m, n] = e^(i(n-m)theta) * window_overlap(m, n, T) and
    Q_pass = I - Q_discard. Both are PSD on the truncated space; restricted to
    the {|0>, |1>} subspace they are diagonal, hence theta-independent.
    """
    if T < 0:
        raise ValueError("threshold must be non-negative")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    d = cutoff + 1
    q = np.zeros((d, d), dtype=complex)
    for m in range(d):
        for n in range(m, d):
            val = window_overlap(m, n, T)
            if val != 0.0:
                q[m, n] = val * np.exp(1j * (n - m) * theta)
                q[n, m] = np.conj(q[m, n])
    q_pass = np.eye(d, dtype=complex) - q
    for name, mat in (("Q_discard", q), ("Q_pass", q_pass)):
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -PSD_EIG_TOL:
            raise ArithmeticError(
                f"{name} not PSD (min eigenvalue {low:.3e}); quadrature failure"
            )
    return (
        TruncatedOperator(cutoff, 1, q),
        TruncatedOperator(cutoff, 1, q_pass),
    )


def psd_operator_sqrt(op: TruncatedOperator) -> TruncatedOperator:
    """Hermitian PSD square root via eigendecomposition.

    Rejects inputs with an eigenvalue below -1e-8; small negative eigenvalues
    above that are clipped to zero.
    """
    a = op.entries
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise ValueError("operator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    if w[0] < -PSD_EIG_TOL:
        raise ValueError(f"operator is not PSD (min eigenvalue {w[0]:.3e})")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    root = 0.5 * (root + root.conj().T)
    return TruncatedOperator(op.cutoff, op.modes, root)
