"""Exact quadrature-representation math on truncated Fock spaces.

Provides the harmonic-oscillator quadrature wavefunctions (vacuum variance
1/2 convention), their overlap integrals over intervals in closed form
(`overlap_matrices`: threshold windows and tomography bins alike), and the
pass/discard post-selection operators used by the thresholded homodyne
measurement model.
"""

from __future__ import annotations

import math

import numpy as np

PSD_EIG_TOL = 1e-8


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Normalized oscillator eigenfunctions phi_n(x), n = 0..n_max.

    phi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) exp(-x^2/2), evaluated by the
    stable three-term recurrence (no explicit factorials, safe past n = 10).

    Returns array of shape (n_max + 1,) + x.shape.
    """
    # Past |x| ~ 39 every phi_n(x) is 0, exp having underflowed. Clipping |x|
    # to 1e150 keeps that and keeps x * x and sqrt(2) x finite for any
    # double, where they would overflow and 0 * inf would give NaN.
    x = np.clip(np.asarray(x, dtype=float), -1e150, 1e150)
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * x * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def overlap_matrices(cuts, cutoff: int) -> np.ndarray:
    """Integrals of phi_m(x) phi_n(x), m, n = 0..cutoff, over each interval
    [cuts[k], cuts[k + 1]] between the sorted cut points, in closed form, as
    an array of shape (len(cuts) - 1, cutoff + 1, cutoff + 1).

    Off the diagonal: phi_n'' = (x^2 - 2n - 1) phi_n makes the Wronskian
    (phi_m phi_n' - phi_m' phi_n) / (2(m - n)) an antiderivative of
    phi_m phi_n, and phi_n' = sqrt(2n) phi_(n-1) - x phi_n turns it into
    (phi_m r_n - r_m phi_n) / (2(m - n)) with r_n = sqrt(2n) phi_(n-1). On
    the diagonal: I_00 = (erf(b) - erf(a)) / 2, then the oscillator
    recurrence I_nn = I_(n-1,n-1) + sqrt((n+1)/n) I_(n+1,n-1)
    - sqrt((n-1)/n) I_(n,n-2). Each matrix is exactly symmetric, and on a
    window [-T, T] its entries of odd m + n are exactly 0, since
    phi_n(-x) = (-1)^n phi_n(x) to the bit.
    """
    cuts = np.asarray(cuts, dtype=float)
    size = cutoff + 2  # the diagonal recurrence reads I_(cutoff+1, cutoff-1)
    phi = hermite_functions(size - 1, cuts).T  # (points, size)
    raised = np.zeros_like(phi)
    raised[:, 1:] = np.sqrt(2.0 * np.arange(1, size)) * phi[:, :-1]
    cross = phi[:, :, None] * raised[:, None, :]
    k = np.arange(size)
    gap = 2.0 * (k[:, None] - k[None, :])
    gap[k, k] = 1.0  # its zero numerator is replaced below
    wronskian = cross - cross.transpose(0, 2, 1)
    wronskian /= gap
    out = np.diff(wronskian, axis=0)
    out[:, 0, 0] = np.diff([math.erf(x) for x in cuts]) / 2.0
    for n in range(1, cutoff + 1):
        out[:, n, n] = out[:, n - 1, n - 1] + math.sqrt((n + 1) / n) * out[:, n + 1, n - 1]
        if n > 1:
            out[:, n, n] -= math.sqrt((n - 1) / n) * out[:, n, n - 2]
    return out[:, : cutoff + 1, : cutoff + 1]


def build_postselection_operators(T: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Discard/pass operator pair (Q_discard, Q_pass) at threshold T and LO
    phase 0, as (cutoff + 1)-square complex arrays.

    Q_discard[m, n] is the integral of phi_m phi_n over [-T, T]
    (`overlap_matrices`), and Q_pass = I - Q_discard, both PSD on the
    truncated space. At LO phase theta entry (m, n) gains e^(i(n-m)theta),
    so on the {|0>, |1>} subspace, where both are diagonal, they are not
    theta-dependent."""
    if T < 0:
        raise ValueError("threshold must be non-negative")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    q = overlap_matrices((-T, T), cutoff)[0].astype(complex)
    q_pass = np.eye(cutoff + 1, dtype=complex) - q
    for name, mat in (("Q_discard", q), ("Q_pass", q_pass)):
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -PSD_EIG_TOL:
            raise ArithmeticError(f"{name} not PSD (min eigenvalue {low:.3e})")
    return q, q_pass

