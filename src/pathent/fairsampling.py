"""Closed-form check that threshold post-selection factorizes into an
independent classical (setting) filter and quantum (state) filter.

Setting a filters a state by sqrt(Q(theta_a)) at its LO phase theta_a, and
the setting filter always passes, so a state factorizes exactly when its
filtered blocks do not depend on theta_a. Q(theta) = U* Q(0) U with
U = diag(e^(i n theta)), so entry (m, n) of Q_discard, and of
Q_pass = I - Q_discard, drifts by |Q(0)_mn| |e^(i(n-m)theta) - 1| over the
phase grid: `max_residual` is the largest drift in columns 0 and 1,
`theta_independence_residual` the largest anywhere.

If max_residual is 0 on a grid with a phase where e^(i(n-m)theta) != 1 for
0 < |n - m| <= cutoff (N_THETAS = 8 phases have one, 2 pi / 8, up to
cutoff 7), the Hermitian Q(0) is block diagonal over span{|0>, |1>} and its
complement, and diagonal on the former. So is sqrt(Q(0)), and the diagonal
U leaves that block as it is: sqrt(Q(theta)) equals sqrt(Q(0)) on the
subspace at every setting, and every state there factorizes. Parity gives
Q(0)_01 = 0, which is all at cutoff 1; above it Q(0)_20 != 0. On the subspace
Q_pass = diag(q0, q1), q0 = erfc T and q1 = erfc T + 2T e^(-T^2)/sqrt(pi).
"""

from __future__ import annotations

import numpy as np

from .fock import build_postselection_operators

THRESHOLDS = (0.2, 0.82, 1.0, 2.0)
# The check's LO phases 2 pi j / N_THETAS, and the largest passing max_residual.
N_THETAS = 8
TOLERANCE = 1e-10


def verification_report(thresholds=THRESHOLDS, cutoff: int = 1) -> dict:
    """One row (T, q0, q1) per threshold, and the largest drifts over the
    N_THETAS LO phases. Q(0) comes from one PSD-checked
    `build_postselection_operators` call per threshold."""
    theta = np.linspace(0.0, 2.0 * np.pi, N_THETAS, endpoint=False)
    k = np.arange(cutoff + 1)
    swing = np.max(np.abs(np.exp(1j * (k - k[:, None])[:, :, None] * theta) - 1.0), axis=2)
    rows, max_residual, theta_res = [], 0.0, 0.0
    for T in thresholds:
        q, q_pass = build_postselection_operators(T, cutoff)
        drift = np.abs(q) * swing
        rows.append((float(T), float(q_pass[0, 0].real), float(q_pass[1, 1].real)))
        max_residual = max(max_residual, float(np.max(drift[:, :2])))
        theta_res = max(theta_res, float(np.max(drift)))
    return {
        "rows": rows,
        "max_residual": max_residual,
        "theta_independence_residual": theta_res,
        "passed": max_residual <= TOLERANCE and theta_res <= 1e-12,
    }
