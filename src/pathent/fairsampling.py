"""Numerical verification that threshold post-selection factorizes into an
independent classical (setting) filter and quantum (state) filter.

On the setting (x) state space the measurement filter acts on the block of
setting a as sqrt(Q(theta_a)) . sqrt(Q(theta_a)), and the setting filter
always passes (discarding never depends on the setting). Both sides of
F(|a><a| (x) rho) = AND[F_C(|a><a|) (x) F_Q(rho)] are then |a><a| (x) a
state-space block, and every other block is zero on both. So the
factorization residual is exactly the largest deviation of the pass and
discard blocks of F_Q(rho; theta_a) from those of F_Q(rho; 0), and the check
compares these setting by setting. On the {|0>, |1>} subspace the
discard/pass operators are phase-independent, which is what makes the
factorization hold.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fock import build_postselection_operators, psd_operator_sqrt


@lru_cache(maxsize=512)
def _sqrt_pair(T: float, cutoff: int, theta: float):
    q_disc, q_pass = build_postselection_operators(T, cutoff, theta)
    return psd_operator_sqrt(q_pass), psd_operator_sqrt(q_disc)


def quantum_filter(
    rho: np.ndarray, T: float, cutoff: int, theta: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """State-side filter: the (pass, discard) blocks, sqrt(Q_pass) rho
    sqrt(Q_pass) and the discard analogue. Their traces add to that of rho,
    and both are PSD."""
    return tuple(s @ rho @ s for s in _sqrt_pair(T, cutoff, theta))


def random_qubit_subspace_state(rng: np.random.Generator, cutoff: int = 1) -> np.ndarray:
    """Random PSD unit-trace state supported on {|0>, |1>}, embedded in the
    (cutoff+1)-dimensional space."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho2 = g @ g.conj().T
    rho2 /= np.trace(rho2).real
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    rho[:2, :2] = rho2
    return rho


def theta_independence_residual(T: float, theta_grid, cutoff: int = 1) -> float:
    """Max entrywise deviation of Q_discard built at each theta from the
    theta = 0 operator."""
    ref, _ = build_postselection_operators(T, cutoff, 0.0)
    worst = 0.0
    for theta in theta_grid:
        q, _ = build_postselection_operators(T, cutoff, float(theta))
        worst = max(worst, float(np.max(np.abs(q - ref))))
    return worst


def verify_factorization(
    rho: np.ndarray, T: float, theta_grid, cutoff: int = 1
) -> float:
    """Max residual of F(|a><a| (x) rho) = AND[F_C(|a><a|) (x) F_Q(rho)]
    over all settings in theta_grid: the largest entrywise deviation of the
    pass and discard blocks of F_Q(rho) at each setting's theta from those at
    theta = 0 (see the module docstring)."""
    ref = quantum_filter(rho, T, cutoff, theta=0.0)
    worst = 0.0
    for theta in theta_grid:
        for block, ref_block in zip(quantum_filter(rho, T, cutoff, theta=float(theta)), ref):
            worst = max(worst, float(np.max(np.abs(block - ref_block))))
    return worst


def verification_report(
    n_states: int = 100,
    thresholds=(0.2, 0.82, 1.0, 2.0),
    n_thetas: int = 8,
    cutoff: int = 1,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> dict:
    """Residual sweep over random qubit-subspace states, thresholds and a
    uniform theta grid; also checks theta-independence of Q_discard."""
    rng = np.random.default_rng(seed)
    theta_grid = np.linspace(0.0, 2.0 * np.pi, n_thetas, endpoint=False)
    rows = []
    max_residual = 0.0
    for i in range(n_states):
        rho = random_qubit_subspace_state(rng, cutoff)
        for T in thresholds:
            res = verify_factorization(rho, T, theta_grid, cutoff)
            rows.append((i, float(T), res))
            max_residual = max(max_residual, res)
    theta_res = max(
        theta_independence_residual(T, theta_grid, cutoff) for T in thresholds
    )
    return {
        "rows": rows,
        "max_residual": max_residual,
        "theta_independence_residual": theta_res,
        "tolerance": tolerance,
        "passed": max_residual <= tolerance and theta_res <= 1e-12,
    }
