"""Numerical verification that threshold post-selection factorizes into an
independent classical (setting) filter and quantum (state) filter.

Settings are represented directly by their LO phase values; the setting
register is a diagonal bookkeeping dimension, since the argument only needs
orthogonality between settings. On the {|0>, |1>} subspace the discard/pass
operators are phase-independent, which is what makes the factorization hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import build_postselection_operators, psd_operator_sqrt


@dataclass(frozen=True)
class SettingsRegister:
    """Finite list of distinct measurement settings (LO phases)."""

    phases: tuple

    def __post_init__(self):
        phases = tuple(float(p) for p in self.phases)
        if len(set(phases)) != len(phases):
            raise ValueError("settings must be distinct")
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return len(self.phases)

    def projector(self, a: int) -> np.ndarray:
        if not (0 <= a < len(self.phases)):
            raise ValueError(f"unknown setting index {a}")
        proj = np.zeros((len(self.phases), len(self.phases)), dtype=complex)
        proj[a, a] = 1.0
        return proj


@dataclass
class FlaggedState:
    """Pass/discard blocks of a filtered state; traces add to the input."""

    sigma_pass: np.ndarray
    sigma_discard: np.ndarray


@lru_cache(maxsize=512)
def _sqrt_pair(T: float, cutoff: int, theta: float):
    q_disc, q_pass = build_postselection_operators(T, cutoff, theta)
    return psd_operator_sqrt(q_pass), psd_operator_sqrt(q_disc)


def quantum_filter(
    rho: np.ndarray, T: float, cutoff: int, theta: float = 0.0
) -> FlaggedState:
    """State-side filter: sqrt(Q_pass) rho sqrt(Q_pass) on the pass flag and
    the discard analogue; trace preserving, blocks PSD."""
    s_pass, s_disc = _sqrt_pair(T, cutoff, theta)
    return FlaggedState(
        sigma_pass=s_pass @ rho @ s_pass,
        sigma_discard=s_disc @ rho @ s_disc,
    )


def classical_filter(a: int, register: SettingsRegister) -> FlaggedState:
    """Setting-side filter: always passes (discarding never depends on the
    setting in this scheme)."""
    proj = register.projector(a)
    return FlaggedState(sigma_pass=proj, sigma_discard=np.zeros_like(proj))


def apply_filter(
    a: int, rho: np.ndarray, T: float, register: SettingsRegister, cutoff: int
) -> FlaggedState:
    """Full measurement filter on the setting (x) state space.

    The pass/discard operators act per setting block with that setting's LO
    phase, i.e. sqrt(M) = sum_a' |a'><a'| (x) sqrt(Q(theta_a'))."""
    d = cutoff + 1
    n = len(register)
    xi = np.kron(register.projector(a), rho)
    out_pass = np.zeros((n * d, n * d), dtype=complex)
    out_disc = np.zeros_like(out_pass)
    for ap, theta in enumerate(register.phases):
        s_pass, s_disc = _sqrt_pair(T, cutoff, theta)
        blk = slice(ap * d, (ap + 1) * d)
        out_pass[blk, blk] = s_pass @ xi[blk, blk] @ s_pass
        out_disc[blk, blk] = s_disc @ xi[blk, blk] @ s_disc
    return FlaggedState(sigma_pass=out_pass, sigma_discard=out_disc)


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
    over all settings in theta_grid.

    The AND combines flags: the combined pass block is the tensor of the two
    pass blocks; everything else lands on discard. F_Q is built once at
    theta = 0 (setting-independent by construction)."""
    register = SettingsRegister(tuple(theta_grid))
    fq = quantum_filter(rho, T, cutoff, theta=0.0)
    worst = 0.0
    for a in range(len(register)):
        lhs = apply_filter(a, rho, T, register, cutoff)
        fc = classical_filter(a, register)
        rhs_pass = np.kron(fc.sigma_pass, fq.sigma_pass)
        rhs_disc = np.kron(fc.sigma_pass, fq.sigma_discard) + np.kron(
            fc.sigma_discard, fq.sigma_pass + fq.sigma_discard
        )
        worst = max(
            worst,
            float(np.max(np.abs(lhs.sigma_pass - rhs_pass))),
            float(np.max(np.abs(lhs.sigma_discard - rhs_disc))),
        )
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
