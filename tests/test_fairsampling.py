import numpy as np
import pytest
from scipy.special import erf

import pathent.fairsampling as fs
from pathent.fairsampling import (
    quantum_filter,
    random_qubit_subspace_state,
    theta_independence_residual,
    verification_report,
    verify_factorization,
)

THETAS = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)


def pass_mass(state) -> float:
    """Trace of the pass block of a `quantum_filter` (pass, discard) pair."""
    return float(np.trace(state[0]).real)


def discard_mass(state) -> float:
    """Trace of the discard block of a `quantum_filter` (pass, discard) pair."""
    return float(np.trace(state[1]).real)


def kronecker_residual(rho, T, theta_grid, cutoff):
    """The factorization residual on the full setting (x) state space: the
    measurement filter applies each setting's sqrt(Q(theta)) on that
    setting's block of |a><a| (x) rho; the setting filter always passes, and
    the AND of the flags sends anything the setting filter discards to
    discard."""
    n, d = len(theta_grid), cutoff + 1
    fq_pass, fq_disc = quantum_filter(rho, T, cutoff, theta=0.0)
    worst = 0.0
    for a in range(n):
        proj = np.zeros((n, n), dtype=complex)
        proj[a, a] = 1.0
        xi = np.kron(proj, rho)
        lhs_pass = np.zeros((n * d, n * d), dtype=complex)
        lhs_disc = np.zeros_like(lhs_pass)
        for ap, theta in enumerate(theta_grid):
            s_pass, s_disc = fs._sqrt_pair(T, cutoff, float(theta))
            blk = slice(ap * d, (ap + 1) * d)
            lhs_pass[blk, blk] = s_pass @ xi[blk, blk] @ s_pass
            lhs_disc[blk, blk] = s_disc @ xi[blk, blk] @ s_disc
        fc_pass, fc_disc = proj, np.zeros_like(proj)
        rhs_pass = np.kron(fc_pass, fq_pass)
        rhs_disc = np.kron(fc_pass, fq_disc) + np.kron(fc_disc, fq_pass + fq_disc)
        worst = max(
            worst,
            float(np.max(np.abs(lhs_pass - rhs_pass))),
            float(np.max(np.abs(lhs_disc - rhs_disc))),
        )
    return worst


def full_rank_state(rng, cutoff):
    g = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestQuantumFilter:
    def test_zero_threshold_passes_everything(self):
        rho = np.diag([0.4, 0.6]).astype(complex)
        out = quantum_filter(rho, 0.0, 1)
        assert np.allclose(out[0], rho)
        assert discard_mass(out) == pytest.approx(0.0, abs=1e-14)

    def test_vacuum_discard_mass(self):
        rho = np.zeros((2, 2), dtype=complex)
        rho[0, 0] = 1.0
        out = quantum_filter(rho, 1.0, 1)
        assert discard_mass(out) == pytest.approx(float(erf(1.0)), abs=1e-10)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = random_qubit_subspace_state(rng, 1)
            out = quantum_filter(rho, 0.82, 1)
            assert pass_mass(out) + discard_mass(out) == pytest.approx(1.0, abs=1e-10)

    def test_blocks_psd(self):
        rng = np.random.default_rng(5)
        rho = random_qubit_subspace_state(rng, 1)
        out = quantum_filter(rho, 0.82, 1)
        assert np.linalg.eigvalsh(out[0])[0] >= -1e-12
        assert np.linalg.eigvalsh(out[1])[0] >= -1e-12


class TestFactorization:
    def test_theta_independence_on_qubit_subspace(self):
        for T in (0.2, 0.82, 1.0, 2.0):
            assert theta_independence_residual(T, THETAS, cutoff=1) <= 1e-12

    def test_residual_small_for_random_states(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rho = random_qubit_subspace_state(rng, 1)
            for T in (0.2, 0.82, 2.0):
                assert verify_factorization(rho, T, THETAS, cutoff=1) <= 1e-10

    def test_report_passes(self):
        report = verification_report(n_states=10, seed=123)
        assert report["passed"]
        assert report["max_residual"] <= 1e-10
        assert report["theta_independence_residual"] <= 1e-12
        assert len(report["rows"]) == 10 * 4

    def test_multiphoton_support_breaks_factorization(self):
        # A state with |2> population sees theta-dependent discard operators,
        # so the setting-independent quantum filter no longer matches.
        rho = np.zeros((3, 3), dtype=complex)
        rho[1, 1] = 0.5
        rho[2, 2] = 0.5
        rho[1, 2] = rho[2, 1] = 0.45
        res = verify_factorization(rho, 0.82, THETAS, cutoff=2)
        assert res > 1e-10

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_matches_kronecker_reference(self, cutoff):
        rng = np.random.default_rng(10 + cutoff)
        for make in (random_qubit_subspace_state, full_rank_state):
            for _ in range(5):
                rho = make(rng, cutoff)
                for T in (0.0, 0.2, 0.82, 2.0):
                    res = verify_factorization(rho, T, THETAS, cutoff)
                    assert res == kronecker_residual(rho, T, THETAS, cutoff)

    def test_injected_fault_detected(self, monkeypatch):
        # Corrupt the theta != 0 operators: the factorization check must
        # notice a filter that secretly depends on the setting.
        true_pair = fs._sqrt_pair.__wrapped__

        def corrupted(T, cutoff, theta):
            s_pass, s_disc = true_pair(T, cutoff, theta)
            if theta != 0.0:
                bump = np.zeros_like(s_pass)
                bump[0, -1] = bump[-1, 0] = 1e-3
                s_pass = s_pass + bump
            return s_pass, s_disc

        monkeypatch.setattr(fs, "_sqrt_pair", corrupted)
        rng = np.random.default_rng(9)
        rho = random_qubit_subspace_state(rng, 1)
        assert verify_factorization(rho, 0.82, THETAS, cutoff=1) > 1e-10
