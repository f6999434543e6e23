import numpy as np
import pytest
from scipy.special import erf

import pathent.fairsampling as fs
from pathent.fairsampling import (
    FlaggedState,
    SettingsRegister,
    apply_filter,
    classical_filter,
    quantum_filter,
    random_qubit_subspace_state,
    theta_independence_residual,
    verification_report,
    verify_factorization,
)

THETAS = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)


def pass_mass(state: FlaggedState) -> float:
    return float(np.trace(state.sigma_pass).real)


def discard_mass(state: FlaggedState) -> float:
    return float(np.trace(state.sigma_discard).real)


class TestRegister:
    def test_projector(self):
        reg = SettingsRegister((0.0, 1.0, 2.0))
        p = reg.projector(1)
        assert p[1, 1] == 1.0 and np.sum(np.abs(p)) == 1.0

    def test_distinct_settings_required(self):
        with pytest.raises(ValueError):
            SettingsRegister((0.0, 0.0))

    def test_unknown_index(self):
        with pytest.raises(ValueError):
            SettingsRegister((0.0,)).projector(3)


class TestQuantumFilter:
    def test_zero_threshold_passes_everything(self):
        rho = np.diag([0.4, 0.6]).astype(complex)
        out = quantum_filter(rho, 0.0, 1)
        assert np.allclose(out.sigma_pass, rho)
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
        assert np.linalg.eigvalsh(out.sigma_pass)[0] >= -1e-12
        assert np.linalg.eigvalsh(out.sigma_discard)[0] >= -1e-12


class TestClassicalFilter:
    def test_always_passes(self):
        reg = SettingsRegister(tuple(THETAS))
        for a in range(len(reg)):
            out = classical_filter(a, reg)
            assert pass_mass(out) == pytest.approx(1.0)
            assert discard_mass(out) == 0.0


class TestFullFilter:
    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        reg = SettingsRegister(tuple(THETAS))
        rho = random_qubit_subspace_state(rng, 1)
        out = apply_filter(2, rho, 0.82, reg, 1)
        assert pass_mass(out) + discard_mass(out) == pytest.approx(1.0, abs=1e-10)

    def test_supported_only_on_chosen_setting_block(self):
        rng = np.random.default_rng(7)
        reg = SettingsRegister(tuple(THETAS))
        rho = random_qubit_subspace_state(rng, 1)
        out = apply_filter(3, rho, 0.82, reg, 1)
        d = 2
        mask = np.ones_like(out.sigma_pass, dtype=bool)
        mask[3 * d : 4 * d, 3 * d : 4 * d] = False
        assert np.max(np.abs(out.sigma_pass[mask])) == 0.0


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


class TestFlaggedState:
    def test_mass_properties(self):
        st = FlaggedState(
            sigma_pass=np.diag([0.3, 0.2]).astype(complex),
            sigma_discard=np.diag([0.5, 0.0]).astype(complex),
        )
        assert pass_mass(st) == pytest.approx(0.5)
        assert discard_mass(st) == pytest.approx(0.5)
