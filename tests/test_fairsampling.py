import math
import sys
from functools import lru_cache

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf, erfc

from pathent.cli import EXIT_OK, main
from pathent.fairsampling import THRESHOLDS, verification_report
from pathent.fock import build_postselection_operators, hermite_functions

from helpers import psd_operator_sqrt

THETAS = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)

# The oracle the closed form in `pathent.fairsampling` must match: the filter
# blocks of explicit states, with operator square roots by eigendecomposition.


@lru_cache(maxsize=512)
def _sqrt_pair(T: float, cutoff: int, theta: float):
    q_disc, q_pass = build_postselection_operators(T, cutoff, theta)
    return psd_operator_sqrt(q_pass), psd_operator_sqrt(q_disc)


def quantum_filter(rho, T, cutoff, theta=0.0):
    """State-side filter: the (pass, discard) blocks, sqrt(Q_pass) rho
    sqrt(Q_pass) and the discard analogue. Their traces add to that of rho,
    and both are PSD."""
    return tuple(s @ rho @ s for s in _sqrt_pair(T, cutoff, theta))


def random_qubit_subspace_state(rng, cutoff=1):
    """Random PSD unit-trace state supported on {|0>, |1>}, embedded in the
    (cutoff+1)-dimensional space."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho2 = g @ g.conj().T
    rho2 /= np.trace(rho2).real
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    rho[:2, :2] = rho2
    return rho


def theta_independence_residual(T, theta_grid, cutoff=1, columns=slice(None)):
    """Max entrywise deviation, in `columns`, of Q_discard built at each theta
    from the theta = 0 operator."""
    ref, _ = build_postselection_operators(T, cutoff, 0.0)
    worst = 0.0
    for theta in theta_grid:
        q, _ = build_postselection_operators(T, cutoff, float(theta))
        worst = max(worst, float(np.max(np.abs(q - ref)[:, columns])))
    return worst


def verify_factorization(rho, T, theta_grid, cutoff=1):
    """Max residual of F(|a><a| (x) rho) = AND[F_C(|a><a|) (x) F_Q(rho)]
    over all settings in theta_grid: the largest entrywise deviation of the
    pass and discard blocks of F_Q(rho) at each setting's theta from those at
    theta = 0."""
    ref = quantum_filter(rho, T, cutoff, theta=0.0)
    worst = 0.0
    for theta in theta_grid:
        for block, ref_block in zip(quantum_filter(rho, T, cutoff, theta=float(theta)), ref):
            worst = max(worst, float(np.max(np.abs(block - ref_block))))
    return worst


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
            s_pass, s_disc = _sqrt_pair(T, cutoff, float(theta))
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
        # At cutoff 1 the filter blocks are the same to the bit at every setting.
        rng = np.random.default_rng(8)
        for _ in range(20):
            rho = random_qubit_subspace_state(rng, 1)
            for T in THRESHOLDS:
                assert verify_factorization(rho, T, THETAS, cutoff=1) == 0.0

    def test_report_passes(self):
        report = verification_report()
        assert report["passed"]
        assert report["max_residual"] == 0.0
        assert report["theta_independence_residual"] == 0.0
        assert len(report["rows"]) == 4

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
        true_pair = _sqrt_pair.__wrapped__

        def corrupted(T, cutoff, theta):
            s_pass, s_disc = true_pair(T, cutoff, theta)
            if theta != 0.0:
                bump = np.zeros_like(s_pass)
                bump[0, -1] = bump[-1, 0] = 1e-3
                s_pass = s_pass + bump
            return s_pass, s_disc

        monkeypatch.setattr(sys.modules[__name__], "_sqrt_pair", corrupted)
        rng = np.random.default_rng(9)
        rho = random_qubit_subspace_state(rng, 1)
        assert verify_factorization(rho, 0.82, THETAS, cutoff=1) > 1e-10


def phi_sq_tail(n, T):
    """Integral of phi_n(x)^2 over [T, inf), by adaptive quadrature."""
    value, _ = integrate.quad(lambda x: hermite_functions(n, np.array(x))[n] ** 2, T, np.inf)
    return value


class TestClosedForm:
    @pytest.mark.parametrize("cutoff", [1, 2, 10])
    def test_residuals_match_oracle(self, cutoff):
        report = verification_report(cutoff=cutoff)
        assert report["theta_independence_residual"] == max(
            theta_independence_residual(T, THETAS, cutoff) for T in THRESHOLDS
        )
        assert report["max_residual"] == max(
            theta_independence_residual(T, THETAS, cutoff, columns=slice(2)) for T in THRESHOLDS
        )
        assert report["passed"] == (cutoff == 1)

    @pytest.mark.parametrize("cutoff", [1, 10])
    def test_pass_diagonal(self, cutoff):
        thresholds = (0.0, 0.2, 0.5, 0.82, 1.0, 2.0, 5.0)
        rows = verification_report(thresholds, cutoff=cutoff)["rows"]
        assert [T for T, _, _ in rows] == list(thresholds)
        for T, q0, q1 in rows:
            assert q0 == pytest.approx(erfc(T), abs=1e-15)
            q1_exact = erfc(T) + 2 * T * math.exp(-T * T) / math.sqrt(math.pi)
            assert q1 == pytest.approx(q1_exact, abs=1e-15)

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_pass_product_matches_quadrature(self, T):
        ((_, q0, q1),) = verification_report((T,))["rows"]
        assert q0 * q1 == pytest.approx(4 * phi_sq_tail(0, T) * phi_sq_tail(1, T), rel=1e-12)

    def test_config_t_fixed_adds_a_row(self, tmp_path):
        thresholds = {}
        for t_fixed in ("1.0", "0.5"):
            cfg = tmp_path / f"t{t_fixed}.ini"
            cfg.write_text(f"[chsh]\nt_fixed = {t_fixed}\n")
            out = tmp_path / t_fixed
            assert main(["fair-sampling-check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            lines = (out / "fair_sampling_report.txt").read_text().splitlines()
            thresholds[t_fixed] = [float(line.split()[1]) for line in lines if line.startswith("T ")]
        assert thresholds["1.0"] == [0.2, 0.82, 1.0, 2.0]
        assert thresholds["0.5"] == [0.2, 0.5, 0.82, 1.0, 2.0]
