import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from pathent.fock import (
    build_postselection_operators,
    hermite_functions,
    overlap_matrices,
    wavefunction_value,
    window_overlap,
)

from helpers import psd_operator_sqrt


def is_hermitian(op, tol=1e-12):
    return bool(np.max(np.abs(op - op.conj().T)) <= tol)


def min_eigenvalue(op):
    return float(np.linalg.eigvalsh(op)[0])


def quad_overlap(m, n, T):
    """Adaptive-quadrature oracle for the window integrals."""
    phi = lambda k, x: hermite_functions(k, np.asarray(x))[k]
    val, err = integrate.quad(lambda x: phi(m, x) * phi(n, x), -T, T, limit=200)
    assert err < 1e-9
    return val


def quad_overlap_matrix(lo, hi, cutoff):
    """Adaptive-quadrature oracle for a whole overlap matrix: every entry in
    one vector-valued integral, asked for 1e-15 in its worst entry."""

    def integrand(x):
        phi = hermite_functions(cutoff, np.asarray(x))
        return np.outer(phi, phi)

    val, err = integrate.quad_vec(integrand, lo, hi, epsabs=1e-15, epsrel=0.0, norm="max", limit=2000)
    assert err < 1e-12
    return val


class TestWavefunction:
    def test_vacuum_at_origin(self):
        assert wavefunction_value(0, 0.0, 0.0) == pytest.approx(np.pi ** -0.25, abs=1e-12)
        assert abs(wavefunction_value(0, 0.0, 0.0) - 0.751126) < 1e-6

    def test_single_photon_odd_at_origin(self):
        for theta in (0.0, 1.0, 2.5):
            assert wavefunction_value(1, 0.0, theta) == 0

    def test_single_photon_at_one(self):
        expected = np.pi ** -0.25 * np.sqrt(2.0) * np.exp(-0.5)
        assert wavefunction_value(1, 1.0, 0.0) == pytest.approx(expected, abs=1e-12)
        assert abs(expected - 0.644288) < 1e-6

    @pytest.mark.parametrize("n", range(11))
    def test_normalization(self, n):
        val, _ = integrate.quad(
            lambda x: abs(wavefunction_value(n, x, 0.3)) ** 2, -np.inf, np.inf, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(8))
    def test_parity(self, n):
        for x in (0.3, 1.1, 2.7):
            left = wavefunction_value(n, -x, 0.0)
            right = (-1) ** n * wavefunction_value(n, x, 0.0)
            assert left == pytest.approx(right, abs=1e-14)

    def test_modulus_theta_independent(self):
        for theta in (0.0, 0.7, 3.1):
            assert abs(wavefunction_value(3, 1.2, theta)) == pytest.approx(
                abs(wavefunction_value(3, 1.2, 0.0)), abs=1e-14
            )

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            wavefunction_value(-1, 0.0, 0.0)


class TestWindowOverlap:
    @pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 2.0])
    def test_odd_parity_exact_zero(self, T):
        for m in range(11):
            for n in range(11):
                if (m + n) % 2 == 1:
                    assert window_overlap(m, n, T) == 0.0

    @pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 2.0])
    def test_symmetric(self, T):
        for m in range(6):
            for n in range(6):
                assert window_overlap(m, n, T) == pytest.approx(
                    window_overlap(n, m, T), abs=1e-14
                )

    @pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_vacuum_matches_erf(self, T):
        assert window_overlap(0, 0, T) == pytest.approx(float(erf(T)), abs=1e-12)

    def test_full_line_limit(self):
        assert window_overlap(0, 0, 10.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m,n,T", [(0, 0, 0.8), (1, 1, 1.3), (2, 4, 0.9), (5, 7, 2.1)])
    def test_against_adaptive_quadrature(self, m, n, T):
        assert window_overlap(m, n, T) == pytest.approx(quad_overlap(m, n, T), abs=1e-10)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            window_overlap(0, 0, -0.5)


class TestOverlapMatrix:
    def test_against_adaptive_quadrature_on_an_interval(self):
        lo, hi = -0.3, 1.1
        got = overlap_matrices([lo, hi], 5)[0]
        phi = lambda k, x: hermite_functions(k, np.asarray(x))[k]
        for m in range(6):
            for n in range(6):
                want, _ = integrate.quad(lambda x: phi(m, x) * phi(n, x), lo, hi)
                assert got[m, n] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("cutoff", [1, 10, 32, 100])
    @pytest.mark.parametrize("T", [0.0, 0.2, 0.82, 2.0, 5.0])
    def test_windows_match_adaptive_quadrature(self, T, cutoff):
        """Up to fair-sampling-check's cap on the cutoff: every entry, and
        exact symmetry and parity zeros."""
        got = overlap_matrices([-T, T], cutoff)[0]
        np.testing.assert_allclose(got, quad_overlap_matrix(-T, T, cutoff), rtol=0.0, atol=1e-13)
        assert np.array_equal(got, got.T)
        m, n = np.indices(got.shape)
        assert np.all(got[(m + n) % 2 == 1] == 0.0)

    @pytest.mark.parametrize("width", [0.2, 5.0])
    def test_bins_match_adaptive_quadrature(self, width):
        edges = np.linspace(-10.0, 10.0, round(20.0 / width) + 1)
        got = overlap_matrices(edges, 32)
        assert got.shape == (len(edges) - 1, 33, 33)
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            np.testing.assert_allclose(got[k], quad_overlap_matrix(lo, hi, 32), rtol=0.0, atol=1e-13)

    def test_each_interval_as_if_alone(self):
        cuts = np.array([-4.0, -0.5, 0.3, 2.5])
        together = overlap_matrices(cuts, 12)
        for k in range(3):
            assert np.array_equal(together[k], overlap_matrices(cuts[k : k + 2], 12)[0])


class TestPostselectionOperators:
    def test_zero_threshold(self):
        q_disc, q_pass = build_postselection_operators(0.0, 2)
        assert np.allclose(q_disc, 0.0)
        assert np.allclose(q_pass, np.eye(3))

    def test_full_window(self):
        q_disc, q_pass = build_postselection_operators(10.0, 1)
        assert np.max(np.abs(q_disc - np.eye(2))) < 1e-10
        assert np.max(np.abs(q_pass)) < 1e-10

    def test_qubit_diagonal(self):
        q_disc, _ = build_postselection_operators(1.0, 1)
        gamma1 = quad_overlap(1, 1, 1.0)
        expected = np.diag([float(erf(1.0)), gamma1])
        assert np.max(np.abs(q_disc - expected)) < 1e-10

    def test_pair_sums_to_identity(self):
        q_disc, q_pass = build_postselection_operators(0.7, 4)
        assert np.allclose(q_disc + q_pass, np.eye(5), atol=1e-14)

    @pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 2.0])
    def test_spectrum_between_zero_and_one(self, T):
        q_disc, _ = build_postselection_operators(T, 6)
        w = np.linalg.eigvalsh(q_disc)
        assert w[0] >= -1e-10
        assert w[-1] <= 1.0 + 1e-10

    def test_diagonal_monotone_in_threshold(self):
        grid = [0.2, 0.5, 1.0, 1.5, 2.0]
        prev = None
        for T in grid:
            q_disc, _ = build_postselection_operators(T, 5)
            diag = np.diag(q_disc).real
            if prev is not None:
                assert np.all(diag >= prev - 1e-12)
            prev = diag

    @pytest.mark.parametrize("T, cutoff, theta", [(0.82, 3, 0.0), (1.0, 4, 1.3), (2.0, 6, -2.2)])
    def test_matches_entrywise_window_overlaps(self, T, cutoff, theta):
        q_disc, _ = build_postselection_operators(T, cutoff, theta)
        d = cutoff + 1
        ref = np.array(
            [[window_overlap(m, n, T) * np.exp(1j * (n - m) * theta) for n in range(d)] for m in range(d)]
        )
        assert np.max(np.abs(q_disc - ref)) <= 1e-15
        # Exactly Hermitian, with exact parity zeros.
        assert np.array_equal(q_disc, q_disc.conj().T)
        m, n = np.indices((d, d))
        assert np.all(q_disc[(m + n) % 2 == 1] == 0.0)

    def test_hermitian_with_phase(self):
        q_disc, q_pass = build_postselection_operators(1.0, 4, theta=1.3)
        assert is_hermitian(q_disc)
        assert is_hermitian(q_pass)


class TestOperatorSqrt:
    def test_identity(self):
        assert np.allclose(psd_operator_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(psd_operator_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_squares_back(self):
        q_disc, _ = build_postselection_operators(1.0, 3)
        root = psd_operator_sqrt(q_disc)
        assert np.max(np.abs(root @ root - q_disc)) < 1e-9
        assert is_hermitian(root, 1e-10)
        assert min_eigenvalue(root) >= -1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            psd_operator_sqrt(np.diag([-1.0, 1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            psd_operator_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
