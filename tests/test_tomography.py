import os

import numpy as np
import pytest

from pathent.cli import _csv_line, _write_lines
from pathent.config import ExperimentConfig
from pathent.decoy import DecoyIntensitySet
from pathent.fock import hermite_functions
from pathent.homodyne import CountTable, MeasurementSettings, sample_batch
from pathent.states import bell_state
from pathent.tomography import (
    BinnedHistogram,
    build_povm_elements,
    decoy_corrected_histogram,
    fidelity,
    histogram_binning,
    histogram_density,
    histogram_from_tables,
    mle_reconstruct,
    multiphoton_mass,
)

from helpers import joint_pdf_fock, records, reference_cells

def histogram_counts(x_a, x_b, edges):
    """Count table of the records (x_a[i], x_b[i]) under
    `histogram_binning(edges)`, binned by the reference binning."""
    binning = histogram_binning(edges)
    cells = reference_cells("histogram", edges, x_a, x_b)
    return CountTable(binning.grid, binning.finish(cells), len(x_a))


PHASE_PAIRS_4 = [
    (dt / 2.0, -dt / 2.0) for dt in (-np.pi, -np.pi / 2, 0.0, np.pi / 2)
]


def gauss_legendre_overlaps(lo, hi, cutoff, order=400):
    """Overlaps of phi_m phi_n over [lo, hi] by one `order`-point
    Gauss-Legendre rule: an oracle independent of the closed form."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    phi = hermite_functions(cutoff, lo + half * (nodes + 1.0))
    return (phi * (half * weights)) @ phi.T


def save_density_matrix(rho, path):
    """Write `rho` as the tomography command does: the dimension, then each
    row as its re,im pairs."""
    directory, name = os.path.split(path)
    _write_lines(directory, name, [str(rho.shape[0]), *map(_csv_line, rho.view(float))])


def load_density_matrix(path):
    """Read a matrix written by save_density_matrix."""
    with open(path) as fh:
        dim = int(fh.readline())
        rows = []
        for _ in range(dim):
            vals = [float(v) for v in fh.readline().split(",")]
            rows.append([complex(r, i) for r, i in zip(vals[::2], vals[1::2])])
    return np.array(rows)


def mode_operators(povm, phi):
    """(n_bins, d, d) single-mode elements B_i o e^(i(n-m)phi) of `povm`."""
    d = povm.cutoff + 1
    k = np.arange(d)
    factor = np.exp(1j * (k[None, :] - k[:, None]) * phi)
    return povm.bins.reshape(-1, d, d) * factor[None, :, :]


def mode_a(povm):
    """Arm a's single-mode elements, one (n_bins, d, d) array per setting."""
    return [mode_operators(povm, phi_a) for phi_a, _ in povm.phase_pairs]


def mode_b(povm):
    """Arm b's single-mode elements, one (n_bins, d, d) array per setting."""
    return [mode_operators(povm, phi_b) for _, phi_b in povm.phase_pairs]


def complement(povm, s):
    """The two-mode out-of-range remainder of setting s, I - sum of in-range
    elements."""
    phi_a, phi_b = povm.phase_pairs[s]
    total = np.kron(
        mode_operators(povm, phi_a).sum(axis=0), mode_operators(povm, phi_b).sum(axis=0)
    )
    return np.eye((povm.cutoff + 1) ** 2, dtype=complex) - total


def realign(op, d):
    """R~[(m_a, n_a), (m_b, n_b)] = op[(m_a, m_b), (n_a, n_b)]; its own inverse."""
    return op.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def phase_factors(povm):
    """Per-setting factors f[(m, n)] = e^(i(m-n)phi) of arm a and arm b,
    (settings, d^2) each."""
    d = povm.cutoff + 1
    m, n = np.divmod(np.arange(d * d), d)
    phi = np.array(povm.phase_pairs, dtype=float).reshape(-1, 2)
    return np.exp(1j * (m - n)[None, :] * phi[:, :1]), np.exp(1j * (m - n)[None, :] * phi[:, 1:])


def reference_probabilities(povm, rho):
    """`PovmSet.probabilities` one setting at a time over all d^4 realigned
    entries: bins @ Re(R~ o f_a (x) f_b) @ bins.T, Hermitian or not."""
    r = realign(np.asarray(rho, dtype=complex), povm.cutoff + 1)
    return np.stack(
        [povm.bins @ (r * f_a[:, None] * f_b).real @ povm.bins.T for f_a, f_b in zip(*phase_factors(povm))]
    )


def reference_likelihood_operator(povm, weights):
    """`PovmSet.likelihood_operator` one setting at a time: the realigned
    sum over s of (bins.T @ weights[s] @ bins) o conj(f_a (x) f_b)."""
    total = sum(
        (povm.bins.T @ w @ povm.bins) * f_a.conj()[:, None] * f_b.conj()
        for w, f_a, f_b in zip(weights, *phase_factors(povm))
    )
    return realign(total, povm.cutoff + 1)


def reference_likelihood(hist, povm, rho):
    """Log-likelihood of `rho` and its likelihood operator R, with one
    einsum per setting and direction on the explicit phased single-mode
    operators."""
    d = povm.cutoff + 1
    ops_a, ops_b = mode_a(povm), mode_b(povm)
    freqs = hist.probabilities / povm.n_settings
    rho4 = rho.reshape(d, d, d, d).transpose(0, 2, 1, 3)
    r_op = np.zeros((d, d, d, d), dtype=complex)
    ll = 0.0
    for s in range(povm.n_settings):
        p = np.einsum("acbd,ica,jdb->ij", rho4, ops_a[s], ops_b[s], optimize=True).real
        p = np.clip(p, 1e-300, None)
        f = freqs[s]
        mask = f > 0
        ll += float(np.sum(f[mask] * np.log(p[mask])))
        wgt = np.where(mask, f / p, 0.0)
        r_op += np.einsum("ij,iac,jbd->acbd", wgt, ops_a[s], ops_b[s], optimize=True)
    return ll, r_op.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def reference_mle(hist, povm, max_iterations, tolerance):
    """The R-rho-R fixed-point loop on `reference_likelihood`, from the
    maximally mixed state until the log-likelihood gain drops below
    `tolerance`."""
    d2 = (povm.cutoff + 1) ** 2
    rho = np.eye(d2, dtype=complex) / d2
    ll_trace = []
    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        ll, r_mat = reference_likelihood(hist, povm, rho)
        ll_trace.append(ll)
        if len(ll_trace) >= 2 and ll_trace[-1] - ll_trace[-2] < tolerance:
            converged = ll_trace[-1] >= ll_trace[-2] - 1e-10
            break
        rho = r_mat @ rho @ r_mat
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
    return rho, ll_trace, it, converged


def vacuum_state(cutoff):
    vec = np.zeros((cutoff + 1) ** 2, dtype=complex)
    vec[0] = 1.0
    return vec


class TestPovm:
    def test_completeness_on_wide_range(self):
        edges = np.linspace(-12.0, 12.0, 49)
        povm = build_povm_elements(PHASE_PAIRS_4, edges, 3)
        d2 = 16
        for s in range(povm.n_settings):
            total = np.kron(mode_a(povm)[s].sum(axis=0), mode_b(povm)[s].sum(axis=0))
            assert np.max(np.abs(total - np.eye(d2))) < 1e-8
            assert np.max(np.abs(complement(povm, s))) < 1e-8

    def test_elements_psd_and_sum_below_identity(self):
        edges = np.linspace(-4.0, 4.0, 17)
        povm = build_povm_elements(PHASE_PAIRS_4, edges, 2)
        for s in range(povm.n_settings):
            total = np.kron(mode_a(povm)[s].sum(axis=0), mode_b(povm)[s].sum(axis=0))
            w = np.linalg.eigvalsh(total)
            assert w[0] >= -1e-10 and w[-1] <= 1.0 + 1e-10
            comp = complement(povm, s)
            assert np.linalg.eigvalsh(comp)[0] >= -1e-10

    def test_phase_factor_structure(self):
        edges = np.linspace(-3.0, 3.0, 7)
        phi = 0.9
        povm = build_povm_elements([(phi, 0.0)], edges, 2)
        base = build_povm_elements([(0.0, 0.0)], edges, 2)
        m, n = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
        factor = np.exp(1j * (n - m) * phi)
        assert np.allclose(mode_a(povm)[0], mode_a(base)[0] * factor[None], atol=1e-14)
        assert np.allclose(mode_b(povm)[0], mode_b(base)[0], atol=1e-14)

    def test_vacuum_diagonal_matches_gaussian_mass(self):
        from scipy.special import erf

        edges = np.array([-1.0, 1.0])
        povm = build_povm_elements([(0.0, 0.0)], edges, 1)
        assert mode_a(povm)[0][0, 0, 0] == pytest.approx(float(erf(1.0)), abs=1e-12)

    def test_probabilities_match_explicit_kron(self):
        edges = np.linspace(-3.0, 3.0, 5)
        povm = build_povm_elements([(0.4, -0.4)], edges, 1)
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        p_fast = povm.probabilities(rho)[0]
        ops_a, ops_b = mode_a(povm)[0], mode_b(povm)[0]
        for i in range(povm.n_bins):
            for j in range(povm.n_bins):
                el = np.kron(ops_a[i], ops_b[j])
                assert p_fast[i, j] == pytest.approx(
                    float(np.trace(rho @ el).real), abs=1e-12
                )

    def test_likelihood_operator_matches_explicit_kron(self):
        edges = np.linspace(-3.0, 3.0, 5)
        povm = build_povm_elements(PHASE_PAIRS_4, edges, 1)
        weights = np.random.default_rng(9).random((4, 4, 4))
        ops_a, ops_b = mode_a(povm), mode_b(povm)
        expect = sum(
            weights[s, i, j] * np.kron(ops_a[s][i], ops_b[s][j])
            for s in range(4)
            for i in range(4)
            for j in range(4)
        )
        assert np.max(np.abs(povm.likelihood_operator(weights) - expect)) < 1e-14

    FOLD_PHASES = {
        "untied": [(0.9, 0.0), (0.3, -1.1)],
        "tied-grid": [(dt / 2.0, -dt / 2.0) for dt in ExperimentConfig().dtheta_grid()],
    }

    @pytest.mark.parametrize("phases", FOLD_PHASES)
    @pytest.mark.parametrize("cutoff", [3, 10])
    def test_folded_probabilities_match_per_setting_loop(self, cutoff, phases):
        povm = build_povm_elements(self.FOLD_PHASES[phases], np.linspace(-4.0, 4.0, 41), cutoff)
        rng = np.random.default_rng(cutoff)
        d2 = (cutoff + 1) ** 2
        for _ in range(3):
            g = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
            rho = g @ g.conj().T
            rho += rho.conj().T
            rho /= np.trace(rho).real
            expect = reference_probabilities(povm, rho)
            got = povm.probabilities(rho)
            assert got.shape == (povm.n_settings, povm.n_bins, povm.n_bins)
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("phases", FOLD_PHASES)
    @pytest.mark.parametrize("cutoff", [3, 10])
    def test_folded_likelihood_operator_matches_per_setting_loop(self, cutoff, phases):
        povm = build_povm_elements(self.FOLD_PHASES[phases], np.linspace(-4.0, 4.0, 41), cutoff)
        rng = np.random.default_rng(100 + cutoff)
        for _ in range(3):
            weights = 10.0 ** rng.uniform(-3.0, 3.0, (povm.n_settings, povm.n_bins, povm.n_bins))
            expect = reference_likelihood_operator(povm, weights)
            got = povm.likelihood_operator(weights)
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
            assert np.array_equal(got, got.conj().T)

    @pytest.mark.parametrize("cutoff", [20, 32])
    def test_wide_bins_match_fine_quadrature(self, cutoff):
        edges = np.linspace(-10.0, 10.0, 5)
        povm = build_povm_elements([(0.0, 0.0)], edges, cutoff)
        fine = [gauss_legendre_overlaps(a, b, cutoff).ravel() for a, b in zip(edges[:-1], edges[1:])]
        np.testing.assert_allclose(povm.bins, fine, rtol=0.0, atol=1e-13)

    def test_rejects_overlapping_bins(self):
        with pytest.raises(ValueError):
            build_povm_elements(PHASE_PAIRS_4, np.array([0.0, 1.0, 0.5]), 1)


class TestHistogramCounts:
    def test_density_matches_histogram2d(self):
        edges = ExperimentConfig().bin_edges()
        batch = sample_batch(0.5, MeasurementSettings(0.3, -0.3), 20_000, seed=22)
        x_a, x_b = records(batch)
        density = histogram_density(histogram_counts(x_a, x_b, edges), edges)
        counts, _, _ = np.histogram2d(x_a, x_b, bins=(edges, edges))
        w = np.diff(edges)
        assert np.array_equal(density, counts / (len(batch) * (w[0] * w[0])))

    def test_uneven_or_mismatched_edges_rejected(self):
        with pytest.raises(ValueError):
            histogram_counts([0.5], [0.5], np.array([0.0, 1.0, 3.0]))
        with pytest.raises(ValueError):
            histogram_counts([0.5], [0.5], np.array([0.0]))
        table = histogram_counts([0.5], [0.5], np.linspace(-1.0, 1.0, 3))
        with pytest.raises(ValueError):
            histogram_density(table, np.linspace(-1.0, 1.0, 5))


class TestHistograms:
    def test_density_normalization(self):
        batch = sample_batch(0.0, MeasurementSettings(0.0, 0.0), 50_000, seed=21)
        edges = np.linspace(-5.0, 5.0, 51)
        dens = histogram_density(histogram_counts(*records(batch), edges), edges)
        area = 0.2 * 0.2
        # Nearly all vacuum mass lies inside +-5.
        assert dens.sum() * area == pytest.approx(1.0, abs=1e-3)

    def test_corrected_histogram_approximates_single_photon(self):
        iset = DecoyIntensitySet((0.0872, 0.2314, 0.9840))
        edges = np.linspace(-5.0, 5.0, 26)
        pair = (np.pi / 8, -np.pi / 8)
        settings = MeasurementSettings(*pair)
        tables = [histogram_counts(*records(sample_batch(0.0, settings, 400_000, seed=130)), edges)]
        for j, mu in enumerate(iset.intensities, start=1):
            batch = sample_batch(mu, settings, 150_000, seed=130 + j)
            tables.append(histogram_counts(*records(batch), edges))
        hist = decoy_corrected_histogram({0: tables}, iset, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        expect = joint_pdf_fock(1, centers[:, None], centers[None, :], np.pi / 4)
        area = np.diff(edges)[0] ** 2
        expect = expect / (expect.sum() * area)
        density = hist.probabilities[0] / area
        # Statistical agreement only; the estimator weights amplify the
        # Monte Carlo noise considerably, so test the bulk shape.
        assert np.mean(np.abs(density - expect)) < 0.02
        assert np.max(np.abs(density - expect)) < 0.3
        assert hist.clamp_fraction[0] < 0.5

    def test_corrected_histogram_degenerate_raises(self):
        iset = DecoyIntensitySet((0.1,))
        edges = np.linspace(-1.0, 1.0, 3)

        def table(x):
            return histogram_counts(np.full(100, x), np.full(100, x), edges)

        # Vacuum data in-range, decoy data entirely out of range: the
        # corrected density is negative everywhere and clamps to nothing.
        with pytest.raises(ArithmeticError):
            decoy_corrected_histogram({0: [table(0.5), table(50.0)]}, iset, edges)

    def test_uncorrected_histogram_without_records_in_range_raises(self):
        edges = np.linspace(-1.0, 1.0, 3)
        tables = {0: histogram_counts([0.5], [0.5], edges)}
        tables[1] = histogram_counts([3.0, np.nan], [0.5, 0.5], edges)
        with pytest.raises(ArithmeticError):
            histogram_from_tables(tables, edges)

    def test_missing_batch_rejected(self):
        iset = DecoyIntensitySet((0.1,))
        with pytest.raises(ValueError):  # no setting at all
            decoy_corrected_histogram({}, iset, np.linspace(-1, 1, 3))
        with pytest.raises(ValueError):  # setting 1, but no setting 0
            decoy_corrected_histogram({1: []}, iset, np.linspace(-1, 1, 3))
        with pytest.raises(ValueError):  # the setting, but no label
            decoy_corrected_histogram({0: []}, iset, np.linspace(-1, 1, 3))


class TestMle:
    def test_zero_iterations_returns_maximally_mixed(self):
        cfg = ExperimentConfig(cutoff=1, bin_width=0.5, x_range=3.0)
        edges = cfg.bin_edges()
        povm = build_povm_elements(PHASE_PAIRS_4, edges, 1)
        nb = len(edges) - 1
        hist = BinnedHistogram(np.full((4, nb, nb), 1.0 / (nb * nb)), np.zeros(4))
        result = mle_reconstruct(hist, povm, 0, cfg.tolerance)
        assert np.allclose(result.rho, np.eye(4) / 4.0)
        assert not result.converged
        assert fidelity(result.rho, bell_state(1)) == pytest.approx(0.25, abs=1e-12)

    def test_vacuum_data_recovers_vacuum(self):
        cfg = ExperimentConfig(cutoff=2, max_iterations=300, tolerance=1e-9, bin_width=0.4, x_range=4.0)
        edges = cfg.bin_edges()
        tables = {
            s: histogram_counts(
                *records(sample_batch(0.0, MeasurementSettings(*pair), 40_000, seed=400 + s)), edges
            )
            for s, pair in enumerate(PHASE_PAIRS_4)
        }
        hist = histogram_from_tables(tables, edges)
        povm = build_povm_elements(PHASE_PAIRS_4, edges, cfg.cutoff)
        result = mle_reconstruct(hist, povm, cfg.max_iterations, cfg.tolerance)
        assert np.diff(result.log_likelihood).min() >= -1e-10
        assert fidelity(result.rho, vacuum_state(2)) > 0.99

    def test_single_photon_data_recovers_entangled_state(self):
        cfg = ExperimentConfig(cutoff=2, max_iterations=2000, tolerance=1e-10, bin_width=0.4, x_range=4.0)
        edges = cfg.bin_edges()
        tables = {
            s: histogram_counts(
                *records(
                    sample_batch(
                        0.0,
                        MeasurementSettings(*pair),
                        50_000,
                        pipeline="ideal-fock",
                        seed=500 + s,
                    )
                ),
                edges,
            )
            for s, pair in enumerate(PHASE_PAIRS_4)
        }
        hist = histogram_from_tables(tables, edges)
        povm = build_povm_elements(PHASE_PAIRS_4, edges, cfg.cutoff)
        result = mle_reconstruct(hist, povm, cfg.max_iterations, cfg.tolerance)
        assert np.diff(result.log_likelihood).min() >= -1e-10
        assert fidelity(result.rho, bell_state(2)) > 0.95
        assert multiphoton_mass(result.rho) < 0.05

    CUTOFF = 2

    def decoy_histogram(self, edges):
        iset = DecoyIntensitySet((0.0872, 0.2314, 0.9840))
        tables = {}
        for s, pair in enumerate(PHASE_PAIRS_4):
            settings = MeasurementSettings(*pair)
            tables[s] = []
            for j, mu in enumerate((0.0,) + iset.intensities):
                batch = sample_batch(mu, settings, 60_000, seed=600 + 4 * s + j)
                tables[s].append(histogram_counts(*records(batch), edges))
        return decoy_corrected_histogram(tables, iset, edges)

    def fock_histogram(self, edges):
        tables = {
            s: histogram_counts(
                *records(
                    sample_batch(
                        0.0,
                        MeasurementSettings(*pair),
                        20_000,
                        pipeline="ideal-fock",
                        seed=700 + s,
                    )
                ),
                edges,
            )
            for s, pair in enumerate(PHASE_PAIRS_4)
        }
        return histogram_from_tables(tables, edges)

    def fit_inputs(self, source):
        """The config, histogram and POVM of a cutoff-2 fit to `source` data."""
        cfg = ExperimentConfig(
            cutoff=self.CUTOFF, max_iterations=300, tolerance=1e-9, bin_width=0.5, x_range=4.0
        )
        edges = cfg.bin_edges()
        hist = self.decoy_histogram(edges) if source == "decoy" else self.fock_histogram(edges)
        return cfg, hist, build_povm_elements(PHASE_PAIRS_4, edges, cfg.cutoff)

    @pytest.mark.parametrize("source", ["decoy", "ideal-fock"])
    def test_reaches_reference_loop_optimum(self, source):
        """The reported likelihood is that of the returned state, it is at
        least what R-rho-R reaches when run to its own stop, and it never
        falls from one iteration to the next."""
        cfg, hist, povm = self.fit_inputs(source)
        result = mle_reconstruct(hist, povm, cfg.max_iterations, cfg.tolerance)
        _, rr_trace, _, rr_converged = reference_mle(hist, povm, 20_000, cfg.tolerance)
        ll, _ = reference_likelihood(hist, povm, result.rho)
        assert result.converged and rr_converged
        assert abs(result.log_likelihood[-1] - ll) < 1e-12
        assert result.log_likelihood[-1] >= rr_trace[-1] - 1e-9
        assert np.diff(result.log_likelihood).min() >= -1e-10

    @pytest.mark.parametrize("source", ["decoy", "ideal-fock"])
    def test_stops_after_two_small_gains(self, source):
        """The fit stops at the first two consecutive gains below the
        tolerance, and only there."""
        cfg, hist, povm = self.fit_inputs(source)
        result = mle_reconstruct(hist, povm, cfg.max_iterations, cfg.tolerance)
        small = np.diff(result.log_likelihood) < cfg.tolerance
        assert result.converged
        assert len(result.log_likelihood) == result.iterations + 1
        assert np.flatnonzero(small[:-1] & small[1:]).tolist() == [result.iterations - 2]

    def test_likelihood_gap_bounds_the_shortfall(self):
        """lambda_max(R) - 1 of the oracle's R, and by concavity at least
        the log-likelihood still to gain, also on a fit stopped early."""
        cfg, hist, povm = self.fit_inputs("decoy")
        best = mle_reconstruct(hist, povm, cfg.max_iterations, cfg.tolerance)
        for budget in (0, 3, cfg.max_iterations):
            result = mle_reconstruct(hist, povm, budget, cfg.tolerance)
            ll, r_mat = reference_likelihood(hist, povm, result.rho)
            gap = np.linalg.eigvalsh(r_mat)[-1] - 1.0
            shortfall = best.log_likelihood[-1] - ll
            assert result.likelihood_gap == pytest.approx(gap, abs=1e-10)
            assert shortfall <= result.likelihood_gap + 1e-12

    def test_mismatched_settings_rejected(self):
        cfg = ExperimentConfig(cutoff=1, bin_width=0.5, x_range=2.0)
        edges = cfg.bin_edges()
        povm = build_povm_elements([(0.0, 0.0)], edges, 1)
        nb = len(edges) - 1
        for shape in ((2, nb, nb), (1, nb - 1, nb - 1)):  # a setting more; a bin fewer
            hist = BinnedHistogram(np.full(shape, 1.0 / (shape[1] * shape[2])), np.zeros(shape[0]))
            with pytest.raises(ValueError):
                mle_reconstruct(hist, povm, cfg.max_iterations, cfg.tolerance)


class TestFidelityAndMass:
    def test_pure_target_fidelity(self):
        target = bell_state(1)
        rho = np.outer(target, target.conj())
        assert fidelity(rho, target) == pytest.approx(1.0)

    def test_orthogonal_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00>
        assert fidelity(rho, bell_state(1)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(9) / 9.0, bell_state(1))
        with pytest.raises(ValueError):  # a target of the wrong length
            fidelity(np.eye(4) / 4.0, bell_state(2))
        with pytest.raises(ValueError):  # an amplitude grid, not a vector
            fidelity(np.eye(4) / 4.0, bell_state(1).reshape(2, 2))

    def test_rejects_unnormalised_target(self):
        rho = np.eye(4) / 4.0
        for scale in (0.5, 1.0 + 1e-11, 0.0):  # the norm must be 1 within 1e-12
            with pytest.raises(ValueError):
                fidelity(rho, scale * bell_state(1))
        assert fidelity(rho, (1.0 + 1e-13) * bell_state(1)) == pytest.approx(0.25)

    def test_multiphoton_mass(self):
        d = 3
        rho = np.eye(d * d, dtype=complex) / (d * d)
        # Uniform diagonal: states with j + k > 2 are (1,2),(2,1),(2,2)
        assert multiphoton_mass(rho) == pytest.approx(3.0 / 9.0)
        vac = np.zeros((d * d, d * d), dtype=complex)
        vac[0, 0] = 1.0
        assert multiphoton_mass(vac) == 0.0


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        path = str(tmp_path / "rho.txt")
        save_density_matrix(rho, path)
        assert np.array_equal(rho, load_density_matrix(path))

    def test_bytes_match_pair_writer(self, tmp_path):
        """The CSV writer gives each entry as its .17g re,im pair, signed
        zeros and subnormals included."""
        rho = np.array(
            [[0.5 + 0.0j, complex(-0.0, 1e-310)], [complex(0.1, -0.0), 0.5 - 1e-17j]]
        )
        expect = "2\n" + "".join(
            ",".join(f"{v.real:.17g},{v.imag:.17g}" for v in row) + "\n" for row in rho
        )
        path = tmp_path / "rho.txt"
        save_density_matrix(rho, str(path))
        assert path.read_text() == expect
