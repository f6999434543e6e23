"""Decoy-corrected joint-quadrature histograms and iterative
maximum-likelihood reconstruction of the two-mode density matrix.

Analysis takes count tables only: each batch is reduced to integer counts
over the 2-D bin grid as soon as it is sampled (`histogram_counts`), and the
densities, the decoy correction and the uncorrected histogram read those
tables. The decoy correction takes one table per intensity label (0 =
vacuum, then the decoy levels) for each setting.

POVM elements factorize per mode: the element for 2-D bin (B_a, B_b) at LO
phases (phi_a, phi_b) is E(B_a, phi_a) (x) E(B_b, phi_b) with single-mode
entries e^(i(n-m)phi) * integral of phi_m phi_n over the bin. The integrals
are real and the same for every setting, and on the realigned density
matrix R~[(m_a,n_a),(m_b,n_b)] = rho[(m_a,m_b),(n_a,n_b)] a setting's phases
are only an elementwise factor. So each step of the standard R-rho-R fixed
point is a handful of real matrix products with one phase-free bin operator,
stacked over all settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decoy import DecoyIntensitySet, estimate_single_photon_statistic
from .fock import TruncatedOperator, hermite_functions
from .homodyne import CountTable, SampleBatch, chunked_bincount, grid_index
from .states import TwoModeFockState

# Each count table holds (bins per axis + 2)^2 int64 cells, and the POVM one
# overlap matrix per bin; the default grid has 50 bins per axis.
MAX_BINS = 1000


@dataclass(frozen=True)
class MleConfig:
    cutoff: int = 10
    max_iterations: int = 500
    tolerance: float = 1e-9
    bin_width: float = 0.2
    x_range: float = 5.0

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        for key in ("bin_width", "x_range"):
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be positive and finite")
        n_bins = 2.0 * self.x_range / self.bin_width  # inf when bin_width is tiny
        if not (np.isfinite(n_bins) and round(n_bins) <= MAX_BINS):
            raise ValueError(f"x_range and bin_width give over {MAX_BINS} bins per axis")
        if round(n_bins) < 1:
            raise ValueError("bin_width leaves no bin in [-x_range, x_range]")

    def bin_edges(self) -> np.ndarray:
        n_bins = int(round(2.0 * self.x_range / self.bin_width))
        return np.linspace(-self.x_range, self.x_range, n_bins + 1)


@dataclass
class BinnedHistogram:
    """Per-setting 2-D densities over (x_a, x_b).

    `densities[s, i, j]` is the (possibly decoy-corrected) probability
    density in bin (i, j) for setting s; each setting integrates to 1 after
    renormalization. `clamp_fraction` reports the negative mass removed per
    setting by the clamp, as a diagnostic.
    """

    phase_pairs: list
    edges: np.ndarray
    densities: np.ndarray
    clamp_fraction: np.ndarray = field(default=None)

    def __post_init__(self):
        nb = len(self.edges) - 1
        if self.densities.shape[1:] != (nb, nb):
            raise ValueError("density grid does not match bin edges")
        if np.any(self.densities < 0):
            raise ValueError("densities must be non-negative")
        if self.clamp_fraction is None:
            self.clamp_fraction = np.zeros(self.densities.shape[0])

    @property
    def bin_area(self) -> float:
        w = np.diff(self.edges)
        return float(w[0] * w[0])


@dataclass
class TomographyResult:
    rho: TruncatedOperator
    log_likelihood: list
    iterations: int
    converged: bool


def _realign(op: np.ndarray, d: int) -> np.ndarray:
    """R~[(m_a, n_a), (m_b, n_b)] = op[(m_a, m_b), (n_a, n_b)]; its own inverse."""
    return op.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


class PovmSet:
    """Binned POVM for every setting, built from one phase-free operator.

    `bins[i]` is the real single-mode overlap matrix of bin i (integrals of
    phi_m phi_n over the bin) flattened to length d^2, the same for both
    modes and every setting. `phases[s]` = outer(f_a, f_b) with
    f[(m, n)] = e^(i(m-n)phi) is all that setting s adds: the probability of
    2-D bin (i, j) is (bins @ Re(R~ o phases[s]) @ bins.T)[i, j] on the
    realigned density matrix R~.
    """

    def __init__(self, phase_pairs, edges, cutoff):
        self.phase_pairs = [tuple(map(float, p)) for p in phase_pairs]
        self.edges = np.asarray(edges, dtype=float)
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("bin edges must be strictly increasing (no overlap)")
        self.cutoff = int(cutoff)
        d = self.cutoff + 1
        self.bins = _bin_overlap_tensor(self.edges, self.cutoff).reshape(-1, d * d)
        self._bins_t = np.ascontiguousarray(self.bins.T)  # stacked matmuls want it contiguous
        m, n = np.divmod(np.arange(d * d), d)
        phi = np.array(self.phase_pairs, dtype=float).reshape(-1, 2)
        f_a = np.exp(1j * (m - n)[None, :] * phi[:, :1])
        f_b = np.exp(1j * (m - n)[None, :] * phi[:, 1:])
        self.phases = f_a[:, :, None] * f_b[:, None, :]  # (settings, d^2, d^2)

    @property
    def n_settings(self) -> int:
        return len(self.phase_pairs)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def probabilities(self, rho: np.ndarray, s: int | None = None) -> np.ndarray:
        """Tr(rho * kron(Ea_i, Eb_j)) for every in-range bin (i, j), of
        setting s, or of every setting stacked when s is None."""
        r = _realign(np.asarray(rho), self.cutoff + 1)
        phases = self.phases if s is None else self.phases[s : s + 1]
        p = self.bins @ (r * phases).real @ self._bins_t
        return p if s is None else p[0]

    def likelihood_operator(self, weights: np.ndarray) -> np.ndarray:
        """sum over settings s and bins (i, j) of weights[s, i, j] *
        kron(Ea_i, Eb_j), as a d^2 x d^2 matrix: the realigned sum over s
        of (bins.T @ weights[s] @ bins) o conj(phases[s])."""
        m = self._bins_t @ weights @ self.bins  # (settings, d^2, d^2), real
        return _realign(np.conj((m * self.phases).sum(axis=0)), self.cutoff + 1)


def _bin_overlap_tensor(edges: np.ndarray, cutoff: int, order: int = 24) -> np.ndarray:
    """Exact Gauss-Legendre integrals of phi_m phi_n over each bin."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    n_bins = len(edges) - 1
    d = cutoff + 1
    out = np.empty((n_bins, d, d))
    for i in range(n_bins):
        a, b = edges[i], edges[i + 1]
        half = 0.5 * (b - a)
        x = a + half * (nodes + 1.0)
        w = half * weights
        phi = hermite_functions(cutoff, x)  # (d, order)
        out[i] = (phi * w) @ phi.T
    return out


def build_povm_elements(phase_pairs, edges, cutoff: int) -> PovmSet:
    """POVM over 2-D quadrature bins for each (phi_a, phi_b) setting."""
    return PovmSet(phase_pairs, edges, cutoff)


def histogram_counts(batch: SampleBatch, edges) -> CountTable:
    """Count `batch` over the grid `edges` x `edges` in one pass: the
    table's `counts[i, j]` is the number of records with x_a in bin i and
    x_b in bin j, and its grid is `edges`.

    Bin i holds edges[i] <= x < edges[i + 1], and the last edge falls in the
    last bin; NaN and +-inf fall outside, as in `np.histogram2d`. Per arm,
    the number of edges at or below x comes from the exact lattice lookup
    `homodyne.grid_index(edges, "right")`, less one on the last edge. Index
    0 (below the grid, and NaN) and n_bins + 1 (above it) collect what falls
    outside. The edges must be evenly spaced, since the densities assume
    equal bin widths.
    """
    edges = np.asarray(edges, dtype=float)
    n_bins = len(edges) - 1
    width = (edges[-1] - edges[0]) / n_bins if n_bins > 0 else 0.0
    if not (width > 0 and np.allclose(np.diff(edges), width, rtol=1e-6, atol=0.0)):
        raise ValueError("bin edges must be evenly spaced and increasing")
    edge_index = grid_index(edges, "right")
    side = n_bins + 2

    def index(x: np.ndarray) -> np.ndarray:
        k = edge_index(x)
        k -= x == edges[-1]
        return k

    flat = chunked_bincount(batch, lambda x_a, x_b: index(x_a) * side + index(x_b), side * side)
    counts = flat.reshape(side, side)[1:-1, 1:-1].copy()
    return CountTable(edges, counts, len(batch))


def histogram_density(table: CountTable, edges: np.ndarray) -> np.ndarray:
    """Empirical joint density over the bin grid from a table built over
    `edges` (out-of-range mass dropped, normalization by total sample count
    so densities stay comparable across intensities)."""
    if not np.array_equal(table.grid, edges):
        raise ValueError("count table was built over different bin edges")
    w = np.diff(edges)
    area = w[0] * w[0]
    return table.counts / (table.total * area)


def _normalized(estimates: list, phase_pairs, edges, clamp: bool) -> BinnedHistogram:
    """Scale each setting's density estimate to unit mass, after clamping its
    negative entries to zero when `clamp` is set (the removed mass, relative
    to what remains, is the setting's clamp fraction)."""
    edges = np.asarray(edges, dtype=float)
    w = np.diff(edges)
    area = float(w[0] * w[0])
    densities = np.empty((len(estimates), len(edges) - 1, len(edges) - 1))
    clamp_fraction = np.zeros(len(estimates))
    for s, est in enumerate(estimates):
        kept = np.clip(est, 0.0, None) if clamp else est
        mass = kept.sum() * area
        if not mass > 0:
            raise ArithmeticError(f"no positive mass inside the bin grid at setting {s}")
        if clamp:
            clamp_fraction[s] = (-np.clip(est, None, 0.0)).sum() * area / mass
        densities[s] = kept / mass
    return BinnedHistogram(
        phase_pairs=list(phase_pairs),
        edges=edges,
        densities=densities,
        clamp_fraction=clamp_fraction,
    )


def decoy_corrected_histogram(
    tables: dict,
    intensity_set: DecoyIntensitySet,
    phase_pairs,
    edges: np.ndarray,
) -> BinnedHistogram:
    """Per-bin decoy estimate of the single-photon density.

    `tables` maps each setting index to its count tables over `edges`,
    indexed by intensity label (0 = vacuum). Negative corrected densities
    are clamped to zero and each setting renormalized to unit mass.
    """
    estimates = []
    for s in range(len(phase_pairs)):
        if len(tables.get(s, ())) != intensity_set.num_levels + 1:
            raise ValueError(f"need one table per intensity label for setting {s}")
        gains = [histogram_density(table, edges) for table in tables[s]]
        estimates.append(estimate_single_photon_statistic(gains, intensity_set))
    return _normalized(estimates, phase_pairs, edges, clamp=True)


def histogram_from_tables(tables_by_setting: dict, phase_pairs, edges) -> BinnedHistogram:
    """Uncorrected (single-intensity) histogram, e.g. for ideal Fock data,
    from one count table per setting index."""
    densities = [histogram_density(tables_by_setting[s], edges) for s in range(len(phase_pairs))]
    return _normalized(densities, phase_pairs, edges, clamp=False)


def mle_reconstruct(
    hist: BinnedHistogram, povm: PovmSet, config: MleConfig
) -> TomographyResult:
    """R-rho-R fixed-point maximum-likelihood reconstruction.

    Starts from the maximally mixed state; stops when the log-likelihood
    gain drops below the tolerance or at max_iterations. The likelihood is
    sum over settings and bins of f log p with frequencies f normalized to
    total mass 1 across settings.
    """
    if list(map(tuple, hist.phase_pairs)) != list(povm.phase_pairs):
        raise ValueError("histogram and POVM settings differ")
    if hist.densities.shape[1] != povm.n_bins:
        raise ValueError("histogram and POVM bins differ")
    if povm.cutoff != config.cutoff:
        raise ValueError("POVM and MLE cutoffs differ")
    d2 = (config.cutoff + 1) ** 2
    freqs = hist.densities * hist.bin_area / povm.n_settings  # sums to ~1 overall
    observed = freqs > 0
    f_observed = freqs[observed]

    rho = np.eye(d2, dtype=complex) / d2
    ll_trace: list[float] = []
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        p = np.clip(povm.probabilities(rho), 1e-300, None)
        ll_trace.append(float(np.sum(f_observed * np.log(p[observed]))))
        if len(ll_trace) >= 2 and ll_trace[-1] - ll_trace[-2] < config.tolerance:
            converged = ll_trace[-1] >= ll_trace[-2] - 1e-10
            break
        r_mat = povm.likelihood_operator(freqs / p)
        rho = r_mat @ rho @ r_mat
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real

    op = TruncatedOperator(config.cutoff, 2, rho)
    return TomographyResult(
        rho=op,
        log_likelihood=ll_trace,
        iterations=it,
        converged=converged,
    )


def fidelity(rho: TruncatedOperator, target: TwoModeFockState) -> float:
    """<Psi| rho |Psi> for a pure two-mode target."""
    if rho.modes != 2 or target.cutoff != rho.cutoff:
        raise ValueError("density matrix and target state dimensions differ")
    vec = target.vector()
    val = float(np.real(vec.conj() @ rho.entries @ vec))
    return min(max(val, 0.0), 1.0)


def multiphoton_mass(rho: TruncatedOperator) -> float:
    """Total population on basis states |j, k> with j + k > 2."""
    d = rho.cutoff + 1
    diag = np.real(np.diag(rho.entries)).reshape(d, d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return float(np.sum(diag[j + k > 2]))


def save_density_matrix(rho: TruncatedOperator, path: str) -> None:
    """Text format: dimension header, then rows of re,im pairs."""
    mat = rho.entries
    with open(path, "w") as fh:
        fh.write(f"{mat.shape[0]}\n")
        for row in mat:
            fh.write(",".join(f"{v.real:.17g},{v.imag:.17g}" for v in row) + "\n")
