"""Decoy-corrected joint-quadrature histograms and iterative
maximum-likelihood reconstruction of the two-mode density matrix.

POVM elements factorize per mode: the element for 2-D bin (B_a, B_b) at LO
phases (phi_a, phi_b) is E(B_a, phi_a) (x) E(B_b, phi_b) with single-mode
entries e^(i(n-m)phi) * integral of phi_m phi_n over the bin. The iteration
is the standard R-rho-R fixed point, run with the Kronecker structure kept
implicit for speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decoy import DecoyIntensitySet, GainVector, estimate_single_photon_statistic
from .fock import TruncatedOperator, hermite_functions
from .homodyne import SampleBatch
from .states import TwoModeFockState


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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.bin_width <= 0 or self.x_range <= 0:
            raise ValueError("bin geometry must be positive")

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
    fidelity: float
    iterations: int
    converged: bool


class PovmSet:
    """Single-mode bin operators per setting, Kronecker-implicit.

    For setting s, `mode_a[s]` has shape (n_bins, d, d); the two-mode element
    for bin (i, j) is kron(mode_a[s][i], mode_b[s][j]). `complement[s]` is
    the two-mode out-of-range remainder, I - sum of in-range elements.
    """

    def __init__(self, phase_pairs, edges, cutoff):
        self.phase_pairs = [tuple(map(float, p)) for p in phase_pairs]
        self.edges = np.asarray(edges, dtype=float)
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("bin edges must be strictly increasing (no overlap)")
        self.cutoff = int(cutoff)
        base = _bin_overlap_tensor(self.edges, self.cutoff)  # (n_bins, d, d), phi = 0
        d = self.cutoff + 1
        phases = np.arange(d)
        self.mode_a = []
        self.mode_b = []
        for phi_a, phi_b in self.phase_pairs:
            pa = np.exp(1j * (phases[None, :] - phases[:, None]) * phi_a)
            pb = np.exp(1j * (phases[None, :] - phases[:, None]) * phi_b)
            self.mode_a.append(base * pa[None, :, :])
            self.mode_b.append(base * pb[None, :, :])

    @property
    def n_settings(self) -> int:
        return len(self.phase_pairs)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def complement(self, s: int) -> np.ndarray:
        d2 = (self.cutoff + 1) ** 2
        total = np.kron(self.mode_a[s].sum(axis=0), self.mode_b[s].sum(axis=0))
        return np.eye(d2, dtype=complex) - total

    def elements(self, s: int) -> list[TruncatedOperator]:
        """Explicit two-mode elements for setting s (tests / small cutoffs)."""
        out = []
        for ea in self.mode_a[s]:
            for eb in self.mode_b[s]:
                out.append(TruncatedOperator(self.cutoff, 2, np.kron(ea, eb)))
        return out

    def probabilities(self, rho: np.ndarray, s: int) -> np.ndarray:
        """Tr(rho * kron(Ea_i, Eb_j)) for every in-range bin."""
        d = self.cutoff + 1
        rho4 = rho.reshape(d, d, d, d).transpose(0, 2, 1, 3)  # (ra, ca, rb, cb)
        return np.einsum(
            "acbd,ica,jdb->ij", rho4, self.mode_a[s], self.mode_b[s], optimize=True
        ).real


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


def histogram_density(batch: SampleBatch, edges: np.ndarray) -> np.ndarray:
    """Empirical joint density over the bin grid (out-of-range mass dropped,
    normalization by total sample count so densities stay comparable across
    intensities)."""
    counts, _, _ = np.histogram2d(batch.x_a, batch.x_b, bins=(edges, edges))
    w = np.diff(edges)
    area = w[0] * w[0]
    return counts / (len(batch) * area)


def decoy_corrected_histogram(
    batches: dict,
    intensity_set: DecoyIntensitySet,
    phase_pairs,
    edges: np.ndarray,
) -> BinnedHistogram:
    """Per-bin decoy estimate of the single-photon density.

    `batches` maps (setting index, intensity label) -> SampleBatch, with
    intensity label 0 the vacuum. Negative corrected densities are clamped
    to zero and each setting renormalized to unit mass.
    """
    L = intensity_set.num_levels
    nb = len(edges) - 1
    w = np.diff(edges)
    area = float(w[0] * w[0])
    densities = np.empty((len(phase_pairs), nb, nb))
    clamp_fraction = np.zeros(len(phase_pairs))
    for s in range(len(phase_pairs)):
        for j in range(L + 1):
            if (s, j) not in batches:
                raise ValueError(f"missing batch for setting {s}, intensity label {j}")
        gains = GainVector(
            vacuum=histogram_density(batches[(s, 0)], edges),
            gains=tuple(histogram_density(batches[(s, j)], edges) for j in range(1, L + 1)),
        )
        est = estimate_single_photon_statistic(gains, intensity_set)
        neg = -np.clip(est, None, 0.0)
        clamped = np.clip(est, 0.0, None)
        mass = clamped.sum() * area
        if mass <= 0:
            raise ArithmeticError(
                f"degenerate corrected histogram at setting {s} (no positive mass)"
            )
        clamp_fraction[s] = neg.sum() * area / max(mass, 1e-300)
        densities[s] = clamped / mass
    return BinnedHistogram(
        phase_pairs=list(phase_pairs),
        edges=np.asarray(edges, dtype=float),
        densities=densities,
        clamp_fraction=clamp_fraction,
    )


def histogram_from_batches(batches_by_setting: dict, phase_pairs, edges) -> BinnedHistogram:
    """Uncorrected (single-intensity) histogram, e.g. for ideal Fock data."""
    nb = len(edges) - 1
    densities = np.empty((len(phase_pairs), nb, nb))
    w = np.diff(edges)
    area = float(w[0] * w[0])
    for s in range(len(phase_pairs)):
        dens = histogram_density(batches_by_setting[s], edges)
        densities[s] = dens / (dens.sum() * area)
    return BinnedHistogram(phase_pairs=list(phase_pairs), edges=np.asarray(edges), densities=densities)


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
    d = config.cutoff + 1
    d2 = d * d
    area = hist.bin_area
    n_set = povm.n_settings
    freqs = hist.densities * area / n_set  # (s, i, j), sums to ~1 overall

    rho = np.eye(d2, dtype=complex) / d2
    ll_trace: list[float] = []
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        rho4 = rho.reshape(d, d, d, d).transpose(0, 2, 1, 3)  # (ra, ca, rb, cb)
        r_op = np.zeros((d, d, d, d), dtype=complex)
        ll = 0.0
        for s in range(n_set):
            # p[i, j] = sum_{ma,na,mb,nb} rho[(ma,mb),(na,nb)] Ea[i,na,ma] Eb[j,nb,mb]
            p = np.einsum(
                "acbd,ica,jdb->ij", rho4, povm.mode_a[s], povm.mode_b[s], optimize=True
            ).real
            p = np.clip(p, 1e-300, None)
            f = freqs[s]
            mask = f > 0
            ll += float(np.sum(f[mask] * np.log(p[mask])))
            wgt = np.where(mask, f / p, 0.0)
            # R += sum_ij wgt[i,j] kron(Ea_i, Eb_j), kept as (ra, ca, rb, cb)
            r_op += np.einsum(
                "ij,iac,jbd->acbd", wgt, povm.mode_a[s], povm.mode_b[s], optimize=True
            )
        ll_trace.append(ll)
        if len(ll_trace) >= 2 and ll_trace[-1] - ll_trace[-2] < config.tolerance:
            converged = ll_trace[-1] >= ll_trace[-2] - 1e-10
            break
        r_mat = r_op.transpose(0, 2, 1, 3).reshape(d2, d2)
        rho = r_mat @ rho @ r_mat
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real

    op = TruncatedOperator(config.cutoff, 2, rho)
    return TomographyResult(
        rho=op,
        log_likelihood=ll_trace,
        fidelity=float("nan"),
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


def load_density_matrix(path: str, cutoff: int, modes: int = 2) -> TruncatedOperator:
    with open(path) as fh:
        dim = int(fh.readline())
        rows = []
        for _ in range(dim):
            vals = [float(v) for v in fh.readline().split(",")]
            rows.append([complex(r, i) for r, i in zip(vals[::2], vals[1::2])])
    return TruncatedOperator(cutoff, modes, np.array(rows))
