"""Decoy-corrected joint-quadrature histograms and maximum-likelihood
reconstruction of the two-mode density matrix.

Analysis takes count tables only, one per batch over the 2-D bin grid
(`histogram_binning`), each drawn whole from its exact cell masses,
coherent and ideal-fock alike. The decoy correction takes one table per
intensity label (0 = vacuum, then the decoy levels) for each setting, the
uncorrected histogram one per setting. Both hand the MLE each setting's
bin probabilities, summing to 1; only `histogram_density` divides by the
bin area.

POVM elements factorize per mode: the element for 2-D bin (B_a, B_b) at LO
phases (phi_a, phi_b) is E(B_a, phi_a) (x) E(B_b, phi_b) with single-mode
entries e^(i(n-m)phi) * integral of phi_m phi_n over the bin. The integrals
are real, exact (`fock.overlap_matrices`, one call over all the edges), the
same for every setting and symmetric in (m, n), and on the realigned density
matrix R~[(m_a,n_a),(m_b,n_b)] = rho[(m_a,m_b),(n_a,n_b)] a setting's phases
are only an elementwise factor. So `PovmSet` folds each mode onto its
d(d+1)/2 unordered Fock pairs m <= n and evaluates the bin probabilities,
and the likelihood operator R = sum f/p E, of every setting in one real
einsum and one stacked matmul.

The fit is L-BFGS ascent on a factor A of rho = A A^H / tr(A A^H), so every
iterate is a density matrix (see `mle_reconstruct`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoy import DecoyIntensitySet, estimate_single_photon_statistic
from .fock import overlap_matrices
from .homodyne import Binning, CountTable, cached_rows, upper_tail
from .states import TwoModeFockState

@dataclass
class BinnedHistogram:
    """Per-setting 2-D bin probabilities over (x_a, x_b).

    `probabilities[s, i, j]` is the (possibly decoy-corrected) probability
    of bin (i, j) at setting s; each setting sums to 1. `clamp_fraction[s]`
    is the negative mass the clamp removed from setting s, relative to what
    remains, as a diagnostic.
    """

    probabilities: np.ndarray
    clamp_fraction: np.ndarray


@dataclass
class TomographyResult:
    rho: np.ndarray  # (d^2, d^2), d = cutoff + 1
    log_likelihood: list
    iterations: int
    converged: bool
    # lambda_max(R) - 1 at rho, R the likelihood operator: by concavity it
    # bounds how far the log-likelihood is below its maximum.
    likelihood_gap: float


class PovmSet:
    """Binned POVM for every setting, folded onto unordered Fock pairs.

    `bins[i]` is the real single-mode overlap matrix of bin i (integrals of
    phi_m phi_n over the bin, in closed form by `fock.overlap_matrices` over
    all the edges at once) flattened to length d^2, the same for both modes
    and every setting. Bin (i, j) of setting s has probability
    bins[i] Re(R~ o f_a (x) f_b) bins[j], f[(m, n)] = e^(i(m-n)phi). Both
    factors keep their real part when both pairs swap, so the sum runs over
    the U = d(d+1)/2 pairs u = (m <= n) per mode, a diagonal pair weighted
    1/2: with u' the swap of u, it is 2 Re(R1 o F1 + R2 o F2) for
    R1 = R~[u_a, u_b], R2 = R~[u_a, u'_b], F1 = e^(-i theta1) = g_a (x) g_b,
    F2 = e^(-i theta2) = g_a (x) conj(g_b), g = f on the pairs. The table
    [cos theta1, cos theta2, sin theta1, sin theta2], (settings, 4, U^2),
    makes that one einsum for all settings, and index maps built once, the
    realign composed in, gather R1, R2 from rho and spread R back.
    """

    def __init__(self, phase_pairs, edges, cutoff):
        self.phase_pairs = [tuple(map(float, p)) for p in phase_pairs]
        self.edges = np.asarray(edges, dtype=float)
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("bin edges must be strictly increasing (no overlap)")
        self.cutoff = int(cutoff)
        d = self.cutoff + 1
        self.bins = overlap_matrices(self.edges, self.cutoff).reshape(-1, d * d)
        m, n = np.triu_indices(d)
        u, pair, swap = len(m), m * d + n, n * d + m
        folded = self.bins[:, pair]
        half = folded * np.where(m == n, 0.5, 1.0)
        # The column gather is Fortran-ordered; the stacked matmuls want C order.
        self._bins_u, self._bins_ut = np.ascontiguousarray(folded), np.ascontiguousarray(folded.T)
        self._half2, self._half_t = np.ascontiguousarray(2.0 * half), np.ascontiguousarray(half.T)
        # R~[i, j] = op.ravel()[flat[i, j]]; Re R1, Re R2, Im R1, Im R2 in rho's float view.
        flat = np.arange(d**4).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        blocks = 2 * np.stack([flat[pair[:, None], pair], flat[pair[:, None], swap]]).reshape(2, -1)
        self._pair_index = np.concatenate([blocks, blocks + 1])
        # R's float view from [Re z1, Re z2, Im z1, Im z2, -Im z1, -Im z2]: an entry
        # reads z2 if its column pair is swapped, and the conjugate of its Hermitian
        # partner (both pairs swapped) if its row pair is, or is diagonal with the
        # column swapped. Both read one value, so R is exactly Hermitian.
        a, b = np.divmod(np.arange(d * d), d)  # (m, n) of a realigned row or column
        pair_of = np.empty((d, d), dtype=np.intp)
        pair_of[m, n] = pair_of[n, m] = np.arange(u)
        conj = (a > b)[:, None] | ((a == b)[:, None] & (a > b))
        z2 = np.where(conj, a < b, a > b)
        entry = pair_of.ravel()[:, None] * u + pair_of.ravel()
        index = np.stack([z2 * u * u + entry, (2 + 2 * conj + z2) * u * u + entry], axis=-1)
        self._op_index = index.reshape(-1, 2)[flat].reshape(d * d, 2 * d * d)
        phi = np.array(self.phase_pairs, dtype=float).reshape(-1, 2, 1, 1)
        k = (n - m).astype(float)
        term_a, term_b, table = k[:, None] * phi[:, 0], k * phi[:, 1], np.empty((len(phi), 4, u, u))
        np.add(term_a, term_b, out=table[:, 0])
        np.subtract(term_a, term_b, out=table[:, 1])
        np.sin(table[:, :2], out=table[:, 2:])
        np.cos(table[:, :2], out=table[:, :2])
        self._phases = table.reshape(len(phi), 4, u * u)

    @property
    def n_settings(self) -> int:
        return len(self.phase_pairs)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Tr(rho * kron(Ea_i, Eb_j)) for every in-range bin (i, j) of every
        setting, stacked as (settings, bins, bins); `rho` must be Hermitian."""
        r = np.asarray(rho, dtype=complex).reshape(-1).view(float)[self._pair_index]
        u = self._half_t.shape[0]
        return self._half2 @ np.einsum("ku,sku->su", r, self._phases).reshape(-1, u, u) @ self._half_t

    def likelihood_operator(self, weights: np.ndarray) -> np.ndarray:
        """sum over settings s and bins (i, j) of weights[s, i, j] *
        kron(Ea_i, Eb_j), as a d^2 x d^2 matrix: realigned, its (u_a, u_b)
        block is z1 = sum over s of Y_s o conj(F1_s), its (u_a, u'_b) block
        z2 likewise with F2, and the swapped rows conj(z1), conj(z2), where
        Y_s is the folded bins.T @ weights[s] @ bins."""
        y = (self._bins_ut @ weights @ self._bins_u).reshape(len(weights), -1)
        z = np.empty((6, y.shape[1]))
        np.einsum("su,sku->ku", y, self._phases, out=z[:4])
        np.negative(z[2:4], out=z[4:])
        return z.reshape(-1)[self._op_index].view(complex)


def build_povm_elements(phase_pairs, edges, cutoff: int) -> PovmSet:
    """POVM over 2-D quadrature bins for each (phi_a, phi_b) setting."""
    return PovmSet(phase_pairs, edges, cutoff)


def histogram_binning(edges) -> Binning:
    """Binning of a batch over the grid `edges` x `edges`: its table's
    `counts[i, j]` is the number of records with x_a in bin i and x_b in
    bin j, and its grid is `edges`.

    Each arm has a cell per bin and one below and one above the grid,
    cells i of [-inf, *edges, inf]. The edges must be evenly spaced, since
    the densities assume equal bin widths. Given the state phase, a
    coherent arm N(m, 1/2) lies below e with probability erfc(m - e)/2, and
    the arms are independent. For |1> a cell's mass is a sum of outer
    products of per-arm integrals of phi_0^2, phi_1^2 and phi_0 phi_1 over
    the cells (`fock.overlap_matrices`).
    """
    edges = np.asarray(edges, dtype=float)
    n_bins = len(edges) - 1
    width = (edges[-1] - edges[0]) / n_bins if n_bins > 0 else 0.0
    if not (width > 0 and np.allclose(np.diff(edges), width, rtol=1e-6, atol=0.0)):
        raise ValueError("bin edges must be evenly spaced and increasing")
    side = n_bins + 2

    # arm[j, i]: P(x in cell i) at node j, from the CDF at the edges.
    arm = cached_rows(lambda m: np.diff(upper_tail(m - edges), prepend=0.0, append=1.0))

    def masses(m_a, m_b):
        return (arm(m_a).T @ arm(m_b)).ravel() / len(m_a)

    overlaps = overlap_matrices(np.concatenate(([-np.inf], edges, [np.inf])), 1)
    p00, p01, p11 = overlaps[:, 0, 0], overlaps[:, 0, 1], overlaps[:, 1, 1]

    def fock(dtheta):
        out = (np.outer(p11, p00) + np.outer(p00, p11)) / 2.0 + np.cos(dtheta) * np.outer(p01, p01)
        # Past |x| ~ 5, p00 is a difference of erf values near +-1 and keeps
        # little relative precision, so the cross term can leave a far
        # cell's mass a little below 0, which `multinomial` refuses.
        return np.maximum(out, 0.0).ravel()

    return Binning(edges, lambda cells: cells.reshape(side, side)[1:-1, 1:-1].copy(), masses, fock)


def histogram_density(table: CountTable, edges: np.ndarray) -> np.ndarray:
    """Empirical joint density over the bin grid from a table built over
    `edges` (out-of-range mass dropped, normalization by total sample count
    so densities stay comparable across intensities)."""
    if not np.array_equal(table.grid, edges):
        raise ValueError("count table was built over different bin edges")
    w = np.diff(edges)
    area = w[0] * w[0]
    return table.counts / (table.total * area)


def _normalized(estimates: list) -> BinnedHistogram:
    """Clip each setting's estimate at zero and scale it to unit sum, so the
    bin area cancels. The clipped mass, relative to what remains, is the
    setting's clamp fraction."""
    probabilities, clamp_fraction = [], []
    for s, est in enumerate(estimates):
        kept = np.clip(est, 0.0, None)
        mass = kept.sum()
        if not mass > 0:
            raise ArithmeticError(f"no positive mass inside the bin grid at setting {s}")
        probabilities.append(kept / mass)
        clamp_fraction.append((kept - est).sum() / mass)
    # np.stack raises ValueError when there is no setting at all.
    return BinnedHistogram(np.stack(probabilities), np.array(clamp_fraction))


def decoy_corrected_histogram(
    tables: dict,
    intensity_set: DecoyIntensitySet,
    edges: np.ndarray,
) -> BinnedHistogram:
    """Per-bin decoy estimate of the single-photon probabilities.

    `tables` maps each setting index 0..S-1 to its count tables over
    `edges`, indexed by intensity label (0 = vacuum). Negative corrected
    estimates are clamped to zero and each setting renormalized to sum 1.
    """
    estimates = []
    for s in range(len(tables)):
        if len(tables.get(s, ())) != intensity_set.num_levels + 1:
            raise ValueError(f"need one table per intensity label for setting {s}")
        gains = [histogram_density(table, edges) for table in tables[s]]
        estimates.append(estimate_single_photon_statistic(gains, intensity_set))
    return _normalized(estimates)


def histogram_from_tables(tables: dict, edges) -> BinnedHistogram:
    """Uncorrected (single-intensity) histogram, e.g. for ideal Fock data,
    from one count table per setting index 0..S-1."""
    return _normalized([histogram_density(tables[s], edges) for s in range(len(tables))])


# L-BFGS keeps this many (step, gradient change) pairs.
LBFGS_MEMORY = 2
# Armijo sufficient-increase fraction of the slope, and the step below which
# the backtracking gives up.
ARMIJO_FRACTION = 1e-4
MIN_STEP = 1e-10


def mle_reconstruct(
    hist: BinnedHistogram, povm: PovmSet, max_iterations: int, tolerance: float
) -> TomographyResult:
    """Maximum-likelihood reconstruction at the POVM's cutoff by L-BFGS
    ascent on a factor A of rho = A A^H / tr(A A^H).

    The likelihood is sum over settings and bins of f log p with frequencies
    f normalized to total mass 1 across settings. With R the likelihood
    operator sum f/p E, its gradient in A is 2 (R - I) A / tr(A A^H), since
    tr(R rho) = sum f = 1. Each iteration takes the L-BFGS direction and
    backtracks from step 1 until the Armijo condition holds; a failed
    backtrack stays put and drops the history. Starts from A = I / d^2, the
    maximally mixed state, and with no history the first step is one RrhoR
    step. Stops when the log-likelihood gain has been below `tolerance` on
    two consecutive iterations (converged) or after `max_iterations`
    iterations (not converged). `log_likelihood` holds the start and each
    iteration's value; the last one is that of the returned `rho`.
    `likelihood_gap` is one eigvalsh of R at the returned `rho`.
    """
    if hist.probabilities.shape != (povm.n_settings, povm.n_bins, povm.n_bins):
        raise ValueError("histogram and POVM settings or bins differ")
    freqs = hist.probabilities / povm.n_settings  # sums to 1 overall
    a, p, ll_trace, iterations, converged = _lbfgs_ascent(povm, freqs, max_iterations, tolerance)
    gap = float(np.linalg.eigvalsh(povm.likelihood_operator(freqs / p))[-1]) - 1.0
    return TomographyResult(_density(a), ll_trace, iterations, converged, gap)


def _lbfgs_ascent(povm: PovmSet, freqs: np.ndarray, max_iterations: int, tolerance: float):
    """The iterations of `mle_reconstruct`: the last factor A, its bin
    probabilities, the log-likelihood trace, the iteration count and
    whether the stopping rule was met. Its L-BFGS history is freed on
    return, before the caller's final R and eigvalsh, which keeps them out
    of the run's peak memory."""
    d2 = (povm.cutoff + 1) ** 2
    observed = freqs > 0
    f_observed = freqs[observed]

    def log_likelihood(a):
        p = np.clip(povm.probabilities(_density(a)), 1e-300, None)
        return float(np.sum(f_observed * np.log(p[observed]))), p

    def gradient(a, p):
        r_mat = povm.likelihood_operator(freqs / p)
        r_mat[np.diag_indices(d2)] -= 1.0
        g = r_mat @ a
        g *= 2.0 / _dot(a, a)
        return g

    a = np.eye(d2, dtype=complex) / d2
    ll, p = log_likelihood(a)
    g = gradient(a, p)
    ll_trace = [ll]
    history: list = []  # (s, y, 1 / <s, y>), oldest first
    scale = _dot(a, a) / 2.0  # makes the first step an RrhoR step
    trial = np.empty_like(a)
    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        direction = _two_loop(g, history, scale)
        slope = _dot(g, direction)
        step = 1.0
        while step >= MIN_STEP:
            np.multiply(direction, step, out=trial)
            trial += a
            ll_trial, p_trial = log_likelihood(trial)
            # Even a direction that rounding made downhill may not lose.
            if ll_trial >= ll + ARMIJO_FRACTION * step * max(slope, 0.0):
                break
            step *= 0.5
        if step >= MIN_STEP:
            # The step and the gradient change take over the arrays of the
            # direction and the old gradient.
            g_trial = gradient(trial, p_trial)
            s_k, y_k = direction, g
            s_k *= step
            y_k -= g_trial
            sy = _dot(s_k, y_k)
            if sy > 0:
                history.append((s_k, y_k, 1.0 / sy))
                del history[:-LBFGS_MEMORY]
                scale = sy / _dot(y_k, y_k)
            a, trial, g, ll, p = trial, a, g_trial, ll_trial, p_trial
        else:
            history.clear()
        ll_trace.append(ll)
        if len(ll_trace) >= 3 and max(np.diff(ll_trace[-3:])) < tolerance:
            converged = True
            break
    return a, p, ll_trace, it, converged


def _density(a: np.ndarray) -> np.ndarray:
    """rho = A A^H / tr(A A^H), Hermitian to the last bit."""
    rho = a @ a.conj().T
    rho += rho.conj().T
    rho /= np.trace(rho).real
    return rho


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Real inner product Re tr(u^H v) of complex matrices as real vectors.
    numpy sums it in one fixed order; a BLAS dot would split it over its
    threads, and the fit would then depend on the BLAS thread count."""
    return float(np.einsum("i,i->", u.reshape(-1).view(float), v.reshape(-1).view(float)))


def _two_loop(g: np.ndarray, history: list, scale: float) -> np.ndarray:
    """L-BFGS two-loop recursion: the inverse-Hessian estimate from
    `history`, with `scale` times the identity as its seed, applied to the
    gradient `g`. Each y is the gradient change old minus new, so for a
    concave objective <s, y> > 0 and the result is an ascent direction."""
    q = g.copy()
    alphas = []
    for s_k, y_k, inv_sy in reversed(history):
        alpha = inv_sy * _dot(s_k, q)
        q -= alpha * y_k
        alphas.append(alpha)
    q *= scale
    for (s_k, y_k, inv_sy), alpha in zip(history, reversed(alphas)):
        q += (alpha - inv_sy * _dot(y_k, q)) * s_k
    return q


def fidelity(rho: np.ndarray, target: TwoModeFockState) -> float:
    """<Psi| rho |Psi> for a pure two-mode target."""
    vec = target.vector()
    if rho.shape != (vec.size, vec.size):
        raise ValueError("density matrix and target state dimensions differ")
    val = float(np.real(vec.conj() @ rho @ vec))
    return min(max(val, 0.0), 1.0)


def multiphoton_mass(rho: np.ndarray) -> float:
    """Total population on basis states |j, k> with j + k > 2 of a
    (d^2, d^2) two-mode density matrix."""
    d = math.isqrt(rho.shape[0])
    diag = np.real(np.diag(rho)).reshape(d, d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return float(np.sum(diag[j + k > 2]))
