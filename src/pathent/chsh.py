"""Threshold binning, coincidence statistics, bounded correlations and
CHSH assembly, plus the ideal single-photon reference curve.

Binning rule: outcome 0 when x < -T, outcome 1 when x > T, discard
otherwise, independently per arm; a record survives only if both arms do.

Analysis takes count tables only: each batch is reduced once, right after it
is sampled, to its coincidence counts at every threshold of the scan grid
(`threshold_counts`), and the decoy bounds, correlations and CHSH scan read
those tables, one per intensity label (0 = vacuum, then the decoy levels)
for each setting. A record's place in the grid comes from an exact lattice
lookup (`homodyne.grid_index`), not a binary search per record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decoy import (
    BoundedEstimate,
    DecoyIntensitySet,
    bound_statistic,
    estimate_single_photon_statistic,
)
from .homodyne import SampleBatch, chunked_bincount, grid_index, joint_pdf_fock

OUTCOME_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# CHSH setting combinations in the order they enter S: the (a1, b1) term is
# subtracted (its correlation is negative for the entangled state).
CHSH_COMBOS = ((0, 0), (1, 0), (0, 1), (1, 1))


class EmptySurvivorError(RuntimeError):
    """All records fell inside the discard window."""


@dataclass(frozen=True)
class CoincidenceCounts:
    n00: int
    n01: int
    n10: int
    n11: int
    n_discarded: int
    total: int

    def __post_init__(self):
        if self.n00 + self.n01 + self.n10 + self.n11 + self.n_discarded != self.total:
            raise ValueError("coincidence counts do not add up to total")

    @property
    def survivors(self) -> int:
        return self.total - self.n_discarded

    def probabilities(self) -> dict:
        """Unconditional coincidence probabilities P_ij = n_ij / total
        (these are the gains fed to the decoy estimator)."""
        return {
            (0, 0): self.n00 / self.total,
            (0, 1): self.n01 / self.total,
            (1, 0): self.n10 / self.total,
            (1, 1): self.n11 / self.total,
        }


@dataclass(frozen=True)
class CorrelationBound:
    e_est: float
    e_lower: float
    e_upper: float

    def __post_init__(self):
        if not (self.e_lower - 1e-12 <= self.e_est <= self.e_upper + 1e-12):
            raise ValueError("correlation estimate outside its bounds")


@dataclass(frozen=True)
class ChshResult:
    threshold: float
    s_est: float
    s_lower: float
    s_upper: float
    valid: bool = True

    def __post_init__(self):
        if self.valid:
            if not (self.s_lower - 1e-12 <= self.s_est <= self.s_upper + 1e-12):
                raise ValueError("S estimate outside its bounds")
            if abs(self.s_est) > 4.0 + 1e-12:
                raise ValueError("|S| exceeds algebraic maximum 4")


@dataclass(frozen=True, eq=False)
class ThresholdCounts:
    """Coincidence counts of one batch at every threshold of a grid.

    `counts[k]` holds (n00, n01, n10, n11) at threshold `thresholds[k]`; the
    thresholds are sorted and distinct. This is all the threshold scan needs
    of a batch, so the raw samples can be dropped once it is built.
    """

    thresholds: np.ndarray
    counts: np.ndarray
    total: int

    def __len__(self) -> int:
        return self.total

    def at(self, T: float) -> CoincidenceCounts:
        k = int(np.searchsorted(self.thresholds, T))
        if k == len(self.thresholds) or self.thresholds[k] != T:
            raise ValueError(f"threshold {T!r} is not on this table's grid")
        n00, n01, n10, n11 = (int(n) for n in self.counts[k])
        return CoincidenceCounts(
            n00, n01, n10, n11, self.total - n00 - n01 - n10 - n11, self.total
        )


def threshold_counts(batch: SampleBatch, t_grid) -> ThresholdCounts:
    """Bin `batch` at every threshold of `t_grid` in one pass.

    A record survives T exactly when min(|x_a|, |x_b|) > T, and the signs of
    x_a and x_b then pick the outcome pair. So each record is counted once,
    under its sign quadrant and the number of thresholds below its min(|x|)
    (an exact lattice lookup, `homodyne.grid_index`; a NaN in either arm
    survives none), and a reverse cumulative sum turns those counts into
    survivors per threshold. Integer sums keep it exact.
    """
    grid = np.asarray(t_grid, dtype=float).ravel()
    if not np.all(grid >= 0):
        raise ValueError("threshold must be non-negative")
    levels = np.unique(grid)
    width = len(levels) + 1
    depth_index = grid_index(levels)

    def key(x_a, x_b):
        k = depth_index(np.minimum(np.abs(x_a), np.abs(x_b)))
        k += width * (2 * (x_a > 0) + (x_b > 0))
        return k

    hist = chunked_bincount(batch, key, 4 * width)
    survivors = np.cumsum(hist.reshape(4, width)[:, ::-1], axis=1)[:, -2::-1]
    return ThresholdCounts(levels, survivors.T, len(batch))


def bin_coincidences(table: ThresholdCounts, T: float) -> CoincidenceCounts:
    """Counts at threshold T, looked up in a table built over a grid that
    contains T."""
    return table.at(T)


def correlation(counts: CoincidenceCounts) -> float:
    surv = counts.n00 + counts.n01 + counts.n10 + counts.n11
    if surv == 0:
        raise EmptySurvivorError("no surviving coincidences at this threshold")
    return (counts.n00 + counts.n11 - counts.n01 - counts.n10) / surv


def correlation_bounds(
    p00: BoundedEstimate,
    p01: BoundedEstimate,
    p10: BoundedEstimate,
    p11: BoundedEstimate,
) -> CorrelationBound:
    """Exact interval bounds on E = (A - B) / (A + B) with A = P00 + P11 and
    B = P01 + P10: E is increasing in A and decreasing in B on A, B >= 0, so
    the extremes sit at the box corners (A high, B low) and (A low, B high).
    The resulting interval always contains the point estimate and is already
    inside [-1, 1]."""
    den_est = p00.estimate + p11.estimate + p01.estimate + p10.estimate
    if den_est == 0:
        raise ZeroDivisionError("all coincidence probability estimates are zero")
    e_est = (p00.estimate + p11.estimate - p01.estimate - p10.estimate) / den_est
    e_est = min(max(e_est, -1.0), 1.0)

    a_lo, a_hi = p00.lower + p11.lower, p00.upper + p11.upper
    b_lo, b_hi = p01.lower + p10.lower, p01.upper + p10.upper
    if a_hi + b_lo == 0 or a_lo + b_hi == 0:
        raise ZeroDivisionError("zero denominator in correlation bound")
    e_upper = (a_hi - b_lo) / (a_hi + b_lo)
    e_lower = (a_lo - b_hi) / (a_lo + b_hi)
    # A raw estimate built from out-of-box (clamped) probabilities can stray
    # outside the rigorous interval; snap it back in.
    e_est = min(max(e_est, e_lower), e_upper)
    return CorrelationBound(e_est=e_est, e_lower=e_lower, e_upper=e_upper)


def chsh_from_correlations(
    e00: CorrelationBound,
    e10: CorrelationBound,
    e01: CorrelationBound,
    e11: CorrelationBound,
    threshold: float = 0.0,
) -> ChshResult:
    """S = E(a0,b0) + E(a1,b0) + E(a0,b1) - E(a1,b1); the subtracted term
    keeps its own lower bound in S^+ (it is expected negative, so the bounds
    do not flip there)."""
    s_est = e00.e_est + e10.e_est + e01.e_est - e11.e_est
    s_upper = e00.e_upper + e10.e_upper + e01.e_upper - e11.e_lower
    s_lower = e00.e_lower + e10.e_lower + e01.e_lower - e11.e_upper
    return ChshResult(threshold, s_est, s_lower, s_upper)


@lru_cache(maxsize=4096)
def _quadrant_probs_single_photon(T: float):
    """2-D Gauss-Legendre integrals of the n=1 joint pdf over the four
    quadrant windows, split into the dtheta-independent and cos(dtheta)
    pieces (the pdf is p0 + p_c * cos dtheta with both pieces factorizable,
    but we integrate the full 2-D grid as an independent route)."""
    x_max = 10.0
    order = 160
    nodes, weights = np.polynomial.legendre.leggauss(order)
    # Map to [T, x_max] (the x > T window); mirror symmetry covers x < -T.
    half = 0.5 * (x_max - T)
    xs = T + half * (nodes + 1.0)
    ws = half * weights
    # pdf(xa, xb, dth) = base(xa, xb) + cross(xa, xb) cos(dth)
    xa = xs[:, None]
    xb = xs[None, :]
    p_at_0 = joint_pdf_fock(1, xa, xb, 0.0)
    p_at_pi = joint_pdf_fock(1, xa, xb, np.pi)
    w2 = ws[:, None] * ws[None, :]
    base = float(np.sum(w2 * 0.5 * (p_at_0 + p_at_pi)))
    cross = float(np.sum(w2 * 0.5 * (p_at_0 - p_at_pi)))
    return base, cross


def ideal_single_photon_correlation(dtheta: float, T: float) -> float:
    """Reference E(dtheta, T) for a true single-photon input, by numerical
    quadrature of the exact joint density over the quadrant windows."""
    if T < 0:
        raise ValueError("threshold must be non-negative")
    base, cross = _quadrant_probs_single_photon(float(T))
    c = np.cos(dtheta)
    # Same-sign quadrants pick +cross, opposite-sign quadrants -cross
    # (mirroring one axis flips the odd interference term).
    p_same = base + cross * c
    p_opp = base - cross * c
    den = 2.0 * (p_same + p_opp)
    if den <= 0:
        raise ArithmeticError("quadrature produced non-positive total mass")
    return float(2.0 * (p_same - p_opp) / den)


def ideal_single_photon_chsh(T: float) -> float:
    """Reference S(T) assembled from the ideal correlation at the four
    CHSH phase combinations."""
    from .homodyne import MeasurementSettings

    total = 0.0
    for idx, (la, lb) in enumerate(CHSH_COMBOS):
        e = ideal_single_photon_correlation(MeasurementSettings.chsh(la, lb).dtheta, T)
        total += -e if idx == 3 else e
    return total


def decoy_coincidence_bounds(
    tables: list, intensity_set: DecoyIntensitySet, T: float
) -> dict:
    """Per-outcome decoy-bounded single-photon coincidence probabilities.

    `tables[j]` is the ThresholdCounts of one fixed setting at intensity
    label j (0 = vacuum, 1..L = decoy levels in increasing order).
    """
    probs = [bin_coincidences(table, T).probabilities() for table in tables]
    out = {}
    for pair in OUTCOME_PAIRS:
        est = estimate_single_photon_statistic([p[pair] for p in probs], intensity_set)
        out[pair] = bound_statistic(est, intensity_set, probability=True)
    return out


def decoy_correlation(
    tables: list, intensity_set: DecoyIntensitySet, T: float
) -> CorrelationBound:
    p = decoy_coincidence_bounds(tables, intensity_set, T)
    return correlation_bounds(p[(0, 0)], p[(0, 1)], p[(1, 0)], p[(1, 1)])


def scan_threshold(
    tables: dict,
    intensity_set: DecoyIntensitySet,
    t_grid,
) -> list[ChshResult]:
    """Full decoy CHSH pipeline per threshold.

    `tables` maps each CHSH setting pair (label_a, label_b) to its
    ThresholdCounts covering `t_grid`, indexed by intensity label 0..L.
    Thresholds where any setting loses all survivors are marked invalid
    rather than NaN.
    """
    if any(len(tables.get(combo, ())) != intensity_set.num_levels + 1 for combo in CHSH_COMBOS):
        raise ValueError(f"need one table per intensity label for each setting of {CHSH_COMBOS}")
    results = []
    for T in t_grid:
        try:
            bounds = [decoy_correlation(tables[combo], intensity_set, T) for combo in CHSH_COMBOS]
        except ZeroDivisionError:
            results.append(ChshResult(float(T), 0.0, 0.0, 0.0, valid=False))
            continue
        results.append(chsh_from_correlations(*bounds, threshold=float(T)))
    return results
