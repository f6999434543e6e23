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

The tables are read as float gains counts / total, and from there on the
chain passes plain (estimate, lower, upper) triples of floats or of arrays
in OUTCOME_PAIRS order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decoy import DecoyIntensitySet, bound_statistic, estimate_single_photon_statistic
from .homodyne import (
    CountTable,
    MeasurementSettings,
    SampleBatch,
    chunked_bincount,
    grid_index,
    joint_pdf_fock,
)

OUTCOME_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# CHSH setting combinations in the order they enter S: the (a1, b1) term is
# subtracted (its correlation is negative for the entangled state).
CHSH_COMBOS = ((0, 0), (1, 0), (0, 1), (1, 1))


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


def threshold_counts(batch: SampleBatch, t_grid) -> CountTable:
    """Bin `batch` at every threshold of `t_grid` in one pass: the table's
    grid holds the distinct thresholds in increasing order, and its
    `counts[k]` the outcome counts (n00, n01, n10, n11) at `grid[k]`.

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
    return CountTable(levels, survivors.T, len(batch))


def bin_coincidences(table: CountTable, T: float) -> np.ndarray:
    """Coincidence gains (P00, P01, P10, P11) = counts / total at threshold
    T, from a table built over a grid that contains T. These are the
    unconditional probabilities the decoy estimator takes."""
    k = int(np.searchsorted(table.grid, T))
    if k == len(table.grid) or table.grid[k] != T:
        raise ValueError(f"threshold {T!r} is not on this table's grid")
    # Checked here because an array divided by 0 gives inf instead of raising.
    if table.total == 0:
        raise ZeroDivisionError("no records in this table")
    return table.counts[k] / table.total


def correlation_bounds(estimate, lower, upper) -> tuple:
    """Exact interval bounds (e_est, e_lower, e_upper) on E = (A - B) / (A + B)
    with A = P00 + P11 and B = P01 + P10, from the four probabilities'
    estimates and bounds in OUTCOME_PAIRS order. E is increasing in A and
    decreasing in B on A, B >= 0, so the extremes sit at the box corners
    (A high, B low) and (A low, B high). The resulting interval always
    contains the point estimate and is already inside [-1, 1].

    The zero checks raise ZeroDivisionError, which numpy scalars do not;
    `scan_threshold` marks a threshold invalid on it."""
    p00, p01, p10, p11 = estimate
    den_est = p00 + p11 + p01 + p10
    if den_est == 0:
        raise ZeroDivisionError("all coincidence probability estimates are zero")
    e_est = (p00 + p11 - p01 - p10) / den_est
    e_est = min(max(e_est, -1.0), 1.0)

    a_lo, a_hi = lower[0] + lower[3], upper[0] + upper[3]
    b_lo, b_hi = lower[1] + lower[2], upper[1] + upper[2]
    if a_hi + b_lo == 0 or a_lo + b_hi == 0:
        raise ZeroDivisionError("zero denominator in correlation bound")
    e_upper = (a_hi - b_lo) / (a_hi + b_lo)
    e_lower = (a_lo - b_hi) / (a_lo + b_hi)
    # A raw estimate built from out-of-box (clamped) probabilities can stray
    # outside the rigorous interval; snap it back in.
    e_est = min(max(e_est, e_lower), e_upper)
    return e_est, e_lower, e_upper


def chsh_from_correlations(e00, e10, e01, e11, threshold: float = 0.0) -> ChshResult:
    """S = E(a0,b0) + E(a1,b0) + E(a0,b1) - E(a1,b1) from four
    (e_est, e_lower, e_upper) triples; the subtracted term keeps its own
    lower bound in S^+ (it is expected negative, so the bounds do not flip
    there)."""
    e_est, e_lower, e_upper = zip(e00, e10, e01, e11)
    s_est = e_est[0] + e_est[1] + e_est[2] - e_est[3]
    s_upper = e_upper[0] + e_upper[1] + e_upper[2] - e_lower[3]
    s_lower = e_lower[0] + e_lower[1] + e_lower[2] - e_upper[3]
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
    total = 0.0
    for idx, (la, lb) in enumerate(CHSH_COMBOS):
        e = ideal_single_photon_correlation(MeasurementSettings.chsh(la, lb).dtheta, T)
        total += -e if idx == 3 else e
    return total


def decoy_coincidence_bounds(tables: list, intensity_set: DecoyIntensitySet, T: float) -> tuple:
    """Decoy-bounded single-photon coincidence probabilities at threshold T,
    as (estimate, lower, upper) arrays in OUTCOME_PAIRS order.

    `tables[j]` is the count table of one fixed setting at intensity label j
    (0 = vacuum, 1..L = decoy levels in increasing order).
    """
    gains = [bin_coincidences(table, T) for table in tables]
    # One estimate per outcome, from that outcome's gain at every label.
    estimate = np.array([estimate_single_photon_statistic(g, intensity_set) for g in zip(*gains)])
    return bound_statistic(estimate, intensity_set)


def decoy_correlation(tables: list, intensity_set: DecoyIntensitySet, T: float) -> tuple:
    """(e_est, e_lower, e_upper) of one setting at threshold T."""
    return correlation_bounds(*decoy_coincidence_bounds(tables, intensity_set, T))


def scan_threshold(
    tables: dict,
    intensity_set: DecoyIntensitySet,
    t_grid,
) -> list[ChshResult]:
    """Full decoy CHSH pipeline per threshold.

    `tables` maps each CHSH setting pair (label_a, label_b) to its count
    tables covering `t_grid`, indexed by intensity label 0..L.
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
