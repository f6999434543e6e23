"""The CHSH settings (`CHSH_SETTINGS`, the one place their LO phases are
defined), threshold binning, coincidence statistics, bounded correlations and
CHSH assembly, plus the ideal single-photon reference curve.

The reference is closed form: a single photon split 50:50 gives
E(dtheta, T) = kappa(T) cos(dtheta), exact for every finite T >= 0, and
kappa(T) = `ideal_single_photon_correlation(0, T)`.

Binning rule: outcome 0 when x < -T, outcome 1 when x > T, discard
otherwise, independently per arm; a record survives only if both arms do.

Analysis takes count tables only, one per batch over every threshold of
the scan grid (`threshold_binning`), each drawn whole from its exact cell
masses, coherent and ideal-fock alike. The decoy bounds, correlations and
CHSH scan read those tables, one per intensity label (0 = vacuum, then the
decoy levels) for each setting.

The tables are read as float gains counts / total, and from there on the
chain passes plain (estimate, lower, upper) triples of floats or of arrays
in OUTCOME_PAIRS order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoy import DecoyIntensitySet, bound_statistic, estimate_single_photon_statistic
from .fock import hermite_functions
from .homodyne import Binning, CountTable, MeasurementSettings, cached_rows, upper_tail

OUTCOME_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# CHSH setting combinations in the order they enter S: the (a1, b1) term is
# subtracted (its correlation is negative for the entangled state).
CHSH_COMBOS = ((0, 0), (1, 0), (0, 1), (1, 1))

# LO phases (phi_a, phi_b) per setting pair, chosen so that S is maximal for
# the single-photon state, whose E is proportional to cos(dtheta).
CHSH_SETTINGS = {
    (a, b): MeasurementSettings((0.0, np.pi / 2)[a], (np.pi / 4, -np.pi / 4)[b], a, b)
    for a, b in CHSH_COMBOS
}


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


def threshold_binning(t_grid) -> Binning:
    """Binning of a batch at every threshold of `t_grid` in one table: its
    grid holds the distinct thresholds in increasing order, and its
    `counts[k]` the outcome counts (n00, n01, n10, n11) at `grid[k]`.

    A record survives T exactly when min(|x_a|, |x_b|) > T, and the signs of
    x_a and x_b then pick the outcome pair. So each record falls in one
    cell, its sign quadrant and the number of thresholds below its
    min(|x|), and a reverse cumulative sum turns the cell counts into
    survivors per threshold. Integer sums keep it exact.

    Quadrant (s_a, s_b) survives t with probability P(s_a x_a > t, s_b x_b
    > t), at t in [0, *levels], and a cell's mass is that survival's drop
    from its depth to the next. Given the state phase, a coherent batch's
    arms are independent, so the survival is P(s_a x_a > t) P(s_b x_b > t):
    the upper tail erfc(t - m)/2 of an arm N(m, 1/2) for s = +, the lower
    tail erfc(t + m)/2 for s = -, and each cell's mass is the phase average
    of the drop, so it is non-negative and carries only the rounding of its
    own depth. For |1> the survival is A0 A1 + cos(dtheta) s_a s_b B^2, with
    A0, A1 and B the tails of phi_0^2, phi_1^2 and phi_0 phi_1 over x > t
    (`ideal_single_photon_correlation`): both arms' lower tails are the
    same, except that of phi_0 phi_1, which is odd and flips sign.
    """
    grid = np.asarray(t_grid, dtype=float).ravel()
    if not np.all(grid >= 0):
        raise ValueError("threshold must be non-negative")
    levels = np.sort(grid)
    levels = levels[np.diff(levels, prepend=-1.0) > 0]  # distinct; np.unique imports numpy.ma
    width = len(levels) + 1

    def survivors(cells):
        return np.cumsum(cells.reshape(4, width)[:, ::-1], axis=1)[:, -2::-1].T

    depths = np.append(0.0, levels)
    upper_tails = cached_rows(lambda m: upper_tail(depths - m))

    def masses(m_a, m_b):
        # tails[s, j, k] = P(x < -t_k) for s = 0 and P(x > t_k) for s = 1 at
        # node j, the lower tail from node j + n/2, whose mean is -m[j].
        tails_a, tails_b = map(upper_tails, (m_a, m_b))
        tails_a, tails_b = (np.stack([np.roll(u, len(u) // 2, axis=0), u]) for u in (tails_a, tails_b))
        survival = tails_a[:, None] * tails_b[None, :]
        return -np.diff(survival, append=0.0).mean(axis=2).ravel()

    phi_0, phi_1 = hermite_functions(1, depths)
    a0 = upper_tail(depths)
    sign = np.array([-1.0, 1.0])  # s for s = 0 (x < -t), 1 (x > t)
    a0_a1 = a0 * (a0 + phi_0 * phi_1 / np.sqrt(2.0))  # A1 - A0 = t e^(-t^2) / sqrt(pi)
    cross = np.outer(sign, sign)[:, :, None] * phi_0**4 / 2.0  # s_a s_b B^2, B = e^(-t^2) / sqrt(2 pi)

    def fock(dtheta):
        survival = a0_a1 + np.cos(dtheta) * cross
        # A1 adds a rising term to a falling one, so the rounded survival
        # need not fall: where levels lie within ~1e-15 of each other a drop
        # can round a few ulps below 0, which `multinomial` refuses.
        return np.maximum(-np.diff(survival, append=0.0), 0.0).ravel()

    return Binning(levels, survivors, masses, fock)


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


def ideal_single_photon_correlation(dtheta: float, T: float) -> float:
    """Reference E(dtheta, T) = kappa(T) cos(dtheta) for a true single photon
    split 50:50 (Morin et al., PRL 110, 130401 (2013)), exact for every
    finite T >= 0. Over x > T, psi_0^2, psi_1^2 and psi_0 psi_1 integrate to
    A0 = erfc(T)/2, A1 = A0 + T e^(-T^2)/sqrt(pi) and B = e^(-T^2)/sqrt(2 pi),
    and kappa = B^2 / (A0 A1), written with erfcx so nothing underflows."""
    if not 0 <= T < np.inf:
        raise ValueError("threshold must be non-negative and finite")
    from scipy.special import erfcx

    g = erfcx(T)
    kappa = 2.0 / (np.pi * g * (g + 2.0 * T / np.sqrt(np.pi)))
    return float(kappa * np.cos(dtheta))


def ideal_single_photon_chsh(T: float) -> float:
    """Reference S(T) from the ideal correlation at the four CHSH settings."""
    e = [ideal_single_photon_correlation(s.dtheta, T) for s in CHSH_SETTINGS.values()]
    return chsh_from_correlations(*zip(e, e, e), threshold=float(T)).s_est


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
