import numpy as np
import pytest

from pathent.chsh import (
    CHSH_COMBOS,
    ChshResult,
    bin_coincidences,
    chsh_from_correlations,
    correlation_bounds,
    decoy_coincidence_bounds,
    decoy_correlation,
    ideal_single_photon_chsh,
    ideal_single_photon_correlation,
    scan_threshold,
    threshold_counts,
)
from pathent.decoy import DecoyIntensitySet, bound_interval, estimate_single_photon_statistic
from pathent.config import ExperimentConfig
from pathent.homodyne import CHUNK_SIZE, MeasurementSettings, SampleBatch, grid_index, sample_batch
from pathent.tomography import MleConfig
from scipy.special import erf


class EmptySurvivorError(RuntimeError):
    """All records fell inside the discard window."""


def counts_at(table, T):
    """(n00, n01, n10, n11) of a count table at a threshold of its grid."""
    return tuple(int(n) for n in table.counts[table.grid.tolist().index(T)])


def correlation(counts) -> float:
    """E = (n00 + n11 - n01 - n10) / survivors from the outcome counts
    (n00, n01, n10, n11)."""
    n00, n01, n10, n11 = counts
    surv = n00 + n01 + n10 + n11
    if surv == 0:
        raise EmptySurvivorError("no surviving coincidences at this threshold")
    return (n00 + n11 - n01 - n10) / surv


def make_batch(x_a, x_b):
    return SampleBatch(
        x_a=np.asarray(x_a, dtype=float),
        x_b=np.asarray(x_b, dtype=float),
        settings=MeasurementSettings(0.0, 0.0),
        intensity_label=0,
        seed=0,
        pipeline="equivalent",
    )


class TestBinning:
    def test_four_record_example(self):
        batch = make_batch([-2.0, 2.0, -2.0, 0.5], [-2.0, 2.0, 2.0, -2.0])
        table = threshold_counts(batch, [1.0])
        assert counts_at(table, 1.0) == (1, 1, 0, 1)
        assert table.total - sum(counts_at(table, 1.0)) == 1  # discarded
        assert bin_coincidences(table, 1.0).tolist() == [0.25, 0.25, 0.0, 0.25]

    def test_zero_threshold_keeps_everything(self):
        rng = np.random.default_rng(0)
        batch = make_batch(rng.normal(size=1000), rng.normal(size=1000))
        table = threshold_counts(batch, [0.0])
        assert sum(counts_at(table, 0.0)) == table.total

    def test_survivors_shrink_with_threshold(self):
        rng = np.random.default_rng(1)
        batch = make_batch(rng.normal(size=5000), rng.normal(size=5000))
        grid = (0.0, 0.3, 0.8, 1.5)
        table = threshold_counts(batch, grid)
        prev = None
        for T in grid:
            surv = sum(counts_at(table, T))
            if prev is not None:
                assert surv <= prev
            prev = surv

    def test_vacuum_survival_probability(self):
        batch = sample_batch(0.0, MeasurementSettings(0.0, 0.0), 200_000, seed=17)
        table = threshold_counts(batch, [1.0])
        gains = bin_coincidences(table, 1.0)
        # Per arm P(|x| > T) = 1 - erf(T) for the vacuum; arms independent.
        expect = (1.0 - erf(1.0)) ** 2
        se = np.sqrt(expect * (1 - expect) / table.total)
        assert abs(sum(counts_at(table, 1.0)) / table.total - expect) < 4 * se
        # By symmetry each of the four outcomes carries a quarter of it.
        assert gains[0] == pytest.approx(expect / 4, abs=5 * se)

    def test_negative_threshold_rejected(self):
        batch = make_batch([0.0], [0.0])
        with pytest.raises(ValueError):
            threshold_counts(batch, [-1.0])
        with pytest.raises(ValueError):
            threshold_counts(batch, [0.5, -0.1])
        with pytest.raises(ValueError):
            bin_coincidences(threshold_counts(batch, [0.5]), -0.5)


def reference_counts(x_a, x_b, T):
    """The binning rule applied directly, one mask per arm and outcome."""
    lo_a, hi_a = x_a < -T, x_a > T
    lo_b, hi_b = x_b < -T, x_b > T
    return tuple(
        int(np.count_nonzero(a & b)) for a, b in ((lo_a, lo_b), (lo_a, hi_b), (hi_a, lo_b), (hi_a, hi_b))
    )


# Unsorted, with a duplicate and a value at 0.
ADVERSARIAL_GRID = [0.5, 0.0, 1.25, 0.5, 0.02]


def adversarial_values(grid):
    """Values exactly at and one ulp either side of each +-T, signed zeros,
    infinities and NaN."""
    out = [0.0, -0.0, np.inf, -np.inf, np.nan]
    for t in grid:
        for v in (t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)):
            out += [v, -v]
    return np.array(out)


class TestThresholdCounts:
    def check_against_reference(self, x_a, x_b, grid):
        batch = make_batch(x_a, x_b)
        table = threshold_counts(batch, grid)
        assert len(table) == len(x_a)
        assert table.grid.tolist() == sorted(set(grid))
        for T in grid:
            expect = reference_counts(batch.x_a, batch.x_b, T)
            assert counts_at(table, T) == expect
            assert counts_at(threshold_counts(batch, [T]), T) == expect
            assert bin_coincidences(table, T).tolist() == [n / len(x_a) for n in expect]

    def test_adversarial_records(self):
        values = adversarial_values(ADVERSARIAL_GRID)
        x_a, x_b = (v.ravel() for v in np.meshgrid(values, values))
        self.check_against_reference(x_a, x_b, ADVERSARIAL_GRID)

    def test_nan_in_either_arm_is_discarded(self):
        x_a = np.array([np.nan, 3.0, np.nan, -3.0])
        x_b = np.array([3.0, np.nan, np.nan, -3.0])
        table = threshold_counts(make_batch(x_a, x_b), [0.0, 1.0])
        for T in (0.0, 1.0):
            assert counts_at(table, T) == (1, 0, 0, 0)
            assert table.total - sum(counts_at(table, T)) == 3

    def test_length_not_a_multiple_of_the_chunk(self):
        rng = np.random.default_rng(4)
        n = 2 * CHUNK_SIZE + 123
        specials = adversarial_values(ADVERSARIAL_GRID)
        x_a = np.where(rng.random(n) < 0.2, rng.choice(specials, n), rng.normal(size=n))
        x_b = np.where(rng.random(n) < 0.2, rng.choice(specials, n), rng.normal(size=n))
        self.check_against_reference(x_a, x_b, ADVERSARIAL_GRID)

    def test_every_level_of_the_default_grid(self):
        grid = ExperimentConfig().t_grid()  # levels such as 0.06000000000000001
        rng = np.random.default_rng(6)
        specials = adversarial_values(grid)
        n = 4000
        x_a = np.concatenate([specials, rng.choice(specials, n), rng.normal(size=n)])
        x_b = np.concatenate([rng.permutation(specials), rng.normal(size=n), rng.choice(specials, n)])
        self.check_against_reference(x_a, x_b, grid)

    def test_empty_grid_and_threshold_off_grid(self):
        batch = make_batch([1.0, -2.0], [2.0, -1.0])
        assert threshold_counts(batch, []).counts.shape == (0, 4)
        table = threshold_counts(batch, [0.5])
        with pytest.raises(ValueError):
            bin_coincidences(table, 0.25)
        with pytest.raises(ValueError):
            bin_coincidences(table, np.nan)
        with pytest.raises(ZeroDivisionError):  # no records, so no gains
            bin_coincidences(threshold_counts(make_batch([], []), [0.5]), 0.5)


GRIDS = {
    "default_thresholds": ExperimentConfig().t_grid(),
    "adversarial": sorted(ADVERSARIAL_GRID),
    "default_bin_edges": MleConfig().bin_edges(),
    "single_level": [0.5],
    "empty": [],
    "tiny_gaps": [0.0, 1e-12, 2e-12, 1.0],
    "far_from_zero": 1e6 + 0.02 * np.arange(101),
    "cluster_then_sparse": np.concatenate([np.linspace(0.0, 1e-3, 40), np.linspace(1.0, 50.0, 10)]),
    "span_past_1e308": [-1e308, 0.0, 1e308],
}


class TestGridIndex:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("name", GRIDS)
    def test_equals_searchsorted(self, name, side):
        levels = np.asarray(GRIDS[name], dtype=float)
        specials = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]
        rng = np.random.default_rng(5)
        x = [levels, np.nextafter(levels, np.inf), np.nextafter(levels, -np.inf), specials]
        x.append(rng.normal(size=5000) + (levels[0] if levels.size else 0.0))
        if levels.size > 1:  # uniform over the grid and a tenth beyond it, and midpoints
            u = rng.uniform(-0.1, 1.1, 20_000)
            x += [levels[0] * (1 - u) + levels[-1] * u, levels[:-1] / 2 + levels[1:] / 2]
        x = np.concatenate(x)
        index = grid_index(levels, side)
        np.testing.assert_array_equal(index(x), np.searchsorted(levels, x, side))
        assert index(np.array([np.nan, np.nan])).tolist() == [0, 0]

    def test_rejects_unsorted_or_non_finite_levels(self):
        for levels in ([1.0, 0.0], [0.0, np.nan], [0.0, np.inf]):
            with pytest.raises(ValueError):
                grid_index(levels)


class TestCorrelation:
    def test_perfect_agreement(self):
        assert correlation((5, 0, 0, 5)) == 1.0

    def test_perfect_anticorrelation(self):
        assert correlation((0, 5, 5, 0)) == -1.0

    def test_balanced(self):
        assert correlation((2, 2, 2, 2)) == 0.0

    def test_empty_survivors(self):
        with pytest.raises(EmptySurvivorError):
            correlation((0, 0, 0, 0))


class TestCorrelationBounds:
    def b(self, est, width):
        """(estimate, lower, upper) boxes [est - width, est] per outcome."""
        est = np.asarray(est, dtype=float)
        return est, est - np.asarray(width, dtype=float), est

    def test_degenerate_widths_give_point(self):
        e_est, e_lower, e_upper = correlation_bounds(*self.b([0.3, 0.1, 0.1, 0.3], 0))
        assert e_lower == pytest.approx(e_est)
        assert e_upper == pytest.approx(e_est)
        assert e_est == pytest.approx((0.3 + 0.3 - 0.2) / 0.8)

    def test_interval_contains_estimate(self):
        e_est, e_lower, e_upper = correlation_bounds(*self.b([0.01, 0.33, 0.33, 0.01], 0.001))
        assert e_lower <= e_est <= e_upper
        assert e_est < -0.5  # strongly negative regime

    def test_clamped_to_physical_range(self):
        _, e_lower, e_upper = correlation_bounds(*self.b([0.5, 0.0, 0.0, 0.5], [0.4, 0.0, 0.0, 0.4]))
        assert e_upper <= 1.0
        assert e_lower >= -1.0

    def test_true_value_contained_under_perturbation(self):
        # The bounds must contain E for any true P in the per-outcome boxes.
        rng = np.random.default_rng(8)
        for _ in range(200):
            est = rng.uniform(0.02, 0.3, 4)
            width = rng.uniform(0.0, 0.01, 4)
            boxes = self.b(est, width)
            _, e_lower, e_upper = correlation_bounds(*boxes)
            truth = np.array([rng.uniform(lo, hi) for lo, hi in zip(boxes[1], boxes[2])])
            e_true = (truth[0] + truth[3] - truth[1] - truth[2]) / truth.sum()
            assert e_lower - 1e-12 <= e_true <= e_upper + 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            correlation_bounds(*self.b(np.zeros(4), 0))


class TestChshAssembly:
    def pt(self, e):
        return e, e, e

    def test_tsirelson_combination(self):
        c = 1.0 / np.sqrt(2.0)
        res = chsh_from_correlations(self.pt(c), self.pt(c), self.pt(c), self.pt(-c))
        assert res.s_est == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_uncorrelated_gives_zero(self):
        res = chsh_from_correlations(*[self.pt(0.0)] * 4)
        assert res.s_est == 0.0

    def test_interval_widths_add(self):
        bounds = [(0.5, 0.45, 0.55)] * 3 + [(-0.5, -0.55, -0.45)]
        res = chsh_from_correlations(*bounds)
        assert res.s_upper - res.s_lower == pytest.approx(0.4, abs=1e-12)
        assert res.s_lower <= res.s_est <= res.s_upper

    def test_result_validation(self):
        with pytest.raises(ValueError):
            ChshResult(0.0, 5.0, 4.9, 5.1)  # |S| > 4
        with pytest.raises(ValueError):
            ChshResult(0.0, 2.0, 2.5, 3.0)  # estimate outside bounds


class TestIdealCurve:
    def test_unthresholded_correlation_is_two_over_pi(self):
        assert ideal_single_photon_correlation(0.0, 0.0) == pytest.approx(
            2.0 / np.pi, abs=1e-9
        )

    def test_vanishes_at_quarter_turn(self):
        assert ideal_single_photon_correlation(np.pi / 2, 0.5) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_antisymmetric_under_half_turn(self):
        for T in (0.0, 0.5, 1.0):
            e = ideal_single_photon_correlation(0.7, T)
            assert ideal_single_photon_correlation(0.7 + np.pi, T) == pytest.approx(
                -e, abs=1e-10
            )

    def test_cosine_dependence(self):
        T = 0.82
        k = ideal_single_photon_correlation(0.0, T)
        for dt in (0.3, 1.1, 2.0):
            assert ideal_single_photon_correlation(dt, T) == pytest.approx(
                k * np.cos(dt), abs=1e-9
            )

    def test_chsh_values(self):
        assert ideal_single_photon_chsh(0.0) == pytest.approx(
            2.0 * np.sqrt(2.0) * 2.0 / np.pi, abs=1e-9
        )
        assert ideal_single_photon_chsh(0.82) == pytest.approx(2.6526, abs=2e-4)

    def test_chsh_monotone_and_violating(self):
        grid = np.arange(0.25, 1.5001, 0.05)
        vals = [ideal_single_photon_chsh(T) for T in grid]
        assert all(v > 2.0 for v in vals)
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestMonteCarloAgreement:
    def test_fock_batches_match_oracle(self):
        T = 0.5
        count = 100_000
        s_est = 0.0
        var = 0.0
        for idx, (la, lb) in enumerate(CHSH_COMBOS):
            settings = MeasurementSettings.chsh(la, lb)
            batch = sample_batch(
                0.0, settings, count, pipeline="ideal-fock", seed=300 + idx, fock_n=1
            )
            counts = counts_at(threshold_counts(batch, [T]), T)
            e = correlation(counts)
            var += (1.0 - e * e) / sum(counts)
            s_est += -e if idx == 3 else e
        se = np.sqrt(var)
        assert abs(s_est - ideal_single_photon_chsh(T)) < 4 * se


class TestDecoyPipeline:
    def setup_method(self):
        self.iset = DecoyIntensitySet((0.0872, 0.2314, 0.9840))

    def make_batches(self, settings, seed):
        out = [sample_batch(0.0, settings, 400_000, seed=seed)]
        for j, mu in enumerate(self.iset.intensities, start=1):
            out.append(sample_batch(mu, settings, 100_000, seed=seed + j))
        return out

    def make_tables(self, settings, seed, grid):
        return [threshold_counts(batch, grid) for batch in self.make_batches(settings, seed)]

    def test_coincidence_bounds_contain_estimates(self):
        settings = MeasurementSettings.chsh(0, 0)
        bounds = decoy_coincidence_bounds(self.make_tables(settings, 50, [0.8]), self.iset, 0.8)
        for estimate, lower, upper in zip(*bounds):
            assert lower <= max(min(estimate, 1.0), 0.0) <= upper + 1e-12
            assert 0.0 <= lower <= upper <= 1.0

    def test_correlation_sign_tracks_dtheta(self):
        near = decoy_correlation(
            self.make_tables(MeasurementSettings.chsh(0, 0), 60, [0.8]), self.iset, 0.8
        )
        far = decoy_correlation(
            self.make_tables(MeasurementSettings.chsh(1, 1), 70, [0.8]), self.iset, 0.8
        )
        assert near[0] > 0.2
        assert far[0] < -0.2

    def test_scan_marks_hopeless_threshold_invalid(self):
        tables = {}
        for combo in CHSH_COMBOS:
            settings = MeasurementSettings.chsh(*combo)
            batches = [sample_batch(0.0, settings, 2000, seed=80)]
            for j, mu in enumerate(self.iset.intensities, start=1):
                batches.append(sample_batch(mu, settings, 2000, seed=81 + j))
            tables[combo] = [threshold_counts(batch, [0.5, 9.0]) for batch in batches]
        results = scan_threshold(tables, self.iset, [0.5, 9.0])
        assert results[0].valid
        assert not results[1].valid

    def test_scan_same_on_full_and_one_value_grids(self):
        grid = [0.6, 0.0, 0.3, 0.6, 9.0]
        batches = {
            combo: self.make_batches(MeasurementSettings.chsh(*combo), 90 + 10 * idx)
            for idx, combo in enumerate(CHSH_COMBOS)
        }

        def tables_over(t_grid):
            return {
                combo: [threshold_counts(batch, t_grid) for batch in by_label]
                for combo, by_label in batches.items()
            }

        tables = tables_over(grid)
        from_tables = scan_threshold(tables, self.iset, grid)
        # Each threshold on its own, binned through a one-value grid.
        assert from_tables == [scan_threshold(tables_over([T]), self.iset, [T])[0] for T in grid]
        assert [r.valid for r in from_tables] == [True, True, True, True, False]
        with pytest.raises(ValueError):
            scan_threshold(tables, self.iset, [0.45])

    def test_scan_rejects_missing_batches(self):
        with pytest.raises(ValueError):
            scan_threshold({}, self.iset, [0.5])
        with pytest.raises(ValueError):  # every setting, but no label
            scan_threshold({combo: [] for combo in CHSH_COMBOS}, self.iset, [0.5])


def scalar_coincidence_bounds(tables, iset, T):
    """The decoy coincidence bounds one Python float at a time: integer
    counts to gains, one estimate per outcome, then the parity rule clamped
    by min/max. Per outcome in OUTCOME_PAIRS order, (estimate, lower, upper)."""
    gains = [[int(n) / table.total for n in counts_at(table, T)] for table in tables]
    delta = bound_interval(iset)
    out = []
    for i in range(4):
        est = estimate_single_photon_statistic([g[i] for g in gains], iset)
        lower, upper = (est - delta, est) if iset.num_levels % 2 == 1 else (est, est + delta)
        out.append((est, min(max(lower, 0.0), 1.0), min(max(upper, 0.0), 1.0)))
    return out


def scalar_correlation(tables, iset, T):
    """Box-corner bounds (e_est, e_lower, e_upper) on E from the scalar
    coincidence bounds, summed in the order P00 + P11 + P01 + P10."""
    (p00, l00, u00), (p01, l01, u01), (p10, l10, u10), (p11, l11, u11) = (
        scalar_coincidence_bounds(tables, iset, T)
    )
    den = p00 + p11 + p01 + p10
    if den == 0:
        raise ZeroDivisionError
    e = min(max((p00 + p11 - p01 - p10) / den, -1.0), 1.0)
    a_lo, a_hi = l00 + l11, u00 + u11
    b_lo, b_hi = l01 + l10, u01 + u10
    if a_hi + b_lo == 0 or a_lo + b_hi == 0:
        raise ZeroDivisionError
    e_upper = (a_hi - b_lo) / (a_hi + b_lo)
    e_lower = (a_lo - b_hi) / (a_lo + b_hi)
    return min(max(e, e_lower), e_upper), e_lower, e_upper


def scalar_scan(tables, iset, t_grid):
    """(T, s_est, s_lower, s_upper) per threshold, or (T, None) where a
    denominator is zero."""
    rows = []
    for T in t_grid:
        try:
            e = [scalar_correlation(tables[combo], iset, T) for combo in CHSH_COMBOS]
        except ZeroDivisionError:
            rows.append((T, None))
            continue
        s_est = e[0][0] + e[1][0] + e[2][0] - e[3][0]
        s_lower = e[0][1] + e[1][1] + e[2][1] - e[3][2]
        s_upper = e[0][2] + e[1][2] + e[2][2] - e[3][1]
        rows.append((T, s_est, s_lower, s_upper))
    return rows


class TestScalarReference:
    """The float-array chain gives the scalar chain's floats, bit for bit."""

    @pytest.mark.parametrize("mus", [(0.0872, 0.2314, 0.9840), (0.1, 0.5)])
    def test_chain_equals_scalar_reference(self, mus):
        iset = DecoyIntensitySet(mus)
        grid = np.append(ExperimentConfig().t_grid(), [2.5, 3.0, 9.0])
        tables = {}
        for idx, combo in enumerate(CHSH_COMBOS):
            settings = MeasurementSettings.chsh(*combo)
            batches = [sample_batch(0.0, settings, 20_000, seed=500 + 10 * idx)]
            for j, mu in enumerate(iset.intensities, start=1):
                batches.append(sample_batch(mu, settings, 5_000, seed=500 + 10 * idx + j))
            tables[combo] = [threshold_counts(batch, grid) for batch in batches]

        expect = scalar_scan(tables, iset, grid)
        got = [
            (r.threshold, r.s_est, r.s_lower, r.s_upper) if r.valid else (r.threshold, None)
            for r in scan_threshold(tables, iset, grid)
        ]
        assert got == expect
        valid = [row for row in expect if row[1] is not None]
        assert 10 < len(valid) < len(grid)  # both kinds of threshold occur
        for T, *_ in valid[::10]:
            for combo in CHSH_COMBOS:
                by_label = tables[combo]
                assert decoy_correlation(by_label, iset, T) == scalar_correlation(by_label, iset, T)
                bounds = [tuple(b) for b in zip(*decoy_coincidence_bounds(by_label, iset, T))]
                assert bounds == scalar_coincidence_bounds(by_label, iset, T)
