import math

import numpy as np
import pytest

from pathent.decoy import (
    DecoyIntensitySet,
    bound_interval,
    bound_statistic,
    estimate_single_photon_statistic,
    exact_gains,
)

NOMINAL_INTENSITIES = (0.0872, 0.2314, 0.9840)


def gains_from_yields(yields, intensity_set):
    return [exact_gains(yields, mu) for mu in (0.0, *intensity_set.intensities)]


class TestIntensitySet:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecoyIntensitySet(())
        with pytest.raises(ValueError):
            DecoyIntensitySet((0.0, 0.5))
        with pytest.raises(ValueError):
            DecoyIntensitySet((0.5, 0.5))
        with pytest.raises(ValueError):
            DecoyIntensitySet((0.9, 0.1))

    def test_single_level_closed_form(self):
        # L = 1: estimate = (e^mu Q_mu - Q_0) / mu
        mu = 0.3
        w, w0 = DecoyIntensitySet((mu,)).estimator_coefficients
        assert w[0] == pytest.approx(math.exp(mu) / mu, abs=1e-12)
        assert w0 == pytest.approx(-1.0 / mu, abs=1e-12)

    def test_coefficients_computed_once_and_read_only(self):
        iset = DecoyIntensitySet(NOMINAL_INTENSITIES)
        w, w0 = iset.estimator_coefficients
        assert iset.estimator_coefficients[0] is w
        with pytest.raises(ValueError):
            w[0] = 1.0
        fresh, fresh_w0 = DecoyIntensitySet(NOMINAL_INTENSITIES).estimator_coefficients
        assert fresh is not w
        assert fresh.tolist() == w.tolist() and fresh_w0 == w0


class TestEstimator:
    def test_exact_when_no_multiphoton(self):
        iset = DecoyIntensitySet(NOMINAL_INTENSITIES)
        yields = np.zeros(41)
        yields[0], yields[1] = 0.13, 0.77
        est = estimate_single_photon_statistic(gains_from_yields(yields, iset), iset)
        assert est == pytest.approx(0.77, abs=1e-12)

    def test_linear_in_gains(self):
        iset = DecoyIntensitySet(NOMINAL_INTENSITIES)
        rng = np.random.default_rng(5)
        y1 = rng.uniform(0, 1, 30)
        y2 = rng.uniform(0, 1, 30)
        g1 = gains_from_yields(y1, iset)
        g2 = gains_from_yields(y2, iset)
        mixed = [0.3 * a + 0.7 * b for a, b in zip(g1, g2)]
        lhs = estimate_single_photon_statistic(mixed, iset)
        rhs = 0.3 * estimate_single_photon_statistic(
            g1, iset
        ) + 0.7 * estimate_single_photon_statistic(g2, iset)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_broadcasts_over_arrays(self):
        iset = DecoyIntensitySet(NOMINAL_INTENSITIES)
        yields = np.zeros((41, 4))
        yields[1] = [0.2, 0.4, 0.6, 0.8]
        gains = [exact_gains(yields, mu) for mu in (0.0, *iset.intensities)]
        est = estimate_single_photon_statistic(gains, iset)
        assert np.allclose(est, [0.2, 0.4, 0.6, 0.8], atol=1e-12)

    def test_rejects_mismatched_gain_vector(self):
        iset = DecoyIntensitySet(NOMINAL_INTENSITIES)
        with pytest.raises(ValueError):
            estimate_single_photon_statistic([0.0, 0.1, 0.2], iset)


class TestBoundInterval:
    def test_single_level_closed_form(self):
        mu = 0.1
        expected = (math.exp(mu) - 1.0) / mu - 1.0
        assert bound_interval(DecoyIntensitySet((mu,))) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.05170918, abs=1e-7)

    def test_nominal_intensity_regression(self):
        delta = bound_interval(DecoyIntensitySet(NOMINAL_INTENSITIES))
        # Reference computed at 40-digit precision: 0.00108652183049779...
        assert delta == pytest.approx(0.0010865218304977949, abs=1e-11)

    def test_shrinks_with_more_levels(self):
        d1 = bound_interval(DecoyIntensitySet((0.0872,)))
        d2 = bound_interval(DecoyIntensitySet((0.0872, 0.2314)))
        d3 = bound_interval(DecoyIntensitySet(NOMINAL_INTENSITIES))
        assert d1 > d2 > d3 > 0

    def test_saturating_sequence_attains_bound(self):
        # Y_1 = 0 and Y_n = 1 for all n != 1 produces exactly the worst case.
        for mus in [(0.1,), (0.1, 0.5), NOMINAL_INTENSITIES]:
            iset = DecoyIntensitySet(mus)
            yields = np.ones(60)
            yields[1] = 0.0
            est = estimate_single_photon_statistic(gains_from_yields(yields, iset), iset)
            sign = 1.0 if iset.num_levels % 2 == 1 else -1.0
            assert sign * est == pytest.approx(bound_interval(iset), abs=1e-9)

    @pytest.mark.parametrize("mus", [(0.1,), (0.1, 0.5), NOMINAL_INTENSITIES])
    def test_cached_per_set_with_the_same_bits(self, mus):
        iset = DecoyIntensitySet(mus)
        w, w0 = iset.estimator_coefficients
        sign = -1.0 if iset.num_levels % 2 == 0 else 1.0
        expected = max(sign * (float(np.sum(w) + w0) - 1.0), 0.0)
        assert bound_interval(iset) == expected
        assert iset.__dict__["_delta"] == expected  # kept on the set, not recomputed

    def test_negative_interval_is_a_fault(self):
        iset = DecoyIntensitySet(NOMINAL_INTENSITIES)
        iset.__dict__["estimator_coefficients"] = (np.zeros(3), -1.0)  # corrupt weights
        for _ in range(2):  # raised on every call, never cached
            with pytest.raises(ArithmeticError):
                bound_interval(iset)


class TestBoundStatistic:
    def test_parity_of_interval_side(self):
        _, lower, upper = bound_statistic(0.5, DecoyIntensitySet(NOMINAL_INTENSITIES))
        assert upper == 0.5  # L = 3: estimate is the upper bound
        assert lower == pytest.approx(0.5 - bound_interval(DecoyIntensitySet(NOMINAL_INTENSITIES)))
        _, lower, upper = bound_statistic(0.5, DecoyIntensitySet((0.1, 0.5)))
        assert lower == 0.5  # L = 2: estimate is the lower bound
        assert upper > 0.5

    def test_probability_clamp(self):
        iset = DecoyIntensitySet(NOMINAL_INTENSITIES)
        estimate, lower, _ = bound_statistic(1e-5, iset)
        assert lower == 0.0  # raw lower would be negative
        assert estimate == pytest.approx(1e-5)
        estimate, lower, upper = bound_statistic(-0.002, iset)
        assert lower == upper == 0.0
        assert estimate == pytest.approx(-0.002)  # raw estimate preserved

    @pytest.mark.parametrize("mus", [NOMINAL_INTENSITIES, (0.1, 0.5)])
    def test_broadcasts_like_scalars(self, mus):
        iset = DecoyIntensitySet(mus)
        values = [-0.002, 0.0, 1e-5, 0.5, 1.0, 1.003]
        estimate, lower, upper = bound_statistic(np.array(values), iset)
        assert estimate.tolist() == values
        for v, lo, hi in zip(values, lower, upper):
            assert bound_statistic(v, iset)[1:] == (lo, hi)
            assert 0.0 <= lo <= hi <= 1.0


class TestContainment:
    @pytest.mark.parametrize("mus", [NOMINAL_INTENSITIES, (0.1, 0.5)])
    def test_random_yield_sequences(self, mus):
        iset = DecoyIntensitySet(mus)
        delta = bound_interval(iset)
        rng = np.random.default_rng(2024)
        yields = rng.uniform(0.0, 1.0, size=(41, 1000))
        gains = [exact_gains(yields, mu) for mu in (0.0, *mus)]
        est = estimate_single_photon_statistic(gains, iset)
        true = yields[1]
        if iset.num_levels % 2 == 1:
            assert np.all(true <= est + 1e-10)
            assert np.all(true >= est - delta - 1e-10)
        else:
            assert np.all(true >= est - 1e-10)
            assert np.all(true <= est + delta + 1e-10)
