import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import ks_2samp, poisson

from pathent.homodyne import MeasurementSettings, sample_batch
from pathent.states import (
    NoiseModel,
    bell_state,
    compensated_intensity,
)

from helpers import records, splitter_output


def poisson_weights(mu: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Poisson photon-number weights up to `cutoff`, plus the truncation tail.

    weights[n] = mu^n e^(-mu) / n!; tail = P(N > cutoff).
    """
    if mu < 0:
        raise ValueError("intensity must be non-negative")
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    n = np.arange(cutoff + 1)
    return poisson.pmf(n, mu), float(poisson.sf(cutoff, mu))


def loss_on_coherent(mu: float, eta: float) -> float:
    """Loss only attenuates a coherent state's intensity: mu -> mu * eta."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError("transmittance must be in [0, 1]")
    if mu < 0:
        raise ValueError("intensity must be non-negative")
    return mu * eta


@dataclass(frozen=True)
class PhaseRandomizedSource:
    """Phase-randomized coherent source of mean photon number mu."""

    mu: float

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("intensity must be non-negative")

    def fock_weights(self, cutoff: int):
        return poisson_weights(self.mu, cutoff)


def electronic_noise_equivalent(v_e: float) -> tuple[float, float]:
    """Loss-equivalent reduction of additive electronic noise.

    A raw sample m = x + g with g ~ Normal(0, v_e/2), rescaled by
    sqrt(eta_ele), is distributed exactly as the signal after a beam-splitter
    loss eta_ele = 1/(1 + v_e) followed by an ideal detector (variance
    matching: eta(V + v_e/2) = eta V + (1 - eta)/2 at eta = 1/(1+v_e)).

    Returns (eta_ele, rescale factor sqrt(eta_ele)).
    """
    eta_ele = 1.0 / (1.0 + v_e)
    return eta_ele, float(np.sqrt(eta_ele))


class TestNoiseModel:
    def test_eta_ele(self):
        assert NoiseModel(1.0, 0.0).eta_ele == 1.0
        assert NoiseModel(1.0, 1.0).eta_ele == pytest.approx(0.5)
        assert NoiseModel(1.0, 2.0 / 3.0).eta_ele == pytest.approx(0.6)

    def test_eta_tot(self):
        nm = NoiseModel(0.617, 2.0 / 3.0)
        assert nm.eta_tot == pytest.approx(0.617 * 0.6)

    def test_eta_ele_decreasing_in_noise(self):
        vals = [NoiseModel(1.0, v).eta_ele for v in (0.0, 0.1, 0.5, 1.0, 3.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0, 0.0)
        with pytest.raises(ValueError):
            NoiseModel(1.2, 0.0)
        with pytest.raises(ValueError):
            NoiseModel(1.0, -0.1)


class TestPoissonWeights:
    def test_small_intensity(self):
        w, _ = poisson_weights(0.2314, 5)
        assert w[0] == pytest.approx(math.exp(-0.2314), abs=1e-14)
        assert w[1] == pytest.approx(0.2314 * math.exp(-0.2314), abs=1e-14)
        assert w[1] == pytest.approx(0.183598, abs=1e-6)

    def test_vacuum(self):
        w, tail = poisson_weights(0.0, 3)
        assert w[0] == 1.0
        assert np.all(w[1:] == 0.0)
        assert tail == 0.0

    @pytest.mark.parametrize("mu", [0.05, 0.984, 2.658, 7.3])
    def test_weights_plus_tail_is_one(self, mu):
        for cutoff in (0, 1, 5, 20):
            w, tail = poisson_weights(mu, cutoff)
            assert w.sum() + tail == pytest.approx(1.0, abs=1e-13)

    def test_source_wrapper(self):
        src = PhaseRandomizedSource(0.5)
        w, tail = src.fock_weights(4)
        w2, tail2 = poisson_weights(0.5, 4)
        assert np.array_equal(w, w2) and tail == tail2
        with pytest.raises(ValueError):
            PhaseRandomizedSource(-0.1)


def brute_force_splitter(n):
    """Expand (a_dag + b_dag)^n / sqrt(2^n n!) |00> by operator algebra."""
    amps = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        # binomial term C(n,k) a_dag^k b_dag^(n-k) acting on |00>:
        # a_dag^k |0> = sqrt(k!) |k>
        amps[k, n - k] = (
            math.comb(n, k)
            * math.sqrt(math.factorial(k))
            * math.sqrt(math.factorial(n - k))
            / math.sqrt(2.0**n * math.factorial(n))
        )
    return amps


class TestSplitter:
    def test_vacuum_passthrough(self):
        st = splitter_output(0, 2)
        assert st[0, 0] == 1.0

    def test_single_photon_is_bell_state(self):
        st = splitter_output(1, 1)
        assert np.allclose(st.reshape(-1), bell_state(1))
        assert st[0, 1] == pytest.approx(1.0 / math.sqrt(2.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_operator_algebra(self, n):
        st = splitter_output(n, n)
        assert np.allclose(st.real, brute_force_splitter(n), atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_unit_norm_and_support(self, n):
        st = splitter_output(n, n + 2)
        assert np.sum(np.abs(st) ** 2) == pytest.approx(1.0, abs=1e-13)
        j, k = np.nonzero(np.abs(st) > 0)
        assert np.all(j + k == n)

    def test_rejects_above_cutoff(self):
        with pytest.raises(ValueError):
            splitter_output(3, 2)


class TestBellState:
    def test_vector_layout(self):
        # Index (j, k) -> j * (cutoff + 1) + k.
        for cutoff in (1, 3):
            vec, d = bell_state(cutoff), cutoff + 1
            assert vec.shape == (d * d,)
            assert vec[0 * d + 1] == pytest.approx(1.0 / math.sqrt(2.0))  # |01>
            assert vec[1 * d + 0] == pytest.approx(1.0 / math.sqrt(2.0))  # |10>
            assert np.sum(np.abs(vec) ** 2) == pytest.approx(1.0, abs=1e-15)


class TestLossEquivalence:
    def test_loss_on_coherent(self):
        assert loss_on_coherent(1.0, 0.617) == pytest.approx(0.617)
        assert loss_on_coherent(0.0, 0.3) == 0.0
        with pytest.raises(ValueError):
            loss_on_coherent(1.0, 1.5)

    def test_electronic_equivalent_values(self):
        eta, scale = electronic_noise_equivalent(1.0)
        assert eta == pytest.approx(0.5)
        assert scale == pytest.approx(math.sqrt(0.5))
        eta, _ = electronic_noise_equivalent(2.0 / 3.0)
        assert eta == pytest.approx(0.6)

    def test_variance_matching_identity(self):
        # eta (V + v_e/2) == eta V + (1 - eta)/2 at the vacuum variance V = 1/2
        for v_e in (0.1, 0.5, 1.0, 3.0):
            eta, _ = electronic_noise_equivalent(v_e)
            assert eta * (0.5 + v_e / 2.0) == pytest.approx(
                eta * 0.5 + (1 - eta) / 2.0, abs=1e-14
            )

    def test_distribution_equivalence_ks(self):
        """Additive noise + rescale vs. equivalent loss: same distribution."""
        noise = NoiseModel(eta_pd=1.0, v_e=1.0)
        settings = MeasurementSettings(phi_a=0.3, phi_b=1.1)
        phys_a, phys_b = records(sample_batch(0.8, settings, 60_000, noise, "physical", seed=5))
        equiv_a, equiv_b = records(sample_batch(0.8, settings, 60_000, noise, "equivalent", seed=6))
        assert ks_2samp(phys_a, equiv_a).pvalue > 1e-3
        assert ks_2samp(phys_b, equiv_b).pvalue > 1e-3

    def test_compensated_round_trip(self):
        noise = NoiseModel(0.617, 2.0 / 3.0)
        for mu in (0.0872, 0.984, 2.658):
            comp = compensated_intensity(mu, noise)
            assert loss_on_coherent(comp, noise.eta_tot) == pytest.approx(mu, abs=1e-14)
