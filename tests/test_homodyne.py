import dataclasses
import io
import itertools
import json
import math
import os
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import chi2, kstest, ks_2samp, norm

import pathent.homodyne as hm
from pathent.chsh import CHSH_SETTINGS, ideal_single_photon_correlation, threshold_binning
from pathent.config import ExperimentConfig
from pathent.homodyne import (
    CHUNK_SIZE,
    MeasurementSettings,
    SampleBatch,
    sample_batch,
)
from pathent.states import IDEAL_NOISE, NoiseModel
from pathent.tomography import histogram_binning

from helpers import joint_pdf_fock, records, reference_cells, splitter_output


def reference_chunk(mu, settings, noise, pipeline, seed, chunk, size):
    """One chunk by the plain formula: a uniform theta (also for the
    vacuum), then `rng.normal` with an array mean per arm, then the physical
    pipeline's electronic noise and rescale. `sample_batch` must match its
    bits."""
    rng = hm._chunk_rng(seed, chunk)
    theta = rng.uniform(0.0, 2.0 * np.pi, size)
    eta = noise.eta_tot if pipeline == "equivalent" else noise.eta_pd
    arms = []
    for phi in (settings.phi_a, settings.phi_b):
        raw = rng.normal(np.sqrt(mu * eta) * np.cos(theta - phi), np.sqrt(0.5))
        if pipeline == "physical":
            if noise.v_e > 0:
                raw = raw + rng.normal(0.0, np.sqrt(noise.v_e / 2.0), size=raw.shape)
            raw = np.sqrt(noise.eta_ele) * raw
        arms.append(raw)
    return arms


def cell_count(kind, grid):
    """The number of cells of `kind`'s binning over `grid`: four sign
    quadrants by depth for thresholds, and the cells of [-inf, *edges, inf]
    per arm for a histogram."""
    return 4 * (len(grid) + 1) if kind == "threshold" else (len(grid) + 1) ** 2


def raw_cells(binning):
    """`binning` with its cell counts kept as they are, so a table's
    `counts` are the batch's counts per cell."""
    return dataclasses.replace(binning, finish=lambda cells: cells)


def assert_same_table(got, expect):
    assert np.array_equal(got.grid, expect.grid)
    assert np.array_equal(got.counts, expect.counts)
    assert got.total == expect.total


def pdf_integral(n, dtheta):
    """2-D Gauss-Legendre integral of the joint density over the plane."""
    nodes, weights = np.polynomial.legendre.leggauss(120)
    half = 8.0
    x = half * nodes
    w = half * weights
    vals = joint_pdf_fock(n, x[:, None], x[None, :], dtheta)
    return float(np.sum(w[:, None] * w[None, :] * vals))


def sample_coherent_pair(mu, theta, settings, noise, pipeline, rng):
    """Single (x_a, x_b) draw for coherent state sqrt(mu) e^(i theta)."""
    th = np.asarray([theta], dtype=float)
    xa, xb = np.empty(1), np.empty(1)
    hm._coherent_arm(xa, mu, th, settings.phi_a, noise, pipeline, rng)
    hm._coherent_arm(xb, mu, th, settings.phi_b, noise, pipeline, rng)
    return float(xa[0]), float(xb[0])


class TestSettings:
    def test_chsh_phase_table(self):
        assert CHSH_SETTINGS[(0, 0)].phi_a == 0.0
        assert CHSH_SETTINGS[(1, 0)].phi_a == pytest.approx(np.pi / 2)
        assert CHSH_SETTINGS[(0, 0)].phi_b == pytest.approx(np.pi / 4)
        assert CHSH_SETTINGS[(0, 1)].phi_b == pytest.approx(-np.pi / 4)

    def test_chsh_dthetas(self):
        # Three settings at |dtheta| = pi/4 and the subtracted one at 3pi/4.
        assert abs(CHSH_SETTINGS[(0, 0)].dtheta) == pytest.approx(np.pi / 4)
        assert abs(CHSH_SETTINGS[(1, 0)].dtheta) == pytest.approx(np.pi / 4)
        assert abs(CHSH_SETTINGS[(0, 1)].dtheta) == pytest.approx(np.pi / 4)
        assert abs(CHSH_SETTINGS[(1, 1)].dtheta) == pytest.approx(3 * np.pi / 4)

    def test_settings_are_the_four_label_pairs(self):
        assert list(CHSH_SETTINGS) == [(0, 0), (1, 0), (0, 1), (1, 1)]
        for (a, b), settings in CHSH_SETTINGS.items():
            assert (settings.label_a, settings.label_b) == (a, b)


class TestCoherentSampling:
    def test_mean_at_aligned_phase(self):
        rng = np.random.default_rng(0)
        settings = MeasurementSettings(phi_a=0.7, phi_b=0.7)
        xs = np.array(
            [
                sample_coherent_pair(4.0, 0.7, settings, IDEAL_NOISE, "equivalent", rng)[0]
                for _ in range(20_000)
            ]
        )
        # mean sqrt(2 mu / 2) = sqrt(mu) ... here sqrt(mu * eta) with eta = 1
        assert xs.mean() == pytest.approx(2.0, abs=0.02)
        assert xs.var() == pytest.approx(0.5, abs=0.02)

    def test_mean_vanishes_at_quadrature_phase(self):
        rng = np.random.default_rng(1)
        settings = MeasurementSettings(phi_a=np.pi / 2, phi_b=0.0)
        xs = np.array(
            [
                sample_coherent_pair(1.0, 0.0, settings, IDEAL_NOISE, "equivalent", rng)[0]
                for _ in range(20_000)
            ]
        )
        assert abs(xs.mean()) < 0.02

    def test_vacuum_marginals(self):
        x_a, x_b = records(sample_batch(0.0, MeasurementSettings(0.0, 0.0), 200_000, seed=7))
        assert kstest(x_a, norm(scale=np.sqrt(0.5)).cdf).pvalue > 1e-3
        assert 0.49 < x_b.var() < 0.51

    def test_phase_randomized_variance(self):
        # var = 1/2 + mu * eta_tot / 2 once the phase is averaged out.
        noise = NoiseModel(0.617, 2.0 / 3.0)
        mu = 0.984
        batch = sample_batch(mu, MeasurementSettings(0.0, 0.0), 400_000, noise, seed=3)
        expect = 0.5 + mu * noise.eta_tot / 2.0
        assert records(batch)[0].var() == pytest.approx(expect, rel=0.01)

    def test_pipeline_equivalence_ks(self):
        noise = NoiseModel(0.617, 2.0 / 3.0)
        settings = MeasurementSettings(0.0, np.pi / 4)
        for mu in (0.0, 0.984):
            bp = records(sample_batch(mu, settings, 50_000, noise, "physical", seed=11))
            be = records(sample_batch(mu, settings, 50_000, noise, "equivalent", seed=22))
            assert ks_2samp(bp[0], be[0]).pvalue > 1e-3
            assert ks_2samp(bp[1], be[1]).pvalue > 1e-3


class TestDeterminism:
    @pytest.mark.parametrize("pipeline", ["equivalent", "physical"])
    @pytest.mark.parametrize("v_e", [0.0, 2.0 / 3.0])
    @pytest.mark.parametrize("mu", [0.0, 0.0872])
    def test_bits_match_reference_chunks(self, pipeline, v_e, mu):
        noise = NoiseModel(0.617, v_e)
        settings = CHSH_SETTINGS[(1, 0)]
        for count in (1, CHUNK_SIZE, CHUNK_SIZE + 1):
            starts = range(0, count, CHUNK_SIZE)
            chunks = [
                reference_chunk(
                    mu, settings, noise, pipeline, 5, i, min(CHUNK_SIZE, count - start)
                )
                for i, start in enumerate(starts)
            ]
            expect_a = np.concatenate([a for a, _ in chunks]).view(np.int64)
            expect_b = np.concatenate([b for _, b in chunks]).view(np.int64)
            for workers in (1, 2):
                batch = sample_batch(
                    mu, settings, count, noise, pipeline, seed=5, workers=workers
                )
                x_a, x_b = records(batch)
                assert np.array_equal(x_a.view(np.int64), expect_a)
                assert np.array_equal(x_b.view(np.int64), expect_b)

    def test_same_seed_identical(self):
        kwargs = dict(
            mu=0.5,
            settings=MeasurementSettings(0.1, 0.2),
            count=150_000,
            seed=42,
        )
        b1 = records(sample_batch(**kwargs))
        b2 = records(sample_batch(**kwargs))
        assert np.array_equal(b1[0], b2[0])
        assert np.array_equal(b1[1], b2[1])

    def test_workers_do_not_change_output(self):
        kwargs = dict(
            mu=0.5,
            settings=MeasurementSettings(0.1, 0.2),
            count=300_000,
            seed=42,
        )
        b1 = records(sample_batch(workers=1, **kwargs))
        b4 = records(sample_batch(workers=4, **kwargs))
        assert np.array_equal(b1[0], b4[0])
        assert np.array_equal(b1[1], b4[1])

    def test_fock_pipeline_deterministic(self):
        kwargs = dict(
            mu=0.0,
            settings=MeasurementSettings(0.3, 0.0),
            count=70_000,
            pipeline="ideal-fock",
            seed=9,
        )
        b1 = records(sample_batch(**kwargs))
        b2 = records(sample_batch(workers=3, **kwargs))
        assert np.array_equal(b1[0], b2[0])

    def test_different_seeds_differ(self):
        settings = MeasurementSettings(0.0, 0.0)
        b1 = records(sample_batch(0.5, settings, 1000, seed=1))
        b2 = records(sample_batch(0.5, settings, 1000, seed=2))
        assert not np.array_equal(b1[0], b2[0])


class TestBinnedSampling:
    BINNINGS = {
        "threshold": threshold_binning(ExperimentConfig().t_grid()),
        "histogram": histogram_binning(ExperimentConfig().bin_edges()),
    }

    # ideal-fock samples |1> and reads neither mu nor v_e.
    @pytest.mark.parametrize(
        "pipeline, mu, v_e",
        [
            *itertools.product(("equivalent", "physical"), (0.0, 0.984), (0.0, 2.0 / 3.0)),
            ("ideal-fock", 0.0, 0.0),
        ],
    )
    @pytest.mark.parametrize("count", [1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE + 5])
    def test_binned_equals_stored(self, pipeline, mu, v_e, count):
        """A binned batch is one multinomial draw over the exact cell masses,
        not the binning of the stored records (TestVacuumTables,
        TestFockTables): it must still hold `count` records and be the same
        table on every call and at every worker count."""
        kwargs = dict(
            mu=mu,
            settings=CHSH_SETTINGS[(0, 1)],
            count=count,
            noise=NoiseModel(0.617, v_e),
            pipeline=pipeline,
            seed=31,
        )
        for binning in self.BINNINGS.values():
            assert sample_batch(**kwargs, binning=raw_cells(binning)).counts.sum() == count
            expect = sample_batch(**kwargs, binning=binning)
            for workers in (1, 2, 3):
                assert_same_table(sample_batch(**kwargs, workers=workers, binning=binning), expect)

    def test_binned_call_draws_no_record(self, monkeypatch):
        """Every pipeline's binned batch is drawn as a table, never through
        the chunk loop that draws records."""

        def refuse(batch):
            raise AssertionError("a binned batch drew records")

        monkeypatch.setattr(SampleBatch, "chunks", refuse)
        count = 2 * CHUNK_SIZE + 7  # three chunks
        settings, noise = MeasurementSettings(0.1, 0.2), NoiseModel(0.617, 2.0 / 3.0)
        for pipeline, binning in itertools.product(hm.PIPELINES, self.BINNINGS.values()):
            assert sample_batch(0.5, settings, count, noise, pipeline, 3, binning=binning).total == count

    def test_no_call_starts_a_thread(self, monkeypatch):
        """Every pipeline, unbinned or under either binning, is drawn on the
        calling thread whatever `workers` asks for."""

        def refuse(thread):
            raise AssertionError("sample_batch started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for pipeline, binning in itertools.product(hm.PIPELINES, (None, *self.BINNINGS.values())):
            kwargs = dict(
                mu=0.5,
                settings=MeasurementSettings(0.1, 0.2),
                count=2 * CHUNK_SIZE + 7,  # three chunks
                noise=NoiseModel(0.617, 2.0 / 3.0),
                pipeline=pipeline,
                seed=3,
                binning=binning,
            )
            one = sample_batch(workers=1, **kwargs)
            many = sample_batch(workers=64, **kwargs)
            if binning is None:  # its reader draws it
                one, many = records(one), records(many)
                assert np.array_equal(one[0], many[0]) and np.array_equal(one[1], many[1])
            else:
                assert_same_table(many, one)

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("binning", [None, "threshold"])
    def test_rejects_bad_intensity(self, mu, binning):
        with pytest.raises(ValueError, match="intensity must be non-negative and finite"):
            sample_batch(mu, MeasurementSettings(0.0, 0.0), 10, binning=self.BINNINGS.get(binning))


def normal_mass(lo, hi, mean):
    """P(lo < x < hi) for x ~ N(mean, 1/2), elementwise, from scipy's normal
    distribution: differences of upper tails above the mean, of lower tails
    below it, so that neither loses a small tail to cancellation."""
    lo, hi = (np.sqrt(2.0) * (np.asarray(v, dtype=float) - mean) for v in (lo, hi))
    return np.where(lo >= 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


def node_masses(binning, mu, settings, noise, nodes):
    """`binning.masses` over `nodes` equally weighted state phases."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    m_a, m_b = (np.sqrt(mu * noise.eta_tot) * np.cos(theta - phi) for phi in (settings.phi_a, settings.phi_b))
    return binning.masses(m_a, m_b)


class TestVacuumTables:
    """A binned coherent batch, the vacuum (mu = 0) among them, is a
    multinomial draw over `hm.coherent_masses`. Each case is an intensity
    (the vacuum and two decoy levels) at the CHSH phases or at a tomography
    pair (dtheta/2, -dtheta/2), one on the default dtheta grid and one off
    the phase nodes."""

    NOISE = NoiseModel(0.617, 2.0 / 3.0)
    SETTINGS = [
        *CHSH_SETTINGS.values(),
        MeasurementSettings(3 * np.pi / 8, -3 * np.pi / 8),
        MeasurementSettings(0.3, -0.3),
    ]
    CASES = list(itertools.product((0.0, 0.0872, 0.984), SETTINGS))
    T_GRIDS = {
        "default": ExperimentConfig().t_grid(),
        "repeated-unsorted": [1.5, 0.3, 2.0, 0.3, 0.0, 4.0, 1.5, 0.82],
    }
    EDGES = {
        "default": ExperimentConfig().bin_edges(),
        "coarse": np.linspace(-3.0, 3.0, 7),
    }

    def check_against_phase_quadrature(self, binning, masses_at):
        """`coherent_masses` against an adaptive quadrature over the state
        phase of `masses_at(m_a, m_b)`, the masses given the arms' means."""
        for mu, settings in self.CASES:
            amplitude = np.sqrt(mu * self.NOISE.eta_tot)
            phases = (settings.phi_a, settings.phi_b)
            expected, _ = integrate.quad_vec(
                lambda th: masses_at(*(amplitude * np.cos(th - phi) for phi in phases)),
                0.0, 2.0 * np.pi, epsabs=1e-14, epsrel=0.0, norm="max",
            )
            got = hm.coherent_masses(binning, mu, settings, self.NOISE)
            np.testing.assert_allclose(
                got, expected / (2.0 * np.pi), rtol=0.0, atol=1e-12, err_msg=f"mu {mu}, {settings}"
            )

    @pytest.mark.parametrize("grid", T_GRIDS.values(), ids=T_GRIDS.keys())
    def test_threshold_masses_match_quadrature(self, grid):
        """Quadrant (s_a, s_b), cell 2 (s_a > 0) + (s_b > 0), at depth (a, b],
        min(|x_a|, |x_b|) in (a, b], holds P(s_a x_a > a) P(s_b x_b > a)
        - P(s_a x_a > b) P(s_b x_b > b) given the phase."""
        binning = threshold_binning(grid)
        depths = np.concatenate(([0.0], binning.grid, [np.inf]))

        def masses_at(m_a, m_b):
            out = []
            for s_a, s_b in itertools.product((-1.0, 1.0), repeat=2):
                # P(s x > t) for x ~ N(m, 1/2) is P(y > t) for y ~ N(s m, 1/2).
                survival = normal_mass(depths, np.inf, s_a * m_a) * normal_mass(depths, np.inf, s_b * m_b)
                out.append(survival[:-1] - survival[1:])
            return np.concatenate(out)

        self.check_against_phase_quadrature(binning, masses_at)

    @pytest.mark.parametrize("edges", EDGES.values(), ids=EDGES.keys())
    def test_histogram_masses_match_quadrature(self, edges):
        """Cell (i, j) holds arm a in cell i and arm b in cell j of
        [-inf, *edges, inf], the arms independent given the phase."""
        binning = histogram_binning(edges)
        bounds = np.concatenate(([-np.inf], edges, [np.inf]))

        def masses_at(m_a, m_b):
            arm_a, arm_b = (normal_mass(bounds[:-1], bounds[1:], m) for m in (m_a, m_b))
            return np.outer(arm_a, arm_b).ravel()

        self.check_against_phase_quadrature(binning, masses_at)

    @pytest.mark.parametrize("kind", ["threshold", "histogram"])
    def test_masses_are_a_converged_distribution(self, kind):
        """Non-negative masses summing to 1, which doubling the phase nodes
        does not move."""
        binning = TestBinnedSampling.BINNINGS[kind]
        for mu, settings in self.CASES:
            masses = hm.coherent_masses(binning, mu, settings, self.NOISE)
            assert masses.shape == (cell_count(kind, binning.grid),) and np.all(masses >= 0.0)
            assert abs(masses.sum() - 1.0) <= 1e-14
            finer = node_masses(binning, mu, settings, self.NOISE, 2 * hm.PHASE_NODES)
            np.testing.assert_allclose(masses, finer, rtol=0.0, atol=1e-15, err_msg=f"mu {mu}, {settings}")

    @pytest.mark.parametrize("kind", ["threshold", "histogram"])
    def test_cached_rows_give_the_uncached_masses_bit_for_bit(self, kind):
        """Each binning computes a distinct node mean's row once; every case,
        twice over so the second pass reads only cached rows, must equal the
        masses from every node's row computed afresh."""
        if kind == "threshold":
            binning = threshold_binning(ExperimentConfig().t_grid())
            depths = np.append(0.0, binning.grid)

            def uncached(m_a, m_b):
                tails = [hm.upper_tail(depths - m[:, None]) for m in (m_a, m_b)]
                tails_a, tails_b = (np.stack([np.roll(u, len(u) // 2, axis=0), u]) for u in tails)
                survival = tails_a[:, None] * tails_b[None, :]
                return -np.diff(survival, append=0.0).mean(axis=2).ravel()
        else:
            edges = ExperimentConfig().bin_edges()
            binning = histogram_binning(edges)

            def uncached(m_a, m_b):
                arms = [np.diff(hm.upper_tail(m[:, None] - edges), prepend=0.0, append=1.0) for m in (m_a, m_b)]
                return (arms[0].T @ arms[1]).ravel() / len(m_a)

        theta = np.arange(hm.PHASE_NODES) * (2.0 * np.pi / hm.PHASE_NODES)
        for mu, settings in self.CASES * 2:
            amplitude = np.sqrt(mu * self.NOISE.eta_tot)
            m_a, m_b = (amplitude * np.cos(theta - phi) for phi in (settings.phi_a, settings.phi_b))
            got = hm.coherent_masses(binning, mu, settings, self.NOISE)
            assert np.array_equal(got, uncached(m_a, m_b)), f"mu {mu}, {settings}"

    # ideal-fock samples |1> and reads neither mu nor v_e.
    @pytest.mark.parametrize(
        "pipeline, v_e",
        [*itertools.product(("equivalent", "physical"), (0.0, 2.0 / 3.0)), ("ideal-fock", 0.0)],
    )
    @pytest.mark.parametrize("kind", ["threshold", "histogram"])
    def test_table_matches_binned_records(self, kind, pipeline, v_e):
        """Pearson chi^2 test that a drawn table and the reference binning of
        the same batch's records come from one distribution: sum (a - b)^2 /
        (a + b) over the cells, two samples of equal size. Cells expected to
        hold fewer than 5 records are pooled into one cell."""
        count = 1_000_000
        binning = raw_cells(TestBinnedSampling.BINNINGS[kind])
        settings = CHSH_SETTINGS[(1, 0)] if kind == "threshold" else self.SETTINGS[-2]
        noise = NoiseModel(0.617, v_e)
        for mu in (0.0,) if pipeline == "ideal-fock" else (0.0, 0.0872, 0.984):
            kwargs = dict(mu=mu, settings=settings, count=count, noise=noise, pipeline=pipeline)
            kwargs.update(seed=47, workers=2)
            drawn = sample_batch(**kwargs, binning=binning).counts
            binned = reference_cells(kind, binning.grid, *records(sample_batch(**kwargs)))
            if pipeline == "ideal-fock":
                masses = binning.fock(settings.dtheta)
            else:
                masses = hm.coherent_masses(binning, mu, settings, noise)
            keep = count * masses >= 5.0
            a = np.append(drawn[keep], drawn[~keep].sum())
            b = np.append(binned[keep], binned[~keep].sum())
            stat = float(np.sum((a - b) ** 2 / (a + b)))
            assert chi2.sf(stat, keep.sum()) > 1e-3, f"mu {mu}: chi2 {stat:.0f} on {keep.sum()} dof"


class TestJointPdf:
    def test_vacuum_at_origin(self):
        assert joint_pdf_fock(0, 0.0, 0.0, 0.0) == pytest.approx(1.0 / np.pi, abs=1e-12)

    def test_single_photon_zero_at_origin(self):
        assert joint_pdf_fock(1, 0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n,dtheta", [(0, 0.0), (1, 0.0), (1, np.pi / 4), (2, np.pi / 2)])
    def test_normalized(self, n, dtheta):
        assert pdf_integral(n, dtheta) == pytest.approx(1.0, abs=1e-8)

    def test_periodic_in_dtheta(self):
        xa = np.linspace(-2, 2, 7)
        xb = np.linspace(-2, 2, 7)
        a = joint_pdf_fock(1, xa[:, None], xb[None, :], 0.9)
        b = joint_pdf_fock(1, xa[:, None], xb[None, :], 0.9 + 2 * np.pi)
        assert np.allclose(a, b, atol=1e-12)

    def test_marginal_is_fock_mixture(self):
        # Marginal over x_b: sum_k |c_k|^2 |psi_k(x_a)|^2 for the splitter amps.
        from pathent.fock import hermite_functions

        n = 2
        xa = np.array([0.3, 1.1, -0.7])
        marg = np.zeros_like(xa)
        for x_idx, x in enumerate(xa):
            val, _ = integrate.quad(
                lambda xb: joint_pdf_fock(n, x, xb, 0.7), -np.inf, np.inf, limit=200
            )
            marg[x_idx] = val
        coeffs = splitter_output(n, n)
        phi = hermite_functions(n, xa)
        expect = sum(abs(coeffs[k, n - k]) ** 2 * phi[k] ** 2 for k in range(n + 1))
        assert np.allclose(marg, expect, atol=1e-8)


FOCK_DTHETAS = [0.0, 0.7, np.pi / 2, np.pi, -2.3]


def fock_cell_masses(edges, dtheta, nodes=8):
    """Mass of joint_pdf_fock(1, ., ., dtheta) in each cell of the grid
    `edges` x `edges`, by `nodes`-point Gauss-Legendre along each axis of
    every cell."""
    g, w = np.polynomial.legendre.leggauss(nodes)
    width = np.diff(edges)[:, None]
    x = (edges[:-1, None] + width * (g + 1.0) / 2.0).ravel()
    wx = (width * w / 2.0).ravel()
    mass = joint_pdf_fock(1, x[:, None], x[None, :], dtheta) * wx[:, None] * wx[None, :]
    n = len(edges) - 1
    return mass.reshape(n, nodes, n, nodes).sum(axis=(1, 3))


def single_photon_batch(dtheta, count, seed):
    """The ideal-fock pipeline's batch at phase gap dtheta."""
    return sample_batch(
        0.0, MeasurementSettings(dtheta, 0.0), count, pipeline="ideal-fock", seed=seed
    )


class TestFockSampling:
    def test_single_photon_correlation_sign(self):
        b0 = records(single_photon_batch(0.0, 200_000, seed=13))
        bpi = records(single_photon_batch(np.pi, 200_000, seed=13))
        assert np.corrcoef(*b0)[0, 1] > 0.2
        assert np.corrcoef(*bpi)[0, 1] < -0.2

    def test_correlation_matches_quadrature(self):
        x_a, x_b = records(single_photon_batch(0.0, 300_000, seed=14))
        nodes, weights = np.polynomial.legendre.leggauss(120)
        x = 8.0 * nodes
        w = 8.0 * weights
        pdf = joint_pdf_fock(1, x[:, None], x[None, :], 0.0)
        exy = float(np.sum(w[:, None] * w[None, :] * x[:, None] * x[None, :] * pdf))
        assert np.mean(x_a * x_b) == pytest.approx(exy, abs=0.006)

    @pytest.mark.parametrize("dtheta", FOCK_DTHETAS)
    def test_draw_matches_density(self, dtheta):
        """Pearson chi^2 of the binned records against the cell masses of
        the exact density. Cells expected to hold fewer than 5 records are
        pooled with everything outside the grid into one cell."""
        count = 1_000_000
        edges = np.linspace(-3.0, 3.0, 25)
        x_a, x_b = records(single_photon_batch(dtheta, count, seed=17))
        counts = np.histogram2d(x_a, x_b, (edges, edges))[0]
        expected = count * fock_cell_masses(edges, dtheta)
        keep = expected >= 5.0
        observed = np.append(counts[keep], count - counts[keep].sum())
        expected = np.append(expected[keep], count - expected[keep].sum())
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2.sf(stat, keep.sum()) > 1e-3, f"chi2 {stat:.0f} on {keep.sum()} dof"


def fock_survival(dtheta, t, nodes=80, span=12.0):
    """P(s_a x_a > t, s_b x_b > t) under joint_pdf_fock(1, ., ., dtheta) for
    each sign quadrant (s_a, s_b) in cell order (-, -), (-, +), (+, -),
    (+, +), by `nodes`-point Gauss-Legendre over [t, t + span] per axis."""
    g, w = np.polynomial.legendre.leggauss(nodes)
    x, wx = t + span * (g + 1.0) / 2.0, span * w / 2.0
    return np.array(
        [
            wx @ joint_pdf_fock(1, s_a * x[:, None], s_b * x[None, :], dtheta) @ wx
            for s_a, s_b in itertools.product((-1.0, 1.0), repeat=2)
        ]
    )


class TestFockTables:
    """A binned ideal-fock batch is a multinomial draw over
    `binning.fock(dtheta)`, the cell masses of |1> split 50:50."""

    T_GRIDS = TestVacuumTables.T_GRIDS
    EDGES = TestVacuumTables.EDGES

    @pytest.mark.parametrize("grid", T_GRIDS.values(), ids=T_GRIDS.keys())
    def test_threshold_masses_match_quadrature(self, grid):
        """Quadrant q at depth (a, b] holds S_q(a) - S_q(b), S_q the
        quadrant's survival, 0 past the last level."""
        binning = threshold_binning(grid)
        depths = np.append(0.0, binning.grid)
        for dtheta in FOCK_DTHETAS:
            survival = np.array([fock_survival(dtheta, t) for t in depths]).T
            expected = -np.diff(survival, append=0.0).ravel()
            got = binning.fock(dtheta)
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12, err_msg=f"dtheta {dtheta}")

    @pytest.mark.parametrize("edges", EDGES.values(), ids=EDGES.keys())
    def test_histogram_masses_match_quadrature(self, edges):
        """Cell (i, j) of [-inf, *edges, inf] per arm, the infinite cells cut
        6 past the outer edges, where the density is below e^-80."""
        binning = histogram_binning(edges)
        bounds = np.concatenate(([edges[0] - 6.0], edges, [edges[-1] + 6.0]))
        for dtheta in FOCK_DTHETAS:
            expected = fock_cell_masses(bounds, dtheta, nodes=40).ravel()
            got = binning.fock(dtheta)
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12, err_msg=f"dtheta {dtheta}")

    @pytest.mark.parametrize(
        "binning",
        [*map(threshold_binning, T_GRIDS.values()), *map(histogram_binning, EDGES.values())],
        ids=[*(f"threshold-{k}" for k in T_GRIDS), *(f"histogram-{k}" for k in EDGES)],
    )
    def test_masses_are_a_distribution(self, binning):
        for dtheta in FOCK_DTHETAS:
            masses = binning.fock(dtheta)
            assert np.all(masses >= 0.0)
            assert abs(masses.sum() - 1.0) <= 1e-14, f"dtheta {dtheta}"

    @pytest.mark.parametrize("grid", T_GRIDS.values(), ids=T_GRIDS.keys())
    def test_threshold_table_gives_the_closed_form(self, grid):
        """At every threshold T, the table's correlation is
        `ideal_single_photon_correlation`, and its survivors are
        erfc(T) (erfc(T) + 2 T e^(-T^2) / sqrt(pi))."""
        binning = threshold_binning(grid)
        t = binning.grid
        erfc = np.array([math.erfc(T) for T in t])
        p_surv = erfc * (erfc + 2.0 * t * np.exp(-t * t) / np.sqrt(np.pi))
        for dtheta in FOCK_DTHETAS:
            n00, n01, n10, n11 = binning.finish(binning.fock(dtheta)).T
            survivors = n00 + n01 + n10 + n11
            e = [ideal_single_photon_correlation(dtheta, T) for T in t]
            np.testing.assert_allclose((n00 + n11 - n01 - n10) / survivors, e, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(survivors, p_surv, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "binning",
        [threshold_binning(1.0 + 1e-16 * np.arange(3000)), histogram_binning(np.linspace(-12.0, 12.0, 49))],
        ids=["threshold-ulp-gaps", "histogram-wide"],
    )
    def test_rounding_leaves_no_negative_mass(self, binning):
        """Levels an ulp or so apart, and far cells whose phi_0^2 integral has
        lost its relative precision, both round some masses below 0 before
        they are clipped, and `multinomial` refuses a negative mass."""
        for dtheta in FOCK_DTHETAS:
            assert np.all(binning.fock(dtheta) >= 0.0)
            settings = MeasurementSettings(dtheta, 0.0)
            assert sample_batch(0.0, settings, 1000, pipeline="ideal-fock", binning=binning).total == 1000


def load_batch(path):
    """Read a batch written by SampleBatch.save back: the batch its sidecar
    describes, and the records of the CSV as two arrays."""
    with open(os.path.splitext(path)[0] + ".meta.json") as fh:
        meta = json.load(fh)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    settings = MeasurementSettings(meta["phi_a"], meta["phi_b"], meta["label_a"], meta["label_b"])
    batch = SampleBatch(
        settings=settings,
        intensity_label=meta["intensity_label"],
        seed=meta["seed"],
        pipeline=meta["pipeline"],
        count=meta["count"],
        mu=meta["mu"],
        noise=NoiseModel(meta["eta_pd"], meta["v_e"]),
    )
    return batch, data[:, 0], data[:, 1]


HEADER = b"x_a,x_b,intensity_label,setting_a,setting_b\n"


def reference_rows(x_a, x_b, tail):
    """The CSV rows of the records (x_a[i], x_b[i]) written one at a time
    with %.17g, each ending in `tail`."""
    return "".join(f"{xa:.17g},{xb:.17g}{tail}" for xa, xb in zip(x_a, x_b)).encode()


def block_writer_bytes(x_a, x_b, tail):
    """What the save block writer writes for the records (x_a[i], x_b[i])
    with the row tail `tail`."""
    out = io.BytesIO()
    hm._write_rows(out, np.asarray(x_a, dtype=float), np.asarray(x_b, dtype=float), hm._row_template(tail))
    return out.getvalue()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# Doubles whose 17-digit text is easy to get wrong: signed zeros and
# subnormals, the largest magnitudes, non-finite values, and decimals that
# 17 digits must round-trip.
AWKWARD_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
AWKWARD_VALUES += [0.1, 1.0 / 3.0, 1e16]


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        batch = sample_batch(
            0.7,
            CHSH_SETTINGS[(1, 0)],
            500,
            NoiseModel(0.617, 2.0 / 3.0),
            "physical",
            seed=99,
            intensity_label=2,
        )
        path = str(tmp_path / "batch.csv")
        assert batch.save(path) == (path, str(tmp_path / "batch.meta.json"))
        loaded, x_a, x_b = load_batch(path)
        expect_a, expect_b = records(batch)
        assert np.array_equal(expect_a, x_a)
        assert np.array_equal(expect_b, x_b)
        assert loaded.seed == 99
        assert loaded.pipeline == "physical"
        assert loaded.intensity_label == 2
        assert loaded.settings == batch.settings
        assert loaded.noise == batch.noise
        assert loaded == batch

    def test_header_format(self, tmp_path):
        batch = sample_batch(0.0, MeasurementSettings(0.0, 0.0), 3, seed=1)
        path = str(tmp_path / "b.csv")
        batch.save(path)
        with open(path) as fh:
            assert fh.readline().strip() == "x_a,x_b,intensity_label,setting_a,setting_b"

    # Batches ending one row short of, on and one row past the end of the
    # fourth block, and five rows into the thirteenth.
    @pytest.mark.parametrize(
        "count", [1, 4 * hm.SAVE_BLOCK - 1, 4 * hm.SAVE_BLOCK, 4 * hm.SAVE_BLOCK + 1, 12 * hm.SAVE_BLOCK + 5]
    )
    @pytest.mark.parametrize("label, combo", [(0, (0, 0)), (1, (1, 0)), (2, (0, 1)), (3, (1, 1))])
    def test_bytes_match_row_writer(self, count, label, combo):
        batch = sample_batch(
            0.5,
            CHSH_SETTINGS[combo],
            count,
            NoiseModel(0.617, 2.0 / 3.0),
            seed=count,
            intensity_label=label,
        )
        tail = f",{label},{combo[0]},{combo[1]}\n"
        x_a, x_b = records(batch)
        assert block_writer_bytes(x_a, x_b, tail) == reference_rows(x_a, x_b, tail)

    def test_save_bytes_across_chunks(self, tmp_path):
        """`save` writes the header, then each chunk's rows in order; the
        batch ends five rows into its third chunk."""
        batch = sample_batch(0.5, CHSH_SETTINGS[(1, 1)], 2 * CHUNK_SIZE + 5, seed=8, intensity_label=2)
        batch.save(str(tmp_path / "b.csv"))
        expect = HEADER + reference_rows(*records(batch), ",2,1,1\n")
        assert read_bytes(tmp_path / "b.csv") == expect

    def test_awkward_values_match_row_writer(self):
        tail = ",3,1,0\n"
        x_a, x_b = AWKWARD_VALUES, AWKWARD_VALUES[::-1]
        assert block_writer_bytes(x_a, x_b, tail) == reference_rows(x_a, x_b, tail)

    def test_save_memory_is_bounded(self, tmp_path):
        """Writing 1 M records (~45 MB of text) allocates well under 2 MB
        beyond the records: one block of text and its temporaries."""
        x_a, x_b = records(sample_batch(0.5, CHSH_SETTINGS[(0, 1)], 1_000_000, seed=3))
        with open(tmp_path / "big.csv", "wb") as fh:
            tracemalloc.start()
            try:
                hm._write_rows(fh, x_a, x_b, hm._row_template(",0,0,1\n"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2_000_000

    def test_sample_and_save_memory_does_not_grow_with_the_batch(self, tmp_path):
        """Drawing and saving a 16-chunk batch takes no more memory than a
        1-chunk batch: each chunk is drawn into one reused pair and written
        before the next is drawn. Holding the 16 chunks would take 16 MB."""

        def peak(count):
            tracemalloc.start()
            try:
                batch = sample_batch(0.5, CHSH_SETTINGS[(0, 1)], count, seed=3)
                batch.save(str(tmp_path / f"{count}.csv"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the first save builds the formatting tables, which stay cached
        assert peak(16 * CHUNK_SIZE) <= peak(CHUNK_SIZE) + 256 * 1024


def kernel_text(values):
    """The text `SampleBatch.save` writes for each of the doubles `values`."""
    values = np.asarray(values, dtype=float)
    step = 2 * hm.SAVE_BLOCK
    rows = [row for i in range(0, values.size, step) for row in hm._format_17g(values[i : i + step])]
    return [bytes(row[row != 0]) for row in rows]


def misprinted(values):
    """(value, kernel text) wherever the kernel differs from "%.17g" % value."""
    values = np.asarray(values, dtype=float).ravel()
    return [(v, text) for v, text in zip(values.tolist(), kernel_text(values)) if text != b"%.17g" % v]


def ulps_around(values, n):
    """Each value and its n nearest doubles on either side."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    out, up, down = [values], values, values
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


class TestFormat17g:
    """The save kernel spells every double exactly as "%.17g" % x does, on
    values chosen to break it (AWKWARD_VALUES go through `save` in
    TestPersistence); pytest turns any RuntimeWarning into an error."""

    def test_log_uniform_sweep(self):
        rng = np.random.default_rng(2024)
        magnitudes = 10.0 ** rng.uniform(-30.0, 30.0, 100_000)
        assert misprinted(magnitudes * rng.choice([-1.0, 1.0], magnitudes.size)) == []

    def test_ulps_around_powers_of_ten(self):
        powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
        values = ulps_around(powers, 3)
        assert misprinted(np.concatenate((values, -values))) == []

    @pytest.mark.parametrize("edge", [1e-4, 1e16, 1e17])
    def test_notation_edges(self, edge):
        """1e-4 and 1e17 bound %.17g's fixed notation; at 1e16 the last of
        the 17 digits becomes the units digit, so no point is printed."""
        values = ulps_around(edge, 500)
        assert misprinted(np.concatenate((values, -values))) == []

    def test_dyadic_ties(self):
        """m / 2^j with odd m is m 5^j / 10^j; when m 5^j has 18 digits (the
        last a 5) the value lies halfway between two 17-digit decimals."""
        rng = np.random.default_rng(7)
        values = []
        for j in range(2, 26):
            lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
            odd = (rng.integers(lo, hi, 400) | 1).tolist()
            assert all(len(str(m * 5**j)) == 18 for m in odd)
            values += [math.ldexp(m, -j) for m in odd]
        assert misprinted(values) == []

    def test_decades_are_the_least_doubles_from_each_power_of_ten(self):
        """x >= 10^k exactly when x >= _DECADES[k + 4], for every double x."""
        for k, start in zip(range(-4, 18), hm._DECADES.tolist()):
            power = Fraction(10) ** k
            assert Fraction(math.nextafter(start, 0.0)) < power <= Fraction(start)

    def test_rounding_never_carries_to_a_power_of_ten(self):
        """The kernel keeps the exponent it measured before rounding: no
        double below 10^k (k in [-3, 17]) is within half a unit of the 17th
        digit (5e-18 * 10^k) of it, so D = round(|x| 10^(16-X)) < 1e17."""
        for k in range(-3, 18):
            power = Fraction(10) ** k
            below = float(power)
            if Fraction(below) >= power:
                below = math.nextafter(below, 0.0)
            assert power - Fraction(below) > power * Fraction(5, 10**18)
