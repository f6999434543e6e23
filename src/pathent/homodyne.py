"""Monte Carlo joint quadrature sampling and analytic Fock-input densities.

Three pipelines produce (x_a, x_b) pairs:

- ``equivalent``: the loss-folded model; each arm is a Gaussian with mean
  sqrt(mu * eta_tot) cos(theta - phi) and variance 1/2.
- ``physical``: per-arm photodiode loss, additive electronic noise, then the
  sqrt(eta_ele) rescale. Distribution-identical to ``equivalent``.
- ``ideal-fock``: the single-photon Fock state |1> through the 50:50
  splitter, drawn exactly as the two-component mixture its density is.

All sampling is chunked (2^16 records per chunk) and drawn in place, with an
independent RNG stream per (seed, chunk index), so output is reproducible and
independent of worker scheduling. Vacuum chunks skip the phase draw.
Given a `Binning`, `sample_batch` counts each chunk as soon as it is drawn,
placing records by an exact lattice lookup (`grid_index`), and keeps only
the count table, so its memory does not grow with the batch.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fock import hermite_functions
from .states import IDEAL_NOISE, NoiseModel, splitter_output

CHUNK_SIZE = 1 << 16
# Rows per formatted write in SampleBatch.save; larger blocks buy little
# speed for a larger peak of Python floats and text.
SAVE_BLOCK = 4096
PIPELINES = ("physical", "equivalent", "ideal-fock")

# CHSH setting label -> LO phase. The b-labels are assigned so that the
# standard S combination E(a0,b0)+E(a1,b0)+E(a0,b1)-E(a1,b1) is maximized
# for the single-photon entangled state (E is proportional to cos(dtheta)).
ALICE_PHASES = (0.0, np.pi / 2)
BOB_PHASES = (np.pi / 4, -np.pi / 4)


@dataclass(frozen=True)
class MeasurementSettings:
    """LO phases for the two arms plus their discrete setting labels."""

    phi_a: float
    phi_b: float
    label_a: int = 0
    label_b: int = 0

    @classmethod
    def chsh(cls, label_a: int, label_b: int) -> "MeasurementSettings":
        if label_a not in (0, 1) or label_b not in (0, 1):
            raise ValueError("CHSH labels must be 0 or 1")
        return cls(ALICE_PHASES[label_a], BOB_PHASES[label_b], label_a, label_b)

    @property
    def dtheta(self) -> float:
        return self.phi_a - self.phi_b


@dataclass
class SampleBatch:
    """Joint quadrature outcomes with provenance.

    Records are stored columnwise; x_a[i], x_b[i] form record i. The state
    phase theta used to generate coherent samples is deliberately not stored
    (it is inaccessible to the measurement).
    """

    x_a: np.ndarray
    x_b: np.ndarray
    settings: MeasurementSettings
    intensity_label: int
    seed: int
    pipeline: str
    mu: float = 0.0
    noise: NoiseModel = field(default_factory=lambda: IDEAL_NOISE)

    def __post_init__(self):
        self.x_a = np.asarray(self.x_a, dtype=float)
        self.x_b = np.asarray(self.x_b, dtype=float)
        if self.x_a.shape != self.x_b.shape:
            raise ValueError("x_a and x_b must have identical length")

    def __len__(self) -> int:
        return self.x_a.size

    def save(self, path: str) -> None:
        """Write the records as CSV, one row per record: x_a and x_b as %.17g
        (17 significant digits, so every double reads back bit-exact), then
        the intensity label and the two setting labels. A JSON sidecar
        (`<name>.meta.json`) holds the provenance. Rows are formatted and
        written SAVE_BLOCK at a time, by one %-format call per block.
        """
        lbl = f",{self.intensity_label},{self.settings.label_a},{self.settings.label_b}\n"
        row = "%.17g,%.17g" + lbl
        with open(path, "w") as fh:
            fh.write("x_a,x_b,intensity_label,setting_a,setting_b\n")
            for start in range(0, len(self), SAVE_BLOCK):
                stop = start + SAVE_BLOCK
                block = np.column_stack((self.x_a[start:stop], self.x_b[start:stop]))
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))
        meta = {
            "seed": self.seed,
            "pipeline": self.pipeline,
            "mu": self.mu,
            "fock_n": 1,  # the photon number ideal-fock samples
            "count": len(self),
            "eta_pd": self.noise.eta_pd,
            "v_e": self.noise.v_e,
            "phi_a": self.settings.phi_a,
            "phi_b": self.settings.phi_b,
            "label_a": self.settings.label_a,
            "label_b": self.settings.label_b,
            "intensity_label": self.intensity_label,
        }
        with open(_sidecar_path(path), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True, eq=False)
class CountTable:
    """Exact int64 counts of one batch over a grid: coincidences per
    threshold (`chsh.threshold_binning`) or records per 2-D bin
    (`tomography.histogram_binning`).

    `grid` holds the sorted levels the counts were taken over, and `total`
    counts every record of the batch, counted in a cell or not. Analysis
    reads only `counts / total`, so the raw samples are never kept.
    """

    grid: np.ndarray
    counts: np.ndarray
    total: int

    def __len__(self) -> int:
        return self.total


@dataclass(frozen=True, eq=False)
class Binning:
    """How `sample_batch` reduces each chunk to counts over `grid`:
    `key(x_a, x_b)` maps a chunk of each arm to one cell in [0, size) per
    record, and `finish` turns the int64 cell counts of the whole batch
    into the table's counts.
    """

    grid: np.ndarray
    size: int
    key: Callable[[np.ndarray, np.ndarray], np.ndarray]
    finish: Callable[[np.ndarray], np.ndarray]

    def count(self, x_a: np.ndarray, x_b: np.ndarray) -> np.ndarray:
        """Cell counts of the records (x_a[i], x_b[i])."""
        return np.bincount(self.key(x_a, x_b), minlength=self.size)

    def table(self, cells: np.ndarray, total: int) -> CountTable:
        return CountTable(self.grid, self.finish(cells), total)


def grid_index(levels, side: str = "left"):
    """Exact np.searchsorted(levels, x, side) for a chunk x, with NaN mapped
    to 0, by a lattice lookup built once per grid; `levels` must be finite
    and sorted. x goes to cell c(x) of 4 * len(levels) equal cells over the
    levels, computed alike for x and for the levels, so c is monotone:
    lut[c], the number of levels in cells below c, is at most the answer and
    short of it by at most the levels that share cell c. That many passes of
    `k += padded[k] < x` (`<=` for "right"; the NaN pad compares false) close
    the gap, one pass for an evenly spaced grid.
    """
    levels = np.asarray(levels, dtype=float)
    if not (np.all(np.isfinite(levels)) and np.all(np.diff(levels) >= 0)):
        raise ValueError("grid levels must be finite and sorted")
    below = {"left": np.less, "right": np.less_equal}[side]
    n_cells, lo = 4 * levels.size, levels[0] if levels.size else 0.0
    with np.errstate(all="ignore"):  # inf for one level, 0 for a span past 1e308
        scale = n_cells / (levels[-1] - lo) if levels.size else 0.0

    def cell(x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # overflow, and 0 * inf = NaN at x = lo
            u = x - lo
            u *= scale
        np.fmax(u, 0.0, out=u)  # NaN becomes 0
        return np.fmin(u, n_cells, out=u).astype(np.intp)

    cells = cell(levels)
    lut = np.searchsorted(cells, np.arange(n_cells + 1))
    passes = np.bincount(cells).max() if levels.size else 0
    padded = np.append(levels, np.nan)

    def index(x: np.ndarray) -> np.ndarray:
        k = lut[cell(x)]
        for _ in range(passes):
            k += below(padded[k], x)
        return k

    return index


def _sidecar_path(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".meta.json"


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


def _coherent_arm(
    out: np.ndarray,
    mu: float,
    theta: np.ndarray | None,
    phi: float,
    noise: NoiseModel,
    pipeline: str,
    rng: np.random.Generator,
) -> None:
    """Draw one arm's samples for coherent input split 50:50 into `out`
    (theta is read only when mu > 0). `sqrt(1/2) z + mean` is how
    `rng.normal(mean, sqrt(1/2))` computes, so the bits are the same, except
    that a draw of exactly +-0.0 (p ~ 2^-52) may keep a sign that adding a
    zero mean would flip. Count tables read |x| and x > 0, so bin +-0 alike.
    """
    eta = noise.eta_tot if pipeline == "equivalent" else noise.eta_pd
    rng.standard_normal(out=out)
    out *= np.sqrt(0.5)
    if mu > 0:
        out += np.sqrt(mu * eta) * np.cos(theta - phi)
    if pipeline == "physical":
        if noise.v_e > 0:
            out += np.sqrt(noise.v_e / 2.0) * rng.standard_normal(out.size)
        out *= np.sqrt(noise.eta_ele)


def joint_pdf_fock(n, x_a, x_b, dtheta: float):
    """Exact joint density of (x_a, x_b) for Fock input |n> at phase gap dtheta.

    The amplitude is sum_k c_k psi_k(x_a, phi_a) psi_{n-k}(x_b, phi_b) with
    splitter coefficients c_k; the density depends on the phases only through
    dtheta = phi_a - phi_b. Broadcasts over array x_a, x_b.
    """
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    coeffs = splitter_output(n, n).amplitudes
    phi_a_vals = hermite_functions(n, x_a)
    phi_b_vals = hermite_functions(n, x_b)
    amp = np.zeros(np.broadcast_shapes(x_a.shape, x_b.shape), dtype=complex)
    for k in range(n + 1):
        c = coeffs[k, n - k].real
        amp = amp + c * np.exp(1j * k * dtheta) * phi_a_vals[k] * phi_b_vals[n - k]
    return np.abs(amp) ** 2


def _single_photon_arms(
    out_a: np.ndarray, out_b: np.ndarray, dtheta: float, rng: np.random.Generator
) -> None:
    """Draw |1> split 50:50 at phase gap dtheta exactly into `out_a`, `out_b`.

    In u, v = (x_a +- x_b)/sqrt(2), joint_pdf_fock(1, ., ., dtheta) is
    e^(-u^2 - v^2) ((1 + c) u^2 + (1 - c) v^2) / pi with c = cos(dtheta):
    with probability (1 + c)/2, u^2 ~ Gamma(3/2) with a random sign and
    v ~ N(0, 1/2), else u and v swap roles (Lvovsky & Raymer, RMP 81, 299
    (2009)). Swapping u and v keeps x_a and negates x_b.
    """
    size = out_a.size
    rng.standard_gamma(1.5, out=out_a)
    np.sqrt(out_a, out=out_a)
    np.negative(out_a, out=out_a, where=rng.random(size) < 0.5)
    v = rng.normal(0.0, np.sqrt(0.5), size)
    np.subtract(out_a, v, out=out_b)
    out_a += v
    np.negative(out_b, out=out_b, where=rng.random(size) >= (1.0 + np.cos(dtheta)) / 2.0)
    out_a *= np.sqrt(0.5)
    out_b *= np.sqrt(0.5)


def _chunk_samples(
    out_a: np.ndarray,
    out_b: np.ndarray,
    mu: float,
    settings: MeasurementSettings,
    noise: NoiseModel,
    pipeline: str,
    seed: int,
    chunk: int,
) -> None:
    """Fill `out_a`, `out_b` (one chunk's slices) from the chunk's stream."""
    rng = _chunk_rng(seed, chunk)
    size = out_a.size
    if pipeline == "ideal-fock":
        _single_photon_arms(out_a, out_b, settings.dtheta, rng)
        return
    if mu > 0:
        theta = rng.uniform(0.0, 2.0 * np.pi, size)
    else:
        # The vacuum ignores theta. Each uniform double is one PCG64 word, so
        # skipping `size` words leaves the stream where drawing theta would.
        theta = None
        rng.bit_generator.advance(size)
    _coherent_arm(out_a, mu, theta, settings.phi_a, noise, pipeline, rng)
    _coherent_arm(out_b, mu, theta, settings.phi_b, noise, pipeline, rng)


def sample_batch(
    mu: float,
    settings: MeasurementSettings,
    count: int,
    noise: NoiseModel = IDEAL_NOISE,
    pipeline: str = "equivalent",
    seed: int = 0,
    intensity_label: int = 0,
    workers: int = 1,
    binning: Binning | None = None,
) -> SampleBatch | CountTable:
    """Deterministic batch of joint samples; state phase is uniform i.i.d.

    Chunks of 2^16 records each own an RNG stream derived from (seed, chunk
    index). Up to `workers` threads, no more than there are chunks or usable
    CPUs, draw every n-th chunk each. Without a `binning` the chunks fill one
    stored batch; with one, each thread draws into one reused chunk-sized
    pair and counts it at once, and the batch's table is the exact sum of
    the threads' counts. Either way the result is bit-identical for any
    worker count.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (mu >= 0 and np.isfinite(mu)):
        raise ValueError("intensity must be non-negative and finite")
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    n_chunks = -(-count // CHUNK_SIZE)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = max(1, min(workers, n_chunks, cpus or 1))
    if binning is None:
        x_a, x_b = np.empty(count), np.empty(count)

    def run(first: int) -> np.ndarray | None:
        """Draw chunks first, first + n_workers, ...; under a binning, each
        into one reused scratch pair, counted as soon as it is drawn."""
        if binning is not None:
            cells = np.zeros(binning.size, dtype=np.int64)
            pair = np.empty((2, CHUNK_SIZE))
        for i in range(first, n_chunks, n_workers):
            span = slice(i * CHUNK_SIZE, min((i + 1) * CHUNK_SIZE, count))
            arms = (x_a[span], x_b[span]) if binning is None else pair[:, : span.stop - span.start]
            _chunk_samples(*arms, mu, settings, noise, pipeline, seed, i)
            if binning is not None:
                cells += binning.count(*arms)
        return None if binning is None else cells

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            partials = list(pool.map(run, range(n_workers)))
    else:
        partials = [run(0)]
    if binning is not None:
        return binning.table(sum(partials), count)
    return SampleBatch(
        x_a=x_a,
        x_b=x_b,
        settings=settings,
        intensity_label=intensity_label,
        seed=seed,
        pipeline=pipeline,
        mu=mu,
        noise=noise,
    )
