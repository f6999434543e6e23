"""Monte Carlo joint quadrature sampling and analytic Fock-input densities.

Three pipelines produce (x_a, x_b) pairs:

- ``equivalent``: the loss-folded model; each arm is a Gaussian with mean
  sqrt(mu * eta_tot) cos(theta - phi) and variance 1/2.
- ``physical``: per-arm photodiode loss, additive electronic noise, then the
  sqrt(eta_ele) rescale. Distribution-identical to ``equivalent``.
- ``ideal-fock``: the single-photon Fock state |1> through the 50:50
  splitter, drawn exactly as the two-component mixture its density is.

Records are drawn by one chunk loop, `SampleBatch.chunks`: 2^16 records
per chunk, each drawn by `SampleBatch._draw` in place into one reused pair
from an independent RNG stream per (seed, chunk index), so output is
reproducible and no array grows with the batch. Every coherent chunk draws
its state phases first, the vacuum's too. Without a `Binning`,
`sample_batch` returns the undrawn batch, which `save` writes a chunk at a
time. Everything is drawn on the calling thread: no run starts a thread,
and the `workers` argument is accepted but changes nothing.

A binned batch of any pipeline draws no records: its table is one
multinomial draw of `count` records over the binning's exact cell masses.
Given the state phase, a coherent batch's arms are independent Gaussians of
variance 1/2 (`physical` rescales its electronic noise away, since
eta_ele (1 + v_e) = 1), so its masses are averaged over PHASE_NODES phases
(`coherent_masses`); an `ideal-fock` batch's masses (`Binning.fock`)
integrate the |1> density over each cell in closed form. Only `simulate`,
which takes no binning, draws records.

`SampleBatch.save` writes %.17g text with numpy array arithmetic: for a
double in fixed notation (decimal exponent -4 to 16) the 17 digits are an
exactly rounded integer, from Dekker's error-free product of |x| and a power
of ten, and the text is gathered from a template. Zeros, subnormals,
|x| < 1e-4 or >= 1e17, inf and nan are formatted by `"%.17g" %` one by one.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .fock import hermite_functions
from .states import IDEAL_NOISE, NoiseModel, splitter_output

CHUNK_SIZE = 1 << 16
# Rows per block in SampleBatch.save. A block's 2 * SAVE_BLOCK doubles are
# turned into text by one pass of array operations (`_format_17g`) whose
# temporaries, about 0.7 KB per row, bound the writer's memory. On a 2-core
# Xeon, 2048-row blocks took 7-15% less CPU time in `simulate --scale 120`
# but raised its peak RSS 0.9 MB more, to 4.9% above the %-format writer's.
SAVE_BLOCK = 1024
# The stream index of a binned batch's table (`sample_batch`):
# beyond every chunk index, since no batch has 2^48 records.
TABLE_STREAM = 1 << 32
# Equally weighted state phases 2 pi j / PHASE_NODES that a coherent table's
# cell masses average over (`coherent_masses`). The masses are smooth and
# periodic in the phase, so the rule converges geometrically: 32 nodes agree
# with 256 to ~3e-17, where 16 were off by up to 2e-10.
PHASE_NODES = 32
PIPELINES = ("physical", "equivalent", "ideal-fock")


@dataclass(frozen=True)
class MeasurementSettings:
    """LO phases for the two arms plus their discrete setting labels."""

    phi_a: float
    phi_b: float
    label_a: int = 0
    label_b: int = 0

    @property
    def dtheta(self) -> float:
        return self.phi_a - self.phi_b


@dataclass(frozen=True)
class SampleBatch:
    """One batch of `count` joint quadrature outcomes, with its provenance.

    The batch is described, not held: `chunks` draws its records chunk by
    chunk, each by `_draw`, the same records for every call. The state phase
    theta used to generate coherent samples is never exposed (it is
    inaccessible to the measurement).
    """

    settings: MeasurementSettings
    intensity_label: int
    seed: int
    pipeline: str
    count: int
    mu: float = 0.0
    noise: NoiseModel = field(default_factory=lambda: IDEAL_NOISE)

    def __len__(self) -> int:
        return self.count

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield `(x_a, x_b)` for each chunk in order, on the calling thread,
        record i of the chunk being (x_a[i], x_b[i]). Each chunk is drawn by
        `_draw` from its own stream into one reused (2, CHUNK_SIZE) scratch
        pair, and the views yielded are overwritten by the next chunk: copy
        what you keep.
        """
        pair = np.empty((2, CHUNK_SIZE))
        for i in range(-(-self.count // CHUNK_SIZE)):
            x_a, x_b = pair[:, : min(CHUNK_SIZE, self.count - i * CHUNK_SIZE)]
            self._draw(i, x_a, x_b)
            yield x_a, x_b

    def _draw(self, chunk: int, out_a: np.ndarray, out_b: np.ndarray) -> None:
        """Fill `out_a`, `out_b` with the records of chunk `chunk`, drawn
        from its own stream."""
        rng = _chunk_rng(self.seed, chunk)
        if self.pipeline == "ideal-fock":
            _single_photon_arms(out_a, out_b, self.settings.dtheta, rng)
            return
        theta = rng.uniform(0.0, 2.0 * np.pi, out_a.size)
        _coherent_arm(out_a, self.mu, theta, self.settings.phi_a, self.noise, self.pipeline, rng)
        _coherent_arm(out_b, self.mu, theta, self.settings.phi_b, self.noise, self.pipeline, rng)

    def save(self, path: str) -> tuple[str, str]:
        """Write the records as CSV, one row per record: x_a and x_b as %.17g
        (17 significant digits, so every double reads back bit-exact), then
        the intensity label and the two setting labels. The chunks are drawn
        in order on this thread, each written (`_write_rows`) before the
        next is drawn: the time is in the writer. A JSON sidecar
        (`<name>.meta.json`) holds the provenance. Returns the paths of the
        CSV and of the sidecar.
        """
        rows = _row_template(f",{self.intensity_label},{self.settings.label_a},{self.settings.label_b}\n")
        with open(path, "wb") as fh:
            fh.write(b"x_a,x_b,intensity_label,setting_a,setting_b\n")
            for x_a, x_b in self.chunks():
                _write_rows(fh, x_a, x_b, rows)
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
        sidecar = os.path.splitext(path)[0] + ".meta.json"
        with open(sidecar, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path, sidecar


def _row_template(tail: str) -> np.ndarray:
    """SAVE_BLOCK byte rows for `_write_rows`: two _TEXT_WIDTH text fields
    with a comma between them, then `tail`, the row's labels and newline."""
    rows = np.empty((SAVE_BLOCK, 2 * _TEXT_WIDTH + 1 + len(tail)), dtype=np.uint8)
    rows[:, _TEXT_WIDTH] = ord(",")
    rows[:, 2 * _TEXT_WIDTH + 1 :] = np.frombuffer(tail.encode(), dtype=np.uint8)
    return rows


def _write_rows(fh, x_a: np.ndarray, x_b: np.ndarray, rows: np.ndarray) -> None:
    """Write one CSV row per record (x_a[i], x_b[i]) to the binary file
    `fh`, SAVE_BLOCK rows at a time: each block is built in `rows`
    (`_row_template`) as NUL-padded bytes, its doubles spelled exactly as
    %.17g by `_format_17g`, and written without the pads."""
    for start in range(0, x_a.size, SAVE_BLOCK):
        a, b = x_a[start : start + SAVE_BLOCK], x_b[start : start + SAVE_BLOCK]
        text = _format_17g(np.concatenate((a, b))).reshape(2, a.size, _TEXT_WIDTH)
        block = rows[: a.size]
        block[:, :_TEXT_WIDTH] = text[0]
        block[:, _TEXT_WIDTH + 1 : 2 * _TEXT_WIDTH + 1] = text[1]
        chars = block.reshape(-1)
        fh.write(chars[chars != 0])


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
    """The cells of a batch's count table over `grid`, and their exact
    masses, over which `sample_batch` draws the table.

    `finish` turns the int64 cell counts of the whole batch into the
    table's counts. `masses(m_a, m_b)[c]` is the probability of cell c when
    the arms are independent N(m_a[j], 1/2) and N(m_b[j], 1/2) at each of n
    equally likely, evenly spaced state phases, n even, so that the means
    at node j + n/2 are -m_a[j] and -m_b[j] (`coherent_masses`).
    `fock(dtheta)[c]` is its probability for |1> split 50:50 at phase gap
    dtheta, whose density (`joint_pdf_fock`) is (phi_1^2 (x) phi_0^2
    + phi_0^2 (x) phi_1^2) / 2 + cos(dtheta) (phi_0 phi_1) (x) (phi_0 phi_1).
    """

    grid: np.ndarray
    finish: Callable[[np.ndarray], np.ndarray]
    masses: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fock: Callable[[float], np.ndarray]

    def table(self, cells: np.ndarray, total: int) -> CountTable:
        return CountTable(self.grid, self.finish(cells), total)


# %.17g prints a double x with 17 significant digits, in fixed notation when
# its decimal exponent X is in [-4, 16]. There the digits are the integer
# D = round(|x| 10^(16-X)) in [1e16, 1e17), computed exactly: X is found by
# exact comparisons with the powers of ten, 10^s is an exact double for
# s <= 22, Dekker's TwoProduct (Numer. Math. 18, 224 (1971)) gives
# |x| 10^s = hi + lo exactly, and hi >= 2^53 is an even integer, so
# hi + rint(lo) rounds half to even as %.17g does. D is spelled three digits
# at a time from a table, and each text is gathered from its value's digits
# by a template chosen by (sign, X, digits kept once trailing zeros are
# stripped). Every other value is formatted by "%.17g" % x: zeros,
# subnormals, |x| < 1e-4, |x| >= 1e17, inf and nan. The tables are built on
# the first save, so runs that never write CSV do not hold them.
_TEXT_WIDTH = 24  # the longest %.17g text, e.g. "-1.2345678901234567e-308"
_POW10 = np.array([float(10**s) for s in range(23)])
# 10^k for k in [-4, 17], exact for k >= 0 and rounded up for k < 0, so that
# a double x is >= 10^k exactly when it is >= _DECADES[k + 4].
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 18)])
_GROUP_SCALE = np.array([[1e6], [1e3], [1.0]])
_SOURCE_ROW = 4 * 2 * SAVE_BLOCK  # bytes per row of _format_17g's digit source


@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each 3-digit group g spelled as "ggg" and a NUL in one uint32; and,
    for g at group position j of "0" + D, the digits of D kept up to g's
    last non-zero digit (0 for g = 0)."""
    g = np.arange(1000)
    spelled = np.zeros((1000, 4), dtype=np.uint8)
    for c, scale in enumerate((100, 10, 1)):
        spelled[:, c] = g // scale % 10 + ord("0")
    trailing_zeros = (g % 10 == 0).astype(int) + (g % 100 == 0)
    kept = np.where(g > 0, 3 * np.arange(6)[:, None] + 2 - trailing_zeros, 0)
    return spelled.view(np.uint32).ravel(), kept.ravel()


@functools.cache
def _fixed_templates() -> np.ndarray:
    """Per (sign, X in [-4, 16], kept digits k), the byte offsets of the
    fixed-notation text in _format_17g's digit source, relative to the
    value's own column, NUL-padded: [-]D[0..X].D[X+1..k-1] (no point when
    k <= X + 1) for X >= 0, [-]0.0..0D[0..k-1] with -X-1 zeros for X < 0.
    Source rows 0-5 spell "0" + D, row 6 holds ".", "-" and a NUL."""
    neg, exp10, kept, pos = np.ix_(range(2), range(-4, 17), range(1, 18), range(_TEXT_WIDTH))
    j = pos - neg  # position after the sign
    length = np.where(exp10 < 0, 1 - exp10 + kept, np.where(kept > exp10 + 1, kept + 1, exp10 + 1))
    char = np.where(exp10 < 0, j + exp10, np.where(j <= exp10, j + 1, j))  # index into "0" + D
    point = np.where(exp10 < 0, j == 1, j == exp10 + 1)
    marks = 6 * _SOURCE_ROW
    offsets = np.select(
        [j < 0, j >= length, point, (exp10 < 0) & (j < 1 - exp10)],
        [marks + 1, marks + 2, marks, 0],
        char // 3 * _SOURCE_ROW + char % 3,
    )
    return offsets.reshape(-1, _TEXT_WIDTH)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi = fl(a b) and hi + lo = a b exactly, by Veltkamp's
    splitting; a b must be far from overflow and underflow."""
    hi = a * b
    a_hi, b_hi = (134217729.0 * v for v in (a, b))  # 2^27 + 1
    a_hi -= a_hi - a
    b_hi -= b_hi - b
    a_lo, b_lo = a - a_hi, b - b_hi
    return hi, a_lo * b_lo - (((hi - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _fixed_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fixed, exp10, digits): where x prints in fixed notation, and there its
    decimal exponent X and its 17 digits D, an int64 in [1e16, 1e17)."""
    mag = np.abs(x)
    exp10 = np.searchsorted(_DECADES, mag, side="right") - 5  # nan sorts last
    fixed = (exp10 >= -4) & (exp10 <= 16)
    mag[~fixed] = 1.0  # keeps 0, inf and nan out of the arithmetic
    exp10[~fixed] = 0
    hi, lo = _two_product(mag, _POW10[16 - exp10])
    # Rounding never carries D to 1e17: the largest double below 10^k, k in
    # [-3, 17], lies more than 8e-17 * 10^k below it, and rounding to 17
    # digits moves a value by at most 5e-18 * 10^k.
    return fixed, exp10, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _spell_digits(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digit source of `_fixed_templates` for 17-digit integers D, and
    how many of each D's digits are kept once trailing zeros are stripped."""
    size = digits.size
    group_text, group_kept = _group_tables()
    top = digits // 10**9
    halves = np.empty((2, 1, size))  # D's two 9-digit halves, exact as doubles
    halves[0, 0], halves[1, 0] = top, digits - top * 10**9
    groups = np.floor(halves / _GROUP_SCALE)
    groups[:, 1:] -= 1000 * groups[:, :-1]
    groups = groups.reshape(6, size).astype(np.intp)  # "0" + D, 3 digits each
    source = np.empty((7, _SOURCE_ROW // 4), dtype=np.uint32)
    np.take(group_text, groups, out=source[:6, :size])
    source[6, :size] = np.frombuffer(b".-\0\0", dtype=np.uint32)
    groups += 1000 * np.arange(6)[:, None]
    return source, np.take(group_kept, groups).max(axis=0)


def _format_17g(x: np.ndarray) -> np.ndarray:
    """(x.size, _TEXT_WIDTH) uint8, row i holding b"%.17g" % x[i] padded
    with NULs, for at most 2 * SAVE_BLOCK doubles x."""
    fixed, exp10, digits = _fixed_digits(x)
    source, kept = _spell_digits(digits)
    template = ((x < 0) * 21 + exp10 + 4) * 17 + kept - 1
    offsets = np.take(_fixed_templates(), template, axis=0)
    offsets += np.arange(0, 4 * x.size, 4)[:, None]
    text = np.take(source.reshape(-1).view(np.uint8), offsets)
    for i in np.flatnonzero(~fixed).tolist():
        text[i] = np.frombuffer((b"%.17g" % x[i]).ljust(_TEXT_WIDTH, b"\0"), dtype=np.uint8)
    return text


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


def upper_tail(x: np.ndarray) -> np.ndarray:
    """P(y > x) = erfc(x) / 2 for y ~ N(0, 1/2), elementwise, without
    importing scipy.special, which would cost more than the tables it serves."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape) / 2.0


def cached_rows(row: Callable[[float], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """The rows `row(m[j])` over an arm's node means m, stacked, each distinct
    mean's row computed once per binning. -0.0 shares 0.0's, which is safe
    since a row reads its mean only through its difference with the grid."""
    cached = functools.cache(row)
    return lambda m: np.array([cached(x) for x in m.tolist()])


def coherent_masses(
    binning: Binning, mu: float, settings: MeasurementSettings, noise: NoiseModel
) -> np.ndarray:
    """Cell masses under `binning` of one record of a coherent batch: given
    the uniform state phase theta, each arm is N(sqrt(mu eta_tot) cos(theta
    - phi), 1/2), `physical` too since eta_ele (1 + v_e) = 1."""
    theta = np.arange(PHASE_NODES) * (2.0 * np.pi / PHASE_NODES)
    m_a, m_b = (np.sqrt(mu * noise.eta_tot) * np.cos(theta - phi) for phi in (settings.phi_a, settings.phi_b))
    return binning.masses(m_a, m_b)


def _coherent_arm(
    out: np.ndarray,
    mu: float,
    theta: np.ndarray,
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
    index). Without a `binning` the batch is returned undrawn, for its
    reader to draw through `SampleBatch.chunks`.

    A binned batch of any pipeline is drawn as a count table, not as
    records: one multinomial draw of `count` over the binning's exact cell
    masses, `coherent_masses` for a coherent pipeline, vacuum included, and
    `binning.fock(dtheta)` for `ideal-fock`, from the stream of chunk index
    2^32, which no chunk reaches. It follows the binned distribution of the
    records but is not their binning. The batch is drawn on the calling
    thread; `workers` is accepted for its callers but changes nothing.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (mu >= 0 and np.isfinite(mu)):
        raise ValueError("intensity must be non-negative and finite")
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    if binning is None:
        return SampleBatch(settings, intensity_label, seed, pipeline, count, mu, noise)
    if pipeline == "ideal-fock":
        masses = binning.fock(settings.dtheta)
    else:
        masses = coherent_masses(binning, mu, settings, noise)
    return binning.table(_chunk_rng(seed, TABLE_STREAM).multinomial(count, masses), count)
