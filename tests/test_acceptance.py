"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion. The seeds are
fixed so the whole suite is reproducible; the runtime limits are generous for
commodity hardware.
"""

import time

import numpy as np
from scipy.special import erf
from scipy.stats import ks_2samp, poisson

from pathent.chsh import (
    CHSH_COMBOS,
    CHSH_SETTINGS,
    chsh_from_correlations,
    decoy_correlation,
    ideal_single_photon_chsh,
    threshold_binning,
)
from pathent.cli import EXIT_OK, main
from pathent.config import ExperimentConfig
from pathent.decoy import (
    DecoyIntensitySet,
    estimate_single_photon_statistic,
)
from pathent.fairsampling import verification_report
from pathent.homodyne import MeasurementSettings, sample_batch
from pathent.states import (
    NoiseModel,
    bell_state,
    compensated_intensity,
)
from pathent.tomography import (
    build_povm_elements,
    fidelity,
    histogram_binning,
    histogram_from_tables,
    mle_reconstruct,
    multiphoton_mass,
)

from helpers import exact_gains, records, window_overlap

NOMINAL_INTENSITIES = (0.0872, 0.2314, 0.9840)
OPERATING_NOISE = NoiseModel(eta_pd=0.617, v_e=2.0 / 3.0)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def correlation(counts) -> float:
    """E = (n00 + n11 - n01 - n10) / survivors from the outcome counts
    (n00, n01, n10, n11) at one threshold."""
    n00, n01, n10, n11 = counts
    return (n00 + n11 - n01 - n10) / (n00 + n01 + n10 + n11)


def test_criterion_1_fair_sampling_factorization():
    t0 = time.perf_counter()
    rep = verification_report(thresholds=(0.2, 0.82, 1.0, 2.0), cutoff=1)
    elapsed = time.perf_counter() - t0
    ok = (
        rep["max_residual"] <= 1e-10
        and rep["theta_independence_residual"] <= 1e-12
        and elapsed < 10.0
    )
    report(
        1,
        "fair-sampling factorization",
        ok,
        f"max residual {rep['max_residual']:.2e}, theta residual "
        f"{rep['theta_independence_residual']:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_window_overlap_identities():
    thresholds = (0.1, 0.5, 1.0, 2.0, 5.0)
    odd = max(abs(window_overlap(0, 1, T)) for T in thresholds)
    even = max(abs(window_overlap(0, 0, T) - float(erf(T))) for T in thresholds)
    ok = odd == 0.0 and even <= 1e-10
    report(
        2,
        "window-overlap identities",
        ok,
        f"odd overlap {odd:.1e}, erf deviation {even:.2e}",
    )


def test_criterion_3_decoy_containment():
    t0 = time.perf_counter()
    iset = DecoyIntensitySet(NOMINAL_INTENSITIES)
    delta = iset.delta
    rng = np.random.default_rng(31415)
    yields = rng.uniform(0.0, 1.0, size=(41, 10_000))
    gains = [exact_gains(yields, mu) for mu in (0.0, *iset.intensities)]
    est = estimate_single_photon_statistic(gains, iset)
    true = yields[1]
    violations = int(np.count_nonzero((true > est + 1e-10) | (true < est - delta - 1e-10)))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report(
        3,
        "decoy estimator containment",
        ok,
        f"{violations} violations in 10000 sequences, Delta={delta:.2e}, {elapsed:.1f} s",
    )


def test_criterion_4_chsh_monte_carlo_vs_oracle():
    thresholds = (0.0, 0.5, 0.82, 1.0)
    tables = [
        sample_batch(
            0.0,
            CHSH_SETTINGS[(la, lb)],
            1_000_000,
            pipeline="ideal-fock",
            seed=9000 + idx,
            workers=4,
            binning=threshold_binning(thresholds),
        )
        for idx, (la, lb) in enumerate(CHSH_COMBOS)
    ]
    worst_sigma = 0.0
    for T in thresholds:
        s_est, var = 0.0, 0.0
        for idx, table in enumerate(tables):
            counts = [int(n) for n in table.counts[table.grid.tolist().index(T)]]
            e = correlation(counts)
            var += (1.0 - e * e) / sum(counts)
            s_est += -e if idx == 3 else e
        sigma = abs(s_est - ideal_single_photon_chsh(T)) / np.sqrt(var)
        worst_sigma = max(worst_sigma, sigma)
    grid = np.arange(0.25, 1.5001, 0.05)
    min_oracle = min(ideal_single_photon_chsh(T) for T in grid)
    ok = worst_sigma <= 3.0 and min_oracle > 2.0
    report(
        4,
        "CHSH Monte Carlo vs quadrature oracle",
        ok,
        f"worst deviation {worst_sigma:.2f} SE, oracle min S {min_oracle:.3f} on [0.25, 1.5]",
    )


def test_criterion_5_decoy_chsh_violation():
    t0 = time.perf_counter()
    iset = DecoyIntensitySet(NOMINAL_INTENSITIES)
    bounds = []
    idx = 0
    for combo in CHSH_COMBOS:
        settings = CHSH_SETTINGS[combo]
        by_intensity = []
        for mu in (0.0,) + iset.intensities:
            binning = threshold_binning([0.82])
            by_intensity.append(
                sample_batch(mu, settings, 1_000_000, seed=1000 + idx, workers=4, binning=binning)
            )
            idx += 1
        bounds.append(decoy_correlation(by_intensity, iset, 0.82))
    res = chsh_from_correlations(*bounds, threshold=0.82)
    elapsed = time.perf_counter() - t0
    ok = res.s_lower >= 2.5 and elapsed < 600.0
    report(
        5,
        "decoy-bounded CHSH violation",
        ok,
        f"S in [{res.s_lower:.4f}, {res.s_upper:.4f}] at T=0.82, {elapsed:.1f} s",
    )


def test_criterion_6_loss_equivalence():
    settings = MeasurementSettings(0.0, np.pi / 4)
    worst_p = 1.0
    for k, mu in enumerate((0.0, 0.984, 2.658)):
        phys = sample_batch(mu, settings, 100_000, OPERATING_NOISE, "physical", seed=600 + k)
        equiv = sample_batch(
            mu, settings, 100_000, OPERATING_NOISE, "equivalent", seed=700 + k
        )
        for x_phys, x_equiv in zip(records(phys), records(equiv)):  # arm a, then arm b
            worst_p = min(worst_p, ks_2samp(x_phys, x_equiv).pvalue)
    # Loss only attenuates a coherent state's intensity: mu -> mu * eta_tot.
    round_trip = max(
        abs(compensated_intensity(mu, OPERATING_NOISE) * OPERATING_NOISE.eta_tot - mu)
        for mu in (0.0872, 0.984, 2.658)
    )
    ok = worst_p > 1e-3 and round_trip < 1e-12
    report(
        6,
        "loss-equivalence of pipelines",
        ok,
        f"worst KS p-value {worst_p:.3f}, intensity round-trip error {round_trip:.1e}",
    )


def test_criterion_7_tomography_self_consistency():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(cutoff=3, max_iterations=6000, tolerance=1e-9, bin_width=0.2, x_range=5.0)
    edges = cfg.bin_edges()
    dthetas = -np.pi + (np.pi / 4.0) * np.arange(8)
    phase_pairs = [(dt / 2.0, -dt / 2.0) for dt in dthetas]
    tables = {
        s: sample_batch(
            0.0,
            MeasurementSettings(*pair),
            100_000,
            pipeline="ideal-fock",
            seed=77 + s,
            workers=4,
            binning=histogram_binning(edges),
        )
        for s, pair in enumerate(phase_pairs)
    }
    hist = histogram_from_tables(tables, edges)
    povm = build_povm_elements(phase_pairs, edges, cfg.cutoff)
    result = mle_reconstruct(hist, povm, cfg.max_iterations, cfg.tolerance)
    fid = fidelity(result.rho, bell_state(cfg.cutoff))
    mass = multiphoton_mass(result.rho)
    ll_drop = float(np.min(np.diff(result.log_likelihood)))
    elapsed = time.perf_counter() - t0
    ok = fid >= 0.98 and mass <= 0.03 and ll_drop >= -1e-10 and elapsed < 300.0
    report(
        7,
        "tomography self-consistency",
        ok,
        f"fidelity {fid:.4f}, multiphoton mass {mass:.4f}, "
        f"min log-likelihood step {ll_drop:.1e}, {result.iterations} iterations, "
        f"{elapsed:.1f} s",
    )


def test_criterion_8_poisson_tail():
    tail = float(poisson.sf(10, 0.984))  # P(N > 10) at the top decoy intensity
    rel = abs(tail - 8.5e-9) / 8.5e-9
    ok = rel <= 0.05
    report(8, "Poisson truncation tail", ok, f"tail {tail:.4e}, relative deviation {rel:.3f}")


SCAN_CONFIG = """\
[noise]
eta_pd = 0.617
v_e = 0.6666666666666666

[sampling]
pipeline = equivalent
samples_per_point = 2000
vacuum_samples = 6000
seed = 7

[chsh]
t_min = 0.4
t_max = 0.8
t_step = 0.2
t_fixed = 0.8

[phases]
n_phases = 4
"""

TOMO_CONFIG = """\
[sampling]
pipeline = ideal-fock
samples_per_point = 3000
vacuum_samples = 3000
seed = 7

[phases]
n_phases = 4

[tomography]
cutoff = 2
bin_width = 0.5
x_range = 4.0
max_iterations = 400
tolerance = 1e-6
"""


def test_criterion_9_cli_determinism(tmp_path):
    import json

    scan_cfg = tmp_path / "scan.ini"
    scan_cfg.write_text(SCAN_CONFIG)
    tomo_cfg = tmp_path / "tomo.ini"
    tomo_cfg.write_text(TOMO_CONFIG)
    jobs = [
        ("simulate", scan_cfg),
        ("correlation-scan", scan_cfg),
        ("chsh-scan", scan_cfg),
        ("decoy-estimate", scan_cfg),
        ("tomography", tomo_cfg),
        ("fair-sampling-check", scan_cfg),
    ]
    mismatches = []
    for command, cfg in jobs:
        blobs = []
        for tag, workers in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            out = tmp_path / f"{command}-{tag}"
            rc = main(
                [
                    command,
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--workers",
                    workers,
                ]
            )
            assert rc == EXIT_OK, f"{command} exited {rc}"
            manifest = json.loads((out / "manifest.json").read_text())
            blobs.append(
                {name: (out / name).read_bytes() for name in manifest["files"]}
            )
        if not (blobs[0] == blobs[1] == blobs[2]):
            mismatches.append(command)
    ok = not mismatches
    report(
        9,
        "CLI determinism",
        ok,
        "all 6 subcommands byte-identical across reruns and workers {1, 4}"
        if ok
        else f"mismatched outputs: {mismatches}",
    )
