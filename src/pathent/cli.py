"""Command-line orchestration for the full desk-scale experiment.

Subcommands: simulate, correlation-scan, chsh-scan, tomography,
decoy-estimate, fair-sampling-check. Every run is deterministic given the
config and seed; repeated invocations (with any --workers value) produce
byte-identical output files. Exit codes: 0 success, 2 config error,
3 acceptance breach, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import chsh as chsh_mod
from . import tomography as tomo_mod
from .config import ConfigError, ExperimentConfig, load_config, with_overrides
from .homodyne import MeasurementSettings, sample_batch
from .states import bell_state, compensated_intensity
from .fairsampling import verification_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREACH = 3
EXIT_NUMERICAL = 4


def _batch_seed(master_seed: int, index: int) -> int:
    return (master_seed * 1_000_003 + index) % (1 << 63)


def _simulate_point(
    config: ExperimentConfig,
    settings: MeasurementSettings,
    intensity_label: int,
    batch_index: int,
):
    """One (setting, intensity) batch. Label 0 is the vacuum; labels 1..L the
    decoy levels, with intensities compensated by 1/eta_tot at the source so
    the post-loss intensities hit the configured targets."""
    if intensity_label == 0:
        mu_target, count = 0.0, config.scaled(config.vacuum_samples)
    else:
        mu_target = config.intensities[intensity_label - 1]
        count = config.scaled(config.samples_per_point)
    mu_source = compensated_intensity(mu_target, config.noise)
    return sample_batch(
        mu=mu_source,
        settings=settings,
        count=count,
        noise=config.noise,
        pipeline=config.pipeline,
        seed=_batch_seed(config.seed, batch_index),
        intensity_label=intensity_label,
        workers=config.workers,
    )


def _chsh_points(config: ExperimentConfig, reduce) -> dict:
    """`reduce` of each (CHSH setting, intensity label) batch, applied as soon
    as the batch is sampled, so only what `reduce` returns stays alive."""
    out = {}
    index = 0
    for combo in chsh_mod.CHSH_COMBOS:
        settings = MeasurementSettings.chsh(*combo)
        for label in range(len(config.intensities) + 1):
            out[(combo, label)] = reduce(_simulate_point(config, settings, label, index))
            index += 1
    return out


def _write_manifest(out_dir: str, config: ExperimentConfig, files: list) -> str:
    for f in files:
        path = os.path.join(out_dir, f)
        if not (os.path.exists(path) and os.path.getsize(path) > 0):
            raise RuntimeError(f"manifest references missing or empty file {f}")
    manifest = {"config_hash": config.content_hash(), "files": sorted(files)}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_simulate(config: ExperimentConfig, out_dir: str) -> int:
    files = []
    for (combo, label), batch in _chsh_points(config, lambda batch: batch).items():
        name = f"batch_a{combo[0]}b{combo[1]}_mu{label}.csv"
        batch.save(os.path.join(out_dir, name))
        files += [name, name.replace(".csv", ".meta.json")]
    _write_manifest(out_dir, config, files)
    return EXIT_OK


def cmd_correlation_scan(config: ExperimentConfig, out_dir: str) -> int:
    rows = []
    index = 10_000  # separate seed stream from the CHSH batches
    for dtheta in config.dtheta_grid():
        settings = MeasurementSettings(phi_a=float(dtheta), phi_b=0.0)
        by_intensity = {}
        for label in range(len(config.intensities) + 1):
            by_intensity[label] = _simulate_point(config, settings, label, index)
            index += 1
        bound = chsh_mod.decoy_correlation(
            by_intensity, config.intensity_set, config.t_fixed
        )
        rows.append((float(dtheta), bound.e_est, bound.e_lower, bound.e_upper))
    path = os.path.join(out_dir, "correlation_scan.csv")
    with open(path, "w") as fh:
        fh.write("dtheta,e_est,e_lower,e_upper\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    _write_manifest(out_dir, config, ["correlation_scan.csv"])
    return EXIT_OK


def cmd_chsh_scan(config: ExperimentConfig, out_dir: str) -> int:
    t_grid = config.t_grid()
    tables = _chsh_points(config, lambda batch: chsh_mod.threshold_counts(batch, t_grid))
    results = chsh_mod.scan_threshold(tables, config.intensity_set, t_grid)
    path = os.path.join(out_dir, "chsh_scan.csv")
    with open(path, "w") as fh:
        fh.write("T,s_est,s_lower,s_upper\n")
        for res in results:
            if res.valid:
                fh.write(
                    f"{res.threshold:.17g},{res.s_est:.17g},"
                    f"{res.s_lower:.17g},{res.s_upper:.17g}\n"
                )
            else:
                fh.write(f"{res.threshold:.17g},invalid,invalid,invalid\n")
    _write_manifest(out_dir, config, ["chsh_scan.csv"])
    return EXIT_OK


def cmd_decoy_estimate(config: ExperimentConfig, out_dir: str) -> int:
    """Decoy-bounded single-photon coincidence probabilities at t_fixed for
    each CHSH setting pair."""
    tables = _chsh_points(
        config, lambda batch: chsh_mod.threshold_counts(batch, [config.t_fixed])
    )
    path = os.path.join(out_dir, "decoy_estimate.csv")
    with open(path, "w") as fh:
        fh.write("setting_a,setting_b,outcome_a,outcome_b,estimate,lower,upper\n")
        for combo in chsh_mod.CHSH_COMBOS:
            by_intensity = {
                label: tables[(combo, label)]
                for label in range(len(config.intensities) + 1)
            }
            bounds = chsh_mod.decoy_coincidence_bounds(
                by_intensity, config.intensity_set, config.t_fixed
            )
            for pair in chsh_mod.OUTCOME_PAIRS:
                b = bounds[pair]
                fh.write(
                    f"{combo[0]},{combo[1]},{pair[0]},{pair[1]},"
                    f"{b.estimate:.17g},{b.lower:.17g},{b.upper:.17g}\n"
                )
    _write_manifest(out_dir, config, ["decoy_estimate.csv"])
    return EXIT_OK


def cmd_tomography(config: ExperimentConfig, out_dir: str) -> int:
    mle_config = tomo_mod.MleConfig(
        cutoff=config.cutoff,
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
        bin_width=config.bin_width,
        x_range=config.x_range,
    )
    edges = mle_config.bin_edges()
    dthetas = config.dtheta_grid()
    # Split each phase difference symmetrically across the two arms: the data
    # depend only on dtheta, but varying both LO phases conditions the
    # reconstruction far better than pinning one arm at phase 0.
    phase_pairs = [(float(dt) / 2.0, -float(dt) / 2.0) for dt in dthetas]
    index = 20_000
    # Each batch is reduced to its count table as soon as it is sampled, so
    # no raw batch outlives its reduction.
    if config.pipeline == "ideal-fock":
        by_setting = {}
        for s, (pa, pb) in enumerate(phase_pairs):
            by_setting[s] = tomo_mod.histogram_counts(
                sample_batch(
                    mu=0.0,
                    settings=MeasurementSettings(phi_a=pa, phi_b=pb),
                    count=config.scaled(config.samples_per_point),
                    pipeline="ideal-fock",
                    seed=_batch_seed(config.seed, index),
                    fock_n=1,
                    workers=config.workers,
                ),
                edges,
            )
            index += 1
        hist = tomo_mod.histogram_from_batches(by_setting, phase_pairs, edges)
    else:
        tables = {}
        for s, (pa, pb) in enumerate(phase_pairs):
            settings = MeasurementSettings(phi_a=pa, phi_b=pb)
            for label in range(len(config.intensities) + 1):
                tables[(s, label)] = tomo_mod.histogram_counts(
                    _simulate_point(config, settings, label, index), edges
                )
                index += 1
        hist = tomo_mod.decoy_corrected_histogram(
            tables, config.intensity_set, phase_pairs, edges
        )
    povm = tomo_mod.build_povm_elements(phase_pairs, edges, config.cutoff)
    result = tomo_mod.mle_reconstruct(hist, povm, mle_config)
    target = bell_state(config.cutoff)
    fid = tomo_mod.fidelity(result.rho, target)
    mass = tomo_mod.multiphoton_mass(result.rho)

    tomo_mod.save_density_matrix(result.rho, os.path.join(out_dir, "density_matrix.txt"))
    with open(os.path.join(out_dir, "tomography_summary.txt"), "w") as fh:
        fh.write(f"fidelity = {fid:.17g}\n")
        fh.write(f"multiphoton_mass = {mass:.17g}\n")
        fh.write(f"iterations = {result.iterations}\n")
        fh.write(f"converged = {result.converged}\n")
        fh.write(f"log_likelihood = {result.log_likelihood[-1]:.17g}\n")
        fh.write(
            "clamp_fraction = "
            + ",".join(f"{v:.17g}" for v in hist.clamp_fraction)
            + "\n"
        )
    _write_manifest(out_dir, config, ["density_matrix.txt", "tomography_summary.txt"])
    if not result.converged:
        tail = ",".join(f"{v:.12g}" for v in result.log_likelihood[-10:])
        print(f"warning: MLE did not converge; last log-likelihoods: {tail}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_fair_sampling_check(config: ExperimentConfig, out_dir: str, cutoff: int = 1) -> int:
    report = verification_report(seed=config.seed, cutoff=cutoff)
    path = os.path.join(out_dir, "fair_sampling_report.txt")
    with open(path, "w") as fh:
        for state_idx, T, res in report["rows"]:
            fh.write(f"state {state_idx} T {T:.17g} residual {res:.3e}\n")
        fh.write(f"max_residual {report['max_residual']:.3e}\n")
        fh.write(
            f"theta_independence_residual {report['theta_independence_residual']:.3e}\n"
        )
        verdict = "PASS" if report["passed"] else "FAIL"
        if cutoff > 1:
            verdict = "REPORT-ONLY (cutoff > 1: factorization scoped to the qubit subspace)"
        fh.write(f"{verdict}\n")
    _write_manifest(out_dir, config, ["fair_sampling_report.txt"])
    if cutoff == 1 and not report["passed"]:
        return EXIT_BREACH
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathent",
        description="Single-photon path entanglement simulation and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "simulate",
        "correlation-scan",
        "chsh-scan",
        "tomography",
        "decoy-estimate",
        "fair-sampling-check",
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--scale", type=int, default=None, help="sample-count divisor")
        p.add_argument("--workers", type=int, default=None, help="parallelism cap")
        if name == "fair-sampling-check":
            p.add_argument(
                "--cutoff", type=int, default=1, help="Fock cutoff (>1 is report-only)"
            )
    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "correlation-scan": cmd_correlation_scan,
    "chsh-scan": cmd_chsh_scan,
    "tomography": cmd_tomography,
    "decoy-estimate": cmd_decoy_estimate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        config = with_overrides(
            config, seed=args.seed, scale=args.scale, workers=args.workers
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "fair-sampling-check":
            return cmd_fair_sampling_check(config, args.out, cutoff=args.cutoff)
        return COMMANDS[args.command](config, args.out)
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
