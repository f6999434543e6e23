"""Command-line orchestration for the full desk-scale experiment.

Subcommands: simulate, correlation-scan, chsh-scan, tomography,
decoy-estimate, fair-sampling-check. Every run is deterministic given the
config and seed; repeated invocations (with any --workers value) produce
byte-identical output files. Exit codes: 0 success, 2 config error,
3 acceptance breach, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import chsh as chsh_mod
from . import tomography as tomo_mod
from .config import ConfigError, ExperimentConfig, load_config, with_overrides
from .homodyne import MeasurementSettings, sample_batch
from .states import IDEAL_NOISE, bell_state, compensated_intensity
from .fairsampling import verification_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREACH = 3
EXIT_NUMERICAL = 4

CHSH_SETTINGS = {combo: MeasurementSettings.chsh(*combo) for combo in chsh_mod.CHSH_COMBOS}

# Subcommands that decoy-bound gains across intensity labels. The ideal-fock
# pipeline samples one single-photon state for every label, vacuum included.
DECOY_COMMANDS = ("chsh-scan", "decoy-estimate", "correlation-scan")


def _batch_seed(master_seed: int, index: int) -> int:
    """Seed of the batch with this index. Indices count from 0 over the CHSH
    batches (simulate, chsh-scan, decoy-estimate), from 10_000 in
    correlation-scan and from 20_000 in tomography."""
    return (master_seed * 1_000_003 + index) % (1 << 63)


def _simulate_point(
    config: ExperimentConfig,
    settings: MeasurementSettings,
    intensity_label: int | None,
    batch_index: int,
):
    """One batch at `settings`. Label 0 is the vacuum; labels 1..L the decoy
    levels, with intensities compensated by 1/eta_tot at the source so the
    post-loss intensities hit the configured targets. Label None is the
    noiseless single-photon source that ideal-fock tomography measures."""
    mu_target = config.intensities[intensity_label - 1] if intensity_label else 0.0
    count = config.vacuum_samples if intensity_label == 0 else config.samples_per_point
    noise = IDEAL_NOISE if intensity_label is None else config.noise
    return sample_batch(
        mu=compensated_intensity(mu_target, noise),
        settings=settings,
        count=config.scaled(count),
        noise=noise,
        pipeline=config.pipeline,
        seed=_batch_seed(config.seed, batch_index),
        intensity_label=intensity_label or 0,
        workers=config.workers,
    )


def _sweep(
    config: ExperimentConfig, settings: dict, first_index: int, reduce, labels=None
) -> dict:
    """Per key of `settings`, `reduce` of one batch per intensity label, in
    label order. Batches are sampled key by key and label by label, the i-th
    with batch index first_index + i, and each is reduced as soon as it is
    sampled, so only what `reduce` returns stays alive. `labels` defaults to
    the vacuum and every decoy level."""
    if labels is None:
        labels = range(len(config.intensities) + 1)
    index = itertools.count(first_index)
    return {
        key: [reduce(_simulate_point(config, setting, label, next(index))) for label in labels]
        for key, setting in settings.items()
    }


def _tables_at_t_fixed(config: ExperimentConfig, settings: dict, first_index: int) -> dict:
    """Per key of `settings`, its count tables at t_fixed by intensity label."""
    return _sweep(
        config, settings, first_index, lambda b: chsh_mod.threshold_counts(b, [config.t_fixed])
    )


def _warn_if_clamped(config: ExperimentConfig) -> None:
    """Say on stderr when the scale divisor leaves a batch count below 1,
    so that batches run on 1 record each."""
    used = ["samples_per_point"]
    if config.pipeline != "ideal-fock":  # ideal-fock samples no vacuum batch
        used.insert(0, "vacuum_samples")
    clamped = [f"{n} = {getattr(config, n)}" for n in used if getattr(config, n) < config.scale]
    if clamped:
        print(
            f"warning: scale {config.scale} clamps {' and '.join(clamped)} to 1 record per batch",
            file=sys.stderr,
        )


def _write_csv(out_dir: str, name: str, header: str, rows) -> str:
    """Write `rows` under `header`: numbers as .17g, strings as they are."""
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")
    return name


def _write_manifest(out_dir: str, config: ExperimentConfig, files: list) -> None:
    for f in files:
        path = os.path.join(out_dir, f)
        if not (os.path.exists(path) and os.path.getsize(path) > 0):
            raise RuntimeError(f"manifest references missing or empty file {f}")
    manifest = {"config_hash": config.content_hash(), "files": sorted(files)}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(config: ExperimentConfig, out_dir: str) -> tuple[int, list]:
    def save(batch) -> list:
        settings = batch.settings
        name = f"batch_a{settings.label_a}b{settings.label_b}_mu{batch.intensity_label}.csv"
        batch.save(os.path.join(out_dir, name))
        return [name, name.replace(".csv", ".meta.json")]

    # ideal-fock has no intensity labels: one noiseless |1> batch per setting.
    labels = [None] if config.pipeline == "ideal-fock" else None
    saved = _sweep(config, CHSH_SETTINGS, 0, save, labels)
    return EXIT_OK, [name for by_label in saved.values() for names in by_label for name in names]


def cmd_correlation_scan(config: ExperimentConfig, out_dir: str) -> tuple[int, list]:
    settings = {
        float(dtheta): MeasurementSettings(phi_a=float(dtheta), phi_b=0.0)
        for dtheta in config.dtheta_grid()
    }
    iset = config.intensity_set
    rows = []
    for dtheta, tables in _tables_at_t_fixed(config, settings, 10_000).items():
        rows.append((dtheta, *chsh_mod.decoy_correlation(tables, iset, config.t_fixed)))
    header = "dtheta,e_est,e_lower,e_upper"
    return EXIT_OK, [_write_csv(out_dir, "correlation_scan.csv", header, rows)]


def cmd_chsh_scan(config: ExperimentConfig, out_dir: str) -> tuple[int, list]:
    t_grid = config.t_grid()
    tables = _sweep(config, CHSH_SETTINGS, 0, lambda b: chsh_mod.threshold_counts(b, t_grid))
    rows = [
        (r.threshold, r.s_est, r.s_lower, r.s_upper)
        if r.valid
        else (r.threshold, "invalid", "invalid", "invalid")
        for r in chsh_mod.scan_threshold(tables, config.intensity_set, t_grid)
    ]
    return EXIT_OK, [_write_csv(out_dir, "chsh_scan.csv", "T,s_est,s_lower,s_upper", rows)]


def cmd_decoy_estimate(config: ExperimentConfig, out_dir: str) -> tuple[int, list]:
    """Decoy-bounded single-photon coincidence probabilities at t_fixed for
    each CHSH setting pair."""
    iset = config.intensity_set
    rows = []
    for combo, tables in _tables_at_t_fixed(config, CHSH_SETTINGS, 0).items():
        bounds = chsh_mod.decoy_coincidence_bounds(tables, iset, config.t_fixed)
        for pair, bound in zip(chsh_mod.OUTCOME_PAIRS, zip(*bounds)):
            rows.append((*combo, *pair, *bound))
    header = "setting_a,setting_b,outcome_a,outcome_b,estimate,lower,upper"
    return EXIT_OK, [_write_csv(out_dir, "decoy_estimate.csv", header, rows)]


def cmd_tomography(config: ExperimentConfig, out_dir: str) -> tuple[int, list]:
    mle_config = config.mle
    edges = mle_config.bin_edges()
    # Split each phase difference symmetrically across the two arms: the data
    # depend only on dtheta, but varying both LO phases conditions the
    # reconstruction far better than pinning one arm at phase 0.
    phase_pairs = [(float(dt) / 2.0, -float(dt) / 2.0) for dt in config.dtheta_grid()]
    settings = {s: MeasurementSettings(*pair) for s, pair in enumerate(phase_pairs)}

    def reduce(batch):
        return tomo_mod.histogram_counts(batch, edges)

    if config.pipeline == "ideal-fock":
        tables = _sweep(config, settings, 20_000, reduce, labels=[None])
        by_setting = {s: table for s, (table,) in tables.items()}
        hist = tomo_mod.histogram_from_tables(by_setting, phase_pairs, edges)
    else:
        tables = _sweep(config, settings, 20_000, reduce)
        hist = tomo_mod.decoy_corrected_histogram(tables, config.intensity_set, phase_pairs, edges)
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
    files = ["density_matrix.txt", "tomography_summary.txt"]
    if not result.converged:
        tail = ",".join(f"{v:.12g}" for v in result.log_likelihood[-10:])
        print(f"warning: MLE did not converge; last log-likelihoods: {tail}", file=sys.stderr)
        return EXIT_NUMERICAL, files
    return EXIT_OK, files


def cmd_fair_sampling_check(
    config: ExperimentConfig, out_dir: str, cutoff: int = 1
) -> tuple[int, list]:
    # Any integer seeds the report, as it does the sampling subcommands.
    report = verification_report(seed=config.seed % (1 << 63), cutoff=cutoff)
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
    code = EXIT_BREACH if cutoff == 1 and not report["passed"] else EXIT_OK
    return code, ["fair_sampling_report.txt"]


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


# Each subcommand returns its exit code and the files it wrote, which `main`
# lists in the manifest.
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
        if args.command in DECOY_COMMANDS and config.pipeline == "ideal-fock":
            raise ConfigError(f"{args.command} needs decoy data; pipeline ideal-fock has none")
        if args.command == "fair-sampling-check" and args.cutoff < 1:
            raise ConfigError(f"--cutoff must be at least 1, got {args.cutoff}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "fair-sampling-check":
            code, files = cmd_fair_sampling_check(config, args.out, cutoff=args.cutoff)
        else:
            _warn_if_clamped(config)
            code, files = COMMANDS[args.command](config, args.out)
        _write_manifest(args.out, config, files)
        return code
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
