"""Command-line orchestration for the full desk-scale experiment.

`COMMANDS` maps each subcommand (simulate, correlation-scan, chsh-scan,
tomography, decoy-estimate, fair-sampling-check) to its `cmd_*(config, args)`;
the parser and `main` both read it. Every file but the `simulate` batches and
their sidecars goes through `_write_lines`. Every run is deterministic given
the config and seed; repeated invocations produce byte-identical output
files. Every batch is drawn on the main thread: no run starts a thread, and
--workers (like `[run] workers`) is accepted but has no effect. Exit codes:
0 success, 2 config error, 3 acceptance breach, 4 numerical failure.
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
from .fairsampling import THRESHOLDS, verification_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREACH = 3
EXIT_NUMERICAL = 4

# Subcommands that decoy-bound gains across intensity labels. The ideal-fock
# pipeline samples one single-photon state for every label, vacuum included.
DECOY_COMMANDS = ("chsh-scan", "decoy-estimate", "correlation-scan")

# The overlap tests hold every window entry to 1e-13 only up to cutoff 100.
# There fair-sampling-check takes ~0.3 s and ~37 MB (2-core host), little
# more than at cutoff 1.
MAX_FAIR_SAMPLING_CUTOFF = 100


def _batch_seed(master_seed: int, index: int) -> int:
    """Seed of the batch with this index. Indices count from 0 over the CHSH
    batches (simulate, chsh-scan, decoy-estimate), from 10_000 in
    correlation-scan and from 20_000 in tomography."""
    return (master_seed * 1_000_003 + index) % (1 << 63)


def _sweep(config: ExperimentConfig, settings: dict, first_index: int, binning=None) -> dict:
    """Per key of `settings`, one batch per intensity label, in label order:
    its count table under `binning` or, with none, the undrawn batch. The
    i-th batch sampled, key by key and label by label, has batch index
    first_index + i. Label 0 is the vacuum, on vacuum_samples records; labels
    1..L, on samples_per_point each, are the decoy levels, compensated by
    1/eta_tot at the source so the post-loss intensities hit their targets.
    Ideal-fock samples no vacuum: its one label, None, is the noiseless |1>
    source. Before sampling, stderr names each count used that the scale
    divisor clamps to 1 record per batch."""
    ideal = config.pipeline == "ideal-fock"
    labels = [None] if ideal else range(len(config.intensities) + 1)
    count_of = {label: "vacuum_samples" if label == 0 else "samples_per_point" for label in labels}
    clamped = [
        f"{n} = {getattr(config, n)}"
        for n in dict.fromkeys(count_of.values())
        if getattr(config, n) < config.scale
    ]
    if clamped:
        print(
            f"warning: scale {config.scale} clamps {' and '.join(clamped)} to 1 record per batch",
            file=sys.stderr,
        )
    noise = IDEAL_NOISE if ideal else config.noise
    index = itertools.count(first_index)
    return {
        key: [
            sample_batch(
                mu=compensated_intensity(config.intensities[label - 1] if label else 0.0, noise),
                settings=setting,
                count=config.scaled(getattr(config, count_of[label])),
                noise=noise,
                pipeline=config.pipeline,
                seed=_batch_seed(config.seed, next(index)),
                intensity_label=label or 0,
                binning=binning,
            )
            for label in labels
        ]
        for key, setting in settings.items()
    }


def _csv_line(row) -> str:
    """`row` as one CSV line: numbers as .17g, strings as they are."""
    return ",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row)


def _write_lines(out_dir: str, name: str, lines) -> str:
    """Write each of `lines` and a newline: the one output writer."""
    with open(os.path.join(out_dir, name), "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    return name


def _write_manifest(out_dir: str, config: ExperimentConfig, files: list, **inputs) -> None:
    """List `files` with the config's hash and any other `inputs` the run
    read, such as fair-sampling-check's --cutoff."""
    for f in files:
        path = os.path.join(out_dir, f)
        if not (os.path.exists(path) and os.path.getsize(path) > 0):
            raise RuntimeError(f"manifest references missing or empty file {f}")
    manifest = {"config_hash": config.content_hash(), "files": sorted(files), **inputs}
    _write_lines(out_dir, "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True)])


def cmd_simulate(config: ExperimentConfig, args) -> tuple[int, list]:
    """Save each CHSH batch, undrawn until then, as
    `batch_a<a>b<b>_mu<label>.csv` with its JSON sidecar."""
    files = []
    for batches in _sweep(config, chsh_mod.CHSH_SETTINGS, 0).values():
        for batch in batches:
            settings = batch.settings
            name = f"batch_a{settings.label_a}b{settings.label_b}_mu{batch.intensity_label}.csv"
            files += [os.path.basename(p) for p in batch.save(os.path.join(args.out, name))]
    return EXIT_OK, files


def cmd_correlation_scan(config: ExperimentConfig, args) -> tuple[int, list]:
    """Decoy-bounded correlation at t_fixed per phase difference. A phase
    whose bound has a zero denominator is written `invalid`, as
    `scan_threshold` marks a threshold."""
    settings = {
        float(dtheta): MeasurementSettings(phi_a=float(dtheta), phi_b=0.0)
        for dtheta in config.dtheta_grid()
    }
    binning = chsh_mod.threshold_binning([config.t_fixed])
    iset = config.intensity_set
    rows = []
    for dtheta, tables in _sweep(config, settings, 10_000, binning).items():
        try:
            rows.append((dtheta, *chsh_mod.decoy_correlation(tables, iset, config.t_fixed)))
        except ZeroDivisionError:
            rows.append((dtheta, "invalid", "invalid", "invalid"))
    lines = ["dtheta,e_est,e_lower,e_upper", *map(_csv_line, rows)]
    return EXIT_OK, [_write_lines(args.out, "correlation_scan.csv", lines)]


def cmd_chsh_scan(config: ExperimentConfig, args) -> tuple[int, list]:
    t_grid = config.t_grid()
    tables = _sweep(config, chsh_mod.CHSH_SETTINGS, 0, chsh_mod.threshold_binning(t_grid))
    rows = [
        (r.threshold, r.s_est, r.s_lower, r.s_upper)
        if r.valid
        else (r.threshold, "invalid", "invalid", "invalid")
        for r in chsh_mod.scan_threshold(tables, config.intensity_set, t_grid)
    ]
    lines = ["T,s_est,s_lower,s_upper", *map(_csv_line, rows)]
    return EXIT_OK, [_write_lines(args.out, "chsh_scan.csv", lines)]


def cmd_decoy_estimate(config: ExperimentConfig, args) -> tuple[int, list]:
    """Decoy-bounded single-photon coincidence probabilities at t_fixed for
    each CHSH setting pair."""
    binning = chsh_mod.threshold_binning([config.t_fixed])
    iset = config.intensity_set
    rows = []
    for combo, tables in _sweep(config, chsh_mod.CHSH_SETTINGS, 0, binning).items():
        bounds = chsh_mod.decoy_coincidence_bounds(tables, iset, config.t_fixed)
        for pair, bound in zip(chsh_mod.OUTCOME_PAIRS, zip(*bounds)):
            rows.append((*combo, *pair, *bound))
    lines = ["setting_a,setting_b,outcome_a,outcome_b,estimate,lower,upper", *map(_csv_line, rows)]
    return EXIT_OK, [_write_lines(args.out, "decoy_estimate.csv", lines)]


def cmd_tomography(config: ExperimentConfig, args) -> tuple[int, list]:
    edges = config.bin_edges()
    # Split each phase difference symmetrically across the two arms: the data
    # depend only on dtheta, but varying both LO phases conditions the
    # reconstruction far better than pinning one arm at phase 0.
    phase_pairs = [(float(dt) / 2.0, -float(dt) / 2.0) for dt in config.dtheta_grid()]
    settings = {s: MeasurementSettings(*pair) for s, pair in enumerate(phase_pairs)}

    tables = _sweep(config, settings, 20_000, tomo_mod.histogram_binning(edges))
    if config.pipeline == "ideal-fock":
        by_setting = {s: table for s, (table,) in tables.items()}
        hist = tomo_mod.histogram_from_tables(by_setting, edges)
    else:
        hist = tomo_mod.decoy_corrected_histogram(tables, config.intensity_set, edges)
    povm = tomo_mod.build_povm_elements(phase_pairs, edges, config.cutoff)
    result = tomo_mod.mle_reconstruct(hist, povm, config.max_iterations, config.tolerance)
    target = bell_state(config.cutoff)
    fid = tomo_mod.fidelity(result.rho, target)
    mass = tomo_mod.multiphoton_mass(result.rho)

    # Dimension header, then each row's re,im pairs as (faster) Python floats.
    rows = map(_csv_line, result.rho.view(float).tolist())
    _write_lines(args.out, "density_matrix.txt", [str(result.rho.shape[0]), *rows])
    summary = [
        f"fidelity = {fid:.6f}",
        f"multiphoton_mass = {mass:.17g}",
        f"iterations = {result.iterations}",
        f"converged = {result.converged}",
        f"log_likelihood = {result.log_likelihood[-1]:.17g}",
        f"likelihood_gap = {result.likelihood_gap:.17g}",
        f"clamp_fraction = {_csv_line(hist.clamp_fraction)}",
    ]
    _write_lines(args.out, "tomography_summary.txt", summary)
    files = ["density_matrix.txt", "tomography_summary.txt"]
    if not result.converged:
        tail = ",".join(f"{v:.12g}" for v in result.log_likelihood[-10:])
        print(f"warning: MLE did not converge; last log-likelihoods: {tail}", file=sys.stderr)
        return EXIT_NUMERICAL, files
    return EXIT_OK, files


def cmd_fair_sampling_check(config: ExperimentConfig, args) -> tuple[int, list]:
    cutoff = args.cutoff
    thresholds = sorted({*THRESHOLDS, config.t_fixed})
    report = verification_report(thresholds=thresholds, cutoff=cutoff)
    verdict = "PASS" if report["passed"] else "FAIL"
    if cutoff > 1:
        verdict = "REPORT-ONLY (cutoff > 1: factorization scoped to the qubit subspace)"
    lines = [
        *(f"T {T:.17g} q0 {q0:.17g} q1 {q1:.17g}" for T, q0, q1 in report["rows"]),
        f"max_residual {report['max_residual']:.3e}",
        f"theta_independence_residual {report['theta_independence_residual']:.3e}",
        verdict,
    ]
    code = EXIT_BREACH if cutoff == 1 and not report["passed"] else EXIT_OK
    return code, [_write_lines(args.out, "fair_sampling_report.txt", lines)]


# Each subcommand returns its exit code and the files it wrote, which `main`
# lists in the manifest.
COMMANDS = {
    "simulate": cmd_simulate,
    "correlation-scan": cmd_correlation_scan,
    "chsh-scan": cmd_chsh_scan,
    "tomography": cmd_tomography,
    "decoy-estimate": cmd_decoy_estimate,
    "fair-sampling-check": cmd_fair_sampling_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathent",
        description="Single-photon path entanglement simulation and certification",
        epilog=(
            "pipeline = physical changes only simulate's records: every analysis output is "
            "byte-identical to pipeline = equivalent's but for the manifest's config hash."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--scale", type=int, default=None, help="sample-count divisor")
        p.add_argument("--workers", type=int, default=None, help="accepted; has no effect")
        if name == "fair-sampling-check":
            p.add_argument(
                "--cutoff", type=int, default=1, help="Fock cutoff (>1 is report-only)"
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        config = with_overrides(
            config, seed=args.seed, scale=args.scale, workers=args.workers
        )
        if args.command in DECOY_COMMANDS and config.pipeline == "ideal-fock":
            raise ConfigError(f"{args.command} needs decoy data; pipeline ideal-fock has none")
        if args.command == "fair-sampling-check" and not 1 <= args.cutoff <= MAX_FAIR_SAMPLING_CUTOFF:
            raise ConfigError(
                f"--cutoff must be from 1 to {MAX_FAIR_SAMPLING_CUTOFF}, got {args.cutoff}"
            )
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out {args.out!r}: {exc.strerror}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code, files = COMMANDS[args.command](config, args)
        inputs = {}
        if args.command == "fair-sampling-check":  # reads only t_fixed and --cutoff
            config, inputs = ExperimentConfig(t_fixed=config.t_fixed), {"cutoff": args.cutoff}
        _write_manifest(args.out, config, files, **inputs)
        return code
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
