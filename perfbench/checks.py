"""Output checks the benchmark runs on every timed pathent CLI run.

Each check reads the files a run wrote and raises ``CheckError`` when they
are wrong. ``facts`` is what ``run_facts`` derives from the run's config
(config hash, threshold grid, batch sizes, Fock cutoff).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Absolute tolerances on the reconstructed density matrix.
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
# Slack on the ordering of reported bounds (the CLI itself allows 1e-12).
BOUND_TOL = 1e-12
S_REPORT_T = 0.82
CHSH_COMBOS = ((0, 0), (1, 0), (0, 1), (1, 1))


def records_per_run(config, subcommand: str) -> int:
    """Quadrature records one CLI run samples, from its config."""
    n_settings = config.n_phases if subcommand == "tomography" else 4
    per_setting = config.scaled(config.vacuum_samples) + len(config.intensities) * config.scaled(
        config.samples_per_point
    )
    return n_settings * per_setting


def run_facts(subcommand: str, seed: int, scale: int, workers: int) -> dict:
    """What the checks need to know about one CLI run, from its config."""
    from pathent.config import ExperimentConfig, with_overrides

    config = with_overrides(ExperimentConfig(), seed=seed, scale=scale, workers=workers)
    return {
        "config_hash": config.content_hash(),
        "records": records_per_run(config, subcommand),
        "levels": len(config.intensities),
        "vacuum_count": config.scaled(config.vacuum_samples),
        "signal_count": config.scaled(config.samples_per_point),
        "t_grid": [float(t) for t in config.t_grid()],
        "cutoff": config.cutoff,
    }


class CheckError(Exception):
    """A run's outputs are missing or wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(len(lines) >= 1, f"{os.path.basename(path)} is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_manifest(out_dir: str, facts: dict, expected_files: set[str]) -> None:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    _require(
        manifest.get("config_hash") == facts["config_hash"],
        f"manifest config hash {manifest.get('config_hash')} != {facts['config_hash']}",
    )
    files = set(manifest.get("files", ()))
    _require(files == expected_files, f"manifest lists {sorted(files)}")
    for name in files:
        path = os.path.join(out_dir, name)
        _require(os.path.isfile(path) and os.path.getsize(path) > 0, f"{name} missing or empty")


def check_chsh_scan(out_dir: str, facts: dict) -> dict:
    header, rows = _read_csv(os.path.join(out_dir, "chsh_scan.csv"))
    _require(header == ["T", "s_est", "s_lower", "s_upper"], f"chsh_scan.csv header {header}")
    grid = facts["t_grid"]
    _require(len(rows) == len(grid), f"{len(rows)} threshold rows, expected {len(grid)}")
    info = {"valid_rows": 0, "s_est_at_0.82": None}
    for row, t in zip(rows, grid):
        _require(len(row) == 4 and float(row[0]) == t, f"threshold row {row} != T={t!r}")
        if row[1] == "invalid":
            _require(row[2:] == ["invalid", "invalid"], f"partially invalid row {row}")
            continue
        s_est, s_lower, s_upper = map(float, row[1:])
        _require(
            s_lower - BOUND_TOL <= s_est <= s_upper + BOUND_TOL,
            f"T={t}: s_est {s_est} outside [{s_lower}, {s_upper}]",
        )
        _require(abs(s_est) <= 4.0 + BOUND_TOL, f"T={t}: |S| = {abs(s_est)} > 4")
        info["valid_rows"] += 1
        if math.isclose(t, S_REPORT_T, abs_tol=1e-9):
            info["s_est_at_0.82"] = s_est
    return info


def check_tomography(out_dir: str, facts: dict) -> dict:
    with open(os.path.join(out_dir, "density_matrix.txt")) as fh:
        dim = int(fh.readline())
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    expected_dim = (facts["cutoff"] + 1) ** 2
    _require(dim == expected_dim, f"density matrix dimension {dim} != {expected_dim}")
    _require(values.shape == (dim, 2 * dim), f"density matrix shape {values.shape}")
    rho = values[:, 0::2] + 1j * values[:, 1::2]
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    _require(herm <= HERMITIAN_TOL, f"density matrix not Hermitian (max |rho - rho^H| = {herm})")
    trace = complex(np.trace(rho))
    _require(abs(trace - 1.0) <= TRACE_TOL, f"density matrix trace {trace}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    _require(min_eig >= -PSD_TOL, f"density matrix not PSD (min eigenvalue {min_eig})")
    summary = {}
    with open(os.path.join(out_dir, "tomography_summary.txt")) as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            summary[key] = value.strip()
    return {
        "min_eigenvalue": min_eig,
        "iterations": int(summary["iterations"]),
        "converged": summary["converged"] == "True",
        "fidelity": float(summary["fidelity"]),
    }


def simulate_files(facts: dict) -> dict[str, int]:
    """CSV name -> expected row count for a ``simulate`` run."""
    out = {}
    for a, b in CHSH_COMBOS:
        for label in range(facts["levels"] + 1):
            count = facts["vacuum_count"] if label == 0 else facts["signal_count"]
            out[f"batch_a{a}b{b}_mu{label}.csv"] = count
    return out


def check_simulate(out_dir: str, facts: dict) -> dict:
    total_rows = 0
    for name, count in simulate_files(facts).items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
        _require(rows == count, f"{name}: {rows} rows, expected {count}")
        with open(os.path.join(out_dir, name.replace(".csv", ".meta.json"))) as fh:
            meta = json.load(fh)
        _require(meta["count"] == count, f"{name} sidecar count {meta['count']} != {count}")
        total_rows += rows
    return {"rows": total_rows}


CHECKS = {
    "chsh-scan": check_chsh_scan,
    "tomography": check_tomography,
    "simulate": check_simulate,
}


def expected_files(subcommand: str, facts: dict) -> set[str]:
    """The files a run's manifest must list."""
    if subcommand == "simulate":
        csvs = simulate_files(facts)
        return set(csvs) | {name.replace(".csv", ".meta.json") for name in csvs}
    return {
        "chsh-scan": {"chsh_scan.csv"},
        "tomography": {"density_matrix.txt", "tomography_summary.txt"},
    }[subcommand]


def check_outputs(subcommand: str, out_dir: str, facts: dict) -> dict:
    """Run the manifest check and the subcommand's own check."""
    try:
        check_manifest(out_dir, facts, expected_files(subcommand, facts))
        return CHECKS[subcommand](out_dir, facts)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckError(f"{type(exc).__name__}: {exc}") from exc
