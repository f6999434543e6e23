"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench -q``. They run
each workload at a small size in-process, so they take about 30 s.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import pathent.cli  # noqa: E402
import pathent.homodyne  # noqa: E402
from pathent.chsh import CHSH_COMBOS, OUTCOME_PAIRS  # noqa: E402
from pathent.config import ExperimentConfig, with_overrides  # noqa: E402

import checks  # noqa: E402
import layer_trace  # noqa: E402
import run  # noqa: E402

SEED = 7
# Small sizes whose vacuum batches still span several 2^16-record chunks, so
# two workers really split the sampling.
SMALL_SCALE = {"chsh-scan": 200, "tomography": 200, "simulate": 400}


def cli_argv(name: str, workers: int, out_dir: Path) -> list[str]:
    return [
        name,
        "--seed", str(SEED),
        "--scale", str(SMALL_SCALE[name]),
        "--workers", str(workers),
        "--out", str(out_dir),
    ]


def small_config(name: str) -> ExperimentConfig:
    return with_overrides(ExperimentConfig(), seed=SEED, scale=SMALL_SCALE[name], workers=2)


def small_facts(name: str) -> dict:
    return checks.run_facts(name, SEED, SMALL_SCALE[name], 2)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict:
    """Each workload's output directory and exit code at --workers 2."""
    out = {}
    for name in run.WORKLOADS:
        out_dir = tmp_path_factory.mktemp(name)
        out[name] = (out_dir, pathent.cli.main(cli_argv(name, 2, out_dir)))
    return out


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_outputs_byte_identical_across_worker_counts(name, outputs, tmp_path):
    two_dir, two_code = outputs[name]
    assert pathent.cli.main(cli_argv(name, 1, tmp_path)) == two_code
    # The manifest's config hash covers --workers, so compare what it lists.
    names = json.loads((two_dir / "manifest.json").read_text())["files"]
    assert names == json.loads((tmp_path / "manifest.json").read_text())["files"]
    for file_name in names:
        assert (tmp_path / file_name).read_bytes() == (two_dir / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_output_check_passes(name, outputs):
    out_dir, _ = outputs[name]
    checks.check_outputs(name, str(out_dir), small_facts(name))


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _break_chsh(out_dir: Path) -> None:
    def edit(lines):
        for i, line in enumerate(lines[1:], start=1):
            t, s_est, s_lower, s_upper = line.strip().split(",")
            if s_est != "invalid":
                lines[i] = f"{t},{float(s_upper) + 0.5!r},{s_lower},{s_upper}\n"
                return lines
        raise AssertionError("no valid row to break")

    _rewrite(out_dir / "chsh_scan.csv", edit)


def _break_density(out_dir: Path) -> None:
    def edit(lines):
        row = lines[1].strip().split(",")
        row[2] = repr(float(row[2]) + 1e-3)  # Re rho[0, 1] only: not Hermitian
        lines[1] = ",".join(row) + "\n"
        return lines

    _rewrite(out_dir / "density_matrix.txt", edit)


def _break_simulate(out_dir: Path) -> None:
    _rewrite(out_dir / "batch_a0b0_mu1.csv", lambda lines: lines[:-1])


BREAKERS = {
    "chsh-scan": _break_chsh,
    "tomography": _break_density,
    "simulate": _break_simulate,
}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_output_check_catches_damage(name, outputs, tmp_path):
    out_dir, _ = outputs[name]
    for path in out_dir.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    facts = small_facts(name)
    with pytest.raises(checks.CheckError):
        checks.check_outputs(name, str(tmp_path), dict(facts, config_hash="0" * 16))
    BREAKERS[name](tmp_path)
    with pytest.raises(checks.CheckError):
        checks.check_outputs(name, str(tmp_path), facts)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_call_counts_match_config(name, outputs, tmp_path):
    subcommand = name
    config = small_config(name)
    record = layer_trace.traced_main(cli_argv(name, 2, tmp_path))
    assert record["exit_code"] == outputs[name][1]
    assert pathent.cli.sample_batch is pathent.homodyne.sample_batch  # wrappers removed
    spans = record["spans"]
    calls = Counter(s["name"] for s in spans)
    parents = {s["name"]: set() for s in spans}
    for s in spans:
        parents[s["name"]].add(spans[s["parent"]]["name"] if s["parent"] is not None else None)

    levels = len(config.intensities) + 1
    n_settings = config.n_phases if subcommand == "tomography" else len(CHSH_COMBOS)
    assert calls[layer_trace.ROOT_SPAN] == 1 and parents[layer_trace.ROOT_SPAN] == {None}
    assert calls["homodyne.sample_batch"] == n_settings * levels
    assert parents["homodyne.sample_batch"] == {layer_trace.ROOT_SPAN}
    sampled = sum(s["records"] for s in spans if s["name"] == "homodyne.sample_batch")
    assert sampled == checks.records_per_run(config, subcommand)

    if subcommand == "chsh-scan":
        bounds_calls = calls["chsh.decoy_coincidence_bounds"]
        assert calls["chsh.decoy_correlation"] == bounds_calls
        assert calls["chsh.bin_coincidences"] == levels * bounds_calls
        assert calls["decoy.estimate"] == len(OUTCOME_PAIRS) * bounds_calls
        assert parents["chsh.bin_coincidences"] == {"chsh.decoy_coincidence_bounds"}
        assert parents["decoy.estimate"] == {"chsh.decoy_coincidence_bounds"}
        assert parents["chsh.decoy_coincidence_bounds"] == {"chsh.decoy_correlation"}
        (scan,) = [s for s in spans if s["name"] == "chsh.scan_threshold"]
        assert scan["tried"] == len(config.t_grid())
        # A valid threshold evaluates every setting; an invalid one stops at
        # the first setting whose correlation bound is degenerate.
        assert len(CHSH_COMBOS) * scan["valid"] <= bounds_calls
        assert bounds_calls <= len(CHSH_COMBOS) * scan["tried"]
        assert parents["chsh.decoy_correlation"] == {"chsh.scan_threshold"}
    if subcommand == "tomography":
        assert calls["tomography.histogram"] == n_settings * levels
        assert parents["tomography.histogram"] == {"tomography.decoy_histogram"}
        assert calls["decoy.estimate"] == n_settings
        assert calls["tomography.decoy_histogram"] == calls["tomography.povm"] == 1
        assert calls["tomography.mle"] == 1
    if subcommand == "simulate":
        assert calls["homodyne.save"] == n_settings * levels
        assert parents["homodyne.save"] == {layer_trace.ROOT_SPAN}

    own = layer_trace.self_times(spans)
    assert min(own) > -1e-9
    root = spans[0]
    assert sum(own) == pytest.approx(root["end"] - root["start"], rel=1e-9)
    names = [m["name"] for m in run.SPEC["per_layer"]]
    metrics = layer_trace.layer_metrics(record, 0.0, names)
    assert list(metrics) == names


def test_unknown_per_layer_metric_is_refused():
    record = {"spans": [], "replay": None}
    with pytest.raises(ValueError):
        layer_trace.layer_metrics(record, 0.0, ["chsh.bin_coincidence.calls"])
    with pytest.raises(ValueError):
        layer_trace.layer_metrics(record, 0.0, ["chsh.bin_coincidences.seconds"])


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_launcher_runs_the_cli_and_stamps_set_up(name, outputs, tmp_path):
    out_dir, code = outputs[name]
    stamp = tmp_path / "stamp"
    argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(stamp), *cli_argv(name, 2, tmp_path / "out")]
    child = run.run_child(argv, tmp_path / "out", stamp)
    assert child.exit_code == code
    assert 0 < child.setup_s < child.wall_s
    for file_name in json.loads((out_dir / "manifest.json").read_text())["files"]:
        assert (tmp_path / "out" / file_name).read_bytes() == (out_dir / file_name).read_bytes()
