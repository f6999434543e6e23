#!/usr/bin/env python3
"""pathent benchmark: run the real CLI, one subcommand at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload chsh-scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` times untraced CLI subprocesses (``launch.py``, which runs
``pathent.cli.main`` with ``PYTHONPATH=src`` and notes when its set-up ends)
back to back for ``--seconds`` and prints the end-to-end metrics named in
``BENCHMARK.json``. ``--trace 1`` alternates an untraced run with a traced
run of the same workload (see ``layer_trace.py``) and prints the per-layer
metrics named there. Every run's outputs are checked. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

NPROC = len(os.sched_getaffinity(0))
# Every timed run keeps one thread busy: one sampler worker and one BLAS
# thread. On a shared 2-core host a run that needs both cores slows by up to
# 1.8x whenever another tenant takes one of them (README.md); a run on one
# core barely moves. Set before numpy is imported here, and inherited by
# every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import layer_trace  # noqa: E402

WORKERS = 1
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150

# Names, units and reasons of the workloads and metrics.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


@dataclass(frozen=True)
class Workload:
    # --scale of the run; the workload's name is its pathent subcommand.
    scale: int
    # Self-time shares measured with the traced run at this scale.
    measured_shares: str


WORKLOADS = {
    "chsh-scan": Workload(
        30, "chsh.bin_coincidences 77%, homodyne.sample_batch 18%, chsh.decoy_coincidence_bounds 2.5%, decoy.estimate 2.3%"
    ),
    "tomography": Workload(
        30, "tomography.mle 50% (500 iterations x ~9 ms), homodyne.sample_batch 29%, tomography.histogram 20%"
    ),
    "simulate": Workload(120, "homodyne.save 95%, homodyne.sample_batch 4.5%"),
}


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    maxrss_mb: float
    # Spawn to the end of the child's set-up, for runs started by launch.py.
    setup_s: float | None
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], out_dir: Path, stamp: Path | None = None) -> ChildRun:
    """Spawn one child, time it from spawn to exit and read its ru_maxrss.
    A child that writes ``time.monotonic()`` to ``stamp`` marks the end of
    its set-up."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stderr_path = out_dir / "child.stderr"
    with open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - start if stamp is not None and stamp.is_file() else None
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0, setup, stderr_path.read_text())


def cli_args(name: str, seed: int, out_dir: Path) -> list[str]:
    return [
        name,
        "--seed", str(seed),
        "--scale", str(WORKLOADS[name].scale),
        "--workers", str(WORKERS),
        "--out", str(out_dir),
    ]


def run_cli(name: str, seed: int, out_dir: Path, setup_only: bool = False) -> ChildRun:
    """One untraced CLI run in a fresh interpreter, through launch.py; with
    ``setup_only`` the child exits when its set-up ends."""
    stamp = OUT / "setup.stamp"
    stamp.unlink(missing_ok=True)
    argv = [
        sys.executable, str(BENCH_DIR / "launch.py"), str(stamp),
        *(["--setup-only"] if setup_only else []), *cli_args(name, seed, out_dir),
    ]
    return run_child(argv, out_dir, stamp)


def keep_going(start: float, seconds: float, durations: list[float], minimum: int) -> bool:
    """Start another measurement while it is expected to end in the window."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


class Tally:
    """Attempted and failed CLI runs; a run fails when it exits non-zero or
    its outputs fail the check. ``correct`` is false when any check failed."""

    def __init__(self, name: str, facts: dict):
        self.name, self.facts = name, facts
        self.attempted = self.failed = 0
        self.correct = True
        self.infos: list[dict] = []

    def record(self, label: str, exit_code: int, wall_s: float, rss_mb: float, out_dir: Path) -> None:
        self.attempted += 1
        try:
            info = checks.check_outputs(self.name, str(out_dir), self.facts)
            verdict = "check ok"
        except checks.CheckError as exc:
            info, verdict = {}, f"CHECK FAILED: {exc}"
            self.correct = False
        self.infos.append(info)
        if exit_code != 0 or verdict != "check ok":
            self.failed += 1
        extra = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items())
        print(f"  {label}: exit {exit_code}, {wall_s:.3f} s, {rss_mb:.0f} MB, {verdict} {extra}")


def run_end_to_end(name: str, seed: int, seconds: float, tally: Tally) -> dict:
    start = time.perf_counter()
    out_dir = OUT / "run"
    walls, rss, setups, cycles = [], [], [], []
    while keep_going(start, seconds, cycles, MIN_RUNS):
        cycle_start = time.perf_counter()
        shutil.rmtree(out_dir, ignore_errors=True)
        run = run_cli(name, seed, out_dir)
        walls.append(run.wall_s)
        rss.append(run.maxrss_mb)
        if run.setup_s is not None:
            setups.append(run.setup_s)
            print(f"  set-up {len(walls)}: {run.setup_s:.3f} s")
        tally.record(f"run {len(walls)}", run.exit_code, run.wall_s, run.maxrss_mb, out_dir)
        cycles.append(time.perf_counter() - cycle_start)
    if not setups:
        raise BenchError(f"no CLI run finished its set-up:\n{run.stderr}")
    # Spend the rest of the window on set-up probes: more set-up samples,
    # no fewer CLI runs.
    while keep_going(start, seconds, setups, 0):
        probe = run_cli(name, seed, OUT / "probe", setup_only=True)
        if probe.exit_code != 0 or probe.setup_s is None:
            raise BenchError(f"set-up probe failed (exit {probe.exit_code}):\n{probe.stderr}")
        setups.append(probe.setup_s)
        print(f"  set-up probe: {probe.setup_s:.3f} s")
    wall = statistics.median(walls)
    if name == "chsh-scan":
        report_chsh_oracle(tally)
    return {
        "wall_s": wall,
        "records_per_s": tally.facts["records"] / wall,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }


def report_chsh_oracle(tally: Tally) -> None:
    """S at T = 0.82 beside the n = 1 oracle. Reported, not gated: the gap
    is sampling error that the reported interval does not yet carry."""
    from pathent.chsh import ideal_single_photon_chsh

    values = [info["s_est_at_0.82"] for info in tally.infos if info.get("s_est_at_0.82") is not None]
    oracle = ideal_single_photon_chsh(checks.S_REPORT_T)
    shown = ", ".join(f"{v:.4f}" for v in values) or "none"
    print(f"  S(T=0.82) = {shown}; oracle ideal_single_photon_chsh(0.82) = {oracle:.4f} (not gated)")


def run_traced(name: str, seed: int, seconds: float, tally: Tally) -> dict:
    start = time.perf_counter()
    out_dir, record_path = OUT / "run", OUT / "trace.json"
    traced_argv = [
        sys.executable, str(BENCH_DIR / "layer_trace.py"), str(record_path), *cli_args(name, seed, out_dir)
    ]
    names = [m["name"] for m in SPEC["per_layer"]]
    per_pair: list[dict] = []
    pair_walls: list[float] = []
    while keep_going(start, seconds, pair_walls, 1):
        pair = len(per_pair) + 1
        pair_start = time.perf_counter()
        walls = {}
        # Alternate which of the two runs goes first, so warm-up effects
        # cancel in the overhead.
        for traced in (pair % 2 == 0, pair % 2 == 1):
            shutil.rmtree(out_dir, ignore_errors=True)
            if not traced:
                plain = run_cli(name, seed, out_dir)
                walls["untraced"] = plain.wall_s
                tally.record(f"untraced {pair}", plain.exit_code, plain.wall_s, plain.maxrss_mb, out_dir)
                continue
            child = run_child(traced_argv, out_dir)
            if child.exit_code != 0:
                raise BenchError(f"traced run failed (exit {child.exit_code}):\n{child.stderr}")
            record = json.loads(record_path.read_text())
            # The sampler replay runs after cli.main; it is not tracing overhead.
            walls["traced"] = child.wall_s - (record["replay"]["total_s"] if record["replay"] else 0.0)
            tally.record(f"traced {pair}", record["exit_code"], walls["traced"], child.maxrss_mb, out_dir)
        per_pair.append(layer_trace.layer_metrics(record, walls["traced"] - walls["untraced"], names))
        pair_walls.append(time.perf_counter() - pair_start)
    metrics = {m: statistics.median(p[m] for p in per_pair) for m in names}
    print_shares(metrics)
    return metrics


def print_shares(metrics: dict) -> None:
    traced = metrics["cli.traced_s"]
    layers = sorted(
        (m[: -len(".self_s")] for m, v in metrics.items() if m.endswith(".self_s") and v > 0),
        key=lambda layer: -metrics[f"{layer}.self_s"],
    )
    shares = ", ".join(f"{layer} {100 * metrics[f'{layer}.self_s'] / traced:.1f}%" for layer in layers)
    print(f"  self-time shares of traced cli.main ({traced:.3f} s): {shares}")


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if not found."""
    import ctypes

    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(name: str, seed: int, facts: dict) -> dict:
    return {
        "workload": name,
        "git_sha": git_sha(),
        "config_hash": facts["config_hash"],
        "seed": seed,
        "cli": "pathent " + " ".join(cli_args(name, seed, Path("<out>"))),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "why": WHY[name],
        "measured_shares": WORKLOADS[name].measured_shares,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    print(f"workload {name}: pathent {' '.join(cli_args(name, seed, OUT / 'run'))}")
    facts = checks.run_facts(name, seed, WORKLOADS[name].scale, WORKERS)
    tally = Tally(name, facts)
    metrics = (run_traced if trace else run_end_to_end)(name, seed, seconds, tally)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for metric in units:
        print(f"  {metric} = {metrics[metric]:.6g} {units[metric]}")
    print(f"  failed_fraction = {tally.failed}/{tally.attempted}")
    print("  env " + json.dumps(environment(name, seed, facts), sort_keys=True))
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps the CLI child it waits on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pathent" / "cli.py").is_file():
        print(f"error: no pathent sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WHY) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
