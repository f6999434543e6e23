"""Layer tracing for the pathent benchmark.

The traced run calls ``pathent.cli.main`` in-process with the public layer
functions wrapped at the names their callers look them up (``cli`` imports
``sample_batch`` by name, ``chsh`` and ``tomography`` import the decoy
estimator by name). Nothing in ``src/`` is changed. Each wrapper records a
span (name, start, end, parent) with the process's ``ru_maxrss`` high-water
mark at the span's end, plus per-call counts (records, bytes, iterations).

The traced child (run with ``PYTHONPATH=src`` from the repository root)
runs the CLI under the tracer and writes the spans to a JSON file:

    python3 perfbench/layer_trace.py <record.json> <pathent CLI args>
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
import sys
import time

# (module, attribute path, span name). Nested calls give the parent chain
# chsh.scan_threshold -> chsh.decoy_correlation ->
# chsh.decoy_coincidence_bounds -> chsh.bin_coincidences / decoy.estimate.
LAYERS = (
    ("pathent.cli", "sample_batch", "homodyne.sample_batch"),
    ("pathent.homodyne", "SampleBatch.save", "homodyne.save"),
    ("pathent.chsh", "scan_threshold", "chsh.scan_threshold"),
    ("pathent.chsh", "decoy_correlation", "chsh.decoy_correlation"),
    ("pathent.chsh", "decoy_coincidence_bounds", "chsh.decoy_coincidence_bounds"),
    ("pathent.chsh", "bin_coincidences", "chsh.bin_coincidences"),
    ("pathent.chsh", "estimate_single_photon_statistic", "decoy.estimate"),
    ("pathent.tomography", "estimate_single_photon_statistic", "decoy.estimate"),
    ("pathent.tomography", "decoy_corrected_histogram", "tomography.decoy_histogram"),
    ("pathent.tomography", "histogram_density", "tomography.histogram"),
    ("pathent.tomography", "build_povm_elements", "tomography.povm"),
    ("pathent.tomography", "mle_reconstruct", "tomography.mle"),
)
ROOT_SPAN = "cli.main"

# Quantities a "<span>.<quantity>" per-layer metric can name: sums over the
# span's calls, except the ru_maxrss high-water mark, which is their maximum.
QUANTITIES = ("calls", "self_s", "records", "bytes", "iterations", "rss_high_water_mb")

REPLAY_REPEATS = 3


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _observe(name: str, args, kwargs, result) -> dict:
    """Per-call counts taken where the work happens."""
    if name == "homodyne.sample_batch":
        return {"records": len(result)}
    if name in ("chsh.bin_coincidences", "tomography.histogram"):
        return {"records": len(args[0] if args else kwargs["batch"])}
    if name == "homodyne.save":
        path = args[1] if len(args) > 1 else kwargs["path"]
        sidecar = os.path.splitext(path)[0] + ".meta.json"
        return {"bytes": os.path.getsize(path) + os.path.getsize(sidecar)}
    if name == "chsh.scan_threshold":
        return {"tried": len(result), "valid": sum(1 for r in result if r.valid)}
    if name == "tomography.mle":
        return {"iterations": result.iterations, "converged": bool(result.converged)}
    if name == "tomography.decoy_histogram":
        return {"clamp_fraction_mean": float(statistics.fmean(result.clamp_fraction))}
    return {}


class Tracer:
    """Installs span-recording wrappers on enter and restores the originals
    on exit. Spans stay in memory until the caller writes them out."""

    def __init__(self):
        self.spans: list[dict] = []
        self.largest_sample_call: dict | None = None
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        for module, path, name in LAYERS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                span["rss_mb"] = _maxrss_mb()
            span.update(_observe(name, args, kwargs, result))
            if name == "homodyne.sample_batch":
                best = self.largest_sample_call
                if best is None or len(result) > best["count"]:
                    self.largest_sample_call = {"count": len(result), "kwargs": kwargs}
            return result

        return traced


def replay_sample_batch(call: dict) -> dict:
    """Re-run one recorded ``sample_batch`` call at workers=1 and workers=2,
    alternating, and return the median time of each."""
    from pathent.homodyne import sample_batch

    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(REPLAY_REPEATS):
        for workers in (1, 2):
            kwargs = dict(call["kwargs"], workers=workers)
            start = time.perf_counter()
            sample_batch(**kwargs)
            times[workers].append(time.perf_counter() - start)
    return {
        "records": call["count"],
        "w1_s": statistics.median(times[1]),
        "w2_s": statistics.median(times[2]),
    }


def traced_main(argv: list[str]) -> dict:
    """Run ``pathent.cli.main(argv)`` under the tracer; return the record."""
    import pathent.cli

    tracer = Tracer()
    with tracer:
        exit_code = tracer.wrap(ROOT_SPAN, pathent.cli.main)(argv)
    record = {"exit_code": exit_code, "spans": tracer.spans, "replay": None}
    if tracer.largest_sample_call is not None:
        start = time.perf_counter()
        record["replay"] = replay_sample_batch(tracer.largest_sample_call)
        record["replay"]["total_s"] = time.perf_counter() - start
    return record


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(record: dict, overhead_s: float, names: list[str]) -> dict[str, float]:
    """The named per-layer metrics from one traced run's record.

    A name is one of the derived metrics below or ``<span>.<quantity>`` with
    a quantity from QUANTITIES (``cli`` stands for the root span). A layer
    that the run never reached reports 0.
    """
    spans = record["spans"]
    own = self_times(spans)
    by_name: dict[str, dict] = {}
    for span, self_s in zip(spans, own):
        agg = by_name.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "rss_high_water_mb": 0.0})
        agg["calls"] += 1
        agg["self_s"] += self_s
        agg["rss_high_water_mb"] = max(agg["rss_high_water_mb"], span["rss_mb"])
        for key in ("records", "bytes", "tried", "valid", "iterations"):
            agg[key] = agg.get(key, 0) + span.get(key, 0)
        for key in ("converged", "clamp_fraction_mean"):
            if key in span:
                agg[key] = span[key]

    def get(name: str, key: str, default=0.0):
        return by_name.get(name, {}).get(key, default)

    def rate(name: str, key: str) -> float:
        self_s = get(name, "self_s")
        return get(name, key) / self_s if self_s > 0 else 0.0

    replay = record["replay"]
    tried = get("chsh.scan_threshold", "tried")
    mle_iterations = get("tomography.mle", "iterations")
    derived = {
        # rate(w=2) / (2 * rate(w=1)) on the same call
        "homodyne.parallel_efficiency": replay["w1_s"] / (2.0 * replay["w2_s"]) if replay else 0.0,
        "homodyne.sample_batch.records_per_s": rate("homodyne.sample_batch", "records"),
        "homodyne.save.bytes_per_s": rate("homodyne.save", "bytes"),
        "chsh.bin_coincidences.records_per_s": rate("chsh.bin_coincidences", "records"),
        "chsh.valid_fraction": get("chsh.scan_threshold", "valid") / tried if tried else 0.0,
        "tomography.mle.s_per_iteration": get("tomography.mle", "self_s") / mle_iterations if mle_iterations else 0.0,
        "tomography.mle.converged": float(get("tomography.mle", "converged", False)),
        "tomography.clamp_fraction_mean": get("tomography.decoy_histogram", "clamp_fraction_mean"),
        "cli.traced_s": sum(s["end"] - s["start"] for s in spans if s["parent"] is None),
        "trace.overhead_s": overhead_s,
    }
    span_names = {name for _, _, name in LAYERS} | {ROOT_SPAN}
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
            continue
        layer, _, quantity = name.rpartition(".")
        layer = ROOT_SPAN if layer == "cli" else layer
        if layer not in span_names or quantity not in QUANTITIES:
            raise ValueError(f"unknown per-layer metric {name!r}")
        metrics[name] = float(get(layer, quantity))
    return metrics


def main(argv: list[str]) -> int:
    record_path, *cli_argv = argv
    record = traced_main(cli_argv)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
