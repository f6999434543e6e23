"""Run the pathent CLI and note when its set-up ends.

    python3 perfbench/launch.py <stamp-file> [--setup-only] <pathent CLI args>

Run with ``PYTHONPATH=src`` from the repository root. The process imports
``pathent.cli`` and builds the run's config, as ``python3 -m pathent.cli``
does, writes ``time.monotonic()`` to the stamp file, then runs
``pathent.cli.main`` and exits with its code; with ``--setup-only`` it exits
0 instead. ``CLOCK_MONOTONIC`` is shared by all processes on Linux, so the
parent's spawn time and the stamp give the set-up time of every timed run.
"""

import sys
import time

from pathent.cli import build_parser, main
from pathent.config import ExperimentConfig, with_overrides

stamp_path, *argv = sys.argv[1:]
setup_only = argv[:1] == ["--setup-only"]
argv = argv[setup_only:]
args = build_parser().parse_args(argv)
with_overrides(ExperimentConfig(), seed=args.seed, scale=args.scale, workers=args.workers)
with open(stamp_path, "w") as fh:
    fh.write(repr(time.monotonic()))
sys.exit(0 if setup_only else main(argv))
