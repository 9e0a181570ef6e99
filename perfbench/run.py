#!/usr/bin/env python3
"""poseguide benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload guided-identity --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` makes a separate traced
run that reports the per-layer metrics instead.  Earlier lines of standard
output give the environment, every metric by name and unit, and the
correctness gate's findings; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# Pinned before numpy is imported, and recorded in every result: the
# default two-thread OpenBLAS spreads back-to-back runs of the same infer
# wider than a single thread does on a two-core machine.
BLAS_THREADS = 1
WORKLOAD_NAMES = ("guided-identity", "guided-sigma-noisy", "train-prior")

# Every end-to-end quantity a user reads, printed by name and unit; only some
# of them are gated metrics (see README.md).
REPORTED_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_failed_share": "share",
    "infer_frames_per_s": "frames/s", "infer_seq_s_p50": "s",
    "scaled_mpjpe_cm": "cm", "mpjre_deg": "deg", "jitter_cm": "cm/frame",
    "train_steps_per_s": "1/s", "train_step_ms_p50": "ms", "train_step_ms_p90": "ms",
    "train_loss_final": "mse",
}


ROOT = Path(__file__).resolve().parent.parent


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_bench():
    """Import the harness against this checkout's ``src/``; exits 2 when absent."""
    if not (ROOT / "src" / "poseguide" / "__init__.py").is_file():
        print(f"error: no poseguide sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench

    return bench


def _fmt(value) -> str:
    if value is None:
        return "n/a (not exercised by this workload)"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    bench = import_bench()
    run = bench.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(bench.environment(args.workload, args.seed, args.seconds,
                                                 bool(args.trace))))
    correct, metrics = run.execute()

    info = run.info
    if not args.trace:
        for name, unit in REPORTED_UNITS.items():
            print(f"{name:<22} {_fmt(info.get(name)):>14} {unit}")
    print("info " + json.dumps(info, default=str))
    for err in run.errors:
        print(f"FAIL {err}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"FAIL metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
        correct = False
    if any(v is None or not math.isfinite(v) for v in metrics.values()):
        correct = False
    print(json.dumps({
        "correct": bool(correct), "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
