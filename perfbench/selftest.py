#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Runs every workload untraced and traced with a tiny prior, few DDIM steps
and short sequences, then checks that every metric named in
``BENCHMARK.json`` is emitted and that the traced counts match their
closed forms: windows x steps calls of ``denoiser.predict``,
``denoiser.vjp`` and ``sampler.ddim_step``, and windows x steps x 41
frames x 8 active joints calls of ``uncertainty.sigma_matrix`` in sigma
mode (none in identity mode).  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run as entry

HERE = Path(__file__).resolve().parent
WINDOW, STRIDE, ACTIVE_JOINTS = 41, 21, 8


def windows(frames: int) -> int:
    """Window count of the sampler's 41-frame, 20-overlap tiling."""
    if frames <= WINDOW:
        return 1
    return len(range(0, frames - WINDOW, STRIDE)) + 1


def main() -> int:
    entry.pin_blas_threads()
    bench = entry.import_bench()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    sizes = bench.Sizes(frames=82, ddim_steps=3, hidden=8, prior_steps=20,
                        train_chunk_steps=12, setup_repeats=2, reference_reps=1)
    work = bench.ROOT / ".bench_build" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    calls = windows(sizes.frames) * sizes.ddim_steps
    expected = {
        "guided-identity": {"denoiser.predict.calls": calls, "denoiser.vjp.calls": calls,
                            "sampler.ddim_step.calls": calls,
                            "uncertainty.sigma_matrix.calls": 0,
                            "denoiser.calls_per_step": 2},
        "guided-sigma-noisy": {"denoiser.predict.calls": calls, "denoiser.vjp.calls": calls,
                               "sampler.ddim_step.calls": calls,
                               "uncertainty.sigma_matrix.calls":
                                   calls * WINDOW * ACTIVE_JOINTS},
        "train-prior": {"denoiser.predict.calls": 0, "sampler.ddim_step.calls": 0},
    }
    problems = []
    for name in entry.WORKLOAD_NAMES:
        for trace in (False, True):
            run = bench.Run(name, seed=3, seconds=0.0, trace=trace, sizes=sizes, work=work)
            correct, metrics = run.execute()
            label = f"{name} trace={int(trace)}"
            if not correct:
                problems.append(f"{label}: not correct: {run.errors}")
            want = per_layer if trace else end_to_end
            if sorted(metrics) != sorted(want):
                problems.append(f"{label}: metrics {sorted(metrics)} != {sorted(want)}")
            if trace:
                for key, value in expected[name].items():
                    if metrics.get(key) != value:
                        problems.append(f"{label}: {key} = {metrics.get(key)}, expected {value}")
            elif any(v is None or v <= 0 for v in metrics.values()):
                problems.append(f"{label}: non-positive end-to-end metric in {metrics}")
            print(f"{label}: {'ok' if not problems else 'FAIL'}")
    shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
