"""Workloads, set-up, correctness gate and metrics of the poseguide benchmark.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has finished and been checked.  The guided
workloads drive the user's command flow in-process through
``poseguide.cli.main`` (``gen-data`` in set-up, then one timed ``infer``
per operation followed by an untimed ``eval`` that checks it); the
training workload calls ``poseguide.denoiser.train_denoiser`` directly.

Import this module only after the BLAS thread count has been pinned in the
environment (``run.py`` and ``selftest.py`` do this), because numpy reads
it once, at import.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from poseguide import cli, datagen, denoiser, rot6d
from poseguide.measurement import MeasurementSet

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Held-in motion mix of the acceptance fixture: the prior and the training
# workload learn from these seeds; evaluation never uses them.
TRAIN_MIX = (("reach", 6), ("arm-swing", 3), ("walk", 2), ("idle-sway", 2))
TRAIN_SEED0 = 100
# Held-out evaluation cells cycle through kinds and scales.
EVAL_KINDS = ("reach", "arm-swing")
EVAL_CELLS = 6
TRAIN_BATCH = 32
MIN_OPS = 2
ORACLE_SCALES = (0.6, 1.0, 1.4)
ORACLE_FRAMES = 41               # one window
ORACLE_MAX_GEODESIC_DEG = 0.5
ORACLE_MAX_ROOT_M = 1e-6


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark uses the defaults, the self-test shrinks them."""

    frames: int = 164            # 7 windows of 41 frames
    ddim_steps: int = 50
    hidden: int = 160            # 2.15 M parameters
    prior_steps: int = 300
    train_chunk_steps: int = 50  # steps per timed train_denoiser call
    setup_repeats: int = 9
    reference_reps: int = 3      # machine-reference units (about 0.3 s each) per timing


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "guided" or "train"
    covariance_mode: str = "identity"
    sensor_sigma_l: float = 0.0  # noise added to the simulated sensor locations
    infer_sigma_l: float = 0.01  # score-side sigma_l passed to infer
    scales: tuple = (1.0,)


WORKLOADS = {
    w.name: w for w in (
        Workload("guided-identity", "guided"),
        Workload("guided-sigma-noisy", "guided", covariance_mode="sigma",
                 sensor_sigma_l=0.05, infer_sigma_l=0.05, scales=(0.6, 1.0, 1.4)),
        Workload("train-prior", "train"),
    )
}


class MachineReference:
    """Fixed numpy work, timed next to every operation.

    The shared machine's speed drifts by up to about 25 % over minutes,
    while operations inside one run agree to a few percent.  Dividing the
    mean operation time by the mean time of this reference, timed in the
    same run, removes most of that drift from the gated latency.  The work
    mirrors what a guided step and a training step do: an MLP backward of
    the prior's shape (BLAS calls that allocate fresh 7.9 MB buffers), an
    Adam-style element-wise update of a weight matrix (bound by memory
    bandwidth) and a loop of small-matrix numpy calls (bound by the
    interpreter).  It runs no poseguide code, so no change to the program
    can move it.
    """

    D_IN, HIDDEN = 6159, 160

    def __init__(self, reps: int):
        rng = np.random.default_rng(0)
        self.reps = reps
        self.W = rng.standard_normal((self.D_IN, self.HIDDEN))
        self.x = rng.standard_normal((1, self.D_IN))
        self.d = rng.standard_normal((1, self.HIDDEN))
        self.G = rng.standard_normal((6, 9))
        self.v = rng.standard_normal(9)

    def seconds(self) -> float:
        t0 = perf_counter()
        for _ in range(30 * self.reps):
            self.x.T @ self.d
            self.d @ self.W.T
            self.x @ self.W
        m, sq = np.zeros_like(self.W), np.zeros_like(self.W)
        for _ in range(3 * self.reps):
            g = self.x.T @ self.d
            m = 0.9 * m + 0.1 * g
            sq = 0.999 * sq + 0.001 * g * g
            self.W - 1e-9 * m / (np.sqrt(sq) + 1e-8)
        for _ in range(2000 * self.reps):
            S = np.zeros((9, 9))
            S[:6, :6] = np.eye(6)
            S[6:, 6:] = np.outer(self.v[:3], self.v[3:6])
            np.linalg.solve(0.01 * np.eye(6) + self.G @ S @ self.G.T, self.v[:6])
        return perf_counter() - t0


class CheckFailed(RuntimeError):
    """An output failed the benchmark's correctness gate."""


def _quiet_cli(argv) -> int:
    """``poseguide.cli.main`` with its progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _gen_data(cells: list, out: Path) -> list[Path]:
    """``gen-data`` into a fresh ``out``; returns the cell directories in manifest order."""
    manifest = out.with_suffix(".manifest.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest.write_text(json.dumps({"cells": cells}))
    if out.exists():
        shutil.rmtree(out)
    rc = _quiet_cli(["gen-data", "--manifest", manifest, "--out", out])
    if rc != 0:
        raise CheckFailed(f"gen-data exited {rc}")
    lock = json.loads((out / "manifest-lock.json").read_text())["cells"]
    if len(lock) != len(cells):
        raise CheckFailed(f"gen-data wrote {len(lock)} cells, expected {len(cells)}")
    return [out / c["name"] for c in lock]


def train_cells(sizes: Sizes) -> list:
    cells = []
    for kind, count in TRAIN_MIX:
        for s in range(count):
            cells.append({"motion": {"kind": kind, "frames": sizes.frames,
                                     "seed": TRAIN_SEED0 + s}, "seed": len(cells)})
    return cells


def eval_cells(w: Workload, seed: int, sizes: Sizes) -> list:
    cells = []
    for k in range(EVAL_CELLS):
        scale = w.scales[k % len(w.scales)]
        cells.append({
            "motion": {"kind": EVAL_KINDS[k % len(EVAL_KINDS)], "frames": sizes.frames,
                       "seed": 5000 + 100 * seed + k},
            "preset": f"uniform:{scale}", "sigma_l": w.sensor_sigma_l,
            "seed": 7000 + 100 * seed + k,
        })
    return cells


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure_prior(work: Path, sizes: Sizes) -> tuple[Path, float | None]:
    """The guided workloads' prior, trained once per source tree with ``cli train``.

    The checkpoint is cached under ``work`` keyed by the source digest and
    the recipe, like a build product; returns its path and the seconds
    spent training it in this call (None on a cache hit).
    """
    recipe = f"{sizes.frames}-{sizes.hidden}-{sizes.prior_steps}-{_source_digest()}"
    key = hashlib.sha256(recipe.encode()).hexdigest()[:16]
    ckpt = work / f"prior-{key}.npz"
    if ckpt.exists():
        return ckpt, None
    t0 = perf_counter()
    data = work / "prior-data"
    manifest = work / "prior-data.manifest.json"
    manifest.write_text(json.dumps({"cells": train_cells(sizes)}))
    tmp = work / f"prior-{key}.tmp.npz"
    # a child process, so the training's memory stays out of this run's peak RSS
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (["gen-data", "--manifest", manifest, "--out", data],
                 ["train", "--data", data, "--out", tmp, "--hidden", sizes.hidden,
                  "--steps", sizes.prior_steps, "--seed", 0]):
        subprocess.run([sys.executable, "-m", "poseguide.cli", *map(str, argv)], env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=600)
    tmp.replace(ckpt)
    return ckpt, perf_counter() - t0


# -- set-up ------------------------------------------------------------------

def setup_guided(w: Workload, seed: int, sizes: Sizes, work: Path, prior: Path) -> list:
    """Generate the held-out cells and load the checkpoint once; returns
    (cell directory, body scale) pairs."""
    dirs = _gen_data(eval_cells(w, seed, sizes), work / f"{w.name}-data")
    model = denoiser.MLPDenoiser.load(prior)
    if model.config.hidden != sizes.hidden:
        raise CheckFailed(f"prior has hidden {model.config.hidden}, expected {sizes.hidden}")
    return [(d, w.scales[k % len(w.scales)]) for k, d in enumerate(dirs)]


def setup_train(sizes: Sizes, work: Path) -> list:
    """Generate the fixture motion mix and load it the way ``cli train`` does."""
    return [(datagen.load_sequence(d / "truth.pgseq"),
             MeasurementSet.load(d / "measurements.jsonl"))
            for d in _gen_data(train_cells(sizes), work / "train-data")]


# -- correctness gate --------------------------------------------------------

def oracle_preflight(seed: int, sizes: Sizes, work: Path) -> dict:
    """Exact recovery with the oracle denoiser, sigma mode, at three body scales."""
    cells = [{"motion": {"kind": "arm-swing", "frames": ORACLE_FRAMES, "seed": 8000 + seed},
              "preset": f"uniform:{s}", "seed": seed} for s in ORACLE_SCALES]
    worst_geo, worst_root = 0.0, 0.0
    for d in _gen_data(cells, work / "oracle-data"):
        pred = d / "oracle-pred.pgseq"
        rc = _quiet_cli([
            "infer", "--measurements", d / "measurements.jsonl", "--skeleton",
            d / "skeleton.json", "--oracle-truth", d / "truth.pgseq",
            "--steps", sizes.ddim_steps, "--eta", 0, "--guidance-scale", 1,
            "--sigma-l", 0.01, "--covariance-mode", "sigma", "--seed", seed, "--out", pred])
        if rc != 0:
            raise CheckFailed(f"oracle infer exited {rc} on {d.name}")
        p, t = datagen.load_sequence(pred), datagen.load_sequence(d / "truth.pgseq")
        geo = rot6d.geodesic_angle(p.rotation_matrices(), t.rotation_matrices()).max()
        worst_geo = max(worst_geo, float(geo))
        worst_root = max(worst_root, float(np.abs(p.root_translation - t.root_translation).max()))
    ok = worst_geo < ORACLE_MAX_GEODESIC_DEG and worst_root < ORACLE_MAX_ROOT_M
    return {"passed": ok, "max_geodesic_deg": worst_geo, "max_root_err_m": worst_root}


def check_prediction(pred_path: Path, frames: int) -> None:
    pred = datagen.load_sequence(pred_path)
    if pred.frames != frames:
        raise CheckFailed(f"{pred_path.name}: {pred.frames} frames, expected {frames}")
    if not (np.isfinite(pred.rotations).all() and np.isfinite(pred.root_translation).all()):
        raise CheckFailed(f"{pred_path.name}: non-finite output")
    if not pred.is_valid():
        raise CheckFailed(f"{pred_path.name}: off the rotation manifold")


def check_training(model, losses: list, steps: int) -> None:
    if len(losses) != steps:
        raise CheckFailed(f"loss callback ran {len(losses)} times, expected {steps}")
    if not all(np.isfinite(p).all() for p in model.params.values()):
        raise CheckFailed("non-finite parameters after training")
    head, tail = np.mean(losses[:5]), np.mean(losses[-5:])
    if not tail < head:
        raise CheckFailed(f"loss did not fall: first steps {head:.4g}, last steps {tail:.4g}")


# -- operations --------------------------------------------------------------

def infer_op(w: Workload, cell: tuple, seed: int, sizes: Sizes, prior: Path,
             tracer: Tracer | None = None) -> tuple[float, float, dict]:
    """One timed ``infer`` plus its untimed ``eval`` on a (directory, scale)
    cell; returns (infer seconds, infer+eval seconds, eval cell)."""
    d, scale = cell
    pred, report = d / "pred.pgseq", d / "report.json"
    with tracer.recording("op") if tracer else contextlib.nullcontext():
        t0 = perf_counter()
        rc = _quiet_cli([
            "infer", "--measurements", d / "measurements.jsonl", "--skeleton",
            d / "skeleton.json", "--checkpoint", prior, "--steps", sizes.ddim_steps,
            "--eta", 0, "--guidance-scale", 1, "--sigma-l", w.infer_sigma_l,
            "--covariance-mode", w.covariance_mode, "--seed", seed, "--out", pred])
        t_infer = perf_counter() - t0
        if rc != 0:
            raise CheckFailed(f"infer exited {rc} on {d.name}")
        rc = _quiet_cli(["eval", "--pred", pred, "--truth", d / "truth.pgseq",
                         "--skeleton", d / "skeleton.json", "--scale", scale,
                         "--out", report])
        t_all = perf_counter() - t0
    if rc != 0:
        raise CheckFailed(f"eval exited {rc} on {d.name}")
    check_prediction(pred, sizes.frames)
    result = json.loads(report.read_text())["cells"][0]
    result["name"] = d.name
    return t_infer, t_all, result


def train_op(dataset: list, seed: int, chunk: int, sizes: Sizes,
             tracer: Tracer | None = None) -> tuple[float, list, list]:
    """One timed ``train_denoiser`` call; returns (seconds, step intervals, losses)."""
    config = denoiser.TrainConfig(hidden=sizes.hidden, batch=TRAIN_BATCH,
                                  steps=sizes.train_chunk_steps, seed=1000 * seed + chunk)
    stamps, losses = [], []

    def on_loss(step, loss):
        stamps.append(perf_counter())
        losses.append(loss)

    with tracer.recording("op") if tracer else contextlib.nullcontext():
        t0 = perf_counter()
        model = denoiser.train_denoiser(dataset, config, loss_callback=on_loss)
        elapsed = perf_counter() - t0
    check_training(model, losses, config.steps)
    return elapsed, list(np.diff(stamps)), losses


# -- the run -----------------------------------------------------------------

class Run:
    """One benchmark invocation: set-up, gate, closed-loop timing, result."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = Sizes(), work: Path | None = None):
        self.w = WORKLOADS[workload]
        self.seed, self.seconds, self.trace, self.sizes = seed, seconds, trace, sizes
        self.work = work or ROOT / ".bench_build" / "poseguide"
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.info: dict = {}

    def _attempt(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def _setup(self, fn):
        """Run a set-up ``setup_repeats`` times and return (median seconds, its
        result, None); a traced run sets up once and returns its layer spans instead
        of a time."""
        if self.trace:
            tracer = Tracer()
            with tracer.installed(), tracer.recording("setup"):
                out = fn()
            return None, out, tracer.summary("setup")
        times, out = [], None
        for _ in range(self.sizes.setup_repeats):
            t0 = perf_counter()
            out = fn()
            times.append(perf_counter() - t0)
        return statistics.median(times), out, None

    def _loop(self, op):
        """Run ``op(index, tracer)`` until the time is up and at least
        ``MIN_OPS`` have run; returns ([(traced, result)], tracer).

        An untraced run times the machine reference before every op and
        after the last.  A traced run leaves its first op untraced instead,
        as the reference for the tracing overhead."""
        tracer = Tracer() if self.trace else None
        reference = None if self.trace else MachineReference(self.sizes.reference_reps)
        results, refs = [], []
        with tracer.installed() if tracer else contextlib.nullcontext():
            t_start = perf_counter()
            i = 0
            while i < MIN_OPS or perf_counter() - t_start < self.seconds:
                if reference:
                    refs.append(reference.seconds())
                traced = tracer if tracer is not None and i > 0 else None
                results.append((traced is not None, self._attempt(op, i, traced)))
                i += 1
            if reference:
                refs.append(reference.seconds())
        self.info["reference_s"] = refs
        return results, tracer

    def execute(self) -> tuple[bool, dict]:
        self.work.mkdir(parents=True, exist_ok=True)
        if self.w.kind == "guided":
            return self._guided()
        return self._train()

    # guided workloads ---------------------------------------------------

    def _guided(self):
        sizes, w = self.sizes, self.w
        prior, self.info["prior_build_s"] = ensure_prior(self.work, sizes)
        setup_s, cells, setup_spans = self._setup(
            lambda: setup_guided(w, self.seed, sizes, self.work, prior))
        pre = oracle_preflight(self.seed, sizes, self.work)
        self.info["oracle_preflight"] = pre
        if not pre["passed"]:
            self.errors.append(f"oracle pre-flight failed: {pre}")

        def op(i, tracer):
            return infer_op(w, cells[i % len(cells)], self.seed, sizes, prior, tracer)

        results, tracer = self._loop(op)
        correct = pre["passed"] and self.failed == 0
        if self.trace:
            # infer + eval wall seconds of the untraced first op and the traced ops
            untraced = [r[1] for t, r in results if not t and r is not None]
            traced = [r[1] for t, r in results if t and r is not None]
            return correct, self._layer_metrics(
                tracer, setup_spans, len(traced), sum(traced), _diff_of_means(traced, untraced))
        done = [r for _, r in results if r is not None]
        infer_s = [r[0] for r in done]
        evals = [r[2] for r in done]
        self.info.update({
            "infer_frames_per_s": _ratio(sizes.frames * len(infer_s), sum(infer_s)),
            "infer_seq_s_p50": statistics.median(infer_s) if infer_s else None,
            "infer_samples": len(infer_s),
            "infer_s": infer_s,
            "scaled_mpjpe_cm": _mean(c["scaled_mpjpe"] for c in evals),
            "mpjre_deg": _mean(c["mpjre"] for c in evals),
            "jitter_cm": _mean(c["jitter"] for c in evals),
            "per_cell": [{k: c[k] for k in ("name", "scale", "scaled_mpjpe", "mpjre", "jitter")}
                         for c in evals],
        })
        return correct, self._end_to_end(setup_s, _mean(infer_s))

    # training workload --------------------------------------------------

    def _train(self):
        sizes = self.sizes
        steps = sizes.train_chunk_steps
        setup_s, dataset, setup_spans = self._setup(lambda: setup_train(sizes, self.work))

        def op(i, tracer):
            return train_op(dataset, self.seed, i, sizes, tracer)

        results, tracer = self._loop(op)
        correct = self.failed == 0
        if self.trace:
            untraced = [r[0] for t, r in results if not t and r is not None]
            traced = [r for t, r in results if t and r is not None]
            chunk_s = [r[0] for r in traced]
            intervals = [x for r in traced for x in r[1]]
            return correct, self._layer_metrics(
                tracer, setup_spans, len(traced) * steps, sum(chunk_s),
                _diff_of_means(chunk_s, untraced) / steps, _mean(intervals) or 0.0)
        done = [r for _, r in results if r is not None]
        intervals = [x for r in done for x in r[1]]
        busy_s = sum(r[0] for r in done)
        self.info.update({
            "train_steps_per_s": _ratio(steps * len(done), busy_s),
            "train_step_ms_p50": 1e3 * float(np.quantile(intervals, 0.5)) if intervals else None,
            "train_step_ms_p90": 1e3 * float(np.quantile(intervals, 0.9)) if intervals else None,
            "train_step_samples": len(intervals),
            "train_loss_final": done[0][2][-1] if done else None,
        })
        return correct, self._end_to_end(setup_s, _ratio(busy_s, steps * len(done)))

    # metrics --------------------------------------------------------------

    def _end_to_end(self, setup_s, op_mean_s) -> dict:
        """The gated metrics; ``op_mean_s`` is the mean seconds of a sequence or step."""
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        refs = self.info["reference_s"]
        self.info.update({"setup_s": setup_s, "peak_rss_mb": peak,
                          "ops_failed_share": self.failed / max(self.attempted, 1)})
        return {
            "setup_s": setup_s,
            "op_per_ref": op_mean_s / statistics.fmean(refs) if op_mean_s else None,
            "peak_rss_mb": peak,
        }

    def _layer_metrics(self, tracer, setup_spans, units, wall_s, overhead_s,
                       train_step_s=0.0) -> dict:
        """Per-layer metrics per unit of work: a sequence, or a training step."""
        op = tracer.summary("op")
        n = max(units, 1)

        def s(name):
            return op[name]["s"] / n if name in op else 0.0

        def calls(name):
            return op[name]["calls"] / n if name in op else 0.0

        def self_s(name):
            return op[name]["self_s"] / n if name in op else 0.0

        ddim = calls("sampler.ddim_step")
        self.info["unpatched"] = tracer.missing
        return {
            "denoiser.predict.s": s("denoiser.predict"),
            "denoiser.predict.calls": calls("denoiser.predict"),
            "denoiser.vjp.s": s("denoiser.vjp"),
            "denoiser.vjp.calls": calls("denoiser.vjp"),
            "denoiser.load.s": s("denoiser.load"),
            "denoiser.calls_per_step":
                (calls("denoiser.predict") + calls("denoiser.vjp")) / ddim if ddim else 0.0,
            "denoiser.train_denoiser.s": s("denoiser.train_denoiser"),
            "denoiser.train_step.s": train_step_s,
            "rot6d.vjp_from_sixdof.s": s("rot6d.vjp_from_sixdof"),
            "rot6d.vjp_from_sixdof.calls": calls("rot6d.vjp_from_sixdof"),
            "rot6d.jacobian_from_sixdof.s": s("rot6d.jacobian_from_sixdof"),
            "rot6d.batch_from_sixdof.s": s("rot6d.batch_from_sixdof"),
            "rot6d.batch_from_sixdof.calls": calls("rot6d.batch_from_sixdof"),
            "uncertainty.sigma_matrix.s": s("uncertainty.sigma_matrix"),
            "uncertainty.sigma_matrix.calls": calls("uncertainty.sigma_matrix"),
            "sampler.likelihood_score.self_s": self_s("sampler.likelihood_score"),
            "sampler.likelihood_score.calls": calls("sampler.likelihood_score"),
            "sampler.ddim_step.s": s("sampler.ddim_step"),
            "sampler.ddim_step.calls": ddim,
            "sampler.tweedie_denoise.s": s("sampler.tweedie_denoise"),
            "sampler.run_guided_inference.self_s": self_s("sampler.run_guided_inference"),
            "measurement.build_A.s": s("measurement.build_A"),
            "measurement.apply_diff_vec9.s": s("measurement.apply_diff_vec9"),
            "measurement.apply_diff_vec9.calls": calls("measurement.apply_diff_vec9"),
            "measurement.differential_transform.s": s("measurement.differential_transform"),
            "measurement.MeasurementSet.load.s": s("measurement.MeasurementSet.load"),
            "skeleton.recover_root_translation.s": s("skeleton.recover_root_translation"),
            "skeleton.forward_kinematics.s": s("skeleton.forward_kinematics"),
            "skeleton.forward_kinematics.calls": calls("skeleton.forward_kinematics"),
            # the only set-up layer: seconds per set-up, not per unit of work
            "datagen.write_cells.s": setup_spans["datagen.write_cells"]["s"]
            if "datagen.write_cells" in setup_spans else 0.0,
            "datagen.load_sequence.s": s("datagen.load_sequence"),
            "datagen.save_sequence.s": s("datagen.save_sequence"),
            "metrics.evaluate_cell.s": s("metrics.evaluate_cell"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.overhead_s": overhead_s,
            "trace.uncovered_share": (wall_s - tracer.covered_s("op")) / wall_s if wall_s else 0.0,
        }


def _ratio(num, den):
    return num / den if den else None


def _diff_of_means(a, b) -> float:
    return float(np.mean(a) - np.mean(b)) if a and b else 0.0


def _mean(values):
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


# -- environment ---------------------------------------------------------------

def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def _blas_threads_reported() -> int | None:
    """Thread count the bundled OpenBLAS reports, when it can be queried."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "src_sha256": _source_digest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": _blas_threads_reported(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }
