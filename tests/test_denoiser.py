"""Denoiser contracts: oracle identities, window stacks, training, config validation,
pullback, persistence."""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from poseguide.denoiser import (
    _ADAM_CHUNK, TERMINAL, MLPDenoiser, OracleDenoiser, TrainConfig, TrainingError,
    _adam_update, _openblas, alpha_bar, make_conditioning, train_denoiser,
)
from poseguide.sampler import _gather_joints
from poseguide.datagen import MotionSpec, generate_motion
from poseguide.measurement import build_A, extract_measurements
from poseguide.sampler import GuidanceConfig, run_guided_inference
from poseguide.skeleton import PoseSequence, default_skeleton

ROOT = Path(__file__).resolve().parent.parent


def small_dataset(n_seqs=3, frames=60):
    skel = default_skeleton()
    kinds = ("reach", "arm-swing", "walk")
    seqs = [generate_motion(MotionSpec(kind=kinds[s % 3], frames=frames, seed=s), skel)
            for s in range(n_seqs)]
    return [(s, extract_measurements(s, skel, 0.0, seed=i))
            for i, s in enumerate(seqs)], skel


def small_config(**kw):
    base = dict(window=12, steps=60, hidden=24, batch=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def bind(denoiser, cond, starts):
    """``condition`` as a step on the full state: ``step(r_t, t) -> (r_hat, pullback)``,
    which lifts r_t to the coordinates, forms the estimate ``u @ writes + offset``,
    and takes a full-layout cotangent through ``writes`` into the pullback and its
    gradient back to the full layout."""
    reads, writes, offset, denoise = denoiser.condition(cond, starts)

    def step(r_t, t):
        r_t = np.asarray(r_t, dtype=float)
        n = len(r_t)
        u, pullback = denoise(r_t.reshape(n, -1) @ reads, t)
        return ((u @ writes + offset).reshape(r_t.shape),
                lambda cot: (pullback(np.reshape(cot, (n, -1)) @ writes.T) @ reads.T)
                .reshape(r_t.shape))

    return step


def test_make_conditioning_shapes():
    ds, _ = small_dataset(1)
    m = ds[0][1]
    assert make_conditioning(m, "rotations").shape == (60, 18)
    assert make_conditioning(m, "locations").shape == (60, 9)
    with pytest.raises(ValueError):
        make_conditioning(m, "velocities")


def test_oracle_denoiser_identities():
    # the oracle denoises to the ground truth exactly, and its estimate has
    # zero sensitivity to the noisy input
    ds, _ = small_dataset(1, frames=20)
    truth = ds[0][0]
    oracle = OracleDenoiser(truth.rotations)
    rng = np.random.default_rng(0)
    t = 2.5
    ab = alpha_bar(t)
    noise = rng.standard_normal(truth.rotations.shape)
    r_t = np.sqrt(ab) * truth.rotations + np.sqrt(1 - ab) * noise
    reads, writes, offset, denoise = oracle.condition(np.zeros((1, 20, 18)), [0])
    assert reads.shape == (20 * 22 * 6, 0) and writes.shape == (0, 20 * 22 * 6)
    assert np.array_equal(offset, truth.rotations.reshape(1, -1))
    u, pullback = denoise(r_t.reshape(1, -1) @ reads, t)
    assert u.shape == (1, 0) and pullback(u).shape == (1, 0)
    assert np.array_equal(bind(oracle, np.zeros((1, 20, 18)), [0])(r_t[None], t)[0],
                          truth.rotations[None])
    cot = rng.standard_normal(r_t.shape)
    assert np.array_equal(bind(oracle, np.zeros((1, 20, 18)), [0])(r_t[None], t)[1](cot),
                          np.zeros_like(cot[None]))


def test_oracle_denoiser_gathers_by_starts():
    ds, _ = small_dataset(1, frames=20)
    truth = ds[0][0]
    oracle = OracleDenoiser(truth.rotations)
    rng = np.random.default_rng(1)
    cond = np.zeros((2, 5, 18))
    reads, writes, offset, denoise = oracle.condition(cond, [7, 2])
    assert denoise(np.zeros((2, 0)), 1.0)[0].shape == (2, 0)
    assert np.array_equal(offset.reshape(2, 5, 22, 6),
                          np.stack([truth.rotations[7:12], truth.rotations[2:7]]))
    # a window running past either end of the truth is refused by its index, once
    with pytest.raises(ValueError, match=r"window 1 \(frames 17 to 21\) runs past the stored "
                                         r"ground truth of 20 frames"):
        oracle.condition(cond, [7, 17])
    with pytest.raises(ValueError, match=r"window 0 \(frames -1 to 3\)"):
        oracle.condition(cond, [-1, 2])
    # a step on another stack than the bound windows is refused at that step
    for other in (np.zeros((2, 1)), np.zeros((1, 0))):
        with pytest.raises(ValueError, match="do not match the 2 windows of the stored "
                                             "ground truth"):
            denoise(other, 1.0)


def test_training_is_deterministic():
    ds, _ = small_dataset()
    a = train_denoiser(ds, small_config())
    b = train_denoiser(ds, small_config())
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_trained_bits_are_pinned():
    # sha256 of the parameters, by name in name order, after the small set's training;
    # test_training_is_deterministic compares two runs of one tree, this pins the
    # bits across changes (taken when training copied every window)
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config())
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(name.encode() + model.params[name].tobytes())
    assert digest.hexdigest() == ("c498c9841a549fc6a8b92471e696c8de"
                                  "c26dae63d318a5c81d7eca24a410c2e7")


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2, 3}], ids=["1-cpu", "4-cpus"])
def test_a_steps_arrays_die_with_the_step(monkeypatch, cpus):
    # a step's batch, activations, output gradient and parameter gradients used to
    # stay bound in the training loop through the next step's forward
    forward, backward = MLPDenoiser._forward, MLPDenoiser._backward
    refs, alive = [], []

    def watched_forward(self, X):
        alive.append(sum(ref() is not None for ref in refs))
        refs.clear()
        out, cache = forward(self, X)
        refs.extend(weakref.ref(a) for a in (cache["X"], cache["hout"], out))
        return out, cache

    def watched_backward(self, cache, d_out, grads, release, pool):
        dz0 = backward(self, cache, d_out, grads, release, pool)
        refs.extend(weakref.ref(a) for a in (d_out, dz0, *grads.values()))
        return dz0

    monkeypatch.setattr(MLPDenoiser, "_forward", watched_forward)
    monkeypatch.setattr(MLPDenoiser, "_backward", watched_backward)
    _train_on_cpus(monkeypatch, cpus, steps=4)
    assert alive == [0] * 4


def test_training_memory_stays_within_the_dataset_and_parameters():
    # training holds the sequences once and a step's arrays only for the step; when
    # it copied every window (each frame about 4 times over at 400 frames) and kept a
    # step's arrays through the next forward, the traced peak here was 42.6 MB
    skel = default_skeleton()
    seqs = [generate_motion(MotionSpec(kind="reach", frames=400, seed=s), skel)
            for s in range(20)]
    ds = [(s, extract_measurements(s, skel, 0.0, seed=i)) for i, s in enumerate(seqs)]
    data_bytes = sum(p.rotations.nbytes + m.rotations.nbytes for p, m in ds)
    tracemalloc.start()
    try:
        model = train_denoiser(ds, TrainConfig(hidden=8, batch=8, steps=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    param_bytes = sum(p.nbytes for p in model.params.values())
    budget = 2 * data_bytes + 4 * param_bytes + 4e6  # 26.7 MB; the peak is 16.7 MB
    assert peak < budget, f"traced peak {peak / 1e6:.1f} MB over the {budget / 1e6:.1f} MB budget"


def test_training_reduces_loss():
    ds, _ = small_dataset()
    losses = []
    train_denoiser(ds, small_config(steps=400), loss_callback=lambda s, l: losses.append(l))
    head = np.mean(losses[:20])
    tail = np.mean(losses[-20:])
    assert tail < 0.25 * head


@pytest.mark.parametrize("workers", [1, 3], ids=["1-worker", "3-workers"])
def test_adam_update_matches_textbook_adam(workers):
    # the blocked in-place update against the per-array expressions, bit for bit,
    # on arrays smaller than one block, exactly one block, and past a block edge,
    # released in two batches out of dict order; the workers update the first
    # batch before the second is released, and the second before the block ends
    def textbook(params, grads, m, v, step, lr):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for k, g in grads.items():
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            mhat = m[k] / (1 - beta1**step)
            vhat = v[k] / (1 - beta2**step)
            params[k] -= lr * mhat / (np.sqrt(vhat) + eps)

    def updated(names, before):
        # each element is written once, by its block's last operation
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if all(np.all(params[k] != before[k]) for k in names):
                return True
            time.sleep(1e-3)
        return False

    rng = np.random.default_rng(16)
    shapes = {"bias": (7,), "small": (30, 41), "block": (_ADAM_CHUNK,),
              "ragged": (3, _ADAM_CHUNK // 2 + 5)}
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    start = {k: p.copy() for k, p in params.items()}
    m, v, m_ref, v_ref = ({k: np.zeros(s) for k, s in shapes.items()} for _ in range(4))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter lock as often as they can
    try:
        with ThreadPoolExecutor(workers) as pool:
            for step in range(1, 6):
                grads = {k: rng.standard_normal(s) * 10.0**-step for k, s in shapes.items()}
                before = {k: p.copy() for k, p in params.items()}
                with _adam_update(params, grads, m, v, step, 3e-3, pool, workers) as release:
                    release(["ragged", "bias"])
                    assert updated(["ragged", "bias"], before)
                    release(["block", "small"])  # once the first batch is done
                    assert updated(["block", "small"], before)
                textbook(ref, grads, m_ref, v_ref, step, 3e-3)
    finally:
        sys.setswitchinterval(switch)
    for k in shapes:
        assert np.array_equal(params[k], ref[k])
        assert np.array_equal(m[k], m_ref[k])
        assert np.array_equal(v[k], v_ref[k])
        assert np.all(params[k] != start[k])  # every block, the last partial one too


def test_backward_releases_each_parameter_once_after_its_last_read(monkeypatch):
    # each released array is overwritten with NaN at once, as if its Adam update
    # ran right then: a pass that read it again would not match the plain pass
    model = MLPDenoiser(small_config())
    rng = np.random.default_rng(3)
    out, cache = model._forward(rng.standard_normal((5, model.d_in)))
    d_out = rng.standard_normal(out.shape)
    want, grads, released = {}, {}, []

    def release(names):
        for k in names:
            released.append((k, set(grads), grads[k].copy()))
            model.params[k][...] = np.nan

    with ThreadPoolExecutor(1) as pool:
        want_dz0 = model._backward(cache, d_out, want, lambda names: None, pool)
        dz0 = model._backward(cache, d_out, grads, release, pool)
    assert dz0.tobytes() == want_dz0.tobytes()
    assert sorted(k for k, _, _ in released) == sorted(model.params)  # each name once
    assert {k for k, _, _ in released[:2]} == {"Wo", "bo"} == released[0][1]
    for k, _, g in released:
        assert g.tobytes() == grads[k].tobytes() == want[k].tobytes()  # final when released

    # training releases every name once per step, at one CPU and at four
    backward, calls = MLPDenoiser._backward, []

    def recording(self, cache, d_out, grads, release, pool):
        calls.append([])
        return backward(self, cache, d_out, grads,
                        lambda names: calls[-1].extend(names) or release(names), pool)

    monkeypatch.setattr(MLPDenoiser, "_backward", recording)
    for cpus in ({0}, {0, 1, 2, 3}):
        calls.clear()
        trained = _train_on_cpus(monkeypatch, cpus, steps=3)
        assert [sorted(names) for names in calls] == [sorted(trained.params)] * 3


def _train_on_cpus(monkeypatch, cpus, loss_callback=None, steps=20):
    """``train_denoiser`` on the small set, as a process allowed to run on ``cpus``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    ds, _ = small_dataset()
    return train_denoiser(ds, small_config(steps=steps, hidden=96), loss_callback=loss_callback)


@pytest.mark.parametrize("steps", [1, 2, 20], ids=lambda n: f"{n}-steps")
def test_trained_bits_do_not_depend_on_the_cpu_count(monkeypatch, steps):
    # hidden 96 gives W0 and Wo more than one _ADAM_CHUNK block each; one and two
    # steps cover the pool's first and last draw, twenty its steady state
    start = threading.active_count()
    seen = {1: set(), 4: set()}  # thread counts at each step's loss
    packs, pack = [], MLPDenoiser._pack
    monkeypatch.setattr(MLPDenoiser, "_pack", lambda self, *a: packs.append(1) or pack(self, *a))
    one = _train_on_cpus(monkeypatch, {0}, lambda s, l: seen[1].add(threading.active_count()),
                         steps)
    four = _train_on_cpus(monkeypatch, {0, 1, 2, 3},
                          lambda s, l: seen[4].add(threading.active_count()), steps)
    assert seen[1] == {start + 1} and max(seen[4]) > start  # one pool thread on one CPU
    assert len(packs) == 2 * steps  # no batch is drawn past the last step
    for k in one.params:
        assert one.params[k].tobytes() == four.params[k].tobytes()


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2, 3}], ids=["1-cpu", "4-cpus"])
def test_a_non_finite_loss_names_its_step_with_a_draw_in_flight(monkeypatch, cpus):
    # step 3's forward turns to NaN; step 4's batch is being packed on a worker
    # when the error leaves the caller, and the pool still closes
    start = threading.active_count()
    forward, pack = MLPDenoiser._forward, MLPDenoiser._pack
    packs, forwards, in_flight = [], [], []
    packing, packed = threading.Event(), threading.Event()

    def slow_pack(self, *args):
        packs.append(len(packs) + 1)
        if len(packs) != 4:
            return pack(self, *args)
        packing.set()  # step 4's batch, drawn during step 3
        time.sleep(0.2)
        X = pack(self, *args)
        packed.set()
        return X

    def nan_forward(self, X):
        forwards.append(len(forwards) + 1)
        out, cache = forward(self, X)
        if len(forwards) == 3:
            assert packing.wait(10.0)
            in_flight.append(not packed.is_set())
            out[0, 0] = np.nan
        return out, cache

    monkeypatch.setattr(MLPDenoiser, "_pack", slow_pack)
    monkeypatch.setattr(MLPDenoiser, "_forward", nan_forward)
    with pytest.raises(TrainingError, match="non-finite loss at step 3$"):
        _train_on_cpus(monkeypatch, cpus)
    assert forwards == [1, 2, 3]
    assert in_flight == [True] and len(packs) == 4
    assert packed.is_set()  # the pool waited for the draw to finish
    assert threading.active_count() == start


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2, 3}], ids=["1-cpu", "4-cpus"])
def test_a_backward_that_raises_leaves_no_worker_waiting(monkeypatch, cpus):
    # step 3's Wr1 weight product raises after Wo's blocks were released and handed
    # to the workers: the error leaves training, and the pool closes
    start = threading.active_count()
    forward, backward = MLPDenoiser._forward, MLPDenoiser._backward
    forwards, released, errors = [], [], []

    class FailingProduct(np.ndarray):
        def __matmul__(self, other):
            raise RuntimeError("the Wr1 product failed")

    def failing_forward(self, X):
        forwards.append(len(forwards) + 1)
        out, cache = forward(self, X)
        if len(forwards) == 3:
            h_in, a = cache["acts"][1]
            cache["acts"][1] = (h_in.view(FailingProduct), a)
        return out, cache

    def recording(self, cache, d_out, grads, release, pool):
        return backward(self, cache, d_out, grads,
                        lambda names: released.append(names) or release(names), pool)

    def train():
        try:
            _train_on_cpus(monkeypatch, cpus, steps=5)
        except RuntimeError as exc:
            errors.append(exc)

    monkeypatch.setattr(MLPDenoiser, "_forward", failing_forward)
    monkeypatch.setattr(MLPDenoiser, "_backward", recording)
    runner = threading.Thread(target=train, daemon=True)
    runner.start()
    runner.join(60.0)
    assert not runner.is_alive(), "training did not return after its backward raised"
    assert [str(exc) for exc in errors] == ["the Wr1 product failed"]
    assert forwards == [1, 2, 3] and released[-1] == ("Wo", "bo")
    assert threading.active_count() == start


def test_training_leaves_no_thread_behind(monkeypatch):
    start = threading.active_count()
    _train_on_cpus(monkeypatch, {0, 1, 2, 3})
    assert threading.active_count() == start

    def fail(step, loss):
        if step == 5:
            raise RuntimeError("stopped by the loss callback")
    with pytest.raises(RuntimeError, match="stopped by the loss callback"):
        _train_on_cpus(monkeypatch, {0, 1, 2, 3}, fail)
    assert threading.active_count() == start


# Trains, samples, and fails each way once, reading numpy's OpenBLAS thread count
# before and after each call and inside each hot loop; prints it all as JSON.
_BLAS_THREADS_SCRIPT = """
import hashlib, json
import numpy as np
from poseguide.datagen import MotionSpec, generate_motion
from poseguide.denoiser import MLPDenoiser, TrainConfig, TrainingError, _openblas, train_denoiser
from poseguide.measurement import extract_measurements
from poseguide.sampler import GuidanceConfig, SamplerDivergence, run_guided_inference
from tests.test_denoiser import small_config, small_dataset

get = _openblas()[0]
reads, inside, digests = [get()], set(), []
ds, skel = small_dataset()
model = train_denoiser(ds, small_config(hidden=160, batch=32, steps=20),
                       lambda step, loss: inside.add(get()))
reads.append(get())
digests.append(b"".join(model.params[k].tobytes() for k in sorted(model.params)))
# an untrained prior: its state drifts furthest from any rounding difference
prior = MLPDenoiser(small_config(hidden=160))
condition = prior.condition
def recording(*args):
    *bound, denoise = condition(*args)
    return (*bound, lambda z, t: inside.add(get()) or denoise(z, t))
prior.condition = recording
pred = run_guided_inference(ds[0][1], skel, prior, 5, GuidanceConfig())
reads.append(get())
digests.append(pred.rotations.tobytes() + pred.root_translation.tobytes())

forward = MLPDenoiser._forward
def nan_forward(self, X):
    out, cache = forward(self, X)
    out[0, 0] = np.nan
    return out, cache
MLPDenoiser._forward = nan_forward
try:
    train_denoiser(ds, small_config())
except TrainingError:
    reads.append(get())
MLPDenoiser._forward = forward

bad = MLPDenoiser(TrainConfig(hidden=8))  # estimates zero at window frame 3, joint 18
cols = slice(3 * 132 + 18 * 6, 3 * 132 + 19 * 6)
bad.params["Wo"][:, cols] = 0.0
bad.params["bo"][cols] = 0.0
truth = generate_motion(MotionSpec(kind="reach", frames=100, seed=1), skel)
try:
    run_guided_inference(extract_measurements(truth, skel, 0.0, seed=0), skel, bad, 10,
                         GuidanceConfig())
except SamplerDivergence:
    reads.append(get())
print(json.dumps({"reads": reads, "inside": sorted(inside),
                  "digests": [hashlib.sha256(d).hexdigest() for d in digests]}))
"""


@pytest.mark.skipif(_openblas() is None, reason="numpy's BLAS is not its bundled OpenBLAS")
def test_blas_runs_at_one_thread_in_training_and_sampling_and_is_restored():
    # trained and sampled bits used to change with OPENBLAS_NUM_THREADS on a
    # machine with more than one CPU; the old count comes back after a return
    # and after a TrainingError or a SamplerDivergence
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    runs = {}
    for threads in (None, "1"):
        run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=run_env,
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = json.loads(proc.stdout)
    for run in runs.values():
        assert run["inside"] == [1]
        assert run["reads"] == run["reads"][:1] * 5
    assert runs["1"]["reads"][0] == 1
    assert runs[None]["digests"] == runs["1"]["digests"]


@pytest.mark.parametrize("mode", ["identity", "sigma"])
def test_guided_inference_starts_no_thread(monkeypatch, mode):
    # sampling runs on the calling thread alone: no worker is started for the
    # guided step's products, neither on the first inference nor on later ones
    ds, skel = small_dataset(1)
    prior = MLPDenoiser(small_config())
    start, started = threading.active_count(), []
    thread_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or thread_start(self))
    for _ in range(2):
        run_guided_inference(ds[0][1], skel, prior, 2, GuidanceConfig(covariance_mode=mode))
        assert threading.active_count() == start
    assert started == []


def test_training_errors():
    ds, skel = small_dataset()
    with pytest.raises(TrainingError, match="^need at least 10 windows, got 0$"):
        train_denoiser([], small_config())
    with pytest.raises(TrainingError, match="^sequence 0: 60 frames, shorter than the window "
                                            "of 100$"):
        train_denoiser(ds, small_config(window=100))
    # a short sequence used to be dropped without a word, 60 poses were trained
    # against the first 60 of 70 measured frames, and 50 measured frames failed
    # with numpy's "inhomogeneous shape"; each is refused by its sequence index
    def walk(frames):
        poses = generate_motion(MotionSpec(kind="walk", frames=frames), skel)
        return poses, extract_measurements(poses, skel, 0.0)

    for pair, match in ((walk(20), "20 frames, shorter than the window of 41"),
                        ((ds[2][0], walk(70)[1]), "60 pose frames but 70 measured frames"),
                        ((ds[2][0], walk(50)[1]), "60 pose frames but 50 measured frames"),
                        ((PoseSequence(ds[2][0].rotations[:, :21], np.zeros((60, 3))), ds[2][1]),
                         "poses have 21 joints, expected 22")):
        with pytest.raises(TrainingError, match=f"^sequence 2: {match}$"):
            train_denoiser(ds[:2] + [pair], small_config(window=41))


def test_train_config_refuses_bad_fields():
    for field, value in (("window", 0), ("hidden", 0), ("batch", 0), ("steps", 0),
                         ("cond_spec", "rotations+locations"), ("cond_spec", "velocities"),
                         ("step_size", -1e-3), ("step_size", 0.0), ("step_size", float("nan")),
                         ("step_size", float("inf")), ("seed", -5),
                         # non-integer sizes and seeds used to fail inside numpy, unnamed
                         ("hidden", 24.5), ("window", 12.5), ("batch", 8.5), ("steps", 3.5),
                         ("seed", 1.5), ("seed", True), ("hidden", "8"),
                         # a bool or a string used to pass as 1.0 / 0.0 or escape as TypeError
                         ("step_size", True), ("step_size", "0.001"), ("step_size", None),
                         ("dropout_prob", False), ("dropout_prob", "0.1"),
                         # an out-of-range dropout_prob used to be refused without its name
                         ("dropout_prob", 1.5), ("dropout_prob", -0.1), ("dropout_prob", 1.0)):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


def test_conditioning_affects_prediction():
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.2))
    rng = np.random.default_rng(2)
    r_t = rng.standard_normal((12, 22, 6))
    c1 = make_conditioning(ds[0][1], "rotations")[:12]
    c2 = make_conditioning(ds[1][1], "rotations")[:12]
    a = bind(model, c1[None], [0])(r_t[None], 1.0)[0]
    b = bind(model, c2[None], [0])(r_t[None], 1.0)[0]
    assert np.abs(a - b).max() > 0


def finite_difference_vjp(denoise, r_t, t, cotangent, step=1e-4):
    """Central differences of <cotangent, r_hat(r_t)> for a bound ``denoise``, one
    input coordinate at a time."""
    r_t = np.asarray(r_t, dtype=float)
    grad = np.zeros_like(r_t)
    flat, gflat = r_t.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        sides = []
        for x in (saved + step, saved - step):
            flat[i] = x
            sides.append(float(np.sum(cotangent * denoise(r_t, t)[0])))
        flat[i] = saved
        gflat[i] = (sides[0] - sides[1]) / (2.0 * step)
    return grad


def test_vjp_matches_finite_differences():
    # the pullback of a 2-window stack; each window's gradient comes from its own row
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config())
    rng = np.random.default_rng(5)
    r_t = rng.standard_normal((2, 12, 22, 6))
    cond = make_conditioning(ds[0][1], "rotations")[:24].reshape(2, 12, -1)
    cot = rng.standard_normal(r_t.shape)
    denoise = bind(model, cond, [0, 12])
    got = denoise(r_t, 1.5)[1](cot)
    ref = finite_difference_vjp(denoise, r_t, 1.5, cot)
    assert np.abs(got - ref).max() < 1e-5


def test_denoise_stack_equals_one_window_stacks():
    model = MLPDenoiser(TrainConfig(hidden=8))
    rng = np.random.default_rng(14)
    r_t = rng.standard_normal((3, 41, 22, 6))
    cond = rng.standard_normal((3, 41, 18))
    cot = rng.standard_normal(r_t.shape)
    r_hat, pullback = bind(model, cond, [0, 20, 40])(r_t, 2.0)
    grad = pullback(cot)
    for w in range(3):
        denoise_w = bind(model, cond[w : w + 1], [20 * w])
        r_hat_w, pullback_w = denoise_w(r_t[w : w + 1], 2.0)
        assert np.abs(r_hat[w] - r_hat_w[0]).max() < 1e-12
        assert np.abs(grad[w] - pullback_w(cot[w : w + 1])[0]).max() < 1e-12


def test_pullback_on_chosen_joints_equals_the_scattered_full_pullback():
    # through the block of Wo's columns gathered for some joints, the estimate is the
    # full product's entries for them, and the pullback of a cotangent on them matches
    # the full pullback of the zero-padded cotangent.  Only to rounding: BLAS may take
    # another kernel for the narrower product (it does for one window)
    model = MLPDenoiser(TrainConfig(hidden=8))
    active = build_A(default_skeleton()).active_joints
    rng = np.random.default_rng(16)
    for n in (1, 2, 7):
        r_t = rng.standard_normal((n, 41, 22, 6))
        cond = rng.standard_normal((n, 41, 18))
        starts = 20 * np.arange(n)
        reads, writes, offset, denoise = model.condition(cond, starts)
        u, pullback = denoise(r_t.reshape(n, -1) @ reads, 2.0)
        estimate = (u @ writes + offset).reshape(r_t.shape)
        full_pullback = bind(model, cond, starts)(r_t, 2.0)[1]
        for joints in (active, (0, 5, 21)):
            block, part = _gather_joints(writes, offset, 41, 22, joints)
            assert block.flags.c_contiguous and block.shape == (8, 41 * len(joints) * 6)
            got = (u @ block + part).reshape(n, 41, len(joints), 6)
            assert_close(got, estimate[:, :, joints])
            cot = rng.standard_normal((n * 41, len(joints), 6))
            full = np.zeros((n * 41, 22, 6))
            full[:, joints] = cot
            want = full_pullback(full)
            got = (pullback(cot.reshape(n, -1) @ block.T) @ reads.T).reshape(r_t.shape)
            assert_close(got, want)


def biased_model(seed):
    """An untrained hidden-8 MLP with random biases, so the cached shares' biases show."""
    model = MLPDenoiser(TrainConfig(hidden=8, seed=seed))
    rng = np.random.default_rng(seed)
    for name in ("b0", "br0", "br1", "bo"):
        model.params[name] = rng.standard_normal(model.params[name].shape)
    return model


def packed_reference(model, r_t, t, cond, cot):
    """Estimate and full-layout pullback through training's path: ``_pack`` with no
    conditioning dropped, ``_forward``, ``_backward`` and W0's state rows."""
    n = len(r_t)
    out, cache = model._forward(model._pack(r_t, t, cond, np.zeros(n, dtype=bool)))
    with ThreadPoolExecutor(1) as pool:
        dz0 = model._backward(cache, cot.reshape(n, -1), {}, lambda names: None, pool)
    return out.reshape(r_t.shape), (dz0 @ model.params["W0"][: model.d_state].T).reshape(r_t.shape)


def assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_inference_forward_and_pullback_match_the_packed_training_path():
    # the bound step packs no input row: it splits the first layer into state, time and
    # conditioning parts, the last built once, so it agrees with the packed rows to rounding
    model = biased_model(19)
    rng = np.random.default_rng(19)
    for n in (1, 2, 7):
        for t in (2.0, rng.uniform(0.0, TERMINAL, n)):  # one time, or one per window
            r_t = rng.standard_normal((n, 41, 22, 6))
            cond = rng.standard_normal((n, 41, 18))
            cot = rng.standard_normal(r_t.shape)
            want_out, want_grad = packed_reference(model, r_t, t, cond, cot)
            out, pullback = bind(model, cond, 20 * np.arange(n))(r_t, t)
            assert_close(out, want_out)
            assert_close(pullback(cot), want_grad)


def test_denoise_refuses_misshapen_inputs_with_the_packing_message():
    # the conditioning is refused when the model is bound to it; a step's coordinates
    # are refused against the bound window count and the width (training's packing
    # takes only the shapes train_denoiser has checked, so it checks none)
    model = MLPDenoiser(TrainConfig(hidden=8))
    for cond, match in (
            (np.zeros((2, 40, 18)), r"conditioning must be \(2, 41, 18\), got \(2, 40, 18\)"),
            (np.zeros((2, 41, 9)), r"conditioning must be \(2, 41, 18\), got \(2, 41, 9\)")):
        with pytest.raises(ValueError, match=match):
            model.condition(cond, [0, 41])
    denoise = model.condition(np.zeros((2, 41, 18)), [0, 41])[-1]
    for z in (np.zeros((1, 8)), np.zeros((3, 8)), np.zeros((2, 7)), np.zeros((2, 41, 22, 6))):
        with pytest.raises(ValueError, match=rf"expected \(2, 8\) coordinates, got "
                                             rf"{re.escape(str(z.shape))}"):
            denoise(z, 1.0)


def test_pullback_refuses_a_cotangent_that_does_not_match_its_joints():
    # the pullback takes a cotangent on the last hidden layer of the bound windows;
    # one of another shape, such as one on the joints' entries, is refused by shape
    model = MLPDenoiser(TrainConfig(hidden=8))
    rng = np.random.default_rng(18)
    cond, r_t = rng.standard_normal((2, 41, 18)), rng.standard_normal((2, 41, 22, 6))
    reads, _, _, denoise = model.condition(cond, [0, 41])
    pullback = denoise(r_t.reshape(2, -1) @ reads, 2.0)[1]
    for du in (np.ones((2, 9)), np.ones((1, 8)), np.ones(16), np.ones((82, 8, 6))):
        with pytest.raises(ValueError, match=rf"^cotangent shape {re.escape(str(du.shape))} "
                                             rf"does not match \(2, 8\)$"):
            pullback(du)


def test_pack_rows_hold_state_time_and_conditioning():
    model = MLPDenoiser(TrainConfig(window=3, hidden=8))
    rng = np.random.default_rng(15)
    r_t = rng.standard_normal((2, 3, 22, 6))
    cond = rng.standard_normal((2, 3, 18))
    t = np.array([0.5, 7.0])
    X = model._pack(r_t, t, cond, np.array([False, True]))
    assert X.shape == (2, model.d_in)
    d = model.d_state
    assert np.array_equal(X[:, :d], r_t.reshape(2, -1))
    for row in range(2):
        x = 2.0 * np.pi * t[row] / TERMINAL
        want = [np.sin(k * x) for k in range(1, 5)] + [np.cos(k * x) for k in range(1, 5)]
        assert np.allclose(X[row, d : d + 8], want, rtol=0, atol=1e-15)
    assert np.array_equal(X[0, d + 8 : -1], cond[0].reshape(-1))
    assert X[0, -1] == 0.0
    # a dropped row has zeroed conditioning and the flag set
    assert np.all(X[1, d + 8 : -1] == 0.0) and X[1, -1] == 1.0
    # one time for the whole stack matches the same time given per row
    same = model._pack(r_t, 7.0, cond, np.array([False, True]))
    assert np.array_equal(same[1], X[1])


def test_checkpoint_roundtrip(tmp_path):
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.1))
    path = tmp_path / "model.npz"
    model.save(path)
    back = MLPDenoiser.load(path)
    assert back.config == model.config
    rng = np.random.default_rng(6)
    r_t = rng.standard_normal((1, 12, 22, 6))
    cond = make_conditioning(ds[0][1], "rotations")[None, :12]
    assert np.array_equal(bind(back, cond, [0])(r_t, 0.7)[0],
                          bind(model, cond, [0])(r_t, 0.7)[0])
    assert model.param_count() == back.param_count()


@pytest.mark.parametrize("name, index, value", [
    ("Wo", (3, 7), np.nan), ("b0", (5,), np.inf), ("Wr1", (0, 0), -np.inf),
])
def test_a_non_finite_parameter_is_refused_by_array_and_index(tmp_path, name, index, value):
    # a NaN weight used to load; infer then reported only a state magnitude of nan
    model = MLPDenoiser(TrainConfig(window=12, hidden=8))
    model.params[name][index] = value
    path = tmp_path / "model.npz"
    model.save(path)
    at = ", ".join(map(str, index))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: parameter array '{name}' "
                                         rf"has a non-finite entry at \({at}\)$"):
        MLPDenoiser.load(path)


def test_an_absurd_parameter_is_refused_by_array_and_index(tmp_path):
    # a 1e200 weight used to load; infer then stopped at a state magnitude of 2.76e+198,
    # naming the state and not the checkpoint
    model = MLPDenoiser(TrainConfig(window=12, hidden=8))
    model.params["Wo"][3, 5] = 1e200
    model.params["W0"][2, 1] = -1e151
    path = tmp_path / "model.npz"
    model.save(path)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: parameter array 'W0' "
                                         r"has an entry past 1e\+150 at \(2, 1\)$"):
        MLPDenoiser.load(path)
    model.params["W0"][2, 1] = -1e150  # the limit itself loads
    model.save(path)
    with pytest.raises(ValueError, match=r"parameter array 'Wo' has an entry past 1e\+150 "
                                         r"at \(3, 5\)$"):
        MLPDenoiser.load(path)
    model.params["Wo"][3, 5] = 1e150
    model.save(path)
    assert MLPDenoiser.load(path).params["Wo"][3, 5] == 1e150
    # a string array used to escape as a UFuncTypeError, and a complex or bool one to load
    for value, dtype in (("0.5", "<U3"), (0.5j, "complex128"), (True, "bool")):
        model.params["bo"] = np.full(model.d_state, value)
        model.save(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: parameter array 'bo' "
                                             f"holds {dtype}, not real numbers$"):
            MLPDenoiser.load(path)


def test_checkpoint_version_guard(tmp_path):
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config())
    path = tmp_path / "model.npz"
    model.save(path)
    import json
    with np.load(path) as blob:
        header = json.loads(bytes(blob["__header__"]).decode())
        params = {k: blob[k] for k in blob.files if k != "__header__"}
    # version 3 configs still carry the since-removed terminal and blocks fields
    for version, extra in ((99, {}), (3, {"terminal": 15.0, "blocks": 2})):
        header["version"] = version
        header["config"].update(extra)
        np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **params)
        with pytest.raises(ValueError, match=f"version {version} not supported"):
            MLPDenoiser.load(path)
