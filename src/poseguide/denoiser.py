"""Conditional denoisers.

The sampler needs one call from a denoiser: ``condition`` binds it to one
sequence's conditioning windows and returns ``(reads, writes, offset,
denoise)``.  The estimate depends on a window's state x only through its
coordinates ``x @ reads`` and is affine in a last layer u: it is
``u @ writes + offset``.  ``denoise`` takes the coordinates and gives u for a
stack of 6DoF windows with its pullback, mapping a cotangent on u back to the
coordinates.  Implementations here: an oracle that denoises to a known ground
truth exactly (for tests; its estimate is all offset and reads no
coordinates), and a small trainable residual MLP over flattened windows,
trained with conditioning dropout, whose coordinates are its first layer's
pre-activation from the state and whose u is its last hidden layer.

Conditioning is a per-frame vector built from the sensed joints only:
either the three measured 6DoF rotations (18 numbers, the method) or the
three measured locations (9 numbers, the location-conditioned baseline).
Locations are never an input to the method's prior, which is what makes it
scale-free.

The noise schedule is defined once, by :func:`alpha_bar` on the horizon
[0, :data:`TERMINAL`]; training, the models and the sampler all use it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import numbers
import os
import zipfile
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .skeleton import JOINT_COUNT

CHECKPOINT_VERSION = 4
STATE_PER_FRAME = JOINT_COUNT * 6
TIME_FEATURES = 8
BLOCKS = 2  # residual blocks of the MLP
COND_DIMS = {"rotations": 18, "locations": 9}  # per-frame conditioning width
PARAMETER_LIMIT = 1e150  # largest checkpoint entry: its square stays finite, as ROTATION_LIMIT's


class TrainingError(RuntimeError):
    """Training aborted (no data, non-finite loss, ...); ``sequence`` indexes a refused pair."""

    sequence: int | None = None


TERMINAL = 15.0  # diffusion horizon: t runs over [0, TERMINAL]


def alpha_bar(t):
    """VP-SDE signal level at diffusion time ``t`` (scalar or array).

    The linear sigma rule sigma(t) = t gives alpha-bar = 1 / (1 + sigma^2).
    """
    return 1.0 / (1.0 + t**2)


def make_conditioning(measurements, cond_spec: str) -> np.ndarray:
    """Per-frame conditioning vector from a MeasurementSet: its sensed 6DoF
    (``rotations``, scale-free) or its raw sensed locations (``locations``)."""
    if cond_spec not in COND_DIMS:
        raise ValueError(f"unknown cond_spec {cond_spec!r}")
    return getattr(measurements, cond_spec).reshape(measurements.frames, -1)


def _time_features(t) -> np.ndarray:
    x = 2.0 * np.pi * np.asarray(t, dtype=float)[..., None] / TERMINAL
    ks = np.arange(1, TIME_FEATURES // 2 + 1)
    return np.concatenate([np.sin(ks * x), np.cos(ks * x)], axis=-1)


@functools.cache
def _openblas():
    """The thread-count (getter, setter) of numpy's bundled OpenBLAS, or None without them."""
    import ctypes
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                       .glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread, restoring the old count on exit.

    Training runs its own threads beside the caller, so a second BLAS thread
    would only oversubscribe the cores; sampling runs on the calling thread
    alone.  At one thread the products round the same whatever
    ``OPENBLAS_NUM_THREADS`` says.  The count is process-global: BLAS that
    another thread of the process runs meanwhile runs at one thread too.
    Without the bundled OpenBLAS's ``scipy_openblas_*_num_threads64_`` symbols
    (another BLAS) this does nothing, and the bits then depend on that BLAS's
    thread count.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


class DenoiserInterface:
    """Behavioral contract used by the sampler.

    ``window`` is the fixed frame capacity, or None when any length works.
    """

    window: int | None = None
    cond_spec: str = "rotations"

    def condition(self, cond: np.ndarray, starts):
        """Bind to one sequence's windows; returns ``(reads, writes, offset, denoise)``.

        ``cond`` is (windows, W, C) and ``starts`` the first sequence frame of each
        window.  ``reads`` is a (D, k) matrix, D = W * J * 6: the estimate depends on
        a window's flattened state x only through ``x @ reads``.  ``denoise(z, t)``
        takes those (windows, k) coordinates and returns ``(u, pullback)``: the
        (windows, k') last layer, whose estimate is ``u @ writes + offset`` with
        ``writes`` (k', D) and ``offset`` (D,) or (windows, D), and ``pullback(du)``,
        the (windows, k) gradient at z of <du, u> for a (windows, k') ``du``.
        """
        raise NotImplementedError


class OracleDenoiser(DenoiserInterface):
    """Denoises to a known ground-truth sequence exactly.

    ``condition`` checks the windows against the stored truth and gathers
    them once; the estimate is that stack, constant in the input, so it is all
    ``offset``: ``reads`` has no columns, ``writes`` no rows, and u and its
    pullback are empty.
    """

    def __init__(self, ground_truth_rotations: np.ndarray):
        self.truth = np.asarray(ground_truth_rotations, dtype=float)

    def condition(self, cond, starts):
        W = np.shape(cond)[1]
        for w, start in enumerate(starts):
            if not 0 <= start <= len(self.truth) - W:
                raise ValueError(f"window {w} (frames {start} to {start + W - 1}) runs past "
                                 f"the stored ground truth of {len(self.truth)} frames")
        truth = self.truth[np.asarray(starts, dtype=int)[:, None] + np.arange(W)]
        truth = truth.reshape(len(truth), -1)
        none = np.zeros((len(truth), 0))

        def denoise(z, t):
            if np.shape(z) != none.shape:
                raise ValueError(f"coordinates of shape {np.shape(z)} do not match the "
                                 f"{len(truth)} windows of the stored ground truth")
            return none, lambda du: none

        return np.zeros((truth.shape[1], 0)), np.zeros((0, truth.shape[1])), truth, denoise


def check_count(name: str, value, low: int | None = None) -> None:
    """Refuse, by ``name``, a ``value`` that is not an integer (a bool is not) or is below ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def check_real(name: str, value) -> None:
    """Refuse, by ``name``, a ``value`` that is not a real number (a bool is not)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass
class TrainConfig:
    window: int = 41
    dropout_prob: float = 0.1       # share of training rows whose conditioning is zeroed
    step_size: float = 1e-3
    steps: int = 4000
    batch: int = 32
    hidden: int = 80
    seed: int = 0
    cond_spec: str = "rotations"    # a key of COND_DIMS

    def __post_init__(self):
        check_real("dropout_prob", self.dropout_prob)
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")
        for name, low in (("window", 1), ("hidden", 1), ("batch", 1), ("steps", 1), ("seed", 0)):
            check_count(name, getattr(self, name), low)
        check_real("step_size", self.step_size)
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.cond_spec not in COND_DIMS:
            raise ValueError(f"cond_spec must be one of {list(COND_DIMS)}, got {self.cond_spec!r}")


class MLPDenoiser(DenoiserInterface):
    """Residual MLP over a flattened window, with time and conditioning inputs.

    Input layout: [flattened r_t | time features | flattened conditioning |
    dropped-conditioning flag].  1,063,652 parameters at the default width
    (window 41, hidden 80); 2,147,492 at hidden 160.
    """

    def __init__(self, config: TrainConfig, params: dict | None = None):
        self.config = config
        self.window = config.window
        self.cond_spec = config.cond_spec
        self._cdim = COND_DIMS[config.cond_spec]
        self.d_state = config.window * STATE_PER_FRAME
        self.d_side = TIME_FEATURES + config.window * self._cdim + 1
        self.d_in = self.d_state + self.d_side
        h = config.hidden
        shapes = {"W0": (self.d_in, h), "b0": (h,),
                  "Wo": (h, self.d_state), "bo": (self.d_state,)}
        for k in range(BLOCKS):
            # side features (time + conditioning) re-enter every block so
            # the conditioning pathway keeps full gain past the bottleneck
            shapes.update({f"Wr{k}": (h, h), f"Wc{k}": (self.d_side, h), f"br{k}": (h,)})
        if params is None:
            rng = np.random.default_rng(config.seed)
            # glorot weights, drawn in table order; zero biases
            params = {name: rng.standard_normal(shape) * np.sqrt(2.0 / sum(shape))
                      if len(shape) == 2 else np.zeros(shape) for name, shape in shapes.items()}
            params["Wo"] *= 0.1
        else:
            for name, shape in shapes.items():
                if name not in params:
                    raise ValueError(f"parameter array {name!r} is missing")
                if np.shape(params[name]) != shape:
                    raise ValueError(f"parameter array {name!r} has shape "
                                     f"{np.shape(params[name])}, expected {shape}")
                values = params[name]
                if values.dtype.kind not in "iuf":
                    raise ValueError(f"parameter array {name!r} holds {values.dtype}, "
                                     "not real numbers")
                if not (values.max() <= PARAMETER_LIMIT and values.min() >= -PARAMETER_LIMIT):
                    at = np.unravel_index(np.argmax(~(np.abs(values) <= PARAMETER_LIMIT)), shape)
                    fault = (f"an entry past {PARAMETER_LIMIT:g}" if np.isfinite(values[at])
                             else "a non-finite entry")
                    raise ValueError(f"parameter array {name!r} has {fault} at "
                                     f"({', '.join(map(str, at))})")
            extra = sorted(set(params) - set(shapes))
            if extra:
                raise ValueError(f"unexpected parameter array {extra[0]!r}")
        self.params = params

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def _pack(self, r_t, t, cond, drop):
        """One input row per window.  ``t`` is one time or one per window; a
        window marked in ``drop`` gets zeroed conditioning and the flag 1."""
        n = r_t.shape[0]
        X = np.empty((n, self.d_in))
        X[:, : self.d_state] = r_t.reshape(n, -1)
        X[:, self.d_state : self.d_state + TIME_FEATURES] = _time_features(t)
        X[:, self.d_state + TIME_FEATURES : -1] = cond.reshape(n, -1)
        X[drop, self.d_state + TIME_FEATURES : -1] = 0.0
        X[:, -1] = drop
        return X

    def _forward(self, X: np.ndarray):
        """Batched forward pass; returns output and the activation cache."""
        p = self.params
        z0 = X @ p["W0"] + p["b0"]
        h = np.tanh(z0)
        side = X[:, self.d_state:]
        cache = {"X": X, "h0": h, "acts": []}
        for k in range(BLOCKS):
            a = np.tanh(h @ p[f"Wr{k}"] + side @ p[f"Wc{k}"] + p[f"br{k}"])
            cache["acts"].append((h, a))
            h = h + a
        cache["hout"] = h
        return h @ p["Wo"] + p["bo"], cache

    def _backward(self, cache, d_out, grads, release, pool):
        """Backward pass of <d_out, output>: fills ``grads`` with the parameter
        gradients and returns the gradient at the first pre-activation.

        ``release(names)`` is called once per parameter name, as soon as that
        gradient is final and the pass will not read the parameter again: Wo and
        bo after the first product, each block's three after its own, W0 and b0
        at the end.  A worker of ``pool`` computes Wo's gradient while the caller
        computes the gradient at the hidden layer.
        """
        wo = pool.submit(np.matmul, cache["hout"].T, d_out)
        grads["bo"] = d_out.sum(axis=0)
        dh = d_out @ self.params["Wo"].T
        grads["Wo"] = wo.result()
        release(("Wo", "bo"))
        for k in reversed(range(BLOCKS)):
            h_in, a = cache["acts"][k]
            da = dh * (1.0 - a * a)
            grads[f"Wr{k}"] = h_in.T @ da
            grads[f"Wc{k}"] = cache["X"][:, self.d_state:].T @ da
            grads[f"br{k}"] = da.sum(axis=0)
            dh = dh + da @ self.params[f"Wr{k}"].T
            release((f"Wr{k}", f"Wc{k}", f"br{k}"))
        dz0 = dh * (1.0 - cache["h0"] * cache["h0"])
        grads["W0"] = cache["X"].T @ dz0
        grads["b0"] = dz0.sum(axis=0)
        release(("W0", "b0"))
        return dz0

    def condition(self, cond, starts):
        """Bind to one sequence's conditioning (see ``DenoiserInterface``).

        ``reads`` is a view of W0's state rows, so the coordinates z are the state's
        share of the first pre-activation; ``writes`` and ``offset`` are Wo and bo,
        so u is the last hidden layer.  Built once, from the parameter arrays as
        they are now: the share of the side rows (time | conditioning | flag 0) of W0
        and Wc{k} that reads ``cond``, plus b0 and br{k}.  Each step runs
        ``_forward``'s arithmetic from z and the time rows up to the last hidden
        layer, reading neither W0's state rows nor Wo; the pullback runs the block
        backward from a cotangent on that layer and returns the gradient at the first
        pre-activation.  The network regresses the clean signal rather than the noise,
        so the noise estimate the sampler derives from r_t = sqrt(ab) r0 + sqrt(1-ab)
        eps tends to r_t at high noise without r_t having to pass through the
        bottleneck.
        """
        p, W = self.params, self.window
        cond = np.asarray(cond, dtype=float)
        if cond.shape != cond.shape[:1] + (W, self._cdim):
            raise ValueError(f"conditioning must be {cond.shape[:1] + (W, self._cdim)}, "
                             f"got {cond.shape}")
        n = len(cond)
        reads = p["W0"][: self.d_state]
        side_w = [p["W0"][self.d_state :]] + [p[f"Wc{k}"] for k in range(BLOCKS)]
        biases = [p["b0"]] + [p[f"br{k}"] for k in range(BLOCKS)]
        c = cond.reshape(n, -1)
        shares = [c @ w[TIME_FEATURES:-1] + b for w, b in zip(side_w, biases)]
        Wr = [p[f"Wr{k}"] for k in range(BLOCKS)]

        def denoise(z, t):
            z = np.asarray(z, dtype=float)
            if z.shape != (n, reads.shape[1]):
                raise ValueError(f"expected ({n}, {reads.shape[1]}) coordinates, got {z.shape}")
            tf = _time_features(t)
            pre = [tf @ w[:TIME_FEATURES] + share for w, share in zip(side_w, shares)]
            h0 = h = np.tanh(z + pre[0])
            acts = []
            for k in range(BLOCKS):
                acts.append(np.tanh(h @ Wr[k] + pre[k + 1]))
                h = h + acts[k]

            def pullback(du):
                if np.shape(du) != h.shape:
                    raise ValueError(f"cotangent shape {np.shape(du)} does not match {h.shape}")
                dh = du
                for k in reversed(range(BLOCKS)):
                    da = dh * (1.0 - acts[k] * acts[k])
                    dh = dh + da @ Wr[k].T
                return dh * (1.0 - h0 * h0)

            return h, pullback

        return reads, p["Wo"], p["bo"], denoise

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Write the checkpoint at exactly ``path`` (an open file keeps ``np.savez``
        from appending ``.npz`` to another name)."""
        header = {"version": CHECKPOINT_VERSION, "config": asdict(self.config)}
        with open(path, "wb") as fh:
            np.savez(fh, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                     **self.params)

    @staticmethod
    def load(path) -> "MLPDenoiser":
        try:
            with np.load(path) as blob:
                header = json.loads(bytes(blob["__header__"]).decode())
                params = {k: blob[k] for k in blob.files if k != "__header__"}
            version = header["version"]
            config = TrainConfig(**header["config"]) if version == CHECKPOINT_VERSION else None
        except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path} is not a poseguide checkpoint "
                             f"({type(exc).__name__}: {exc})") from exc
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint version {version} not supported")
        try:
            return MLPDenoiser(config, params=params)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _extract_windows(dataset, config: TrainConfig):
    """Window views (state, conditioning) of one concatenation of the pairs' sequences,
    and the first frame of each training window in it, one every W // 4 frames of a
    sequence; refuses, by its index, a pair that is misshapen or shorter than the
    window, then a dataset of fewer than 10 windows."""
    W = config.window
    rotations, conds, starts, offset = [], [], [], 0
    for i, (poses, meas) in enumerate(dataset):
        refusal = None
        if poses.joint_count != JOINT_COUNT:
            refusal = f"poses have {poses.joint_count} joints, expected {JOINT_COUNT}"
        elif meas.frames != poses.frames:
            refusal = f"{poses.frames} pose frames but {meas.frames} measured frames"
        elif poses.frames < W:
            refusal = f"{poses.frames} frames, shorter than the window of {W}"
        if refusal is not None:
            exc = TrainingError(f"sequence {i}: {refusal}")
            exc.sequence = i
            raise exc
        rotations.append(poses.rotations)
        conds.append(make_conditioning(meas, config.cond_spec))
        starts.extend(range(offset, offset + poses.frames - W + 1, max(1, W // 4)))
        offset += poses.frames
    if len(starts) < 10:  # before concatenating: an empty dataset has nothing to join
        raise TrainingError(f"need at least 10 windows, got {len(starts)}")
    states, conds = (np.moveaxis(np.lib.stride_tricks.sliding_window_view(
        np.concatenate(x), W, axis=0), -1, 1) for x in (rotations, conds))
    return states, conds, np.array(starts)


_ADAM_CHUNK = 32768  # elements per block: a thread's two 256 KB scratch buffers stay in cache


@contextlib.contextmanager
def _adam_update(params, grads, m, v, step, step_size, pool, workers):
    """One Adam step (Kingma & Ba, 2015), in place, on the arrays released into it.

    A context manager yielding ``release(names)``, which queues the flat view of
    each named (C-contiguous) array in blocks of ``_ADAM_CHUNK`` elements, then
    submits ``workers`` drain tasks to the ``ThreadPoolExecutor`` ``pool``.  A
    drain takes blocks off the queue until it is empty, then returns: no thread
    ever waits for a block, even when the block raises.  On leaving the block
    the caller drains too, then waits for every drain.  Each thread walks its
    blocks through two scratch buffers of its own.  Every element goes through
    the operations, in the order, of m = b1 m + (1-b1) g, v = b2 v + (1-b2) g g
    and p -= lr (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps), so the result is
    bit-identical whatever the release order or worker count; numpy releases
    the GIL inside them.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    c1, c2 = 1 - b1**step, 1 - b2**step
    queue, drains = collections.deque(), []

    def release(names):
        for k in names:
            flat = [x.reshape(-1) for x in (grads[k], m[k], v[k], params[k])]
            queue.extend([x[lo : lo + _ADAM_CHUNK] for x in flat]
                         for lo in range(0, flat[0].size, _ADAM_CHUNK))
        drains.extend(pool.submit(drain) for _ in range(workers))

    def drain():
        scratch_a, scratch_b = np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK)
        while True:
            try:
                gs, ms, vs, ps = queue.popleft()  # thread-safe: each block goes to one thread
            except IndexError:
                return
            a, b = scratch_a[: gs.size], scratch_b[: gs.size]
            ms *= b1
            np.multiply(gs, 1 - b1, out=a)
            ms += a
            vs *= b2
            np.multiply(gs, 1 - b2, out=a)
            a *= gs
            vs += a
            np.divide(ms, c1, out=a)
            a *= step_size
            np.divide(vs, c2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            ps -= a

    yield release
    drain()
    for future in drains:
        future.result()


def train_denoiser(dataset, config: TrainConfig, loss_callback=None) -> MLPDenoiser:
    """Denoising training, deterministic per seed.

    Samples a window and a diffusion time, noises the clean rotations with
    the matching alpha-bar, and regresses the clean signal (the network's
    output convention; the sampler derives the noise estimate from it).
    Each row's conditioning is dropped (zeroed and flagged) with
    probability ``config.dropout_prob``; inference always conditions.
    The sequences are held once, as one concatenation read through window views,
    and a step's arrays are freed when the step ends, before the next forward.

    A pool of at least one worker, one per CPU beyond the first, draws and packs
    the next batch while the caller runs the step; a worker computes Wo's
    gradient beside the caller's first backward product, and each parameter's
    Adam blocks start on the pool as soon as the backward has last read it.  On
    one CPU the single worker shares it with the caller.  The draws run one at a
    time, in step order, and only the drawing thread touches the training RNG,
    so every batch, and the trained bits, are the same at any CPU count.  BLAS
    runs at one thread meanwhile (``_one_blas_thread``), so they are also the
    same at any ``OPENBLAS_NUM_THREADS``.
    """
    from concurrent.futures import ThreadPoolExecutor  # loaded only when a pool is opened

    states, conds, starts = _extract_windows(dataset, config)
    model = MLPDenoiser(config)
    rng = np.random.default_rng(config.seed + 1)
    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    B = config.batch

    def draw():
        """One batch: the packed input rows and the clean targets."""
        idx = starts[rng.integers(0, len(starts), size=B)]
        x0 = states[idx]
        t = rng.uniform(1e-3, TERMINAL, size=B)
        ab = alpha_bar(t)
        noise = rng.standard_normal(x0.shape)
        x_t = (np.sqrt(ab)[:, None, None, None] * x0
               + np.sqrt(1 - ab)[:, None, None, None] * noise)
        drop = rng.random(B) < config.dropout_prob
        return model._pack(x_t, t, conds[idx], drop), x0.reshape(B, -1)

    def train_step(step, X, target):
        """Forward, loss, backward and Adam update; the step's arrays die on return."""
        out, cache = model._forward(X)
        resid = out - target
        loss = float(np.mean(resid**2))
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at step {step}")
        if loss_callback is not None:
            loss_callback(step, loss)
        d_out = 2.0 * resid / resid.size
        grads = {}
        with _adam_update(model.params, grads, adam_m, adam_v, step, config.step_size,
                          pool, workers) as release:
            model._backward(cache, d_out, grads, release, pool)

    # the CPUs this process may run on; the caller's thread takes one part of each update
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, (cpus or 1) - 1)
    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        batch = pool.submit(draw)
        for step in range(1, config.steps + 1):
            X, target = batch.result()
            if step < config.steps:
                batch = pool.submit(draw)
            train_step(step, X, target)
    return model
