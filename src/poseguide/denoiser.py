"""Conditional denoisers.

The sampler needs one call from a denoiser: ``denoise`` returns the
clean-signal estimates r_hat for a stack of 6DoF windows together with
their pullback, which maps a cotangent on r_hat back to the noisy input.
Implementations here: an oracle that denoises to a known ground truth
exactly (for tests), and a small trainable residual MLP over flattened
windows, trained with conditioning dropout.

Conditioning is a per-frame vector built from the sensed joints only:
either the three measured 6DoF rotations (18 numbers, the method) or the
three measured locations (9 numbers, the location-conditioned baseline).
Locations are never an input to the method's prior, which is what makes it
scale-free.

The noise schedule is defined once, by :func:`alpha_bar` on the horizon
[0, :data:`TERMINAL`]; training, the models and the sampler's
:class:`~poseguide.sampler.Schedule` all use it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict

import numpy as np

CHECKPOINT_VERSION = 4
JOINTS = 22
STATE_PER_FRAME = JOINTS * 6
TIME_FEATURES = 8
BLOCKS = 2  # residual blocks of the MLP
COND_DIMS = {"rotations": 18, "locations": 9}  # per-frame conditioning width


class TrainingError(RuntimeError):
    """Training aborted (empty dataset, non-finite loss, ...)."""


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


class DenoiserInterface:
    """Behavioral contract used by the sampler.

    ``window`` is the fixed frame capacity, or None when any length works.
    """

    window: int | None = None
    cond_spec: str = "rotations"

    def denoise(self, r_t: np.ndarray, t: float, cond: np.ndarray, starts):
        """Estimates for a stack of windows and their pullback: ``(r_hat, pullback)``.

        ``r_t`` is (windows, W, J, 6), ``cond`` (windows, W, C), and
        ``starts`` the first sequence frame of each window.  ``r_hat`` has the
        shape of ``r_t``; ``pullback(cot)`` takes r_hat's entries in any shape
        (the sampler passes them frame-stacked) and returns (d r_hat / d r_t)^T cot.
        """
        raise NotImplementedError


class OracleDenoiser(DenoiserInterface):
    """Denoises to a known ground-truth sequence exactly.

    The estimate is the stored truth window, constant in the input, so the
    pullback is zero.
    """

    def __init__(self, ground_truth_rotations: np.ndarray):
        self.truth = np.asarray(ground_truth_rotations, dtype=float)

    def denoise(self, r_t, t, cond, starts):
        W = np.shape(r_t)[1]
        for w, start in enumerate(starts):
            if not 0 <= start <= len(self.truth) - W:
                raise ValueError(f"window {w} (frames {start} to {start + W - 1}) runs past "
                                 f"the stored ground truth of {len(self.truth)} frames")
        truth = self.truth[np.asarray(starts, dtype=int)[:, None] + np.arange(W)]
        if truth.shape != np.shape(r_t):
            raise ValueError("window does not match the stored ground truth")
        return truth, lambda cot: np.zeros(truth.shape)


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
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        for name in ("window", "hidden", "batch", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.cond_spec not in COND_DIMS:
            raise ValueError(f"cond_spec must be one of {list(COND_DIMS)}, got {self.cond_spec!r}")


class MLPDenoiser(DenoiserInterface):
    """Residual MLP over a flattened window, with time and conditioning inputs.

    Input layout: [flattened r_t | time features | flattened conditioning |
    dropped-conditioning flag].  Well under 1e6 parameters at the default width.
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
            extra = sorted(set(params) - set(shapes))
            if extra:
                raise ValueError(f"unexpected parameter array {extra[0]!r}")
        self.params = params

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def _pack(self, r_t, t, cond, drop):
        """One input row per window.  ``t`` is one time or one per window; a
        window marked in ``drop`` gets zeroed conditioning and the flag 1."""
        n, W = r_t.shape[0], self.window
        if r_t.shape[1:] != (W, JOINTS, 6):
            raise ValueError(f"expected (windows, {W}, {JOINTS}, 6) stack, got {r_t.shape}")
        if cond.shape != (n, W, self._cdim):
            raise ValueError(f"conditioning must be ({n}, {W}, {self._cdim}), got {cond.shape}")
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

    def _backward(self, cache, d_out, grads=None):
        """Backward pass of <d_out, output>; returns the gradient at the
        first pre-activation, and fills ``grads`` with the parameter
        gradients when a dict is given."""
        p = self.params
        if grads is not None:
            grads["Wo"] = cache["hout"].T @ d_out
            grads["bo"] = d_out.sum(axis=0)
        dh = d_out @ p["Wo"].T
        side = cache["X"][:, self.d_state:]
        for k in reversed(range(BLOCKS)):
            h_in, a = cache["acts"][k]
            da = dh * (1.0 - a * a)
            if grads is not None:
                grads[f"Wr{k}"] = h_in.T @ da
                grads[f"Wc{k}"] = side.T @ da
                grads[f"br{k}"] = da.sum(axis=0)
            dh = dh + da @ p[f"Wr{k}"].T
        dz0 = dh * (1.0 - cache["h0"] * cache["h0"])
        if grads is not None:
            grads["W0"] = cache["X"].T @ dz0
            grads["b0"] = dz0.sum(axis=0)
        return dz0

    def denoise(self, r_t, t, cond, starts):
        """The network output is r_hat, one row per window; the pullback reuses
        this call's activations and returns only the state slice of the input gradient.

        The network regresses the clean signal rather than the noise: the
        noise estimate the sampler derives from r_t = sqrt(ab) r0 +
        sqrt(1-ab) eps then tends to r_t at high noise without the network
        having to pass r_t through its bottleneck.
        """
        r_t = np.asarray(r_t, dtype=float)
        out, cache = self._forward(self._pack(r_t, t, cond, np.zeros(len(r_t), dtype=bool)))

        def pullback(cot):
            dz0 = self._backward(cache, np.asarray(cot, dtype=float).reshape(len(r_t), -1))
            return (dz0 @ self.params["W0"][: self.d_state].T).reshape(r_t.shape)

        return out.reshape(r_t.shape), pullback

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        header = {
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "config_hash": hashlib.sha256(
                json.dumps(asdict(self.config), sort_keys=True).encode()
            ).hexdigest()[:16],
        }
        np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **self.params)

    @staticmethod
    def load(path) -> "MLPDenoiser":
        try:
            with np.load(path) as blob:
                header = json.loads(bytes(blob["__header__"]).decode())
                params = {k: blob[k] for k in blob.files if k != "__header__"}
            version = header["version"]
            config = TrainConfig(**header["config"]) if version == CHECKPOINT_VERSION else None
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path} is not a poseguide checkpoint "
                             f"({type(exc).__name__}: {exc})") from exc
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint version {version} not supported")
        try:
            return MLPDenoiser(config, params=params)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _extract_windows(dataset, config: TrainConfig):
    """Sliding training windows (state, conditioning) from (poses, measurements) pairs."""
    W = config.window
    states, conds = [], []
    for poses, meas in dataset:
        cond = make_conditioning(meas, config.cond_spec)
        for start in range(0, poses.frames - W + 1, max(1, W // 4)):
            states.append(poses.rotations[start : start + W])
            conds.append(cond[start : start + W])
    return np.array(states), np.array(conds)


_ADAM_CHUNK = 32768  # elements per block: two 256 KB scratch buffers stay in cache


def _adam_update(params, grads, m, v, step, step_size) -> None:
    """One Adam step (Kingma & Ba, 2015) on every array of ``grads``, in place.

    Walks the flat view of each (C-contiguous) array in blocks of
    ``_ADAM_CHUNK`` through two scratch buffers that stay in cache.  The
    operations and their order are those of the whole-array expressions
    m = b1 m + (1-b1) g, v = b2 v + (1-b2) g g and
    p -= lr (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps), so the result is bit-identical.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    c1, c2 = 1 - b1**step, 1 - b2**step
    scratch_a, scratch_b = np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK)
    for k, g in grads.items():
        g, mk, vk, pk = (x.reshape(-1) for x in (g, m[k], v[k], params[k]))
        for lo in range(0, g.size, _ADAM_CHUNK):
            hi = min(lo + _ADAM_CHUNK, g.size)
            gs, ms, vs, ps = g[lo:hi], mk[lo:hi], vk[lo:hi], pk[lo:hi]
            a, b = scratch_a[: hi - lo], scratch_b[: hi - lo]
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


def train_denoiser(dataset, config: TrainConfig, loss_callback=None) -> MLPDenoiser:
    """Denoising training, deterministic per seed.

    Samples a window and a diffusion time, noises the clean rotations with
    the matching alpha-bar, and regresses the clean signal (the network's
    output convention; the sampler derives the noise estimate from it).
    Each row's conditioning is dropped (zeroed and flagged) with
    probability ``config.dropout_prob``; inference always conditions.
    """
    states, conds = _extract_windows(dataset, config)
    if len(states) == 0:
        raise TrainingError("empty dataset: no training windows")
    if len(states) < 10:
        raise TrainingError(f"need at least 10 windows, got {len(states)}")
    model = MLPDenoiser(config)
    rng = np.random.default_rng(config.seed + 1)
    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    B = config.batch
    for step in range(1, config.steps + 1):
        idx = rng.integers(0, len(states), size=B)
        x0 = states[idx]
        cond = conds[idx]
        t = rng.uniform(1e-3, TERMINAL, size=B)
        ab = alpha_bar(t)
        noise = rng.standard_normal(x0.shape)
        x_t = np.sqrt(ab)[:, None, None, None] * x0 + np.sqrt(1 - ab)[:, None, None, None] * noise
        drop = rng.random(B) < config.dropout_prob
        target = x0.reshape(B, -1)
        out, cache = model._forward(model._pack(x_t, t, cond, drop))
        resid = out - target
        loss = float(np.mean(resid**2))
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at step {step}")
        if loss_callback is not None:
            loss_callback(step, loss)
        d_out = 2.0 * resid / resid.size
        grads = {}
        model._backward(cache, d_out, grads)
        _adam_update(model.params, grads, adam_m, adam_v, step, config.step_size)
    return model


def finite_difference_vjp(denoiser: DenoiserInterface, r_t, t, cond, starts, cotangent,
                          step: float = 1e-4) -> np.ndarray:
    """Central-difference reference for a denoiser's analytic pullback.

    Differentiates <cotangent, r_hat(r_t)> one input coordinate at a time,
    so cost scales with the state size; intended for small windows.
    """
    r_t = np.asarray(r_t, dtype=float)
    cot = np.asarray(cotangent, dtype=float)

    def denoised(x):
        return denoiser.denoise(x, t, cond, starts)[0]

    grad = np.zeros_like(r_t)
    flat = r_t.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        hi = float(np.sum(cot * denoised(r_t)))
        flat[i] = saved - step
        lo = float(np.sum(cot * denoised(r_t)))
        flat[i] = saved
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad
