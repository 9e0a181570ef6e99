"""Conditional noise-prediction models.

The sampler only needs two capabilities from a denoiser: ``predict`` (the
noise estimate for a windowed 6DoF batch) and ``vjp`` (pull a cotangent on
the Tweedie-denoised estimate back to the noisy input).  Implementations
here: an oracle that denoises to a known ground truth exactly (for tests),
and a small trainable residual MLP over flattened windows with
classifier-free-guidance conditioning.

Conditioning is a per-frame vector built from the sensed joints only: the
three measured 6DoF rotations (18 numbers), optionally followed by the
three measured locations (9 more) for the location-conditioned baseline
variant.  Locations are never an input to the default configuration, which
is what makes the learned prior scale-free.

The noise schedule is defined once, by :func:`alpha_bar`; training, the
models and the sampler's :class:`~poseguide.sampler.Schedule` all call it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict, field

import numpy as np

CHECKPOINT_VERSION = 3
JOINTS = 22
STATE_PER_FRAME = JOINTS * 6
TIME_FEATURES = 8


class CapabilityError(RuntimeError):
    """Requested a prediction path the model was not trained for."""


class TrainingError(RuntimeError):
    """Training aborted (empty dataset, non-finite loss, ...)."""


def alpha_bar(t):
    """VP-SDE signal level at diffusion time ``t`` (scalar or array).

    The linear sigma rule sigma(t) = t gives alpha-bar = 1 / (1 + sigma^2).
    """
    return 1.0 / (1.0 + t**2)


def make_conditioning(measurements, cond_spec: str = "rotations") -> np.ndarray:
    """Per-frame conditioning vector from a MeasurementSet.

    ``rotations`` uses only the sensed 6DoF (scale-free); the
    ``rotations+locations`` variant appends raw sensed locations, and
    ``locations`` conditions on raw sensed locations alone.
    """
    rot = measurements.rotations.reshape(measurements.frames, -1)
    if cond_spec == "rotations":
        parts = [rot]
    elif cond_spec == "rotations+locations":
        parts = [rot, measurements.locations.reshape(measurements.frames, -1)]
    elif cond_spec == "locations":
        parts = [measurements.locations.reshape(measurements.frames, -1)]
    else:
        raise ValueError(f"unknown cond_spec {cond_spec!r}")
    return np.concatenate(parts, axis=1)


def cond_dim(cond_spec: str) -> int:
    try:
        return {"rotations": 18, "rotations+locations": 27, "locations": 9}[cond_spec]
    except KeyError:
        raise ValueError(f"unknown cond_spec {cond_spec!r}") from None


def _time_features(t: float, terminal: float) -> np.ndarray:
    x = 2.0 * np.pi * t / terminal
    ks = np.arange(1, TIME_FEATURES // 2 + 1)
    return np.concatenate([np.sin(ks * x), np.cos(ks * x)])


class DenoiserInterface:
    """Behavioral contract used by the sampler.

    ``window`` is the fixed frame capacity, or None when any length works.
    ``terminal`` is the diffusion horizon the model was trained on, or None
    when it works under any schedule.
    ``predict`` must be deterministic and shape-preserving;
    ``vjp`` is the vector-Jacobian product of the *denoised estimate*
    with respect to the noisy input, for a given cotangent.
    """

    window: int | None = None
    terminal: float | None = None
    cond_spec: str = "rotations"

    def predict(self, r_t: np.ndarray, t: float, cond: np.ndarray | None,
                frame_offset: int = 0) -> np.ndarray:
        raise NotImplementedError

    def vjp(self, r_t: np.ndarray, t: float, cond: np.ndarray | None,
            cotangent: np.ndarray, frame_offset: int = 0) -> np.ndarray:
        raise NotImplementedError


class OracleDenoiser(DenoiserInterface):
    """Returns the exact noise for a known ground-truth sequence.

    Tweedie's formula then recovers the ground truth exactly, so the
    denoised estimate is constant in the input and ``vjp`` is zero.
    """

    def __init__(self, ground_truth_rotations: np.ndarray):
        self.truth = np.asarray(ground_truth_rotations, dtype=float)

    def predict(self, r_t, t, cond=None, frame_offset=0):
        ab = alpha_bar(t)
        truth = self.truth[frame_offset : frame_offset + r_t.shape[0]]
        if truth.shape != r_t.shape:
            raise ValueError("window does not match the stored ground truth")
        if ab >= 1.0:
            return np.zeros_like(r_t)
        return (r_t - np.sqrt(ab) * truth) / np.sqrt(1.0 - ab)

    def vjp(self, r_t, t, cond, cotangent, frame_offset=0):
        return np.zeros_like(cotangent)


@dataclass
class TrainConfig:
    window: int = 41
    terminal: float = 15.0          # diffusion horizon used for training noise
    dropout_prob: float = 0.1       # conditioning dropout for CFG
    step_size: float = 1e-3
    steps: int = 4000
    batch: int = 32
    hidden: int = 80
    blocks: int = 2
    seed: int = 0
    cond_spec: str = "rotations"

    def __post_init__(self):
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")


class MLPDenoiser(DenoiserInterface):
    """Residual MLP over a flattened window, with time and conditioning inputs.

    Input layout: [flattened r_t | time features | flattened conditioning |
    unconditional flag].  Well under 1e6 parameters at the default width.
    """

    def __init__(self, config: TrainConfig, params: dict | None = None):
        self.config = config
        self.window = config.window
        self.cond_spec = config.cond_spec
        self.terminal = config.terminal
        self._cdim = cond_dim(config.cond_spec)
        self.d_state = config.window * STATE_PER_FRAME
        self.d_side = TIME_FEATURES + config.window * self._cdim + 1
        self.d_in = self.d_state + self.d_side
        self.uncond_available = config.dropout_prob > 0.0
        if params is None:
            rng = np.random.default_rng(config.seed)
            h = config.hidden
            def glorot(m, n):
                return rng.standard_normal((m, n)) * np.sqrt(2.0 / (m + n))
            params = {"W0": glorot(self.d_in, h), "b0": np.zeros(h),
                      "Wo": glorot(h, self.d_state) * 0.1, "bo": np.zeros(self.d_state)}
            for k in range(config.blocks):
                # side features (time + conditioning) re-enter every block so
                # the conditioning pathway keeps full gain past the bottleneck
                params[f"Wr{k}"] = glorot(h, h)
                params[f"Wc{k}"] = glorot(self.d_side, h)
                params[f"br{k}"] = np.zeros(h)
        self.params = params

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def _pack(self, r_t, t, cond):
        W = self.window
        if r_t.shape != (W, JOINTS, 6):
            raise ValueError(f"expected ({W}, {JOINTS}, 6) window, got {r_t.shape}")
        if cond is None:
            if not self.uncond_available:
                raise CapabilityError("unconditional path was never trained (dropout 0)")
            cvec = np.zeros(W * self._cdim)
            flag = 1.0
        else:
            if cond.shape != (W, self._cdim):
                raise ValueError(f"conditioning must be ({W}, {self._cdim}), got {cond.shape}")
            cvec = cond.reshape(-1)
            flag = 0.0
        return np.concatenate([r_t.reshape(-1), _time_features(t, self.terminal), cvec, [flag]])

    def _forward(self, X: np.ndarray):
        """Batched forward pass; returns output and the activation cache."""
        p = self.params
        z0 = X @ p["W0"] + p["b0"]
        h = np.tanh(z0)
        side = X[:, self.d_state:]
        cache = {"X": X, "h0": h, "acts": []}
        for k in range(self.config.blocks):
            a = np.tanh(h @ p[f"Wr{k}"] + side @ p[f"Wc{k}"] + p[f"br{k}"])
            cache["acts"].append((h, a))
            h = h + a
        cache["hout"] = h
        return h @ p["Wo"] + p["bo"], cache

    def _backward(self, cache, d_out):
        """Gradients of <d_out, output> w.r.t. params and input X."""
        p = self.params
        grads = {}
        h = cache["hout"]
        grads["Wo"] = h.T @ d_out
        grads["bo"] = d_out.sum(axis=0)
        dh = d_out @ p["Wo"].T
        side = cache["X"][:, self.d_state:]
        d_side = np.zeros_like(side)
        for k in reversed(range(self.config.blocks)):
            h_in, a = cache["acts"][k]
            da = dh * (1.0 - a * a)
            grads[f"Wr{k}"] = h_in.T @ da
            grads[f"Wc{k}"] = side.T @ da
            grads[f"br{k}"] = da.sum(axis=0)
            d_side += da @ p[f"Wc{k}"].T
            dh = dh + da @ p[f"Wr{k}"].T
        dz0 = dh * (1.0 - cache["h0"] * cache["h0"])
        grads["W0"] = cache["X"].T @ dz0
        grads["b0"] = dz0.sum(axis=0)
        dX = dz0 @ p["W0"].T
        dX[:, self.d_state:] += d_side
        return grads, dX

    def _denoise(self, r_t, t, cond):
        """Network output: the clean-signal estimate (the Tweedie mean)."""
        X = self._pack(np.asarray(r_t, dtype=float), t, cond)[None, :]
        out, cache = self._forward(X)
        return out[0].reshape(self.window, JOINTS, 6), cache

    def predict(self, r_t, t, cond=None, frame_offset=0):
        # The network regresses the clean signal; the matching noise
        # estimate follows from r_t = sqrt(ab) r0 + sqrt(1-ab) eps.  This
        # keeps the high-noise regime trivially consistent (eps -> r_t)
        # without the network having to pass r_t through its bottleneck.
        ab = alpha_bar(t)
        r0_hat, _ = self._denoise(np.asarray(r_t, dtype=float), t, cond)
        return (np.asarray(r_t, dtype=float) - np.sqrt(ab) * r0_hat) / np.sqrt(1.0 - ab)

    def vjp(self, r_t, t, cond, cotangent, frame_offset=0):
        """Cotangent on the denoised estimate pulled back to r_t.

        The denoised estimate is the raw network output, so this is a plain
        backward pass restricted to the state slice of the input."""
        X = self._pack(np.asarray(r_t, dtype=float), t, cond)[None, :]
        _, cache = self._forward(X)
        cot = np.asarray(cotangent, dtype=float).reshape(1, -1)
        _, dX = self._backward(cache, cot)
        return dX[0, : self.d_state].reshape(self.window, JOINTS, 6)

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
        with np.load(path) as blob:
            header = json.loads(bytes(blob["__header__"]).decode())
            if header["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"checkpoint version {header['version']} not supported")
            params = {k: blob[k] for k in blob.files if k != "__header__"}
        return MLPDenoiser(TrainConfig(**header["config"]), params=params)


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


def train_denoiser(dataset, config: TrainConfig, loss_callback=None) -> MLPDenoiser:
    """Denoising training, deterministic per seed.

    Samples a window and a diffusion time, noises the clean rotations with
    the matching alpha-bar, and regresses the clean signal (the network's
    output convention; the noise estimate is recovered analytically in
    ``predict``).  The conditioning is dropped with ``config.dropout_prob``
    so the model also learns the unconditional score.
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
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    B = config.batch
    for step in range(1, config.steps + 1):
        idx = rng.integers(0, len(states), size=B)
        x0 = states[idx]
        cond = conds[idx]
        t = rng.uniform(1e-3, config.terminal, size=B)
        ab = alpha_bar(t)
        noise = rng.standard_normal(x0.shape)
        x_t = np.sqrt(ab)[:, None, None, None] * x0 + np.sqrt(1 - ab)[:, None, None, None] * noise
        drop = rng.random(B) < config.dropout_prob
        X = np.empty((B, model.d_in))
        for b in range(B):
            X[b] = model._pack(x_t[b], t[b], None if drop[b] else cond[b])
        target = x0.reshape(B, -1)
        out, cache = model._forward(X)
        resid = out - target
        loss = float(np.mean(resid**2))
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at step {step}")
        if loss_callback is not None:
            loss_callback(step, loss)
        d_out = 2.0 * resid / resid.size
        grads, _ = model._backward(cache, d_out)
        for k, g in grads.items():
            adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * g
            adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * g * g
            mhat = adam_m[k] / (1 - beta1**step)
            vhat = adam_v[k] / (1 - beta2**step)
            model.params[k] -= config.step_size * mhat / (np.sqrt(vhat) + eps_adam)
    return model


def predict_with_cfg(denoiser: DenoiserInterface, r_t, t, cond, cfg_weight: float = 1.0,
                     frame_offset: int = 0) -> np.ndarray:
    """eps_uncond + cfg_weight * (eps_cond - eps_uncond)."""
    if cfg_weight == 1.0:
        return denoiser.predict(r_t, t, cond, frame_offset)
    eps_u = denoiser.predict(r_t, t, None, frame_offset)
    if cfg_weight == 0.0:
        return eps_u
    eps_c = denoiser.predict(r_t, t, cond, frame_offset)
    return eps_u + cfg_weight * (eps_c - eps_u)


def finite_difference_vjp(denoiser: DenoiserInterface, r_t, t, cond, cotangent,
                          step: float = 1e-4, frame_offset: int = 0) -> np.ndarray:
    """Central-difference fallback for denoisers without an analytic ``vjp``.

    Differentiates <cotangent, r_hat(r_t)> one input coordinate at a time,
    so cost scales with the state size; intended for small windows or as a
    last resort.
    """
    r_t = np.asarray(r_t, dtype=float)
    cot = np.asarray(cotangent, dtype=float)

    def denoised(x):
        ab = alpha_bar(t)
        eps = denoiser.predict(x, t, cond, frame_offset)
        return (x - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)

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
