"""Conditional denoisers.

The sampler needs one call from a denoiser: ``denoise`` returns the
clean-signal estimate r_hat for a windowed 6DoF batch together with its
pullback, which maps a cotangent on r_hat back to the noisy input.
Implementations here: an oracle that denoises to a known ground truth
exactly (for tests), and a small trainable residual MLP over flattened
windows with conditioning dropout, so it also has an unconditional path.

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
    """

    window: int | None = None
    terminal: float | None = None
    cond_spec: str = "rotations"

    def denoise(self, r_t: np.ndarray, t: float, cond: np.ndarray | None,
                frame_offset: int = 0):
        """Clean-signal estimate and its pullback: ``(r_hat, pullback)``.

        ``r_hat`` has the shape of ``r_t`` and is deterministic in the
        inputs; ``pullback(cot)`` returns (d r_hat / d r_t)^T cot.
        """
        raise NotImplementedError


class OracleDenoiser(DenoiserInterface):
    """Denoises to a known ground-truth sequence exactly.

    The estimate is the stored truth window, constant in the input, so the
    pullback is zero.
    """

    def __init__(self, ground_truth_rotations: np.ndarray):
        self.truth = np.asarray(ground_truth_rotations, dtype=float)

    def denoise(self, r_t, t, cond, frame_offset=0):
        truth = self.truth[frame_offset : frame_offset + r_t.shape[0]]
        if truth.shape != r_t.shape:
            raise ValueError("window does not match the stored ground truth")
        return truth.copy(), np.zeros_like


@dataclass
class TrainConfig:
    window: int = 41
    terminal: float = 15.0          # diffusion horizon used for training noise
    dropout_prob: float = 0.1       # conditioning dropout (trains the unconditional path)
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
        if not 0.0 < self.terminal < np.inf:
            raise ValueError(f"terminal must be positive and finite, got {self.terminal}")
        for name in ("window", "hidden", "batch", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.blocks < 0:
            raise ValueError(f"blocks must be non-negative, got {self.blocks}")


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
        for k in reversed(range(self.config.blocks)):
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

    def denoise(self, r_t, t, cond, frame_offset=0):
        """The network output is r_hat; the pullback reuses this call's
        activations and returns only the state slice of the input gradient.

        The network regresses the clean signal rather than the noise: the
        noise estimate the sampler derives from r_t = sqrt(ab) r0 +
        sqrt(1-ab) eps then tends to r_t at high noise without the network
        having to pass r_t through its bottleneck.
        """
        X = self._pack(np.asarray(r_t, dtype=float), t, cond)[None, :]
        out, cache = self._forward(X)

        def pullback(cot):
            dz0 = self._backward(cache, np.asarray(cot, dtype=float).reshape(1, -1))
            return (dz0 @ self.params["W0"][: self.d_state].T).reshape(self.window, JOINTS, 6)

        return out[0].reshape(self.window, JOINTS, 6), pullback

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
    output convention; the sampler derives the noise estimate from it).
    The conditioning is dropped with ``config.dropout_prob`` so the model
    also learns the unconditional score.
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
        grads = {}
        model._backward(cache, d_out, grads)
        for k, g in grads.items():
            adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * g
            adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * g * g
            mhat = adam_m[k] / (1 - beta1**step)
            vhat = adam_v[k] / (1 - beta2**step)
            model.params[k] -= config.step_size * mhat / (np.sqrt(vhat) + eps_adam)
    return model


def finite_difference_vjp(denoiser: DenoiserInterface, r_t, t, cond, cotangent,
                          step: float = 1e-4, frame_offset: int = 0) -> np.ndarray:
    """Central-difference reference for a denoiser's analytic pullback.

    Differentiates <cotangent, r_hat(r_t)> one input coordinate at a time,
    so cost scales with the state size; intended for small windows.
    """
    r_t = np.asarray(r_t, dtype=float)
    cot = np.asarray(cotangent, dtype=float)

    def denoised(x):
        return denoiser.denoise(x, t, cond, frame_offset)[0]

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
