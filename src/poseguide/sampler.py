"""Guided DDIM sampling over 6DoF pose windows.

The reverse loop follows the modified pseudoinverse-guided scheme: at each
step one conditional denoiser call gives the clean-signal estimate r_hat and
its pullback, the noise estimate follows from r_hat, the measured location
differences contribute a Gaussian likelihood score through the linear
measurement operator and that pullback, and the DDIM update combines
estimate, fresh noise, noise estimate and the guidance term.  Long
sequences run as one stack of fixed-size windows, one denoiser call per
step, joined with a linear cross-fade over the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rot6d
from .measurement import LinearOperatorA, MeasurementSet, build_A, differential_transform
from .skeleton import (
    PoseSequence, Skeleton, forward_kinematics, recover_root_translation,
)
from .uncertainty import sigma_matrix
from .denoiser import DenoiserInterface, alpha_bar, make_conditioning

DEFAULT_TERMINAL = 15.0
WINDOW = 41
OVERLAP = 20
DIVERGENCE_NORM = 1e3


class SamplerDivergence(RuntimeError):
    """State norm exceeded the divergence threshold during sampling."""


@dataclass
class Schedule:
    """Monotone timesteps q_0 = 0 .. q_N = T and their alpha-bars (``denoiser.alpha_bar``)."""

    timesteps: np.ndarray
    alpha_bars: np.ndarray
    terminal: float

    @property
    def steps(self) -> int:
        return len(self.timesteps) - 1


def make_schedule(n_steps: int, terminal: float = DEFAULT_TERMINAL) -> Schedule:
    if n_steps < 1:
        raise ValueError("need at least one step")
    if not terminal > 0.0:
        raise ValueError(f"terminal must be positive, got {terminal}")
    q = np.linspace(0.0, terminal, n_steps + 1)
    return Schedule(q, alpha_bar(q), float(terminal))


@dataclass
class GuidanceConfig:
    """Knobs of the likelihood guidance and the DDIM update."""

    eta: float = 0.0
    guidance_scale: float = 1.0
    sigma_l: float = 0.01            # score-side measurement noise (meters)
    covariance_mode: str = "identity"  # "identity" | "sigma"

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must be in [0, 1]")
        if not 0.0 <= self.guidance_scale < np.inf:
            raise ValueError(f"guidance_scale must be finite and >= 0, got {self.guidance_scale}")
        if not 0.0 <= self.sigma_l < np.inf:
            raise ValueError(f"sigma_l must be finite and non-negative, got {self.sigma_l}")
        if self.covariance_mode not in ("identity", "sigma"):
            raise ValueError(f"unknown covariance_mode {self.covariance_mode!r}")


def likelihood_score(
    l_diff: np.ndarray,
    A: LinearOperatorA,
    r_hat: np.ndarray,
    pullback,
    config: GuidanceConfig,
    w_t: float,
    sigma_l: float,
) -> np.ndarray:
    """Gaussian likelihood score pulled back to the noisy state.

    Solves (w^2 A Sigma A^T + sigma_l^2 I) u = residual for all frames in
    one batch, then applies the transposed chain A^T -> decode Jacobian ->
    denoiser pullback, scaled by ``config.guidance_scale``.  Only A's
    active joints enter; every other joint's cotangent is exactly zero.

    ``l_diff``: (frames, 2, 3) differential measured locations;
    ``r_hat``: (frames, J, 6); ``pullback``: cotangent (frames, J, 6)
    on the denoised estimate -> gradient w.r.t. the noisy input.
    """
    r_hat = np.asarray(r_hat, dtype=float)
    frames = r_hat.shape[0]
    R = rot6d.batch_from_sixdof(r_hat)
    pred = A.apply_diff_vec9(rot6d.vec9(R))
    e = (np.asarray(l_diff, dtype=float) - pred).reshape(frames, 6)

    act = A.active_joints
    G = A.active_block  # (6, active, 9)
    Gc = G.reshape(6, -1)
    if config.covariance_mode == "identity":
        GSG = Gc @ Gc.T
    else:
        # Sigma evaluated at the decoded (manifold) point of each active joint
        S = sigma_matrix(rot6d.to_sixdof(R[:, act]), w_t)  # (frames, active, 9, 9)
        GS = G.transpose(1, 0, 2) @ S                       # (frames, active, 6, 9)
        GSG = GS.transpose(0, 2, 1, 3).reshape(frames, 6, -1) @ Gc.T
    B = w_t**2 * GSG + sigma_l**2 * np.eye(6)
    u = np.linalg.solve(B, e[..., None])[..., 0]
    cot6 = np.zeros_like(r_hat)
    cot6[:, act] = rot6d.vjp_from_sixdof(r_hat[:, act], (u @ Gc).reshape(frames, len(act), 9))
    return config.guidance_scale * pullback(cot6)


def ddim_step(
    r_t: np.ndarray,
    r_hat: np.ndarray,
    eps_t: np.ndarray,
    g: np.ndarray,
    alpha_bar_t: float,
    alpha_bar_s: float,
    eta: float,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """One reverse update from time t to s < t for a stack of windows.

    c1 = eta sqrt((1 - ab_t/ab_s)(1 - ab_s)/(1 - ab_t)), c2 = sqrt(1 - ab_s - c1^2);
    returns sqrt(ab_s) r_hat + c1 fresh + c2 eps_t + sqrt(ab_t) g, where window
    k's fresh noise is drawn from ``rngs[k]`` (only when c1 > 0).
    """
    if alpha_bar_t >= 1.0:
        raise ValueError("step must start at a noisy time (alpha_bar_t < 1)")
    c1 = eta * np.sqrt((1.0 - alpha_bar_t / alpha_bar_s) * (1.0 - alpha_bar_s) / (1.0 - alpha_bar_t))
    rad = 1.0 - alpha_bar_s - c1**2
    if rad < -1e-12:
        raise ValueError(f"invalid schedule/eta combination: 1 - ab_s - c1^2 = {rad}")
    c2 = np.sqrt(max(rad, 0.0))
    fresh = np.stack([gen.standard_normal(r_t.shape[1:]) for gen in rngs]) if c1 > 0 else 0.0
    return np.sqrt(alpha_bar_s) * r_hat + c1 * fresh + c2 * eps_t + np.sqrt(alpha_bar_t) * g


def _window_starts(frames: int, window: int, stride: int) -> list[int]:
    if frames <= window:
        return [0]
    starts = list(range(0, frames - window, stride))
    starts.append(frames - window)
    return starts


def run_guided_inference(
    measurements: MeasurementSet,
    skeleton: Skeleton,
    denoiser: DenoiserInterface,
    schedule: Schedule,
    config: GuidanceConfig,
    seed: int = 0,
    window: int | None = None,
    overlap: int = OVERLAP,
) -> PoseSequence:
    """Full inference: guided sampling of all joint rotations plus root recovery.

    Deterministic given (inputs, seed).  Output rotations depend on the
    measured locations only through their per-frame differences, so a
    constant translation of all sensors leaves them unchanged.
    """
    if denoiser.terminal is not None and denoiser.terminal != schedule.terminal:
        raise ValueError(
            f"denoiser terminal {denoiser.terminal} differs from schedule terminal "
            f"{schedule.terminal}"
        )
    frames = measurements.frames
    W = (denoiser.window or min(frames, WINDOW)) if window is None else window
    if not 1 <= W <= frames:
        raise ValueError(f"window {W} must be between 1 and the {frames} frames of the sequence")
    if overlap < 0:
        raise ValueError(f"overlap must be non-negative, got {overlap}")
    A = build_A(skeleton)
    J = skeleton.joint_count
    overlap = min(overlap, W - 1)
    starts = np.array(_window_starts(frames, W, max(1, W - overlap)))
    win = starts[:, None] + np.arange(W)  # (windows, W) sequence frames
    l_diff = differential_transform(measurements.locations)[win].reshape(-1, 2, 3)
    cond = make_conditioning(measurements, denoiser.cond_spec)[win]

    rngs = [np.random.default_rng([seed, w_idx]) for w_idx in range(len(starts))]
    r = np.stack([rng.standard_normal((W, J, 6)) for rng in rngs])
    q, abars = schedule.timesteps, schedule.alpha_bars
    for i in range(schedule.steps, 0, -1):
        t, ab_t, ab_s = q[i], abars[i], abars[i - 1]
        r_hat, pullback = denoiser.denoise(r, t, cond, starts)
        eps_t = (r - np.sqrt(ab_t) * r_hat) / np.sqrt(1.0 - ab_t)
        if config.guidance_scale > 0.0:
            # VP-SDE pseudoinverse-guidance width: w^2 = sigma^2 / (1 + sigma^2)
            w_t = float(np.sqrt(1.0 - ab_t))
            g = likelihood_score(l_diff, A, r_hat.reshape(-1, J, 6), pullback, config, w_t,
                                 config.sigma_l)
        else:
            g = np.zeros_like(r)
        r = ddim_step(r, r_hat, eps_t, g, ab_t, ab_s, config.eta, rngs)
        peaks = np.abs(r).reshape(len(starts), -1).max(axis=1)
        if not np.all(peaks <= DIVERGENCE_NORM):  # also catches NaN
            w = np.argmin(peaks <= DIVERGENCE_NORM)  # the first window over the bound
            # argmax returns the first NaN if there is one, else the largest entry
            f, j, _ = np.unravel_index(np.argmax(np.abs(r[w])), r[w].shape)
            raise SamplerDivergence(
                f"window at frame {starts[w]}: state magnitude {peaks[w]:.3g} exceeded "
                f"{DIVERGENCE_NORM} at step {i} (t={t:.3g}); worst entry at frame "
                f"{starts[w] + f}, joint {j}"
            )

    fade = np.linspace(0.0, 1.0, overlap + 2)[1:-1]
    ramp = np.ones((len(starts), W))
    ramp[1:, :overlap] = fade
    ramp[:-1, W - overlap :] = fade[::-1]
    out = np.zeros((frames, J, 6))
    weight = np.zeros(frames)
    np.add.at(out, win, ramp[..., None, None] * r)
    np.add.at(weight, win, ramp)
    out /= weight[:, None, None]
    # cross-faded 6DoF vectors are generally off-manifold; re-orthonormalize
    rotations = rot6d.to_sixdof(rot6d.batch_from_sixdof(out))

    R = rot6d.batch_from_sixdof(rotations)
    root = recover_root_translation(skeleton, R, measurements.locations[:, 0, :])
    # the root track is smooth even when the head bobs, so sensor noise is
    # filtered on the recovered root rather than on the raw head track
    root = _smooth_track(root, measurements.sigma_l)
    return PoseSequence(rotations, root)


def _smooth_track(track: np.ndarray, sigma_l: float, max_window: int = 161) -> np.ndarray:
    """Noise-aware low-pass filter for the recovered root track.

    A least-squares line is removed first (so a stationary or uniformly
    translating root is unbiased, including at the edges), the residual is
    moving-averaged, and the line is added back.  With sigma_l = 0 this is
    the identity, so noise-free tracks are passed through untouched (and
    exact recovery stays exact)."""
    frames = track.shape[0]
    if sigma_l <= 0.0 or frames < 3:
        return track
    k = min(max_window, 1 + 2 * int(np.ceil(1600.0 * sigma_l)))
    k = min(k, frames if frames % 2 == 1 else frames - 1)
    if k < 3:
        return track
    t = np.arange(frames, dtype=float)
    basis = np.stack([np.ones(frames), t], axis=1)
    coef, *_ = np.linalg.lstsq(basis, track, rcond=None)
    trend = basis @ coef
    resid = track - trend
    pad = k // 2
    padded = np.pad(resid, ((pad, pad), (0, 0)), mode="reflect")
    kernel = np.ones(k) / k
    smooth = np.stack(
        [np.convolve(padded[:, i], kernel, mode="valid") for i in range(3)], axis=1
    )
    return trend + smooth
