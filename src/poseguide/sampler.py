"""Guided DDIM sampling over 6DoF pose windows.

The reverse loop follows the modified pseudoinverse-guided scheme: the
denoiser is bound to the sequence's conditioning once; at each step one call
gives the clean-signal estimate r_hat and its pullback, the noise estimate
follows from r_hat, the measured location differences contribute a
Gaussian likelihood score through the linear measurement operator and that
pullback, and the deterministic DDIM update (eta = 0) combines estimate, noise
estimate and the guidance term; only the initial state is random.  A sequence
longer than the denoiser's trained window runs as one stack of such windows,
one denoiser call per step, joined with a linear cross-fade over the overlap.

The denoiser reads a window's state x only through ``x @ reads``, pulls back
into those coordinates, and writes its estimate as ``u @ writes + offset``
from a last layer u.  No step draws noise, so the loop holds x on a basis
fixed for the run: x = alpha N0 + H @ writes + beta offset + y @ reads.T, with
N0 the first draw, the estimates' part as coefficients H on ``writes`` and beta
on ``offset``, and the guidance part y in coordinates.  The DDIM update is
linear, so the same coefficients move all of them.  A guided step forms the
estimate only on the joints the measured differences read, an unguided step
forms none, and x is formed once, after the last step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rot6d
from .measurement import LinearOperatorA, MeasurementSet, build_A, check_sigma, differential_transform
from .skeleton import PoseSequence, Skeleton, recover_root_translation
from .denoiser import (TERMINAL, DenoiserInterface, _one_blas_thread, _split_matmul, alpha_bar,
                       check_count, check_real, make_conditioning)

OVERLAP = 20
DIVERGENCE_NORM = 1e3


class SamplerDivergence(RuntimeError):
    """Sampling failed: the state diverged, or an estimate or the output did not decode."""


@dataclass
class GuidanceConfig:
    """Knobs of the likelihood guidance; the DDIM update itself is deterministic."""

    guidance_scale: float = 1.0
    sigma_l: float = 0.01            # floor under the measurements' sigma_l in the score (meters)
    covariance_mode: str = "identity"  # "identity" | "sigma"

    def __post_init__(self):
        check_real("guidance_scale", self.guidance_scale)
        if not 0.0 <= self.guidance_scale < np.inf:
            raise ValueError(f"guidance_scale must be finite and >= 0, got {self.guidance_scale}")
        check_sigma("sigma_l", self.sigma_l)
        if self.covariance_mode not in ("identity", "sigma"):
            raise ValueError(f"unknown covariance_mode {self.covariance_mode!r}")


def likelihood_score(
    l_diff: np.ndarray,
    A: LinearOperatorA,
    r_hat: np.ndarray,
    pullback,
    config: GuidanceConfig,
    w_t: float,
) -> np.ndarray:
    """Gaussian likelihood score pulled back to the noisy state.

    Solves B u = residual with B = w^2 A Sigma A^T + sigma_l^2 I and sigma_l =
    ``config.sigma_l``: one factorization of the one B per call in identity
    mode, one per frame in sigma mode.  Then it applies the
    transposed chain A^T -> decode pullback -> denoiser pullback, scaled by
    ``config.guidance_scale``.  Only A's active joints enter (their vec9s,
    A Sigma A^T by ``A.sigma_projection``, the decode pullback); a degenerate
    estimate on them is refused with its flat index in the (frame, joint) layout
    of all ``A.joint_count`` joints.

    ``l_diff``: (frames, 2, 3) differential measured locations;
    ``r_hat``: (frames, |active|, 6), the denoised estimate on ``A.active_joints``;
    ``pullback(cot)``: cotangent of that shape -> gradient w.r.t. the noisy input,
    in the coordinates the denoiser reads (see ``DenoiserInterface.condition``).
    """
    r_hat = np.asarray(r_hat, dtype=float)
    frames = r_hat.shape[0]
    try:
        p9, decode_pullback = rot6d.decode(r_hat)  # (frames, active, 9)
    except rot6d.DegenerateRotationError as exc:  # its index runs over (frames, active)
        f, j = divmod(exc.index, len(A.active_joints))
        raise rot6d.DegenerateRotationError(
            f * A.joint_count + int(A.active_joints[j]), exc.reason) from exc
    Gc = A.active_block.reshape(6, -1)
    e = np.asarray(l_diff, dtype=float).reshape(frames, 6) - p9.reshape(frames, -1) @ Gc.T

    floor = config.sigma_l**2 * np.eye(6)
    if config.covariance_mode == "identity":
        # one B for every frame: one factorization, the frames its right-hand sides
        u = np.linalg.solve(w_t**2 * (Gc @ Gc.T) + floor, e.T).T
    else:
        # Sigma evaluated at the decoded (manifold) point of each active joint
        u = np.linalg.solve(w_t**2 * A.sigma_projection(p9, w_t) + floor, e[..., None])[..., 0]
    return config.guidance_scale * pullback(decode_pullback((u @ Gc).reshape(p9.shape)))


def ddim_step(state: tuple, u, g, alpha_bar_t: float, alpha_bar_s: float) -> tuple:
    """One deterministic (eta = 0) reverse update from time t to s < t for a stack
    of windows.

    Each window's flattened state is x = alpha N0 + H @ writes + beta offset +
    y @ reads.T; ``state`` is ``(alpha, H, beta, y)``: the scalar weight of the
    first draw N0, the (windows, k') coefficients H and the scalar beta of the
    estimates' part, and the (windows, k) guidance part y.  ``u`` is the last
    layer of the estimate x_hat = u @ writes + offset, and ``g`` the guidance
    term, in y's coordinates.  With c2 = sqrt(1 - ab_s) and
    eps = (x - sqrt(ab_t) x_hat) / sqrt(1 - ab_t), x moves to
    sqrt(ab_s) x_hat + c2 eps + sqrt(ab_t) g @ reads.T, that is to
    a x + b x_hat + sqrt(ab_t) g @ reads.T with a = c2 / sqrt(1 - ab_t) and
    b = sqrt(ab_s) - a sqrt(ab_t).  Returns that split the same way:
    (a alpha, a H + b u, a beta + b, a y + sqrt(ab_t) g).  No fresh noise is
    drawn.  Refuses signal levels outside 0 < ab_t < ab_s <= 1; never writes
    its inputs.
    """
    if not 0.0 < alpha_bar_t < 1.0:  # a NaN fails the comparison too
        raise ValueError(f"alpha_bar_t must be in (0, 1), a noisy time, got {alpha_bar_t}")
    if not alpha_bar_t < alpha_bar_s <= 1.0:
        raise ValueError(f"alpha_bar_s must be in (alpha_bar_t={alpha_bar_t}, 1], got {alpha_bar_s}")
    alpha, coef, beta, y = state
    a = np.sqrt(1.0 - alpha_bar_s) / np.sqrt(1.0 - alpha_bar_t)
    b = np.sqrt(alpha_bar_s) - a * np.sqrt(alpha_bar_t)
    return a * alpha, a * coef + b * u, a * beta + b, a * y + np.sqrt(alpha_bar_t) * g


def _expand(state: tuple, noise: np.ndarray, writes: np.ndarray, offset: np.ndarray,
            reads: np.ndarray) -> np.ndarray:
    """The full (windows, D) state alpha N0 + H @ writes + beta offset + y @ reads.T of
    a ``ddim_step`` state, N0 being ``noise``."""
    alpha, coef, beta, y = state
    x = _split_matmul(coef, writes)
    x += beta * offset
    x += alpha * noise
    x += _split_matmul(y, reads.T)
    return x


def _gather_joints(writes: np.ndarray, offset: np.ndarray, W: int, J: int, joints) -> tuple:
    """The rows of ``writes`` and the entries of ``offset`` that give ``joints`` of a
    flattened window of W frames of J joints, frame by frame: ``u @ rows.T + part``
    is the estimate there.  ``rows`` is C-ordered; a guided step's two products
    read it, the forward one through ``rows.T``."""
    frame = (np.asarray(joints)[:, None] * 6 + np.arange(6)).reshape(-1)
    cols = (np.arange(W)[:, None] * J * 6 + frame).reshape(-1)
    return writes.take(cols, axis=1).T.copy(), offset[..., cols]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Each row's 2-norm, its entries divided by the row's largest magnitude before
    squaring, so that no square overflows."""
    peak = np.abs(a).max(axis=1, initial=0.0)
    scaled = a / np.where((peak > 0.0) & (peak < np.inf), peak, 1.0)[:, None]
    return peak * np.sqrt(np.einsum("ij,ij->i", scaled, scaled))


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
    steps: int,
    config: GuidanceConfig,
    seed: int = 0,
) -> PoseSequence:
    """Full inference: guided sampling of all joint rotations plus root recovery.

    DDIM runs ``steps`` equal steps from t = ``TERMINAL`` down to 0.  The
    windows are the denoiser's trained ``window``, overlapping by up to
    ``OVERLAP`` frames; a denoiser that takes any length gets the whole
    sequence as one window.  The score whitens with the larger of
    ``config.sigma_l`` and ``measurements.sigma_l``; the root smoothing reads
    ``measurements.sigma_l`` alone, so it stays off for noise-free files.

    The denoiser is conditioned once, on every window's measured rotations.
    A guided step forms the estimate on ``A.active_joints`` only, from the rows
    of ``writes`` for them, gathered once, and pulls the score's cotangent back
    through the same rows.  The divergence guard bounds each window's largest
    entry by alpha max|N0| + |H| max_i |writes[:, i]| + |beta| max|offset| +
    |y| max_i |reads_i| and forms the full state only when that bound passes
    ``DIVERGENCE_NORM``.  Sampling holds numpy's bundled OpenBLAS at one thread,
    leaving a core to the worker that takes half of each split product.
    Deterministic given (inputs, seed), at any CPU count and any
    ``OPENBLAS_NUM_THREADS``.  Output rotations depend on the measured
    locations only through their per-frame differences, so a constant sensor
    translation that rounds no location leaves them bit-identical.
    """
    check_count("steps", steps, 1)
    check_count("seed", seed, 0)
    frames = measurements.frames
    W = denoiser.window or frames
    if W > frames:
        raise ValueError(f"the denoiser's trained window of {W} frames is longer than the "
                         f"{frames} frames of the sequence")
    timesteps = np.linspace(0.0, TERMINAL, steps + 1)
    config = replace(config, sigma_l=max(config.sigma_l, measurements.sigma_l))
    A = build_A(skeleton)
    J = skeleton.joint_count
    overlap = min(OVERLAP, W - 1)
    starts = np.array(_window_starts(frames, W, W - overlap))
    n = len(starts)
    win = starts[:, None] + np.arange(W)  # (windows, W) sequence frames
    l_diff = differential_transform(measurements.locations)[win].reshape(-1, 2, 3)
    with _one_blas_thread():
        reads, writes, offset, denoise = denoiser.condition(
            make_conditioning(measurements, denoiser.cond_spec)[win], starts)

        noise = np.stack([np.random.default_rng([seed, w_idx]).standard_normal(W * J * 6)
                          for w_idx in range(n)])
        z0 = _split_matmul(noise, reads)
        state = alpha, coef, beta, y = 1.0, np.zeros((n, len(writes))), 0.0, np.zeros_like(z0)
        # a shared (D,) offset stays a vector product: broadcast first, BLAS rounds it differently
        gram, writes_z, offset_z = reads.T @ reads, writes @ reads, offset @ reads
        rows, offset_active = _gather_joints(writes, offset, W, J, A.active_joints)
        # |(c @ m)_i| <= |c| |m_i| per term; the margin covers the rounding of both sides
        noise_peak = np.abs(noise).max(axis=1)
        reach = np.sqrt(np.einsum("ij,ij->i", reads, reads).max())
        write_reach = np.sqrt(np.einsum("ij,ij->j", writes, writes).max())
        offset_peak = np.abs(offset).max(axis=-1)
        abars = alpha_bar(timesteps)
        for i in range(steps, 0, -1):
            t, ab_t, ab_s = timesteps[i], abars[i], abars[i - 1]
            u, pullback = denoise(alpha * z0 + coef @ writes_z + beta * offset_z + y @ gram, t)
            g = 0.0
            if config.guidance_scale > 0.0:
                # VP-SDE pseudoinverse-guidance width: w^2 = sigma^2 / (1 + sigma^2)
                w_t = float(np.sqrt(1.0 - ab_t))
                r_hat = (_split_matmul(u, rows.T) + offset_active).reshape(n * W, -1, 6)
                try:
                    g = likelihood_score(
                        l_diff, A, r_hat,
                        lambda cot: pullback(_split_matmul(cot.reshape(n, -1), rows)),
                        config, w_t)
                except rot6d.DegenerateRotationError as exc:  # its index runs over (windows, W, J)
                    w, (f, j) = exc.index // J // W, divmod(exc.index, J)
                    raise SamplerDivergence(
                        f"window at frame {starts[w]}: degenerate 6DoF estimate at step {i} "
                        f"(t={t:.3g}) at frame {win.flat[f]}, joint {j}: {exc.reason}") from exc
            state = alpha, coef, beta, y = ddim_step(state, u, g, ab_t, ab_s)
            bound = (alpha * noise_peak + _row_norms(coef) * write_reach
                     + abs(beta) * offset_peak + _row_norms(y) * reach) * (1.0 + 1e-6)
            if np.all(bound <= DIVERGENCE_NORM):  # a NaN bound goes on to the exact check
                continue
            x = _expand(state, noise, writes, offset, reads)
            peaks = np.abs(x).max(axis=1)
            if not np.all(peaks <= DIVERGENCE_NORM):
                w = np.argmin(peaks <= DIVERGENCE_NORM)  # the first window over the bound
                # argmax returns the first NaN if there is one, else the largest entry
                f, j, _ = np.unravel_index(np.argmax(np.abs(x[w])), (W, J, 6))
                raise SamplerDivergence(
                    f"window at frame {starts[w]}: state magnitude {peaks[w]:.3g} exceeded "
                    f"{DIVERGENCE_NORM} at step {i} (t={t:.3g}); worst entry at frame "
                    f"{starts[w] + f}, joint {j}"
                )
        x = _expand(state, noise, writes, offset, reads).reshape(n, W, J, 6)

    fade = np.linspace(0.0, 1.0, overlap + 2)[1:-1]
    ramp = np.ones((len(starts), W))
    ramp[1:, :overlap] = fade
    ramp[:-1, W - overlap :] = fade[::-1]
    out = np.zeros((frames, J, 6))
    weight = np.zeros(frames)
    np.add.at(out, win, ramp[..., None, None] * x)
    np.add.at(weight, win, ramp)
    out /= weight[:, None, None]
    # cross-faded 6DoF vectors are generally off-manifold; re-orthonormalize
    try:
        R = rot6d.batch_from_sixdof(out)
    except rot6d.DegenerateRotationError as exc:
        raise SamplerDivergence(f"cross-faded output: degenerate 6DoF at frame {exc.index // J}, "
                                f"joint {exc.index % J}: {exc.reason}") from exc
    rotations = rot6d.to_sixdof(R)
    root = recover_root_translation(skeleton, R, measurements.locations[:, 0, :])
    # the root track is smooth even when the head bobs, so sensor noise is
    # filtered on the recovered root rather than on the raw head track
    root = _smooth_track(root, measurements.sigma_l)
    return PoseSequence(rotations, root)


def _smooth_track(track: np.ndarray, sigma_l: float) -> np.ndarray:
    """Noise-aware low-pass filter for the recovered root track.

    A least-squares line is removed first (so a stationary or uniformly
    translating root is unbiased, including at the edges), the residual is
    moving-averaged over at most 161 frames, and the line is added back.
    With sigma_l = 0 this is the identity, so noise-free tracks are passed
    through untouched (and exact recovery stays exact)."""
    frames = track.shape[0]
    if sigma_l <= 0.0 or frames < 3:
        return track
    k = min(161, 1 + 2 * int(np.ceil(1600.0 * sigma_l)))
    k = min(k, frames if frames % 2 == 1 else frames - 1)
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
