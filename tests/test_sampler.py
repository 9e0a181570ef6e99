"""Schedule algebra, guidance score, DDIM update, and full inference."""

import copy
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poseguide import denoiser, rot6d, sampler, uncertainty
from poseguide.denoiser import (
    TERMINAL, DenoiserInterface, MLPDenoiser, OracleDenoiser, TrainConfig, alpha_bar,
    make_conditioning, train_denoiser,
)
from poseguide.measurement import build_A, differential_transform, extract_measurements
from poseguide.sampler import (
    OVERLAP, GuidanceConfig, SamplerDivergence, ddim_step, likelihood_score,
    run_guided_inference, _window_starts,
)
from poseguide.skeleton import default_skeleton
from poseguide.datagen import MotionSpec, generate_motion
from poseguide.uncertainty import random_manifold_points, sigma_matrix
from tests.test_denoiser import bind, packed_reference, small_config, small_dataset
from tests.test_skeleton import random_pose_matrices


def test_schedule_alpha_bar_values():
    assert alpha_bar(0.0) == 1.0
    assert alpha_bar(1.0) == pytest.approx(0.5, abs=1e-15)
    assert alpha_bar(TERMINAL) == pytest.approx(1 / 226, abs=1e-15)  # t = 15
    assert np.all(np.diff(alpha_bar(np.linspace(0.0, TERMINAL, 51))) < 0)


def ddim_case(seed):
    """Two 3-entry windows held as x = alpha N0 + H @ writes + beta offset + y @ reads.T,
    with one row of writes and two coordinates: the ``ddim_step`` state, the estimate's
    last layer u, a guidance term, ``reads``, ``full(*state)`` forming x, and the
    estimate x_hat = u @ writes + offset."""
    rng = np.random.default_rng(seed)
    noise, coef, u, y, g = (rng.standard_normal(shape)
                            for shape in ((2, 3), (2, 1), (2, 1), (2, 2), (2, 2)))
    writes, offset, reads = (rng.standard_normal(shape) for shape in ((1, 3), (3,), (3, 2)))
    x_hat = u @ writes + offset

    def full(alpha, coef, beta, y):
        return alpha * noise + coef @ writes + beta * offset + y @ reads.T

    return (0.8, coef, 0.7, y), u, g, reads, full, x_hat


def test_ddim_constants_known_values():
    state, u, g, reads, full, x_hat = ddim_case(1)
    # ab_t = 0.5, ab_s = 0.75: c2 = sqrt(1 - ab_s) = 0.5
    got = ddim_step(state, u, g, 0.5, 0.75)
    # the full state takes the textbook update, guidance included
    x = full(*state)
    want = (np.sqrt(0.75) * x_hat + 0.5 * (x - np.sqrt(0.5) * x_hat) / np.sqrt(0.5)
            + np.sqrt(0.5) * g @ reads.T)
    assert np.abs(full(*got) - want).max() < 1e-12
    # the first draw's weight takes a = c2 / sqrt(1 - ab_t) = sqrt(1/2) of itself, and
    # the guidance part a of itself plus sqrt(ab_t) g
    assert abs(got[0] - np.sqrt(0.5) * state[0]) < 1e-12
    assert np.abs(got[3] - np.sqrt(0.5) * (state[3] + g)).max() < 1e-12


def test_ddim_deterministic_when_eta_zero():
    state, u, g, reads, full, x_hat = ddim_case(2)
    a = ddim_step(state, u, g, 0.4, 0.9)
    b = ddim_step(state, u, g, 0.4, 0.9)
    assert all(np.array_equal(p, q) for p, q in zip(a, b))
    # c2^2 = 1 - ab_s exactly
    eps = (full(*state) - np.sqrt(0.4) * x_hat) / np.sqrt(0.6)
    want = np.sqrt(0.9) * x_hat + np.sqrt(0.1) * eps + np.sqrt(0.4) * g @ reads.T
    assert np.abs(full(*a) - want).max() < 1e-12


def test_the_last_step_lands_on_the_estimate():
    # at ab_s = 1, a = 0 and b = 1: the first draw's weight is zero, the coefficients
    # are u and beta is 1, so the prior part is the last estimate exactly
    state, u, g, reads, full, x_hat = ddim_case(5)
    alpha, coef, beta, y = ddim_step(state, u, g, 0.4, 1.0)
    assert alpha == 0.0 and np.array_equal(coef, u) and beta == 1.0
    assert np.array_equal(full(alpha, coef, beta, np.zeros_like(y)), x_hat)


def test_ddim_variance_split_identity():
    # at eta = 0 the whole noise variance 1 - ab_s goes to the noise estimate: with no
    # guidance, the step carries eps = (x - sqrt(ab_t) x_hat) / sqrt(1 - ab_t) unchanged
    state, u, _, _, full, x_hat = ddim_case(6)
    for ab_t, ab_s in ((0.1, 0.4), (0.5, 0.75), (0.02, 0.05)):
        got = ddim_step(state, u, 0.0, ab_t, ab_s)
        eps = (full(*state) - np.sqrt(ab_t) * x_hat) / np.sqrt(1 - ab_t)
        assert np.abs((full(*got) - np.sqrt(ab_s) * x_hat) / np.sqrt(1 - ab_s) - eps).max() < 1e-12


def test_ddim_rejects_clean_start():
    none = np.zeros((1, 0))
    with pytest.raises(ValueError, match=r"^alpha_bar_t must be in \(0, 1\).* got 1\.0$"):
        ddim_step((1.0, none, 0.0, none), none, 0.0, 1.0, 0.5)


@pytest.mark.parametrize("ab_t, ab_s, name, value", [
    (0.5, 0.3, "alpha_bar_s", "0.3"),       # a step toward more noise
    (0.5, 0.5, "alpha_bar_s", "0.5"),       # a step that stays put
    (0.5, 1.5, "alpha_bar_s", "1.5"),
    (0.5, -0.1, "alpha_bar_s", "-0.1"),
    (0.5, np.nan, "alpha_bar_s", "nan"),
    (np.nan, 0.5, "alpha_bar_t", "nan"),    # used to pass the clean-start check
    (0.0, 0.5, "alpha_bar_t", "0.0"),
    (-0.2, -0.1, "alpha_bar_t", "-0.2"),
], ids=["noisier", "equal", "ab_s-above-1", "ab_s-below-0", "nan-ab_s", "nan-ab_t",
        "ab_t-zero", "negative"])
def test_ddim_refuses_signal_levels_it_cannot_use(ab_t, ab_s, name, value):
    # each of these used to return NaN states without a word
    state, u, g, reads, _, _ = ddim_case(3)
    with pytest.raises(ValueError, match=rf"^{name} must be in .* got {value}$"):
        ddim_step(state, u, g, ab_t, ab_s)


def test_ddim_leaves_its_inputs_unchanged():
    state, u, g, _, _, _ = ddim_case(4)
    inputs = (state[1], state[3], u, g)
    before = [x.tobytes() for x in inputs]
    got = ddim_step(state, u, g, 0.4, 0.9)
    assert [x.tobytes() for x in inputs] == before
    assert not any(np.shares_memory(a, b) for a in (got[1], got[3]) for b in inputs)


def scatter_pullback(shape, joints):
    """The identity as a denoiser pullback bound to ``joints``, for an estimate of
    ``shape`` (..., J, 6): a frame-stacked cotangent on those joints is placed at
    them, with zeros elsewhere."""
    def pullback(cot):
        full = np.zeros(shape)
        full.reshape(-1, *shape[-2:])[:, joints] = cot
        return full
    return pullback


def active_score(l_diff, A, r_hat, config, w_t):
    """``likelihood_score`` of a full-layout estimate (frames, J, 6) on its active
    joints, with the identity as the denoiser pullback: the score in the full layout."""
    return likelihood_score(l_diff, A, r_hat[:, A.active_joints],
                            scatter_pullback(r_hat.shape, A.active_joints), config, w_t)


def test_likelihood_score_zero_at_exact_residual():
    skel = default_skeleton()
    A = build_A(skel)
    R = random_pose_matrices(3, seed=3)
    r_hat = rot6d.to_sixdof(R)
    l_diff = (rot6d.vec9(R).reshape(3, -1) @ A.diff_matrix.T).reshape(3, 2, 3)
    cfg = GuidanceConfig(guidance_scale=1.0, sigma_l=0.01)
    g = active_score(l_diff, A, r_hat, cfg, 0.3)
    assert np.abs(g).max() < 1e-10


def _assert_frozen_metric_gradient(g, A, r_hat, l_diff, Bs):
    # with the denoiser VJP replaced by the identity, the score must equal
    # the gradient of -1/2 sum_f e_f^T B_f^-1 e_f in r_hat, holding each B_f fixed
    frames = r_hat.shape[0]

    def objective(rh):
        pred = rot6d.vec9(rot6d.batch_from_sixdof(rh)).reshape(frames, -1) @ A.diff_matrix.T
        e = l_diff.reshape(frames, 6) - pred
        return 0.5 * float(sum(e[f] @ np.linalg.solve(Bs[f], e[f]) for f in range(frames)))

    step = 1e-6
    fd = np.zeros_like(r_hat)
    flat = r_hat.reshape(-1)
    fdf = fd.reshape(-1)
    for i in range(flat.size):
        v = flat[i]
        flat[i] = v + step
        hi = objective(r_hat)
        flat[i] = v - step
        lo = objective(r_hat)
        flat[i] = v
        fdf[i] = (hi - lo) / (2 * step)
    assert np.abs(g + fd).max() < 1e-6  # score is minus the gradient


def test_likelihood_score_is_frozen_metric_gradient():
    skel = default_skeleton()
    A = build_A(skel)
    rng = np.random.default_rng(4)
    r_hat = random_manifold_points(2 * 22, seed=5).reshape(2, 22, 6)
    r_hat = r_hat + 0.05 * rng.standard_normal(r_hat.shape)
    l_diff = rng.standard_normal((2, 2, 3)) * 0.2
    w_t, sig = 0.4, 0.03
    cfg = GuidanceConfig(guidance_scale=1.0, sigma_l=sig, covariance_mode="identity")
    g = active_score(l_diff, A, r_hat, cfg, w_t)
    Gd = A.diff_matrix
    B = w_t**2 * (Gd @ Gd.T) + sig**2 * np.eye(6)
    _assert_frozen_metric_gradient(g, A, r_hat, l_diff, [B, B])


def test_likelihood_score_is_frozen_metric_gradient_sigma_multiframe():
    # sigma mode over several frames, each with its own frozen B built from
    # per-joint sigma_matrix calls at the decoded point
    skel = default_skeleton()
    A = build_A(skel)
    rng = np.random.default_rng(8)
    frames = 3
    r_hat = random_manifold_points(frames * 22, seed=9).reshape(frames, 22, 6)
    r_hat = r_hat + 0.05 * rng.standard_normal(r_hat.shape)
    l_diff = rng.standard_normal((frames, 2, 3)) * 0.2
    w_t, sig = 0.4, 0.03
    cfg = GuidanceConfig(guidance_scale=1.0, sigma_l=sig, covariance_mode="sigma")
    g = active_score(l_diff, A, r_hat, cfg, w_t)
    r_proj = rot6d.to_sixdof(rot6d.batch_from_sixdof(r_hat))
    blocks = A.diff_matrix.reshape(6, 22, 9)
    Bs = []
    for f in range(frames):
        B = sig**2 * np.eye(6)
        for j in range(22):
            Gj = blocks[:, j, :]
            B = B + w_t**2 * (Gj @ sigma_matrix(r_proj[f, j], w_t) @ Gj.T)
        Bs.append(B)
    assert not np.allclose(Bs[0], Bs[1])
    _assert_frozen_metric_gradient(g, A, r_hat, l_diff, Bs)


def test_sigma_projection_matches_sigma_matrix(monkeypatch):
    # the sampler's A Sigma A^T, built from the factor J without Sigma, equals
    # the sum over active joints of G_j sigma_matrix(p_j, w) G_j^T
    A = build_A(default_skeleton())
    G = A.active_block
    frames = 5
    p6 = random_manifold_points(frames * len(A.active_joints), seed=16).reshape(frames, -1, 6)
    p9 = rot6d.decode(p6)[0]
    for w in (0.05, 0.3, 1.0):
        want = sum(G[:, j] @ sigma_matrix(p6[:, j], w) @ G[:, j].T
                   for j in range(len(A.active_joints)))
        got = A.sigma_projection(p9, w)
        assert got.shape == (frames, 6, 6)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    # sigma-mode guidance never calls the closed form itself
    def refuse(*args):
        raise AssertionError("sigma_matrix called on the sampling path")

    monkeypatch.setattr(uncertainty, "sigma_matrix", refuse)
    skel, seq, meas, oracle = make_case(frames=60)
    run_guided_inference(meas, skel, oracle, 3, GuidanceConfig(covariance_mode="sigma"), seed=0)


def test_identity_score_equals_full_joint_reference():
    # the score on the active joints matches the chain over all 22 joints (full
    # decode, full diff_matrix, a solve per frame, full decode pullback) to the
    # rounding of the one factorization and the active-column residual: at most
    # 2.3e-16 of max|want| measured over 1 to 287 frames
    A = build_A(default_skeleton())
    rng = np.random.default_rng(17)
    cfg = GuidanceConfig(sigma_l=0.02)
    for frames in (1, 3, 41, 82, 287):
        r_hat = rng.standard_normal((frames, 22, 6))
        l_diff = 0.3 * rng.standard_normal((frames, 2, 3))
        w_t = rng.uniform(0.05, 1.0)
        p9, decode_pullback = rot6d.decode(r_hat)
        e = l_diff.reshape(frames, 6) - p9.reshape(frames, -1) @ A.diff_matrix.T
        Gc = A.active_block.reshape(6, -1)
        B = w_t**2 * (Gc @ Gc.T) + cfg.sigma_l**2 * np.eye(6)
        u = np.linalg.solve(B, e[..., None])[..., 0]
        want = decode_pullback((u @ A.diff_matrix).reshape(frames, 22, 9))
        got = active_score(l_diff, A, r_hat, cfg, w_t)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("mode, per_frame", [("identity", False), ("sigma", True)],
                         ids=["identity", "sigma"])
def test_b_factorizations_per_score(monkeypatch, mode, per_frame):
    # identity mode has one B for all frames, so one 6x6 solve takes every frame as
    # a right-hand side; sigma mode has a B per frame and solves them as one batch
    solves, solve = [], np.linalg.solve

    def recording(a, b):
        solves.append((np.shape(a), np.shape(b)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    A = build_A(default_skeleton())
    frames = 5
    r_hat = random_manifold_points(frames * 22, seed=18).reshape(frames, 22, 6)
    l_diff = 0.3 * np.random.default_rng(18).standard_normal((frames, 2, 3))
    active_score(l_diff, A, r_hat, GuidanceConfig(covariance_mode=mode), 0.4)
    # a (6, 6) B broadcast against (frames, 6, 1) would be factored once per frame
    assert solves == [((frames, 6, 6), (frames, 6, 1)) if per_frame else ((6, 6), (6, frames))]


@pytest.mark.parametrize("mode", ["identity", "sigma"])
def test_gram_schmidt_runs_once_per_score(monkeypatch, mode):
    # the residual, Sigma's input and the decode pullback share one decode, on the
    # active joints alone
    calls = []
    gram_schmidt = rot6d._gram_schmidt

    def counting_gram_schmidt(r):
        calls.append(np.shape(r))
        return gram_schmidt(r)

    # random_manifold_points decodes too, so its points are drawn before counting starts
    r_hat = random_manifold_points(4 * 22, seed=14).reshape(4, 22, 6)
    monkeypatch.setattr(rot6d, "_gram_schmidt", counting_gram_schmidt)
    A = build_A(default_skeleton())
    l_diff = np.random.default_rng(15).standard_normal((4, 2, 3))
    active_score(l_diff, A, r_hat, GuidanceConfig(sigma_l=0.01, covariance_mode=mode), 0.3)
    assert calls == [(4, 8, 6)]


@pytest.mark.parametrize("mode", ["identity", "sigma"])
def test_likelihood_score_pulls_back_on_the_active_joints(mode):
    # the denoiser pullback gets the cotangent on A's 8 active joints only,
    # with no zero-padded full layout
    A = build_A(default_skeleton())
    rng = np.random.default_rng(12)
    r_hat = random_manifold_points(3 * 22, seed=13).reshape(3, 22, 6)
    r_hat = r_hat + 0.05 * rng.standard_normal(r_hat.shape)
    l_diff = rng.standard_normal((3, 2, 3)) * 0.2
    cfg = GuidanceConfig(sigma_l=0.03, covariance_mode=mode)
    handed = []

    def pullback(cot):
        handed.append(np.shape(cot))
        return scatter_pullback(r_hat.shape, A.active_joints)(cot)

    g = likelihood_score(l_diff, A, r_hat[:, A.active_joints], pullback, cfg, 0.4)
    assert handed == [(3, 8, 6)] and len(A.active_joints) == 8
    assert np.all(np.abs(g[:, A.active_joints]).max(axis=-1) > 0.0)
    # a degenerate estimate is refused with its flat index in the (frame, joint)
    # layout of all 22 joints
    for f, j, flat in ((1, 18, 40), (0, 13, 13)):
        bad = r_hat.copy()
        bad[f, j, 3:] = 2.0 * bad[f, j, :3]
        with pytest.raises(rot6d.DegenerateRotationError, match=f"at joint {flat}:"):
            active_score(l_diff, A, bad, cfg, 0.4)


def test_likelihood_score_scales_linearly():
    skel = default_skeleton()
    A = build_A(skel)
    rng = np.random.default_rng(6)
    r_hat = random_manifold_points(22, seed=7).reshape(1, 22, 6)
    l_diff = rng.standard_normal((1, 2, 3))
    a = active_score(l_diff, A, r_hat, GuidanceConfig(guidance_scale=1.0, sigma_l=0.01), 0.3)
    b = active_score(l_diff, A, r_hat, GuidanceConfig(guidance_scale=2.5, sigma_l=0.01), 0.3)
    assert np.allclose(b, 2.5 * a, atol=1e-12)


def test_guidance_config_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(guidance_scale=-1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(covariance_mode="full")


def test_guidance_config_refuses_bad_fields():
    # a bool used to pass as 1.0 / 0.0, and a string or None escaped as a bare TypeError
    for field, value in (("guidance_scale", True), ("guidance_scale", None),
                         ("guidance_scale", "1"), ("guidance_scale", -1.0)):
        with pytest.raises(ValueError, match=field):
            GuidanceConfig(**{field: value})


def test_guidance_config_refuses_non_finite_guidance_scale():
    # NaN would skip the score (nan > 0 is False) and run unguided
    for scale in (np.nan, np.inf):
        with pytest.raises(ValueError, match="guidance_scale"):
            GuidanceConfig(guidance_scale=scale)


def test_guidance_config_refuses_bad_sigma_l():
    for sigma_l in (-0.01, np.nan, np.inf, 1e306):
        with pytest.raises(ValueError, match="sigma_l"):
            GuidanceConfig(sigma_l=sigma_l)


def test_window_starts():
    assert _window_starts(82, 41, 21) == [0, 21, 41]
    assert _window_starts(41, 41, 21) == [0]
    assert _window_starts(30, 41, 21) == [0]
    assert _window_starts(100, 41, 21) == [0, 21, 42, 59]


def make_case(frames=41, seed=0, sigma_l=0.0):
    skel = default_skeleton()
    seq = generate_motion(MotionSpec(kind="arm-swing", frames=frames, seed=seed), skel)
    meas = extract_measurements(seq, skel, sigma_l, seed=seed + 1)
    oracle = OracleDenoiser(seq.rotations)
    return skel, seq, meas, oracle


IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def first_and_last_frame_reads(W):
    """(W * 22 * 6, 12) one-hot columns reading joint 0 of a window's first and last frame."""
    reads = np.zeros((W, 22, 6, 12))
    reads[0, 0, :, :6] = np.eye(6)
    reads[-1, 0, :, 6:] += np.eye(6)
    return reads.reshape(-1, 12)


class RecordingDenoiser(DenoiserInterface):
    """Records each binding's window starts and conditioning shape and each
    step's time and coordinates' shape.  It reads joint 0 of each window's first
    and last frame; its estimate is the identity rotation plus half the state there."""

    def __init__(self, window=None):
        self.window = window
        self.bound, self.steps = [], []

    def condition(self, cond, starts):
        self.bound.append((list(starts), np.shape(cond)))
        reads = first_and_last_frame_reads(np.shape(cond)[1])

        def denoise(z, t):
            self.steps.append((t, z.shape))
            return 0.5 * z, lambda du: 0.5 * du

        return reads, reads.T, np.tile(IDENTITY_6D, len(reads) // 6), denoise


@pytest.mark.parametrize("n", [1, 3, 50])
def test_sampler_steps_down_from_terminal_in_equal_steps(n):
    skel, seq, meas, _ = make_case(frames=12)
    denoiser = RecordingDenoiser()
    run_guided_inference(meas, skel, denoiser, n, GuidanceConfig(), seed=0)
    times = [t for t, _ in denoiser.steps]
    assert times[0] == TERMINAL
    assert np.allclose(times, TERMINAL * np.arange(n, 0, -1) / n, rtol=1e-15, atol=0.0)


# an array, such as a list of times, is not a step count
@pytest.mark.parametrize("steps", [0, -1, 2.5, True, np.array([10])],
                         ids=["zero", "negative", "fractional", "bool", "array"])
def test_bad_steps_are_refused_by_name(steps):
    skel, seq, meas, oracle = make_case(frames=12)
    with pytest.raises(ValueError, match="^steps must be"):
        run_guided_inference(meas, skel, oracle, steps, GuidanceConfig())


def test_a_denoiser_of_any_length_gets_the_whole_sequence_as_one_window():
    skel, seq, meas, _ = make_case(frames=100)
    denoiser = RecordingDenoiser()
    pred = run_guided_inference(meas, skel, denoiser, 4, GuidanceConfig(), seed=0)
    assert denoiser.bound == [([0], (1, 100, 18))]
    assert [shape for _, shape in denoiser.steps] == [(1, 12)] * 4
    assert pred.frames == 100


def test_a_trained_window_longer_than_the_sequence_is_refused():
    skel, seq, meas, _ = make_case(frames=30)
    model = MLPDenoiser(TrainConfig(hidden=8))
    with pytest.raises(ValueError, match="trained window of 41 frames is longer than the "
                                         "30 frames of the sequence"):
        run_guided_inference(meas, skel, model, 3, GuidanceConfig())


def test_one_forward_pass_per_step(monkeypatch):
    # one binding per run; the estimate and the guidance pullback share one
    # forward per step, which neither packs an input row nor runs training's forward
    skel, seq, meas, _ = make_case(frames=60)
    model = MLPDenoiser(TrainConfig(hidden=8))
    condition = MLPDenoiser.condition
    bound, rows = [], []

    def counting_condition(self, cond, starts):
        bound.append(len(cond))
        *parts, denoise = condition(self, cond, starts)

        def counting_denoise(z, t):
            rows.append(z.shape[0])
            return denoise(z, t)

        return (*parts, counting_denoise)

    def training_only(self, *args):
        raise AssertionError("denoise called a training-path method")

    monkeypatch.setattr(MLPDenoiser, "condition", counting_condition)
    monkeypatch.setattr(MLPDenoiser, "_pack", training_only)
    monkeypatch.setattr(MLPDenoiser, "_forward", training_only)
    cfg = GuidanceConfig(guidance_scale=1.0)
    run_guided_inference(meas, skel, model, 3, cfg, seed=0)
    # both 41-frame windows, bound once; one forward per step
    assert bound == [2]
    assert rows == [2] * 3


def test_parameter_edits_between_runs_are_seen():
    # each run binds the model afresh, so an in-place edit of a parameter and a
    # replaced parameter array both reach the next run; the arrays stay writable
    skel, seq, meas, _ = make_case(frames=60)
    model = MLPDenoiser(TrainConfig(hidden=8))
    cfg = GuidanceConfig(guidance_scale=1.0)
    first = run_guided_inference(meas, skel, model, 3, cfg, seed=0)
    model.params["Wo"][:, :132] += 0.5  # in place; the pullback gathers Wo's rows
    model.params["W0"][:132] *= 2.0     # in place; the forward reads W0's state rows
    model.params["Wc1"] = model.params["Wc1"] + 0.3  # replaced; the conditioning reads it
    got = run_guided_inference(meas, skel, model, 3, cfg, seed=0)
    fresh = MLPDenoiser(model.config, params={k: v.copy() for k, v in model.params.items()})
    want = run_guided_inference(meas, skel, fresh, 3, cfg, seed=0)
    assert np.array_equal(got.rotations, want.rotations)
    assert np.array_equal(got.root_translation, want.root_translation)
    assert not np.array_equal(got.rotations, first.rotations)


def test_run_guided_inference_deterministic():
    skel, seq, meas, oracle = make_case()
    cfg = GuidanceConfig(guidance_scale=1.0)
    a = run_guided_inference(meas, skel, oracle, 20, cfg, seed=5)
    b = run_guided_inference(meas, skel, oracle, 20, cfg, seed=5)
    assert np.array_equal(a.rotations, b.rotations)
    assert np.array_equal(a.root_translation, b.root_translation)


def test_rotations_invariant_to_sensor_translation():
    skel, seq, meas, oracle = make_case()
    cfg = GuidanceConfig(guidance_scale=1.0)
    a = run_guided_inference(meas, skel, oracle, 20, cfg, seed=5)
    shifted = extract_measurements(seq, skel, 0.0, seed=1)
    shifted.locations = shifted.locations + np.array([0.7, -1.3, 2.0])
    b = run_guided_inference(shifted, skel, oracle, 20, cfg, seed=5)
    assert np.array_equal(a.rotations, b.rotations)
    # the recovered root absorbs the translation instead
    assert np.allclose(b.root_translation - a.root_translation,
                       np.array([0.7, -1.3, 2.0]), atol=1e-12)


@pytest.fixture(scope="module")
def grid_case():
    """A 60-frame case with its sensor locations on a 2^-24 m grid, the untrained
    hidden-8 MLP and the oracle, and each one's guided rotations before any shift."""
    skel, seq, meas, oracle = make_case(frames=60)
    meas.locations = np.round(meas.locations * 2**24) / 2**24
    denoisers = (oracle, MLPDenoiser(TrainConfig(hidden=8)))
    before = [run_guided_inference(meas, skel, d, 5, GuidanceConfig(), seed=2)
              for d in denoisers]
    return skel, meas, denoisers, before


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(shift=st.tuples(*[st.integers(-2**13, 2**13)] * 3))
def test_rotations_invariant_to_any_constant_sensor_translation(grid_case, shift):
    # a translation on a 2^-10 m grid, up to 8 m, adds to grid locations without
    # rounding, so the differences the sampler reads are exactly the same and the
    # guided rotations must be too: on the oracle, and through the MLP's pullback
    skel, meas, denoisers, before = grid_case
    shifted = copy.deepcopy(meas)
    shifted.locations = shifted.locations + np.array(shift) / 2**10
    for denoiser, want in zip(denoisers, before):
        got = run_guided_inference(shifted, skel, denoiser, 5, GuidanceConfig(), seed=2)
        assert np.array_equal(got.rotations, want.rotations)


def test_unguided_inference_matches_manual_ddim_loop():
    # guidance_scale = 0 must follow the plain DDIM recursion exactly,
    # including the rng stream.  An untrained MLP's estimate depends on the
    # state, the time and the conditioning, so unlike an oracle's truth it
    # carries any difference in those through to the last step.
    skel, seq, meas, _ = make_case(frames=30)
    model = MLPDenoiser(TrainConfig(window=30, hidden=8))
    denoise = bind(model, make_conditioning(meas, "rotations")[None], [0])
    q = np.linspace(0.0, TERMINAL, 16)
    abars = alpha_bar(q)
    cfg = GuidanceConfig(guidance_scale=0.0)
    got = run_guided_inference(meas, skel, model, 15, cfg, seed=9)
    rng = np.random.default_rng([9, 0])
    r = rng.standard_normal((30, 22, 6))
    for i in range(len(q) - 1, 0, -1):
        t, ab_t, ab_s = q[i], abars[i], abars[i - 1]
        r_hat = denoise(r[None], t)[0][0]
        eps = (r - np.sqrt(ab_t) * r_hat) / np.sqrt(1 - ab_t)
        r = np.sqrt(ab_s) * r_hat + np.sqrt(1 - ab_s) * eps
    want = rot6d.to_sixdof(rot6d.batch_from_sixdof(r))
    assert np.abs(got.rotations - want).max() < 1e-12


@pytest.mark.parametrize("seed, match", [
    # a negative seed used to fail inside np.random.default_rng, unnamed
    (-1, "seed must be at least 0, got -1"),
    (2.5, "seed must be an integer, got 2.5"),
], ids=["negative", "fractional"])
def test_bad_seed_is_refused(seed, match):
    skel, seq, meas, oracle = make_case(frames=12)
    with pytest.raises(ValueError, match=match):
        run_guided_inference(meas, skel, oracle, 3, GuidanceConfig(), seed=seed)


def test_sigma_l_flag_is_a_floor_under_the_files():
    # on a 5 cm file the score whitens with 5 cm for any flag up to 5 cm, and
    # the root smoothing reads the file's value either way.  An untrained MLP's
    # estimate carries any change of the score through to the output.
    skel, seq, meas, _ = make_case(frames=60, sigma_l=0.05)
    model = MLPDenoiser(TrainConfig(window=30, hidden=8))
    runs = [run_guided_inference(meas, skel, model, 5, GuidanceConfig(sigma_l=flag), seed=0)
            for flag in (0.01, 0.05, 0.2)]
    for field in ("rotations", "root_translation"):
        assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()
    assert runs[2].rotations.tobytes() != runs[1].rotations.tobytes()


def test_oracle_guided_recovery_single_window():
    skel, seq, meas, oracle = make_case(frames=41, seed=2)
    cfg = GuidanceConfig(guidance_scale=1.0)
    pred = run_guided_inference(meas, skel, oracle, 50, cfg, seed=0)
    err = rot6d.geodesic_angle(pred.rotation_matrices(), seq.rotation_matrices())
    assert err.max() < 0.5
    assert np.abs(pred.root_translation - seq.root_translation).max() < 1e-6


def test_windowed_inference_covers_long_sequences():
    # an oracle that takes 41 frames at a time, so the 100 frames run as 4 windows
    skel, seq, meas, oracle = make_case(frames=100, seed=3)
    oracle.window = 41
    cfg = GuidanceConfig(guidance_scale=1.0)
    pred = run_guided_inference(meas, skel, oracle, 25, cfg, seed=0)
    assert pred.frames == 100
    assert pred.is_valid(tol=1e-9)
    err = rot6d.geodesic_angle(pred.rotation_matrices(), seq.rotation_matrices())
    assert err.mean() < 1.0


def test_sampler_divergence_guard():
    # 30 frames in windows of 25 overlap by 20, so the starts are [0, 5]: the
    # second window's index (1) differs from its start frame (5)
    skel, seq, meas, _ = make_case(frames=30)

    class ExplodingDenoiser(DenoiserInterface):
        """Estimates zero, except one entry of the window starting at frame 5."""

        window = 25

        def __init__(self, value):
            self.value = value

        def condition(self, cond, starts):
            none = np.zeros((len(starts), 0))
            offset = np.zeros((len(starts), 25, 22, 6))
            offset[np.asarray(starts) == 5, 3, 11, 2] = self.value
            return (np.zeros((25 * 22 * 6, 0)), np.zeros((0, 25 * 22 * 6)),
                    offset.reshape(len(starts), -1), lambda z, t: (none, lambda du: none))

    cfg = GuidanceConfig(guidance_scale=0.0)
    # a huge state and a NaN state (for which "> bound" is False) both stop,
    # and the message names the absolute frame and the joint
    for value in (-1e6, np.nan):
        with pytest.raises(SamplerDivergence,
                           match="window at frame 5: .* at step 5 .* frame 8, joint 11"):
            run_guided_inference(meas, skel, ExplodingDenoiser(value), 5, cfg, seed=0)


class PushingDenoiser(DenoiserInterface):
    """Estimates the identity rotation in every window of 25 frames plus ``drift[w]`` at
    window frame 3, joint 11, 6DoF 2 of window w, reads the state through the given
    one-hot ``reads``, and pulls back any cotangent to the fixed coordinates ``push[w]``."""

    window = 25

    def __init__(self, reads, push, drift=(0.0, 0.0)):
        self.reads, self.push = reads, np.asarray(push, dtype=float)
        self.drift = np.asarray(drift, dtype=float)[:, None]

    def condition(self, cond, starts):
        return (self.reads, one_hot_reads(1).T, np.tile(IDENTITY_6D, 25 * 22),
                lambda z, t: (self.drift.copy(), lambda du: self.push.copy()))


def one_hot_reads(columns):
    """(25 * 22 * 6, columns) reads, each column the entry at window frame 3, joint 11, 6DoF 2."""
    reads = np.zeros((25, 22, 6, columns))
    reads[3, 11, 2] = 1.0
    return reads.reshape(-1, columns)


def test_a_guidance_part_alone_past_the_bound_is_refused_where_it_is():
    # the prior part stays near the identity; the window at frame 5 gets guidance
    # coordinates that put one entry of its state past 1e3 at the first step
    skel, seq, meas, _ = make_case(frames=30)
    push = [[0.0], [1e5]]
    with pytest.raises(SamplerDivergence,
                       match=r"^window at frame 5: state magnitude 6\.6\de\+03 exceeded 1000\.0 "
                             r"at step 5 \(t=15\); worst entry at frame 8, joint 11$"):
        run_guided_inference(meas, skel, PushingDenoiser(one_hot_reads(1), push), 5,
                             GuidanceConfig(), seed=0)


def test_an_estimate_alone_past_the_bound_is_refused_where_it_is():
    # no guidance part: the estimate's coefficients on writes put one entry of the
    # window at frame 5 past 1e3 at the first step
    skel, seq, meas, _ = make_case(frames=30)
    with pytest.raises(SamplerDivergence,
                       match=r"^window at frame 5: state magnitude 1\.\d\de\+03 exceeded 1000\.0 "
                             r"at step 5 \(t=15\); worst entry at frame 8, joint 11$"):
        run_guided_inference(meas, skel,
                             PushingDenoiser(one_hot_reads(1), np.zeros((2, 1)), [0.0, 1e5]),
                             5, GuidanceConfig(), seed=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["identity", "sigma"])
def test_a_huge_guidance_scale_is_refused_without_an_overflow(mode):
    # the guidance part passes the bound at the first step; the guard used to square
    # its entries, overflow and warn before it refused
    skel, seq, meas, _ = make_case(frames=60)
    with pytest.raises(SamplerDivergence,
                       match=r"^window at frame \d+: state magnitude \S+ exceeded 1000\.0 at "
                             r"step 5 \(t=15\); worst entry at frame \d+, joint \d+$"):
        run_guided_inference(meas, skel, MLPDenoiser(TrainConfig(hidden=8)), 5,
                             GuidanceConfig(guidance_scale=1e200, covariance_mode=mode))


def test_nan_coordinates_stop_the_run():
    skel, seq, meas, _ = make_case(frames=30)
    with pytest.raises(SamplerDivergence,
                       match=r"^window at frame 5: state magnitude nan exceeded 1000\.0 at step 5 "
                             r"\(t=15\); worst entry at frame \d+, joint \d+$"):
        run_guided_inference(meas, skel, PushingDenoiser(one_hot_reads(1), [[0.0], [np.nan]]),
                             5, GuidanceConfig(), seed=0)


def test_a_bound_past_the_limit_on_small_entries_runs(monkeypatch):
    # two coordinates read the same entry and the guidance moves them by +G and -G:
    # their bound is past 1e3 at every step, yet they cancel in every entry, so each
    # step forms the full state, finds it small, and the run matches the unpushed one
    skel, seq, meas, _ = make_case(frames=30)
    expanded = []
    expand = sampler._expand
    monkeypatch.setattr(sampler, "_expand",
                        lambda *args: expanded.append(len(args[0][3])) or expand(*args))
    reads = one_hot_reads(2)
    got = run_guided_inference(meas, skel, PushingDenoiser(reads, [[1e5, -1e5]] * 2), 5,
                               GuidanceConfig(), seed=0)
    assert expanded == [2] * 6  # five fallbacks and the final state
    expanded.clear()
    want = run_guided_inference(meas, skel, PushingDenoiser(reads, np.zeros((2, 2))), 5,
                                GuidanceConfig(), seed=0)
    assert expanded == [2]
    assert np.array_equal(got.rotations, want.rotations)
    assert np.array_equal(got.root_translation, want.root_translation)


@pytest.mark.parametrize("guidance_scale", [1.0, 0.0], ids=["estimate", "output"])
def test_a_degenerate_decode_names_its_window_step_frame_and_joint(guidance_scale):
    # guided, the first step's estimate does not decode; unguided, the output does
    # not. Both used to be refused as "joint 84", a flat index on 22 joints.  Joint 18
    # is one the measurements read: a guided step decodes only those.
    skel = default_skeleton()
    truth = generate_motion(MotionSpec(kind="reach", frames=100, seed=1), skel)
    meas = extract_measurements(truth, skel, 0.0, seed=0)
    model = MLPDenoiser(TrainConfig(hidden=8))  # estimates zero at window frame 3, joint 18
    cols = slice(3 * 132 + 18 * 6, 3 * 132 + 19 * 6)
    model.params["Wo"][:, cols] = 0.0
    model.params["bo"][cols] = 0.0
    rotations = truth.rotations.copy()
    rotations[70, 18] = 0.0  # in the windows starting at frames 42 and 59
    oracle = OracleDenoiser(rotations)
    oracle.window = 41
    for denoiser, start, frame in ((model, 0, 3), (oracle, 42, 70)):
        where = (rf"window at frame {start}: degenerate 6DoF estimate at step 10 \(t=15\)"
                 if guidance_scale else "cross-faded output: degenerate 6DoF")
        with pytest.raises(SamplerDivergence,
                           match=rf"^{where} at frame {frame}, joint 18: zero first column$"):
            run_guided_inference(meas, skel, denoiser, 10,
                                 GuidanceConfig(guidance_scale=guidance_scale))


@pytest.fixture(scope="module")
def tiny_prior():
    """A window-12, hidden-24 MLP trained for 60 steps on three 60-frame motions."""
    dataset, _ = small_dataset()
    return train_denoiser(dataset, small_config())


@pytest.mark.parametrize("mode, sigma_l, digest", [
    ("identity", 0.0, "9451a2170b6b40ecda6b11eabdff8a54270003c99e7469a16ca36a54297f1800"),
    ("sigma", 0.0, "8035297d882999cc2c5817b7962ab882e139462af04a198005d15aa7d371dd60"),
    ("identity", 0.05, "37a95d21610185ddc96eddb072fecbc199dd1c0bbeea30f61ff7a90f40e13d4a"),
    ("sigma", 0.05, "0035cdac2c1c17f96bf576c5c656cc83970ae315de43af212ec06e0f4d6f667c"),
], ids=["identity-clean", "sigma-clean", "identity-5cm", "sigma-5cm"])
def test_guided_outputs_are_pinned(tiny_prior, mode, sigma_l, digest):
    # sha256 of the rotations and root of 19 overlapping windows over 30 frames.
    # All four were re-taken when the loop came to carry the state on a fixed basis,
    # (alpha, H, beta, y) with the prior part's coordinates formed each step, not
    # carried (the largest move was 2.2e-16 in a rotation and 3.5e-18 m in the root).
    # The prior is trained here and both training and sampling run BLAS matmuls,
    # so the digests hold for one OpenBLAS build on one CPU (checked at 1 and 2
    # threads); another CPU or build can move the last bits and fail this test
    # with no change to the code.
    skel = default_skeleton()
    truth = generate_motion(MotionSpec(kind="reach", frames=30, seed=900), skel)
    meas = extract_measurements(truth, skel, sigma_l, seed=1)
    pred = run_guided_inference(meas, skel, tiny_prior, 10,
                                GuidanceConfig(covariance_mode=mode), seed=3)
    got = hashlib.sha256(pred.rotations.tobytes() + pred.root_translation.tobytes())
    assert got.hexdigest() == digest


class StateRowReads(np.ndarray):
    """An array whose views record in ``calls`` each matmul that has an operand inside
    ``rows``; both are class attributes, since a view does not carry an instance's."""

    rows = np.zeros(0)
    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and any(isinstance(x, StateRowReads)
                                      and np.may_share_memory(x, self.rows) for x in inputs):
            self.calls.append(ufunc)
        inputs = [x.view(np.ndarray) if isinstance(x, StateRowReads) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("guidance_scale", [1.0, 0.0], ids=["guided", "unguided"])
def test_the_loop_reads_only_wo(monkeypatch, guidance_scale):
    # a guided step makes two split products, both on the rows of Wo for the active
    # joints, and an unguided step none; W0's state rows are read once per sequence
    # (the lift, reads^T reads, Wo @ reads, bo @ reads, the final expansion) and all of
    # Wo too (Wo @ reads, the final expansion), never in the loop; no transposed copy
    # of the state rows is made
    skel, seq, meas, _ = make_case(frames=60)  # two windows of 41 frames
    model = MLPDenoiser(TrainConfig(hidden=8))
    W0, Wo = model.params["W0"], model.params["Wo"]
    bound, condition = [], model.condition
    monkeypatch.setattr(model, "condition",
                        lambda *args: bound.append(condition(*args)) or bound[-1])
    products = []
    split = denoiser._split_matmul

    def recording(a, b):
        if np.shares_memory(b, W0):
            products.append(("W0 rows" if b.shape == (model.d_state, 8) else "W0 rows^T", a.shape))
        elif np.shares_memory(b, Wo):
            products.append(("Wo", a.shape))
        else:
            products.append((b.shape, a.shape))
        return split(a, b)

    monkeypatch.setattr(denoiser, "_split_matmul", recording)
    monkeypatch.setattr(sampler, "_split_matmul", recording)
    cfg = GuidanceConfig(guidance_scale=guidance_scale)
    run_guided_inference(meas, skel, model, 3, cfg, seed=0)
    reads, writes, offset, _ = bound[0]
    assert np.shares_memory(reads, W0) and writes is Wo and offset is model.params["bo"]
    active = 41 * 8 * 6
    step = [((8, active), (2, 8)), ((active, 8), (2, active))] * (guidance_scale > 0)
    assert products == ([("W0 rows", (2, model.d_state))] + step * 3
                        + [("Wo", (2, 8)), ("W0 rows^T", (2, 8))])

    # no other product reads the state rows or Wo in the loop either: their counts
    # are the same at 2 and at 5 steps
    for name, rows in (("W0", W0[: model.d_state]), ("Wo", Wo)):
        counts = []
        for steps in (2, 5):
            monkeypatch.setattr(StateRowReads, "rows", rows)
            monkeypatch.setattr(StateRowReads, "calls", [])
            model.params[name] = model.params[name].view(StateRowReads)
            run_guided_inference(meas, skel, model, steps, cfg, seed=0)
            counts.append(len(StateRowReads.calls))
        assert counts[0] == counts[1] > 0, name


def full_state_reference(model, meas, skel, steps, config, seed):
    """The final window stack of the DDIM loop on an explicit full state r, estimated
    and pulled back to the full layout through training's ``_pack``, ``_forward``
    and ``_backward``."""
    W, J = model.window, skel.joint_count
    A = build_A(skel)
    starts = np.array(_window_starts(meas.frames, W, W - min(OVERLAP, W - 1)))
    win = starts[:, None] + np.arange(W)
    cond = make_conditioning(meas, "rotations")[win]
    l_diff = differential_transform(meas.locations)[win].reshape(-1, 2, 3)
    config = replace(config, sigma_l=max(config.sigma_l, meas.sigma_l))
    r = np.stack([np.random.default_rng([seed, w]).standard_normal((W, J, 6))
                  for w in range(len(starts))])
    q = np.linspace(0.0, TERMINAL, steps + 1)
    abars = alpha_bar(q)
    scatter = scatter_pullback(r.shape, A.active_joints)
    for i in range(steps, 0, -1):
        t, ab_t, ab_s = q[i], abars[i], abars[i - 1]
        r_hat = packed_reference(model, r, t, cond, np.zeros(r.shape))[0]
        g = likelihood_score(l_diff, A, r_hat.reshape(-1, J, 6)[:, A.active_joints],
                             lambda cot: packed_reference(model, r, t, cond, scatter(cot))[1],
                             config, float(np.sqrt(1.0 - ab_t)))
        eps = (r - np.sqrt(ab_t) * r_hat) / np.sqrt(1.0 - ab_t)
        r = np.sqrt(ab_s) * r_hat + np.sqrt(1 - ab_s) * eps + np.sqrt(ab_t) * g
    return r


@pytest.mark.parametrize("mode", ["identity", "sigma"])
def test_the_coordinate_loop_matches_a_full_state_reference(monkeypatch, tiny_prior, mode):
    skel = default_skeleton()
    truth = generate_motion(MotionSpec(kind="reach", frames=30, seed=900), skel)
    meas = extract_measurements(truth, skel, 0.05, seed=1)
    cfg = GuidanceConfig(covariance_mode=mode)
    stacks = []
    expand = sampler._expand
    monkeypatch.setattr(sampler, "_expand",
                        lambda *args: stacks.append(expand(*args)) or stacks[-1])
    run_guided_inference(meas, skel, tiny_prior, 10, cfg, seed=3)
    want = full_state_reference(tiny_prior, meas, skel, 10, cfg, 3)
    assert len(stacks) == 1
    assert np.abs(stacks[0] - want.reshape(len(want), -1)).max() <= 1e-12
