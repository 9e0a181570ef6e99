"""Schedule algebra, guidance score, DDIM update, and full inference."""

import numpy as np
import pytest

from poseguide import rot6d
from poseguide.denoiser import (
    DenoiserInterface, MLPDenoiser, OracleDenoiser, TrainConfig, alpha_bar,
)
from poseguide.measurement import build_A, differential_transform, extract_measurements
from poseguide.sampler import (
    GuidanceConfig, SamplerDivergence, ddim_step, likelihood_score,
    make_schedule, run_guided_inference, _window_starts,
)
from poseguide.skeleton import default_skeleton, PoseSequence
from poseguide.datagen import MotionSpec, generate_motion
from poseguide.uncertainty import random_manifold_points
from tests.test_skeleton import random_pose_matrices


def test_make_schedule_shape_and_endpoints():
    sch = make_schedule(50)
    assert sch.steps == 50
    assert len(sch.timesteps) == 51
    assert sch.timesteps[0] == 0.0
    assert sch.timesteps[-1] == sch.terminal
    assert sch.alpha_bars[0] == 1.0
    assert np.all(np.diff(sch.alpha_bars) < 0)


def test_schedule_alpha_bar_values():
    sch = make_schedule(10, terminal=3.0)
    assert alpha_bar(1.0) == pytest.approx(0.5, abs=1e-15)
    assert sch.alpha_bars[-1] == pytest.approx(0.1, abs=1e-15)
    assert np.array_equal(sch.alpha_bars, alpha_bar(sch.timesteps))


def test_make_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(0)
    with pytest.raises(ValueError, match="terminal"):
        make_schedule(10, terminal=0.0)


def test_ddim_constants_known_values():
    rng = np.random.default_rng(1)
    r_t = rng.standard_normal((2, 3))
    r_hat = rng.standard_normal((2, 3))
    eps = rng.standard_normal((2, 3))
    # ab_t = 0.5, ab_s = 0.75, eta = 1:
    # c1 = sqrt((1 - 2/3) * 0.25 / 0.5) = sqrt(1/6), c2 = sqrt(1/12)
    got = ddim_step(r_t, r_hat, eps, np.zeros_like(r_t), 0.5, 0.75, 1.0,
                    np.random.default_rng(7))
    fresh = np.random.default_rng(7).standard_normal((2, 3))
    want = (np.sqrt(0.75) * r_hat + np.sqrt(1 / 6) * fresh
            + np.sqrt(1 / 12) * eps + np.sqrt(0.5) * np.zeros_like(r_t))
    assert np.abs(got - want).max() < 1e-12
    assert np.sqrt(1 / 6) == pytest.approx(0.4082482905, abs=1e-9)


def test_ddim_deterministic_when_eta_zero():
    rng = np.random.default_rng(2)
    r_t = rng.standard_normal((2, 3))
    r_hat = rng.standard_normal((2, 3))
    eps = rng.standard_normal((2, 3))
    a = ddim_step(r_t, r_hat, eps, np.zeros_like(r_t), 0.4, 0.9, 0.0,
                  np.random.default_rng(1))
    b = ddim_step(r_t, r_hat, eps, np.zeros_like(r_t), 0.4, 0.9, 0.0,
                  np.random.default_rng(2))
    assert np.array_equal(a, b)
    # eta=0: c2^2 = 1 - ab_s exactly
    want = np.sqrt(0.9) * r_hat + np.sqrt(0.1) * eps
    assert np.abs(a - want).max() < 1e-12


def test_ddim_variance_split_identity():
    # for any valid eta, c1^2 + c2^2 = 1 - ab_s
    for eta in (0.0, 0.3, 1.0):
        for ab_t, ab_s in ((0.1, 0.4), (0.5, 0.75), (0.02, 0.05)):
            c1 = eta * np.sqrt((1 - ab_t / ab_s) * (1 - ab_s) / (1 - ab_t))
            c2sq = 1 - ab_s - c1**2
            assert c2sq >= -1e-12
            assert c1**2 + max(c2sq, 0.0) == pytest.approx(1 - ab_s, abs=1e-12)


def test_ddim_rejects_clean_start():
    z = np.zeros((1, 3))
    with pytest.raises(ValueError):
        ddim_step(z, z, z, z, 1.0, 0.5, 0.0, np.random.default_rng(0))


def test_likelihood_score_zero_at_exact_residual():
    skel = default_skeleton()
    A = build_A(skel)
    R = random_pose_matrices(3, seed=3)
    r_hat = rot6d.to_sixdof(R)
    l_diff = A.apply_diff_vec9(rot6d.vec9(R))
    cfg = GuidanceConfig(guidance_scale=1.0)
    calls = []

    def vjp(cot):
        calls.append(cot)
        return cot.copy()

    g = likelihood_score(l_diff, A, r_hat, vjp, cfg, 0.3, 0.01)
    assert np.abs(g).max() < 1e-10


def test_likelihood_score_is_frozen_metric_gradient():
    # with the denoiser VJP replaced by the identity, the score must equal
    # the gradient of -1/2 e^T B^-1 e in r_hat, holding B fixed
    skel = default_skeleton()
    A = build_A(skel)
    rng = np.random.default_rng(4)
    r_hat = random_manifold_points(2 * 22, seed=5).reshape(2, 22, 6)
    r_hat = r_hat + 0.05 * rng.standard_normal(r_hat.shape)
    l_diff = rng.standard_normal((2, 2, 3)) * 0.2
    w_t, sig = 0.4, 0.03
    cfg = GuidanceConfig(guidance_scale=1.0, covariance_mode="identity")
    g = likelihood_score(l_diff, A, r_hat, lambda c: c, cfg, w_t, sig)
    Gd = A.diff_matrix
    B = w_t**2 * (Gd @ Gd.T) + sig**2 * np.eye(6)

    def objective(rh):
        pred = A.apply_diff_vec9(rot6d.vec9(rot6d.batch_from_sixdof(rh)))
        e = (l_diff - pred).reshape(2, 6)
        return 0.5 * float(sum(e[f] @ np.linalg.solve(B, e[f]) for f in range(2)))

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


def test_likelihood_score_scales_linearly():
    skel = default_skeleton()
    A = build_A(skel)
    rng = np.random.default_rng(6)
    r_hat = random_manifold_points(22, seed=7).reshape(1, 22, 6)
    l_diff = rng.standard_normal((1, 2, 3))
    a = likelihood_score(l_diff, A, r_hat, lambda c: c,
                         GuidanceConfig(guidance_scale=1.0), 0.3, 0.01)
    b = likelihood_score(l_diff, A, r_hat, lambda c: c,
                         GuidanceConfig(guidance_scale=2.5), 0.3, 0.01)
    assert np.allclose(b, 2.5 * a, atol=1e-12)


def test_guidance_config_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(eta=1.5)
    with pytest.raises(ValueError):
        GuidanceConfig(guidance_scale=-1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(covariance_mode="full")


def test_guidance_config_refuses_bad_sigma_l():
    for sigma_l in (-0.01, np.nan, np.inf):
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
    meas = extract_measurements(seq, skel, sigma_l, 0.0, seed=seed + 1)
    oracle = OracleDenoiser(seq.rotations)
    return skel, seq, meas, oracle


def test_terminal_mismatch_is_refused():
    skel, seq, meas, _ = make_case()
    model = MLPDenoiser(TrainConfig(terminal=5.0, hidden=8))
    with pytest.raises(ValueError, match=r"terminal 5\.0 .* terminal 15\.0"):
        run_guided_inference(meas, skel, model, make_schedule(5), GuidanceConfig())


def test_one_forward_pass_per_step(monkeypatch):
    # the estimate and the guidance pullback share one forward pass
    skel, seq, meas, _ = make_case(frames=60)
    model = MLPDenoiser(TrainConfig(hidden=8))
    forward = MLPDenoiser._forward
    rows = []

    def counting_forward(self, X):
        rows.append(X.shape[0])
        return forward(self, X)

    monkeypatch.setattr(MLPDenoiser, "_forward", counting_forward)
    cfg = GuidanceConfig(eta=0.0, guidance_scale=1.0)
    run_guided_inference(meas, skel, model, make_schedule(3), cfg, seed=0)
    assert rows == [1] * (2 * 3)  # 2 windows of 41 frames, 3 steps


def test_run_guided_inference_deterministic():
    skel, seq, meas, oracle = make_case()
    sch = make_schedule(20)
    cfg = GuidanceConfig(eta=0.0, guidance_scale=1.0)
    a = run_guided_inference(meas, skel, oracle, sch, cfg, seed=5)
    b = run_guided_inference(meas, skel, oracle, sch, cfg, seed=5)
    assert np.array_equal(a.rotations, b.rotations)
    assert np.array_equal(a.root_translation, b.root_translation)


def test_rotations_invariant_to_sensor_translation():
    skel, seq, meas, oracle = make_case()
    sch = make_schedule(20)
    cfg = GuidanceConfig(eta=0.0, guidance_scale=1.0)
    a = run_guided_inference(meas, skel, oracle, sch, cfg, seed=5)
    shifted = extract_measurements(seq, skel, 0.0, 0.0, seed=1)
    shifted.locations = shifted.locations + np.array([0.7, -1.3, 2.0])
    b = run_guided_inference(shifted, skel, oracle, sch, cfg, seed=5)
    assert np.array_equal(a.rotations, b.rotations)
    # the recovered root absorbs the translation instead
    assert np.allclose(b.root_translation - a.root_translation,
                       np.array([0.7, -1.3, 2.0]), atol=1e-12)


def test_unguided_inference_matches_manual_ddim_loop():
    # guidance_scale = 0 must follow the plain DDIM recursion exactly,
    # including the rng stream
    skel, seq, meas, oracle = make_case(frames=30)
    sch = make_schedule(15)
    cfg = GuidanceConfig(eta=0.0, guidance_scale=0.0)
    got = run_guided_inference(meas, skel, oracle, sch, cfg, seed=9)
    rng = np.random.default_rng([9, 0])
    r = rng.standard_normal((30, 22, 6))
    for i in range(sch.steps, 0, -1):
        t, ab_t, ab_s = sch.timesteps[i], sch.alpha_bars[i], sch.alpha_bars[i - 1]
        r_hat, _ = oracle.denoise(r, t, None)
        eps = (r - np.sqrt(ab_t) * r_hat) / np.sqrt(1 - ab_t)
        r = np.sqrt(ab_s) * r_hat + np.sqrt(1 - ab_s) * eps
    want = rot6d.to_sixdof(rot6d.batch_from_sixdof(r))
    assert np.abs(got.rotations - want).max() < 1e-12


def test_oracle_guided_recovery_single_window():
    skel, seq, meas, oracle = make_case(frames=41, seed=2)
    sch = make_schedule(50)
    cfg = GuidanceConfig(eta=0.0, guidance_scale=1.0)
    pred = run_guided_inference(meas, skel, oracle, sch, cfg, seed=0)
    err = rot6d.geodesic_angle(pred.rotation_matrices(), seq.rotation_matrices())
    assert err.max() < 0.5
    assert np.abs(pred.root_translation - seq.root_translation).max() < 1e-6


def test_windowed_inference_covers_long_sequences():
    skel, seq, meas, oracle = make_case(frames=100, seed=3)
    sch = make_schedule(25)
    cfg = GuidanceConfig(eta=0.0, guidance_scale=1.0)
    pred = run_guided_inference(meas, skel, oracle, sch, cfg, seed=0, window=41)
    assert pred.frames == 100
    assert pred.is_valid(tol=1e-9)
    err = rot6d.geodesic_angle(pred.rotation_matrices(), seq.rotation_matrices())
    assert err.mean() < 1.0


def test_sampler_divergence_guard():
    skel, seq, meas, _ = make_case(frames=10)

    class ExplodingDenoiser(DenoiserInterface):
        """Estimates zero, except one entry of the window starting at frame 4."""

        def __init__(self, value):
            self.value = value

        def denoise(self, r_t, t, cond, frame_offset=0):
            r_hat = np.zeros_like(r_t)
            if frame_offset == 4:
                r_hat[3, 11, 2] = self.value
            return r_hat, np.zeros_like

    sch = make_schedule(5)
    cfg = GuidanceConfig(eta=0.0, guidance_scale=0.0)
    # a huge state and a NaN state (for which "> bound" is False) both stop,
    # and the message names the absolute frame and the joint
    for value in (-1e6, np.nan):
        with pytest.raises(SamplerDivergence,
                           match="window at frame 4: .* at step 5 .* frame 7, joint 11"):
            run_guided_inference(meas, skel, ExplodingDenoiser(value), sch, cfg, seed=0,
                                 window=6, overlap=1)
