"""Headline acceptance checks for the guided-diffusion IK toolkit.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single PASS/FAIL line (bypassing capture) so a ``pytest -v`` run
shows the verdicts inline.  The two trend checks share one pair of toy
models trained in a session fixture; everything else is closed-form or
oracle-driven and runs in seconds.
"""

import multiprocessing
import sys
import time

import numpy as np
import pytest

from poseguide import rot6d
from poseguide.datagen import MotionSpec, generate_motion, scale_ground_truth
from poseguide.denoiser import OracleDenoiser, TrainConfig, train_denoiser
from poseguide.measurement import build_A, differential_transform, extract_measurements
from poseguide.metrics import evaluate_cell, mpjpe_from_locations
from poseguide.sampler import GuidanceConfig, likelihood_score, run_guided_inference
from poseguide.skeleton import PoseSequence, default_skeleton, forward_kinematics
from poseguide.uncertainty import random_manifold_points, verify_pushforward

from tests.conftest import ACCEPTANCE_LINES
from tests.test_measurement import random_skeleton
from tests.test_rot6d import random_rotations
from tests.test_sampler import scatter_pullback


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# --------------------------------------------------------------------------
# 1. covariance pushforward: closed form vs Monte Carlo + Sylvester minors
# --------------------------------------------------------------------------

def test_covariance_pushforward_closed_form():
    t0 = time.time()
    rep = verify_pushforward(points=20, widths=(0.05, 0.3, 1.0),
                             n_samples=200_000, seed=7, z_max=3.0,
                             minor_rtol=1e-9)
    elapsed = time.time() - t0
    worst_z = max(max(e["max_z_mean"], e["max_z_cov"]) for e in rep["points"])
    worst_minor = max(e["minor_rel_err"] for e in rep["points"])
    ok = rep["passed"] and elapsed < 60.0
    _report("covariance-pushforward", ok,
            f"60 cells, max |z|={worst_z:.2f} (limit 3), "
            f"minor rel err={worst_minor:.2e} (limit 1e-9), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. measurement operator A equals zero-root forward kinematics
# --------------------------------------------------------------------------

def test_linear_operator_matches_forward_kinematics():
    worst = 0.0
    skels = [default_skeleton()] + [random_skeleton(seed=s) for s in range(1, 10)]
    for si, skel in enumerate(skels):
        J = skel.joint_count
        R = random_rotations(1000 * J, seed=100 + si).reshape(1000, J, 3, 3)
        via_A = build_A(skel).apply_vec9(rot6d.vec9(R))
        via_fk = forward_kinematics(skel, R)[:, skel.measured_joints, :]
        worst = max(worst, float(np.abs(via_A - via_fk).max()))
    _report("linear-operator-vs-fk", worst < 1e-12,
            f"10 skeletons x 1000 poses, max |A vec(C) - FK| = {worst:.2e} (limit 1e-12)")


# --------------------------------------------------------------------------
# 3. rotation algebra: roundtrip, orthonormality, VJP vs finite differences
# --------------------------------------------------------------------------

def test_rotation_algebra():
    R = random_rotations(10_000, seed=11)
    round_err = float(np.abs(rot6d.batch_from_sixdof(rot6d.to_sixdof(R)) - R).max())

    rng = np.random.default_rng(12)
    raw = rng.standard_normal((10_000, 6))
    dec = rot6d.batch_from_sixdof(raw)
    ortho_err = float(np.abs(
        np.einsum("nij,nkj->nik", dec, dec) - np.eye(3)).max())
    det_err = float(np.abs(np.linalg.det(dec) - 1.0).max())

    vjp_err = 0.0
    step = 1e-6
    for r in rng.standard_normal((20, 6)):
        cot = rng.standard_normal(9)
        got = rot6d.decode(r)[1](cot)
        fd = np.empty(6)
        for i in range(6):
            hi, lo = r.copy(), r.copy()
            hi[i] += step
            lo[i] -= step
            diff = rot6d.vec9(rot6d.batch_from_sixdof(hi)) - rot6d.vec9(rot6d.batch_from_sixdof(lo))
            fd[i] = cot @ diff / (2 * step)
        vjp_err = max(vjp_err, float(np.abs(got - fd).max()))

    ok = round_err < 1e-9 and ortho_err < 1e-9 and det_err < 1e-9 and vjp_err < 1e-5
    _report("rotation-algebra", ok,
            f"roundtrip {round_err:.2e}, orthonormality {ortho_err:.2e}, "
            f"det {det_err:.2e} (limits 1e-9); VJP-vs-FD {vjp_err:.2e} (limit 1e-5)")


# --------------------------------------------------------------------------
# 4. likelihood score equals the FD gradient through a test denoiser
# --------------------------------------------------------------------------

class _TanhDenoiser:
    """Smooth, fully differentiable stand-in denoiser (one frame)."""

    def __init__(self, joints: int, seed: int):
        rng = np.random.default_rng(seed)
        d = joints * 6
        self.W = rng.standard_normal((d, d)) * (0.3 / np.sqrt(d))
        self.b = 0.1 * rng.standard_normal(d)
        self.base = random_manifold_points(joints, seed=seed).reshape(1, joints, 6)

    def denoised(self, r_t):
        z = np.tanh(self.W @ r_t.reshape(-1) + self.b)
        return self.base + 0.4 * z.reshape(r_t.shape)

    def vjp(self, r_t, cot):
        z = np.tanh(self.W @ r_t.reshape(-1) + self.b)
        return (self.W.T @ (0.4 * cot.reshape(-1) * (1.0 - z**2))).reshape(r_t.shape)


def test_likelihood_score_matches_fd_gradient():
    skel = default_skeleton()
    A = build_A(skel)
    J = skel.joint_count
    rng = np.random.default_rng(21)
    worst = 0.0
    step = 1e-6
    for k in range(100):
        mode = "identity" if k % 2 == 0 else "sigma"
        cfg = GuidanceConfig(guidance_scale=1.0, covariance_mode=mode)
        den = _TanhDenoiser(J, seed=500 + k)
        r_t = rng.standard_normal((1, J, 6))
        l_diff = 0.2 * rng.standard_normal((1, 2, 3))
        w_t, sig = 0.4, 0.03
        r_hat = den.denoised(r_t)
        # the score's cotangent is on A's active joints
        scatter = scatter_pullback(r_hat.shape, A.active_joints)
        score = likelihood_score(l_diff, A, r_hat[:, A.active_joints],
                                 lambda c: den.vjp(r_t, scatter(c)),
                                 GuidanceConfig(guidance_scale=1.0, covariance_mode=mode,
                                                sigma_l=sig), w_t)
        # frozen quadratic-form metric, reproduced from the score definition
        B = _frozen_metric(A, r_hat, cfg, w_t, sig)

        def objective(x):
            R = rot6d.batch_from_sixdof(den.denoised(x))
            e = (l_diff.reshape(1, 6) - rot6d.vec9(R).reshape(1, -1) @ A.diff_matrix.T).reshape(6)
            return 0.5 * float(e @ np.linalg.solve(B, e))

        flat = r_t.reshape(-1)
        fd = np.empty(flat.size)
        for i in range(flat.size):
            v = flat[i]
            flat[i] = v + step
            hi = objective(r_t)
            flat[i] = v - step
            lo = objective(r_t)
            flat[i] = v
            fd[i] = (hi - lo) / (2 * step)
        worst = max(worst, float(np.abs(score.reshape(-1) + fd).max()))
    _report("likelihood-score-gradient", worst < 1e-4,
            f"100 states (both covariance modes), max |score + FD grad| = "
            f"{worst:.2e} (limit 1e-4)")


def _frozen_metric(A, r_hat, cfg, w_t, sig):
    from poseguide.uncertainty import sigma_matrix
    Gd = A.diff_matrix
    if cfg.covariance_mode == "identity":
        return w_t**2 * (Gd @ Gd.T) + sig**2 * np.eye(6)
    R = rot6d.batch_from_sixdof(r_hat)
    r_proj = rot6d.to_sixdof(R)
    blocks = Gd.reshape(6, A.joint_count, 9)
    cols = np.abs(blocks).sum(axis=(0, 2))
    B = sig**2 * np.eye(6)
    for j in np.flatnonzero(cols > 0):
        Gj = blocks[:, j, :]
        B = B + w_t**2 * (Gj @ sigma_matrix(r_proj[0, j], w_t) @ Gj.T)
    return B


# --------------------------------------------------------------------------
# 5. exact recovery with an oracle denoiser, across body scales
# --------------------------------------------------------------------------

def test_oracle_exact_recovery_across_scales():
    t0 = time.time()
    skel = default_skeleton()
    cfg = GuidanceConfig(eta=0.0, guidance_scale=1.0, sigma_l=0.01)
    worst_geo, worst_root = 0.0, 0.0
    for scale in (0.6, 1.0, 1.4):
        base = generate_motion(MotionSpec(kind="arm-swing", frames=60, seed=9), skel)
        truth, sk = scale_ground_truth(base, skel, f"uniform:{scale}")
        meas = extract_measurements(truth, sk, 0.0, seed=0)
        oracle = OracleDenoiser(truth.rotations)
        pred = run_guided_inference(meas, sk, oracle, 50, cfg, seed=1)
        # geodesic_angle already returns degrees, so the checked value is degrees x 180/pi
        geo = np.degrees(rot6d.geodesic_angle(
            rot6d.batch_from_sixdof(pred.rotations),
            rot6d.batch_from_sixdof(truth.rotations))).max()
        root = np.abs(pred.root_translation - truth.root_translation).max()
        worst_geo, worst_root = max(worst_geo, geo), max(worst_root, root)
    elapsed = time.time() - t0
    ok = worst_geo < 0.5 and worst_root < 1e-6 and elapsed < 60.0
    _report("oracle-exact-recovery", ok,
            f"scales {{0.6,1.0,1.4}}: max geodesic {worst_geo:.3e} (deg x 180/pi, limit 0.5), "
            f"max root err {worst_root:.2e} m (limit 1e-6), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. root cancellation: constant sensor translation leaves rotations bit-equal
# --------------------------------------------------------------------------

def test_root_cancellation_invariance():
    skel = default_skeleton()
    truth = generate_motion(MotionSpec(kind="arm-swing", frames=50, seed=3), skel)
    meas = extract_measurements(truth, skel, 0.0, seed=0)
    cfg = GuidanceConfig(eta=0.0, guidance_scale=1.0, sigma_l=0.01)
    oracle = OracleDenoiser(truth.rotations)
    a = run_guided_inference(meas, skel, oracle, 50, cfg, seed=5)
    shifted = extract_measurements(truth, skel, 0.0, seed=0)
    shifted.locations = shifted.locations + np.array([3.2, -1.5, 0.7])
    b = run_guided_inference(shifted, skel, oracle, 50, cfg, seed=5)
    identical = np.array_equal(a.rotations, b.rotations)
    _report("root-cancellation-invariance", identical,
            "output rotations bit-identical under constant sensor translation")


# --------------------------------------------------------------------------
# 7 & 8. trend checks with a toy trained prior and a location-conditioned
# baseline variant (same denoiser architecture, conditioned on raw sensed
# locations, no guidance)
# --------------------------------------------------------------------------

SCALES = (0.6, 1.0, 1.4)


@pytest.fixture(scope="session")
def trend_models():
    t0 = time.time()
    skel = default_skeleton()
    seqs = []
    for kind, count in (("reach", 6), ("arm-swing", 3), ("walk", 2), ("idle-sway", 2)):
        for s in range(count):
            seqs.append(generate_motion(MotionSpec(kind=kind, frames=164, seed=100 + s), skel))
    dataset = [(s, extract_measurements(s, skel, 0.0, seed=i))
               for i, s in enumerate(seqs)]
    configs = [TrainConfig(steps=1500, seed=0, hidden=160, cond_spec="rotations",
                           dropout_prob=0.1),
               TrainConfig(steps=1500, seed=0, hidden=160, cond_spec="locations",
                           dropout_prob=0.0)]
    # the two models train side by side, one core each (training holds its BLAS
    # at one thread)
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        # a pool whose worker died would wait for it forever
        trained = pool.starmap_async(train_denoiser, [(dataset, c) for c in configs])
        prior, baseline = trained.get(timeout=1800.0)
    train_time = time.time() - t0
    assert train_time < 1800.0, f"toy training exceeded 30 min ({train_time:.0f}s)"
    return skel, prior, baseline, train_time


def _eval_cell(skel, prior, baseline, scale, sigma_l, n_test=3):
    """Mean scaled MPJPE (cm) for the guided method and the baseline variant."""
    guided_errs, base_errs = [], []
    for s in range(n_test):
        seq0 = generate_motion(MotionSpec(kind="reach", frames=164, seed=900 + s),
                               default_skeleton())
        truth, sk = scale_ground_truth(seq0, default_skeleton(), f"uniform:{scale}")
        meas = extract_measurements(truth, sk, sigma_l, seed=50 + s)
        gcfg = GuidanceConfig(eta=0.0, guidance_scale=1.0, sigma_l=max(sigma_l, 0.01))
        guided = run_guided_inference(meas, sk, prior, 50, gcfg, seed=3)
        guided_errs.append(evaluate_cell(guided, sk, truth)["mpjpe"])
        bcfg = GuidanceConfig(eta=0.0, guidance_scale=0.0, sigma_l=max(sigma_l, 0.01))
        base = run_guided_inference(meas, sk, baseline, 50, bcfg, seed=3)
        base_errs.append(evaluate_cell(base, sk, truth)["mpjpe"])
    return float(np.mean(guided_errs)) / scale, float(np.mean(base_errs)) / scale


@pytest.fixture(scope="session")
def trend_results(trend_models):
    skel, prior, baseline, train_time = trend_models
    t0 = time.time()
    cells = {}
    for scale in SCALES:
        cells[scale] = _eval_cell(skel, prior, baseline, scale, sigma_l=0.0)
    noisy = _eval_cell(skel, prior, baseline, 1.0, sigma_l=0.05)
    eval_time = time.time() - t0
    assert eval_time < 300.0, f"trend evaluation exceeded 5 min ({eval_time:.0f}s)"
    return cells, noisy, train_time, eval_time


def test_zero_shot_scale_trend(trend_results):
    cells, _, train_time, eval_time = trend_results
    guided = [cells[s][0] for s in SCALES]
    ratio_guided = max(guided) / min(guided)
    base_deg = max(cells[0.6][1] / cells[1.0][1], cells[1.4][1] / cells[1.0][1])
    ok = ratio_guided <= 1.5 and base_deg >= 2.0
    detail = ", ".join(
        f"s={s}: guided {cells[s][0]:.2f} / baseline {cells[s][1]:.2f} cm" for s in SCALES)
    _report("zero-shot-scale-trend", ok,
            f"{detail}; guided max/min {ratio_guided:.2f} (limit 1.5), "
            f"baseline worst degradation x{base_deg:.2f} (needs >= 2); "
            f"train {train_time:.0f}s, eval {eval_time:.0f}s")


def test_noise_robustness_trend(trend_results):
    cells, noisy, _, _ = trend_results
    g0, b0 = cells[1.0]
    g5, b5 = noisy
    d_guided, d_base = g5 - g0, b5 - b0
    ok = d_base > 0 and d_guided <= 0.5 * d_base
    _report("noise-robustness-trend", ok,
            f"sigma_l 0 -> 5 cm: guided {g0:.2f} -> {g5:.2f} (+{d_guided:.2f}), "
            f"baseline {b0:.2f} -> {b5:.2f} (+{d_base:.2f}); "
            f"guided increase / baseline increase = {d_guided / max(d_base, 1e-9):.2f} "
            f"(limit 0.5)")


# --------------------------------------------------------------------------
# 9. metric sanity: zero self-distance and exact unit examples
# --------------------------------------------------------------------------

def test_metric_sanity():
    skel = default_skeleton()
    seq = generate_motion(MotionSpec(kind="walk", frames=40, seed=2), skel)
    own = evaluate_cell(seq, skel, seq)
    self_pos, self_rot = own["mpjpe"], own["mpjre"]

    # every joint displaced 5 cm along x -> MPJPE exactly 5 cm; one joint of
    # 22 displaced 22 cm in one frame of one -> exactly 1 cm
    locs = seq.joint_locations(skel)
    shifted = locs + np.array([0.05, 0.0, 0.0])
    err_all = abs(mpjpe_from_locations(shifted, locs) - 5.0)
    single = locs.copy()
    single[0, 0, 1] += 0.22 * seq.frames
    err_single = abs(mpjpe_from_locations(single, locs) - 1.0)

    # one joint rotated 90 degrees in every frame -> MPJRE exactly 90/22 deg
    Rt = rot6d.batch_from_sixdof(seq.rotations)
    Rr = Rt.copy()
    rot90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    Rr[:, 7] = Rr[:, 7] @ rot90
    rotated = PoseSequence(rot6d.to_sixdof(Rr), seq.root_translation)
    err_rot = abs(evaluate_cell(rotated, skel, seq)["mpjre"] - 90.0 / 22.0)

    ok = (self_pos == 0.0 and self_rot < 1e-5 and err_all < 1e-12
          and err_single < 1e-12 and err_rot < 1e-12)
    _report("metric-sanity", ok,
            f"self MPJPE {self_pos}, self MPJRE {self_rot:.1e}; unit examples "
            f"|err| = {max(err_all, err_single):.1e} cm, {err_rot:.1e} deg "
            f"(limit 1e-12)")
