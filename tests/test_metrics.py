"""Error metrics: closed-form unit examples and statistical checks."""

import numpy as np
import pytest

from poseguide import rot6d
from poseguide.metrics import (
    LOWER_JOINTS, UPPER_JOINTS, EvalReport, evaluate_cell, jitter, make_report,
    mpjpe, mpjpe_from_locations, mpjre, scaled_mpjpe, upe_lpe,
)
from poseguide.skeleton import PoseSequence, default_skeleton
from tests.test_rot6d import random_rotations
from tests.test_skeleton import random_pose_matrices


def make_seq(frames=4, seed=0, root=None):
    R = random_pose_matrices(frames, seed=seed)
    if root is None:
        root = np.zeros((frames, 3))
    return PoseSequence(rot6d.to_sixdof(R), root)


def test_zero_on_identical_inputs():
    skel = default_skeleton()
    seq = make_seq(seed=1)
    assert mpjpe(seq, skel, seq, skel) == 0.0
    assert mpjre(seq, seq) == pytest.approx(0.0, abs=1e-5)  # arccos precision
    u, l = upe_lpe(seq, skel, seq, skel)
    assert u == 0.0 and l == 0.0


def test_joint_partition_covers_all_joints():
    assert sorted(set(LOWER_JOINTS) | set(UPPER_JOINTS)) == list(range(22))
    assert not set(LOWER_JOINTS) & set(UPPER_JOINTS)
    assert len(LOWER_JOINTS) == 9 and len(UPPER_JOINTS) == 13


def test_mpjpe_unit_example():
    # shifting one joint of one frame by 5 cm over 22 joints -> 5/22 cm
    locs = np.zeros((1, 22, 3))
    shifted = locs.copy()
    shifted[0, 3, 1] = 0.05
    assert mpjpe_from_locations(shifted, locs) == pytest.approx(5.0 / 22.0, abs=1e-12)


def test_mpjre_unit_example():
    # rotating one joint by 90 degrees over 22 joints -> 90/22 degrees
    skel = default_skeleton()
    R = np.broadcast_to(np.eye(3), (1, 22, 3, 3)).copy()
    seq_a = PoseSequence(rot6d.to_sixdof(R), np.zeros((1, 3)))
    R2 = R.copy()
    R2[0, 5] = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    seq_b = PoseSequence(rot6d.to_sixdof(R2), np.zeros((1, 3)))
    assert mpjre(seq_a, seq_b) == pytest.approx(90.0 / 22.0, abs=1e-12)


def test_mpjpe_uniform_offset_and_root():
    # a constant 3 cm root offset moves every joint by exactly 3 cm
    skel = default_skeleton()
    seq = make_seq(seed=2)
    moved = PoseSequence(seq.rotations.copy(),
                         seq.root_translation + np.array([0.0, 0.03, 0.0]))
    assert mpjpe(moved, skel, seq, skel) == pytest.approx(3.0, abs=1e-12)


def test_scaled_mpjpe_homogeneity():
    skel = default_skeleton()
    seq = make_seq(seed=3)
    moved = PoseSequence(seq.rotations.copy(),
                         seq.root_translation + np.array([0.0, 0.05, 0.0]))
    base = mpjpe(moved, skel, seq, skel)
    assert scaled_mpjpe(moved, skel, seq, skel, 2.0) == pytest.approx(base / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        scaled_mpjpe(moved, skel, seq, skel, 0.0)


def test_scaled_mpjpe_refuses_non_finite_scale():
    seq = make_seq(seed=3)
    for scale in (np.nan, np.inf):
        with pytest.raises(ValueError, match="scale"):
            scaled_mpjpe(seq, default_skeleton(), seq, default_skeleton(), scale)


def test_upe_lpe_partition_identity():
    # weighted recombination of the partition means recovers the full mean
    skel = default_skeleton()
    a, b = make_seq(seed=4), make_seq(seed=5)
    full = mpjpe(a, skel, b, skel)
    u, l = upe_lpe(a, skel, b, skel)
    recombined = (len(UPPER_JOINTS) * u + len(LOWER_JOINTS) * l) / 22.0
    assert recombined == pytest.approx(full, abs=1e-12)


def test_jitter_statistics():
    # a static pose with iid gaussian root increments has mean step
    # norm = sigma * E||n||, n ~ N(0, I_3); E||n|| = sqrt(2) Gamma(2)/Gamma(1.5)
    skel = default_skeleton()
    rng = np.random.default_rng(6)
    F, sigma = 20_000, 0.01
    R = np.tile(random_pose_matrices(1, seed=7), (F, 1, 1, 1))
    steps = sigma * rng.standard_normal((F, 3))
    root = np.cumsum(steps, axis=0)
    seq = PoseSequence(rot6d.to_sixdof(R), root)
    expected = 100.0 * sigma * np.sqrt(2.0) * 1.0 / (np.sqrt(np.pi) / 2.0)
    assert jitter(seq, skel) == pytest.approx(expected, rel=0.02)
    with pytest.raises(ValueError):
        jitter(make_seq(frames=1, seed=8), skel)


def test_eval_report_roundtrip(tmp_path):
    skel = default_skeleton()
    a, b = make_seq(seed=9), make_seq(seed=10)
    cell = evaluate_cell(a, skel, b, skel, scale=1.0, name="demo")
    report = make_report([cell])
    agg = report.aggregate()
    assert agg["mpjpe"] == pytest.approx(cell["mpjpe"])
    report.write(tmp_path / "report.json", tmp_path / "report.csv")
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()
