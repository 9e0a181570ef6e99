"""Error metrics: closed-form unit examples and statistical checks."""

import csv
import hashlib
import json

import numpy as np
import pytest

from poseguide import metrics, rot6d, skeleton
from poseguide.metrics import (
    LOWER_JOINTS, UPPER_JOINTS, evaluate_cell, mpjpe_from_locations, write_report,
)
from poseguide.skeleton import PoseSequence, Skeleton, default_skeleton
from tests.test_skeleton import random_pose_matrices


def make_seq(frames=4, seed=0, root=None):
    R = random_pose_matrices(frames, seed=seed)
    if root is None:
        root = np.zeros((frames, 3))
    return PoseSequence(rot6d.to_sixdof(R), root)


def test_zero_on_identical_inputs():
    skel = default_skeleton()
    seq = make_seq(seed=1)
    cell = evaluate_cell(seq, skel, seq)
    assert cell["mpjpe"] == cell["upe"] == cell["lpe"] == cell["scaled_mpjpe"] == 0.0
    assert cell["mpjre"] == pytest.approx(0.0, abs=1e-5)  # arccos precision


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
    assert evaluate_cell(seq_a, skel, seq_b)["mpjre"] == pytest.approx(90.0 / 22.0, abs=1e-12)


def test_mpjpe_uniform_offset_and_root():
    # a constant 3 cm root offset moves every joint by exactly 3 cm
    skel = default_skeleton()
    seq = make_seq(seed=2)
    moved = PoseSequence(seq.rotations.copy(),
                         seq.root_translation + np.array([0.0, 0.03, 0.0]))
    cell = evaluate_cell(moved, skel, seq)
    for key in ("mpjpe", "upe", "lpe"):
        assert cell[key] == pytest.approx(3.0, abs=1e-12)


def test_scaled_mpjpe_homogeneity():
    skel = default_skeleton()
    seq = make_seq(seed=3)
    moved = PoseSequence(seq.rotations.copy(),
                         seq.root_translation + np.array([0.0, 0.05, 0.0]))
    base = evaluate_cell(moved, skel, seq)["mpjpe"]
    cell = evaluate_cell(moved, skel, seq, scale=2.0)
    assert cell["mpjpe"] == base
    assert cell["scaled_mpjpe"] == pytest.approx(base / 2.0, abs=1e-12)
    with pytest.raises(ValueError, match="scale"):
        evaluate_cell(moved, skel, seq, scale=0.0)


def test_scaled_mpjpe_refuses_non_finite_scale():
    seq = make_seq(seed=3)
    for scale in (np.nan, np.inf):
        with pytest.raises(ValueError, match="scale"):
            evaluate_cell(seq, default_skeleton(), seq, scale=scale)


def test_evaluate_cell_refuses_a_frame_mismatch():
    skel = default_skeleton()
    with pytest.raises(ValueError, match="frame mismatch: 4 vs 5"):
        evaluate_cell(make_seq(frames=4), skel, make_seq(frames=5))


def test_upe_lpe_partition_identity():
    # weighted recombination of the partition means recovers the full mean
    skel = default_skeleton()
    cell = evaluate_cell(make_seq(seed=4), skel, make_seq(seed=5))
    recombined = (len(UPPER_JOINTS) * cell["upe"] + len(LOWER_JOINTS) * cell["lpe"]) / 22.0
    assert recombined == pytest.approx(cell["mpjpe"], abs=1e-12)


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
    still = PoseSequence(seq.rotations, np.zeros((F, 3)))
    expected = 100.0 * sigma * np.sqrt(2.0) * 1.0 / (np.sqrt(np.pi) / 2.0)
    # jitter reads the prediction alone
    assert evaluate_cell(seq, skel, still)["jitter"] == pytest.approx(expected, rel=0.02)
    assert evaluate_cell(still, skel, seq)["jitter"] == 0.0
    one = make_seq(frames=1, seed=8)
    assert evaluate_cell(one, skel, one)["jitter"] is None


def test_evaluate_cell_poses_each_sequence_once(monkeypatch):
    # one decode and one forward-kinematics pass per sequence, whatever the metric
    calls = {"fk": 0, "decode": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    fk = counted("fk", skeleton.forward_kinematics)
    monkeypatch.setattr(skeleton, "forward_kinematics", fk)
    monkeypatch.setattr(metrics, "forward_kinematics", fk)
    monkeypatch.setattr(rot6d, "batch_from_sixdof", counted("decode", rot6d.batch_from_sixdof))
    evaluate_cell(make_seq(frames=6, seed=11), default_skeleton(), make_seq(frames=6, seed=12))
    assert calls == {"fk": 2, "decode": 2}


def _random_seq(frames, seed):
    rng = np.random.default_rng(seed)
    return PoseSequence(rng.standard_normal((frames, 22, 6)), rng.standard_normal((frames, 3)))


@pytest.mark.parametrize("frames, pred_seed, truth_seed, scale, body, name, digest", [
    (7, 1, 2, 1.0, None, "a", "9df222580009b3183adc60a4b948056415048311aa68b6d9cee8bad34e4fb9de"),
    (1, 3, 4, 1.3, 1.3, "b", "de02dbc741c876e5152b33ea215660d5f7acf7cec2244ead357ed12305249751"),
    (40, 5, 6, 0.7, "ramp", "c", "156ab520a6bb491d39aefa60e8877c166c1fc779c8aea99520d838621b907be3"),
], ids=["default-body", "one-frame-uniform-body", "per-bone-body"])
def test_evaluate_cell_values_are_pinned(frames, pred_seed, truth_seed, scale, body, name,
                                        digest):
    # sha256 of every value evaluate_cell returns, taken when each metric
    # still posed the sequences on its own; off-manifold 6DoF inputs also pin the decode
    skel = default_skeleton()
    if body is not None:
        factors = np.linspace(0.8, 1.3, 22) if body == "ramp" else np.full(22, body)
        skel = Skeleton(skel.parents, skel.bone_vectors * factors[:, None])
    cell = evaluate_cell(_random_seq(frames, pred_seed), skel, _random_seq(frames, truth_seed),
                         scale, name)
    assert hashlib.sha256(json.dumps(cell, sort_keys=True).encode()).hexdigest() == digest


def test_eval_report_roundtrip(tmp_path):
    # eval writes one cell; a one-frame cell has no jitter, written as null and as ""
    skel = default_skeleton()
    for cell in (evaluate_cell(make_seq(seed=9), skel, make_seq(seed=10), scale=1.0, name="demo"),
                 evaluate_cell(make_seq(frames=1, seed=11), skel, make_seq(frames=1, seed=12),
                               scale=1.5, name="still")):
        json_path, csv_path = tmp_path / f"{cell['name']}.json", tmp_path / f"{cell['name']}.csv"
        write_report(cell, json_path, csv_path)
        assert json.loads(json_path.read_text()) == {
            "partition": {"upper": list(UPPER_JOINTS), "lower": list(LOWER_JOINTS)},
            "cells": [cell]}
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{k: "" if v is None else str(v) for k, v in cell.items()}]
