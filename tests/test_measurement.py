"""Measurement operator vs forward kinematics, sensor sim, serialization."""

import numpy as np
import pytest

from poseguide import rot6d
from poseguide.measurement import (
    MeasurementSet, build_A, differential_transform, extract_measurements,
)
from poseguide.skeleton import (
    PoseSequence, Skeleton, build_skeleton, default_skeleton, forward_kinematics,
)
from tests.test_rot6d import random_rotations
from tests.test_skeleton import random_pose_matrices


def random_skeleton(seed, n_joints=12):
    rng = np.random.default_rng(seed)
    parents = [-1] + [int(rng.integers(0, j)) for j in range(1, n_joints)]
    bones = rng.standard_normal((n_joints, 3)) * 0.3
    bones[0] = 0.0
    measured = sorted(rng.choice(np.arange(1, n_joints), size=3, replace=False).tolist())
    return build_skeleton(parents, bones, tuple(measured))


def test_operator_matches_fk_default_skeleton():
    skel = default_skeleton()
    A = build_A(skel)
    R = random_pose_matrices(200, seed=0)
    got = A.apply_vec9(rot6d.vec9(R))
    ref = forward_kinematics(skel, R)[:, list(skel.measured_joints)]
    assert np.abs(got - ref).max() < 1e-12


def test_operator_matches_fk_random_skeletons():
    for seed in range(10):
        skel = random_skeleton(seed)
        A = build_A(skel)
        R = random_rotations(100 * skel.joint_count, seed=seed + 50).reshape(
            100, skel.joint_count, 3, 3)
        got = A.apply_vec9(rot6d.vec9(R))
        ref = forward_kinematics(skel, R)[:, list(skel.measured_joints)]
        assert np.abs(got - ref).max() < 1e-12


def test_off_chain_rotations_do_not_matter():
    # perturbing vec9 entries of joints outside all measured chains leaves
    # the operator output unchanged
    skel = default_skeleton()
    A = build_A(skel)
    on_chain = set()  # every ancestor of a measured joint rotates its bone chain
    for j in skel.measured_joints:
        while skel.parents[j] >= 0:
            j = int(skel.parents[j])
            on_chain.add(j)
    rng = np.random.default_rng(3)
    v9 = rot6d.vec9(random_pose_matrices(4, seed=4))
    pert = v9.copy()
    for j in range(22):
        if j not in on_chain:
            pert[:, j] += rng.standard_normal(9)
    assert np.array_equal(A.apply_vec9(pert), A.apply_vec9(v9))


def test_diff_matrix_cancels_root_column_translation():
    # apply_diff_vec9 equals wrist-minus-head of the plain rows, and adding a
    # constant to all measured locations cancels in differential_transform
    skel = default_skeleton()
    A = build_A(skel)
    v9 = rot6d.vec9(random_pose_matrices(6, seed=5))
    full = A.apply_vec9(v9)
    diff = A.apply_diff_vec9(v9)
    assert np.allclose(diff, differential_transform(full), atol=1e-14)


def test_active_joints_are_the_unshared_chain_parents():
    # the trunk shared by the head and a wrist chain cancels in the
    # differential rows, so only the parents of the unshared chain edges
    # have a nonzero column block
    def chain_edges(skel, joint):
        edges = set()
        while skel.parents[joint] >= 0:
            edges.add((int(skel.parents[joint]), joint))
            joint = int(skel.parents[joint])
        return edges

    for skel in [default_skeleton()] + [random_skeleton(seed) for seed in range(10)]:
        A = build_A(skel)
        head, *wrists = (chain_edges(skel, j) for j in skel.measured_joints)
        want = sorted({p for edges in wrists for p, _ in edges ^ head})
        assert A.active_joints.tolist() == want
        blocks = A.diff_matrix.reshape(6, skel.joint_count, 9)
        assert np.array_equal(A.active_block, blocks[:, want])
        assert not np.delete(blocks, want, axis=1).any()
    assert build_A(default_skeleton()).active_joints.tolist() == [9, 12, 13, 14, 16, 17, 18, 19]


def test_operator_matrices_are_c_contiguous():
    # a transposed (F-ordered) matrix holds the same values but sends every
    # product with A down another BLAS path; the rounding then differs in the
    # last bit, and a trained prior amplifies that over the DDIM steps
    for skel in [default_skeleton()] + [random_skeleton(seed) for seed in range(3)]:
        A = build_A(skel)
        assert A.matrix.flags.c_contiguous
        assert A.diff_matrix.flags.c_contiguous


def test_measured_joint_outside_the_tree_is_refused():
    # a negative index would wrap round silently in build_A's indexing, so a
    # Skeleton built without build_skeleton refuses it before build_A can run
    skel = default_skeleton()
    with pytest.raises(ValueError, match=r"measured .* got \[15, 20, -1\]"):
        build_A(Skeleton(skel.parents, skel.bone_vectors, (15, 20, -1)))


def test_operator_accepts_nested_lists():
    A = build_A(default_skeleton())
    v9 = rot6d.vec9(random_pose_matrices(3, seed=6))
    assert np.array_equal(A.apply_vec9(v9.tolist()), A.apply_vec9(v9))
    assert np.array_equal(A.apply_diff_vec9(v9.tolist()), A.apply_diff_vec9(v9))


def test_differential_transform_translation_invariance():
    rng = np.random.default_rng(6)
    loc = rng.standard_normal((7, 3, 3))
    shift = rng.standard_normal((7, 1, 3))
    assert np.allclose(differential_transform(loc + shift),
                       differential_transform(loc), atol=1e-12)
    with pytest.raises(ValueError):
        differential_transform(np.zeros((7, 4, 3)))


def test_extract_measurements_deterministic_and_noise_scale():
    skel = default_skeleton()
    R = random_pose_matrices(2000, seed=7)
    seq = PoseSequence(rot6d.to_sixdof(R), np.zeros((2000, 3)))
    a = extract_measurements(seq, skel, 0.03, 0.01, seed=11)
    b = extract_measurements(seq, skel, 0.03, 0.01, seed=11)
    assert np.array_equal(a.locations, b.locations)
    assert np.array_equal(a.rotations, b.rotations)
    clean = extract_measurements(seq, skel, 0.0, 0.0, seed=11)
    ref = forward_kinematics(skel, R)[:, list(skel.measured_joints)]
    assert np.abs(clean.locations - ref).max() < 1e-12
    assert np.std(a.locations - clean.locations) == pytest.approx(0.03, rel=0.05)
    assert np.std(a.rotations - clean.rotations) == pytest.approx(0.01, rel=0.05)


def test_measurement_set_validation():
    with pytest.raises(ValueError):
        MeasurementSet(np.zeros((4, 2, 3)), np.zeros((4, 3, 6)), 0.0, 0.0)
    with pytest.raises(ValueError):
        MeasurementSet(np.zeros((4, 3, 3)), np.zeros((5, 3, 6)), 0.0, 0.0)
    with pytest.raises(ValueError):
        MeasurementSet(np.zeros((4, 3, 3)), np.zeros((4, 3, 6)), -1.0, 0.0)


def test_measurement_set_refuses_non_finite_values():
    # checked when the set is built, not only when it is loaded from a file
    locs, rots = np.zeros((4, 3, 3)), np.zeros((4, 3, 6))
    locs[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite locations at frame 2"):
        MeasurementSet(locs, rots, 0.0, 0.0)
    rots[3, 0, 5] = np.inf
    with pytest.raises(ValueError, match="non-finite rotations at frame 3"):
        MeasurementSet(np.zeros((4, 3, 3)), rots, 0.0, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        MeasurementSet(np.zeros((4, 3, 3)), np.zeros((4, 3, 6)), np.nan, 0.0)


def test_measurement_jsonl_roundtrip(tmp_path):
    skel = default_skeleton()
    R = random_pose_matrices(9, seed=8)
    seq = PoseSequence(rot6d.to_sixdof(R), np.zeros((9, 3)))
    m = extract_measurements(seq, skel, 0.02, 0.005, seed=1)
    path = tmp_path / "m.jsonl"
    m.save(path)
    back = MeasurementSet.load(path)
    assert back.frames == 9
    assert np.allclose(back.locations, m.locations, atol=1e-15)
    assert np.allclose(back.rotations, m.rotations, atol=1e-15)
    assert back.sigma_l == m.sigma_l and back.sigma_r == m.sigma_r


def test_measurement_load_errors(tmp_path):
    skel = default_skeleton()
    R = random_pose_matrices(5, seed=9)
    seq = PoseSequence(rot6d.to_sixdof(R), np.zeros((5, 3)))
    m = extract_measurements(seq, skel, 0.0, 0.0, seed=1)
    path = tmp_path / "m.jsonl"
    m.save(path)
    lines = path.read_text().splitlines()
    (tmp_path / "trunc.jsonl").write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError, match="truncated"):
        MeasurementSet.load(tmp_path / "trunc.jsonl")
    import json
    doc = json.loads(lines[2])
    doc["loc"][0][0] = float("nan")
    bad = lines[:2] + [json.dumps(doc)] + lines[3:]
    (tmp_path / "nan.jsonl").write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementSet.load(tmp_path / "nan.jsonl")
