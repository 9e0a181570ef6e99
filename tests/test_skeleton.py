"""Forward kinematics against a plain recursive reference, plus invariants."""

import json
import re

import numpy as np
import pytest

from poseguide import rot6d
from poseguide.skeleton import (
    HEAD, MEASURED_JOINTS, SMPL_PARENTS, PoseSequence, Skeleton, SkeletonError,
    default_skeleton, forward_kinematics,
    recover_root_translation,
)
from tests.test_rot6d import random_rotations


def fk_reference(rotations, skeleton, root=None):
    """Per-joint recursive forward kinematics, no vectorization."""
    n = skeleton.joint_count
    locs = np.zeros((n, 3))
    if root is not None:
        locs[0] = root
    for j in range(1, n):
        p = skeleton.parents[j]
        locs[j] = locs[p] + rotations[p] @ skeleton.bone_vectors[j]
    return locs


def random_pose_matrices(frames, seed=0):
    return random_rotations(frames * 22, seed=seed).reshape(frames, 22, 3, 3)


def test_fk_matches_recursive_reference():
    skel = default_skeleton()
    rng = np.random.default_rng(0)
    R = random_pose_matrices(8, seed=1)
    roots = rng.standard_normal((8, 3))
    got = forward_kinematics(skel, R, root_translation=roots)
    for f in range(8):
        ref = fk_reference(R[f], skel, roots[f])
        assert np.abs(got[f] - ref).max() < 1e-12


def test_fk_identity_pose_is_cumulative_bone_sums():
    skel = default_skeleton()
    eye = np.broadcast_to(np.eye(3), (22, 3, 3))
    locs = forward_kinematics(skel, eye)
    for j in range(22):
        ref = np.zeros(3)
        k = j
        while k != 0:
            ref += skel.bone_vectors[k]
            k = skel.parents[k]
        assert np.allclose(locs[j], ref, atol=1e-14)


def test_fk_equivariance_under_global_rotation():
    # rotating every global frame by Q (zero root) rotates all locations by Q
    skel = default_skeleton()
    R = random_pose_matrices(4, seed=2)
    Q = random_rotations(1, seed=3)[0]
    a = forward_kinematics(skel, Q @ R)
    b = np.einsum("ij,fnj->fni", Q, forward_kinematics(skel, R))
    assert np.abs(a - b).max() < 1e-12


def test_bone_lengths_preserved_by_fk():
    skel = default_skeleton()
    R = random_pose_matrices(6, seed=4)
    locs = forward_kinematics(skel, R)
    for j in range(1, 22):
        d = np.linalg.norm(locs[:, j] - locs[:, skel.parents[j]], axis=-1)
        assert np.allclose(d, np.linalg.norm(skel.bone_vectors[j]), atol=1e-12)


def test_uniform_scaling_commutes_with_fk():
    skel = default_skeleton()
    R = random_pose_matrices(3, seed=5)
    for s in (0.6, 1.4, 2.5):
        a = forward_kinematics(Skeleton(skel.parents, skel.bone_vectors * s), R)
        b = s * forward_kinematics(skel, R)
        assert np.abs(a - b).max() < 1e-12


def test_build_skeleton_rejects_bad_trees():
    bones = np.zeros((3, 3))
    with pytest.raises(SkeletonError):
        Skeleton([-1, 2, 1], bones)  # forward reference
    with pytest.raises(SkeletonError):
        Skeleton([0, 0, 1], bones)  # no root marker
    with pytest.raises(SkeletonError):
        Skeleton([-1, -1, 0], bones)  # two roots
    # a directly built Skeleton used to take these, and FK then read joint 9
    # before placing it, or returned NaN
    parents = list(SMPL_PARENTS)
    parents[5] = 9
    with pytest.raises(SkeletonError, match=r"^parents\[5\] = 9: a parent must precede its child$"):
        Skeleton(np.array(parents), default_skeleton().bone_vectors)
    bones = np.array(default_skeleton().bone_vectors)
    bones[7, 1] = np.nan
    with pytest.raises(SkeletonError, match="^non-finite bone vector at joint 7$"):
        Skeleton(SMPL_PARENTS, bones)


def test_default_parents_table():
    skel = default_skeleton()
    assert list(skel.parents) == list(SMPL_PARENTS)
    assert tuple(skel.measured_joints) == tuple(MEASURED_JOINTS)
    assert np.allclose(skel.bone_vectors[0], 0.0)


def test_skeleton_json_roundtrip(tmp_path):
    skel = default_skeleton()
    path = tmp_path / "skel.json"
    skel.save(path)
    back = Skeleton.load(path)
    assert np.array_equal(back.parents, skel.parents)
    assert np.allclose(back.bone_vectors, skel.bone_vectors)
    assert tuple(back.measured_joints) == tuple(skel.measured_joints)
    blob = json.loads(path.read_text())
    assert set(blob) == {"parents", "bones", "measured"}


@pytest.mark.parametrize("measured", [[15, 20], [15, 20, 21, 12], [15, 20, 99], [15, 15, 15]])
def test_skeleton_file_measured_list_is_validated(tmp_path, measured):
    # a skeleton file's measured list used to skip validation: two joints
    # failed inside numpy broadcasting, a fourth was silently ignored, and a
    # joint outside the tree was refused only later, by build_A, and a
    # repeated joint zeroed every differential row, so guidance was off
    doc = json.loads(default_skeleton().to_json())
    doc["measured"] = measured
    path = tmp_path / "skel.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SkeletonError, match=r"measured must be 3 joint indices .* got "
                                            + re.escape(str(measured))):
        Skeleton.load(path)


def test_directly_built_skeleton_checks_its_measured_joints():
    # numpy wraps -7 round to joint 15, so this skeleton once measured the
    # head without a word; the check now runs in Skeleton itself
    skel = default_skeleton()
    for measured in ((-7, 20, 21), (15, 20, 22), (15, 20, 20), (15.0, 20.0, 21.0)):
        with pytest.raises(SkeletonError, match=r"measured must be 3 joint indices .* got "
                                                + re.escape(str(list(measured)))):
            Skeleton(skel.parents, skel.bone_vectors, measured)
    # numpy integers are accepted and stored as plain ints
    direct = Skeleton(skel.parents, skel.bone_vectors, np.array(MEASURED_JOINTS))
    assert direct.measured_joints == MEASURED_JOINTS
    assert all(type(j) is int for j in direct.measured_joints)


def test_recover_root_translation_exact():
    skel = default_skeleton()
    rng = np.random.default_rng(6)
    R = random_pose_matrices(10, seed=7)
    roots = rng.standard_normal((10, 3))
    head = forward_kinematics(skel, R, root_translation=roots)[:, HEAD]
    got = recover_root_translation(skel, R, head)
    assert np.abs(got - roots).max() < 1e-12


def test_recover_root_translation_noise_statistics():
    # head-drag recovery error is exactly the head measurement noise, so its
    # std over many frames should match sigma
    skel = default_skeleton()
    rng = np.random.default_rng(8)
    F, sigma = 4000, 0.02
    R = np.tile(random_pose_matrices(1, seed=9), (F, 1, 1, 1))
    roots = rng.standard_normal((F, 3))
    head = forward_kinematics(skel, R, root_translation=roots)[:, HEAD]
    noisy = head + sigma * rng.standard_normal((F, 3))
    err = recover_root_translation(skel, R, noisy) - roots
    assert np.std(err) == pytest.approx(sigma, rel=0.05)


def test_pose_sequence_validation_and_locations():
    skel = default_skeleton()
    R = random_pose_matrices(5, seed=10)
    rot = rot6d.to_sixdof(R)
    seq = PoseSequence(rotations=rot, root_translation=np.zeros((5, 3)))
    assert seq.frames == 5 and seq.joint_count == 22
    assert seq.is_valid()
    locs = seq.joint_locations(skel)
    assert np.allclose(locs, forward_kinematics(skel, R), atol=1e-12)
    # off-manifold coordinates (scaled columns) decode fine but fail is_valid
    off = PoseSequence(rot * 1.7, np.zeros((5, 3)))
    assert not off.is_valid()
    assert off.rotation_matrices().shape == (5, 22, 3, 3)
    # a NaN used to be stored, and evaluate_cell then reported an MPJPE of NaN
    bad = rot.copy()
    bad[3, 4, 1] = np.nan
    with pytest.raises(ValueError, match="^non-finite rotation at frame 3, joint 4$"):
        PoseSequence(bad, np.zeros((5, 3)))
    root = np.zeros((5, 3))
    root[2, 0] = -np.inf
    with pytest.raises(ValueError, match="^non-finite root translation at frame 2$"):
        PoseSequence(rot, root)
    # a degenerate entry is named by frame and joint, not by its flat index (70)
    zero = rot.copy()
    zero[3, 4, :3] = 0.0
    seq = PoseSequence(zero, np.zeros((5, 3)))
    with pytest.raises(rot6d.DegenerateRotationError,
                       match="^degenerate 6DoF at frame 3, joint 4: zero first column$") as err:
        seq.rotation_matrices()
    assert err.value.sequence is seq and err.value.index == 3 * 22 + 4
    assert not seq.is_valid()
