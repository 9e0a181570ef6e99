"""Kinematic body model: joint tree, forward kinematics, scaling, root recovery.

The body is a rooted tree of 22 joints in topological order (every parent
index is smaller than its child).  Bone vectors are rest-pose offsets from
the parent joint, in meters.  Forward kinematics is the single recursion

    l_j = l_parent + R_parent @ bone_j

evaluated in one pass down the tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import rot6d

JOINT_COUNT = 22
ROOT = 0

# SMPL-convention joint tree.
SMPL_PARENTS = (-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19)

HEAD = 15
LEFT_WRIST = 20
RIGHT_WRIST = 21
MEASURED_JOINTS = (HEAD, LEFT_WRIST, RIGHT_WRIST)

# Rest-pose bone offsets (meters) for the default synthetic body, y-up,
# +x to the subject's left.  Any fixed plausible table works; all the math
# is parametric in it.
DEFAULT_BONES = (
    (0.00, 0.00, 0.00),    # 0  pelvis (root)
    (0.09, -0.08, 0.00),   # 1  left hip
    (-0.09, -0.08, 0.00),  # 2  right hip
    (0.00, 0.11, -0.01),   # 3  spine1
    (0.00, -0.38, 0.00),   # 4  left knee
    (0.00, -0.38, 0.00),   # 5  right knee
    (0.00, 0.13, 0.00),    # 6  spine2
    (0.00, -0.40, -0.02),  # 7  left ankle
    (0.00, -0.40, -0.02),  # 8  right ankle
    (0.00, 0.06, 0.01),    # 9  spine3
    (0.00, -0.06, 0.12),   # 10 left foot
    (0.00, -0.06, 0.12),   # 11 right foot
    (0.00, 0.21, -0.01),   # 12 neck
    (0.07, 0.11, -0.01),   # 13 left collar
    (-0.07, 0.11, -0.01),  # 14 right collar
    (0.00, 0.09, 0.03),    # 15 head
    (0.10, 0.04, 0.00),    # 16 left shoulder
    (-0.10, 0.04, 0.00),   # 17 right shoulder
    (0.26, 0.00, 0.00),    # 18 left elbow
    (-0.26, 0.00, 0.00),   # 19 right elbow
    (0.25, 0.00, 0.00),    # 20 left wrist
    (-0.25, 0.00, 0.00),   # 21 right wrist
)


class SkeletonError(ValueError):
    """Malformed joint tree or bone table."""


@dataclass(frozen=True)
class Skeleton:
    """Immutable joint tree + rest-pose bone vectors (meters)."""

    parents: np.ndarray
    bone_vectors: np.ndarray
    measured_joints: tuple[int, ...] = MEASURED_JOINTS

    def __post_init__(self):
        # measurement, FK readout and A all index with this list, where a
        # negative index would wrap round silently, so every Skeleton checks it
        n = len(self.parents)
        measured = np.asarray(self.measured_joints)
        if (measured.shape != (3,) or not np.issubdtype(measured.dtype, np.integer)
                or not np.all((0 <= measured) & (measured < n))
                or len(set(measured.tolist())) != 3):
            raise SkeletonError(f"measured must be 3 joint indices of the {n}-joint tree "
                                f"(distinct head, left wrist and right wrist), "
                                f"got {measured.tolist()}")
        object.__setattr__(self, "measured_joints", tuple(int(j) for j in measured))

    @property
    def joint_count(self) -> int:
        return len(self.parents)

    def to_json(self) -> str:
        return json.dumps(
            {
                "parents": self.parents.tolist(),
                "bones": self.bone_vectors.tolist(),
                "measured": list(self.measured_joints),
            }
        )

    @staticmethod
    def from_json(text: str) -> "Skeleton":
        doc = json.loads(text)
        return build_skeleton(doc["parents"], doc["bones"], doc.get("measured", MEASURED_JOINTS))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @staticmethod
    def load(path) -> "Skeleton":
        try:
            with open(path) as fh:
                return Skeleton.from_json(fh.read())
        except (ValueError, KeyError, TypeError) as exc:  # SkeletonError is a ValueError
            raise SkeletonError(f"{path} is not a valid skeleton file "
                                f"({type(exc).__name__}: {exc})") from exc


def build_skeleton(parents, bone_vectors, measured_joints=MEASURED_JOINTS) -> Skeleton:
    """Validate the tree structure and return an immutable Skeleton.

    Rejects multiple roots, self/forward parent references (which also
    covers cycles, given the topological-order requirement), a non-finite
    bone and a nonzero root bone.  ``Skeleton`` itself rejects a measured
    list that is not 3 distinct in-tree joints (head, left wrist, right
    wrist: the order of ``MeasurementSet``).
    """
    parents = np.asarray(parents, dtype=int)
    bones = np.asarray(bone_vectors, dtype=float)
    n = len(parents)
    if bones.shape != (n, 3):
        raise SkeletonError(f"bone table shape {bones.shape} does not match {n} joints")
    roots = np.flatnonzero(parents < 0)
    if len(roots) == 0:
        raise SkeletonError("cycle detected: no root sentinel")
    if len(roots) > 1:
        raise SkeletonError(f"multiple roots at {roots.tolist()}")
    if roots[0] != ROOT:
        raise SkeletonError("root must be joint 0")
    for j in range(1, n):
        if parents[j] == j:
            raise SkeletonError(f"cycle detected: joint {j} is its own parent")
        if parents[j] > j:
            raise SkeletonError(f"parent index {parents[j]} >= child index {j}")
    bad = np.flatnonzero(~np.isfinite(bones).all(axis=1))
    if bad.size:
        raise SkeletonError(f"non-finite bone vector at joint {bad[0]}")
    if np.any(bones[ROOT] != 0.0):
        raise SkeletonError("root bone vector must be zero")
    parents.setflags(write=False)
    bones.setflags(write=False)
    return Skeleton(parents, bones, measured_joints)


def default_skeleton() -> Skeleton:
    return build_skeleton(SMPL_PARENTS, DEFAULT_BONES)


def forward_kinematics(
    skeleton: Skeleton, rotations: np.ndarray, root_translation: np.ndarray | None = None
) -> np.ndarray:
    """Joint locations for global rotation matrices ``(..., J, 3, 3)``.

    ``root_translation`` broadcasts as ``(..., 3)``; default zero.
    Returns ``(..., J, 3)``.
    """
    R = np.asarray(rotations, dtype=float)
    n = skeleton.joint_count
    if R.shape[-3:] != (n, 3, 3):
        raise ValueError(f"rotations must be (..., {n}, 3, 3), got {R.shape}")
    loc = np.zeros(R.shape[:-3] + (n, 3))
    if root_translation is not None:
        loc[..., ROOT, :] = np.asarray(root_translation, dtype=float)
    for j in range(1, n):
        p = skeleton.parents[j]
        loc[..., j, :] = loc[..., p, :] + R[..., p, :, :] @ skeleton.bone_vectors[j]
    return loc


def scale_skeleton(skeleton: Skeleton, per_bone_factors) -> Skeleton:
    """New skeleton with each bone vector multiplied by its factor."""
    factors = np.asarray(per_bone_factors, dtype=float)
    if factors.shape != (skeleton.joint_count,):
        raise SkeletonError(f"need {skeleton.joint_count} factors, got {factors.shape}")
    if np.any(factors <= 0.0):
        raise SkeletonError("scale factors must be strictly positive")
    return build_skeleton(
        skeleton.parents, skeleton.bone_vectors * factors[:, None], skeleton.measured_joints
    )


def recover_root_translation(
    skeleton: Skeleton, rotations: np.ndarray, measured_head_location: np.ndarray
) -> np.ndarray:
    """Translation that drags the zero-rooted pose so the head matches the measurement."""
    head = skeleton.measured_joints[0]
    zero_rooted = forward_kinematics(skeleton, rotations)
    return np.asarray(measured_head_location, dtype=float) - zero_rooted[..., head, :]


@dataclass
class PoseSequence:
    """Per-frame global 6DoF rotations for all joints plus root translation (meters)."""

    rotations: np.ndarray  # (frames, J, 6)
    root_translation: np.ndarray  # (frames, 3)

    def __post_init__(self):
        self.rotations = np.asarray(self.rotations, dtype=float)
        self.root_translation = np.asarray(self.root_translation, dtype=float)
        if self.rotations.ndim != 3 or self.rotations.shape[-1] != 6:
            raise ValueError(f"rotations must be (frames, joints, 6), got {self.rotations.shape}")
        if self.root_translation.shape != (self.rotations.shape[0], 3):
            raise ValueError("root_translation must be (frames, 3)")

    @property
    def frames(self) -> int:
        return self.rotations.shape[0]

    @property
    def joint_count(self) -> int:
        return self.rotations.shape[1]

    def rotation_matrices(self) -> np.ndarray:
        return rot6d.batch_from_sixdof(self.rotations)

    def is_valid(self, tol: float = 1e-9) -> bool:
        """True when every 6DoF entry decodes to an orthonormal det-+1 matrix
        and already lies on the constraint manifold within ``tol``."""
        try:
            R = self.rotation_matrices()
        except rot6d.DegenerateRotationError:
            return False
        back = rot6d.to_sixdof(R)
        return bool(np.max(np.abs(back - self.rotations)) < tol)

    def joint_locations(self, skeleton: Skeleton) -> np.ndarray:
        """FK through ``skeleton`` with this sequence's root translation: (frames, J, 3)."""
        return forward_kinematics(skeleton, self.rotation_matrices(), self.root_translation)
