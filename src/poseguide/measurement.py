"""Sensor simulation and the linear measurement operator.

With zero root translation, the location of a measured joint is

    l_j = R_a1 b_1 + ... + R_ak b_k

where a_1..a_k are the parents along the root->j chain and b_1..b_k the
bone vectors they rotate.  This is linear in the rotation entries, so
``build_A`` obtains it as a dense matrix acting on the per-joint
column-stacked vec9 layout used by the rest of the package, by running
forward kinematics on each vec9 unit vector.

The differential form subtracts the head row block from each wrist block
so the (unknown) root translation cancels from the guidance residual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .skeleton import Skeleton, forward_kinematics


@dataclass
class MeasurementSet:
    """Noisy per-frame locations and 6DoF rotations of the measured joints.

    Joint order is fixed: (head, left wrist, right wrist).
    """

    locations: np.ndarray  # (frames, 3, 3) meters
    rotations: np.ndarray  # (frames, 3, 6)
    sigma_l: float
    sigma_r: float

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=float)
        self.rotations = np.asarray(self.rotations, dtype=float)
        if self.locations.ndim != 3 or self.locations.shape[1:] != (3, 3):
            raise ValueError(f"locations must be (frames, 3, 3), got {self.locations.shape}")
        if self.rotations.shape != self.locations.shape[:1] + (3, 6):
            raise ValueError(f"rotations must be (frames, 3, 6), got {self.rotations.shape}")
        if not (self.sigma_l >= 0 and self.sigma_r >= 0):  # also refuses NaN
            raise ValueError("sigma values must be non-negative")
        for name, values in (("locations", self.locations), ("rotations", self.rotations)):
            bad = np.flatnonzero(~np.isfinite(values).all(axis=(1, 2)))
            if bad.size:
                raise ValueError(f"non-finite {name} at frame {bad[0]}")

    @property
    def frames(self) -> int:
        return self.locations.shape[0]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"frames": self.frames, "sigma_l": self.sigma_l,
                                 "sigma_r": self.sigma_r}) + "\n")
            for i in range(self.frames):
                fh.write(json.dumps({"t": i, "loc": self.locations[i].tolist(),
                                     "rot": self.rotations[i].tolist()}) + "\n")

    @staticmethod
    def load(path) -> "MeasurementSet":
        try:
            with open(path) as fh:
                header = json.loads(fh.readline())
                docs = [json.loads(line) for line in fh]
            locs, rots = [d["loc"] for d in docs], [d["rot"] for d in docs]
            frames, sigma_l, sigma_r = header["frames"], header["sigma_l"], header["sigma_r"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path} is not a measurement file "
                             f"({type(exc).__name__}: {exc})") from exc
        if len(locs) != frames:
            raise ValueError(f"{path}: truncated file: {len(locs)} of {frames} frames")
        return MeasurementSet(locs, rots, sigma_l, sigma_r)


def extract_measurements(poses, skeleton: Skeleton, sigma_l: float, sigma_r: float,
                         seed: int = 0) -> MeasurementSet:
    """Simulate sensors: FK locations and 6DoF rotations of the measured joints
    plus iid Gaussian noise.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    m = list(skeleton.measured_joints)
    locs = poses.joint_locations(skeleton)[:, m, :]
    rots = poses.rotations[:, m, :]
    locs = locs + sigma_l * rng.standard_normal(locs.shape)
    rots = rots + sigma_r * rng.standard_normal(rots.shape)
    return MeasurementSet(locs, rots, sigma_l, sigma_r)


@dataclass
class LinearOperatorA:
    """The linear map from stacked rotation entries to measured-joint locations.

    ``matrix`` acts on the full ``(J * 9,)`` column-stacked vec9 layout,
    rows grouped 3 per measured joint; ``diff_matrix`` holds the
    root-cancelling differential rows (wrist minus head), shape
    ``(6, J * 9)``.  The rotations of the trunk shared by all three chains
    cancel there, so only ``active_joints`` (derived from ``diff_matrix``)
    have a nonzero column block; ``active_block`` gathers those blocks.
    """

    measured_joints: tuple[int, ...]
    matrix: np.ndarray             # (3 * |m|, J * 9)
    diff_matrix: np.ndarray        # (6, J * 9)
    joint_count: int
    active_joints: np.ndarray = field(init=False)

    def __post_init__(self):
        blocks = self.diff_matrix.reshape(-1, self.joint_count, 9)
        self.active_joints = np.flatnonzero(blocks.any(axis=(0, 2)))

    @property
    def active_block(self) -> np.ndarray:
        """``diff_matrix`` on the active joints only: ``(6, active, 9)``."""
        return self.diff_matrix.reshape(-1, self.joint_count, 9)[:, self.active_joints]

    def apply_vec9(self, p9: np.ndarray) -> np.ndarray:
        """Measured-joint locations from vec9 rotations ``(..., J, 9)`` -> ``(..., |m|, 3)``."""
        p9 = np.asarray(p9, dtype=float)
        out = p9.reshape(p9.shape[:-2] + (-1,)) @ self.matrix.T
        return out.reshape(p9.shape[:-2] + (len(self.measured_joints), 3))

    def apply_diff_vec9(self, p9: np.ndarray) -> np.ndarray:
        """Differential locations from vec9 rotations ``(..., J, 9)`` -> ``(..., 2, 3)``."""
        p9 = np.asarray(p9, dtype=float)
        out = p9.reshape(p9.shape[:-2] + (-1,)) @ self.diff_matrix.T
        return out.reshape(p9.shape[:-2] + (2, 3))


def build_A(skeleton: Skeleton) -> LinearOperatorA:
    """Assemble the measurement operator for a skeleton (zero root translation).

    Column k of ``matrix`` is zero-root FK at the measured joints applied to
    the k-th vec9 unit vector.
    """
    measured_joints = list(skeleton.measured_joints)
    n = skeleton.joint_count
    # vec9 slot 3*c + i of a joint holds entry (i, c) of its rotation
    units = np.eye(n * 9).reshape(n * 9, n, 3, 3).swapaxes(-1, -2)
    # C order keeps the BLAS path of every product with A, and so its rounding, fixed
    full = forward_kinematics(skeleton, units)[:, measured_joints].reshape(n * 9, -1).T.copy()
    head_rows = full[0:3]
    diff = np.vstack([full[3:6] - head_rows, full[6:9] - head_rows])
    return LinearOperatorA(tuple(measured_joints), full, diff, n)


def differential_transform(locations: np.ndarray) -> np.ndarray:
    """Per-frame differences (lwrist - head, rwrist - head): ``(..., 3, 3)`` -> ``(..., 2, 3)``.

    Invariant to adding any constant vector to all three inputs.
    """
    loc = np.asarray(locations, dtype=float)
    if loc.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) measured locations, got {loc.shape}")
    head = loc[..., 0, :]
    return np.stack([loc[..., 1, :] - head, loc[..., 2, :] - head], axis=-2)

