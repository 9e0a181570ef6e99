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
from functools import cached_property

import numpy as np

from . import rot6d
from .denoiser import check_count, check_real
from .skeleton import Skeleton, forward_kinematics
from .uncertainty import projected_sigma


def check_sigma(name: str, value) -> None:
    """Refuse, by ``name``, a noise level that is not a real (a bool is not) in [0, 1000] m."""
    check_real(name, value)
    if not 0.0 <= value < np.inf:  # also refuses NaN
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    if value > 1000.0:  # a larger one can overflow the sampler's sigma_l**2
        raise ValueError(f"{name} must be at most 1000 m, got {value}")


@dataclass
class MeasurementSet:
    """Per-frame locations (noise level ``sigma_l``) and 6DoF rotations of the measured joints.

    Joint order is fixed: (head, left wrist, right wrist).
    """

    locations: np.ndarray  # (frames, 3, 3) meters
    rotations: np.ndarray  # (frames, 3, 6)
    sigma_l: float

    def __post_init__(self):
        for name in ("locations", "rotations"):
            try:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError) as exc:  # a JSON object, a word or a ragged row
                raise ValueError(f"{name} must be an array of numbers ({exc})") from exc
        if self.locations.ndim != 3 or self.locations.shape[1:] != (3, 3):
            raise ValueError(f"locations must be (frames, 3, 3), got {self.locations.shape}")
        if self.rotations.shape != self.locations.shape[:1] + (3, 6):
            raise ValueError(f"rotations must be (frames, 3, 6), got {self.rotations.shape}")
        check_sigma("sigma_l", self.sigma_l)
        for name, values in (("locations", self.locations), ("rotations", self.rotations)):
            bad = np.flatnonzero(~np.isfinite(values).all(axis=(1, 2)))
            if bad.size:
                raise ValueError(f"non-finite {name} at frame {bad[0]}")
        try:
            rot6d.decode(self.rotations)
        except rot6d.DegenerateRotationError as exc:
            f, s = divmod(exc.index, 3)
            sensor = ("head", "left wrist", "right wrist")[s]
            raise ValueError(f"rotations at frame {f}, sensor {s} ({sensor}) do not decode: "
                             f"{exc.reason}") from exc

    @property
    def frames(self) -> int:
        return self.locations.shape[0]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"frames": self.frames, "sigma_l": self.sigma_l}) + "\n")
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
            times = [d["t"] for d in docs]
            frames, sigma_l = header["frames"], header["sigma_l"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path} is not a measurement file "
                             f"({type(exc).__name__}: {exc})") from exc
        for i, t in enumerate(times):
            if t != i:  # the header is line 1, frame i is line i + 2
                raise ValueError(f"{path} line {i + 2}: t is {t!r}, expected frame {i}")
        try:
            check_count("frames", frames, 1)
            if len(locs) < frames:
                raise ValueError(f"truncated file: {len(locs)} of {frames} frames")
            if len(locs) > frames:
                raise ValueError(f"{len(locs)} frame lines, more than the header's {frames} frames")
            return MeasurementSet(locs, rots, sigma_l)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def extract_measurements(poses, skeleton: Skeleton, sigma_l: float,
                         seed: int = 0) -> MeasurementSet:
    """Simulate sensors: FK locations of the measured joints plus iid Gaussian noise
    of level ``sigma_l``, and their exact 6DoF rotations.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    m = list(skeleton.measured_joints)
    locs = poses.joint_locations(skeleton)[:, m, :]
    rots = poses.rotations[:, m, :]
    locs = locs + sigma_l * rng.standard_normal(locs.shape)
    return MeasurementSet(locs, rots, sigma_l)


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

    @cached_property
    def sigma_projection(self):
        """``uncertainty.projected_sigma`` of ``active_block``, built once per operator."""
        return projected_sigma(self.active_block)


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
    return LinearOperatorA(full, diff, n)


def differential_transform(locations: np.ndarray) -> np.ndarray:
    """Per-frame differences (lwrist - head, rwrist - head): ``(..., 3, 3)`` -> ``(..., 2, 3)``.

    Invariant to adding any constant vector to all three inputs.
    """
    loc = np.asarray(locations, dtype=float)
    if loc.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) measured locations, got {loc.shape}")
    head = loc[..., 0, :]
    return np.stack([loc[..., 1, :] - head, loc[..., 2, :] - head], axis=-2)

