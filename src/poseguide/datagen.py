"""Procedural synthetic motion generation and benchmark manifests.

Motions are built from smooth sinusoid-driven local joint angles composed
down the joint tree, at a fixed 60 Hz frame rate.  The vocabulary covers
upper-body-informative motions (arm-swing, reach), a whole-body one (walk)
and a near-still one (idle-sway).  'reach' deliberately decouples the
measured wrist orientation from the elbow flexion (the flexion amount is a
per-sequence latent), so the wrist *location* is the only disambiguating
signal.  A cell's body is the default skeleton times one scale.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import rot6d
from .denoiser import check_count
from .measurement import check_sigma, extract_measurements
from .skeleton import JOINT_COUNT, PoseSequence, Skeleton, default_skeleton

FRAME_HZ = 60.0
MOTION_KINDS = ("idle-sway", "walk", "arm-swing", "reach")


@dataclass
class MotionSpec:
    """One synthetic motion: ``frames`` frames of ``kind`` at ``FRAME_HZ``, one
    cycle per second.

    Only ``reach`` reads ``seed`` (its latent flexion walk).  The other kinds are
    fixed curves, so two specs that differ only in ``seed`` give the same motion.
    """

    kind: str
    frames: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MOTION_KINDS:
            raise ValueError(f"unknown motion kind {self.kind!r}")
        check_count("frames", self.frames, 1)
        check_count("seed", self.seed, 0)


def _rot(axis: str, angle):
    angle = np.asarray(angle, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    out = np.zeros(angle.shape + (3, 3))
    i = "xyz".index(axis)
    j, k = (i + 1) % 3, (i + 2) % 3
    out[..., i, i] = 1.0
    out[..., j, j] = c
    out[..., k, k] = c
    out[..., j, k] = -s
    out[..., k, j] = s
    return out


def generate_motion(spec: MotionSpec, skeleton: Skeleton) -> PoseSequence:
    """Deterministic smooth pose sequence for a motion spec.

    ``spec.seed`` drives only the ``reach`` latent; every other kind ignores it.
    """
    rng = np.random.default_rng(spec.seed)
    F = spec.frames
    tau = np.arange(F) / FRAME_HZ
    phi = 2.0 * np.pi * tau
    n = skeleton.joint_count

    local = np.broadcast_to(np.eye(3), (F, n, 3, 3)).copy()
    root = np.zeros((F, 3))
    root[:, 1] = 0.95

    def set_local(j, axis, angle):
        local[:, j] = _rot(axis, angle)

    if spec.kind == "idle-sway":
        set_local(9, "z", 0.12 * np.sin(phi))
        set_local(12, "x", 0.08 * np.sin(phi + 0.5))
        set_local(16, "z", -0.10 * np.sin(phi + 0.2))
        set_local(17, "z", 0.10 * np.sin(phi + 0.2))
    elif spec.kind == "walk":
        swing = 0.5 * np.sin(phi)
        set_local(1, "x", swing)
        set_local(2, "x", -swing)
        set_local(4, "x", 0.35 * (1.0 - np.cos(phi - np.pi / 2)))
        set_local(5, "x", 0.35 * (1.0 - np.cos(phi + np.pi / 2)))
        set_local(16, "x", -0.35 * np.sin(phi))
        set_local(17, "x", 0.35 * np.sin(phi))
        set_local(18, "z", -0.15 * (1.0 + np.sin(phi)))
        set_local(19, "z", 0.15 * (1.0 + np.sin(phi)))
        set_local(3, "y", 0.08 * np.sin(phi))
        root[:, 0] = 0.9 * tau
        root[:, 1] += 0.02 * np.cos(2.0 * phi)
    elif spec.kind == "arm-swing":
        set_local(16, "x", 0.7 * np.sin(phi))
        set_local(17, "x", 0.7 * np.sin(phi + np.pi))
        set_local(18, "z", -0.4 * (1.0 - np.cos(phi)) / 2.0)
        set_local(19, "z", 0.4 * (1.0 - np.cos(phi)) / 2.0)
        set_local(12, "y", 0.06 * np.sin(phi))
    elif spec.kind == "reach":
        # Latent flexion follows a smooth per-frame random walk; the wrist
        # orientation is pinned to a constant below, so only the wrist
        # location reveals it, and it cannot be read off a long time average.
        rho = np.exp(-1.0 / 12.0)
        z = np.empty(F)
        z[0] = rng.standard_normal()
        xi = rng.standard_normal(F)
        for k in range(1, F):
            z[k] = rho * z[k - 1] + np.sqrt(1.0 - rho**2) * xi[k]
        flex = 0.55 + 0.35 * np.tanh(z)
        sh = 0.9 * flex
        local[:, 16] = _rot("z", np.full(F, -0.25)) @ _rot("x", -sh)
        local[:, 17] = _rot("z", np.full(F, 0.25)) @ _rot("x", -sh)
        set_local(18, "z", -1.2 * flex)
        set_local(19, "z", 1.2 * flex)
        set_local(9, "y", 0.05 * np.sin(phi))

    # compose local angles into global rotations down the tree
    R = np.empty_like(local)
    R[:, 0] = local[:, 0]
    for j in range(1, n):
        R[:, j] = R[:, skeleton.parents[j]] @ local[:, j]

    if spec.kind == "reach":
        # leaf joints: overwriting their global rotation changes no location
        wiggle = _rot("y", 0.1 * np.sin(phi + 1.0))
        for leaf in (15, 20, 21):
            R[:, leaf] = wiggle
    return PoseSequence(rot6d.to_sixdof(R), root)


def parse_preset(preset: str) -> float:
    """The body scale s of a ``uniform:<s>`` preset, refused by name unless in (0, 1000]."""
    name, _, value = preset.partition(":")
    try:
        s = float(value)
    except ValueError:
        s = np.nan
    if name != "uniform" or not (np.isfinite(s) and s > 0.0):
        raise ValueError(f"preset must be 'uniform:<scale>' with a finite, positive scale, "
                         f"got {preset!r}")
    if s > 1000.0:  # the cap of check_sigma: a larger body overflows the sampler
        raise ValueError(f"preset scale must be at most 1000, got {preset!r}")
    return s


def scale_ground_truth(poses: PoseSequence, skeleton: Skeleton, preset: str):
    """Ground truth on the body ``skeleton`` times the preset's scale s.

    Rotations are scale-free and never change; bones and root translation scale by s.
    """
    s = parse_preset(preset)
    return (PoseSequence(poses.rotations.copy(), poses.root_translation * s),
            Skeleton(skeleton.parents, skeleton.bone_vectors * s, skeleton.measured_joints))


# -- pose sequence serialization -------------------------------------------

_MAGIC = b"PGSEQ"
_VERSION = 1


def save_sequence(path, poses: PoseSequence) -> None:
    """Lossless binary store of a PoseSequence."""
    header = json.dumps({"version": _VERSION, "frames": poses.frames, "joints": poses.joint_count})
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header.encode())
        fh.write(np.ascontiguousarray(poses.rotations, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(poses.root_translation, dtype="<f8").tobytes())


def load_sequence(path) -> PoseSequence:
    """Load the PoseSequence that :func:`save_sequence` wrote at ``path``; every
    refusal is a ValueError that names ``path``."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path} is not a pose sequence: no {_MAGIC.decode()} header")
        hlen = int.from_bytes(fh.read(4), "little")
        header, body = fh.read(hlen), fh.read()
    try:
        header = json.loads(header.decode())
        version, F, J = header["version"], header["frames"], header["joints"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a pose sequence "
                         f"({type(exc).__name__}: {exc})") from exc
    try:
        if version != _VERSION:
            raise ValueError(f"unsupported sequence version {version!r}")
        check_count("frames", F, 1)
        if type(J) is not int or J != JOINT_COUNT:
            raise ValueError(f"joints must be {JOINT_COUNT}, got {J!r}")
        need = F * J * 6 * 8 + F * 3 * 8
        if len(body) < need:
            raise ValueError(f"truncated file: {len(body)} bytes, expected {need}")
        if len(body) > need:
            raise ValueError(f"{len(body) - need} trailing bytes after the {need} bytes "
                             f"of {F} frames")
        rot = np.frombuffer(body[: F * J * 6 * 8], dtype="<f8").reshape(F, J, 6)
        root = np.frombuffer(body[F * J * 6 * 8 :], dtype="<f8").reshape(F, 3)
        return PoseSequence(rot.copy(), root.copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# -- benchmark manifests ----------------------------------------------------

@dataclass
class BenchmarkCell:
    motion: MotionSpec
    preset: str = "uniform:1.0"
    sigma_l: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_count("seed", self.seed, 0)
        if not isinstance(self.preset, str):
            raise ValueError(f"preset must be a string, got {self.preset!r}")
        parse_preset(self.preset)
        check_sigma("sigma_l", self.sigma_l)

    def name(self) -> str:
        """The cell's directory name, from the preset's scale, not its spelling."""
        scale = repr(parse_preset(self.preset)).replace(".", "p")
        return (f"{self.motion.kind}_f{self.motion.frames}_m{self.motion.seed}"
                f"_uniform{scale}_sl{self.sigma_l:g}_s{self.seed}")


@dataclass
class BenchmarkManifest:
    """Cells with distinct names, since each cell is written to its own directory."""

    cells: list

    def __post_init__(self):
        seen = {}
        for i, cell in enumerate(self.cells):
            first = seen.setdefault(cell.name(), i)
            if first != i:
                raise ValueError(f"cells {first} and {i} share the name {cell.name()!r}")

    @staticmethod
    def from_json(text: str) -> "BenchmarkManifest":
        # a missing field takes the BenchmarkCell default; a misspelled or retired one is refused
        cells = []
        for i, c in enumerate(json.loads(text)["cells"]):
            unknown = set(c) - {f.name for f in fields(BenchmarkCell)}
            if unknown:
                raise ValueError(f"cell {i}: unknown field {min(unknown)!r}")
            cells.append(BenchmarkCell(**{**c, "motion": MotionSpec(**c["motion"])}))
        return BenchmarkManifest(cells)

    @staticmethod
    def load(path) -> "BenchmarkManifest":
        try:
            with open(path) as fh:
                return BenchmarkManifest.from_json(fh.read())
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path} is not a valid benchmark manifest "
                             f"({type(exc).__name__}: {exc})") from exc


def expand_cell(cell: BenchmarkCell):
    """Materialize one manifest cell on the default skeleton: (truth, skeleton, measurements)."""
    skeleton = default_skeleton()
    poses = generate_motion(cell.motion, skeleton)
    poses, cell_skel = scale_ground_truth(poses, skeleton, cell.preset)
    meas = extract_measurements(poses, cell_skel, cell.sigma_l, seed=cell.seed)
    return poses, cell_skel, meas


def write_cells(manifest: BenchmarkManifest, out_dir) -> dict:
    """Expand every cell into files under ``out_dir``; returns the manifest lock."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = {"cells": []}
    for cell in manifest.cells:
        cell_dir = out / cell.name()
        cell_dir.mkdir(exist_ok=True)
        poses, cell_skel, meas = expand_cell(cell)
        save_sequence(cell_dir / "truth.pgseq", poses)
        meas.save(cell_dir / "measurements.jsonl")
        cell_skel.save(cell_dir / "skeleton.json")
        lock["cells"].append({"name": cell.name(), **asdict(cell)})
    with open(out / "manifest-lock.json", "w") as fh:
        json.dump(lock, fh, indent=2)
    return lock
