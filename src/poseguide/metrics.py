"""Position/rotation error metrics and benchmark reports.

All position metrics are reported in centimeters (internal math is in
meters), rotation errors in degrees.  Predictions are evaluated through
forward kinematics with their own recovered root translation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import rot6d
from .skeleton import PoseSequence, Skeleton

M_TO_CM = 100.0

# Joint partition for UPE/LPE: pelvis, hips, knees, ankles, feet are the
# lower body (9 joints); everything else is upper (13).
LOWER_JOINTS = (0, 1, 2, 4, 5, 7, 8, 10, 11)
UPPER_JOINTS = tuple(j for j in range(22) if j not in LOWER_JOINTS)


def _paired_locations(pred: PoseSequence, pred_skel: Skeleton,
                      truth: PoseSequence, truth_skel: Skeleton):
    if pred.frames != truth.frames:
        raise ValueError(f"frame mismatch: {pred.frames} vs {truth.frames}")
    return pred.joint_locations(pred_skel), truth.joint_locations(truth_skel)


def mpjpe_from_locations(pred_locs: np.ndarray, true_locs: np.ndarray, joints=None) -> float:
    err = np.linalg.norm(pred_locs - true_locs, axis=-1)
    if joints is not None:
        err = err[..., list(joints)]
    return float(err.mean() * M_TO_CM)


def mpjpe(pred: PoseSequence, pred_skel: Skeleton, truth: PoseSequence,
          truth_skel: Skeleton) -> float:
    """Mean joint location error over all frames and joints, in cm."""
    p, q = _paired_locations(pred, pred_skel, truth, truth_skel)
    return mpjpe_from_locations(p, q)


def mpjre(pred: PoseSequence, truth: PoseSequence) -> float:
    """Mean geodesic angle between global joint rotations, in degrees."""
    if pred.frames != truth.frames:
        raise ValueError(f"frame mismatch: {pred.frames} vs {truth.frames}")
    return float(
        rot6d.geodesic_angle(pred.rotation_matrices(), truth.rotation_matrices()).mean()
    )


def upe_lpe(pred: PoseSequence, pred_skel: Skeleton, truth: PoseSequence,
            truth_skel: Skeleton) -> tuple[float, float]:
    """Position error restricted to the upper / lower joint sets, in cm."""
    p, q = _paired_locations(pred, pred_skel, truth, truth_skel)
    return (
        mpjpe_from_locations(p, q, UPPER_JOINTS),
        mpjpe_from_locations(p, q, LOWER_JOINTS),
    )


def scaled_mpjpe(pred: PoseSequence, pred_skel: Skeleton, truth: PoseSequence,
                 truth_skel: Skeleton, scale: float) -> float:
    """MPJPE divided by the body scaling factor (body-size sweeps)."""
    if not 0.0 < scale < np.inf:  # also refuses NaN
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return mpjpe(pred, pred_skel, truth, truth_skel) / scale


def jitter(pred: PoseSequence, skeleton: Skeleton) -> float:
    """Mean per-joint frame-to-frame location delta, cm/frame."""
    if pred.frames < 2:
        raise ValueError("jitter requires at least two frames")
    locs = pred.joint_locations(skeleton)
    delta = np.linalg.norm(np.diff(locs, axis=0), axis=-1)
    return float(delta.mean() * M_TO_CM)


@dataclass
class EvalReport:
    """Per-cell metrics plus aggregates; serializable as JSON and CSV."""

    cells: list
    partition: dict

    def aggregate(self) -> dict:
        keys = ("mpjpe", "mpjre", "upe", "lpe", "scaled_mpjpe", "jitter")
        agg = {}
        for k in keys:
            vals = [c[k] for c in self.cells if c.get(k) is not None]
            agg[k] = float(np.mean(vals)) if vals else None
        return agg

    def to_json(self) -> str:
        return json.dumps(
            {"partition": self.partition, "cells": self.cells, "aggregate": self.aggregate()},
            indent=2,
        )

    def write(self, json_path, csv_path=None) -> None:
        with open(json_path, "w") as fh:
            fh.write(self.to_json())
        if csv_path is not None and self.cells:
            with open(csv_path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(self.cells[0].keys()))
                writer.writeheader()
                writer.writerows(self.cells)


def evaluate_cell(pred: PoseSequence, pred_skel: Skeleton, truth: PoseSequence,
                  truth_skel: Skeleton, scale: float = 1.0, name: str = "") -> dict:
    upe, lpe = upe_lpe(pred, pred_skel, truth, truth_skel)
    return {
        "name": name,
        "scale": scale,
        "mpjpe": mpjpe(pred, pred_skel, truth, truth_skel),
        "mpjre": mpjre(pred, truth),
        "upe": upe,
        "lpe": lpe,
        "scaled_mpjpe": scaled_mpjpe(pred, pred_skel, truth, truth_skel, scale),
        "jitter": jitter(pred, pred_skel) if pred.frames >= 2 else None,
    }


def make_report(cells: list) -> EvalReport:
    return EvalReport(cells=cells, partition={"upper": list(UPPER_JOINTS),
                                              "lower": list(LOWER_JOINTS)})
