"""Position/rotation error metrics and benchmark reports.

All position metrics are reported in centimeters (internal math is in
meters), rotation errors in degrees.  Predictions are evaluated through
forward kinematics with their own recovered root translation.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from . import rot6d
from .skeleton import JOINT_COUNT, PoseSequence, Skeleton, forward_kinematics

M_TO_CM = 100.0

# Joint partition for UPE/LPE: pelvis, hips, knees, ankles, feet are the
# lower body (9 joints); everything else is upper (13).
LOWER_JOINTS = (0, 1, 2, 4, 5, 7, 8, 10, 11)
UPPER_JOINTS = tuple(j for j in range(JOINT_COUNT) if j not in LOWER_JOINTS)


def mpjpe_from_locations(pred_locs: np.ndarray, true_locs: np.ndarray, joints=None) -> float:
    err = np.linalg.norm(pred_locs - true_locs, axis=-1)
    if joints is not None:
        err = err[..., list(joints)]
    return float(err.mean() * M_TO_CM)


def evaluate_cell(pred: PoseSequence, skeleton: Skeleton, truth: PoseSequence,
                  scale: float = 1.0, name: str = "") -> dict:
    """Every metric of one cell, with both sequences posed through ``skeleton``.

    Each sequence is decoded and posed once, with its own root translation.
    ``upe``/``lpe`` are MPJPE over ``UPPER_JOINTS``/``LOWER_JOINTS``;
    ``scaled_mpjpe`` is MPJPE divided by the body ``scale``; ``jitter`` is
    the prediction's mean per-joint frame-to-frame step in cm/frame, None
    below two frames.
    """
    if not 0.0 < scale < np.inf:  # also refuses NaN
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if pred.frames != truth.frames:
        raise ValueError(f"frame mismatch: {pred.frames} vs {truth.frames}")
    R, R_true = pred.rotation_matrices(), truth.rotation_matrices()
    p = forward_kinematics(skeleton, R, pred.root_translation)
    q = forward_kinematics(skeleton, R_true, truth.root_translation)
    err = mpjpe_from_locations(p, q)
    jitter = None
    if pred.frames >= 2:
        jitter = float(np.linalg.norm(np.diff(p, axis=0), axis=-1).mean() * M_TO_CM)
    return {
        "name": name,
        "scale": scale,
        "mpjpe": err,
        "mpjre": float(rot6d.geodesic_angle(R, R_true).mean()),
        "upe": mpjpe_from_locations(p, q, UPPER_JOINTS),
        "lpe": mpjpe_from_locations(p, q, LOWER_JOINTS),
        "scaled_mpjpe": err / scale,
        "jitter": jitter,
    }


def write_report(cell: dict, json_path, csv_path) -> None:
    """Write one cell with the UPE/LPE partition as JSON, and the cell as a CSV row."""
    doc = {"partition": {"upper": list(UPPER_JOINTS), "lower": list(LOWER_JOINTS)},
           "cells": [cell]}
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(cell))
        writer.writeheader()
        writer.writerow(cell)
