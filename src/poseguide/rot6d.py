"""Continuous 6DoF rotation representation.

A rotation matrix R is encoded by its first two columns, stacked as
``[R11, R21, R31, R12, R22, R32]``.  The inverse map runs Gram-Schmidt on
the two 3-vectors and completes the frame with a cross product, so any
6-vector whose halves are not (near) parallel decodes to a proper rotation.

Throughout this module a "vec9" is the column-stacked 9-vector
``[c1; c2; c1 x c2]`` of a rotation matrix, i.e. the 6DoF entries followed
by the third column.  All functions broadcast over leading axes.
"""

from __future__ import annotations

import numpy as np

# Below this norm the Gram-Schmidt columns are considered degenerate.
DEGENERACY_EPS = 1e-8


class DegenerateRotationError(ValueError):
    """Raised when a 6DoF vector cannot be decoded into a rotation."""


def to_sixdof(R: np.ndarray) -> np.ndarray:
    """Stack the first two columns of rotation matrices ``(..., 3, 3)`` into ``(..., 6)``."""
    R = np.asarray(R, dtype=float)
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def _gram_schmidt(r: np.ndarray):
    """Gram-Schmidt on the halves a, b of 6DoF vectors ``(..., 6)``.

    Normalize a, remove its component from b and normalize.  Returns the
    unit columns ``c1, c2`` together with ``|a|``, the norm of the raw
    second column and ``c1 . b``, which the pullback reuses.  A degenerate
    entry is reported with its flat joint index.
    """
    if r.shape[-1] != 6:
        raise ValueError(f"expected trailing dimension 6, got {r.shape}")
    a = r[..., 0:3]
    b = r[..., 3:6]
    na = np.linalg.norm(a, axis=-1)
    _refuse_degenerate(na, "zero first column")
    c1 = a / na[..., None]
    proj = np.sum(c1 * b, axis=-1)
    c2r = b - proj[..., None] * c1
    nc2 = np.linalg.norm(c2r, axis=-1)
    _refuse_degenerate(nc2, "columns (near) parallel")
    return c1, c2r / nc2[..., None], na, nc2, proj


def _refuse_degenerate(norms: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(norms < DEGENERACY_EPS)
    if bad.size:
        raise DegenerateRotationError(f"degenerate 6DoF at joint {bad[0]}: {what}")


def batch_from_sixdof(rs: np.ndarray) -> np.ndarray:
    """Decode 6DoF vectors ``(..., 6)`` into rotation matrices ``(..., 3, 3)``.

    Gram-Schmidt on the two halves, then a cross product for the third
    column.  Invariant to positive rescaling of the first half and to
    adding multiples of the first half to the second.
    """
    c1, c2, *_ = _gram_schmidt(np.asarray(rs, dtype=float))
    return np.stack([c1, c2, np.cross(c1, c2)], axis=-1)


def vec9(R: np.ndarray) -> np.ndarray:
    """Column-stack rotation matrices ``(..., 3, 3)`` into ``(..., 9)``."""
    R = np.asarray(R, dtype=float)
    return np.concatenate([R[..., :, 0], R[..., :, 1], R[..., :, 2]], axis=-1)


def decode(r: np.ndarray):
    """Decode 6DoF vectors ``(..., 6)`` into vec9 ``(..., 9)``, returned with its pullback.

    ``pullback(cot9)`` maps a vec9 cotangent ``(..., 9)`` to ``(..., 6)`` by
    running the Gram-Schmidt chain backwards on the columns, norms and
    projection computed here.
    """
    r = np.asarray(r, dtype=float)
    c1, c2, na, nc2, proj = _gram_schmidt(r)

    def pullback(cot9):
        cot9 = np.asarray(cot9, dtype=float)
        g3 = cot9[..., 6:9]
        g1 = cot9[..., 0:3] + np.cross(c2, g3)  # c3 = c1 x c2
        g2 = cot9[..., 3:6] + np.cross(g3, c1)
        gt = (g2 - c2 * np.sum(c2 * g2, -1, keepdims=True)) / nc2[..., None]  # c2 = c2r / |c2r|
        s = np.sum(c1 * gt, -1, keepdims=True)  # c2r = b - (c1 . b) c1
        g1 = g1 - s * r[..., 3:6] - proj[..., None] * gt
        g_a = (g1 - c1 * np.sum(c1 * g1, -1, keepdims=True)) / na[..., None]  # c1 = a / |a|
        return np.concatenate([g_a, gt - s * c1], axis=-1)

    return np.concatenate([c1, c2, np.cross(c1, c2)], axis=-1), pullback


def vjp_from_sixdof(r: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
    """Pull a vec9 cotangent ``(..., 9)`` back through the decode map: returns ``(..., 6)``."""
    return decode(r)[1](cotangent)


def geodesic_angle(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """Geodesic distance between rotations in degrees, in [0, 180]."""
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    tr = np.einsum("...ij,...ij->...", R1, R2)
    cos = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    # ||R1 - R2||_F^2 = 8 sin^2(theta/2); the arcsin form is exact at zero
    # and well conditioned for small angles, where arccos loses precision
    d2 = np.einsum("...ij,...ij->...", R1 - R2, R1 - R2)
    s = np.clip(np.sqrt(np.maximum(d2, 0.0)) / (2.0 * np.sqrt(2.0)), 0.0, 1.0)
    theta = np.where(s < 0.5, 2.0 * np.arcsin(s), np.arccos(cos))
    return np.degrees(theta)
