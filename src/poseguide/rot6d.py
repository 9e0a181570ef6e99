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
    second column and ``c1 . b``, which the Jacobian reuses.  A degenerate
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


def unvec9(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec9`."""
    v = np.asarray(v, dtype=float)
    return np.stack([v[..., 0:3], v[..., 3:6], v[..., 6:9]], axis=-1)


def _skew(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def jacobian_from_sixdof(r: np.ndarray) -> np.ndarray:
    """Jacobian ``(..., 9, 6)`` of vec9(batch_from_sixdof(r)) with respect to r.

    Closed form from differentiating the Gram-Schmidt chain; the cross
    product row block follows from d(c1 x c2) = c1 x dc2 - c2 x dc1.
    """
    r = np.asarray(r, dtype=float)
    b = r[..., 3:6]
    c1, c2, na, nc2, proj = _gram_schmidt(r)

    eye = np.broadcast_to(np.eye(3), c1.shape + (3,))
    # d c1 / d a
    dc1_da = (eye - c1[..., :, None] * c1[..., None, :]) / na[..., None, None]
    # c2raw = b - c1 (c1.b):  d/db = I - c1 c1^T, d/da via dc1
    dc2r_db = eye - c1[..., :, None] * c1[..., None, :]
    outer = c1[..., :, None] * b[..., None, :] + proj[..., None, None] * eye
    dc2r_da = -(outer @ dc1_da)
    dnorm = (eye - c2[..., :, None] * c2[..., None, :]) / nc2[..., None, None]
    dc2_da = dnorm @ dc2r_da
    dc2_db = dnorm @ dc2r_db

    s1 = _skew(c1)
    dc3_da = s1 @ dc2_da - _skew(c2) @ dc1_da
    dc3_db = s1 @ dc2_db

    zeros = np.zeros_like(dc1_da)
    top = np.concatenate([dc1_da, zeros], axis=-1)
    mid = np.concatenate([dc2_da, dc2_db], axis=-1)
    bot = np.concatenate([dc3_da, dc3_db], axis=-1)
    return np.concatenate([top, mid, bot], axis=-2)


def vjp_from_sixdof(r: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
    """Pull a vec9 cotangent ``(..., 9)`` back through the decode map: returns ``(..., 6)``."""
    J = jacobian_from_sixdof(r)
    cot = np.asarray(cotangent, dtype=float)
    return np.einsum("...k,...km->...m", cot, J)


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
