"""Continuous 6DoF rotation representation.

A rotation matrix R is encoded by its first two columns, stacked as
``[R11, R21, R31, R12, R22, R32]``.  The inverse map runs Gram-Schmidt on
the two 3-vectors and completes the frame with a cross product, so any
6-vector whose halves are not (near) parallel decodes to a proper rotation.

Throughout this module a "vec9" is the column-stacked 9-vector
``[c1; c2; c1 x c2]`` of a rotation matrix, i.e. the 6DoF entries followed
by the third column.  All functions broadcast over leading axes.  Inside,
the decode and its pullback work on component planes (one contiguous array
per coordinate) with dot and cross products in numpy's own order, so they are
bit-identical to ``(..., 3)`` code.  Their outputs are C-contiguous: the FK
and root-recovery matmuls downstream round differently on strided input.
"""

from __future__ import annotations

import numpy as np

# Below this norm the Gram-Schmidt columns are considered degenerate.
DEGENERACY_EPS = 1e-8


class DegenerateRotationError(ValueError):
    """A 6DoF vector that cannot be decoded: at flat joint ``index``, for ``reason``."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"degenerate 6DoF at joint {index}: {reason}")
        self.index, self.reason = index, reason


def to_sixdof(R: np.ndarray) -> np.ndarray:
    """Stack the first two columns of rotation matrices ``(..., 3, 3)`` into ``(..., 6)``."""
    R = np.asarray(R, dtype=float)
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def _dot(u, v):
    # numpy sums a length-3 axis left to right onto 0.0, which turns a -0.0 total into +0.0
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + 0.0


def _cross(u, v):
    return np.stack([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]])


def _gram_schmidt(r: np.ndarray):
    """Gram-Schmidt on the halves a, b of 6DoF vectors ``(..., 6)``.

    Normalize a, remove its component from b and normalize.  Returns c1, c2
    and b as planes ``(3, ...)`` with |a|, |c2r| and c1 . b, which the pullback
    reuses.  A degenerate entry is reported with its flat joint index.
    """
    if r.shape[-1] != 6:
        raise ValueError(f"expected trailing dimension 6, got {r.shape}")
    p = np.moveaxis(r, -1, 0).copy()  # component planes (6, ...)
    a, b = p[0:3], p[3:6]
    na = np.sqrt(_dot(a, a))
    _refuse_degenerate(na, "zero first column")
    c1 = np.divide(a, na, out=a)
    proj = _dot(c1, b)
    c2 = b - proj * c1
    nc2 = np.sqrt(_dot(c2, c2))
    _refuse_degenerate(nc2, "columns (near) parallel")
    return c1, np.divide(c2, nc2, out=c2), na, nc2, proj, b


def _refuse_degenerate(norms: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(norms < DEGENERACY_EPS)
    if bad.size:
        raise DegenerateRotationError(int(bad[0]), what)


def batch_from_sixdof(rs: np.ndarray) -> np.ndarray:
    """Decode 6DoF vectors ``(..., 6)`` into rotation matrices ``(..., 3, 3)``.

    Gram-Schmidt on the two halves, then a cross product for the third
    column.  Invariant to positive rescaling of the first half and to
    adding multiples of the first half to the second.
    """
    p9 = decode(rs)[0]
    return np.stack([p9[..., i::3] for i in range(3)], axis=-2)  # row i: entry i of each column


def vec9(R: np.ndarray) -> np.ndarray:
    """Column-stack rotation matrices ``(..., 3, 3)`` into ``(..., 9)``."""
    R = np.asarray(R, dtype=float)
    return np.concatenate([R[..., :, 0], R[..., :, 1], R[..., :, 2]], axis=-1)


def decode(r: np.ndarray):
    """Decode 6DoF vectors ``(..., 6)`` into vec9 ``(..., 9)``, returned with its pullback.

    ``pullback(cot9)`` maps a vec9 cotangent ``(..., 9)`` to ``(..., 6)``: the
    Gram-Schmidt chain run backwards on the columns, norms and projection.
    Every operation is elementwise over the leading axes, so decoding a subset
    of entries gives the full decode's values for them bit for bit.
    """
    c1, c2, na, nc2, proj, b = _gram_schmidt(np.asarray(r, dtype=float))
    p9 = np.stack([*c1, *c2, *_cross(c1, c2)], axis=-1)

    def pullback(cot9):
        cot9 = np.asarray(cot9, dtype=float)
        if cot9.shape != p9.shape:  # planes would broadcast the wrong axes
            raise ValueError(f"cotangent shape {cot9.shape} differs from the vec9 shape {p9.shape}")
        g = np.moveaxis(cot9, -1, 0).copy()
        g1, g2, g3 = g[0:3], g[3:6], g[6:9]
        g1 += _cross(c2, g3)  # c3 = c1 x c2
        g2 += _cross(g3, c1)
        g2 -= c2 * _dot(c2, g2)  # c2 = c2r / |c2r|
        g2 /= nc2
        s = _dot(c1, g2)  # c2r = b - (c1 . b) c1
        g1 -= s * b
        g1 -= proj * g2
        g1 -= c1 * _dot(c1, g1)  # c1 = a / |a|
        g1 /= na
        g2 -= s * c1
        return np.stack([*g1, *g2], axis=-1)

    return p9, pullback


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
