"""Walkthrough of the 6DoF rotation representation.

A rotation matrix is stored as its first two columns (6 numbers).  Decoding
runs Gram-Schmidt on those columns and completes the frame with a cross
product, so *any* 6-vector in general position decodes to a valid rotation
-- which is what lets a diffusion model operate on unconstrained vectors.
This script shows the roundtrip, the tolerance to off-manifold inputs, and
the analytic decode pullback that carries the guidance gradient.
"""

import numpy as np

from poseguide import rot6d

rng = np.random.default_rng(0)

# --- encode / decode roundtrip -------------------------------------------
theta = rng.uniform(0, 2 * np.pi)
axis = rng.standard_normal(3)
axis /= np.linalg.norm(axis)
K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
R = np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)

r = rot6d.to_sixdof(R)
back = rot6d.batch_from_sixdof(r)
print("random rotation, 6DoF encoding:", np.round(r, 3))
print("roundtrip max error:", np.abs(back - R).max())

# --- off-manifold robustness ---------------------------------------------
noisy = r + 0.3 * rng.standard_normal(6)
R_noisy = rot6d.batch_from_sixdof(noisy)
print("\ndecoded from a perturbed 6-vector:")
print("  orthonormality error:", np.abs(R_noisy @ R_noisy.T - np.eye(3)).max())
print("  determinant:", np.linalg.det(R_noisy))
print("  geodesic angle to the original (deg):",
      float(rot6d.geodesic_angle(R, R_noisy)))

# --- analytic pullback vs finite differences ------------------------------
p9, pullback = rot6d.decode(noisy)
print("\ndecode returns vec9 [c1, c2, c1 x c2]:",
      np.abs(p9 - rot6d.vec9(R_noisy)).max())
cot = rng.standard_normal(9)
step = 1e-6
fd = np.empty(6)
for i in range(6):
    hi, lo = noisy.copy(), noisy.copy()
    hi[i] += step
    lo[i] -= step
    fd[i] = cot @ (rot6d.decode(hi)[0] - rot6d.decode(lo)[0]) / (2 * step)
print("analytic pullback of a random cotangent vs finite differences:",
      np.abs(pullback(cot) - fd).max())
