"""Closed-form covariance of a decoded 6DoF rotation under Gaussian noise.

When a noisy 6DoF estimate r_hat + w*eps is decoded and re-encoded as the
9-vector vec(R), the pushforward distribution has mean decode(r_hat) and
covariance w^2 Sigma, with Sigma in closed form (and a strikingly simple
ladder of leading principal minors: six ones, then 2w^2, (2w^2)^2,
(2w^2)^3).  The sampler uses this matrix to whiten the location residual.
Here we print Sigma at one point and check it against a Monte-Carlo
estimate.
"""

import numpy as np

from poseguide.uncertainty import (
    monte_carlo_pushforward, random_manifold_points, sigma_matrix, sylvester_minors,
    verify_pushforward,
)

w = 0.3
r_hat = random_manifold_points(1, seed=4)[0]
sigma = sigma_matrix(r_hat, w)

print("test point r_hat:", np.round(r_hat, 3))
print("\nSigma (unit-width pushforward covariance), rounded:")
print(np.round(sigma, 3))

minors = sylvester_minors(sigma)
print("\nleading principal minors:", np.round(minors, 9))
print("expected ladder:         ", np.round(
    np.concatenate([np.ones(6), [2 * w**2, (2 * w**2) ** 2, (2 * w**2) ** 3]]), 9))

mean, cov, se_mean, se_cov = monte_carlo_pushforward(r_hat, w, n=200_000, seed=8)
z = np.abs(cov - w**2 * sigma) / np.maximum(se_cov, 1e-300)
print(f"\nMonte Carlo (N=2e5): worst covariance z-score = {z.max():.2f}")

print("\nfull verification sweep (20 points x 3 widths):")
rep = verify_pushforward(points=20, widths=(0.05, 0.3, 1.0), seed=7)
worst = max(max(e["max_z_mean"], e["max_z_cov"]) for e in rep["points"])
print(f"  passed = {rep['passed']}, worst |z| = {worst:.2f}, "
      f"worst minor rel err = {max(e['minor_rel_err'] for e in rep['points']):.2e}")
