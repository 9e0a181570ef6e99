"""Closed-form moments of a 6DoF Gaussian pushed through the rotation decode.

Given r ~ N(r_hat, w^2 I_6) with r_hat on the constraint manifold (unit,
orthogonal halves), the decoded rotation's first two columns stay Gaussian
with covariance w^2 I, while the third column is the cross product of the
halves.  All first and second moments of the resulting 9-vector
[r1..r6, x1, x2, x3] (x = r[0:3] x r[3:6]) have exact closed forms in
r_hat and w; this module assembles them, provides the Monte-Carlo oracle
for the same moments, and the leading-principal-minor check for positive
definiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# r_hat further off the constraint manifold than this is an error; below
# it the input is projected back onto the manifold before use.
HYPOTHESIS_HARD_TOL = 1e-2


class HypothesisError(ValueError):
    """6DoF input too far from the unit/orthogonal constraint manifold."""


@dataclass
class PushforwardGaussian:
    """Gaussian approximation of the decoded rotation: mean vec9 and covariance w^2 Sigma."""

    mean: np.ndarray        # (9,)
    covariance: np.ndarray  # (9, 9) = w^2 * sigma
    sigma: np.ndarray       # (9, 9), the w^2-normalized matrix whose minors are checked
    w: float


def project_to_manifold(r_hat: np.ndarray, hard_tol: float = HYPOTHESIS_HARD_TOL) -> np.ndarray:
    """Renormalize/re-orthogonalize a near-manifold 6DoF vector.

    Raises :class:`HypothesisError` when the deviation exceeds ``hard_tol``.
    """
    r = np.asarray(r_hat, dtype=float)
    a, b = r[0:3], r[3:6]
    dev = max(abs(np.linalg.norm(a) - 1.0), abs(np.linalg.norm(b) - 1.0),
              abs(float(np.dot(a, b))))
    if dev > hard_tol:
        raise HypothesisError(f"r_hat deviates from the constraint manifold by {dev:.3g}")
    a = a / np.linalg.norm(a)
    b = b - np.dot(a, b) * a
    b = b / np.linalg.norm(b)
    return np.concatenate([a, b])


def sigma_matrix(r_hat: np.ndarray, w: float) -> np.ndarray:
    """Sigma with Cov = w^2 Sigma at manifold points r_hat: ``(..., 6) -> (..., 9, 9)``.

    Leading 6x6 block is the identity (the first two columns pass through
    linearly); the cross-product block carries the 2w^2-augmented variances
    and the +-r_hat cross-covariances.
    """
    r = np.asarray(r_hat, dtype=float)
    r1, r2, r3, r4, r5, r6 = np.moveaxis(r, -1, 0)
    S = np.zeros(r.shape[:-1] + (9, 9))
    S[..., :6, :6] = np.eye(6)
    # variances of x1 = r2 r6 - r3 r5, x2 = r3 r4 - r1 r6, x3 = r1 r5 - r2 r4
    S[..., 6, 6] = 2 * w**2 + r2**2 + r6**2 + r5**2 + r3**2
    S[..., 7, 7] = 2 * w**2 + r3**2 + r4**2 + r1**2 + r6**2
    S[..., 8, 8] = 2 * w**2 + r1**2 + r5**2 + r4**2 + r2**2
    # cross-covariances with the linear entries
    cross = {
        (6, 1): r6, (6, 2): -r5, (6, 4): -r3, (6, 5): r2,
        (7, 0): -r6, (7, 2): r4, (7, 3): r3, (7, 5): -r1,
        (8, 0): r5, (8, 1): -r4, (8, 3): -r2, (8, 4): r1,
    }
    for (i, j), v in cross.items():
        S[..., i, j] = S[..., j, i] = v
    # third-column cross-covariances
    S[..., 6, 7] = S[..., 7, 6] = -(r1 * r2 + r4 * r5)
    S[..., 7, 8] = S[..., 8, 7] = -(r2 * r3 + r5 * r6)
    S[..., 8, 6] = S[..., 6, 8] = -(r1 * r3 + r4 * r6)
    return S


def covariance_sixdof_pushforward(r_hat: np.ndarray, w: float) -> PushforwardGaussian:
    """Closed-form mean and covariance of the decoded rotation's vec9.

    ``r_hat`` must satisfy the constraint hypothesis within a loose
    tolerance; it is projected onto the manifold before evaluation.
    """
    r = project_to_manifold(r_hat)
    mean = np.concatenate([r, np.cross(r[0:3], r[3:6])])
    S = sigma_matrix(r, w)
    return PushforwardGaussian(mean=mean, covariance=w**2 * S, sigma=S, w=float(w))


def monte_carlo_pushforward(r_hat: np.ndarray, w: float, n: int, seed: int = 0):
    """Empirical mean/covariance of the vec9 under r ~ N(r_hat, w^2 I).

    Independent oracle for :func:`covariance_sixdof_pushforward`: the first
    six entries are copied linearly, the last three are the raw cross
    product of the sampled halves.  Returns ``(mean, cov, se_mean, se_cov)``
    where the standard errors are empirical (fourth-moment based for cov).
    """
    if n < 1000:
        raise ValueError("need at least 1e3 samples")
    rng = np.random.default_rng(seed)
    r = np.asarray(r_hat, dtype=float)
    samples = r + w * rng.standard_normal((n, 6))
    x = np.cross(samples[:, 0:3], samples[:, 3:6])
    nine = np.concatenate([samples, x], axis=1)
    mean = nine.mean(axis=0)
    centered = nine - mean
    cov = centered.T @ centered / (n - 1)
    se_mean = centered.std(axis=0, ddof=1) / np.sqrt(n)
    # SE of each covariance entry from the fourth moments:
    # Var[(c_i c_j)] = E[c_i^2 c_j^2] - E[c_i c_j]^2
    sq = centered**2
    m2 = centered.T @ centered / n
    m22 = sq.T @ sq / n
    se_cov = np.sqrt(np.maximum(m22 - m2**2, 0.0) / n)
    return mean, cov, se_mean, se_cov


def sylvester_minors(Sigma: np.ndarray) -> np.ndarray:
    """Determinants of the leading principal n x n blocks, n = 1..N."""
    S = np.asarray(Sigma, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    return np.array([np.linalg.det(S[: k + 1, : k + 1]) for k in range(S.shape[0])])


def random_manifold_points(count: int, seed: int = 0) -> np.ndarray:
    """Uniformly random hypothesis-satisfying 6DoF vectors, shape (count, 6)."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, 6))
    for i in range(count):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(3)
        b -= np.dot(a, b) * a
        b /= np.linalg.norm(b)
        out[i] = np.concatenate([a, b])
    return out


def verify_pushforward(
    points: int = 20,
    widths=(0.05, 0.3, 1.0),
    n_samples: int = 200_000,
    seed: int = 7,
    z_max: float = 3.0,
    minor_rtol: float = 1e-9,
) -> dict:
    """Closed-form-vs-Monte-Carlo and Sylvester-minor verification report.

    The same sample seed is reused at every test point (common random
    numbers), so the per-entry z-scores are comparable across points.
    Returns a dict with per-point worst deviations and an overall flag.
    """
    r_hats = random_manifold_points(points, seed=seed)
    report = {"points": [], "passed": True, "n_samples": n_samples, "z_max": z_max}
    for idx, r_hat in enumerate(r_hats):
        for w in widths:
            pf = covariance_sixdof_pushforward(r_hat, w)
            mean, cov, se_mean, se_cov = monte_carlo_pushforward(
                r_hat, w, n_samples, seed=seed + 1
            )
            z_mean = np.abs(mean - pf.mean) / np.maximum(se_mean, 1e-300)
            z_cov = np.abs(cov - pf.covariance) / np.maximum(se_cov, 1e-300)
            minors = sylvester_minors(pf.sigma)
            expected = np.concatenate([np.ones(6), [2 * w**2, (2 * w**2) ** 2, (2 * w**2) ** 3]])
            minor_err = float(np.max(np.abs(minors - expected) / np.abs(expected)))
            entry = {
                "point": idx,
                "w": w,
                "max_z_mean": float(z_mean.max()),
                "max_z_cov": float(z_cov.max()),
                "minors": minors.tolist(),
                "minor_rel_err": minor_err,
                "minors_positive": bool(np.all(minors > 0)),
            }
            ok = (
                entry["max_z_mean"] <= z_max
                and entry["max_z_cov"] <= z_max
                and minor_err <= minor_rtol
                and entry["minors_positive"]
            )
            entry["passed"] = ok
            report["passed"] = report["passed"] and ok
            report["points"].append(entry)
    return report
