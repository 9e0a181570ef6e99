"""Closed-form pushforward covariance vs brute-force Monte Carlo."""

import numpy as np
import pytest

from poseguide import rot6d
from poseguide.uncertainty import (
    HypothesisError, covariance_sixdof_pushforward, monte_carlo_pushforward,
    project_to_manifold, random_manifold_points, sigma_matrix,
    sylvester_minors, verify_pushforward,
)


def test_mean_is_full_rotation_vec9():
    pts = random_manifold_points(20, seed=0)
    for r in pts:
        g = covariance_sixdof_pushforward(r, 0.1)
        R = rot6d.batch_from_sixdof(r)
        assert np.allclose(g.mean, rot6d.vec9(R), atol=1e-12)


def test_sigma_at_identity_frame():
    # r_hat = first two columns of the identity rotation
    r = np.array([1.0, 0, 0, 0, 1.0, 0])
    w = 0.3
    S = sigma_matrix(r, w)
    assert np.allclose(S[:6, :6], np.eye(6), atol=1e-15)
    # x1 = r2 r6 - r3 r5 involves means (0, 0, 0, 1) -> 2w^2 + 1
    # x2 = r3 r4 - r1 r6 involves (0, 0, 1, 0) -> 2w^2 + 1
    # x3 = r1 r5 - r2 r4 involves (1, 1, 0, 0) -> 2w^2 + 2
    assert S[6, 6] == pytest.approx(2 * w**2 + 1.0, abs=1e-15)
    assert S[7, 7] == pytest.approx(2 * w**2 + 1.0, abs=1e-15)
    assert S[8, 8] == pytest.approx(2 * w**2 + 2.0, abs=1e-15)
    # Cov[x3, r1] = r5 = 1 (in units of w^2)
    assert S[8, 0] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(S, S.T, atol=1e-15)


def test_sigma_matrix_broadcasts_bit_for_bit():
    r = random_manifold_points(3 * 4, seed=2).reshape(3, 4, 6)
    S = sigma_matrix(r, 0.4)
    assert S.shape == (3, 4, 9, 9)
    for f in range(3):
        for j in range(4):
            assert np.array_equal(S[f, j], sigma_matrix(r[f, j], 0.4))
    assert np.array_equal(S, np.swapaxes(S, -1, -2))


def test_covariance_scales_as_w_squared_linear_block():
    r = random_manifold_points(1, seed=1)[0]
    g = covariance_sixdof_pushforward(r, 0.25)
    assert np.allclose(g.covariance[:6, :6], 0.25**2 * np.eye(6), atol=1e-15)
    assert np.allclose(g.covariance, 0.25**2 * g.sigma, atol=1e-15)


def test_zero_width_limit_is_exact_cross_product_cov():
    # at w = 0 the cross-product block variance reduces to the squared means
    r = random_manifold_points(1, seed=2)[0]
    S = sigma_matrix(r, 0.0)
    r1, r2, r3, r4, r5, r6 = r
    assert S[6, 6] == pytest.approx(r2**2 + r6**2 + r5**2 + r3**2, abs=1e-14)
    g = covariance_sixdof_pushforward(r, 0.0)
    assert np.allclose(g.covariance, 0.0, atol=1e-15)


def test_monte_carlo_agrees_at_several_points():
    pts = random_manifold_points(5, seed=3)
    for i, r in enumerate(pts):
        for w in (0.05, 0.3, 1.0):
            g = covariance_sixdof_pushforward(r, w)
            mean, cov, se_mean, se_cov = monte_carlo_pushforward(r, w, 100_000, seed=10 + i)
            z_mean = np.abs(mean - g.mean) / np.maximum(se_mean, 1e-300)
            z_cov = np.abs(cov - g.covariance) / np.maximum(se_cov, 1e-300)
            assert z_mean.max() < 4.5
            assert z_cov.max() < 4.5


def test_monte_carlo_rejects_tiny_sample_counts():
    r = random_manifold_points(1, seed=4)[0]
    with pytest.raises(ValueError):
        monte_carlo_pushforward(r, 0.1, 100)


def test_sylvester_minors_closed_form():
    pts = random_manifold_points(10, seed=5)
    for r in pts:
        for w in (0.05, 0.3, 1.0):
            minors = sylvester_minors(sigma_matrix(r, w))
            expected = np.concatenate([
                np.ones(6), [2 * w**2, (2 * w**2) ** 2, (2 * w**2) ** 3]])
            assert np.allclose(minors, expected, rtol=1e-9, atol=1e-12)


def test_sylvester_minors_validates_shape():
    with pytest.raises(ValueError):
        sylvester_minors(np.zeros((3, 4)))


def test_project_to_manifold():
    rng = np.random.default_rng(6)
    r = random_manifold_points(1, seed=7)[0]
    nudged = r + 1e-4 * rng.standard_normal(6)
    p = project_to_manifold(nudged)
    assert abs(np.linalg.norm(p[:3]) - 1.0) < 1e-14
    assert abs(np.linalg.norm(p[3:]) - 1.0) < 1e-14
    assert abs(np.dot(p[:3], p[3:])) < 1e-14
    with pytest.raises(HypothesisError):
        project_to_manifold(2.0 * r)


def test_random_manifold_points_satisfy_hypothesis():
    pts = random_manifold_points(200, seed=8)
    norms_a = np.linalg.norm(pts[:, :3], axis=1)
    norms_b = np.linalg.norm(pts[:, 3:], axis=1)
    dots = np.einsum("ni,ni->n", pts[:, :3], pts[:, 3:])
    assert np.abs(norms_a - 1).max() < 1e-12
    assert np.abs(norms_b - 1).max() < 1e-12
    assert np.abs(dots).max() < 1e-12


def test_verify_pushforward_small_run():
    report = verify_pushforward(points=3, widths=(0.3,), n_samples=20_000, seed=7)
    assert report["passed"]
    assert len(report["points"]) == 3  # 3 points x 1 width
    for entry in report["points"]:
        assert entry["max_z_cov"] < 3.0
        assert entry["minors_positive"]
        assert entry["minor_rel_err"] < 1e-9
