"""Rotation-representation algebra: roundtrips, the decode pullback, geodesic angle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poseguide import rot6d


def random_rotations(n, seed=0):
    """Uniform-ish random rotation matrices via QR with sign fix."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    q = q * d[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, 2] *= -1.0
    return q


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
    product row block follows from d(c1 x c2) = c1 x dc2 - c2 x dc1.  The
    reference that the decode pullback is checked against.
    """
    r = np.asarray(r, dtype=float)
    b = r[..., 3:6]
    c1, c2, na, nc2, proj, _ = rot6d._gram_schmidt(r)
    c1, c2 = np.moveaxis(c1, 0, -1), np.moveaxis(c2, 0, -1)  # planes (3, ...) -> (..., 3)

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


def test_roundtrip_identity():
    R = random_rotations(10_000, seed=1)
    back = rot6d.batch_from_sixdof(rot6d.to_sixdof(R))
    assert np.abs(back - R).max() < 1e-9


def test_decoded_frames_are_rotations():
    rng = np.random.default_rng(2)
    r = rng.standard_normal((5000, 6))
    R = rot6d.batch_from_sixdof(r)
    eye = np.einsum("nij,nkj->nik", R, R)
    assert np.abs(eye - np.eye(3)).max() < 1e-9
    assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-9


def test_sixdof_layout_is_first_two_columns():
    R = random_rotations(1, seed=3)[0]
    r = rot6d.to_sixdof(R)
    assert np.allclose(r[:3], R[:, 0])
    assert np.allclose(r[3:], R[:, 1])


def test_vec9_column_stacking_and_inverse():
    R = random_rotations(7, seed=4)
    v = rot6d.vec9(R)
    assert v.shape == (7, 9)
    assert np.allclose(v[:, 0:3], R[:, :, 0])
    assert np.allclose(v[:, 3:6], R[:, :, 1])
    assert np.allclose(v[:, 6:9], R[:, :, 2])


def test_pullback_matches_finite_differences():
    rng = np.random.default_rng(5)
    step = 1e-6
    for trial in range(50):
        r = rng.standard_normal(6) * rng.uniform(0.5, 2.0)
        # row k of the Jacobian is the pullback of the k-th unit cotangent
        J = np.stack([rot6d.decode(r)[1](e) for e in np.eye(9)])
        assert J.shape == (9, 6)
        fd = np.zeros((9, 6))
        for k in range(6):
            hi, lo = r.copy(), r.copy()
            hi[k] += step
            lo[k] -= step
            fd[:, k] = (rot6d.vec9(rot6d.batch_from_sixdof(hi))
                        - rot6d.vec9(rot6d.batch_from_sixdof(lo))) / (2 * step)
        assert np.abs(J - fd).max() < 1e-5


def test_vjp_matches_jacobian_transpose():
    rng = np.random.default_rng(6)
    r = rng.standard_normal((4, 3, 6))
    cot = rng.standard_normal((4, 3, 9))
    got = rot6d.decode(r)[1](cot)
    for i in range(4):
        for j in range(3):
            J = jacobian_from_sixdof(r[i, j])
            assert np.allclose(got[i, j], J.T @ cot[i, j], atol=1e-12)


def vector_decode(r):
    """Reference decode on ``(..., 3)`` slices: ``np.linalg.norm``, ``np.sum(..., -1)``, ``np.cross``.

    Returns vec9, its pullback and the rotation matrices, which the
    component-plane code in the module must reproduce bit for bit.
    """
    a, b = r[..., 0:3], r[..., 3:6]
    na = np.linalg.norm(a, axis=-1)
    c1 = a / na[..., None]
    proj = np.sum(c1 * b, axis=-1)
    c2r = b - proj[..., None] * c1
    nc2 = np.linalg.norm(c2r, axis=-1)
    c2 = c2r / nc2[..., None]

    def pullback(cot9):
        g3 = cot9[..., 6:9]
        g1 = cot9[..., 0:3] + np.cross(c2, g3)
        g2 = cot9[..., 3:6] + np.cross(g3, c1)
        gt = (g2 - c2 * np.sum(c2 * g2, -1, keepdims=True)) / nc2[..., None]
        s = np.sum(c1 * gt, -1, keepdims=True)
        g1 = g1 - s * r[..., 3:6] - proj[..., None] * gt
        g_a = (g1 - c1 * np.sum(c1 * g1, -1, keepdims=True)) / na[..., None]
        return np.concatenate([g_a, gt - s * c1], axis=-1)

    c3 = np.cross(c1, c2)
    return np.concatenate([c1, c2, c3], axis=-1), pullback, np.stack([c1, c2, c3], axis=-1)


def _signed_zero_rows(n, seed):
    # entries from a small set with both zeros, so that whole products are -0.0;
    # rows with a (near) degenerate decode are dropped
    rng = np.random.default_rng(seed)
    r = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0], (n, 6))
    keep = (np.abs(r[:, :3]).max(-1) > 0) & (np.abs(np.cross(r[:, :3], r[:, 3:])).max(-1) > 0.1)
    return r[keep]


@pytest.mark.parametrize("case", ["frames-joints", "windows-frames-joints", "single", "strided",
                                  "signed-zeros"])
def test_component_planes_match_the_vector_decode_bit_for_bit(case):
    rng = np.random.default_rng(11)
    r = {
        "frames-joints": lambda: rng.standard_normal((287, 22, 6)),
        "windows-frames-joints": lambda: rng.standard_normal((7, 41, 22, 6)) * 3.0,
        "single": lambda: rng.standard_normal(6),
        "strided": lambda: rng.standard_normal((40, 22, 12))[::2, :, 1::2],
        "signed-zeros": lambda: _signed_zero_rows(4000, seed=12),
    }[case]()
    cot = rng.standard_normal(r.shape[:-1] + (9,))
    if case == "signed-zeros":
        cot = rng.choice([0.0, -0.0, 1.0, -1.5], cot.shape)
    want_p9, want_pullback, want_R = vector_decode(r)
    p9, pullback = rot6d.decode(r)
    got = {"vec9": p9, "pullback": pullback(cot), "batch": rot6d.batch_from_sixdof(r)}
    want = {"vec9": want_p9, "pullback": want_pullback(cot), "batch": want_R}
    for name in got:
        assert np.array_equal(got[name], want[name]), name
        assert got[name].tobytes() == want[name].tobytes(), f"{name}: signs of zeros differ"
        assert got[name].shape == want[name].shape and got[name].flags.c_contiguous, name


def _away_from_degeneracy(r):
    # |a| and |c2r| = |a x b| / |a| both at least 0.5, far above DEGENERACY_EPS
    na = np.linalg.norm(r[:3])
    return na > 0.5 and np.linalg.norm(np.cross(r[:3], r[3:])) > 0.5 * na


sixdof = st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6).map(np.array)
property_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@property_settings
@given(r=sixdof, lam=st.floats(0.1, 10.0), mu=st.floats(-3.0, 3.0))
def test_decode_is_invariant_to_scaling_a_and_shearing_b_along_a(r, lam, mu):
    assume(_away_from_degeneracy(r))
    moved = np.concatenate([lam * r[:3], r[3:] + mu * r[:3]])
    assert np.abs(rot6d.decode(moved)[0] - rot6d.decode(r)[0]).max() < 1e-12


@property_settings
@given(r=sixdof, cot=st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=9).map(np.array))
def test_pullback_has_no_component_along_the_invariant_directions(r, cot):
    assume(_away_from_degeneracy(r))
    g = rot6d.decode(r)[1](cot)
    a = r[:3]
    assert abs(g[:3] @ a) < 1e-12  # along [a, 0]: scaling a
    assert abs(g[3:] @ a) < 1e-12  # along [0, a]: adding multiples of a to b


def test_decode_is_vec9_of_batch_decode():
    rng = np.random.default_rng(9)
    r = rng.standard_normal((5, 4, 6))
    p9, _ = rot6d.decode(r)
    assert np.array_equal(p9, rot6d.vec9(rot6d.batch_from_sixdof(r)))


def test_decode_of_chosen_joints_is_the_full_decode_sliced():
    # the decode is elementwise over joints, so a joint subset decodes to the full
    # decode's values, and pulls back to its gradient, bit for bit
    rng = np.random.default_rng(11)
    r = rng.standard_normal((5, 7, 6))
    cot = rng.standard_normal((5, 7, 9))
    joints = np.array([1, 2, 5])
    p9, pullback = rot6d.decode(r)
    sub9, sub_pullback = rot6d.decode(r[:, joints])
    assert np.array_equal(sub9, p9[:, joints])
    assert np.array_equal(sub_pullback(cot[:, joints]), pullback(cot)[:, joints])


def test_pullback_is_orthogonal_to_the_decode_invariances():
    # the decode ignores scaling a and adding multiples of a to b, so the
    # gradient has no component along [a, 0] or [0, a]
    rng = np.random.default_rng(10)
    r = rng.standard_normal((200, 6)) * rng.uniform(0.5, 2.0, (200, 1))
    g = rot6d.decode(r)[1](rng.standard_normal((200, 9)))
    a = r[:, :3]
    assert np.abs(np.sum(g[:, :3] * a, axis=-1)).max() < 1e-12
    assert np.abs(np.sum(g[:, 3:] * a, axis=-1)).max() < 1e-12


def test_degenerate_inputs_raise():
    with pytest.raises(rot6d.DegenerateRotationError):
        rot6d.batch_from_sixdof(np.zeros(6))
    # parallel columns
    with pytest.raises(rot6d.DegenerateRotationError):
        rot6d.batch_from_sixdof(np.array([1.0, 0, 0, 2.0, 0, 0]))
    # both decodes name the flat joint index of a batch entry
    r = np.tile([1.0, 0, 0, 0, 1.0, 0], (2, 3, 1))
    r[1, 2, :3] = 0.0
    for fn in (rot6d.batch_from_sixdof, rot6d.decode):
        with pytest.raises(rot6d.DegenerateRotationError, match="joint 5"):
            fn(r)


def test_pullback_refuses_a_cotangent_of_another_shape():
    # component planes of a (6,) decode against a (3, 9) cotangent would pair
    # the three coordinates with the three cotangents instead of raising
    _, pullback = rot6d.decode(np.array([1.0, 0.2, 0.0, 0.1, 1.0, 0.3]))
    for cot in (np.ones((3, 9)), np.ones(6)):
        with pytest.raises(ValueError, match=r"cotangent shape .* differs from the vec9 shape \(9,\)"):
            pullback(cot)


def test_decode_invariant_to_column_scaling():
    rng = np.random.default_rng(7)
    r = rng.standard_normal(6)
    R0 = rot6d.batch_from_sixdof(r)
    s = r.copy()
    s[:3] *= 3.7  # scaling the first column does not move the frame
    assert np.allclose(rot6d.batch_from_sixdof(s), R0, atol=1e-12)


def test_geodesic_angle_known_values():
    R = np.eye(3)
    assert rot6d.geodesic_angle(R, R) == pytest.approx(0.0, abs=1e-9)
    # rotate 90 degrees about z
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert rot6d.geodesic_angle(R, Rz) == pytest.approx(90.0, abs=1e-9)


def test_geodesic_angle_matches_axis_angle():
    rng = np.random.default_rng(8)
    for trial in range(100):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0.01, np.pi - 0.01)
        K = np.array([[0, -axis[2], axis[1]],
                      [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        Rab = np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)
        base = random_rotations(1, seed=trial)[0]
        got = rot6d.geodesic_angle(base, base @ Rab)
        assert got == pytest.approx(np.degrees(theta), abs=1e-7)
