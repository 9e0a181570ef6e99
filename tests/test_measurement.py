"""Measurement operator vs forward kinematics, sensor sim, serialization."""

import json
import re

import numpy as np
import pytest

from poseguide import rot6d
from poseguide.measurement import (
    MeasurementSet, build_A, differential_transform, extract_measurements,
)
from poseguide.skeleton import (
    PoseSequence, Skeleton, default_skeleton, forward_kinematics,
)
from tests.test_rot6d import random_rotations
from tests.test_skeleton import random_pose_matrices


def random_skeleton(seed, n_joints=12):
    rng = np.random.default_rng(seed)
    parents = [-1] + [int(rng.integers(0, j)) for j in range(1, n_joints)]
    bones = rng.standard_normal((n_joints, 3)) * 0.3
    bones[0] = 0.0
    measured = sorted(rng.choice(np.arange(1, n_joints), size=3, replace=False).tolist())
    return Skeleton(parents, bones, tuple(measured))


def measured_locations(A, v9):
    """``A.matrix`` on (poses, J, 9) vec9 rotations: (poses, measured joints, 3)."""
    return (v9.reshape(len(v9), -1) @ A.matrix.T).reshape(len(v9), -1, 3)


def test_operator_matches_fk_default_skeleton():
    skel = default_skeleton()
    A = build_A(skel)
    R = random_pose_matrices(200, seed=0)
    got = measured_locations(A, rot6d.vec9(R))
    ref = forward_kinematics(skel, R)[:, list(skel.measured_joints)]
    assert np.abs(got - ref).max() < 1e-12


def test_operator_matches_fk_random_skeletons():
    for seed in range(10):
        skel = random_skeleton(seed)
        A = build_A(skel)
        R = random_rotations(100 * skel.joint_count, seed=seed + 50).reshape(
            100, skel.joint_count, 3, 3)
        got = measured_locations(A, rot6d.vec9(R))
        ref = forward_kinematics(skel, R)[:, list(skel.measured_joints)]
        assert np.abs(got - ref).max() < 1e-12


def test_off_chain_rotations_do_not_matter():
    # perturbing vec9 entries of joints outside all measured chains leaves
    # the operator output unchanged
    skel = default_skeleton()
    A = build_A(skel)
    on_chain = set()  # every ancestor of a measured joint rotates its bone chain
    for j in skel.measured_joints:
        while skel.parents[j] >= 0:
            j = int(skel.parents[j])
            on_chain.add(j)
    rng = np.random.default_rng(3)
    v9 = rot6d.vec9(random_pose_matrices(4, seed=4))
    pert = v9.copy()
    for j in range(22):
        if j not in on_chain:
            pert[:, j] += rng.standard_normal(9)
    assert np.array_equal(measured_locations(A, pert), measured_locations(A, v9))


def test_diff_matrix_cancels_root_column_translation():
    # diff_matrix equals wrist-minus-head of the plain rows, and adding a
    # constant to all measured locations cancels in differential_transform
    skel = default_skeleton()
    A = build_A(skel)
    v9 = rot6d.vec9(random_pose_matrices(6, seed=5))
    full = measured_locations(A, v9)
    diff = (v9.reshape(6, -1) @ A.diff_matrix.T).reshape(6, 2, 3)
    assert np.allclose(diff, differential_transform(full), atol=1e-14)


def test_active_joints_are_the_unshared_chain_parents():
    # the trunk shared by the head and a wrist chain cancels in the
    # differential rows, so only the parents of the unshared chain edges
    # have a nonzero column block
    def chain_edges(skel, joint):
        edges = set()
        while skel.parents[joint] >= 0:
            edges.add((int(skel.parents[joint]), joint))
            joint = int(skel.parents[joint])
        return edges

    for skel in [default_skeleton()] + [random_skeleton(seed) for seed in range(10)]:
        A = build_A(skel)
        head, *wrists = (chain_edges(skel, j) for j in skel.measured_joints)
        want = sorted({p for edges in wrists for p, _ in edges ^ head})
        assert A.active_joints.tolist() == want
        blocks = A.diff_matrix.reshape(6, skel.joint_count, 9)
        assert np.array_equal(A.active_block, blocks[:, want])
        assert not np.delete(blocks, want, axis=1).any()
    assert build_A(default_skeleton()).active_joints.tolist() == [9, 12, 13, 14, 16, 17, 18, 19]


def test_operator_matrices_are_c_contiguous():
    # a transposed (F-ordered) matrix holds the same values but sends every
    # product with A down another BLAS path; the rounding then differs in the
    # last bit, and a trained prior amplifies that over the DDIM steps
    for skel in [default_skeleton()] + [random_skeleton(seed) for seed in range(3)]:
        A = build_A(skel)
        assert A.matrix.flags.c_contiguous
        assert A.diff_matrix.flags.c_contiguous


def test_measured_joint_outside_the_tree_is_refused():
    # a negative index would wrap round silently in build_A's indexing, so
    # Skeleton refuses it before build_A can run
    skel = default_skeleton()
    with pytest.raises(ValueError, match=r"measured .* got \[15, 20, -1\]"):
        build_A(Skeleton(skel.parents, skel.bone_vectors, (15, 20, -1)))


def test_differential_transform_translation_invariance():
    rng = np.random.default_rng(6)
    loc = rng.standard_normal((7, 3, 3))
    shift = rng.standard_normal((7, 1, 3))
    assert np.allclose(differential_transform(loc + shift),
                       differential_transform(loc), atol=1e-12)
    with pytest.raises(ValueError):
        differential_transform(np.zeros((7, 4, 3)))


def test_extract_measurements_deterministic_and_noise_scale():
    skel = default_skeleton()
    R = random_pose_matrices(2000, seed=7)
    seq = PoseSequence(rot6d.to_sixdof(R), np.zeros((2000, 3)))
    a = extract_measurements(seq, skel, 0.03, seed=11)
    b = extract_measurements(seq, skel, 0.03, seed=11)
    assert np.array_equal(a.locations, b.locations)
    clean = extract_measurements(seq, skel, 0.0, seed=11)
    ref = forward_kinematics(skel, R)[:, list(skel.measured_joints)]
    assert np.abs(clean.locations - ref).max() < 1e-12
    assert np.std(a.locations - clean.locations) == pytest.approx(0.03, rel=0.05)
    # the rotation sensors are exact
    assert np.array_equal(a.rotations, seq.rotations[:, list(skel.measured_joints)])


def test_measurement_set_validation():
    with pytest.raises(ValueError):
        MeasurementSet(np.zeros((4, 2, 3)), np.zeros((4, 3, 6)), 0.0)
    with pytest.raises(ValueError):
        MeasurementSet(np.zeros((4, 3, 3)), np.zeros((5, 3, 6)), 0.0)
    with pytest.raises(ValueError):
        MeasurementSet(np.zeros((4, 3, 3)), np.zeros((4, 3, 6)), -1.0)


def test_measurement_set_refuses_non_finite_values():
    # checked when the set is built, not only when it is loaded from a file
    locs, rots = np.zeros((4, 3, 3)), np.zeros((4, 3, 6))
    locs[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite locations at frame 2"):
        MeasurementSet(locs, rots, 0.0)
    rots[3, 0, 5] = np.inf
    with pytest.raises(ValueError, match="non-finite rotations at frame 3"):
        MeasurementSet(np.zeros((4, 3, 3)), rots, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        MeasurementSet(np.zeros((4, 3, 3)), np.zeros((4, 3, 6)), np.nan)


@pytest.mark.parametrize("a, b, frame, sensor, reason", [
    (np.zeros(3), [0.0, 1.0, 0.0], 2, "0 (head)", "zero first column"),
    ([1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], 0, "2 (right wrist)", r"columns \(near\) parallel"),
    ([1e300, 0.0, 0.0], [0.0, 1e300, 0.0], 3, "1 (left wrist)", r"an entry past 1e\+150"),
], ids=["zero-first-column", "parallel-columns", "overflowing-squares"])
def test_measurement_set_refuses_rotations_that_do_not_decode(a, b, frame, sensor, reason):
    # these used to be accepted, and all-zero rotations with them; the squares of the
    # third overflowed in the decode, to an all-zero vec9 (a RuntimeWarning, an error here)
    rots = np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], (4, 3, 1))  # identity rotations
    rots[frame, int(sensor[0])] = np.concatenate([a, b])
    with pytest.raises(ValueError, match=rf"^rotations at frame {frame}, sensor "
                                         rf"{re.escape(sensor)} do not decode: {reason}$"):
        MeasurementSet(np.zeros((4, 3, 3)), rots, 0.0)


@pytest.mark.parametrize("key, sensor, row, shown", [
    ("loc", 2, ["0.1", 0.0, 0.0], "'0.1'"),
    ("rot", 0, [True, False, False, False, True, False], "True"),
    ("loc", 1, [True, 0, 0], "True"),  # numpy reads this row as an int array
], ids=["string-location", "bool-rotation", "bool-among-ints-location"])
def test_measurement_set_refuses_a_string_or_bool_entry_by_field(tmp_path, key, sensor, row,
                                                                 shown):
    # these used to load silently: "0.1" as 0.1 m, true as 1
    field = {"loc": "locations", "rot": "rotations"}[key]
    doc = {"loc": np.zeros((3, 3, 3)).tolist(),
           "rot": np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], (3, 3, 1)).tolist()}
    doc[key][1][sensor] = row
    message = f"{field} must be an array of numbers, got {shown} at frame 1$"
    with pytest.raises(ValueError, match=f"^{message}"):
        MeasurementSet(doc["loc"], doc["rot"], 0.0)
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join([json.dumps({"frames": 3, "sigma_l": 0.0})] + [
        json.dumps({"t": t, "loc": doc["loc"][t], "rot": doc["rot"][t]}) for t in range(3)]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        MeasurementSet.load(path)
    doc[key][1][sensor] = [1] + [0.5] * (len(row) - 1)  # integers and floats still load
    assert MeasurementSet(doc["loc"], doc["rot"], 0.0).frames == 3


@pytest.mark.parametrize("key, value, width", [
    ("rot", 0, 6),
    ("loc", None, 3),
    ("rot", [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]], 6),  # one sensor's row
    ("loc", [0.0] * 9, 3),  # the three locations as one flat row
    ("loc", [[0.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0]], 3),
    ("rot", [[1.0, 0.0, 0.0, 0.0, 1.0, [0.0]]] * 3, 6),
], ids=["number-rot", "null-loc", "one-sensor-rot", "flat-loc", "short-row-loc",
        "nested-entry-rot"])
def test_measurement_load_refuses_a_misshapen_field_by_line(tmp_path, key, value, width):
    # these were all refused as "<field> must be an array of numbers (setting an
    # array element with a sequence...)", naming no line and misstating the fault
    frames = [{"t": t, "loc": np.zeros((3, 3)).tolist(),
               "rot": np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], (3, 1)).tolist()}
              for t in range(4)]
    frames[3][key] = value
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join(map(json.dumps, [{"frames": 4, "sigma_l": 0.0}, *frames])))
    shown = re.escape(json.dumps(value))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 5: {key} must be 3 rows "
                                         f"of {width} numbers, got {shown}$"):
        MeasurementSet.load(path)


@pytest.mark.parametrize("sigma_l, message", [
    (np.inf, "sigma_l must be finite and non-negative, got inf"),
    (-0.5, "sigma_l must be finite and non-negative, got -0.5"),
    (np.nan, "sigma_l must be finite and non-negative, got nan"),
    (1e306, r"sigma_l must be at most 1000 m, got 1e\+306"),
])
def test_measurement_set_refuses_a_bad_sigma_by_name(sigma_l, message):
    # an infinite sigma_l used to be accepted; guided inference then died in
    # the root smoothing with "OverflowError: cannot convert float infinity to integer",
    # and a finite 1e306 in the score's sigma_l**2 with "Numerical result out of range"
    with pytest.raises(ValueError, match=f"^{message}$"):
        MeasurementSet(np.zeros((4, 3, 3)), np.zeros((4, 3, 6)), sigma_l)


def test_measurement_jsonl_roundtrip(tmp_path):
    skel = default_skeleton()
    R = random_pose_matrices(9, seed=8)
    seq = PoseSequence(rot6d.to_sixdof(R), np.zeros((9, 3)))
    m = extract_measurements(seq, skel, 0.02, seed=1)
    path = tmp_path / "m.jsonl"
    m.save(path)
    back = MeasurementSet.load(path)
    assert back.frames == 9
    assert np.allclose(back.locations, m.locations, atol=1e-15)
    assert np.allclose(back.rotations, m.rotations, atol=1e-15)
    assert back.sigma_l == m.sigma_l
    # a file that still names its rotation noise loads the same; inference never read it
    header, *frames = path.read_text().splitlines()
    path.write_text("\n".join([json.dumps({**json.loads(header), "sigma_r": 0.0}), *frames]))
    old = MeasurementSet.load(path)
    assert np.array_equal(old.locations, back.locations) and old.sigma_l == back.sigma_l


def test_measurement_load_errors(tmp_path):
    skel = default_skeleton()
    R = random_pose_matrices(5, seed=9)
    seq = PoseSequence(rot6d.to_sixdof(R), np.zeros((5, 3)))
    m = extract_measurements(seq, skel, 0.0, seed=1)
    path = tmp_path / "m.jsonl"
    m.save(path)
    header, *frames = path.read_text().splitlines()
    two = json.loads(frames[1])
    two["loc"][2] = two["loc"][2][:2]  # a 2-component location
    nan = json.loads(frames[2])
    nan["loc"][0][0] = float("nan")
    extra = [json.dumps({**json.loads(frames[0]), "t": t}) for t in (5, 6)]
    # every refusal names the file; the set's own used to reach the caller without it
    for name, head, rows, match in (
            ("trunc", header, frames[:-2], "truncated"),
            # a file with more frame lines than its header used to be refused as
            # "truncated file: 7 of 5 frames"
            ("long", header, [*frames, *extra], "7 frame lines, more than the header's 5"),
            ("nan", header, [*frames[:2], json.dumps(nan), *frames[3:]], "non-finite"),
            # it used to be refused as numpy's "setting an array element with a sequence"
            ("two", header, [frames[0], json.dumps(two), *frames[2:]],
             r"line 3: loc must be 3 rows of 3 numbers, got \[\["),
            ("sigma", json.dumps({**json.loads(header), "sigma_l": np.inf}), frames,
             "sigma_l must be finite")):
        bad = tmp_path / f"{name}.jsonl"
        bad.write_text("\n".join([head, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: .*{match}"):
            MeasurementSet.load(bad)


def test_measurement_frames_out_of_order_are_refused(tmp_path):
    # the "t" of each frame line used to be ignored, so a file with its frame
    # lines reversed loaded silently, with its frames reversed
    seq = PoseSequence(rot6d.to_sixdof(random_pose_matrices(5, seed=3)), np.zeros((5, 3)))
    path = tmp_path / "m.jsonl"
    extract_measurements(seq, default_skeleton(), 0.0, seed=1).save(path)
    header, *frames = path.read_text().splitlines()
    path.write_text("\n".join([header, *frames[::-1]]) + "\n")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))} line 2: t is 4, expected frame 0$"):
        MeasurementSet.load(path)
