"""Synthetic motion generation, body presets, and sequence serialization."""

import hashlib
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from poseguide.datagen import (
    BenchmarkCell, BenchmarkManifest, MotionSpec,
    expand_cell, generate_motion, load_sequence, parse_preset,
    save_sequence, scale_ground_truth, write_cells,
)
from poseguide.skeleton import default_skeleton


def test_motion_spec_validation():
    with pytest.raises(ValueError):
        MotionSpec(kind="cartwheel", frames=10)
    with pytest.raises(ValueError):
        MotionSpec(kind="walk", frames=0)


@pytest.mark.parametrize("field, value, match", [
    # a fractional frame count used to escape gen-data as a TypeError traceback
    ("frames", 2.5, "frames must be an integer, got 2.5"),
    ("frames", True, "frames must be an integer, got True"),
    ("frames", -3, "frames must be at least 1, got -3"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", -1, "seed must be at least 0, got -1"),
])
def test_motion_spec_refuses_bad_sizes_by_name(field, value, match):
    with pytest.raises(ValueError, match=match):
        MotionSpec(**{"kind": "reach", "frames": 10, field: value})


@pytest.mark.parametrize("motion, match", [
    ({"kind": "walk", "frames": 2.5}, "frames must be an integer"),
    # the frame rate, frequency and amplitude are fixed; a manifest that sets them is refused
    ({"kind": "walk", "frames": 10, "hz": 0}, "hz"),
    ({"kind": "walk", "frames": 10, "frequency": 2.0}, "frequency"),
    ({"kind": "walk", "frames": 10, "amplitude": 1.0}, "amplitude"),
])
def test_manifest_with_a_bad_motion_is_refused_by_name(tmp_path, motion, match):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"cells": [{"motion": motion}]}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} .*{match}"):
        BenchmarkManifest.load(path)


# sha256 over rotations and root translation of 97 frames at seeds 0, 1 and 900, first
# taken with the since-deleted amplitude field at 1: the trend contract's data must not move
MOTION_DIGESTS = {
    "idle-sway": "4d1568aaf4901fcd720148396286f436afee22179e56b6db67e70116ba151d36",
    "walk": "9d404eb5ef395a3fa5bb2addc4d818fbcf60fa1b10c03fea1457918a3d189dcc",
    "arm-swing": "8a6363fb99ef3b6277d2163aa3434693ef028b766a6d2f234e091a13ccff0066",
    "reach": "2a005d914c594dc3de0146574cf3fbf058f8f0308dadead2b76b649880c67a63",
}


@pytest.mark.parametrize("kind", sorted(MOTION_DIGESTS))
def test_generate_motion_is_byte_stable(kind):
    skel = default_skeleton()
    h = hashlib.sha256()
    for seed in (0, 1, 900):
        seq = generate_motion(MotionSpec(kind, 97, seed=seed), skel)
        h.update(seq.rotations.tobytes())
        h.update(seq.root_translation.tobytes())
    assert h.hexdigest() == MOTION_DIGESTS[kind]


def test_generate_motion_deterministic_and_valid():
    skel = default_skeleton()
    for kind in ("idle-sway", "walk", "arm-swing", "reach"):
        spec = MotionSpec(kind=kind, frames=50, seed=3)
        a = generate_motion(spec, skel)
        b = generate_motion(spec, skel)
        assert np.array_equal(a.rotations, b.rotations)
        assert np.array_equal(a.root_translation, b.root_translation)
        assert a.frames == 50
        assert a.is_valid()


def test_walk_root_progresses_monotonically():
    skel = default_skeleton()
    seq = generate_motion(MotionSpec(kind="walk", frames=120, seed=0), skel)
    x = seq.root_translation[:, 0]
    assert np.all(np.diff(x) > 0)


def test_reach_wrist_orientation_is_uninformative():
    # different latent flexion seeds give identical measured-joint rotations
    # but different wrist locations
    skel = default_skeleton()
    a = generate_motion(MotionSpec(kind="reach", frames=40, seed=1), skel)
    b = generate_motion(MotionSpec(kind="reach", frames=40, seed=2), skel)
    m = list(skel.measured_joints)
    assert np.allclose(a.rotations[:, m], b.rotations[:, m], atol=1e-12)
    la = a.joint_locations(skel)[:, m]
    lb = b.joint_locations(skel)[:, m]
    assert np.abs(la - lb).max() > 1e-3


def test_parse_preset_vocabulary():
    assert parse_preset("uniform:1.3") == 1.3
    # a NaN or infinite scale used to be accepted, and a zero one refused unnamed
    for preset in ("legs:2.0", "uniform:zero", "uniform:nan", "uniform:0", "uniform:-inf",
                   "uniform:1.4,uniform:0.7"):
        with pytest.raises(ValueError, match="^preset must be 'uniform:<scale>' with a finite, "
                                             f"positive scale, got '{re.escape(preset)}'$"):
            parse_preset(preset)
    with pytest.raises(ValueError, match="got 'uniform:inf'"):
        BenchmarkCell(MotionSpec("walk", 10), preset="uniform:inf")


def test_parse_preset_caps_the_scale_at_1000():
    # uniform:1e300 used to pass and overflow the sampler into NaN while infer exited 0
    assert parse_preset("uniform:1000") == 1000.0
    for preset in ("uniform:1000.001", "uniform:1e300"):
        with pytest.raises(ValueError, match="^preset scale must be at most 1000, "
                                             f"got '{re.escape(preset)}'$"):
            parse_preset(preset)
    with pytest.raises(ValueError, match="got 'uniform:2000'"):
        BenchmarkCell(MotionSpec("walk", 10), preset="uniform:2000")


def test_scale_ground_truth_uniform_scales_root():
    skel = default_skeleton()
    seq = generate_motion(MotionSpec(kind="walk", frames=30, seed=1), skel)
    scaled, sk2 = scale_ground_truth(seq, skel, "uniform:0.6")
    assert np.array_equal(scaled.rotations, seq.rotations)
    assert np.allclose(scaled.root_translation, 0.6 * seq.root_translation)
    assert np.allclose(sk2.bone_vectors, 0.6 * skel.bone_vectors)
    # geometry scales exactly
    assert np.allclose(scaled.joint_locations(sk2), 0.6 * seq.joint_locations(skel))


def test_sequence_binary_roundtrip(tmp_path):
    skel = default_skeleton()
    seq = generate_motion(MotionSpec(kind="walk", frames=25, seed=4), skel)
    path = tmp_path / "seq.pgseq"
    save_sequence(path, seq)
    back = load_sequence(path)
    assert np.array_equal(back.rotations, seq.rotations)
    assert np.array_equal(back.root_translation, seq.root_translation)


def test_sequence_load_errors(tmp_path):
    skel = default_skeleton()
    seq = generate_motion(MotionSpec(kind="walk", frames=25, seed=4), skel)
    path = tmp_path / "seq.pgseq"
    save_sequence(path, seq)
    raw = path.read_bytes()

    def refused(name, match):  # every refusal names the file; these used to name none
        return pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / name))}: {match}")

    (tmp_path / "trunc.pgseq").write_bytes(raw[:-16])
    with refused("trunc.pgseq", "truncated"):
        load_sequence(tmp_path / "trunc.pgseq")
    (tmp_path / "long.pgseq").write_bytes(raw + bytes(16))  # used to read as "truncated"
    with refused("long.pgseq", "16 trailing bytes after the 27000 bytes of 25 frames"):
        load_sequence(tmp_path / "long.pgseq")
    (tmp_path / "nan.pgseq").write_bytes(with_float(raw, (7 * 22 + 3) * 6 + 2, np.nan))
    with refused("nan.pgseq", "non-finite rotation at frame 7, joint 3"):
        load_sequence(tmp_path / "nan.pgseq")
    vraw = bytearray(raw)
    # bump the version field inside the json header
    vraw = raw.replace(b'"version": 1', b'"version": 9', 1)
    hdr_fix = len(b'"version": 9') - len(b'"version": 1')
    assert hdr_fix == 0
    (tmp_path / "ver.pgseq").write_bytes(vraw)
    with refused("ver.pgseq", "unsupported sequence version 9"):
        load_sequence(tmp_path / "ver.pgseq")


def edit_header(raw: bytes, edit) -> bytes:
    """Pose-sequence bytes ``raw`` with ``edit`` applied to their json header."""
    hlen = int.from_bytes(raw[5:9], "little")
    header = json.loads(raw[9 : 9 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    return raw[:5] + len(text).to_bytes(4, "little") + text + raw[9 + hlen :]


def _saved(seq, path, edit=None) -> bytes:
    """The bytes ``save_sequence`` writes for ``seq`` at ``path``, header edited by ``edit``."""
    save_sequence(path, seq)
    return path.read_bytes() if edit is None else edit_header(path.read_bytes(), edit)


def with_float(raw: bytes, index: int, value: float) -> bytes:
    """Pose-sequence bytes ``raw`` with float ``index`` of the body (rotations, then
    root translation) set to ``value``."""
    at = 9 + int.from_bytes(raw[5:9], "little") + 8 * index
    return raw[:at] + np.float64(value).tobytes() + raw[at + 8 :]


def _infinite_root(seq, path):
    return with_float(_saved(seq, path), seq.rotations.size + 4 * 3 + 1, np.inf)


@pytest.mark.parametrize("make, match", [
    # a header without one of these keys used to escape as a bare KeyError
    (lambda seq, p: _saved(seq, p, lambda h: h.pop("version")), "KeyError: 'version'"),
    (lambda seq, p: _saved(seq, p, lambda h: h.pop("frames")), "KeyError: 'frames'"),
    (lambda seq, p: _saved(seq, p, lambda h: h.pop("joints")), "KeyError: 'joints'"),
    # a fractional count used to escape as a TypeError or read as truncated
    (lambda seq, p: _saved(seq, p, lambda h: h.update(frames=2.5)),
     "frames must be an integer, got 2.5"),
    # these used to name no file
    (lambda seq, p: _saved(seq, p, lambda h: h.update(frames=0)),
     "frames must be at least 1, got 0"),
    (_infinite_root, "non-finite root translation at frame 4"),
], ids=["no-version", "no-frames", "no-joints", "fractional-frames", "empty", "infinite-root"])
def test_sequence_load_refusals_name_the_file(tmp_path, make, match):
    seq = generate_motion(MotionSpec(kind="walk", frames=25, seed=4), default_skeleton())
    path = tmp_path / "bad.pgseq"
    path.write_bytes(make(seq, path))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}.*{match}"):
        load_sequence(path)


def test_benchmark_manifest_roundtrip_and_write(tmp_path):
    cells = [
        BenchmarkCell(MotionSpec(kind="reach", frames=20, seed=1), "uniform:0.6", 0.01, 5),
        BenchmarkCell(MotionSpec(kind="walk", frames=20, seed=2)),
    ]
    back = BenchmarkManifest.from_json(json.dumps({"cells": [asdict(c) for c in cells]}))
    assert back.cells == cells
    lock = write_cells(back, tmp_path / "bench")
    assert len(lock["cells"]) == 2
    for cell in cells:
        d = tmp_path / "bench" / cell.name()
        assert (d / "truth.pgseq").exists()
        assert (d / "measurements.jsonl").exists()
        assert (d / "skeleton.json").exists()
    # expansion is deterministic
    poses_a, _, meas_a = expand_cell(cells[0])
    poses_b, _, meas_b = expand_cell(cells[0])
    assert np.array_equal(poses_a.rotations, poses_b.rotations)
    assert np.array_equal(meas_a.locations, meas_b.locations)


def test_cell_names_are_distinct(tmp_path):
    # each cell is written to the directory its name gives, in manifest order
    walk = [BenchmarkCell(MotionSpec("walk", 20, seed=m)) for m in (5, 0)]
    names = ["walk_f20_m5_uniform1p0_sl0_s0", "walk_f20_m0_uniform1p0_sl0_s0"]
    assert [c.name() for c in walk] == names
    lock = write_cells(BenchmarkManifest(walk), tmp_path)
    assert [c["name"] for c in lock["cells"]] == names
    assert sorted(d.name for d in tmp_path.iterdir() if d.is_dir()) == sorted(names)
    # a repeated name is refused by both cell indices, also when :g rounds two sigmas together
    close = [BenchmarkCell(MotionSpec("walk", 20), sigma_l=s) for s in (0.05, 0.0500000001)]
    for cells, first, second, name in ((walk + walk[1:], 1, 2, names[1]),
                                       (close, 0, 1, "walk_f20_m0_uniform1p0_sl0.05_s0")):
        with pytest.raises(ValueError, match=f"^cells {first} and {second} share the name "
                                             f"'{re.escape(name)}'$"):
            BenchmarkManifest(cells)
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"cells": [{"motion": {"kind": "walk", "frames": 20}}] * 2}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} .*cells 0 and 1 share"):
        BenchmarkManifest.load(path)


def test_cell_names_come_from_the_scale_not_its_spelling(tmp_path):
    # uniform:1 and uniform:1.0 used to name one body twice, and "uniform: 1.0"
    # put a space in the directory name
    walk = MotionSpec("walk", 20)
    for preset, scale in (("uniform:1", "1p0"), ("uniform:1.0", "1p0"), ("uniform: 1.0", "1p0"),
                          ("uniform:1.00", "1p0"), ("uniform:0.6", "0p6"), ("uniform:1.4", "1p4"),
                          ("uniform:1000", "1000p0")):
        assert BenchmarkCell(walk, preset).name() == f"walk_f20_m0_uniform{scale}_sl0_s0"
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"cells": [{"motion": {"kind": "walk", "frames": 20},
                                           "preset": p} for p in ("uniform:1", "uniform:1.0")]}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} .*cells 0 and 1 share the "
                                         "name 'walk_f20_m0_uniform1p0_sl0_s0'"):
        BenchmarkManifest.load(path)


@pytest.mark.parametrize("field", ["sigma_r", "sigma_L"])
def test_manifest_refuses_an_unknown_cell_field_by_name(tmp_path, field):
    # a retired or misspelled field used to be ignored, and its cell silently took
    # the default: noise-free rotations for sigma_r, noise-free locations for sigma_L
    path = tmp_path / "manifest.json"
    cells = [{"motion": {"kind": "walk", "frames": 10}},
             {"motion": {"kind": "walk", "frames": 10, "seed": 1}, field: 0.02}]
    path.write_text(json.dumps({"cells": cells}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} .*cell 1: unknown field "
                                         f"'{field}'"):
        BenchmarkManifest.load(path)
