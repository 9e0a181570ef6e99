"""End-to-end command-line workflows and exit-code contracts."""

import json
import shutil
import warnings

import numpy as np
import pytest

from poseguide.cli import EXIT_OK, EXIT_USAGE, main
from poseguide.datagen import load_sequence, save_sequence
from poseguide.denoiser import MLPDenoiser, TrainConfig
from poseguide.skeleton import PoseSequence
from tests.test_datagen import edit_header


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cells = [{"motion": {"kind": "reach", "frames": 48, "seed": s}} for s in range(3)]
    cells.append({"motion": {"kind": "arm-swing", "frames": 48, "seed": 9}})
    mpath = root / "manifest.json"
    mpath.write_text(json.dumps({"cells": cells}))
    out = root / "data"
    assert main(["gen-data", "--manifest", str(mpath), "--out", str(out)]) == EXIT_OK
    return root


def test_gen_data_outputs_and_determinism(data_dir):
    out = data_dir / "data"
    cells = [d for d in out.iterdir() if d.is_dir()]
    assert len(cells) == 4
    assert (out / "manifest-lock.json").exists()
    assert (out / "config-echo.json").exists()
    blob = (cells[0] / "truth.pgseq").read_bytes()
    # rerun writes byte-identical files
    assert main(["gen-data", "--manifest", str(data_dir / "manifest.json"),
                 "--out", str(out)]) == EXIT_OK
    assert (cells[0] / "truth.pgseq").read_bytes() == blob


def test_gen_data_missing_manifest(tmp_path):
    rc = main(["gen-data", "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE


def test_usage_error_on_bad_arguments():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["train"]) == EXIT_USAGE  # missing required args


def test_train_infer_eval_roundtrip(data_dir, tmp_path):
    ckpt = tmp_path / "model.npz"
    rc = main(["train", "--data", str(data_dir / "data"), "--out", str(ckpt),
               "--window", "16", "--steps", "60", "--hidden", "24", "--seed", "1"])
    assert rc == EXIT_OK
    assert ckpt.exists()
    assert ckpt.with_suffix(".loss.csv").exists()
    assert ckpt.with_suffix(".config-echo.json").exists()

    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    pred = tmp_path / "pred.pgseq"
    rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
               "--skeleton", str(cell / "skeleton.json"), "--out", str(pred),
               "--checkpoint", str(ckpt), "--steps", "10"])
    assert rc == EXIT_OK
    seq = load_sequence(pred)
    assert seq.frames == 48

    report = tmp_path / "report.json"
    rc = main(["eval", "--pred", str(pred), "--truth", str(cell / "truth.pgseq"),
               "--skeleton", str(cell / "skeleton.json"), "--out", str(report)])
    assert rc == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["cells"][0]["mpjpe"] >= 0.0
    assert report.with_suffix(".csv").exists()


def test_infer_oracle_is_accurate(data_dir, tmp_path):
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    pred = tmp_path / "oracle_pred.pgseq"
    rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
               "--skeleton", str(cell / "skeleton.json"), "--out", str(pred),
               "--oracle-truth", str(cell / "truth.pgseq"), "--steps", "50"])
    assert rc == EXIT_OK
    truth = load_sequence(cell / "truth.pgseq")
    got = load_sequence(pred)
    assert np.abs(got.rotations - truth.rotations).max() < 1e-3


def test_infer_oracle_at_the_largest_body_scale_runs_without_a_warning(tmp_path):
    # at uniform:1e300, which gen-data used to accept, infer overflowed into NaN
    # with a RuntimeWarning and still exited 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"cells": [{"motion": {"kind": "walk", "frames": 30},
                                               "preset": "uniform:1000"}]}))
    assert main(["gen-data", "--manifest", str(manifest), "--out", str(tmp_path / "d")]) == EXIT_OK
    cell = tmp_path / "d" / "walk_f30_m0_uniform1000p0_sl0_s0"
    pred = tmp_path / "pred.pgseq"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
                   "--skeleton", str(cell / "skeleton.json"), "--out", str(pred),
                   "--oracle-truth", str(cell / "truth.pgseq"), "--covariance-mode", "sigma",
                   "--steps", "10"])
    assert rc == EXIT_OK
    got, truth = load_sequence(pred), load_sequence(cell / "truth.pgseq")
    assert np.abs(got.rotations - truth.rotations).max() < 1e-9
    assert np.abs(got.root_translation - truth.root_translation).max() < 1e-9


def test_infer_requires_model_source(data_dir, tmp_path):
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
               "--out", str(tmp_path / "p.pgseq")])
    assert rc == EXIT_USAGE
    rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
               "--out", str(tmp_path / "p.pgseq"),
               "--checkpoint", str(tmp_path / "missing.npz")])
    assert rc == EXIT_USAGE


def test_infer_refuses_a_negative_seed_by_name(data_dir, tmp_path, capsys):
    # used to print numpy's "expected non-negative integer", naming no option
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
               "--skeleton", str(cell / "skeleton.json"), "--out", str(tmp_path / "p.pgseq"),
               "--oracle-truth", str(cell / "truth.pgseq"), "--steps", "2", "--seed", "-1"])
    assert rc == EXIT_USAGE
    assert "seed must be at least 0, got -1" in capsys.readouterr().err


def test_infer_refuses_version_2_checkpoint(data_dir, tmp_path):
    ckpt = tmp_path / "v2.npz"
    MLPDenoiser(TrainConfig(window=16, hidden=24)).save(ckpt)
    with np.load(ckpt) as blob:
        header = json.loads(bytes(blob["__header__"]).decode())
        params = {k: blob[k] for k in blob.files if k != "__header__"}
    header["version"] = 2  # version 2 configs carry a conditioning field since removed
    np.savez(ckpt, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
             **params)
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
               "--out", str(tmp_path / "p.pgseq"), "--checkpoint", str(ckpt)])
    assert rc == EXIT_USAGE


def test_eval_refuses_a_measurement_file_as_pred(data_dir, tmp_path, capsys):
    # a measurement file used to be read as one and then crash with an
    # AttributeError traceback inside the metrics
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    pred = cell / "measurements.jsonl"
    rc = main(["eval", "--pred", str(pred), "--truth", str(cell / "truth.pgseq"),
               "--out", str(tmp_path / "report.json")])
    assert rc == EXIT_USAGE
    assert f"{pred} is not a pose sequence" in capsys.readouterr().err


def test_eval_refuses_a_sequence_header_without_a_version(data_dir, tmp_path, capsys):
    # a header missing "version" used to escape main as a KeyError traceback
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    pred = tmp_path / "no-version.pgseq"
    pred.write_bytes(edit_header((cell / "truth.pgseq").read_bytes(), lambda h: h.pop("version")))
    rc = main(["eval", "--pred", str(pred), "--truth", str(cell / "truth.pgseq"),
               "--out", str(tmp_path / "report.json")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {pred} is not a pose sequence (KeyError: 'version')\n"


def _cut_measurements(cell, tmp_path):
    path = tmp_path / "cut.jsonl"
    text = (cell / "measurements.jsonl").read_text()
    path.write_text(text[: len(text) // 2])  # ends inside a frame line
    return path


def _edited_measurements(keep=None, **header):
    """The cell's measurement file with ``header`` merged in and its first ``keep`` frames."""
    def make(cell, tmp_path):
        first, *lines = (cell / "measurements.jsonl").read_text().splitlines()
        path = tmp_path / "edited.jsonl"
        doc = {**json.loads(first), **header}
        path.write_text("\n".join([json.dumps(doc)] + lines[:keep]) + "\n")
        return path
    return make


def _edited_frame(key, value):
    """The cell's measurement file with entry 1 of the first frame's ``key`` set to ``value``."""
    def make(cell, tmp_path):
        first, frame, *lines = (cell / "measurements.jsonl").read_text().splitlines()
        doc = json.loads(frame)
        doc[key][1] = value
        path = tmp_path / "edited-frame.jsonl"
        path.write_text("\n".join([first, json.dumps(doc), *lines]) + "\n")
        return path
    return make


def _edited_field(key, value):
    """The cell's measurement file with the first frame's ``key`` set to ``value``."""
    def make(cell, tmp_path):
        first, frame, *lines = (cell / "measurements.jsonl").read_text().splitlines()
        path = tmp_path / "edited-field.jsonl"
        path.write_text("\n".join([first, json.dumps({**json.loads(frame), key: value}),
                                   *lines]) + "\n")
        return path
    return make


def _plain_npz(cell, tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, W0=np.zeros((2, 2)))
    return path


def _edited_checkpoint(name, edit):
    """A hidden-8 checkpoint whose header and arrays ``edit`` changes in place."""
    def make(cell, tmp_path):
        path = tmp_path / f"{name}.npz"
        MLPDenoiser(TrainConfig(window=16, hidden=8)).save(path)
        with np.load(path) as blob:
            header = json.loads(bytes(blob["__header__"]).decode())
            params = {k: blob[k] for k in blob.files if k != "__header__"}
        edit(header, params)
        np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **params)
        return path
    return make


def _cut_checkpoint(keep):
    """A hidden-8 checkpoint cut to the share ``keep`` of its bytes."""
    def make(cell, tmp_path):
        path = tmp_path / "cut.npz"
        MLPDenoiser(TrainConfig(window=16, hidden=8)).save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep)])
        return path
    return make


def _skeleton_with_bone(value):
    def make(cell, tmp_path):
        doc = json.loads((cell / "skeleton.json").read_text())
        doc["bones"][18][1] = value
        path = tmp_path / "bad-bone.json"
        path.write_text(json.dumps(doc))
        return path
    return make


def _edited_skeleton(edit):
    def make(cell, tmp_path):
        doc = json.loads((cell / "skeleton.json").read_text())
        edit(doc)
        path = tmp_path / "edited-skeleton.json"
        path.write_text(json.dumps(doc))
        return path
    return make


def _twelve_joints(doc):
    # a valid tree, with its sensors on its own last three joints
    doc.update(parents=doc["parents"][:12], bones=doc["bones"][:12], measured=[9, 10, 11])


def _fifteen_joints(cell, tmp_path):
    truth = load_sequence(cell / "truth.pgseq")
    path = tmp_path / "fifteen.pgseq"
    save_sequence(path, PoseSequence(truth.rotations[:, :15], truth.root_translation))
    return path


def _lock_listing(*cells):
    """A data directory holding only a manifest lock that lists ``cells``."""
    def make(cell, tmp_path):
        path = tmp_path / "data"
        path.mkdir()
        (path / "manifest-lock.json").write_text(json.dumps({"cells": list(cells)}))
        return path
    return make


def _copy_cells(cells, out):
    """Copy gen-data cell directories into ``out``, with a manifest lock that lists them."""
    for cell in cells:
        shutil.copytree(cell, out / cell.name)
    (out / "manifest-lock.json").write_text(
        json.dumps({"cells": [{"name": cell.name} for cell in cells]}))


def _one_cell_manifest(motion=None, **fields):
    def make(cell, tmp_path):
        path = tmp_path / "manifest.json"
        doc = {"motion": motion or {"kind": "walk", "frames": 10}, **fields}
        path.write_text(json.dumps({"cells": [doc]}))
        return path
    return make


@pytest.mark.parametrize("option, wrong_file, also_named", [
    ("--measurements", lambda cell, tmp: cell / "skeleton.json", ""),
    ("--measurements", lambda cell, tmp: cell / "truth.pgseq", ""),
    ("--measurements", _cut_measurements, ""),
    # a sigma that is not a number used to escape as a TypeError traceback (exit 1),
    # and true to read as 1 m of sensor noise
    ("--measurements", _edited_measurements(sigma_l="0.01"),
     "sigma_l must be a real number, got '0.01'"),
    ("--measurements", _edited_measurements(sigma_l=None), "sigma_l must be a real number, got None"),
    ("--measurements", _edited_measurements(sigma_l=[0]), "sigma_l must be a real number, got [0]"),
    ("--measurements", _edited_measurements(sigma_l=True), "sigma_l must be a real number, got True"),
    # "41" frames used to be refused as "truncated file: 41 of 41 frames", and true
    # frames with one frame line to be accepted
    ("--measurements", _edited_measurements(41, frames="41"), "frames must be an integer, got '41'"),
    ("--measurements", _edited_measurements(1, frames=True), "frames must be an integer, got True"),
    # a finite but huge sigma_l used to escape infer as an OverflowError traceback (exit 1)
    ("--measurements", _edited_measurements(sigma_l=1e306),
     "sigma_l must be at most 1000 m, got 1e+306"),
    # a JSON object among the numbers used to escape as a TypeError traceback (exit 1)
    ("--measurements", _edited_frame("loc", {"a": 1}), "locations must be an array of numbers"),
    ("--measurements", _edited_frame("rot", {"a": 1}), "rotations must be an array of numbers"),
    # a string or bool entry used to load as a number: "0.1" as 0.1 m, true as 1
    ("--measurements", _edited_frame("loc", ["0.1", 0.0, 0.0]),
     "locations must be an array of numbers, got '0.1' at frame 0"),
    ("--measurements", _edited_frame("loc", [True, 0, 0]),
     "locations must be an array of numbers, got True at frame 0"),
    # a measured rotation that does not decode used to be accepted
    ("--measurements", _edited_frame("rot", [0.0] * 6),
     "rotations at frame 0, sensor 1 (left wrist) do not decode: zero first column"),
    # one whose squares overflow used to decode to an all-zero vec9 and be accepted
    ("--measurements", _edited_frame("rot", [1e300, 0.0, 0.0, 0.0, 1e300, 0.0]),
     "rotations at frame 0, sensor 1 (left wrist) do not decode: an entry past 1e+150"),
    # a misshapen field used to be refused as numpy's "setting an array element with a
    # sequence", naming no line
    ("--measurements", _edited_field("rot", 0), "line 2: rot must be 3 rows of 6 numbers, got 0"),
    ("--measurements", _edited_field("loc", None),
     "line 2: loc must be 3 rows of 3 numbers, got null"),
    ("--measurements", _edited_field("rot", [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]]),
     "line 2: rot must be 3 rows of 6 numbers, got [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]]"),
    ("--measurements", _edited_field("loc", [0.0] * 9),
     "line 2: loc must be 3 rows of 3 numbers, got [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]"),
    ("--skeleton", lambda cell, tmp: cell.parent.parent / "manifest.json", ""),
    ("--skeleton", _skeleton_with_bone(float("nan")), "joint 18"),
    ("--skeleton", _skeleton_with_bone(float("inf")), "joint 18"),
    # a 12-joint tree used to fail later with a shape error naming no file
    ("--skeleton", _edited_skeleton(_twelve_joints), "parents must be the 22-joint SMPL tree"),
    # sensors on other joints used to run against head/wrist files, silently
    ("--skeleton", _edited_skeleton(lambda doc: doc.update(measured=[12, 18, 19])),
     "measured must be [15, 20, 21]"),
    ("--checkpoint", _plain_npz, ""),
    # "dropout" is not a TrainConfig field
    ("--checkpoint", _edited_checkpoint(
        "unknown-field", lambda header, params: header["config"].update(dropout=0.1)), ""),
    ("--checkpoint", _edited_checkpoint(
        "ckpt", lambda header, params: params.pop("Wo")), "'Wo'"),
    ("--checkpoint", _edited_checkpoint(
        "ckpt", lambda header, params: params.update(W0=params["W0"][:, :4])), "'W0'"),
    ("--checkpoint", _edited_checkpoint(
        "ckpt", lambda header, params: params.update(W9=np.zeros(3))), "'W9'"),
    # a NaN weight used to load, and infer then reported only a state magnitude of nan
    ("--checkpoint", _edited_checkpoint(
        "ckpt", lambda header, params: params["Wo"].__setitem__((3, 7), np.nan)),
     "parameter array 'Wo' has a non-finite entry at (3, 7)"),
    ("--manifest", lambda cell, tmp: cell / "skeleton.json", ""),
    ("--manifest", _one_cell_manifest(motion={"kind": "walk", "frames": 2.5}),
     "frames must be an integer, got 2.5"),
    # these three used to escape as a TypeError or AttributeError traceback, or name no file
    ("--manifest", _one_cell_manifest(seed=2.5), "seed must be an integer, got 2.5"),
    ("--manifest", _one_cell_manifest(preset=5), "preset must be a string, got 5"),
    ("--manifest", _one_cell_manifest(sigma_l=-1),
     "sigma_l must be finite and non-negative, got -1"),
    # a cell's sigma that is not a number used to be refused as a TypeError from a
    # comparison, naming no field, and true to pass
    ("--manifest", _one_cell_manifest(sigma_l="0.01"), "sigma_l must be a real number, got '0.01'"),
    ("--manifest", _one_cell_manifest(sigma_l=True), "sigma_l must be a real number, got True"),
    # a NaN or infinite preset scale used to fail later at a bone vector, naming no preset
    ("--manifest", _one_cell_manifest(preset="uniform:nan"),
     "preset must be 'uniform:<scale>' with a finite, positive scale, got 'uniform:nan'"),
    ("--manifest", _one_cell_manifest(preset="uniform:inf"),
     "preset must be 'uniform:<scale>' with a finite, positive scale, got 'uniform:inf'"),
    # a body varies by one scale, and squat is no motion kind: both used to be generated
    ("--manifest", _one_cell_manifest(preset="arms:1.4"),
     "preset must be 'uniform:<scale>' with a finite, positive scale, got 'arms:1.4'"),
    ("--manifest", _one_cell_manifest(motion={"kind": "squat", "frames": 10}),
     "unknown motion kind 'squat'"),
    # the amplitude is fixed, and the rotation noise is gone: a cell that sets either
    # is refused by name, where a retired cell field used to be ignored
    ("--manifest", _one_cell_manifest(motion={"kind": "walk", "frames": 10, "amplitude": "1.0"}),
     "unexpected keyword argument 'amplitude'"),
    ("--manifest", _one_cell_manifest(sigma_r=0.02), "cell 0: unknown field 'sigma_r'"),
    # a directory used to escape as an IsADirectoryError traceback (exit 1)
    ("--measurements", lambda cell, tmp: cell, "must be a file"),
    ("--skeleton", lambda cell, tmp: cell, "must be a file"),
    ("--checkpoint", lambda cell, tmp: cell, "must be a file"),
    ("--oracle-truth", lambda cell, tmp: cell, "must be a file"),
    ("--manifest", lambda cell, tmp: cell, "must be a file"),
    ("--pred", lambda cell, tmp: cell, "must be a file"),
    # and a file given as training data, as a NotADirectoryError traceback
    ("--data", lambda cell, tmp: cell / "truth.pgseq", "must be a directory"),
    # train reads the cells gen-data's lock lists; it used to read every directory
    # that held a truth and a measurement file
    ("--data", lambda cell, tmp: cell, "manifest lock not found"),
    ("--data", _lock_listing({}), "is not a manifest lock (KeyError: 'name')"),
    ("--data", _lock_listing({"name": "walk"}), "cell truth not found"),
    # a 15-joint sequence used to be refused naming no file, or as a window mismatch
    ("--oracle-truth", _fifteen_joints, "joints must be 22, got 15"),
    ("--pred", _fifteen_joints, "joints must be 22, got 15"),
    # a cut or empty checkpoint used to escape as BadZipFile or EOFError (exit 1)
    ("--checkpoint", _cut_checkpoint(0.5), "BadZipFile"),
    ("--checkpoint", _cut_checkpoint(0.0), "EOFError"),
], ids=["skeleton-as-measurements", "pgseq-as-measurements", "cut-measurements",
        "string-sigma-measurements", "null-sigma-measurements", "list-sigma-measurements",
        "bool-sigma-measurements", "string-frames-measurements", "bool-frames-measurements",
        "huge-sigma-measurements", "object-loc-measurements", "object-rot-measurements",
        "string-loc-measurements", "bool-loc-measurements",
        "zero-rot-measurements", "overflowing-rot-measurements", "number-rot-measurements",
        "null-loc-measurements", "one-sensor-rot-measurements", "flat-loc-measurements",
        "manifest-as-skeleton", "nan-bone", "inf-bone", "twelve-joint-skeleton",
        "rewired-sensors-skeleton", "plain-npz-as-checkpoint",
        "unknown-checkpoint-field", "checkpoint-missing-array", "checkpoint-narrowed-array",
        "checkpoint-extra-array", "nan-checkpoint", "skeleton-as-manifest",
        "fractional-frames-manifest",
        "fractional-seed-manifest", "numeric-preset-manifest", "negative-sigma-manifest",
        "string-sigma-manifest", "bool-sigma-manifest", "nan-preset-manifest",
        "inf-preset-manifest", "arms-preset-manifest", "squat-manifest",
        "string-amplitude-manifest", "rotation-noise-manifest",
        "directory-as-measurements", "directory-as-skeleton", "directory-as-checkpoint",
        "directory-as-oracle-truth", "directory-as-manifest", "directory-as-pred",
        "file-as-data", "cell-as-data", "nameless-lock-data", "lock-without-cell-data",
        "fifteen-joint-oracle-truth", "fifteen-joint-pred", "cut-checkpoint", "empty-checkpoint"])
def test_a_file_of_the_wrong_kind_is_refused_by_name(data_dir, tmp_path, capsys,
                                                     option, wrong_file, also_named):
    # each of these used to crash with a KeyError or TypeError (exit 1), print
    # an error that named no file, or be accepted and give NaN or a traceback later
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    wrong = wrong_file(cell, tmp_path)
    if option == "--manifest":
        command, flags = "gen-data", {"--out": tmp_path / "o"}
    elif option == "--pred":
        command, flags = "eval", {"--truth": cell / "truth.pgseq",
                                  "--out": tmp_path / "report.json"}
    elif option == "--data":
        command, flags = "train", {"--out": tmp_path / "m.npz", "--steps": 2}
    else:
        command, flags = "infer", {"--measurements": cell / "measurements.jsonl",
                                   "--out": tmp_path / "p.pgseq", "--steps": 2}
        if option != "--checkpoint":
            flags["--oracle-truth"] = cell / "truth.pgseq"
    flags[option] = wrong
    argv = [command] + [str(x) for flag_value in flags.items() for x in flag_value]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(wrong) in err
    assert also_named in err


@pytest.mark.parametrize("command", ["gen-data", "eval"])
def test_gen_data_and_eval_refuse_a_skeleton_they_cannot_run(data_dir, tmp_path, capsys,
                                                             command):
    # eval used to print a shape error that named no file on a valid 12-joint tree;
    # gen-data expands every cell on the default skeleton and takes no --skeleton
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    skeleton = _edited_skeleton(_twelve_joints)(cell, tmp_path)
    if command == "gen-data":
        flags = ["--manifest", data_dir / "manifest.json", "--out", tmp_path / "o"]
        refusal = f"unrecognized arguments: --skeleton {skeleton}"
    else:
        flags = ["--pred", cell / "truth.pgseq", "--truth", cell / "truth.pgseq",
                 "--out", tmp_path / "report.json"]
        refusal = f"{skeleton}: parents must be the 22-joint SMPL tree"
    assert main([command, "--skeleton", str(skeleton)] + [str(f) for f in flags]) == EXIT_USAGE
    assert refusal in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_eval_names_both_files_on_a_frame_mismatch(data_dir, tmp_path, capsys):
    # used to print only "frame mismatch: 20 vs 48", naming neither file
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    truth_path = cell / "truth.pgseq"
    truth = load_sequence(truth_path)
    pred = tmp_path / "short.pgseq"
    save_sequence(pred, PoseSequence(truth.rotations[:20], truth.root_translation[:20]))
    rc = main(["eval", "--pred", str(pred), "--truth", str(truth_path),
               "--out", str(tmp_path / "report.json")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: --pred {pred} has 20 frames but --truth "
                                       f"{truth_path} has 48 frames\n")


@pytest.mark.parametrize("flag", ["--pred", "--truth"])
def test_eval_names_the_file_frame_and_joint_of_a_degenerate_entry(data_dir, tmp_path, capsys,
                                                                   flag):
    # used to print "degenerate 6DoF at joint 71", a flat index naming no file
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    truth = load_sequence(cell / "truth.pgseq")
    rotations = truth.rotations.copy()
    rotations[3, 5] = 0.0
    bad = tmp_path / "zero.pgseq"
    save_sequence(bad, PoseSequence(rotations, truth.root_translation))
    files = {"--pred": cell / "truth.pgseq", "--truth": cell / "truth.pgseq", flag: bad}
    rc = main(["eval", *(str(x) for kv in files.items() for x in kv),
               "--out", str(tmp_path / "report.json")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: {flag} {bad}: degenerate 6DoF at frame 3, "
                                       f"joint 5: zero first column\n")


def test_infer_refuses_an_infinite_sigma_by_name(data_dir, tmp_path, capsys):
    # json reads "Infinity"; the set used to accept it and infer then died in the
    # root smoothing with an OverflowError traceback that main did not catch
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    path = _edited_measurements(sigma_l=float("inf"))(cell, tmp_path)
    assert "Infinity" in path.read_text()
    rc = main(["infer", "--measurements", str(path), "--skeleton", str(cell / "skeleton.json"),
               "--out", str(tmp_path / "p.pgseq"), "--oracle-truth", str(cell / "truth.pgseq"),
               "--steps", "3"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {path}: sigma_l must be finite and non-negative, got inf\n"


def test_infer_names_both_files_when_the_oracle_truth_is_longer(data_dir, tmp_path, capsys):
    # a 48-frame truth against 41 frames used to run and write the truth's first 41 frames
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    meas = _edited_measurements(41, frames=41)(cell, tmp_path)
    truth = cell / "truth.pgseq"
    rc = main(["infer", "--measurements", str(meas), "--out", str(tmp_path / "p.pgseq"),
               "--oracle-truth", str(truth), "--steps", "2"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: --oracle-truth {truth} has 48 frames but "
                                       f"--measurements {meas} has 41 frames\n")
    assert not (tmp_path / "p.pgseq").exists()


def test_infer_names_both_files_when_the_oracle_truth_is_shorter(data_dir, tmp_path, capsys):
    # used to print "window 0 (frames 0 to 47) runs past the stored ground truth of
    # 41 frames", naming neither file
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    meas, truth = cell / "measurements.jsonl", tmp_path / "short.pgseq"
    full = load_sequence(cell / "truth.pgseq")
    save_sequence(truth, PoseSequence(full.rotations[:41], full.root_translation[:41]))
    rc = main(["infer", "--measurements", str(meas), "--out", str(tmp_path / "p.pgseq"),
               "--oracle-truth", str(truth), "--steps", "2"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: --oracle-truth {truth} has 41 frames but "
                                       f"--measurements {meas} has 48 frames\n")


def test_train_on_too_little_data_is_an_error_line(data_dir, tmp_path, capsys):
    # one 48-frame cell gives 9 windows of 16 frames, under the 10 training
    # needs; the TrainingError used to escape main as a traceback (exit 1)
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    _copy_cells([cell], tmp_path / "one")
    rc = main(["train", "--data", str(tmp_path / "one"), "--out", str(tmp_path / "m.npz"),
               "--window", "16", "--steps", "2", "--hidden", "8"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "need at least 10 windows, got 9" in err
    assert "Traceback" not in err


def test_train_names_the_cell_directory_of_a_refused_sequence(data_dir, tmp_path, capsys):
    # used to print "sequence 1: ...", an index among the cells read that names no directory
    cells = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[:2]
    _copy_cells(cells, tmp_path / "two")
    bad = tmp_path / "two" / cells[1].name
    _edited_measurements(41, frames=41)(cells[1], bad).replace(bad / "measurements.jsonl")
    rc = main(["train", "--data", str(tmp_path / "two"), "--out", str(tmp_path / "m.npz"),
               "--window", "16", "--steps", "2", "--hidden", "8"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: {bad}: sequence 1: 48 pose frames but "
                                       f"41 measured frames\n")
    rc = main(["train", "--data", str(data_dir / "data"), "--out", str(tmp_path / "m.npz"),
               "--window", "200"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: {data_dir / 'data' / cells[0].name}: sequence 0: "
                                       f"48 frames, shorter than the window of 200\n")


def test_train_reads_only_the_cells_the_manifest_lock_lists(data_dir, tmp_path):
    # a stale cell that an older gen-data left in the directory used to be read, and
    # here its 10 frames refused training with a window of 16
    data = tmp_path / "data"
    shutil.copytree(data_dir / "data", data)
    cell = sorted(d for d in data.iterdir() if d.is_dir())[0]
    stale = data / "walk_f10_m0_uniform1p0_sl0_sr0_s0"
    stale.mkdir()
    truth = load_sequence(cell / "truth.pgseq")
    save_sequence(stale / "truth.pgseq",
                  PoseSequence(truth.rotations[:10], truth.root_translation[:10]))
    _edited_measurements(10, frames=10)(cell, stale).replace(stale / "measurements.jsonl")
    for source, ckpt in ((data, "with-stale.npz"), (data_dir / "data", "clean.npz")):
        assert main(["train", "--data", str(source), "--out", str(tmp_path / ckpt),
                     "--window", "16", "--steps", "2", "--hidden", "8"]) == EXIT_OK
    assert (tmp_path / "with-stale.npz").read_bytes() == (tmp_path / "clean.npz").read_bytes()


def test_infer_refuses_a_huge_sigma_l_flag_by_name(data_dir, tmp_path, capsys):
    # used to die in the score's sigma_l**2 with an OverflowError traceback (exit 1)
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
               "--out", str(tmp_path / "p.pgseq"), "--oracle-truth", str(cell / "truth.pgseq"),
               "--steps", "2", "--sigma-l", "1e306"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: sigma_l must be at most 1000 m, got 1e+306\n"


def test_a_checkpoint_is_written_at_the_exact_out_path(data_dir, tmp_path):
    # np.savez used to append .npz, so train --out prior.bin wrote prior.bin.npz and
    # infer --checkpoint prior.bin then exited 2 with "checkpoint not found"
    ckpt = tmp_path / "prior.bin"
    assert main(["train", "--data", str(data_dir / "data"), "--out", str(ckpt),
                 "--window", "16", "--steps", "2", "--hidden", "8"]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "prior.bin", "prior.config-echo.json", "prior.loss.csv"]
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
               "--out", str(tmp_path / "p.pgseq"), "--checkpoint", str(ckpt), "--steps", "2"])
    assert rc == EXIT_OK


def test_eval_refuses_a_csv_out_path(data_dir, tmp_path, capsys):
    # the JSON report used to be written and then overwritten by the CSV row at the same path
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    out = tmp_path / "report.csv"
    rc = main(["eval", "--pred", str(cell / "truth.pgseq"), "--truth", str(cell / "truth.pgseq"),
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


def test_infer_refuses_a_nonzero_eta_by_its_flag(data_dir, tmp_path, capsys):
    # the sampler is deterministic DDIM; --eta stays parseable at 0 only
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    rc = main(["infer", "--measurements", str(cell / "measurements.jsonl"),
               "--out", str(tmp_path / "p.pgseq"), "--oracle-truth", str(cell / "truth.pgseq"),
               "--steps", "2", "--eta", "0.5"])
    assert rc == EXIT_USAGE
    assert "--eta" in capsys.readouterr().err
    assert not (tmp_path / "p.pgseq").exists()


def test_the_benchmark_infer_argv_still_runs(data_dir, tmp_path):
    # perfbench/bench.py calls infer with exactly these flags, --eta 0 included
    cell = sorted(d for d in (data_dir / "data").iterdir() if d.is_dir())[0]
    ckpt = tmp_path / "prior.npz"
    MLPDenoiser(TrainConfig(window=16, hidden=8)).save(ckpt)
    pred = tmp_path / "pred.pgseq"
    argv = ["infer", "--measurements", cell / "measurements.jsonl", "--skeleton",
            cell / "skeleton.json", "--checkpoint", ckpt, "--steps", 2,
            "--eta", 0, "--guidance-scale", 1, "--sigma-l", 0.05,
            "--covariance-mode", "sigma", "--seed", 3, "--out", pred]
    assert main([str(a) for a in argv]) == EXIT_OK
    assert load_sequence(pred).frames == 48
