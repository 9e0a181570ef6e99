"""Single command-line entry point.

Subcommands: gen-data, train, infer, eval.  Every run echoes its resolved
configuration to a JSON file next to the outputs.  Exit codes: 0 success,
2 usage or input errors, including training refused for too little data and
a diverged sampler.  ``infer --eta`` accepts only 0: the sampler is
deterministic DDIM.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import metrics, rot6d
from .datagen import BenchmarkManifest, load_sequence, save_sequence, write_cells
from .denoiser import (
    COND_DIMS, MLPDenoiser, OracleDenoiser, TrainConfig, TrainingError, train_denoiser,
)
from .measurement import MeasurementSet
from .sampler import GuidanceConfig, SamplerDivergence, run_guided_inference
from .skeleton import MEASURED_JOINTS, SMPL_PARENTS, Skeleton, default_skeleton

EXIT_OK = 0
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _echo_config(out_path: Path, args: argparse.Namespace) -> None:
    doc = {k: v for k, v in vars(args).items() if not callable(v)}
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2)


def _existing(path, what: str, directory: bool = False) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    if p.is_dir() != directory:
        raise UsageError(f"{what} must be a {'directory' if directory else 'file'}, got {p}")
    return p


def _load_skeleton(path) -> Skeleton:
    if path is None:
        return default_skeleton()
    skeleton = Skeleton.load(_existing(path, "skeleton"))
    # motion generation, the prior's conditioning and the measurement files
    # all assume the SMPL tree and its head/wrist sensors
    if skeleton.parents.tolist() != list(SMPL_PARENTS):
        raise UsageError(f"{path}: parents must be the {len(SMPL_PARENTS)}-joint SMPL tree "
                         f"{list(SMPL_PARENTS)}, got {skeleton.parents.tolist()}")
    if skeleton.measured_joints != MEASURED_JOINTS:
        raise UsageError(f"{path}: measured must be {list(MEASURED_JOINTS)} (head, left wrist, "
                         f"right wrist), got {list(skeleton.measured_joints)}")
    return skeleton


def cmd_gen_data(args) -> int:
    manifest = BenchmarkManifest.load(_existing(args.manifest, "manifest"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_cells(manifest, out)
    _echo_config(out / "config-echo.json", args)
    print(f"wrote {len(manifest.cells)} cells to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    data_dir = _existing(args.data, "data", directory=True)
    # the cells gen-data wrote, not whatever else an older run left in the directory
    lock = _existing(data_dir / "manifest-lock.json", "manifest lock")
    try:
        cells = json.loads(lock.read_text())["cells"]
        cell_dirs = sorted(data_dir / cell["name"] for cell in cells)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{lock} is not a manifest lock ({type(exc).__name__}: {exc})") from exc
    dataset = [(load_sequence(_existing(d / "truth.pgseq", "cell truth")),
                MeasurementSet.load(_existing(d / "measurements.jsonl", "cell measurements")))
               for d in cell_dirs]
    config = TrainConfig(
        window=args.window, dropout_prob=args.dropout, step_size=args.lr,
        steps=args.steps, seed=args.seed, cond_spec=args.cond_spec, hidden=args.hidden,
    )
    losses = []
    try:
        model = train_denoiser(dataset, config, loss_callback=lambda s, l: losses.append((s, l)))
    except TrainingError as exc:
        if exc.sequence is not None:
            exc.args = (f"{cell_dirs[exc.sequence]}: {exc}",)
        raise
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    model.save(out)
    with open(out.with_suffix(".loss.csv"), "w") as fh:
        fh.write("step,loss\n")
        for s, l in losses:
            fh.write(f"{s},{l}\n")
    _echo_config(out.with_suffix(".config-echo.json"), args)
    print(f"trained {model.param_count()} parameters, final loss {losses[-1][1]:.5f}")
    return EXIT_OK


def cmd_infer(args) -> int:
    meas_path = _existing(args.measurements, "measurements")
    measurements = MeasurementSet.load(meas_path)
    skeleton = _load_skeleton(args.skeleton)
    if args.oracle_truth is not None:
        truth_path = _existing(args.oracle_truth, "oracle truth")
        truth = load_sequence(truth_path)
        if truth.frames != measurements.frames:
            raise UsageError(f"--oracle-truth {truth_path} has {truth.frames} frames but "
                             f"--measurements {meas_path} has {measurements.frames} frames")
        denoiser = OracleDenoiser(truth.rotations)
    else:
        if args.checkpoint is None:
            raise UsageError("need --checkpoint or --oracle-truth")
        denoiser = MLPDenoiser.load(_existing(args.checkpoint, "checkpoint"))
    config = GuidanceConfig(
        guidance_scale=args.guidance_scale, sigma_l=args.sigma_l,
        covariance_mode=args.covariance_mode,
    )
    poses = run_guided_inference(measurements, skeleton, denoiser, args.steps, config,
                                 seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_sequence(out, poses)
    _echo_config(out.with_suffix(".config-echo.json"), args)
    print(f"wrote {poses.frames} frames to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = Path(args.out)
    if out.suffix == ".csv":  # the CSV row is written to out.with_suffix(".csv")
        raise UsageError(f"--out {out}: the JSON report cannot have the .csv name of the CSV row")
    pred_path, truth_path = _existing(args.pred, "--pred"), _existing(args.truth, "--truth")
    pred = load_sequence(pred_path)
    truth = load_sequence(truth_path)
    if pred.frames != truth.frames:
        raise UsageError(f"--pred {pred_path} has {pred.frames} frames but --truth "
                         f"{truth_path} has {truth.frames} frames")
    skeleton = _load_skeleton(args.skeleton)
    try:
        cell = metrics.evaluate_cell(pred, skeleton, truth, scale=args.scale, name=pred_path.stem)
    except rot6d.DegenerateRotationError as exc:
        flag, path = ("--pred", pred_path) if exc.sequence is pred else ("--truth", truth_path)
        raise UsageError(f"{flag} {path}: {exc}") from exc
    out.parent.mkdir(parents=True, exist_ok=True)
    metrics.write_report(cell, out, out.with_suffix(".csv"))
    _echo_config(out.with_suffix(".config-echo.json"), args)
    print(json.dumps(cell, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poseguide")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="expand a benchmark manifest into data files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the toy conditional denoiser")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=41)
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--hidden", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cond-spec", default="rotations", choices=list(COND_DIMS))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="guided inference from a measurement file")
    p.add_argument("--measurements", required=True)
    p.add_argument("--skeleton", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--oracle-truth", default=None,
                   help="use the oracle denoiser against this ground-truth sequence")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--eta", type=float, default=0.0, choices=[0.0],
                   help="DDIM eta; only the deterministic sampler (0) is implemented")
    p.add_argument("--guidance-scale", type=float, default=1.0)
    p.add_argument("--sigma-l", type=float, default=0.01)
    p.add_argument("--covariance-mode", default="identity", choices=["identity", "sigma"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="metrics for a prediction against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--skeleton", default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, ValueError, TrainingError, SamplerDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
