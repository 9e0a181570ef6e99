"""Train a small rotation-conditioned prior and run guided inference.

The prior sees only the measured head/wrist *rotations* (scale-free); the
wrist *locations* enter purely through guidance, whitened by the pushforward
covariance and the sensor noise level.  A quick 400-step training run is
enough to show the pipeline end to end; the acceptance suite uses 1500
steps for the quantitative trend checks.
"""

import time

import numpy as np

from poseguide.datagen import MotionSpec, generate_motion, scale_ground_truth
from poseguide.denoiser import TrainConfig, train_denoiser
from poseguide.measurement import extract_measurements
from poseguide.metrics import evaluate_cell
from poseguide.sampler import GuidanceConfig, run_guided_inference
from poseguide.skeleton import default_skeleton

t0 = time.time()
skel = default_skeleton()

print("generating training motions ...")
seqs = []
for kind, count in (("reach", 4), ("arm-swing", 2), ("idle-sway", 1)):
    for s in range(count):
        seqs.append(generate_motion(MotionSpec(kind=kind, frames=123, seed=100 + s), skel))
dataset = [(s, extract_measurements(s, skel, 0.0, seed=i))
           for i, s in enumerate(seqs)]

losses = []
prior = train_denoiser(
    dataset,
    TrainConfig(steps=400, seed=0, cond_spec="rotations", dropout_prob=0.1),
    loss_callback=lambda s, l: losses.append(l),
)
print(f"trained 400 steps in {time.time() - t0:.0f}s; "
      f"loss {losses[0]:.3f} -> {np.mean(losses[-20:]):.3f}")

cells = []
for scale in (0.8, 1.0, 1.2):
    seq0 = generate_motion(MotionSpec(kind="reach", frames=82, seed=900), skel)
    truth, sk = scale_ground_truth(seq0, skel, f"uniform:{scale}")
    meas = extract_measurements(truth, sk, 0.0, seed=1)
    cfg = GuidanceConfig(guidance_scale=1.0, sigma_l=0.01)
    pred = run_guided_inference(meas, sk, prior, 50, cfg, seed=3)
    cells.append(evaluate_cell(pred, sk, truth, scale, f"reach_uniform{scale}"))

for cell in cells:
    print(f"{cell['name']}: mpjpe {cell['mpjpe']:.2f} cm "
          f"(scaled {cell['scaled_mpjpe']:.2f}), mpjre {cell['mpjre']:.2f} deg")
print(f"total {time.time() - t0:.0f}s")
