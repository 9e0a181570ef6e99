"""Denoiser contracts: oracle identities, training, config validation, pullback, persistence."""

import numpy as np
import pytest

from poseguide.denoiser import (
    CapabilityError, MLPDenoiser, OracleDenoiser, TrainConfig, TrainingError,
    alpha_bar, cond_dim, finite_difference_vjp, make_conditioning, train_denoiser,
)
from poseguide.datagen import MotionSpec, generate_motion
from poseguide.measurement import extract_measurements
from poseguide.skeleton import default_skeleton


def small_dataset(n_seqs=3, frames=60):
    skel = default_skeleton()
    kinds = ("reach", "arm-swing", "walk")
    seqs = [generate_motion(MotionSpec(kind=kinds[s % 3], frames=frames, seed=s), skel)
            for s in range(n_seqs)]
    return [(s, extract_measurements(s, skel, 0.0, 0.0, seed=i))
            for i, s in enumerate(seqs)], skel


def small_config(**kw):
    base = dict(window=12, steps=60, hidden=24, batch=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_make_conditioning_shapes():
    ds, _ = small_dataset(1)
    m = ds[0][1]
    assert make_conditioning(m, "rotations").shape == (60, 18)
    assert make_conditioning(m, "rotations+locations").shape == (60, 27)
    assert make_conditioning(m, "locations").shape == (60, 9)
    assert cond_dim("rotations") == 18
    assert cond_dim("rotations+locations") == 27
    assert cond_dim("locations") == 9
    with pytest.raises(ValueError):
        make_conditioning(m, "velocities")


def test_oracle_denoiser_identities():
    # the oracle denoises to the ground truth exactly, and its estimate has
    # zero sensitivity to the noisy input
    ds, _ = small_dataset(1, frames=20)
    truth = ds[0][0]
    oracle = OracleDenoiser(truth.rotations)
    rng = np.random.default_rng(0)
    t = 2.5
    ab = alpha_bar(t)
    noise = rng.standard_normal(truth.rotations.shape)
    r_t = np.sqrt(ab) * truth.rotations + np.sqrt(1 - ab) * noise
    r_hat, pullback = oracle.denoise(r_t, t, None)
    assert np.array_equal(r_hat, truth.rotations)
    cot = rng.standard_normal(r_t.shape)
    assert np.array_equal(pullback(cot), np.zeros_like(cot))


def test_oracle_denoiser_frame_offset():
    ds, _ = small_dataset(1, frames=20)
    truth = ds[0][0]
    oracle = OracleDenoiser(truth.rotations)
    rng = np.random.default_rng(1)
    r_t = rng.standard_normal((5, 22, 6))
    r_hat, _ = oracle.denoise(r_t, 1.0, None, frame_offset=7)
    assert np.array_equal(r_hat, truth.rotations[7:12])
    with pytest.raises(ValueError, match="ground truth"):
        oracle.denoise(r_t, 1.0, None, frame_offset=17)


def test_training_is_deterministic():
    ds, _ = small_dataset()
    a = train_denoiser(ds, small_config())
    b = train_denoiser(ds, small_config())
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_training_reduces_loss():
    ds, _ = small_dataset()
    losses = []
    train_denoiser(ds, small_config(steps=400), loss_callback=lambda s, l: losses.append(l))
    head = np.mean(losses[:20])
    tail = np.mean(losses[-20:])
    assert tail < 0.25 * head


def test_training_errors():
    ds, _ = small_dataset()
    with pytest.raises(TrainingError):
        train_denoiser([], small_config())
    with pytest.raises(TrainingError):
        # sequences shorter than the window produce no windows
        train_denoiser(ds, small_config(window=100))


def test_train_config_refuses_bad_fields():
    for field, value in (("terminal", 0.0), ("terminal", -1.0), ("terminal", np.inf),
                         ("terminal", np.nan), ("window", 0), ("hidden", 0), ("batch", 0),
                         ("steps", 0), ("blocks", -1)):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
    assert TrainConfig(blocks=0).blocks == 0


def test_conditioning_affects_prediction():
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.2))
    rng = np.random.default_rng(2)
    r_t = rng.standard_normal((12, 22, 6))
    c1 = make_conditioning(ds[0][1], "rotations")[:12]
    c2 = make_conditioning(ds[1][1], "rotations")[:12]
    assert np.abs(model.denoise(r_t, 1.0, c1)[0] - model.denoise(r_t, 1.0, c2)[0]).max() > 0


def test_unconditional_path_requires_dropout():
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.0))
    rng = np.random.default_rng(3)
    r_t = rng.standard_normal((12, 22, 6))
    with pytest.raises(CapabilityError):
        model.denoise(r_t, 1.0, None)
    model2 = train_denoiser(ds, small_config(dropout_prob=0.2))
    assert model2.denoise(r_t, 1.0, None)[0].shape == r_t.shape


def test_vjp_matches_finite_differences():
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config())
    rng = np.random.default_rng(5)
    r_t = rng.standard_normal((12, 22, 6))
    cond = make_conditioning(ds[0][1], "rotations")[:12]
    cot = rng.standard_normal(r_t.shape)
    got = model.denoise(r_t, 1.5, cond)[1](cot)
    ref = finite_difference_vjp(model, r_t, 1.5, cond, cot)
    assert np.abs(got - ref).max() < 1e-5


def test_checkpoint_roundtrip(tmp_path):
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.1))
    path = tmp_path / "model.npz"
    model.save(path)
    back = MLPDenoiser.load(path)
    assert back.config == model.config
    rng = np.random.default_rng(6)
    r_t = rng.standard_normal((12, 22, 6))
    cond = make_conditioning(ds[0][1], "rotations")[:12]
    assert np.array_equal(back.denoise(r_t, 0.7, cond)[0], model.denoise(r_t, 0.7, cond)[0])
    assert model.param_count() == back.param_count()


def test_checkpoint_version_guard(tmp_path):
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config())
    path = tmp_path / "model.npz"
    model.save(path)
    import json
    with np.load(path) as blob:
        header = json.loads(bytes(blob["__header__"]).decode())
        params = {k: blob[k] for k in blob.files if k != "__header__"}
    header["version"] = 99
    np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
             **params)
    with pytest.raises(ValueError, match="version"):
        MLPDenoiser.load(path)
