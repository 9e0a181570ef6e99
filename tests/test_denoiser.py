"""Denoiser contracts: oracle identities, training, CFG, persistence."""

import numpy as np
import pytest

from poseguide.denoiser import (
    CapabilityError, MLPDenoiser, OracleDenoiser, TrainConfig, TrainingError,
    alpha_bar, cond_dim, finite_difference_vjp, make_conditioning, predict_with_cfg,
    train_denoiser,
)
from poseguide.datagen import MotionSpec, generate_motion
from poseguide.measurement import extract_measurements
from poseguide.skeleton import default_skeleton
from poseguide.sampler import tweedie_denoise


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
    # the oracle's noise estimate inverts the forward noising exactly, and
    # its denoised estimate has zero sensitivity to the noisy input
    ds, _ = small_dataset(1, frames=20)
    truth = ds[0][0]
    oracle = OracleDenoiser(truth.rotations)
    rng = np.random.default_rng(0)
    t = 2.5
    ab = alpha_bar(t)
    noise = rng.standard_normal(truth.rotations.shape)
    r_t = np.sqrt(ab) * truth.rotations + np.sqrt(1 - ab) * noise
    eps = oracle.predict(r_t, t)
    assert np.abs(eps - noise).max() < 1e-10
    r_hat = tweedie_denoise(r_t, eps, ab)
    assert np.abs(r_hat - truth.rotations).max() < 1e-10
    cot = rng.standard_normal(r_t.shape)
    assert np.array_equal(oracle.vjp(r_t, t, None, cot), np.zeros_like(cot))


def test_oracle_denoiser_frame_offset():
    ds, _ = small_dataset(1, frames=20)
    truth = ds[0][0]
    oracle = OracleDenoiser(truth.rotations)
    rng = np.random.default_rng(1)
    r_t = rng.standard_normal((5, 22, 6))
    t = 1.0
    ab = alpha_bar(t)
    eps = oracle.predict(r_t, t, frame_offset=7)
    r_hat = tweedie_denoise(r_t, eps, ab)
    assert np.abs(r_hat - truth.rotations[7:12]).max() < 1e-10


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


def test_conditioning_affects_prediction():
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.2))
    rng = np.random.default_rng(2)
    r_t = rng.standard_normal((12, 22, 6))
    c1 = make_conditioning(ds[0][1], "rotations")[:12]
    c2 = make_conditioning(ds[1][1], "rotations")[:12]
    assert np.abs(model.predict(r_t, 1.0, c1) - model.predict(r_t, 1.0, c2)).max() > 0


def test_unconditional_path_requires_dropout():
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.0))
    rng = np.random.default_rng(3)
    r_t = rng.standard_normal((12, 22, 6))
    with pytest.raises(CapabilityError):
        model.predict(r_t, 1.0, None)
    model2 = train_denoiser(ds, small_config(dropout_prob=0.2))
    assert model2.predict(r_t, 1.0, None).shape == r_t.shape


def test_cfg_combination_is_the_two_call_formula():
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.2))
    rng = np.random.default_rng(4)
    r_t = rng.standard_normal((12, 22, 6))
    cond = make_conditioning(ds[0][1], "rotations")[:12]
    eps_u = model.predict(r_t, 1.0, None)
    eps_c = model.predict(r_t, 1.0, cond)
    for w in (0.0, 1.0, 2.5):
        got = predict_with_cfg(model, r_t, 1.0, cond, cfg_weight=w)
        assert np.allclose(got, eps_u + w * (eps_c - eps_u), atol=1e-12)


def test_vjp_matches_finite_differences():
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config())
    rng = np.random.default_rng(5)
    r_t = rng.standard_normal((12, 22, 6))
    cond = make_conditioning(ds[0][1], "rotations")[:12]
    cot = rng.standard_normal(r_t.shape)
    got = model.vjp(r_t, 1.5, cond, cot)
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
    assert np.array_equal(back.predict(r_t, 0.7, cond), model.predict(r_t, 0.7, cond))
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
