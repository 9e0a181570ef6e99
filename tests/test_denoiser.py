"""Denoiser contracts: oracle identities, window stacks, training, config validation,
pullback, persistence."""

import numpy as np
import pytest

from poseguide.denoiser import (
    _ADAM_CHUNK, TERMINAL, MLPDenoiser, OracleDenoiser, TrainConfig, TrainingError,
    _adam_update, alpha_bar, finite_difference_vjp, make_conditioning, train_denoiser,
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
    assert make_conditioning(m, "locations").shape == (60, 9)
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
    r_hat, pullback = oracle.denoise(r_t[None], t, None, [0])
    assert np.array_equal(r_hat, truth.rotations[None])
    cot = rng.standard_normal(r_t.shape)
    assert np.array_equal(pullback(cot[None]), np.zeros_like(cot[None]))


def test_oracle_denoiser_gathers_by_starts():
    ds, _ = small_dataset(1, frames=20)
    truth = ds[0][0]
    oracle = OracleDenoiser(truth.rotations)
    rng = np.random.default_rng(1)
    r_t = rng.standard_normal((2, 5, 22, 6))
    r_hat, _ = oracle.denoise(r_t, 1.0, None, [7, 2])
    assert np.array_equal(r_hat, np.stack([truth.rotations[7:12], truth.rotations[2:7]]))
    # a window running past either end of the truth is refused by its index
    with pytest.raises(ValueError, match=r"window 1 \(frames 17 to 21\) runs past the stored "
                                         r"ground truth of 20 frames"):
        oracle.denoise(r_t, 1.0, None, [7, 17])
    with pytest.raises(ValueError, match=r"window 0 \(frames -1 to 3\)"):
        oracle.denoise(r_t, 1.0, None, [-1, 2])
    with pytest.raises(ValueError, match="does not match the stored ground truth"):
        oracle.denoise(r_t[:, :, :21], 1.0, None, [0, 2])


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


def test_adam_update_matches_textbook_adam():
    # the blocked in-place update against the per-array expressions, bit for bit,
    # on arrays smaller than one block, exactly one block, and past a block edge
    def textbook(params, grads, m, v, step, lr):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for k, g in grads.items():
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            mhat = m[k] / (1 - beta1**step)
            vhat = v[k] / (1 - beta2**step)
            params[k] -= lr * mhat / (np.sqrt(vhat) + eps)

    rng = np.random.default_rng(16)
    shapes = {"bias": (7,), "small": (30, 41), "block": (_ADAM_CHUNK,),
              "ragged": (3, _ADAM_CHUNK // 2 + 5)}
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    start = {k: p.copy() for k, p in params.items()}
    m, v, m_ref, v_ref = ({k: np.zeros(s) for k, s in shapes.items()} for _ in range(4))
    for step in range(1, 6):
        grads = {k: rng.standard_normal(s) * 10.0**-step for k, s in shapes.items()}
        _adam_update(params, grads, m, v, step, 3e-3)
        textbook(ref, grads, m_ref, v_ref, step, 3e-3)
    for k in shapes:
        assert np.array_equal(params[k], ref[k])
        assert np.array_equal(m[k], m_ref[k])
        assert np.array_equal(v[k], v_ref[k])
        assert np.all(params[k] != start[k])  # every block, the last partial one too


def test_training_errors():
    ds, _ = small_dataset()
    with pytest.raises(TrainingError):
        train_denoiser([], small_config())
    with pytest.raises(TrainingError):
        # sequences shorter than the window produce no windows
        train_denoiser(ds, small_config(window=100))


def test_train_config_refuses_bad_fields():
    for field, value in (("window", 0), ("hidden", 0), ("batch", 0), ("steps", 0),
                         ("cond_spec", "rotations+locations"), ("cond_spec", "velocities"),
                         ("step_size", -1e-3), ("step_size", 0.0), ("step_size", float("nan")),
                         ("step_size", float("inf")), ("seed", -5)):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


def test_conditioning_affects_prediction():
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.2))
    rng = np.random.default_rng(2)
    r_t = rng.standard_normal((12, 22, 6))
    c1 = make_conditioning(ds[0][1], "rotations")[:12]
    c2 = make_conditioning(ds[1][1], "rotations")[:12]
    a = model.denoise(r_t[None], 1.0, c1[None], [0])[0]
    b = model.denoise(r_t[None], 1.0, c2[None], [0])[0]
    assert np.abs(a - b).max() > 0


def test_vjp_matches_finite_differences():
    # the pullback of a 2-window stack; each window's gradient comes from its own row
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config())
    rng = np.random.default_rng(5)
    r_t = rng.standard_normal((2, 12, 22, 6))
    cond = make_conditioning(ds[0][1], "rotations")[:24].reshape(2, 12, -1)
    cot = rng.standard_normal(r_t.shape)
    got = model.denoise(r_t, 1.5, cond, [0, 12])[1](cot)
    ref = finite_difference_vjp(model, r_t, 1.5, cond, [0, 12], cot)
    assert np.abs(got - ref).max() < 1e-5


def test_denoise_stack_equals_one_window_stacks():
    model = MLPDenoiser(TrainConfig(hidden=8))
    rng = np.random.default_rng(14)
    r_t = rng.standard_normal((3, 41, 22, 6))
    cond = rng.standard_normal((3, 41, 18))
    cot = rng.standard_normal(r_t.shape)
    r_hat, pullback = model.denoise(r_t, 2.0, cond, [0, 20, 40])
    grad = pullback(cot)
    for w in range(3):
        r_hat_w, pullback_w = model.denoise(r_t[w : w + 1], 2.0, cond[w : w + 1], [20 * w])
        assert np.abs(r_hat[w] - r_hat_w[0]).max() < 1e-12
        assert np.abs(grad[w] - pullback_w(cot[w : w + 1])[0]).max() < 1e-12


def test_pack_rows_hold_state_time_and_conditioning():
    model = MLPDenoiser(TrainConfig(window=3, hidden=8))
    rng = np.random.default_rng(15)
    r_t = rng.standard_normal((2, 3, 22, 6))
    cond = rng.standard_normal((2, 3, 18))
    t = np.array([0.5, 7.0])
    X = model._pack(r_t, t, cond, np.array([False, True]))
    assert X.shape == (2, model.d_in)
    d = model.d_state
    assert np.array_equal(X[:, :d], r_t.reshape(2, -1))
    for row in range(2):
        x = 2.0 * np.pi * t[row] / TERMINAL
        want = [np.sin(k * x) for k in range(1, 5)] + [np.cos(k * x) for k in range(1, 5)]
        assert np.allclose(X[row, d : d + 8], want, rtol=0, atol=1e-15)
    assert np.array_equal(X[0, d + 8 : -1], cond[0].reshape(-1))
    assert X[0, -1] == 0.0
    # a dropped row has zeroed conditioning and the flag set
    assert np.all(X[1, d + 8 : -1] == 0.0) and X[1, -1] == 1.0
    # one time for the whole stack matches the same time given per row
    same = model._pack(r_t, 7.0, cond, np.array([False, True]))
    assert np.array_equal(same[1], X[1])
    with pytest.raises(ValueError, match="conditioning must be"):
        model._pack(r_t, t, cond[:, :2], np.array([False, False]))


def test_checkpoint_roundtrip(tmp_path):
    ds, _ = small_dataset()
    model = train_denoiser(ds, small_config(dropout_prob=0.1))
    path = tmp_path / "model.npz"
    model.save(path)
    back = MLPDenoiser.load(path)
    assert back.config == model.config
    rng = np.random.default_rng(6)
    r_t = rng.standard_normal((1, 12, 22, 6))
    cond = make_conditioning(ds[0][1], "rotations")[None, :12]
    assert np.array_equal(back.denoise(r_t, 0.7, cond, [0])[0],
                          model.denoise(r_t, 0.7, cond, [0])[0])
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
    # version 3 configs still carry the since-removed terminal and blocks fields
    for version, extra in ((99, {}), (3, {"terminal": 15.0, "blocks": 2})):
        header["version"] = version
        header["config"].update(extra)
        np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **params)
        with pytest.raises(ValueError, match=f"version {version} not supported"):
            MLPDenoiser.load(path)
