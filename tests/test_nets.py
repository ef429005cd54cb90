"""The hand-written feed-forward net: forward/backward, flat views, checkpoints."""

import numpy as np
import pytest

from swarmcover import nets
from fdcheck import assert_grad_close

RNG = np.random.default_rng(12345)


def test_num_params_arithmetic():
    cfg = nets.NetConfig(3, (2,), 2)
    assert nets.num_params(cfg) == 3 * 2 + 2 + 2 * 2 + 2  # 14


def test_zero_params_give_zero_output_and_uniform_policy():
    cfg = nets.NetConfig(4, (3,), 10)
    params = nets.zeros_like_params(nets.init_params(cfg, RNG))
    out, _ = nets.forward(params, np.ones((1, 4)), cfg)
    assert np.all(out == 0.0)
    probs = nets.softmax(out.reshape(1, 2, 5))
    assert probs.shape == (1, 2, 5)
    np.testing.assert_allclose(probs, 0.2)


def test_forward_is_pure():
    cfg = nets.NetConfig(5, (4, 3), 2)
    params = nets.init_params(cfg, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(6, 5))
    a, _ = nets.forward(params, x, cfg)
    b, _ = nets.forward(params, x, cfg)
    np.testing.assert_array_equal(a, b)


def test_softmax_rows_sum_to_one():
    logits = np.random.default_rng(2).normal(scale=30.0, size=(7, 3, 5))
    probs = nets.softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(probs > 0.0)


def test_backward_matches_finite_differences():
    cfg = nets.NetConfig(3, (2,), 2)
    rng = np.random.default_rng(7)
    params = nets.init_params(cfg, rng)
    x = rng.normal(size=(4, 3))
    dout = rng.normal(size=(4, 2))

    out, cache = nets.forward(params, x, cfg)
    grads = nets.backward(params, cache, dout, cfg)

    def scalar(p):
        y, _ = nets.forward(p, x, cfg)
        return float((dout * y).sum())

    assert_grad_close(grads, params, cfg, scalar)


def test_flatten_round_trip():
    cfg = nets.NetConfig(6, (5, 4), 3)
    params = nets.init_params(cfg, np.random.default_rng(3))
    vec = nets.flatten_params(params, cfg)
    assert vec.size == nets.num_params(cfg)
    back = nets.unflatten_params(vec, cfg)
    for key in params:
        np.testing.assert_array_equal(back[key], params[key])


def test_flat_views_write_through_to_the_vector():
    cfg = nets.NetConfig(6, (5, 4), 3)
    params = nets.init_params(cfg, np.random.default_rng(4))
    vec = nets.flatten_params(params, cfg)
    views = nets.flat_views(vec, cfg)
    for key in params:
        np.testing.assert_array_equal(views[key], params[key])
    views["W1"][2, 3] += 1.0
    views["b2"][:] = 0.0
    edited = nets.unflatten_params(vec, cfg)
    assert edited["W1"][2, 3] == params["W1"][2, 3] + 1.0
    np.testing.assert_array_equal(edited["b2"], 0.0)


def test_unflatten_rejects_wrong_length():
    cfg = nets.NetConfig(3, (2,), 2)
    with pytest.raises(ValueError):
        nets.unflatten_params(np.zeros(nets.num_params(cfg) + 1), cfg)


def test_add_scaled_and_accumulate():
    cfg = nets.NetConfig(2, (2,), 1)
    params = nets.init_params(cfg, np.random.default_rng(4))
    grads = {k: np.ones_like(v) for k, v in params.items()}
    before = nets.clone_params(params)
    nets.add_scaled(params, grads, 0.5)
    for k in params:
        np.testing.assert_allclose(params[k], before[k] + 0.5)

    acc = nets.zeros_like_params(params)
    nets.accumulate(acc, grads)
    nets.accumulate(acc, grads)
    for k in acc:
        np.testing.assert_allclose(acc[k], 2.0)


def test_clone_is_independent():
    cfg = nets.NetConfig(2, (2,), 1)
    params = nets.init_params(cfg, np.random.default_rng(5))
    twin = nets.clone_params(params)
    twin["W0"][0, 0] += 1.0
    assert params["W0"][0, 0] != twin["W0"][0, 0]


def test_checkpoint_round_trip(tmp_path):
    cfg_a = nets.NetConfig(4, (3,), 10)
    cfg_c = nets.NetConfig(4, (3,), 1)
    rng = np.random.default_rng(6)
    actor = nets.init_params(cfg_a, rng)
    critic = nets.init_params(cfg_c, rng)
    path = tmp_path / "ckpt.npz"
    nets.save_checkpoint(path, {"actor": (actor, cfg_a), "critic": (critic, cfg_c)},
                         extra={"episode": 17})
    bundles, extra = nets.load_checkpoint(path)
    assert extra == {"episode": 17}
    assert bundles["actor"][1] == cfg_a
    for k, v in actor.items():
        np.testing.assert_array_equal(bundles["actor"][0][k], v)
    for k, v in critic.items():
        np.testing.assert_array_equal(bundles["critic"][0][k], v)


def test_checkpoint_rejects_foreign_version(tmp_path):
    import json
    cfg = nets.NetConfig(2, (2,), 1)
    params = nets.init_params(cfg, np.random.default_rng(8))
    path = tmp_path / "ckpt.npz"
    nets.save_checkpoint(path, {"net": (params, cfg)})
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta["format_version"] = 999
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="version"):
        nets.load_checkpoint(path)
