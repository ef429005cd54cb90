"""The hand-written feed-forward net: forward/backward and flat views."""

import numpy as np
import pytest

from swarmcover import nets
from fdcheck import add_scaled, assert_grad_close, backward, flatten_params, zeros_like_params

RNG = np.random.default_rng(12345)


def test_num_params_arithmetic():
    cfg = nets.NetConfig(3, (2,), 2)
    assert nets.num_params(cfg) == 3 * 2 + 2 + 2 * 2 + 2  # 14


def test_zero_params_give_zero_output_and_uniform_policy():
    cfg = nets.NetConfig(4, (3,), 10)
    params = zeros_like_params(nets.init_params(cfg, RNG))
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


def test_forward_matches_the_per_layer_temporaries():
    # Reference: each layer as ``z = h @ W + b`` then ``tanh(z)``, with
    # fresh arrays; the in-place layers must give the same bits, in the
    # output and in every cached activation, and leave the input alone.
    rng = np.random.default_rng(3)
    for cfg in (nets.NetConfig(279, (64, 64), 35), nets.NetConfig(11, (8,), 1),
                nets.NetConfig(6, (), 4)):
        params = nets.init_params(cfg, rng)
        for rows in (None, 1, 2, 26, 64):
            x = rng.random(cfg.input_dim if rows is None else (rows, cfg.input_dim))
            x_before = x.copy()
            out, cache = nets.forward(params, x, cfg)
            h = np.atleast_2d(x)
            want = [h]
            for i in range(cfg.n_layers):
                z = h @ params[f"W{i}"] + params[f"b{i}"]
                h = np.tanh(z) if i < cfg.n_layers - 1 else z
                want.append(h)
            assert out.shape == (1 if rows is None else rows, cfg.out_dim)
            assert out.tobytes() == h.tobytes()
            assert [a.tobytes() for a in cache] == [a.tobytes() for a in want]
            assert x.tobytes() == x_before.tobytes()


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
    grads = nets.backward(params, cache, dout, cfg, nets.grad_buffers(cfg))

    def scalar(p):
        y, _ = nets.forward(p, x, cfg)
        return float((dout * y).sum())

    assert_grad_close(grads, params, cfg, scalar)


def test_backward_into_buffers_equals_fresh_arrays():
    rng = np.random.default_rng(8)
    for dims, rows in [((279, (64, 64), 35), 64), ((279, (64, 64), 7), 25),
                       ((279, (64, 64), 1), 25), ((5, (3,), 2), 1), ((4, (6, 5), 3), 9)]:
        cfg = nets.NetConfig(dims[0], dims[1], dims[2])
        params = nets.init_params(cfg, rng)
        x = rng.normal(size=(rows, cfg.input_dim)) * (rng.random((rows, cfg.input_dim)) < 0.3)
        _, cache = nets.forward(params, x, cfg)
        dout = rng.normal(size=(rows, cfg.out_dim))
        want = backward(params, cache, dout, cfg)
        buffers = nets.grad_buffers(cfg)
        for _ in range(2):  # buffers that already hold a gradient are overwritten
            got = nets.backward(params, cache, dout, cfg, buffers)
            assert got is buffers and got.keys() == want.keys()
            for key in want:
                assert got[key].shape == want[key].shape
                assert got[key].tobytes() == want[key].tobytes(), (dims, key)


def test_flatten_round_trip():
    cfg = nets.NetConfig(6, (5, 4), 3)
    params = nets.init_params(cfg, np.random.default_rng(3))
    vec = flatten_params(params, cfg)
    assert vec.size == nets.num_params(cfg)
    back = nets.flat_views(vec, cfg)
    for key in params:
        np.testing.assert_array_equal(back[key], params[key])


def test_flat_views_write_through_to_the_vector():
    cfg = nets.NetConfig(6, (5, 4), 3)
    params = nets.init_params(cfg, np.random.default_rng(4))
    vec = flatten_params(params, cfg)
    views = nets.flat_views(vec, cfg)
    for key in params:
        np.testing.assert_array_equal(views[key], params[key])
    views["W1"][2, 3] += 1.0
    views["b2"][:] = 0.0
    params["W1"][2, 3] += 1.0
    params["b2"][:] = 0.0
    np.testing.assert_array_equal(vec, flatten_params(params, cfg))


def test_unflatten_rejects_wrong_length():
    # flat_views unflattens a vector, and refuses one of the wrong length.
    cfg = nets.NetConfig(3, (2,), 2)
    with pytest.raises(ValueError):
        nets.flat_views(np.zeros(nets.num_params(cfg) + 1), cfg)


def test_add_accumulates_in_place():
    # add adds one dict of arrays into another in place: the step of a
    # gradient already scaled in place.
    cfg = nets.NetConfig(2, (2,), 1)
    params = nets.init_params(cfg, np.random.default_rng(4))
    grads = {k: np.ones_like(v) for k, v in params.items()}
    before = nets.clone_params(params)
    add_scaled(params, grads, 0.5)
    for k in params:
        np.testing.assert_allclose(params[k], before[k] + 0.5)

    acc = zeros_like_params(params)
    nets.add(acc, grads)
    nets.add(acc, grads)
    for k in acc:
        np.testing.assert_allclose(acc[k], 2.0)

    # It is the reference's unit step, bit for bit, and leaves the gradients be.
    rng = np.random.default_rng(6)
    grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
    want = nets.clone_params(params)
    add_scaled(want, grads, 1.0)
    kept = nets.clone_params(grads)
    nets.add(params, grads)
    for k in params:
        assert params[k].tobytes() == want[k].tobytes()
        assert grads[k].tobytes() == kept[k].tobytes()


def test_clone_is_independent():
    cfg = nets.NetConfig(2, (2,), 1)
    params = nets.init_params(cfg, np.random.default_rng(5))
    twin = nets.clone_params(params)
    twin["W0"][0, 0] += 1.0
    assert params["W0"][0, 0] != twin["W0"][0, 0]

