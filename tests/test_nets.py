"""The hand-written feed-forward net: forward/backward and its flat weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcover import nets
from fdcheck import assert_grad_close, backward, flatten_params, zeros_like_params

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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 64), other_rows=st.integers(2, 64),
       density=st.sampled_from([0.02, 0.1, 0.5]))
def test_a_row_forwards_to_the_same_bits_in_any_batch_of_two_or_more(seed, rows, other_rows,
                                                                     density):
    # The actor-critic's one critic pass over an episode's observations
    # relies on this: a row's output and activations do not depend on the
    # batch it rides in, as long as the batch has at least two rows (a
    # one-row product goes through BLAS's gemv, which rounds differently).
    # The rows are observation-like: 0/1 features and a few real columns,
    # the default world's shape and its actor-critic critic.
    cfg = nets.NetConfig(279, (64, 64), 7)
    real_cols = [200, 226, 252, 278]
    rng = np.random.default_rng(seed)
    params = nets.init_params(cfg, rng)

    def observations(n: int) -> np.ndarray:
        x = (rng.random((n, cfg.input_dim)) < density).astype(np.float64)
        x[:, real_cols] = rng.integers(0, 8, size=(n, len(real_cols))) / 7.0
        return x

    x, y = observations(rows), observations(other_rows)
    i, j = int(rng.integers(rows)), int(rng.integers(other_rows))
    y[j] = x[i]
    _, x_cache = nets.forward(params, x, cfg)
    _, y_cache = nets.forward(params, y, cfg)
    for layer, (a, b) in enumerate(zip(x_cache, y_cache)):
        assert a[i].tobytes() == b[j].tobytes(), layer


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
    grads = nets.backward(params, cache, dout, cfg, nets.Weights(cfg))

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
        buffers = nets.Weights(cfg)
        for _ in range(2):  # buffers that already hold a gradient are overwritten
            got = nets.backward(params, cache, dout, cfg, buffers)
            assert got is buffers and got.keys() == want.keys()
            for key in want:
                assert got[key].shape == want[key].shape
                assert got[key].tobytes() == want[key].tobytes(), (dims, key)


def test_flatten_round_trip():
    # A Weights' flat vector is its views flattened key by key, and a
    # Weights over that vector holds the same arrays.
    cfg = nets.NetConfig(6, (5, 4), 3)
    params = nets.init_params(cfg, np.random.default_rng(3))
    vec = flatten_params(params, cfg)
    assert vec.size == nets.num_params(cfg)
    assert vec.tobytes() == params.flat.tobytes()
    back = nets.Weights(cfg, vec)
    assert list(back) == list(params) == [k for pair in cfg.layer_keys for k in pair]
    for key in params:
        assert back[key].shape == params[key].shape
        np.testing.assert_array_equal(back[key], params[key])


def test_weights_write_through_to_the_flat_vector():
    cfg = nets.NetConfig(6, (5, 4), 3)
    params = nets.init_params(cfg, np.random.default_rng(4))
    vec = flatten_params(params, cfg)
    views = nets.Weights(cfg, vec)
    assert views.flat is vec
    for key in params:
        np.testing.assert_array_equal(views[key], params[key])
    views["W1"][2, 3] += 1.0
    views["b2"][:] = 0.0
    params["W1"][2, 3] += 1.0
    params["b2"][:] = 0.0
    np.testing.assert_array_equal(vec, flatten_params(params, cfg))
    np.testing.assert_array_equal(params.flat, vec)
    # And back: a write to the vector shows in every view.
    params.flat *= 2.0
    for key in params:
        np.testing.assert_array_equal(params[key], 2.0 * views[key])


def test_unflatten_rejects_wrong_length():
    # Weights views only a float64 vector of the shape's length: a
    # converted copy would not write through.
    cfg = nets.NetConfig(3, (2,), 2)
    size = nets.num_params(cfg)
    for vec in (np.zeros(size + 1), np.zeros(size - 1), np.zeros((size, 1)),
                np.zeros(size, np.float32)):
        with pytest.raises(ValueError, match="does not match the network shape"):
            nets.Weights(cfg, vec)
    assert nets.Weights(cfg).flat.tobytes() == np.zeros(size).tobytes()


def test_clone_is_independent():
    # copy() is a Weights of the same shape over a copy of the vector.
    cfg = nets.NetConfig(2, (2,), 1)
    params = nets.init_params(cfg, np.random.default_rng(5))
    twin = params.copy()
    assert isinstance(twin, nets.Weights) and twin.cfg == cfg
    assert twin.flat.tobytes() == params.flat.tobytes()
    assert not np.shares_memory(twin.flat, params.flat)
    twin["W0"][0, 0] += 1.0
    assert params["W0"][0, 0] != twin["W0"][0, 0]
    assert twin.flat[0] == twin["W0"][0, 0]
