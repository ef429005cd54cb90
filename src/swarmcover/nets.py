"""Dense policy/value networks with explicit numpy backprop.

Parameters live in plain dicts ("W0", "b0", "W1", ...) so learners can
clone, flatten and interpolate them without a framework. Hidden layers
are tanh, the output layer is linear. The policy network emits one block
of action logits per UAV slot; a separate value network emits one value
per UAV slot (the actor-critic's) or a single value (PPO's).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    hidden: tuple[int, ...]
    out_dim: int

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.out_dim)

    @property
    def n_layers(self) -> int:
        return len(self.hidden) + 1

    @cached_property
    def layer_keys(self) -> tuple[tuple[str, str], ...]:
        """``(weight key, bias key)`` of every layer, input side first."""
        return tuple((f"W{i}", f"b{i}") for i in range(self.n_layers))


def init_params(cfg: NetConfig, rng: np.random.Generator) -> dict:
    """Fan-in scaled gaussian weights, zero biases."""
    params = {}
    dims = cfg.dims
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        # Times the reciprocal, not divided: the two round differently.
        params[f"W{i}"] = rng.standard_normal((a, b)) * (1.0 / np.sqrt(a))
        params[f"b{i}"] = np.zeros(b)
    return params


def clone_params(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}


def add_scaled(params: dict, grads: dict, scale: float) -> None:
    """In-place params += scale * grads."""
    for k in params:
        # 1.0 * g == g bit for bit, so a unit step adds without a temporary.
        params[k] += grads[k] if scale == 1.0 else scale * grads[k]


def forward(params: dict, x: np.ndarray, cfg: NetConfig) -> tuple[np.ndarray, list]:
    """Run the net on a batch; returns output and the activation cache."""
    h = np.atleast_2d(x)
    cache = [h]
    *hidden, (w_out, b_out) = cfg.layer_keys
    for w, b in hidden:
        h = h @ params[w]
        h += params[b]
        np.tanh(h, out=h)
        cache.append(h)
    h = h @ params[w_out]
    h += params[b_out]
    cache.append(h)
    return h, cache


def backward(params: dict, cache: list, dout: np.ndarray, cfg: NetConfig) -> dict:
    """Gradients of sum(dout * output) w.r.t. every parameter."""
    grads = {}
    d = np.atleast_2d(dout)
    for i in reversed(range(cfg.n_layers)):
        h_prev = cache[i]
        grads[f"W{i}"] = h_prev.T @ d
        grads[f"b{i}"] = d.sum(axis=0)
        if i > 0:
            d = (d @ params[f"W{i}"].T) * (1.0 - cache[i] ** 2)  # tanh'
    return grads


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# --- flat-vector views (finite differencing, interpolation) ----------------

def flat_views(vec: np.ndarray, cfg: NetConfig) -> dict:
    """Parameter-shaped views into ``vec``, laid out layer by layer as
    ``W0, b0, W1, b1, ...``, each row-major; writing through a view writes
    ``vec``."""
    views = {}
    offset = 0
    dims = cfg.dims
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        views[f"W{i}"] = vec[offset : offset + a * b].reshape(a, b)
        offset += a * b
        views[f"b{i}"] = vec[offset : offset + b]
        offset += b
    if offset != vec.size:
        raise ValueError("flat vector does not match the network shape")
    return views


def num_params(cfg: NetConfig) -> int:
    dims = cfg.dims
    return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))

