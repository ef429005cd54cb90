"""Dense policy/value networks with explicit numpy backprop.

A network's parameters are one flat float64 vector, read by layer through
a :class:`Weights` dict of views ("W0", "b0", "W1", ...). Gradients share
that layout, so a step, a clone or an interpolation is one vector
operation. Hidden layers are tanh, the output layer is linear. The policy
network emits one block of action logits per UAV slot; a separate value
network emits one value per UAV slot (the actor-critic's) or one (PPO's).
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


class Weights(dict):
    """One network's parameters: the float64 vector ``flat`` and, by key,
    its views ``W0, b0, W1, b1, ...``, layer by layer, each row-major.
    ``Weights(cfg)`` is all zeros; ``Weights(cfg, vec)`` views ``vec``
    itself, so writes through either side show in both."""

    def __init__(self, cfg: NetConfig, flat: np.ndarray | None = None) -> None:
        super().__init__()
        flat = np.zeros(num_params(cfg)) if flat is None else flat
        if flat.dtype != np.float64 or flat.shape != (num_params(cfg),):
            raise ValueError("flat vector does not match the network shape")
        self.cfg, self.flat = cfg, flat
        offset = 0
        for (w, b), (m, n) in zip(cfg.layer_keys, zip(cfg.dims[:-1], cfg.dims[1:])):
            self[w] = flat[offset : offset + m * n].reshape(m, n)
            offset += m * n
            self[b] = flat[offset : offset + n]
            offset += n

    def copy(self) -> "Weights":
        return Weights(self.cfg, self.flat.copy())


def init_params(cfg: NetConfig, rng: np.random.Generator) -> Weights:
    """Fan-in scaled gaussian weights, zero biases."""
    params = Weights(cfg)
    for (w, _), a in zip(cfg.layer_keys, cfg.dims):
        # Times the reciprocal, not divided: the two round differently.
        np.multiply(rng.standard_normal(params[w].shape), 1.0 / np.sqrt(a), out=params[w])
    return params


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


def backward(params: dict, cache: list, dout: np.ndarray, cfg: NetConfig, out: dict) -> dict:
    """Gradients of sum(dout * output) w.r.t. every parameter, written into
    ``out``'s parameter-shaped arrays (a :class:`Weights`, so the gradient
    is one flat vector too); returns ``out``."""
    d = np.atleast_2d(dout)
    for i in reversed(range(cfg.n_layers)):
        w, b = cfg.layer_keys[i]
        np.matmul(cache[i].T, d, out=out[w])
        d.sum(axis=0, out=out[b])
        if i > 0:
            d = (d @ params[w].T) * (1.0 - cache[i] ** 2)  # tanh'
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def num_params(cfg: NetConfig) -> int:
    dims = cfg.dims
    return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))

