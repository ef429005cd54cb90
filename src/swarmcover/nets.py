"""Dense policy/value networks with explicit numpy backprop.

Parameters live in plain dicts ("W0", "b0", "W1", ...) so learners can
clone, flatten, interpolate and serialize them without a framework.
Hidden layers are tanh, the output layer is linear. The policy network
emits one block of action logits per UAV slot; a separate value network
emits a scalar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def param_keys(cfg: NetConfig) -> list[str]:
    keys = []
    for i in range(cfg.n_layers):
        keys.extend((f"W{i}", f"b{i}"))
    return keys


def init_params(cfg: NetConfig, rng: np.random.Generator, scale: float = 1.0) -> dict:
    """Fan-in scaled gaussian weights, zero biases."""
    params = {}
    dims = cfg.dims
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        params[f"W{i}"] = rng.standard_normal((a, b)) * (scale / np.sqrt(a))
        params[f"b{i}"] = np.zeros(b)
    return params


def zeros_like_params(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


def clone_params(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}


def add_scaled(params: dict, grads: dict, scale: float) -> None:
    """In-place params += scale * grads."""
    for k in params:
        params[k] += scale * grads[k]


def accumulate(into: dict, grads: dict, scale: float = 1.0) -> None:
    for k in into:
        into[k] += scale * grads[k]


def forward(params: dict, x: np.ndarray, cfg: NetConfig) -> tuple[np.ndarray, list]:
    """Run the net on a batch; returns output and the activation cache."""
    h = np.atleast_2d(x)
    cache = [h]
    for i in range(cfg.n_layers):
        z = h @ params[f"W{i}"] + params[f"b{i}"]
        h = np.tanh(z) if i < cfg.n_layers - 1 else z
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

def flatten_params(params: dict, cfg: NetConfig) -> np.ndarray:
    return np.concatenate([params[k].ravel() for k in param_keys(cfg)])


def unflatten_params(vec: np.ndarray, cfg: NetConfig) -> dict:
    return clone_params(flat_views(vec, cfg))


def flat_views(vec: np.ndarray, cfg: NetConfig) -> dict:
    """Parameter-shaped views into ``vec``, in :func:`flatten_params` order;
    writing through a view writes ``vec``."""
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


# --- checkpoints ------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, bundles: dict[str, tuple[dict, NetConfig]], extra: dict | None = None) -> None:
    """Write named parameter bundles to an .npz checkpoint.

    ``bundles`` maps a name (e.g. "actor") to (params, cfg). Shapes and
    a format version ride along in a JSON header entry.
    """
    arrays = {}
    meta = {"format_version": CHECKPOINT_VERSION, "nets": {}, "extra": extra or {}}
    for name, (params, cfg) in bundles.items():
        meta["nets"][name] = {
            "input_dim": cfg.input_dim,
            "hidden": list(cfg.hidden),
            "out_dim": cfg.out_dim,
        }
        for k, v in params.items():
            arrays[f"{name}__{k}"] = v
    arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[dict[str, tuple[dict, NetConfig]], dict]:
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(str(npz["__meta__"]))
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('format_version')!r}")
        bundles = {}
        for name, shape in meta["nets"].items():
            cfg = NetConfig(int(shape["input_dim"]), tuple(shape["hidden"]), int(shape["out_dim"]))
            params = {}
            prefix = f"{name}__"
            for key in npz.files:
                if key.startswith(prefix):
                    params[key[len(prefix):]] = npz[key].copy()
            bundles[name] = (params, cfg)
    return bundles, meta["extra"]
