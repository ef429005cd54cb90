"""Central finite-difference gradient checking for the hand-written nets.

Every analytic gradient in the package is validated against the slow,
obviously-correct estimate (f(x + h) - f(x - h)) / 2h applied to each
parameter entry in turn. The fresh-array :func:`backward` and
:func:`add_scaled` are the references the package's buffered gradients
and in-place steps are held to bit for bit.
"""

from __future__ import annotations

import numpy as np

from swarmcover import agents as ag
from swarmcover import nets

FD_STEP = 1e-5
FD_RTOL = 1e-4


def param_keys(cfg: nets.NetConfig) -> list[str]:
    keys = []
    for i in range(cfg.n_layers):
        keys.extend((f"W{i}", f"b{i}"))
    return keys


def backward(params: dict, cache: list, dout: np.ndarray, cfg: nets.NetConfig) -> dict:
    """Reference for :func:`nets.backward`: the same gradients, each in a
    fresh array."""
    grads = {}
    d = np.atleast_2d(dout)
    for i in reversed(range(cfg.n_layers)):
        w, b = cfg.layer_keys[i]
        grads[w] = cache[i].T @ d
        grads[b] = d.sum(axis=0)
        if i > 0:
            d = (d @ params[w].T) * (1.0 - cache[i] ** 2)  # tanh'
    return grads


def add_scaled(params: dict, grads: dict, scale: float) -> None:
    """Reference step: in-place params += scale * grads, each product a
    fresh array."""
    for k in params:
        params[k] += scale * grads[k]


def zeros_like_params(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


def zero_grads(params: ag.PolicyParams) -> ag.GradAccumulator:
    """Zeroed actor and critic gradient buffers shaped like ``params``."""
    return ag.GradAccumulator(zeros_like_params(params.actor), zeros_like_params(params.critic))


def flatten_params(params: dict, cfg: nets.NetConfig) -> np.ndarray:
    """A copy of every parameter in one vector, in :func:`nets.flat_views` order."""
    return np.concatenate([params[k].ravel() for k in param_keys(cfg)])


def numeric_grad(params: dict, cfg: nets.NetConfig, scalar_fn, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of ``scalar_fn(params)`` over every entry."""
    vec = flatten_params(params, cfg)
    out = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        down = vec.copy()
        up[i] += step
        down[i] -= step
        f_up = scalar_fn(nets.flat_views(up, cfg))
        f_down = scalar_fn(nets.flat_views(down, cfg))
        out[i] = (f_up - f_down) / (2.0 * step)
    return out


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm of the difference, scaled by the larger of the two norms."""
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / scale)


def assert_grad_close(analytic_grads: dict, params: dict, cfg: nets.NetConfig,
                      scalar_fn, rtol: float = FD_RTOL) -> None:
    analytic = flatten_params(analytic_grads, cfg)
    numeric = numeric_grad(params, cfg, scalar_fn)
    err = relative_error(analytic, numeric)
    assert err < rtol, f"gradient mismatch: relative error {err:.2e} >= {rtol:.0e}"
