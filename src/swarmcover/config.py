"""Experiment configuration: JSON files, defaults, overrides, validation.

A config file is a JSON object with up to six sections, each the fields
of one dataclass::

    {
      "run":     {... RunSettings fields ...},
      "mission": {... MissionConfig fields ...},
      "link":    {... AirGroundParams fields ...},
      "radio":   {... RadioConfig fields ...},
      "env":     {... EnvConfig fields, "events": [{episode, kind, count}] ...},
      "agent":   {... AgentConfig fields ...}
    }

A config comes from three places only: the built-in defaults, the
file, and the ``overrides`` a caller passes (the CLI flags). Every
section is built by :func:`_build`, so each setting has one spelling,
its field name. Every key is optional but an event's ``episode`` and
``kind``; an empty file (or no file) resolves to the full default
parameter set. Unknown sections and unknown keys are rejected by name
rather than ignored, as are the non-JSON literals ``NaN`` and
``Infinity``, a value whose JSON type does not fit its field is
rejected by ``section.key``, and out-of-range values fail inside the
dataclass constructors. ``dataclasses.asdict`` of an
:class:`ExperimentConfig`, written as ``resolved_config.json``, loads
back into an equal config.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from . import link_budget as lb
from . import mission as ms
from .env import EnvConfig
from .oracle import ExactInstance

SECTIONS = ("run", "mission", "link", "radio", "env", "agent")

#: The learners ``agents.make_learner`` builds, by name.
ALGORITHMS = ("meta_rl", "actor_critic", "dqn", "ppo", "random")


@dataclass(frozen=True)
class RunSettings:
    """Experiment-level settings that belong to no simulation module."""

    scenario: str = "default"
    algorithm: str = "meta_rl"
    episodes: int = 300
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "results"
    ma_window: int = 50
    plateau_tail: float = 0.1
    convergence_level: float = 0.9

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r} (known: {', '.join(ALGORITHMS)})"
            )
        if self.episodes < 1:
            raise ValueError("episodes must be at least 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            # A repeated seed would train twice into one directory and
            # count twice in a comparison's mean and std.
            raise ValueError(f"seeds must be distinct (got {list(self.seeds)})")
        if self.ma_window < 1:
            raise ValueError("moving-average window must be at least 1")
        if not 0.0 < self.plateau_tail <= 1.0:
            raise ValueError("plateau tail must lie in (0, 1]")
        if not 0.0 < self.convergence_level <= 1.0:
            raise ValueError("convergence level must lie in (0, 1]")


#: The counts and periods of ``AgentConfig``; each divides or bounds a loop.
_COUNTS = ("target_refresh", "dqn_update_interval", "ppo_epochs",
           "meta_inner_episodes", "meta_tasks_per_update")


@dataclass(frozen=True)
class AgentConfig:
    """The learners' settings, read by :mod:`swarmcover.agents`."""

    gamma: float = 0.85
    learning_rate: float = 1e-4  # SGD step of DQN and PPO; see agents.AC_LEARNING_RATE
    hidden: tuple[int, ...] = (64, 64)
    replay_capacity: int = 10_000  # DQN's replay memory
    minibatch: int = 64  # DQN's replay sample
    target_refresh: int = 100
    dqn_update_interval: int = 4
    ppo_clip: float = 0.2
    ppo_epochs: int = 4
    meta_outer_lr: float = 0.5
    meta_inner_episodes: int = 10
    meta_tasks_per_update: int = 5
    meta_fraction: float = 0.5
    eps_start: float = 0.9
    eps_end: float = 0.05
    eps_decay_frac: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("discount must lie in (0, 1]")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.replay_capacity < 1 or self.minibatch < 1:
            raise ValueError("replay capacity and minibatch must be positive")
        if self.minibatch > self.replay_capacity:
            # The memory would never hold a minibatch: DQN would never update.
            raise ValueError(f"minibatch ({self.minibatch}) must not exceed "
                             f"replay_capacity ({self.replay_capacity})")
        if not 0.0 <= self.ppo_clip < 1.0:
            raise ValueError("clip range must lie in [0, 1)")
        if not 0.0 <= self.meta_fraction < 1.0:
            raise ValueError("meta fraction must lie in [0, 1)")
        for name in _COUNTS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved settings for one experiment."""

    run: RunSettings
    mission: ms.MissionConfig
    link: lb.AirGroundParams
    radio: lb.RadioConfig
    env: EnvConfig
    agent: AgentConfig

    def __post_init__(self) -> None:
        # The strategic cells must lie on this mission's grid, distinct,
        # checked here rather than at the first nominal reset after all
        # of meta pretraining.
        ms.build_grid(self.mission, (), self.env.strategic_cells)


def _reject_unknown(section: str, given: Mapping, allowed: set[str]) -> None:
    for key in given:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in config section {section!r}")


@functools.cache
def _field_types(cls) -> dict:
    """The type of each field of dataclass ``cls``. Resolving the string
    annotations costs several times the rest of a load, and one process
    may load several files (``compare``, a benchmark pass)."""
    return typing.get_type_hints(cls)


def _typed(value, hint, where: str):
    """``value`` as a field of type ``hint`` holds it, or a ``ValueError``
    naming ``where``. A list (or tuple) fits a ``tuple[X, ...]`` field and
    becomes a tuple, each item taken the same way; a ``tuple[X, Y]`` field
    takes exactly as many items as it names. An object fits a dataclass
    field and is built by :func:`_build`. Any number fits a float field,
    and ``true``/``false`` fit only a bool field."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list (got {value!r})")
        items = typing.get_args(hint)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ValueError(f"{where} must hold {len(items)} values (got {value!r})")
        return tuple(_typed(v, t, where) for v, t in zip(value, items))
    if dataclasses.is_dataclass(hint):
        return _build(hint, where, value)
    fits = (int, float) if hint is float else hint
    if not isinstance(value, fits) or (isinstance(value, bool) and hint is not bool):
        raise ValueError(f"{where} must be {hint.__name__} (got {value!r})")
    return value


def _build(cls, name: str, section: dict):
    """``cls`` from config section ``name``, whose keys must be its fields
    and must include each field that has no default, each value of the
    field's type (:func:`_typed`)."""
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be an object")
    fields = dataclasses.fields(cls)
    _reject_unknown(name, section, {f.name for f in fields})
    for f in fields:
        if (f.name not in section and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ValueError(f"config section {name!r} is missing the {f.name!r} key")
    hints = _field_types(cls)
    return cls(**{key: _typed(value, hints[key], f"{name}.{key}")
                  for key, value in section.items()})


def _read_json(path: str | Path, kind: str) -> dict:
    """The JSON object in the ``kind`` file at ``path``; an empty file is
    ``{}``. The non-JSON literals ``NaN``, ``Infinity`` and ``-Infinity``
    are refused by name: a NaN would pass every range check."""
    def refuse(literal: str):
        raise ValueError(f"{kind} file holds {literal}, which is not JSON")

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    loaded = json.loads(text, parse_constant=refuse) if text else {}
    if not isinstance(loaded, dict):
        raise ValueError(f"{kind} file must contain a JSON object")
    return loaded


def load_config(
    path: str | Path | None = None,
    overrides: Mapping[str, Mapping] | None = None,
) -> ExperimentConfig:
    """Resolve a config file plus overrides into an :class:`ExperimentConfig`.

    Precedence, lowest to highest: built-in defaults, the file, then
    ``overrides`` (e.g. from CLI flags).
    """
    raw = _read_json(path, "config") if path is not None else {}
    for section, content in (overrides or {}).items():
        raw.setdefault(section, {})
        if not isinstance(raw[section], dict):
            raise ValueError(f"config section {section!r} must be an object")
        raw[section].update(content)
    for section in raw:
        if section not in SECTIONS:
            raise ValueError(
                f"unknown config section {section!r} (known: {', '.join(SECTIONS)})"
            )
    hints = _field_types(ExperimentConfig)
    return ExperimentConfig(**{name: _build(hints[name], name, raw.get(name, {}))
                               for name in SECTIONS})


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as UTF-8 JSON, keys sorted, indented by two, with
    ``\\n`` line endings on every platform and one at the end. The one JSON
    writer of the package: run summaries, resolved configs (``dataclasses.asdict``
    of an :class:`ExperimentConfig`) and the exact solver's solutions."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- exact-solver instance files -------------------------------------------

#: The :class:`ExactInstance` fields an instance file gives under their own names.
_INSTANCE_KEYS = ("strategic_cells", "devices", "start_cells", "horizon", "budget",
                  "per_uav_coverage")


def load_instance(path: str | Path) -> ExactInstance:
    """Read an exact-solver instance from a world-layout JSON file.

    The file is a JSON object with the keys of a written world layout
    (:func:`mission.layout_to_dict`: ``area_m``, ``cells_per_side``,
    ``strategic_cells``, ``devices``) plus ``start_cells`` and ``horizon``,
    optional overrides of the other mission fields, and optional
    ``link``/``radio`` sections like the experiment config. Each device is
    an object of the :class:`mission.IotDevice` fields, built like a
    config section; every device transmits at ``radio.device_tx_watts``.
    """
    raw = _read_json(path, "instance")
    mission_keys = {f.name for f in dataclasses.fields(ms.MissionConfig)}
    _reject_unknown("instance", raw, {*_INSTANCE_KEYS, "link", "radio", *mission_keys})
    for key in ("start_cells", "horizon", "devices"):
        if key not in raw:
            raise ValueError(f"instance file is missing the {key!r} key")

    hints = _field_types(ExactInstance)
    plain = {key: _typed(raw[key], hints[key], f"instance.{key}")
             for key in _INSTANCE_KEYS if key in raw}
    plain.setdefault("strategic_cells", ())
    return ExactInstance(
        mission=_build(ms.MissionConfig, "instance", {k: raw[k] for k in mission_keys if k in raw}),
        link=_build(lb.AirGroundParams, "link", raw.get("link", {})),
        radio=_build(lb.RadioConfig, "radio", raw.get("radio", {})),
        **plain,
    )
