"""Experiment configuration: JSON files, defaults, overrides, validation.

A config file is a JSON object with up to six sections::

    {
      "run":     {scenario, algorithm, episodes, seeds, out_dir, ...},
      "mission": {... MissionConfig fields ...},
      "link":    {"preset": "urban", ... AirGroundParams fields or *_db keys ...},
      "radio":   {... RadioConfig fields ...},
      "env":     {... EnvConfig fields ..., "events": [{episode, kind, count}]},
      "agent":   {... AgentConfig fields ...}
    }

Every key is optional; an empty file (or no file) resolves to the full
default parameter set. Unknown sections and unknown keys are rejected
by name rather than ignored, and out-of-range values fail inside the
dataclass constructors. Any key can also be overridden through the
process environment as ``SWARMCOVER__<section>__<key>=<json value>``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from . import link_budget as lb
from . import mission as ms
from .env import EnvConfig, SwarmEvent, next_swarm_size
from .oracle import ExactInstance

ENV_PREFIX = "SWARMCOVER__"

SECTIONS = ("run", "mission", "link", "radio", "env", "agent")

#: dB-valued spellings accepted in the link section besides the linear fields.
_LINK_DB_KEYS = ("psi_los_db", "psi_nlos_db", "noise_dbm", "min_snr_db")

#: Alternative noise convention: per-Hz density integrated over the radio bandwidth.
_LINK_DENSITY_KEY = "noise_dbm_per_hz"

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
    replay_capacity: int = 10_000
    minibatch: int = 64
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
            # The memory would never hold a minibatch: DQN would never update
            # and the actor-critic never add its replay term.
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
    events: tuple[SwarmEvent, ...] = ()


def _reject_unknown(section: str, given: Mapping, allowed: set[str]) -> None:
    for key in given:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in config section {section!r}")


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _coerce(section: dict, tuple_keys: tuple[str, ...]) -> dict:
    out = dict(section)
    for key in tuple_keys:
        if key in out and isinstance(out[key], list):
            out[key] = tuple(out[key])
    return out


def _build(cls, name: str, section: dict, tuple_keys: tuple[str, ...] = ()):
    """``cls`` from config section ``name``, whose keys must be its fields."""
    _reject_unknown(name, section, _field_names(cls))
    return cls(**_coerce(section, tuple_keys))


def _build_link(section: dict, bandwidth_hz: float) -> lb.AirGroundParams:
    allowed = (
        _field_names(lb.AirGroundParams)
        | set(_LINK_DB_KEYS)
        | {"preset", _LINK_DENSITY_KEY}
    )
    _reject_unknown("link", section, allowed)
    section = dict(section)
    preset = section.pop("preset", "urban")
    density = section.pop(_LINK_DENSITY_KEY, None)
    if density is not None:
        if "noise_watts" in section or "noise_dbm" in section:
            raise ValueError("give the noise level once: total power or per-Hz density")
        section["noise_watts"] = lb.noise_from_density_watts(density, bandwidth_hz)
    return lb.params_from_preset(preset, **section)


def _build_env(section: dict) -> tuple[EnvConfig, tuple[SwarmEvent, ...]]:
    _reject_unknown("env", section, _field_names(EnvConfig) | {"events"})
    section = dict(section)
    events = tuple(
        SwarmEvent(int(e["episode"]), str(e["kind"]), int(e.get("count", 1)))
        for e in section.pop("events", [])
    )
    section = _coerce(section, ("strategic_cells",))
    env_cfg = EnvConfig(**section)
    # Replay the schedule as the harness applies it (a stable sort by
    # episode), so a size it cannot reach fails here, not mid-run.
    size = env_cfg.swarm_size
    for event in sorted(events, key=lambda e: e.episode):
        size = next_swarm_size(size, event, env_cfg.max_swarm)
    return env_cfg, events


def _env_overrides(environ: Mapping[str, str]) -> dict:
    """Collect SWARMCOVER__section__key=value entries into nested dicts.

    Values are parsed as JSON where possible and kept as plain strings
    otherwise (so ``...__algorithm=dqn`` works without quoting).
    """
    out: dict[str, dict] = {}
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        parts = name[len(ENV_PREFIX):].split("__")
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"override variable {name!r} must look like "
                             f"{ENV_PREFIX}section__key")
        section, key = parts
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out.setdefault(section, {})[key] = value
    return out


def _merge(base: dict, extra: Mapping[str, Mapping]) -> dict:
    for section, content in extra.items():
        base.setdefault(section, {})
        if not isinstance(base[section], dict):
            raise ValueError(f"config section {section!r} must be an object")
        base[section].update(content)
    return base


def load_config(
    path: str | Path | None = None,
    overrides: Mapping[str, Mapping] | None = None,
    environ: Mapping[str, str] | None = None,
) -> ExperimentConfig:
    """Resolve a config file plus overrides into an :class:`ExperimentConfig`.

    Precedence, lowest to highest: built-in defaults, the file,
    ``overrides`` (e.g. from CLI flags), then ``SWARMCOVER__*``
    environment variables. ``environ`` defaults to ``os.environ``.
    """
    raw: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
        loaded = json.loads(text) if text else {}
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a JSON object")
        raw = loaded
    for section in raw:
        if section not in SECTIONS:
            raise ValueError(
                f"unknown config section {section!r} (known: {', '.join(SECTIONS)})"
            )
    if overrides:
        _merge(raw, overrides)
    env_over = _env_overrides(os.environ if environ is None else environ)
    for section in env_over:
        if section not in SECTIONS:
            raise ValueError(f"unknown config section {section!r} in environment override")
    _merge(raw, env_over)

    env_cfg, events = _build_env(raw.get("env", {}))
    radio = _build(lb.RadioConfig, "radio", raw.get("radio", {}))
    return ExperimentConfig(
        run=_build(RunSettings, "run", raw.get("run", {}), ("seeds",)),
        mission=_build(ms.MissionConfig, "mission", raw.get("mission", {})),
        link=_build_link(raw.get("link", {}), radio.bandwidth_hz),
        radio=radio,
        env=env_cfg,
        agent=_build(AgentConfig, "agent", raw.get("agent", {}), ("hidden",)),
        events=events,
    )


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as UTF-8 JSON, keys sorted, indented by two, with
    ``\\n`` line endings on every platform and one at the end. The one JSON
    writer of the package: run summaries, resolved configs (``dataclasses.asdict``
    of an :class:`ExperimentConfig`) and the exact solver's solutions."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- exact-solver instance files -------------------------------------------

def load_instance(path: str | Path) -> ExactInstance:
    """Read an exact-solver instance from a world-layout JSON file.

    The file uses the same keys as a written world layout (``area_m``,
    ``cells_per_side``, ``strategic_cells``, ``devices``) plus
    ``start_cells`` and ``horizon``, optional overrides of the other
    mission fields, and optional ``link``/``radio`` sections like the
    experiment config. Every device transmits at ``radio.device_tx_watts``;
    a device's own ``tx_watts``, if given, must equal it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    mission_keys = _field_names(ms.MissionConfig)
    allowed = {
        "strategic_cells", "initial_demand", "devices", "start_cells", "horizon",
        "budget", "per_uav_coverage", "link", "radio", *mission_keys,
    }
    _reject_unknown("instance", raw, allowed)
    for key in ("start_cells", "horizon", "devices"):
        if key not in raw:
            raise ValueError(f"instance file is missing the {key!r} key")

    mission = ms.MissionConfig(**{k: raw[k] for k in mission_keys if k in raw})
    radio = _build(lb.RadioConfig, "radio", raw.get("radio", {}))
    for device in raw["devices"]:
        tx_watts = device.get("tx_watts", radio.device_tx_watts)
        if tx_watts != radio.device_tx_watts:
            raise ValueError(
                f"device {device.get('id')!r} gives tx_watts {tx_watts!r}, but every device "
                f"transmits at radio.device_tx_watts ({radio.device_tx_watts!r})"
            )
    return ExactInstance(
        mission=mission,
        link=_build_link(raw.get("link", {}), radio.bandwidth_hz),
        radio=radio,
        strategic_cells=tuple(int(c) for c in raw.get("strategic_cells", [])),
        devices=tuple(ms.devices_from_dicts(raw["devices"])),
        start_cells=tuple(int(c) for c in raw["start_cells"]),
        horizon=int(raw["horizon"]),
        budget=int(raw.get("budget", 10_000_000)),
        per_uav_coverage=bool(raw.get("per_uav_coverage", False)),
    )
