"""Experiment configuration: JSON files, defaults, overrides, validation.

A config file is a JSON object with up to seven sections::

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
from .agents import ALGORITHMS, AgentConfig
from .env import EnvConfig, SwarmEvent, next_swarm_size
from .oracle import ExactInstance

ENV_PREFIX = "SWARMCOVER__"

SECTIONS = ("run", "mission", "link", "radio", "env", "agent")

#: dB-valued spellings accepted in the link section besides the linear fields.
_LINK_DB_KEYS = ("psi_los_db", "psi_nlos_db", "noise_dbm", "min_snr_db")

#: Alternative noise convention: per-Hz density integrated over the radio bandwidth.
_LINK_DENSITY_KEY = "noise_dbm_per_hz"


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


def _build_run(section: dict) -> RunSettings:
    allowed = _field_names(RunSettings)
    _reject_unknown("run", section, allowed)
    return RunSettings(**_coerce(section, ("seeds",)))


def _build_mission(section: dict) -> ms.MissionConfig:
    allowed = _field_names(ms.MissionConfig)
    _reject_unknown("mission", section, allowed)
    return ms.MissionConfig(**section)


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


def _build_radio(section: dict) -> lb.RadioConfig:
    allowed = _field_names(lb.RadioConfig)
    _reject_unknown("radio", section, allowed)
    return lb.RadioConfig(**section)


def _build_env(section: dict) -> tuple[EnvConfig, tuple[SwarmEvent, ...]]:
    allowed = _field_names(EnvConfig) | {"events"}
    _reject_unknown("env", section, allowed)
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


def _build_agent(section: dict) -> AgentConfig:
    allowed = _field_names(AgentConfig)
    _reject_unknown("agent", section, allowed)
    return AgentConfig(**_coerce(section, ("hidden",)))


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
    radio = _build_radio(raw.get("radio", {}))
    return ExperimentConfig(
        run=_build_run(raw.get("run", {})),
        mission=_build_mission(raw.get("mission", {})),
        link=_build_link(raw.get("link", {}), radio.bandwidth_hz),
        radio=radio,
        env=env_cfg,
        agent=_build_agent(raw.get("agent", {})),
        events=events,
    )


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """Plain-JSON echo of a fully-resolved config (for provenance)."""
    out = {
        "run": dataclasses.asdict(cfg.run),
        "mission": dataclasses.asdict(cfg.mission),
        "link": dataclasses.asdict(cfg.link),
        "radio": dataclasses.asdict(cfg.radio),
        "env": dataclasses.asdict(cfg.env),
        "agent": dataclasses.asdict(cfg.agent),
        "events": [dataclasses.asdict(e) for e in cfg.events],
    }

    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    return plain(out)


def write_resolved(cfg: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(resolved_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- exact-solver instance files -------------------------------------------

_INSTANCE_MISSION_KEYS = (
    "frame_seconds", "slots", "speed_mps", "p_oper_watts", "p_comm_watts",
    "t_max_seconds", "packet_bits", "uav_altitude_m",
)


def load_instance(path: str | Path) -> ExactInstance:
    """Read an exact-solver instance from a world-layout JSON file.

    The file uses the same keys as a written world layout (``area_m``,
    ``cells_per_side``, ``strategic_cells``, ``devices``) plus
    ``start_cells`` and ``horizon``, optional mission timing overrides,
    and optional ``link``/``radio`` sections like the experiment config.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    allowed = {
        "area_m", "cells_per_side", "strategic_cells", "initial_demand", "devices",
        "start_cells", "horizon", "budget", "per_uav_coverage", "link", "radio",
        *_INSTANCE_MISSION_KEYS,
    }
    _reject_unknown("instance", raw, allowed)
    for key in ("start_cells", "horizon", "devices"):
        if key not in raw:
            raise ValueError(f"instance file is missing the {key!r} key")

    mission_kwargs = {k: raw[k] for k in _INSTANCE_MISSION_KEYS if k in raw}
    for key in ("area_m", "cells_per_side"):
        if key in raw:
            mission_kwargs[key] = raw[key]
    mission = ms.MissionConfig(**mission_kwargs)
    radio = _build_radio(raw.get("radio", {}))
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
