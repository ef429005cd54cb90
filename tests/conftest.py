import os

# One BLAS thread, as ``swarmcover`` pins it: set before
# anything imports numpy, so test timings do not depend on what else the
# machine runs. ``swarmcover.cli`` imports only the standard library.
from swarmcover.cli import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import pytest

from swarmcover import env as envmod
from swarmcover import link_budget as lb
from swarmcover import mission as ms

#: A 2x2 instance file for ``swarmcover oracle``: one UAV, one device on
#: the strategic cell, horizon 2.
INSTANCE = {
    "area_m": 176.0,
    "cells_per_side": 2,
    "slots": 4,
    "strategic_cells": [1],
    "devices": [
        {"id": 0, "position_xy": [132.0, 44.0], "packet_bits": 1e6}
    ],
    "start_cells": [0],
    "horizon": 2,
}


def one_device(**fields) -> list[dict]:
    """``INSTANCE``'s devices with ``fields`` set on its device; a field set
    to ``None`` is left out."""
    device = {**INSTANCE["devices"][0], **fields}
    return [{k: v for k, v in device.items() if v is not None}]


# Verdict lines pushed by the acceptance tests; replayed after the run so
# the log always carries one PASS/FAIL line per claim (default capture
# would otherwise swallow them for passing tests).
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance gate")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


@pytest.fixture
def urban() -> lb.AirGroundParams:
    return lb.AirGroundParams()


@pytest.fixture
def radio() -> lb.RadioConfig:
    return lb.RadioConfig()


def make_env(mission_cfg: ms.MissionConfig | None = None,
             env_cfg: envmod.EnvConfig | None = None) -> envmod.CoverageEnv:
    """An environment of the default world, or of the given mission and
    swarm settings, with urban propagation and the default radio."""
    return envmod.CoverageEnv(mission_cfg or ms.MissionConfig(), lb.AirGroundParams(),
                              lb.RadioConfig(), env_cfg or envmod.EnvConfig())


def small_env(side: int = 3, swarm: int = 2, slots: int = 6,
              strategic: tuple[int, ...] = (4,), max_swarm: int = 3,
              device_count: int | None = None, **env_kw) -> envmod.CoverageEnv:
    """A desk-sized world: side x side cells of the default 88 m width."""
    mission_cfg = ms.MissionConfig(
        area_m=88.0 * side,
        cells_per_side=side,
        slots=slots,
        frame_seconds=24.0 * slots,
    )
    env_cfg = envmod.EnvConfig(
        max_swarm=max_swarm,
        strategic_cells=tuple(strategic),
        swarm_size=swarm,
        swarm_min=1,
        swarm_max=max_swarm,
        device_count=side * side if device_count is None else device_count,
        **env_kw,
    )
    return make_env(mission_cfg, env_cfg=env_cfg)


def uav_tracks(env: envmod.CoverageEnv) -> list[list[int]]:
    """Each UAV's cells over the written steps of ``env``'s episode, start
    cell first: where its slot's cell one-hot sits in each observation row."""
    ep, c = env.episode, env.n_cells
    return [ep.obs[:ep.steps + 1, u * c:(u + 1) * c].argmax(axis=1).tolist()
            for u in range(len(env.uav_cell))]


@pytest.fixture
def env3() -> envmod.CoverageEnv:
    return small_env()
