"""Mission world: square cell grid, ground devices, strategic demand, timing and energy.

The mission area is a square split into ``cells_per_side ** 2`` equal
cells, laid out row-major with cell ``(col i, row j)`` centered at
``((i + 0.5) * w, (j + 0.5) * w)``. A mission frame lasts
``frame_seconds`` and is divided into ``slots`` equal decision slots.
Ground devices each hold one data packet; strategic locations carry the
demand a frame starts with (the environment counts it down).

Delay accounting splits into data time (packet bits over link rate,
summed across collected packets) and commute time (leg length over
cruise speed, summed across trajectory legs). A UAV's energy is
operating power times its total busy time plus communication power
times its data time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class MissionConfig:
    """Static mission geometry and power/timing constants."""

    area_m: float = 440.0
    cells_per_side: int = 5
    frame_seconds: float = 600.0
    slots: int = 25
    speed_mps: float = 10.0
    p_oper_watts: float = 300.0
    p_comm_watts: float = 5.0
    t_max_seconds: float = 600.0
    packet_bits: float = 1.0e6
    uav_altitude_m: float = 100.0

    def __post_init__(self) -> None:
        if self.area_m <= 0.0:
            raise ValueError("mission area must be positive")
        if self.cells_per_side < 1:
            raise ValueError("need at least one cell per side")
        if self.frame_seconds <= 0.0 or self.slots < 1:
            raise ValueError("frame must have positive length and at least one slot")
        if self.speed_mps <= 0.0:
            raise ValueError("cruise speed must be positive")
        if min(self.p_oper_watts, self.p_comm_watts) < 0.0:
            raise ValueError("powers must be non-negative")
        if self.t_max_seconds < 0.0:
            raise ValueError("deadline must be non-negative")
        if self.packet_bits <= 0.0 or self.uav_altitude_m <= 0.0:
            raise ValueError("packet size and altitude must be positive")

    @property
    def cell_width_m(self) -> float:
        return self.area_m / self.cells_per_side

    @property
    def n_cells(self) -> int:
        return self.cells_per_side * self.cells_per_side

    @property
    def slot_seconds(self) -> float:
        return self.frame_seconds / self.slots


@dataclass(frozen=True)
class IotDevice:
    """One ground device holding a single uncollected packet. Every device
    transmits at ``link_budget.RadioConfig.device_tx_watts``."""

    id: int
    position_xy: tuple[float, float]
    packet_bits: float


@dataclass(frozen=True)
class StrategicLocation:
    """A cell that must be served, with the demand it starts a frame with."""

    id: int
    cell_index: int
    initial_demand: float


class GridWorld:
    """Cell centers, devices and strategic locations: the static part of a mission."""

    def __init__(
        self,
        config: MissionConfig,
        centers: list[tuple[float, float]],
        devices: list[IotDevice],
        strategic: list[StrategicLocation],
    ) -> None:
        self.config = config
        self.centers = centers
        self.devices = devices
        self.strategic = strategic
        self.strategic_cells = {s.cell_index for s in strategic}
        # Nearest-center assignment of devices to cells, and per-cell
        # collection order (closest to the center first, id breaks ties).
        self.device_cell = [self.cell_of_position(*d.position_xy) for d in devices]
        queues: dict[int, list[int]] = {}
        for dev in devices:
            queues.setdefault(self.device_cell[dev.id], []).append(dev.id)
        for cell_index, ids in queues.items():
            center = centers[cell_index]
            ids.sort(key=lambda i: (_dist2(devices[i].position_xy, center), i))
        self.cell_device_queue = queues

    def cell_center(self, index: int) -> tuple[float, float]:
        return self.centers[index]

    def cell_of_position(self, x: float, y: float) -> int:
        w = self.config.cell_width_m
        n = self.config.cells_per_side
        col = min(n - 1, max(0, int(x / w)))
        row = min(n - 1, max(0, int(y / w)))
        return row * n + col

    def device_queue(self, cell_index: int) -> list[int]:
        """Device ids assigned to a cell, in collection order."""
        return self.cell_device_queue.get(cell_index, [])


def _dist2(a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def build_grid(
    config: MissionConfig,
    device_layout: Sequence[IotDevice] | None,
    strategic_cells: Sequence[int],
    initial_demand: float | Sequence[float] = 3.0,
) -> GridWorld:
    """Assemble a :class:`GridWorld` from a device layout and strategic cells.

    ``initial_demand`` is either one value shared by every strategic
    location or a per-location sequence.
    """
    n = config.cells_per_side
    w = config.cell_width_m
    if len(set(strategic_cells)) != len(strategic_cells):
        raise ValueError("strategic cells must be distinct")
    centers = [((i % n + 0.5) * w, (i // n + 0.5) * w) for i in range(config.n_cells)]
    for c in strategic_cells:
        if not 0 <= c < config.n_cells:
            raise ValueError(f"strategic cell {c} outside grid of {config.n_cells} cells")

    devices = list(device_layout or [])
    for i, dev in enumerate(devices):
        if dev.id != i:
            raise ValueError("device ids must be contiguous from zero")
        x, y = dev.position_xy
        if not (0.0 <= x <= config.area_m and 0.0 <= y <= config.area_m):
            raise ValueError(f"device {dev.id} lies outside the mission area")

    if isinstance(initial_demand, (int, float)):
        demands = [float(initial_demand)] * len(strategic_cells)
    else:
        demands = [float(d) for d in initial_demand]
        if len(demands) != len(strategic_cells):
            raise ValueError("one demand per strategic cell required")
    strategic = [StrategicLocation(i, cell, demands[i]) for i, cell in enumerate(strategic_cells)]
    return GridWorld(config, centers, devices, strategic)


def default_device_layout(
    config: MissionConfig,
    strategic_cells: Sequence[int],
    seed: int,
    count: int = 25,
    packet_bits: float | None = None,
) -> list[IotDevice]:
    """Deterministic device layout: one device pinned to each strategic
    cell center, the rest placed uniformly over the area from ``seed``."""
    import numpy as np

    if count < len(strategic_cells):
        raise ValueError("need at least one device per strategic cell")
    bits = config.packet_bits if packet_bits is None else packet_bits
    rng = np.random.default_rng(seed)
    n = config.cells_per_side
    w = config.cell_width_m
    devices = []
    for i, cell in enumerate(strategic_cells):
        col, row = cell % n, cell // n
        devices.append(IotDevice(i, ((col + 0.5) * w, (row + 0.5) * w), bits))
    for i in range(len(strategic_cells), count):
        x, y = rng.uniform(0.0, config.area_m, size=2)
        devices.append(IotDevice(i, (float(x), float(y)), bits))
    return devices


def travel_time_s(
    from_xyz: Sequence[float], to_xyz: Sequence[float], speed_mps: float
) -> float:
    """Time to fly one leg at constant speed. Zero-length legs cost nothing."""
    if speed_mps <= 0.0:
        raise ValueError("speed must be positive")
    dist = math.sqrt(add_left_to_right((a - b) ** 2 for a, b in zip(from_xyz, to_xyz)))
    return dist / speed_mps


def data_delay_s(collections: Iterable[tuple[float, float]]) -> float:
    """Total transmission time for (packet_bits, rate_bps) pairs."""
    total = 0.0
    for bits, rate in collections:
        if rate <= 0.0:
            raise ValueError("collection rate must be positive")
        total += bits / rate
    return total


def total_delay_s(d_data_s: float, d_com_s: float) -> float:
    """Mission delay: data time plus commute time."""
    return d_data_s + d_com_s


def meets_deadline(d_tot_s: float, t_max_seconds: float) -> bool:
    return d_tot_s <= t_max_seconds


def uav_energy_j(d_tot_s: float, d_data_s: float, config: MissionConfig) -> float:
    """Energy of one UAV over a frame.

    Operating power runs for the whole busy time ``d_tot_s`` (commute
    plus data), communication power only while receiving data.
    """
    if d_data_s < 0.0 or d_tot_s < d_data_s:
        raise ValueError("need 0 <= d_data <= d_tot")
    return config.p_oper_watts * d_tot_s + config.p_comm_watts * d_data_s


def add_left_to_right(values: Iterable[float]) -> float:
    """``sum(values)`` as Python 3.11 adds floats: left to right from the
    integer 0, each add rounded, so an empty sum is the integer 0. From
    3.12 on the builtin ``sum`` compensates float additions, which would
    make the written totals depend on the interpreter."""
    total = 0
    for v in values:
        total += v
    return total


def swarm_energy_j(uavs: Iterable[tuple[float, bool]]) -> float:
    """Mission objective: per-UAV energies masked by the serving flag.

    Each entry is ``(energy_j, served_strategic)``; only UAVs that
    collected data from a strategic location count toward the total,
    added left to right (:func:`add_left_to_right`); no UAV gives 0.0.
    """
    return float(add_left_to_right(e for e, serving in uavs if serving))


# --- layout files ---------------------------------------------------------

def layout_to_dict(world: GridWorld) -> dict:
    """JSON-ready description of the static part of a world."""
    return {
        "area_m": world.config.area_m,
        "cells_per_side": world.config.cells_per_side,
        "strategic_cells": [s.cell_index for s in world.strategic],
        "initial_demand": [s.initial_demand for s in world.strategic],
        "devices": [
            {
                "id": d.id,
                "position_xy": list(d.position_xy),
                "packet_bits": d.packet_bits,
            }
            for d in world.devices
        ],
    }


def devices_from_dicts(entries: Sequence[dict]) -> list[IotDevice]:
    return [
        IotDevice(
            int(e["id"]),
            (float(e["position_xy"][0]), float(e["position_xy"][1])),
            float(e["packet_bits"]),
        )
        for e in entries
    ]

