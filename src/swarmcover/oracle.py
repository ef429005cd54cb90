"""Exact reference solver for tiny mission instances.

Enumerates every joint action sequence of a small swarm over a short
horizon under the same movement, collision and collection dynamics as
the environment, keeps only sequences that satisfy the rate, deadline
and coverage constraints (the altitude one holds by construction, as in
the environment), and returns the feasible sequence with the least
masked swarm energy. Sequences are explored hover-first
(hover, north, south, east, west per UAV), and ties on the objective go
to the earliest sequence in that order, so a do-nothing optimum comes
back as the all-hover plan.

Only feasibility cuts prune the search (deadline overrun and rate
violations can never heal), so the scan stays a certificate of
optimality over the whole space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from . import link_budget as lb
from . import mission as ms
from .env import ACTIONS, N_ACTIONS, TaskTables, move_target, resolve_moves

#: Per-UAV exploration order: hover before any movement.
SEARCH_ORDER = (4, 0, 1, 2, 3)

MAX_SIDE = 4
MAX_UAVS = 2
MAX_HORIZON = 10


class EnumerationBudgetExceeded(RuntimeError):
    """The instance's joint action space is larger than its search budget."""


@dataclass(frozen=True)
class ExactInstance:
    """A mission small enough to solve by exhaustive enumeration."""

    mission: ms.MissionConfig
    link: lb.AirGroundParams
    radio: lb.RadioConfig
    strategic_cells: tuple[int, ...]
    devices: tuple[ms.IotDevice, ...]
    start_cells: tuple[int, ...]
    horizon: int
    budget: int = 10_000_000
    per_uav_coverage: bool = False

    def __post_init__(self) -> None:
        if self.mission.cells_per_side > MAX_SIDE:
            raise ValueError(f"exact solving is limited to {MAX_SIDE}x{MAX_SIDE} grids")
        if not 1 <= len(self.start_cells) <= MAX_UAVS:
            raise ValueError(f"exact solving supports 1..{MAX_UAVS} UAVs")
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ValueError(f"horizon must lie in 1..{MAX_HORIZON}")
        if len(set(self.start_cells)) != len(self.start_cells):
            raise ValueError("start cells must be distinct")
        for c in (*self.start_cells, *self.strategic_cells):
            if not 0 <= c < self.mission.n_cells:
                raise ValueError(f"cell {c} outside the grid")
        if self.budget < 1:
            raise ValueError("budget must be positive")

    @property
    def altitude_m(self) -> float:
        """Operating altitude: the configured one, clamped to the SNR ceiling."""
        return min(self.mission.uav_altitude_m, lb.max_altitude_m(self.link))

    def build_world(self) -> ms.GridWorld:
        return ms.build_grid(self.mission, list(self.devices), self.strategic_cells)


@dataclass(frozen=True)
class FeasibilityReport:
    rate_ok: bool
    altitude_ok: bool
    deadline_ok: bool
    coverage_ok: bool
    first_violation: dict
    objective_j: float
    unmasked_j: float

    @property
    def all_ok(self) -> bool:
        return self.rate_ok and self.altitude_ok and self.deadline_ok and self.coverage_ok


@dataclass(frozen=True)
class ExactSolution:
    feasible: bool
    objective_j: float | None
    unmasked_j: float | None
    actions: tuple[tuple[int, ...], ...] | None  # one joint action per slot
    trajectories: tuple[tuple[int, ...], ...] | None  # per UAV, start included
    leaves_evaluated: int
    feasible_leaves: int
    branches_pruned: int


def enumerate_optimum(instance: ExactInstance) -> ExactSolution:
    """Scan the whole joint action space and return the cheapest feasible plan.

    Raises :class:`EnumerationBudgetExceeded` if the space is larger than
    the instance budget. An exhausted search without any feasible leaf is
    reported through the ``feasible`` flag, not an exception.
    """
    n_uavs = len(instance.start_cells)
    space = (N_ACTIONS ** n_uavs) ** instance.horizon
    if space > instance.budget:
        raise EnumerationBudgetExceeded(
            f"{space} joint sequences exceed the budget of {instance.budget}"
        )

    cfg = instance.mission
    tables = TaskTables.build(
        instance.build_world(), instance.link, instance.radio, instance.altitude_m
    )
    targets, queues, leg_time = tables.targets, tables.queues, tables.leg_time_s
    collect_time, rate_ok = tables.collect_time_s, tables.rate_ok
    device_strategic = tables.device_strategic
    strategic = set(instance.strategic_cells)
    joint_choices = list(product(SEARCH_ORDER, repeat=n_uavs))

    best_objective = math.inf
    best_cells: tuple | None = None
    best_accounting: tuple | None = None
    counters = {"leaves": 0, "feasible": 0, "pruned": 0}
    p_oper, p_comm = cfg.p_oper_watts, cfg.p_comm_watts

    def coverage_met(visited: tuple[frozenset, ...]) -> bool:
        if instance.per_uav_coverage:
            return all(strategic <= v for v in visited)
        union = frozenset().union(*visited) if visited else frozenset()
        return strategic <= union

    def descend(depth, positions, collected, d_com, d_data, served, d_tot, visited, trail):
        nonlocal best_objective, best_cells, best_accounting
        if depth == instance.horizon:
            counters["leaves"] += 1
            if coverage_met(visited):
                counters["feasible"] += 1
                objective = sum(
                    p_oper * (d_com[u] + d_data[u]) + p_comm * d_data[u]
                    for u in range(n_uavs)
                    if served[u]
                )
                if objective < best_objective:
                    best_objective = objective
                    best_cells = trail
                    best_accounting = (d_com, d_data, served)
            return
        for joint in joint_choices:
            finals, _ = resolve_moves(
                positions, [targets[positions[u]][joint[u]] for u in range(n_uavs)]
            )
            new_collected = collected
            new_d_com = list(d_com)
            new_d_data = list(d_data)
            new_served = list(served)
            step_time = 0.0
            violated = False
            for u in range(n_uavs):
                if finals[u] != positions[u]:
                    new_d_com[u] += leg_time
                    step_time += leg_time
                for dev in queues[finals[u]]:
                    bit = 1 << dev
                    if not new_collected & bit:
                        if not rate_ok[dev]:
                            violated = True
                        new_collected |= bit
                        new_d_data[u] += collect_time[dev]
                        step_time += collect_time[dev]
                        if device_strategic[dev]:
                            new_served[u] = True
                        break
                if violated:
                    break
            if violated or d_tot + step_time > cfg.t_max_seconds:
                counters["pruned"] += 1
                continue
            descend(
                depth + 1,
                tuple(finals),
                new_collected,
                tuple(new_d_com),
                tuple(new_d_data),
                tuple(new_served),
                d_tot + step_time,
                tuple(v | {finals[u]} for u, v in enumerate(visited)),
                trail + (tuple(finals),),
            )

    start = tuple(instance.start_cells)
    descend(
        0, start, 0, (0.0,) * n_uavs, (0.0,) * n_uavs, (False,) * n_uavs,
        0.0, (frozenset(),) * n_uavs, (),
    )

    if best_cells is None:
        return ExactSolution(
            False, None, None, None, None,
            counters["leaves"], counters["feasible"], counters["pruned"],
        )
    cells_per_slot = (start,) + best_cells
    trajectories = tuple(
        tuple(cells_per_slot[t][u] for t in range(instance.horizon + 1))
        for u in range(n_uavs)
    )
    actions = _actions_from_cells(trajectories, targets)
    d_com, d_data, served = best_accounting
    unmasked = sum(p_oper * (d_com[u] + d_data[u]) + p_comm * d_data[u] for u in range(n_uavs))
    return ExactSolution(
        True, best_objective, unmasked, actions, trajectories,
        counters["leaves"], counters["feasible"], counters["pruned"],
    )


def _actions_from_cells(
    trajectories: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Recover one realising joint action per slot from cell sequences.

    Stationary slots map to hover even when a border-clamped or
    cancelled move could also explain them.
    """
    hover = ACTIONS.index("hover")
    return tuple(
        tuple(
            hover if traj[t] == traj[t + 1] else targets[traj[t]].index(traj[t + 1])
            for traj in trajectories
        )
        for t in range(len(trajectories[0]) - 1)
    )


def verify_feasibility(
    trajectories: Sequence[Sequence[int]], instance: ExactInstance
) -> FeasibilityReport:
    """Re-check a plan against every constraint, independently of the solver.

    Walks the given per-UAV cell sequences, recomputing link rates from
    the channel model and delays/energies from the mission primitives
    rather than reusing the enumerator's incremental accounting.
    Malformed plans (wrong length, teleports, shared cells) raise.
    """
    n_uavs = len(trajectories)
    horizon = instance.horizon
    for traj in trajectories:
        if len(traj) != horizon + 1:
            raise ValueError("each trajectory must cover start plus every slot")
    for u, traj in enumerate(trajectories):
        if traj[0] != instance.start_cells[u]:
            raise ValueError("trajectory does not begin at the instance start cell")
    world = instance.build_world()
    cfg = instance.mission
    n_side = cfg.cells_per_side
    centers = [world.cell_center(c) for c in range(cfg.n_cells)]
    altitude = instance.altitude_m

    for t in range(horizon + 1):
        at = [traj[t] for traj in trajectories]
        if len(set(at)) != n_uavs:
            raise ValueError(f"two UAVs share a cell at slot {t}")
    for traj in trajectories:
        for t in range(horizon):
            a, b = traj[t], traj[t + 1]
            if a != b and b not in {move_target(a, act, n_side) for act in range(N_ACTIONS)}:
                raise ValueError(f"cells {a} -> {b} are not one move apart")

    collected: set[int] = set()
    d_com = [0.0] * n_uavs
    d_data = [0.0] * n_uavs
    served = [False] * n_uavs
    rate_ok = True
    deadline_ok = True
    strategic = set(instance.strategic_cells)
    first_violation: dict[str, int | None] = {"rate": None, "deadline": None}

    for t in range(1, horizon + 1):
        for u, traj in enumerate(trajectories):
            prev_cell, cell = traj[t - 1], traj[t]
            if cell != prev_cell:
                d_com[u] += ms.travel_time_s(
                    (*centers[prev_cell], altitude), (*centers[cell], altitude), cfg.speed_mps
                )
            for dev in world.device_queue(cell):
                if dev not in collected:
                    collected.add(dev)
                    device = world.devices[dev]
                    geom = lb.LinkGeometry((*centers[cell], altitude), device.position_xy)
                    rate = lb.achievable_rate_bps(geom, instance.link, instance.radio)
                    if not lb.rate_feasible(rate, instance.radio):
                        rate_ok = False
                        if first_violation["rate"] is None:
                            first_violation["rate"] = t
                    d_data[u] += ms.data_delay_s([(device.packet_bits, rate)])
                    if world.device_cell[dev] in strategic:
                        served[u] = True
                    break
        d_tot = ms.total_delay_s(sum(d_data), sum(d_com))
        if deadline_ok and not ms.meets_deadline(d_tot, cfg.t_max_seconds):
            deadline_ok = False
            first_violation["deadline"] = t

    if instance.per_uav_coverage:
        coverage_ok = all(
            strategic <= {traj[t] for t in range(1, horizon + 1)} for traj in trajectories
        )
    else:
        visited = set().union(*({traj[t] for t in range(1, horizon + 1)} for traj in trajectories))
        coverage_ok = strategic <= visited
    altitude_ok = altitude <= lb.max_altitude_m(instance.link)

    energies = [
        ms.uav_energy_j(ms.total_delay_s(d_data[u], d_com[u]), d_data[u], cfg)
        for u in range(n_uavs)
    ]
    objective = ms.swarm_energy_j(zip(energies, served))
    return FeasibilityReport(
        rate_ok=rate_ok,
        altitude_ok=altitude_ok,
        deadline_ok=deadline_ok,
        coverage_ok=coverage_ok,
        first_violation=first_violation,
        objective_j=objective,
        unmasked_j=sum(energies),
    )
