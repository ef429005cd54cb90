"""Exact reference solver for tiny mission instances.

Searches every joint action sequence of a small swarm over a short
horizon, each slot played as the environment plays it: the moves by
:func:`~swarmcover.env.resolve_moves`, once per search for each set of
positions and joint action (:func:`joint_moves`), and the devices by
:func:`~swarmcover.env.collect_devices`. It keeps only sequences that
satisfy the rate, deadline and coverage constraints (the altitude one
holds by construction, as in the environment), and returns the feasible
sequence with the least masked swarm energy. Sequences are explored
depth first and hover-first (hover, north, south, east, west per UAV),
and ties on the objective go to the earliest sequence in that order, so
a do-nothing optimum comes back as the all-hover plan.

Three cuts skip branches that cannot hold a strictly cheaper plan than
the best one found so far, so the search stays a certificate of
optimality over the whole space and returns the plan, and the objective
to the bit, that a scan of every sequence would:

- Feasibility: a deadline overrun or a rate violation never heals.
- Bound: the served UAVs' energy so far, summed as the objective sums
  it, is at least the best objective. Energy only grows (powers are
  non-negative, legs and collect times positive), a served UAV stays
  served, and rounding is monotone, so no leaf below is cheaper; the
  ``>=`` keeps the first strict minimum in search order.
- Memo: a node whose exact search state (depth, positions, per-cell
  collection cursors, per-UAV legs, collect times and served flags,
  total delay, and per-UAV strategic cells visited, one bitmask per
  UAV) was already reached. Its subtree has the same leaves to the bit,
  already compared against a best objective that can only have fallen
  since. A joint action that ends on the same cells as an earlier one
  from the same node reaches the same child, which its cut or this one
  already took out: it is cut before its state is rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import ne, or_
from typing import Sequence

from . import link_budget as lb
from . import mission as ms
from .env import ACTIONS, N_ACTIONS, TaskTables, collect_devices, move_target, resolve_moves

#: Per-UAV exploration order: hover before any movement.
SEARCH_ORDER = (4, 0, 1, 2, 3)

MAX_SIDE = 4
MAX_UAVS = 2
MAX_HORIZON = 10


class EnumerationBudgetExceeded(RuntimeError):
    """The search generated more nodes than the instance's budget."""


@dataclass(frozen=True)
class ExactInstance:
    """A mission small enough to solve exactly.

    ``budget`` caps the search nodes :func:`enumerate_optimum` generates
    (one per joint action tried, whether it is then cut or expanded).
    """

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
    deadline_ok: bool
    coverage_ok: bool
    first_violation: dict
    objective_j: float
    unmasked_j: float

    @property
    def all_ok(self) -> bool:
        return self.rate_ok and self.deadline_ok and self.coverage_ok


@dataclass(frozen=True)
class ExactSolution:
    """The optimum, plus search counters: ``leaves_evaluated`` complete
    sequences reached, ``feasible_leaves`` of them meeting coverage, and
    ``branches_pruned`` nodes cut by a feasibility, bound or memo cut."""

    feasible: bool
    objective_j: float | None
    unmasked_j: float | None
    actions: tuple[tuple[int, ...], ...] | None  # one joint action per slot
    trajectories: tuple[tuple[int, ...], ...] | None  # per UAV, start included
    leaves_evaluated: int
    feasible_leaves: int
    branches_pruned: int


def enumerate_optimum(instance: ExactInstance) -> ExactSolution:
    """Search the joint action space and return the cheapest feasible plan.

    A depth-first search in :data:`SEARCH_ORDER` with feasibility, bound
    and memo cuts (see the module docstring). Raises
    :class:`EnumerationBudgetExceeded` once it has generated more search
    nodes than the instance budget. An exhausted search without any
    feasible leaf is reported through the ``feasible`` flag, not an
    exception.
    """
    n_uavs = len(instance.start_cells)
    cfg = instance.mission
    tables = TaskTables.build(
        instance.build_world(), instance.link, instance.radio, instance.altitude_m
    )
    targets, leg_time = tables.targets, tables.leg_time_s
    collect_time, rate_ok = tables.collect_time_s, tables.rate_ok
    device_strategic = tables.device_strategic
    horizon, budget, t_max = instance.horizon, instance.budget, cfg.t_max_seconds
    p_oper, p_comm = cfg.p_oper_watts, cfg.p_comm_watts
    uavs = range(n_uavs)
    # Visited strategic cells as one bitmask per UAV: a cell's bit, 0 off
    # the strategic cells, and every strategic bit set.
    strategic_bit = tuple(
        1 << c if c in instance.strategic_cells else 0 for c in range(cfg.n_cells)
    )
    all_strategic = reduce(or_, strategic_bit, 0)
    per_uav_coverage = instance.per_uav_coverage

    best_objective = math.inf
    best_cells: tuple | None = None
    best_accounting: tuple | None = None
    nodes = leaves = feasible = pruned = 0
    moves_from: dict[tuple, tuple] = {}  # positions -> joint_moves(targets, positions)
    seen: set[tuple] = set()

    def descend(depth, positions, taken, d_com, d_data, served, d_tot, visited, energy, trail):
        nonlocal best_objective, best_cells, best_accounting, nodes, leaves, feasible, pruned
        if depth == horizon:
            leaves += 1
            if (
                all(v == all_strategic for v in visited) if per_uav_coverage
                else reduce(or_, visited) == all_strategic
            ):
                feasible += 1
                if energy < best_objective:
                    best_objective = energy
                    best_cells = trail
                    best_accounting = (d_com, d_data, served)
            return
        moves = moves_from.get(positions)
        if moves is None:
            moves = moves_from[positions] = joint_moves(targets, positions)
        for cells, moved, repeat in moves:
            nodes += 1
            if nodes > budget:
                raise EnumerationBudgetExceeded(
                    f"{nodes} search nodes exceed the budget of {budget}"
                )
            if repeat:
                pruned += 1
                continue
            devices, new_taken = collect_devices(tables, cells, taken)
            new_d_com = list(d_com)
            new_d_data = list(d_data)
            new_served = list(served)
            step_time = 0.0
            for u in uavs:
                if moved[u]:
                    new_d_com[u] += leg_time
                    step_time += leg_time
                dev = devices[u]
                if dev is not None:
                    if not rate_ok[dev]:
                        step_time = math.inf  # a rate violation never heals: prune as an overrun
                        break
                    new_d_data[u] += collect_time[dev]
                    step_time += collect_time[dev]
                    if device_strategic[dev]:
                        new_served[u] = True
            if d_tot + step_time > t_max:
                pruned += 1
                continue
            # The served UAVs' energy, summed left to right from the integer
            # 0 (0 when none serves): a leaf's objective, and a bound that
            # rounds no higher than the objective of any leaf below.
            new_energy = 0
            for u in uavs:
                if new_served[u]:
                    new_energy += p_oper * (new_d_com[u] + new_d_data[u]) + p_comm * new_d_data[u]
            if new_energy >= best_objective:
                pruned += 1
                continue
            # The memo key is the child's whole search state: every argument
            # of descend but the energy, which the key fixes, and the trail.
            child = (
                depth + 1, cells, new_taken, tuple(new_d_com), tuple(new_d_data),
                tuple(new_served), d_tot + step_time,
                tuple(v | strategic_bit[c] for v, c in zip(visited, cells)),
            )
            if child in seen:
                pruned += 1
                continue
            seen.add(child)
            descend(*child, new_energy, trail + (cells,))

    start = tuple(instance.start_cells)
    descend(
        0, start, (0,) * cfg.n_cells, (0.0,) * n_uavs, (0.0,) * n_uavs, (False,) * n_uavs,
        0.0, (0,) * n_uavs, 0, (),
    )

    if best_cells is None:
        return ExactSolution(False, None, None, None, None, leaves, feasible, pruned)
    cells_per_slot = (start,) + best_cells
    trajectories = tuple(
        tuple(cells_per_slot[t][u] for t in range(horizon + 1)) for u in uavs
    )
    actions = _actions_from_cells(trajectories, targets)
    d_com, d_data, served = best_accounting
    # The objective's sum with every UAV served.
    unmasked = ms.add_left_to_right(
        ms.uav_energy_j(d_com[u] + d_data[u], d_data[u], cfg) for u in uavs)
    return ExactSolution(
        True, best_objective, unmasked, actions, trajectories, leaves, feasible, pruned
    )


def joint_moves(
    targets: Sequence[Sequence[int]], positions: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], tuple[bool, ...], bool], ...]:
    """Every joint action from ``positions``, in search order, as
    :func:`~swarmcover.env.resolve_moves` resolves it: the final cells,
    which UAVs moved, and whether an earlier joint action ends on the same
    cells."""
    resolved = []
    reached = set()
    for dests in product(*([targets[p][a] for a in SEARCH_ORDER] for p in positions)):
        finals, _ = resolve_moves(positions, dests)
        cells = tuple(finals)
        resolved.append((cells, tuple(map(ne, cells, positions)), cells in reached))
        reached.add(cells)
    return tuple(resolved)


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
        d_tot = ms.total_delay_s(ms.add_left_to_right(d_data), ms.add_left_to_right(d_com))
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

    energies = [
        ms.uav_energy_j(ms.total_delay_s(d_data[u], d_com[u]), d_data[u], cfg)
        for u in range(n_uavs)
    ]
    objective = ms.swarm_energy_j(zip(energies, served))
    return FeasibilityReport(
        rate_ok=rate_ok,
        deadline_ok=deadline_ok,
        coverage_ok=coverage_ok,
        first_violation=first_violation,
        objective_j=objective,
        unmasked_j=ms.add_left_to_right(energies),
    )
