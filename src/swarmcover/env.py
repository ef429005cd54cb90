"""Episodic MDP over the mission world for a centrally-controlled UAV swarm.

One environment step is one mission slot: every active UAV picks one of
five moves (the four compass directions or hover), moves between cell
centers, and then automatically collects at most one packet from an
uncollected device assigned to its cell. Moves off the grid border
degrade to hover. Two UAVs are never allowed to occupy one cell: moves
that would end on an occupied or contested cell are cancelled and the
offending movers are penalised.

The scalar step reward is
  +1 for every UAV that did not collide and whose link rate and mission
     deadline checks both pass (the altitude constraint holds by
     construction: UAVs fly at the configured altitude clamped to the
     SNR ceiling ``link_budget.max_altitude_m``),
  a coverage bonus of 1/(1 + k) for every UAV sitting on a strategic
     cell with remaining demand, where k counts demand units already
     served this frame,
  -1 for every colliding UAV, and
  an energy shaping term: -lambda_energy times the step energy of the
     swarm in units of one hover slot of operating energy.

Every step also reports one reward per active UAV, built from the same
terms: that UAV's +1 or -1, its own coverage bonus and its own energy
shaping. The per-UAV rewards sum to the scalar reward up to rounding.

An episode lasts exactly ``slots`` steps. Given the same seed, task and
action sequence, every outcome is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import link_budget as lb
from . import mission as ms

#: Action index -> (dcol, drow); the last entry is hover.
ACTIONS = ("north", "south", "east", "west", "hover")
_DELTAS = ((0, 1), (0, -1), (1, 0), (-1, 0), (0, 0))
N_ACTIONS = len(ACTIONS)


@dataclass(frozen=True)
class EnvConfig:
    """Swarm-level knobs that are not mission geometry."""

    max_swarm: int = 7
    num_strategic: int = 3
    initial_demand: float = 3.0
    lambda_energy: float = 0.1
    device_count: int = 25
    swarm_size: int = 4
    swarm_min: int = 3
    swarm_max: int = 7
    strategic_cells: tuple[int, ...] = (6, 13, 21)
    device_seed: int = 7
    def __post_init__(self) -> None:
        if not 1 <= self.swarm_size <= self.max_swarm:
            raise ValueError("default swarm size must lie in [1, max_swarm]")
        if not 1 <= self.swarm_min <= self.swarm_max <= self.max_swarm:
            raise ValueError("swarm size range must fit inside max_swarm")
        if self.lambda_energy < 0.0:
            raise ValueError("shaping weight must be non-negative")
        if len(self.strategic_cells) != self.num_strategic:
            raise ValueError("strategic cell list must match num_strategic")


@dataclass(frozen=True)
class TaskSpec:
    """One concrete scenario drawn from the task distribution."""

    swarm_size: int
    strategic_cells: tuple[int, ...]
    device_seed: int
    initial_demands: tuple[float, ...]


@dataclass(frozen=True)
class SwarmEvent:
    """A scheduled swarm-size change applied between episodes."""

    episode: int
    kind: str  # "join" or "leave"
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave"):
            raise ValueError(f"unknown swarm event kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("event count must be at least 1")


@dataclass
class StepOutcome:
    state: np.ndarray
    reward: float
    done: bool
    info: dict = field(default_factory=dict)
    #: One reward per active UAV, in UAV-id order; sums to ``reward``.
    uav_rewards: np.ndarray | None = None


def strategic_reward(satisfied_demand_sum: float) -> float:
    """Coverage bonus after ``satisfied_demand_sum`` units already served.

    Equals 1 for the first unit of a frame and decays harmonically, so
    early coverage is worth more than piling onto late demand.
    """
    if satisfied_demand_sum < 0.0:
        raise ValueError("satisfied demand cannot be negative")
    return 1.0 / (1.0 + satisfied_demand_sum)


def move_target(cell_index: int, action: int, n_side: int) -> int:
    """Destination cell of one action, with border moves degrading to stay."""
    dcol, drow = _DELTAS[int(action)]
    col, row = cell_index % n_side, cell_index // n_side
    col2, row2 = col + dcol, row + drow
    if 0 <= col2 < n_side and 0 <= row2 < n_side:
        return row2 * n_side + col2
    return cell_index


def resolve_moves(
    origins: Sequence[int], targets: Sequence[int]
) -> tuple[list[int], list[bool]]:
    """Cancel every move that would end on a contested or occupied cell.

    Origins must be pairwise distinct. Movers bounce back to their
    origin (and are flagged) whenever their destination is claimed by
    any other UAV, including movers cancelled in an earlier sweep.
    Hovering UAVs never collide. Swaps and follow-the-leader chains
    resolve to distinct cells and are allowed.
    """
    if len(set(origins)) != len(origins):
        raise ValueError("UAVs must start on distinct cells")
    final = list(targets)
    moving = [f != o for f, o in zip(final, origins)]
    collided = [False] * len(origins)
    changed = True
    while changed:
        changed = False
        counts: dict[int, int] = {}
        for cell in final:
            counts[cell] = counts.get(cell, 0) + 1
        for i, origin in enumerate(origins):
            if moving[i] and counts[final[i]] > 1:
                final[i] = origin
                moving[i] = False
                collided[i] = True
                changed = True
    return final, collided


def build_rate_table(
    world: ms.GridWorld,
    params: lb.AirGroundParams,
    radio: lb.RadioConfig,
    altitude_m: float,
) -> tuple[float, ...]:
    """Uplink rate of every device from above its cell's center, by device id."""
    return tuple(
        lb.achievable_rate_bps(
            lb.LinkGeometry((*world.cell_center(cell), altitude_m), dev.position_xy), params, radio
        )
        for dev, cell in zip(world.devices, world.device_cell)
    )


@dataclass(frozen=True)
class TaskTables:
    """What stays fixed for one device layout and its strategic cells.

    The environment and the exact solver read the same tables. Each
    device sits in exactly one cell's queue, so device facts are indexed
    by device id. Every move spans one cell width at a fixed altitude,
    so one leg time serves every move.
    """

    world: ms.GridWorld
    targets: tuple[tuple[int, ...], ...]  # [cell][action] -> destination cell
    leg_time_s: float
    queues: tuple[tuple[int, ...], ...]  # [cell] -> device ids in collection order
    location: tuple[int, ...]  # [cell] -> strategic location index, -1 elsewhere
    collect_time_s: tuple[float, ...]  # [device] packet bits over uplink rate
    rate_ok: tuple[bool, ...]  # [device] uplink rate clears the floor
    device_strategic: tuple[bool, ...]  # [device] sits on a strategic cell

    @classmethod
    def build(cls, world: ms.GridWorld, params: lb.AirGroundParams,
              radio: lb.RadioConfig, altitude_m: float) -> "TaskTables":
        cfg = world.config
        cells = range(cfg.n_cells)
        rates = build_rate_table(world, params, radio, altitude_m)
        location = [-1] * cfg.n_cells
        for loc in world.strategic:
            location[loc.cell_index] = loc.id
        return cls(
            world=world,
            targets=tuple(
                tuple(move_target(c, a, cfg.cells_per_side) for a in range(N_ACTIONS))
                for c in cells
            ),
            leg_time_s=cfg.cell_width_m / cfg.speed_mps,
            queues=tuple(tuple(world.device_queue(c)) for c in cells),
            location=tuple(location),
            collect_time_s=tuple(d.packet_bits / r for d, r in zip(world.devices, rates)),
            rate_ok=tuple(lb.rate_feasible(r, radio) for r in rates),
            device_strategic=tuple(c in world.strategic_cells for c in world.device_cell),
        )


class CoverageEnv:
    """Data-collection MDP over the :class:`TaskTables` of a task.

    The observation is a flat float vector: one cell one-hot per UAV
    slot (inactive slots stay zero), then per strategic location a cell
    one-hot plus its normalised remaining demand, then the visited-cell
    bitmap of the frame, then the normalised active-UAV count. All
    features lie in [0, 1].

    Episode state lives in per-UAV columns (``uav_cell``, ``uav_active``,
    ``uav_energy_j``, ``uav_d_com_s``, ``uav_d_data_s``, ``uav_served``
    and ``uav_track``, the ``(slot, cell)`` visits of each UAV), one row
    per UAV that flew this frame, plus the remaining ``demand`` per
    strategic location. Active rows fill the observation slots in row
    order.
    """

    def __init__(
        self,
        mission_cfg: ms.MissionConfig,
        link_params: lb.AirGroundParams,
        radio: lb.RadioConfig,
        env_cfg: EnvConfig,
    ) -> None:
        if env_cfg.max_swarm > mission_cfg.n_cells:
            raise ValueError("cannot host more UAVs than cells")
        self.mission_cfg = mission_cfg
        self.link_params = link_params
        self.radio = radio
        self.cfg = env_cfg
        self.altitude_m = min(mission_cfg.uav_altitude_m, lb.max_altitude_m(link_params))
        self.energy_norm_j = mission_cfg.p_oper_watts * mission_cfg.slot_seconds
        self.tables: TaskTables | None = None
        self._tables_key: tuple | None = None
        self.task: TaskSpec | None = None
        self.current_swarm_size = env_cfg.swarm_size
        self._rng = np.random.default_rng(0)
        self._done = True
        self._slot = 0

    # --- sizing -----------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.mission_cfg.n_cells

    @property
    def state_dim(self) -> int:
        c = self.n_cells
        return c * self.cfg.max_swarm + (c + 1) * self.cfg.num_strategic + c + 1

    @property
    def slot(self) -> int:
        return self._slot

    @property
    def done(self) -> bool:
        return self._done

    # --- tasks ------------------------------------------------------------

    def nominal_task(self) -> TaskSpec:
        """The configured scenario task, untouched by sampling or events."""
        return TaskSpec(
            swarm_size=self.cfg.swarm_size,
            strategic_cells=tuple(self.cfg.strategic_cells),
            device_seed=self.cfg.device_seed,
            initial_demands=(self.cfg.initial_demand,) * self.cfg.num_strategic,
        )

    def sample_task(self, rng: np.random.Generator) -> TaskSpec:
        """Draw a task: swarm size from the configured range, fresh
        distinct strategic cells, fresh device layout seed."""
        size = int(rng.integers(self.cfg.swarm_min, self.cfg.swarm_max + 1))
        cells = rng.choice(self.n_cells, size=self.cfg.num_strategic, replace=False)
        seed = int(rng.integers(0, 2**31 - 1))
        demands = (self.cfg.initial_demand,) * self.cfg.num_strategic
        return TaskSpec(size, tuple(int(c) for c in np.sort(cells)), seed, demands)

    def apply_swarm_event(self, event: SwarmEvent) -> int:
        """Resize the swarm; returns the new size.

        Effective at the next reset (events are scheduled on episode
        boundaries). Applied mid-episode, joining UAVs spawn at once on
        free cells and take the next observation slots, and the highest
        active slots leave. A departed UAV keeps its row: its energy,
        service and visits still count toward the episode's energy and
        coverage.
        """
        if event.kind == "join":
            new_size = self.current_swarm_size + event.count
            if new_size > self.cfg.max_swarm:
                raise ValueError("join would exceed the maximum swarm size")
        else:
            new_size = self.current_swarm_size - event.count
            if new_size < 1:
                raise ValueError("leave would empty the swarm")
        self.current_swarm_size = new_size
        if not self._done:
            rows = self._active_rows()
            if event.kind == "leave":
                for row in rows[new_size:]:
                    self.uav_active[row] = False
            else:
                occupied = {self.uav_cell[r] for r in rows}
                free = [c for c in range(self.n_cells) if c not in occupied]
                fresh = self._rng.choice(len(free), size=new_size - len(rows), replace=False)
                for pick in fresh:
                    self._add_uav(free[int(pick)])
        return new_size

    # --- episode lifecycle --------------------------------------------------

    def reset(
        self,
        task: TaskSpec | None = None,
        rng_seed: int | None = None,
        start_cells: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Start a fresh frame of ``task``.

        Start cells are sampled uniformly without collision unless given
        explicitly. The seed fixes start cells and nothing else; the
        device layout comes from the task's own seed. The task tables
        are rebuilt only when the strategic cells, the layout seed or the
        initial demands change.
        """
        if task is None:
            # A bare reset keeps the swarm size left behind by events.
            task = task_with_swarm(self.nominal_task(), self.current_swarm_size)
        if task.swarm_size > self.cfg.max_swarm:
            raise ValueError("task swarm size exceeds max_swarm")
        if task.swarm_size > self.n_cells:
            raise ValueError("more UAVs than cells")
        if len(task.strategic_cells) != self.cfg.num_strategic:
            raise ValueError("task must carry num_strategic strategic cells")
        if len(task.initial_demands) != len(task.strategic_cells):
            raise ValueError("one demand per strategic cell required")
        self.task = task
        self.current_swarm_size = task.swarm_size
        self._rng = np.random.default_rng(rng_seed)

        key = (task.strategic_cells, task.device_seed, task.initial_demands)
        if key != self._tables_key:
            devices = ms.default_device_layout(
                self.mission_cfg,
                task.strategic_cells,
                seed=task.device_seed,
                count=max(self.cfg.device_count, len(task.strategic_cells)),
                tx_watts=self.radio.device_tx_watts,
            )
            world = ms.build_grid(
                self.mission_cfg, devices, task.strategic_cells, task.initial_demands
            )
            self.tables = TaskTables.build(world, self.link_params, self.radio, self.altitude_m)
            self._tables_key = key
        if start_cells is None:
            picks = self._rng.choice(self.n_cells, size=task.swarm_size, replace=False)
            start_cells = [int(c) for c in picks]
        elif len(set(start_cells)) != task.swarm_size:
            raise ValueError("start cells must be distinct and match the swarm size")

        self._slot = 0
        self._done = False
        self.uav_cell, self.uav_active, self.uav_served = [], [], []
        self.uav_energy_j, self.uav_d_com_s, self.uav_d_data_s = [], [], []
        self.uav_track = []
        for cell in start_cells:
            self._add_uav(int(cell))
        self.demand = [float(d) for d in task.initial_demands]
        self._collected: set[int] = set()
        self._satisfied_units = 0.0
        self._total_demand = float(sum(task.initial_demands))
        self._d_com = 0.0
        self._d_data = 0.0
        self._collisions = 0
        self._visits = np.zeros(self.n_cells, dtype=np.int64)
        self._visited = np.zeros(self.n_cells, dtype=np.float64)
        self._cell_energy = np.zeros(self.n_cells, dtype=np.float64)
        self._reward_sum = 0.0
        return self.encode_state()

    def _add_uav(self, cell: int) -> None:
        self.uav_cell.append(cell)
        self.uav_active.append(True)
        self.uav_energy_j.append(0.0)
        self.uav_d_com_s.append(0.0)
        self.uav_d_data_s.append(0.0)
        self.uav_served.append(False)
        self.uav_track.append([(self._slot, cell)])

    def _active_rows(self) -> list[int]:
        return [row for row, on in enumerate(self.uav_active) if on]

    def step(self, actions: Sequence[int]) -> StepOutcome:
        """Advance one slot. ``actions`` holds one action id per active UAV."""
        if self._done or self.tables is None:
            raise RuntimeError("step() called on a finished episode; call reset()")
        tables = self.tables
        rows = self._active_rows()
        if len(actions) < len(rows):
            raise ValueError("need one action per active UAV")

        origins = [self.uav_cell[row] for row in rows]
        targets = [tables.targets[cell][action] for cell, action in zip(origins, actions)]
        finals, collided = resolve_moves(origins, targets)

        self._slot += 1
        step_energy = 0.0
        uav_energy = []
        rate_ok = [True] * len(rows)
        collected_now = []
        for i, row in enumerate(rows):
            cell = finals[i]
            leg_t = tables.leg_time_s if cell != origins[i] else 0.0
            collect_t = 0.0
            # A cancelled mover forfeits its slot: no move, no collection.
            dev_id = None if collided[i] else self._next_uncollected(cell)
            if dev_id is not None:
                collect_t = tables.collect_time_s[dev_id]
                self._collected.add(dev_id)
                rate_ok[i] = tables.rate_ok[dev_id]
                if tables.device_strategic[dev_id]:
                    self.uav_served[row] = True
                collected_now.append(dev_id)
            e = ms.uav_energy_j(leg_t + collect_t, collect_t, self.mission_cfg)
            self.uav_cell[row] = cell
            self.uav_d_com_s[row] += leg_t
            self.uav_d_data_s[row] += collect_t
            self.uav_energy_j[row] += e
            self.uav_track[row].append((self._slot, cell))
            self._d_com += leg_t
            self._d_data += collect_t
            self._cell_energy[cell] += e
            self._visits[cell] += 1
            self._visited[cell] = 1.0
            step_energy += e
            uav_energy.append(e)

        deadline_ok = ms.meets_deadline(
            ms.total_delay_s(self._d_data, self._d_com), self.mission_cfg.t_max_seconds
        )
        reward = 0.0
        ok_flags = []
        for i in range(len(rows)):
            if collided[i]:
                reward -= 1.0
                ok_flags.append(False)
            elif rate_ok[i] and deadline_ok:
                reward += 1.0
                ok_flags.append(True)
            else:
                ok_flags.append(False)
        self._collisions += sum(collided)

        bonuses = 0.0
        uav_bonus = [0.0] * len(rows)
        for i, cell in enumerate(finals):
            loc = tables.location[cell]
            if loc >= 0 and self.demand[loc] > 0.0:
                bonus = strategic_reward(self._satisfied_units)
                bonuses += bonus
                uav_bonus[i] = bonus
                self.demand[loc] = max(0.0, self.demand[loc] - 1.0)
                self._satisfied_units += 1.0
        reward += bonuses
        shaping = self.cfg.lambda_energy * step_energy / self.energy_norm_j
        reward -= shaping
        self._reward_sum += reward
        scale = self.cfg.lambda_energy / self.energy_norm_j
        uav_rewards = np.array([
            (-1.0 if hit else float(ok)) + bonus - scale * e
            for hit, ok, bonus, e in zip(collided, ok_flags, uav_bonus, uav_energy)
        ])

        self._done = self._slot >= self.mission_cfg.slots
        info = {
            "slot": self._slot,
            "collided": collided,
            "constraint_ok": ok_flags,
            "deadline_ok": deadline_ok,
            "rate_ok": rate_ok,
            "step_energy_j": step_energy,
            "bonuses": bonuses,
            "shaping": shaping,
            "collected": collected_now,
            "cells": finals,
        }
        return StepOutcome(self.encode_state(), reward, self._done, info, uav_rewards)

    def _next_uncollected(self, cell_index: int) -> int | None:
        for dev_id in self.tables.queues[cell_index]:
            if dev_id not in self._collected:
                return dev_id
        return None

    # --- observations and accounting ---------------------------------------

    def encode_state(self) -> np.ndarray:
        """Flat observation vector for the current episode state."""
        if self.tables is None:
            raise RuntimeError("encode_state() before reset()")
        c = self.n_cells
        vec = np.zeros(self.state_dim, dtype=np.float64)
        rows = self._active_rows()
        for slot, row in enumerate(rows):
            vec[slot * c + self.uav_cell[row]] = 1.0
        base = c * self.cfg.max_swarm
        task = self.task
        for i, (cell, initial) in enumerate(zip(task.strategic_cells, task.initial_demands)):
            vec[base + i * (c + 1) + cell] = 1.0
            if initial > 0.0:
                vec[base + i * (c + 1) + c] = self.demand[i] / initial
        base += (c + 1) * self.cfg.num_strategic
        vec[base : base + c] = self._visited
        vec[base + c] = len(rows) / self.cfg.max_swarm
        return vec

    def episode_stats(self) -> dict:
        """Accounting snapshot used by the harness after each episode.

        Energy and coverage count every UAV that flew this frame,
        including ones that left mid-episode.
        """
        strategic = self.task.strategic_cells
        strategic_energy = float(sum(self._cell_energy[c] for c in sorted(strategic)))
        total_energy = float(self._cell_energy.sum())
        return {
            "reward": self._reward_sum,
            "swarm_size": len(self._active_rows()),
            "steps": self._slot,
            "energy_total_j": total_energy,
            "energy_masked_j": float(ms.swarm_energy_j(zip(self.uav_energy_j, self.uav_served))),
            "energy_strategic_j": strategic_energy,
            "energy_nonstrategic_j": total_energy - strategic_energy,
            "satisfied_units": self._satisfied_units,
            "total_demand": self._total_demand,
            "satisfaction": (
                self._satisfied_units / self._total_demand if self._total_demand else 1.0
            ),
            "collisions": self._collisions,
            "d_data_s": self._d_data,
            "d_com_s": self._d_com,
            "coverage_ok": ms.strategic_coverage_satisfied(strategic, self.uav_track),
            "visits": self._visits.copy(),
        }


def make_env(
    mission_cfg: ms.MissionConfig | None = None,
    link_params: lb.AirGroundParams | None = None,
    radio: lb.RadioConfig | None = None,
    env_cfg: EnvConfig | None = None,
) -> CoverageEnv:
    """Environment with every default filled in (urban propagation)."""
    return CoverageEnv(
        mission_cfg or ms.MissionConfig(),
        link_params or lb.params_from_preset("urban"),
        radio or lb.RadioConfig(),
        env_cfg or EnvConfig(),
    )


def task_with_swarm(task: TaskSpec, swarm_size: int) -> TaskSpec:
    return replace(task, swarm_size=swarm_size)
