"""Episodic MDP over the mission world for a centrally-controlled UAV swarm.

One environment step is one mission slot, played by the two functions
the exact solver shares, :func:`resolve_moves` and then
:func:`collect_devices`: every UAV picks one of five moves (the
four compass directions or hover), moves between cell centers, and then
collects at most one packet from an uncollected device assigned to the
cell it ends the slot on. Moves off the grid border degrade to hover.
Two UAVs are never allowed to occupy one cell: moves that would end on
an occupied or contested cell are cancelled, and the offending movers
are penalised but still collect on the cell they stay on.

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

Every step also reports one reward per UAV, built from the same terms:
that UAV's +1 or -1, its own coverage bonus and its own energy shaping.
The per-UAV rewards sum to the scalar reward up to rounding.

A task (:class:`TaskSpec`) gives the swarm size, the strategic cells
and the device layout seed; every strategic location starts a frame
with the same ``EnvConfig.initial_demand`` units. An episode lasts
exactly ``slots`` steps and flies the fixed set of UAVs its task gives.
The swarm size lives in the task alone: a swarm event (join or leave)
yields a resized task, which takes effect at the reset that starts it.
The env writes each episode once, into one :class:`EpisodeArrays`: an
observation row per state, and per step the actions, the per-UAV and
team rewards and the done flag; the learners read those rows. It
declares the observation columns that are not 0/1 in ``real_cols``.
Given the same seed, task and action sequence, every outcome is
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

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
    initial_demand: float = 3.0
    lambda_energy: float = 0.1
    device_count: int = 25
    swarm_size: int = 4
    swarm_min: int = 3
    swarm_max: int = 7
    strategic_cells: tuple[int, ...] = (6, 13, 21)
    device_seed: int = 7
    #: The swarm-size changes of a run, in any order; see :func:`swarm_schedule`.
    events: tuple[SwarmEvent, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.swarm_size <= self.max_swarm:
            raise ValueError("default swarm size must lie in [1, max_swarm]")
        if not 1 <= self.swarm_min <= self.swarm_max <= self.max_swarm:
            raise ValueError("swarm size range must fit inside max_swarm")
        if self.lambda_energy < 0.0:
            raise ValueError("shaping weight must be non-negative")
        if self.initial_demand < 0.0:
            raise ValueError(f"initial_demand must not be negative (got {self.initial_demand!r})")
        if self.device_count < len(self.strategic_cells):
            raise ValueError(f"device_count ({self.device_count}) must be at least the number "
                             f"of strategic cells ({len(self.strategic_cells)})")
        # Replay the whole schedule as the harness does, so a size it cannot
        # reach fails here, not mid-run.
        for _ in swarm_schedule(self.events, self.swarm_size,
                                lambda size, event: next_swarm_size(size, event, self.max_swarm)):
            pass

    @property
    def num_strategic(self) -> int:
        return len(self.strategic_cells)


@dataclass(frozen=True)
class TaskSpec:
    """One concrete scenario drawn from the task distribution."""

    swarm_size: int
    strategic_cells: tuple[int, ...]
    device_seed: int


@dataclass(frozen=True)
class SwarmEvent:
    """A scheduled swarm-size change, effective at the next reset."""

    episode: int
    kind: str  # "join" or "leave"
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave"):
            raise ValueError(f"unknown swarm event kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("event count must be at least 1")
        if self.episode < 0:
            raise ValueError("event episode must not be negative")


def next_swarm_size(size: int, event: SwarmEvent, max_swarm: int) -> int:
    """The swarm size after ``event``; ``ValueError`` if it would leave
    [1, max_swarm]."""
    if event.kind == "join":
        size += event.count
        if size > max_swarm:
            raise ValueError(f"join at episode {event.episode} would exceed the "
                             f"maximum swarm size ({max_swarm})")
    else:
        size -= event.count
        if size < 1:
            raise ValueError(f"leave at episode {event.episode} would empty the swarm")
    return size


def swarm_schedule(
    events: Iterable[SwarmEvent], state, apply: Callable
) -> Iterator[tuple[object, int | None]]:
    """Replay a swarm-event schedule in the order a run meets it, a
    stable sort by episode.

    Yields ``(state, until)`` for each stretch of episodes: the state in
    force and the episode of the event that ends the stretch (``None``
    for the last). ``apply(state, event)`` gives the state after an
    event, and runs only when the next stretch is asked for, so an event
    that cannot apply fails where the run reaches it."""
    for event in sorted(events, key=lambda e: e.episode):
        yield state, event.episode
        state = apply(state, event)
    yield state, None


@dataclass
class StepOutcome:
    state: np.ndarray  # a row of the episode's ``obs``
    reward: float
    done: bool
    info: dict
    #: One reward per UAV, in UAV-id order; sums to ``reward``.
    uav_rewards: np.ndarray


@dataclass
class EpisodeArrays:
    """One episode as the env writes it, a row per step: row t of ``obs``
    is the state step t acts on, row t + 1 the state it leads to. The
    episode's UAVs (every ``obs`` row's trailing feature counts them) fill
    the first of the ``heads`` UAV slots of ``acts`` and ``uav_rewards``;
    the rest stay 0. The first ``steps`` rows (``steps + 1`` of ``obs``)
    are written; their ``reward`` sums to the episode's return."""

    obs: np.ndarray          # [slots + 1, state_dim]
    acts: np.ndarray         # [slots, heads] action ids
    uav_rewards: np.ndarray  # [slots, heads]
    reward: np.ndarray       # [slots] team reward
    done: np.ndarray         # [slots]
    steps: int = 0


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
    if len(set(targets)) == len(targets):  # uncontested: a sweep would cancel nothing
        return list(targets), [False] * len(targets)
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
    so one leg time serves every move, and one UAV's energy in a slot
    depends only on whether it moved and which device it collected:
    ``slot_energy_j[moved][device + 1]``, with column 0 for no device.
    """

    targets: tuple[tuple[int, ...], ...]  # [cell][action] -> destination cell
    leg_time_s: float
    queues: tuple[tuple[int, ...], ...]  # [cell] -> device ids in collection order
    location: tuple[int, ...]  # [cell] -> strategic location index, -1 elsewhere
    collect_time_s: tuple[float, ...]  # [device] packet bits over uplink rate
    rate_ok: tuple[bool, ...]  # [device] uplink rate clears the floor
    device_strategic: tuple[bool, ...]  # [device] sits on a strategic cell
    slot_energy_j: tuple[tuple[float, ...], ...]  # [moved][device + 1] one UAV's slot energy

    @classmethod
    def build(cls, world: ms.GridWorld, params: lb.AirGroundParams,
              radio: lb.RadioConfig, altitude_m: float) -> "TaskTables":
        cfg = world.config
        cells = range(cfg.n_cells)
        rates = build_rate_table(world, params, radio, altitude_m)
        location = [-1] * cfg.n_cells
        for i, cell in enumerate(world.strategic_cells):
            location[cell] = i
        leg_time_s = cfg.cell_width_m / cfg.speed_mps
        collect_time_s = tuple(d.packet_bits / r for d, r in zip(world.devices, rates))
        return cls(
            targets=tuple(
                tuple(move_target(c, a, cfg.cells_per_side) for a in range(N_ACTIONS))
                for c in cells
            ),
            leg_time_s=leg_time_s,
            queues=tuple(tuple(world.device_queue(c)) for c in cells),
            location=tuple(location),
            collect_time_s=collect_time_s,
            rate_ok=tuple(lb.rate_feasible(r, radio) for r in rates),
            device_strategic=tuple(c in world.strategic_cells for c in world.device_cell),
            slot_energy_j=tuple(
                tuple(ms.uav_energy_j(leg + ct, ct, cfg) for ct in (0.0, *collect_time_s))
                for leg in (0.0, leg_time_s)
            ),
        )


def collect_devices(
    tables: TaskTables, cells: Sequence[int], taken: tuple[int, ...]
) -> tuple[list[int | None], tuple[int, ...]]:
    """The UAV on each of the distinct ``cells`` takes the first untaken
    device of the cell's queue; a mover that :func:`resolve_moves` bounced
    collects on the cell it stays on. ``taken`` counts, per cell, the
    devices taken from the front of its queue. Returns each UAV's device
    (``None`` for none) and the advanced cursors."""
    devices: list[int | None] = []
    queues = tables.queues
    for cell in cells:
        queue, k = queues[cell], taken[cell]
        if k < len(queue):
            devices.append(queue[k])
            taken = taken[:cell] + (k + 1,) + taken[cell + 1:]
        else:
            devices.append(None)
    return devices, taken


class CoverageEnv:
    """Data-collection MDP over the :class:`TaskTables` of a task.

    The observation is a flat float vector: one cell one-hot per UAV
    slot (slots past the swarm size stay zero), then per strategic
    location a cell one-hot plus its normalised remaining demand, then
    the visited-cell bitmap of the frame, then the normalised swarm
    size. All features lie in [0, 1]; all but ``real_cols`` (the demand
    and swarm-size fractions) are exactly 0.0 or 1.0.

    ``reset`` starts a fresh :class:`EpisodeArrays` in ``episode`` and
    writes its observation row 0; step t copies row t to row t + 1, writes
    there only what the slot changes (a mover's one-hot, a visited bit, a
    demand fraction that drops), then the step's actions and rewards.
    ``reset`` and ``step`` return those rows, which nothing writes again.

    Episode state lives in per-UAV columns (``uav_cell``,
    ``uav_energy_j`` and ``uav_served``), one row per UAV of the episode,
    plus the remaining ``demand`` per strategic location and per cell
    counts: visits (a UAV ending a slot on the cell), energy, and the
    collection cursors of :func:`collect_devices`. Commute and data time are
    kept only as swarm totals. Rows fill the observation slots in order.
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
        c = mission_cfg.n_cells
        # Offsets into the observation: strategic blocks, then visited bits.
        self._strategic_at = c * env_cfg.max_swarm
        self._visited_at = self._strategic_at + (c + 1) * env_cfg.num_strategic
        #: The observation columns that are not 0/1: each strategic
        #: location's demand fraction, then the swarm-size fraction.
        self.real_cols = tuple(self._strategic_at + i * (c + 1) + c
                               for i in range(env_cfg.num_strategic)) + (self.state_dim - 1,)
        self.tables: TaskTables | None = None
        self._tables_key: tuple | None = None
        self.task: TaskSpec | None = None
        self.episode: EpisodeArrays | None = None

    # --- sizing -----------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.mission_cfg.n_cells

    @property
    def state_dim(self) -> int:
        c = self.n_cells
        return c * self.cfg.max_swarm + (c + 1) * self.cfg.num_strategic + c + 1

    # --- tasks ------------------------------------------------------------

    def nominal_task(self) -> TaskSpec:
        """The configured scenario task, untouched by sampling or events."""
        return TaskSpec(
            swarm_size=self.cfg.swarm_size,
            strategic_cells=tuple(self.cfg.strategic_cells),
            device_seed=self.cfg.device_seed,
        )

    def sample_task(self, rng: np.random.Generator) -> TaskSpec:
        """Draw a task: swarm size from the configured range, fresh
        distinct strategic cells, fresh device layout seed."""
        size = int(rng.integers(self.cfg.swarm_min, self.cfg.swarm_max + 1))
        cells = rng.choice(self.n_cells, size=self.cfg.num_strategic, replace=False)
        seed = int(rng.integers(0, 2**31 - 1))
        return TaskSpec(size, tuple(int(c) for c in np.sort(cells)), seed)

    def apply_swarm_event(self, task: TaskSpec, event: SwarmEvent) -> TaskSpec:
        """``task`` with the swarm size after ``event``.

        A running episode keeps the UAVs it started with to its end.
        """
        return replace(task, swarm_size=next_swarm_size(task.swarm_size, event, self.cfg.max_swarm))

    # --- episode lifecycle --------------------------------------------------

    def reset(
        self,
        task: TaskSpec | None = None,
        rng_seed: int | None = None,
        start_cells: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Start a fresh frame of ``task`` (the nominal task when ``None``)
        and return its first state.

        Start cells are sampled uniformly without collision unless given
        explicitly. The seed fixes start cells and nothing else; the
        device layout comes from the task's own seed. The task tables
        are rebuilt only when the strategic cells or the layout seed
        change. Every strategic location starts with
        ``EnvConfig.initial_demand``.
        """
        if task is None:
            task = self.nominal_task()
        if task.swarm_size > self.cfg.max_swarm:
            raise ValueError("task swarm size exceeds max_swarm")
        if len(task.strategic_cells) != self.cfg.num_strategic:
            raise ValueError("task must carry num_strategic strategic cells")
        self.task = task

        key = (task.strategic_cells, task.device_seed)
        if key != self._tables_key:
            devices = ms.default_device_layout(
                self.mission_cfg,
                task.strategic_cells,
                seed=task.device_seed,
                count=self.cfg.device_count,
            )
            world = ms.build_grid(self.mission_cfg, devices, task.strategic_cells)
            self.tables = TaskTables.build(world, self.link_params, self.radio, self.altitude_m)
            self._tables_key = key
        if start_cells is None:
            rng = np.random.default_rng(rng_seed)
            start_cells = rng.choice(self.n_cells, size=task.swarm_size, replace=False)
        elif len(set(start_cells)) != task.swarm_size:
            raise ValueError("start cells must be distinct and match the swarm size")

        self.uav_cell = [int(c) for c in start_cells]
        self.uav_energy_j = [0.0] * task.swarm_size
        self.uav_served = [False] * task.swarm_size
        initial, n = self.cfg.initial_demand, len(task.strategic_cells)
        self.demand = [float(initial)] * n
        self._taken = (0,) * self.n_cells
        self._satisfied_units = 0.0
        self._total_demand = ms.add_left_to_right((initial,) * n)
        self._d_com = 0.0
        self._d_data = 0.0
        self._collisions = 0
        self._visits = [0] * self.n_cells
        self._cell_energy = [0.0] * self.n_cells

        c, slots, heads = self.n_cells, self.mission_cfg.slots, self.cfg.max_swarm
        self.episode = EpisodeArrays(
            obs=np.zeros((slots + 1, self.state_dim)),
            acts=np.zeros((slots, heads), dtype=np.int64),
            uav_rewards=np.zeros((slots, heads)),
            reward=np.zeros(slots),
            done=np.zeros(slots, dtype=bool),
        )
        obs = self.episode.obs[0]
        for slot, cell in enumerate(self.uav_cell):
            obs[slot * c + cell] = 1.0
        for i, cell in enumerate(task.strategic_cells):
            obs[self._strategic_at + i * (c + 1) + cell] = 1.0
            if initial > 0.0:
                obs[self._strategic_at + i * (c + 1) + c] = self.demand[i] / initial
        obs[self._visited_at + c] = len(self.uav_cell) / heads
        return obs

    def step(self, actions: Sequence[int]) -> StepOutcome:
        """Advance one slot. ``actions`` holds one action id per UAV."""
        ep = self.episode
        if ep is None or ep.steps == self.mission_cfg.slots:
            raise RuntimeError("step() called on a finished episode; call reset()")
        tables = self.tables
        origins = self.uav_cell
        if len(actions) != len(origins):
            raise ValueError(f"need one action per UAV: got {len(actions)} actions "
                             f"for {len(origins)} UAVs")

        finals, collided = resolve_moves(
            origins, [tables.targets[cell][action] for cell, action in zip(origins, actions)]
        )
        devices, self._taken = collect_devices(tables, finals, self._taken)

        t = ep.steps
        ep.obs[t + 1] = ep.obs[t]
        c, obs, demand = self.n_cells, ep.obs[t + 1], self.demand
        initial = self.cfg.initial_demand
        visited_at, demand_at = self._visited_at, self._strategic_at + c
        slot_energy, location = tables.slot_energy_j, tables.location
        d_com, d_data = self._d_com, self._d_data
        rate_ok, uav_bonus, uav_energy = [], [], []
        step_energy = bonuses = 0.0
        for row, (cell, origin, dev_id) in enumerate(zip(finals, origins, devices)):
            moved = cell != origin
            if moved:
                d_com += tables.leg_time_s
                obs[row * c + origin] = 0.0
                obs[row * c + cell] = 1.0
            ok = True
            if dev_id is None:
                e = slot_energy[moved][0]
            else:
                e = slot_energy[moved][dev_id + 1]
                d_data += tables.collect_time_s[dev_id]
                ok = tables.rate_ok[dev_id]
                if tables.device_strategic[dev_id]:
                    self.uav_served[row] = True
            self.uav_energy_j[row] += e
            self._cell_energy[cell] += e
            self._visits[cell] += 1
            obs[visited_at + cell] = 1.0
            bonus = 0.0
            loc = location[cell]
            if loc >= 0 and demand[loc] > 0.0:
                bonus = strategic_reward(self._satisfied_units)
                demand[loc] = max(0.0, demand[loc] - 1.0)
                self._satisfied_units += 1.0
                obs[demand_at + loc * (c + 1)] = demand[loc] / initial
            rate_ok.append(ok)
            uav_energy.append(e)
            uav_bonus.append(bonus)
            step_energy += e
            bonuses += bonus
        self._d_com, self._d_data = d_com, d_data
        self.uav_cell = finals
        self._collisions += sum(collided)

        deadline_ok = ms.meets_deadline(
            ms.total_delay_s(d_data, d_com), self.mission_cfg.t_max_seconds
        )
        ok_flags = [not hit and ok and deadline_ok for hit, ok in zip(collided, rate_ok)]
        base = [-1.0 if hit else float(ok) for hit, ok in zip(collided, ok_flags)]
        shaping = self.cfg.lambda_energy * step_energy / self.energy_norm_j
        reward = sum(base) + bonuses - shaping
        scale = self.cfg.lambda_energy / self.energy_norm_j
        n = len(finals)
        ep.uav_rewards[t, :n] = [b + bonus - scale * e
                                 for b, bonus, e in zip(base, uav_bonus, uav_energy)]
        ep.acts[t, :n] = actions
        ep.reward[t] = reward
        ep.steps = t + 1
        done = ep.done[t] = ep.steps == self.mission_cfg.slots
        info = {
            "collided": collided,
            "constraint_ok": ok_flags,
            "step_energy_j": step_energy,
            "bonuses": bonuses,
            "shaping": shaping,
            "collected": [dev_id for dev_id in devices if dev_id is not None],
            "cells": list(finals),
        }
        return StepOutcome(obs, reward, done, info, ep.uav_rewards[t, :n])

    # --- observations and accounting ---------------------------------------

    def encode_state(self) -> np.ndarray:
        """A copy of the observation of the current episode state."""
        if self.episode is None:
            raise RuntimeError("encode_state() before reset()")
        return self.episode.obs[self.episode.steps].copy()

    def episode_stats(self) -> dict:
        """Accounting snapshot used by the harness after each episode.

        Coverage holds when a UAV ended some slot on every strategic
        cell; a start cell alone does not count.
        """
        strategic = self.task.strategic_cells
        cell_energy = np.array(self._cell_energy)
        strategic_energy = float(sum(cell_energy[c] for c in sorted(strategic)))
        total_energy = float(cell_energy.sum())
        episode = self.episode
        return {
            "reward": float(ms.add_left_to_right(episode.reward[:episode.steps].tolist())),
            "swarm_size": len(self.uav_cell),
            "steps": episode.steps,
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
            "coverage_ok": all(self._visits[c] > 0 for c in strategic),
            "visits": np.array(self._visits, dtype=np.int64),
        }

