"""Exact solver on instances small enough to re-enumerate by hand.

The agreement tests rebuild the whole search with a separate, plain
``itertools`` walker that only shares the physics primitives (rates,
delays, energies) with the package — not the solver's incremental
accounting or pruning. The bounded, memoised search is also held to
:func:`exhaustive_optimum`, a scan of every joint sequence with only
feasibility cuts, which must return the same plan and the same
objective to the bit.
"""

import math
import random
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from swarmcover import link_budget as lb
from swarmcover import mission as ms
from swarmcover.env import (
    ACTIONS,
    N_ACTIONS,
    CoverageEnv,
    EnvConfig,
    TaskTables,
    build_rate_table,
    resolve_moves,
)
from swarmcover.oracle import (
    SEARCH_ORDER,
    EnumerationBudgetExceeded,
    ExactInstance,
    ExactSolution,
    _actions_from_cells,
    enumerate_optimum,
    verify_feasibility,
)

# Single UAV on a 2x2 grid, one device parked at the centre of the only
# strategic cell. Cheapest plan: hover once, then one 8.8 s hop east.
#   energy = 300 * (8.8 + t_c) + 5 * t_c,  t_c = 1e6 bits / rate(overhead, 100 m)
HAND_OBJECTIVE_J = 2648.238103201081


def two_by_two(horizon: int = 2, **mission_kw) -> ExactInstance:
    mission_kw.setdefault("t_max_seconds", 600.0)
    mission = ms.MissionConfig(area_m=176.0, cells_per_side=2, slots=4, **mission_kw)
    return ExactInstance(
        mission=mission,
        link=lb.params_from_preset("urban"),
        radio=lb.RadioConfig(),
        strategic_cells=(1,),
        devices=(ms.IotDevice(0, (132.0, 44.0), 1e6),),
        start_cells=(0,),
        horizon=horizon,
    )


def mission_center(mission: ms.MissionConfig, cell: int) -> tuple[float, float]:
    row, col = divmod(cell, mission.cells_per_side)
    return ((col + 0.5) * mission.cell_width_m, (row + 0.5) * mission.cell_width_m)


def three_by_three() -> ExactInstance:
    """One UAV, two strategic cells, plus a decoy device off the cheap route."""
    mission = ms.MissionConfig(area_m=264.0, cells_per_side=3, slots=6)

    return ExactInstance(
        mission=mission,
        link=lb.params_from_preset("urban"),
        radio=lb.RadioConfig(),
        strategic_cells=(4, 8),
        devices=(
            ms.IotDevice(0, mission_center(mission, 4), 1e6),
            ms.IotDevice(1, mission_center(mission, 8), 1e6),
            ms.IotDevice(2, mission_center(mission, 1), 1e6),  # collecting this only costs time
        ),
        start_cells=(0,),
        horizon=4,
    )


def brute_force_best(instance: ExactInstance) -> float:
    """Independent single-UAV re-enumeration over raw action sequences.

    Movement uses its own row/column arithmetic; any relabelling of the
    directions covers the same sequence space, so the minimum matches
    regardless of naming conventions.
    """
    assert len(instance.start_cells) == 1
    world = instance.build_world()
    cfg = instance.mission
    n = cfg.cells_per_side
    alt = instance.altitude_m
    strategic = set(instance.strategic_cells)
    deltas = [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]

    def step_cell(cell: int, action: int) -> int:
        row, col = divmod(cell, n)
        drow, dcol = deltas[action]
        r2, c2 = row + drow, col + dcol
        return r2 * n + c2 if 0 <= r2 < n and 0 <= c2 < n else cell

    by_cell = {world.device_cell[d.id]: d for d in world.devices}
    best = np.inf
    for seq in product(range(5), repeat=instance.horizon):
        cell = instance.start_cells[0]
        collected: set[int] = set()
        visited: set[int] = set()
        d_com = d_data = 0.0
        served = rate_broken = False
        for action in seq:
            nxt = step_cell(cell, action)
            if nxt != cell:
                cx, cy = world.cell_center(cell)
                nx, ny = world.cell_center(nxt)
                d_com += ms.travel_time_s((cx, cy, alt), (nx, ny, alt), cfg.speed_mps)
            cell = nxt
            visited.add(cell)
            device = by_cell.get(cell)
            if device is not None and device.id not in collected:
                collected.add(device.id)
                geom = lb.LinkGeometry((*world.cell_center(cell), alt), device.position_xy)
                rate = lb.achievable_rate_bps(geom, instance.link, instance.radio)
                if not lb.rate_feasible(rate, instance.radio):
                    rate_broken = True
                d_data += device.packet_bits / rate
                if world.device_cell[device.id] in strategic:
                    served = True
        feasible = (
            not rate_broken
            and strategic <= visited
            and d_com + d_data <= cfg.t_max_seconds
        )
        if feasible and served:
            best = min(best, ms.uav_energy_j(d_com + d_data, d_data, cfg))
        elif feasible:
            best = min(best, 0.0)  # nobody served anything: masked energy is zero
    return float(best)


def exhaustive_optimum(instance: ExactInstance) -> ExactSolution:
    """Scan the whole joint action space and return the cheapest feasible plan.

    The reference for :func:`enumerate_optimum`: the same dynamics and
    accounting in the same order, with only the feasibility cuts (deadline
    overrun and rate violations can never heal), and a budget on the
    number of joint sequences decided before the scan starts.
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


# --- agreement with an independent enumeration ------------------------------------


def test_hand_instance_matches_brute_force_and_pin():
    instance = two_by_two()
    solution = enumerate_optimum(instance)
    assert solution.feasible
    assert solution.objective_j == pytest.approx(brute_force_best(instance), rel=1e-9)
    assert solution.objective_j == pytest.approx(HAND_OBJECTIVE_J, rel=1e-12)
    # one serving UAV, so masking changes nothing
    assert solution.unmasked_j == pytest.approx(solution.objective_j, rel=1e-12)


def test_hand_instance_objective_from_first_principles():
    instance = two_by_two()
    geom = lb.LinkGeometry((132.0, 44.0, 100.0), (132.0, 44.0))
    t_c = 1e6 / lb.achievable_rate_bps(geom, instance.link, instance.radio)
    expected = 300.0 * (8.8 + t_c) + 5.0 * t_c
    assert enumerate_optimum(instance).objective_j == pytest.approx(expected, rel=1e-12)


def test_three_by_three_matches_brute_force():
    instance = three_by_three()
    solution = enumerate_optimum(instance)
    assert solution.feasible
    assert solution.objective_j == pytest.approx(brute_force_best(instance), rel=1e-9)
    # the decoy cell never pays for itself
    assert all(1 not in traj for traj in solution.trajectories)


def test_search_counters_on_hand_instance():
    scan = exhaustive_optimum(two_by_two())
    assert scan.leaves_evaluated == 25  # 5 actions, horizon 2, nothing pruned
    assert scan.branches_pruned == 0
    assert scan.feasible_leaves == 8
    # The search expands two of the root's five children, hover and the
    # north hop: south and west clamp back to the hover state (memo), and
    # east-then-hover costs what hover-then-east already found (bound). Below
    # hover, the two clamped moves repeat it; below the north hop, hover
    # repeats hover-then-north and the two clamped moves repeat that (memo).
    # 5 leaves + 8 cuts + 2 expanded inner nodes are the 15 nodes generated.
    solution = enumerate_optimum(two_by_two())
    assert solution.leaves_evaluated == 5
    assert solution.branches_pruned == 8
    assert solution.feasible_leaves == 1


def test_hover_first_tie_break():
    # waiting then hopping ties moving then waiting; the hover-first scan wins
    solution = enumerate_optimum(two_by_two())
    assert solution.trajectories == ((0, 0, 1),)
    assert solution.actions == ((4,), (2,))  # hover, then east


def test_no_strategic_cells_means_all_hover_for_free():
    instance = replace(two_by_two(), strategic_cells=())
    solution = enumerate_optimum(instance)
    assert solution.feasible
    # The integer 0 that the builtin sum gave and ``oracle --out`` writes.
    assert solution.objective_j == 0 and type(solution.objective_j) is int
    assert solution.trajectories == ((0, 0, 0),)
    assert solution.actions == ((4,), (4,))


def test_impossible_deadline_reported_not_raised():
    instance = two_by_two(t_max_seconds=1.0)  # any hop alone takes 8.8 s
    solution = enumerate_optimum(instance)
    assert not solution.feasible
    assert solution.objective_j is None
    assert solution.trajectories is None
    # The scan: staying put survives three ways (hover plus two
    # border-clamped moves), real hops are pruned at both levels: 3*3 leaves,
    # 2 + 3*2 pruned branches, and 9 + 2*5 + 6*1 accounts for all 25 sequences.
    scan = exhaustive_optimum(two_by_two(t_max_seconds=1.0))
    assert not scan.feasible
    assert scan.leaves_evaluated == 9
    assert scan.branches_pruned == 8
    # The search: the clamped moves repeat the hover state (memo), so only
    # hover is expanded: 1 leaf, 2 hops + 2 repeats cut at each level.
    assert solution.leaves_evaluated == 1
    assert solution.branches_pruned == 8


def test_relaxing_the_deadline_never_costs_more():
    solutions = [
        enumerate_optimum(two_by_two(t_max_seconds=t)) for t in (8.0, 9.0, 600.0)
    ]
    assert not solutions[0].feasible  # 8.8 s of travel cannot fit in 8 s
    assert solutions[1].feasible and solutions[2].feasible
    assert solutions[2].objective_j <= solutions[1].objective_j + 1e-12


def test_budget_guard():
    with pytest.raises(EnumerationBudgetExceeded, match="exceed the budget"):
        enumerate_optimum(replace(two_by_two(), budget=10))


def test_budget_counts_generated_nodes():
    # three_by_three() generates 170 nodes. With one fewer the search stops
    # part-way; the old a-priori guard would have refused any budget below
    # its 625 sequences before starting.
    instance = three_by_three()
    assert enumerate_optimum(replace(instance, budget=170)) == enumerate_optimum(instance)
    with pytest.raises(EnumerationBudgetExceeded, match="170 search nodes exceed the budget of 169"):
        enumerate_optimum(replace(instance, budget=169))


# --- agreement with the exhaustive scan ---------------------------------------------


def random_instance(seed: int) -> ExactInstance:
    """A small random instance: any grid, swarm, horizon, deadline, rate
    floor, power and coverage rule the exhaustive scan can afford."""
    rng = random.Random(seed)
    side = rng.choice((2, 3))
    n_uavs = rng.choice((1, 2))
    horizon = rng.randint(1, 6 if n_uavs == 1 else 3)
    mission = ms.MissionConfig(
        area_m=88.0 * side, cells_per_side=side, slots=horizon,
        t_max_seconds=rng.choice((0.0, 5.0, 9.0, 18.0, 30.0, 60.0, 600.0, 600.0)),
        p_oper_watts=rng.choice((0.0, 300.0, 300.0, 300.0)),
        p_comm_watts=rng.choice((0.0, 5.0, 5.0, 5.0)),
    )
    cells = range(mission.n_cells)
    strategic = tuple(rng.sample(cells, rng.choice((0, 1, 1, 2, 2))))
    # Most strategic cells get a device at their centre. Extra devices sit
    # on a random cell centre (equal rates, so distinct plans can reach
    # equal accounting) or anywhere in the area.
    spots = [mission_center(mission, c) for c in strategic if rng.random() < 0.8]
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            spots.append(mission_center(mission, rng.choice(cells)))
        else:
            spots.append((rng.uniform(0.0, mission.area_m), rng.uniform(0.0, mission.area_m)))
    devices = tuple(ms.IotDevice(i, xy, 1e6) for i, xy in enumerate(spots))
    link, radio = lb.params_from_preset("urban"), lb.RadioConfig()
    instance = ExactInstance(
        mission=mission, link=link, radio=radio, strategic_cells=strategic,
        devices=devices, start_cells=tuple(rng.sample(cells, n_uavs)), horizon=horizon,
        per_uav_coverage=rng.random() < 0.5,
    )
    if devices and rng.random() < 0.4:
        # a floor between the weakest and the strongest link breaks some devices
        rates = build_rate_table(instance.build_world(), link, radio, instance.altitude_m)
        floor = rng.uniform(min(rates), max(rates))
        instance = replace(instance, radio=lb.RadioConfig(rate_floor_bps=floor))
    return instance


@pytest.mark.parametrize("seed", range(60))
def test_search_matches_the_exhaustive_scan(seed):
    instance = random_instance(seed)
    scan = exhaustive_optimum(instance)
    solution = enumerate_optimum(instance)
    assert solution.feasible == scan.feasible
    assert solution.trajectories == scan.trajectories
    assert solution.actions == scan.actions
    assert solution.objective_j == scan.objective_j
    assert solution.unmasked_j == scan.unmasked_j
    assert solution.leaves_evaluated <= scan.leaves_evaluated


# --- beyond the exhaustive scan's reach ---------------------------------------------


def two_uav_acceptance_instance(horizon: int) -> ExactInstance:
    """Acceptance test 3's grid with a second UAV: strategic cells 4 and 5,
    one device on each, UAVs starting on cells 1 and 7."""
    mission = ms.MissionConfig(area_m=264.0, cells_per_side=3, slots=8, frame_seconds=192.0)
    return ExactInstance(
        mission=mission, link=lb.params_from_preset("urban"), radio=lb.RadioConfig(),
        strategic_cells=(4, 5),
        devices=tuple(ms.default_device_layout(mission, (4, 5), seed=7, count=2)),
        start_cells=(1, 7), horizon=horizon,
    )


def test_two_uavs_at_horizon_eight_solve_in_seconds():
    # 25**8 = 1.5e11 joint sequences: out of reach for the exhaustive scan.
    instance = two_uav_acceptance_instance(8)
    began = time.perf_counter()
    solution = enumerate_optimum(instance)
    elapsed = time.perf_counter() - began
    assert elapsed < 5.0
    assert solution.feasible
    report = verify_feasibility(solution.trajectories, instance)
    assert report.all_ok
    assert solution.objective_j == pytest.approx(report.objective_j, rel=1e-9)

    # The horizon-4 optimum, then hovering, is a horizon-8 plan too.
    short = enumerate_optimum(two_uav_acceptance_instance(4))
    padded = [traj + (traj[-1],) * 4 for traj in short.trajectories]
    padded_report = verify_feasibility(padded, instance)
    if padded_report.all_ok:
        assert solution.objective_j <= padded_report.objective_j


# --- per-UAV coverage --------------------------------------------------------------


def pair_instance(per_uav: bool) -> ExactInstance:
    mission = ms.MissionConfig(area_m=176.0, cells_per_side=2, slots=4)
    return ExactInstance(
        mission=mission,
        link=lb.params_from_preset("urban"),
        radio=lb.RadioConfig(),
        strategic_cells=(1, 2),
        devices=(
            ms.IotDevice(0, (132.0, 44.0), 1e6),
            ms.IotDevice(1, (44.0, 132.0), 1e6),
        ),
        start_cells=(0, 3),
        horizon=2,
        per_uav_coverage=per_uav,
    )


def test_split_coverage_feasible_for_the_swarm_but_not_per_uav():
    union = enumerate_optimum(pair_instance(per_uav=False))
    assert union.feasible
    covered = set().union(*(set(t[1:]) for t in union.trajectories))
    assert {1, 2} <= covered

    strict = enumerate_optimum(pair_instance(per_uav=True))
    assert not strict.feasible  # cells 1 and 2 are diagonal: no UAV can do both in 2 slots

    report = verify_feasibility(union.trajectories, pair_instance(per_uav=True))
    assert not report.coverage_ok and not report.all_ok


# --- the independent checker -------------------------------------------------------


def test_env_replays_the_optimum_at_its_objective():
    # Acceptance test 3's instance: the solver and the environment read the
    # same task tables, so replaying the optimal plan costs the optimum.
    mission = ms.MissionConfig(area_m=264.0, cells_per_side=3, slots=8, frame_seconds=192.0)
    link, radio = lb.params_from_preset("urban"), lb.RadioConfig()
    env = CoverageEnv(mission, link, radio, EnvConfig(
        max_swarm=1, strategic_cells=(4, 5), device_count=2,
        swarm_size=1, swarm_min=1, swarm_max=1, lambda_energy=0.5,
    ))
    task = env.nominal_task()
    devices = tuple(ms.default_device_layout(
        mission, task.strategic_cells, seed=task.device_seed, count=2,
    ))
    instance = ExactInstance(
        mission=mission, link=link, radio=radio, strategic_cells=(4, 5),
        devices=devices, start_cells=(1,), horizon=8,
    )
    best = enumerate_optimum(instance)
    env.reset(task, start_cells=instance.start_cells)
    for joint in best.actions:
        env.step(joint)
    assert tuple(env.uav_track[0]) == best.trajectories[0]
    assert env.episode_stats()["energy_masked_j"] == pytest.approx(best.objective_j, rel=1e-12)


def test_env_bounce_books_the_optimum():
    # A bounced mover collects on the cell it stays on, in the env as in
    # the solver. UAV 0 walks west into the hovering UAV 1, bounces, and
    # collects the device of strategic cell 4 where it stays: the env
    # books the solver's 8.238 J optimum, not a free coverage.
    mission = ms.MissionConfig(area_m=264.0, cells_per_side=3, slots=1)
    link, radio = lb.params_from_preset("urban"), lb.RadioConfig()
    env = CoverageEnv(mission, link, radio, EnvConfig(
        max_swarm=2, strategic_cells=(4,), device_count=1,
        swarm_size=2, swarm_min=1, swarm_max=2,
    ))
    task = env.nominal_task()
    devices = tuple(ms.default_device_layout(
        mission, task.strategic_cells, seed=task.device_seed, count=1,
    ))
    instance = ExactInstance(
        mission=mission, link=link, radio=radio, strategic_cells=(4,),
        devices=devices, start_cells=(4, 3), horizon=1,
    )
    best = enumerate_optimum(instance)
    assert best.objective_j == pytest.approx(8.238, abs=5e-4)

    west, hover = ACTIONS.index("west"), ACTIONS.index("hover")
    env.reset(task, start_cells=instance.start_cells)
    (dev,) = env.tables.queues[4]
    out = env.step([west, hover])
    assert out.info["collided"] == [True, False]
    assert out.info["collected"] == [dev]
    stats = env.episode_stats()
    assert stats["coverage_ok"]
    assert stats["energy_masked_j"] == pytest.approx(best.objective_j, rel=1e-12)

    assert env.uav_track == [[4, 4], [3, 3]]
    report = verify_feasibility(env.uav_track, instance)
    assert report.all_ok
    assert report.objective_j == pytest.approx(best.objective_j, rel=1e-12)


def test_env_books_the_verifier_energy_of_random_play():
    # Whatever the plan, bounces included, the env's own energy accounting
    # equals the independent re-scoring of its cell sequences.
    rng = np.random.default_rng(11)
    link, radio = lb.params_from_preset("urban"), lb.RadioConfig()
    bounced_onto_a_device = 0
    for _ in range(300):
        side = int(rng.integers(2, 4))
        n_cells = side * side
        uavs = int(rng.integers(1, 3))
        slots = int(rng.integers(1, 7))
        strategic = tuple(sorted(int(c) for c in rng.choice(
            n_cells, size=int(rng.integers(1, 3)), replace=False)))
        mission = ms.MissionConfig(area_m=88.0 * side, cells_per_side=side, slots=slots,
                                   frame_seconds=24.0 * slots)
        env = CoverageEnv(mission, link, radio, EnvConfig(
            max_swarm=2, strategic_cells=strategic,
            device_count=int(rng.integers(2 * n_cells, 4 * n_cells + 1)),
            swarm_size=uavs, swarm_min=1, swarm_max=2,
            device_seed=int(rng.integers(0, 2**31 - 1)),
        ))
        task = env.nominal_task()
        starts = tuple(int(c) for c in rng.choice(n_cells, size=uavs, replace=False))
        env.reset(task, start_cells=starts)
        queues, collected = env.tables.queues, set()
        instance = ExactInstance(
            mission=mission, link=link, radio=radio, strategic_cells=strategic,
            devices=tuple(env.tables.world.devices), start_cells=starts, horizon=slots,
        )
        bounce_on_a_device = False
        for _ in range(slots):
            origins = list(env.uav_cell)
            out = env.step(rng.integers(0, N_ACTIONS, size=uavs))
            bounce_on_a_device |= any(hit and not collected.issuperset(queues[cell])
                                      for hit, cell in zip(out.info["collided"], origins))
            collected.update(out.info["collected"])
        bounced_onto_a_device += bounce_on_a_device
        stats = env.episode_stats()
        report = verify_feasibility(env.uav_track, instance)
        assert stats["energy_masked_j"] == pytest.approx(report.objective_j, rel=1e-12)
        assert stats["energy_total_j"] == pytest.approx(report.unmasked_j, rel=1e-12)
        assert stats["coverage_ok"] == report.coverage_ok
    assert bounced_onto_a_device > 30


def test_verifier_agrees_with_solver_accounting():
    for instance in (two_by_two(), three_by_three(), pair_instance(per_uav=False)):
        solution = enumerate_optimum(instance)
        report = verify_feasibility(solution.trajectories, instance)
        assert report.all_ok
        assert report.objective_j == pytest.approx(solution.objective_j, rel=1e-9)
        assert report.unmasked_j == pytest.approx(solution.unmasked_j, rel=1e-9)
        assert report.first_violation == {"rate": None, "deadline": None}


def test_verifier_pinpoints_deadline_violation():
    report = verify_feasibility([(0, 0, 1)], two_by_two(t_max_seconds=1.0))
    assert not report.deadline_ok
    assert report.first_violation["deadline"] == 2  # the slot of the 8.8 s hop
    assert report.rate_ok and report.coverage_ok
    assert not report.all_ok


def test_verifier_pinpoints_rate_violation():
    instance = replace(two_by_two(), radio=lb.RadioConfig(rate_floor_bps=1e12))
    report = verify_feasibility([(0, 0, 1)], instance)
    assert not report.rate_ok
    assert report.first_violation["rate"] == 2  # collection happens on arrival
    assert report.deadline_ok


def test_verifier_rejects_malformed_plans():
    instance = two_by_two()
    with pytest.raises(ValueError, match="start plus every slot"):
        verify_feasibility([(0, 1)], instance)
    with pytest.raises(ValueError, match="begin at the instance start"):
        verify_feasibility([(1, 1, 1)], instance)
    with pytest.raises(ValueError, match="not one move apart"):
        verify_feasibility([(0, 3, 3)], instance)  # diagonal teleport
    with pytest.raises(ValueError, match="share a cell"):
        verify_feasibility([(0, 1, 1), (3, 1, 1)], pair_instance(per_uav=False))


# --- instance validation ------------------------------------------------------------


def test_instance_limits():
    base = two_by_two()
    with pytest.raises(ValueError, match="4x4"):
        replace(base, mission=ms.MissionConfig(area_m=440.0, cells_per_side=5))
    with pytest.raises(ValueError, match="1..2 UAVs"):
        replace(base, start_cells=(0, 1, 2))
    with pytest.raises(ValueError, match="horizon"):
        replace(base, horizon=0)
    with pytest.raises(ValueError, match="horizon"):
        replace(base, horizon=11)
    with pytest.raises(ValueError, match="distinct"):
        replace(base, start_cells=(0, 0))
    with pytest.raises(ValueError, match="outside the grid"):
        replace(base, start_cells=(7,))
    with pytest.raises(ValueError, match="budget"):
        replace(base, budget=0)


def test_altitude_clamped_to_snr_ceiling():
    sky_high = two_by_two(uav_altitude_m=1e9)
    assert sky_high.altitude_m == pytest.approx(lb.max_altitude_m(sky_high.link))
    assert two_by_two().altitude_m == 100.0
