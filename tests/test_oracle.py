"""Exhaustive solver on instances small enough to re-enumerate by hand.

The agreement tests rebuild the whole search with a separate, plain
``itertools`` walker that only shares the physics primitives (rates,
delays, energies) with the package — not the solver's incremental
accounting or pruning.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from swarmcover import link_budget as lb
from swarmcover import mission as ms
from swarmcover.env import CoverageEnv, EnvConfig
from swarmcover.oracle import (
    EnumerationBudgetExceeded,
    ExactInstance,
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
        devices=(ms.IotDevice(0, (132.0, 44.0), 1e6, 0.2),),
        start_cells=(0,),
        horizon=horizon,
    )


def three_by_three() -> ExactInstance:
    """One UAV, two strategic cells, plus a decoy device off the cheap route."""
    mission = ms.MissionConfig(area_m=264.0, cells_per_side=3, slots=6)
    width = mission.cell_width_m

    def center(cell: int) -> tuple[float, float]:
        row, col = divmod(cell, 3)
        return ((col + 0.5) * width, (row + 0.5) * width)

    return ExactInstance(
        mission=mission,
        link=lb.params_from_preset("urban"),
        radio=lb.RadioConfig(),
        strategic_cells=(4, 8),
        devices=(
            ms.IotDevice(0, center(4), 1e6, 0.2),
            ms.IotDevice(1, center(8), 1e6, 0.2),
            ms.IotDevice(2, center(1), 1e6, 0.2),  # collecting this only costs time
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
    solution = enumerate_optimum(two_by_two())
    assert solution.leaves_evaluated == 25  # 5 actions, horizon 2, nothing pruned
    assert solution.branches_pruned == 0
    assert solution.feasible_leaves == 8


def test_hover_first_tie_break():
    # waiting then hopping ties moving then waiting; the hover-first scan wins
    solution = enumerate_optimum(two_by_two())
    assert solution.trajectories == ((0, 0, 1),)
    assert solution.actions == ((4,), (2,))  # hover, then east


def test_no_strategic_cells_means_all_hover_for_free():
    instance = replace(two_by_two(), strategic_cells=())
    solution = enumerate_optimum(instance)
    assert solution.feasible
    assert solution.objective_j == 0.0
    assert solution.trajectories == ((0, 0, 0),)
    assert solution.actions == ((4,), (4,))


def test_impossible_deadline_reported_not_raised():
    instance = two_by_two(t_max_seconds=1.0)  # any hop alone takes 8.8 s
    solution = enumerate_optimum(instance)
    assert not solution.feasible
    assert solution.objective_j is None
    assert solution.trajectories is None
    # staying put survives three ways (hover plus two border-clamped moves),
    # real hops are pruned at both levels: 3*3 leaves, 2 + 3*2 pruned branches,
    # and 9 + 2*5 + 6*1 accounts for all 25 sequences
    assert solution.leaves_evaluated == 9
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


# --- per-UAV coverage --------------------------------------------------------------


def pair_instance(per_uav: bool) -> ExactInstance:
    mission = ms.MissionConfig(area_m=176.0, cells_per_side=2, slots=4)
    return ExactInstance(
        mission=mission,
        link=lb.params_from_preset("urban"),
        radio=lb.RadioConfig(),
        strategic_cells=(1, 2),
        devices=(
            ms.IotDevice(0, (132.0, 44.0), 1e6, 0.2),
            ms.IotDevice(1, (44.0, 132.0), 1e6, 0.2),
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
        max_swarm=1, num_strategic=2, strategic_cells=(4, 5), device_count=2,
        swarm_size=1, swarm_min=1, swarm_max=1, lambda_energy=0.5,
    ))
    task = env.nominal_task()
    devices = tuple(ms.default_device_layout(
        mission, task.strategic_cells, seed=task.device_seed, count=2,
        tx_watts=radio.device_tx_watts,
    ))
    instance = ExactInstance(
        mission=mission, link=link, radio=radio, strategic_cells=(4, 5),
        devices=devices, start_cells=(1,), horizon=8,
    )
    best = enumerate_optimum(instance)
    env.reset(task, start_cells=instance.start_cells)
    for joint in best.actions:
        env.step(joint)
    assert tuple(c for _, c in env.uav_track[0]) == best.trajectories[0]
    assert env.episode_stats()["energy_masked_j"] == pytest.approx(best.objective_j, rel=1e-12)


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
