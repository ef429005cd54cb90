"""Grid geometry, delay bookkeeping, the energy model, and strategic coverage."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmcover import env as envmod
from swarmcover import mission as ms
from conftest import small_env

CFG = ms.MissionConfig()  # 440 m, 5x5, 600 s frame, 25 slots


# --- grid geometry -------------------------------------------------------------

def test_default_grid_cell_width_and_center():
    assert CFG.cell_width_m == 88.0
    world = ms.build_grid(CFG, None, [])
    assert world.cell_center(0) == (44.0, 44.0)


def test_two_by_two_centers():
    cfg = ms.MissionConfig(area_m=2.0, cells_per_side=2)
    world = ms.build_grid(cfg, None, [])
    centers = [world.cell_center(i) for i in range(4)]
    assert centers == [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5)]


def test_adjacent_center_distance_is_exact():
    world = ms.build_grid(CFG, None, [])
    (x0, y0), (x1, y1) = world.cell_center(0), world.cell_center(1)
    assert math.hypot(x1 - x0, y1 - y0) == CFG.area_m / CFG.cells_per_side


def test_duplicate_strategic_cell_rejected():
    with pytest.raises(ValueError, match="distinct"):
        ms.build_grid(CFG, None, [3, 3])


def test_strategic_cell_out_of_range_rejected():
    with pytest.raises(ValueError):
        ms.build_grid(CFG, None, [25])


def test_cell_of_position_round_trips_centers():
    world = ms.build_grid(CFG, None, [])
    for i in range(CFG.n_cells):
        assert world.cell_of_position(*world.cell_center(i)) == i


# --- travel and delays -----------------------------------------------------------

def test_travel_time_adjacent_cells():
    assert ms.travel_time_s((44.0, 44.0, 100.0), (132.0, 44.0, 100.0), 10.0) == 8.8


def test_travel_time_same_point_is_zero():
    assert ms.travel_time_s((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 10.0) == 0.0


def test_travel_time_diagonal_pinned():
    # 88 * sqrt(2) / 10
    t = ms.travel_time_s((44.0, 44.0, 100.0), (132.0, 132.0, 100.0), 10.0)
    assert t == pytest.approx(12.445079348883237, rel=1e-12)


def test_travel_time_adds_the_squares_left_to_right():
    # 630.0100000000001 + 8281.0 + 9662.89 rounds at each add; the
    # correctly rounded sum (math.fsum, the builtin sum from Python 3.12
    # on) lands one ulp away, and so does its square root.
    squares = [25.1 ** 2, 91.0 ** 2, 98.3 ** 2]
    left_to_right = (squares[0] + squares[1]) + squares[2]
    assert math.sqrt(math.fsum(squares)) != math.sqrt(left_to_right)
    leg = ms.travel_time_s((0.0, 0.0, 0.0), (25.1, 91.0, 98.3), 1.0)
    assert leg == math.sqrt(left_to_right) == 136.2860961360329


def test_data_delay_single_packet():
    assert ms.data_delay_s([(1.0e6, 1.0e6)]) == 1.0


def test_data_delay_empty():
    assert ms.data_delay_s([]) == 0.0


def test_data_delay_two_devices():
    assert ms.data_delay_s([(1.0e6, 2.0e6), (1.0e6, 1.0e6)]) == 1.5


def test_data_delay_rejects_zero_rate():
    with pytest.raises(ValueError):
        ms.data_delay_s([(1.0e6, 0.0)])


def test_total_delay_and_deadline():
    assert ms.total_delay_s(10.0, 20.0) == 30.0
    assert ms.total_delay_s(0.0, 0.0) == 0.0
    assert ms.meets_deadline(0.0, 1e-9)
    assert ms.meets_deadline(600.0, 600.0)  # boundary inclusive
    assert not ms.meets_deadline(600.0 + 1e-9, 600.0)


@given(data=st.lists(st.tuples(st.floats(1.0, 1e7), st.floats(1.0, 1e7)), max_size=6))
def test_data_delay_permutation_invariant(data):
    assert ms.data_delay_s(data) == pytest.approx(ms.data_delay_s(list(reversed(data))))


# --- energy ----------------------------------------------------------------------

def test_uav_energy_reference_case():
    assert ms.uav_energy_j(30.0, 10.0, CFG) == 9050.0


def test_uav_energy_zero():
    assert ms.uav_energy_j(0.0, 0.0, CFG) == 0.0


def test_uav_energy_unit_delays():
    assert ms.uav_energy_j(1.0, 1.0, CFG) == 305.0


def test_uav_energy_rejects_inconsistent_delays():
    with pytest.raises(ValueError):
        ms.uav_energy_j(1.0, 2.0, CFG)  # data delay exceeds total
    with pytest.raises(ValueError):
        ms.uav_energy_j(-1.0, 0.0, CFG)


def test_swarm_energy_masks_by_flag():
    assert ms.swarm_energy_j([(100.0, True), (200.0, False)]) == 100.0
    assert ms.swarm_energy_j([(100.0, True), (200.0, True)]) == 300.0
    assert ms.swarm_energy_j([]) == 0.0


def test_swarm_energy_adds_left_to_right():
    # Ten 0.1 J UAVs: a left-to-right sum rounds at every add and gives
    # 0.9999999999999999, the correctly rounded sum (math.fsum, and the
    # builtin sum from Python 3.12 on) gives 1.0. metrics.csv holds the
    # former on every interpreter.
    served = [(0.1, True)] * 10
    assert math.fsum([0.1] * 10) == 1.0
    assert ms.swarm_energy_j(served) == 0.9999999999999999
    assert ms.swarm_energy_j(served + [(0.5, False)]) == 0.9999999999999999
    assert isinstance(ms.swarm_energy_j([]), float)


def test_add_left_to_right_rounds_every_add():
    # Three and more terms where each rounded add and the correctly rounded
    # sum differ; an empty sum is the integer 0, as the builtin's.
    assert math.fsum([1.0, 1e-16, 1e-16]) == 1.0000000000000002
    assert ms.add_left_to_right([1.0, 1e-16, 1e-16]) == 1.0
    assert ms.add_left_to_right(iter([0.1] * 10)) == 0.9999999999999999
    assert ms.add_left_to_right([0.5, 0.25]) == 0.75
    total = ms.add_left_to_right([])
    assert total == 0 and type(total) is int


@given(pairs=st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)), max_size=8))
def test_swarm_energy_additivity(pairs):
    # All flags raised: the mask must reduce to a plain sum.
    energies = [ms.uav_energy_j(a + b, b, CFG) for a, b in pairs]
    assert ms.swarm_energy_j([(e, True) for e in energies]) == pytest.approx(sum(energies))


# --- coverage -------------------------------------------------------------------
# A strategic cell is covered when a UAV ends some slot on it (slot >= 1);
# the start cell alone does not count. The env books it in ``coverage_ok``.

EAST = envmod.ACTIONS.index("east")
WEST = envmod.ACTIONS.index("west")
HOVER = envmod.ACTIONS.index("hover")


def _coverage_ok(strategic, start, moves):
    env = small_env(swarm=1, strategic=strategic)
    env.reset(start_cells=[start])
    for move in moves:
        env.step([move])
    return env.episode_stats()["coverage_ok"]


def test_coverage_all_visited():
    assert _coverage_ok((1, 2), 0, [EAST, EAST])  # 0 -> 1 -> 2


def test_coverage_one_missed():
    assert not _coverage_ok((1, 7), 0, [EAST, EAST])  # 7 never reached


def test_coverage_start_cell_does_not_count():
    assert not _coverage_ok((5,), 5, [WEST, WEST])  # 5 -> 4 -> 3


def test_coverage_vacuous_without_strategic_cells():
    assert _coverage_ok((), 0, [HOVER])


# --- device layout ---------------------------------------------------------------

def test_default_layout_is_deterministic():
    a = ms.default_device_layout(CFG, [6, 13], seed=42)
    b = ms.default_device_layout(CFG, [6, 13], seed=42)
    assert [d.position_xy for d in a] == [d.position_xy for d in b]


def test_default_layout_pins_strategic_devices():
    world = ms.build_grid(CFG, ms.default_device_layout(CFG, [6, 13], seed=1), [6, 13])
    assert world.cell_of_position(*world.devices[0].position_xy) == 6
    assert world.cell_of_position(*world.devices[1].position_xy) == 13


def test_default_layout_needs_enough_devices():
    with pytest.raises(ValueError):
        ms.default_device_layout(CFG, [1, 2, 3], seed=0, count=2)


def test_layout_round_trip():
    devices = ms.default_device_layout(CFG, [6], seed=9, count=5)
    world = ms.build_grid(CFG, devices, [6])
    raw = json.loads(json.dumps(ms.layout_to_dict(world)))
    restored = ms.devices_from_dicts(raw["devices"])
    assert restored == devices
    assert raw["cells_per_side"] == 5
    assert raw["strategic_cells"] == [6]


def test_build_grid_rejects_stray_device():
    bad = [ms.IotDevice(0, (10_000.0, 0.0), 1e6)]
    with pytest.raises(ValueError, match="outside"):
        ms.build_grid(CFG, bad, [])


def test_build_grid_rejects_gapped_ids():
    bad = [ms.IotDevice(1, (10.0, 10.0), 1e6)]
    with pytest.raises(ValueError, match="contiguous"):
        ms.build_grid(CFG, bad, [])
