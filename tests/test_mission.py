"""Grid geometry, delay bookkeeping, and the energy model."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmcover import mission as ms

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


@given(pairs=st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)), max_size=8))
def test_swarm_energy_additivity(pairs):
    # All flags raised: the mask must reduce to a plain sum.
    energies = [ms.uav_energy_j(a + b, b, CFG) for a, b in pairs]
    assert ms.swarm_energy_j([(e, True) for e in energies]) == pytest.approx(sum(energies))


# --- coverage -------------------------------------------------------------------

def _tracks(trajectories):
    """One (slot, cell) track per UAV, starting at slot 0."""
    return [list(enumerate(cells)) for cells in trajectories]


def test_coverage_all_visited():
    assert ms.strategic_coverage_satisfied([1, 2], _tracks([[0, 1, 2]]))


def test_coverage_one_missed():
    assert not ms.strategic_coverage_satisfied([1, 7], _tracks([[0, 1, 2]]))


def test_coverage_start_cell_does_not_count():
    assert not ms.strategic_coverage_satisfied([5], _tracks([[5, 6, 7]]))


def test_coverage_vacuous_without_strategic_cells():
    assert ms.strategic_coverage_satisfied([], _tracks([[0, 0]]))


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


def test_layout_round_trip(tmp_path):
    devices = ms.default_device_layout(CFG, [6], seed=9, count=5)
    world = ms.build_grid(CFG, devices, [6])
    path = tmp_path / "layout.json"
    ms.write_layout(world, path)
    raw = json.loads(path.read_text())
    restored = ms.devices_from_dicts(raw["devices"])
    assert restored == devices
    assert raw["cells_per_side"] == 5
    assert raw["strategic_cells"] == [6]


def test_build_grid_rejects_stray_device():
    bad = [ms.IotDevice(0, (10_000.0, 0.0), 1e6, 0.2)]
    with pytest.raises(ValueError, match="outside"):
        ms.build_grid(CFG, bad, [])


def test_build_grid_rejects_gapped_ids():
    bad = [ms.IotDevice(1, (10.0, 10.0), 1e6, 0.2)]
    with pytest.raises(ValueError, match="contiguous"):
        ms.build_grid(CFG, bad, [])
