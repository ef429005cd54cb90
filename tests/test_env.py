"""Swarm MDP dynamics: moves, collisions, rewards, encoding, events."""

import numpy as np
import pytest

from swarmcover import env as envmod
from swarmcover import mission as ms
from conftest import small_env

HOVER = envmod.ACTIONS.index("hover")
EAST = envmod.ACTIONS.index("east")
WEST = envmod.ACTIONS.index("west")
SOUTH = envmod.ACTIONS.index("south")
NORTH = envmod.ACTIONS.index("north")


# --- reset ---------------------------------------------------------------------

def test_reset_sampled_starts_are_distinct_and_deterministic():
    env = envmod.make_env()
    env.reset(rng_seed=11)
    cells_a = env.uav_cell
    env.reset(rng_seed=11)
    cells_b = env.uav_cell
    assert cells_a == cells_b
    assert len(set(cells_a)) == 4


def test_more_uavs_than_cells_rejected():
    with pytest.raises(ValueError, match="more UAVs than cells"):
        small_env(side=1, swarm=2, max_swarm=2, strategic=())


def test_reset_restores_initial_demands():
    env = small_env()
    env.reset(start_cells=[4, 0], rng_seed=0)
    env.step([HOVER, HOVER])  # burns one demand unit on cell 4
    assert env.demand[0] == 2.0
    env.reset(start_cells=[4, 0], rng_seed=0)
    assert env.demand[0] == env.task.initial_demands[0] == 3.0


def test_task_tables_follow_the_initial_demands():
    env = small_env(side=4, strategic=(1, 6, 11))
    first = env.nominal_task()
    assert first.initial_demands == (3.0, 3.0, 3.0)
    env.reset(first, rng_seed=0)
    second = envmod.TaskSpec(first.swarm_size, first.strategic_cells,
                             first.device_seed, (1.0, 2.0, 3.0))
    env.reset(second, rng_seed=0)
    assert [loc.initial_demand for loc in env.tables.world.strategic] == [1.0, 2.0, 3.0]
    assert env.demand == [1.0, 2.0, 3.0]


def test_reset_validates_explicit_start_cells():
    env = small_env()
    with pytest.raises(ValueError, match="distinct"):
        env.reset(start_cells=[3, 3])


# --- moves and collisions ---------------------------------------------------------

def test_border_moves_degrade_to_hover():
    env = small_env(swarm=1, strategic=(8,))
    env.reset(start_cells=[0])
    out = env.step([SOUTH])  # off the bottom edge
    assert env.uav_cell[0] == 0
    assert out.info["collided"] == [False]
    assert out.info["cells"] == [0]


def test_head_on_moves_collide_and_bounce():
    env = small_env(strategic=(8,))
    env.reset(start_cells=[0, 2])
    out = env.step([EAST, WEST])  # both into cell 1
    assert out.info["collided"] == [True, True]
    assert env.uav_cell == [0, 2]


def test_mover_into_hoverer_bounces_only_the_mover():
    env = small_env(strategic=(8,))
    env.reset(start_cells=[0, 1])
    out = env.step([EAST, HOVER])
    assert out.info["collided"] == [True, False]
    assert env.uav_cell == [0, 1]


def test_swap_is_allowed():
    env = small_env(strategic=(8,))
    env.reset(start_cells=[0, 1])
    out = env.step([EAST, WEST])
    assert out.info["collided"] == [False, False]
    assert env.uav_cell == [1, 0]


def test_collided_uav_is_penalised_and_collects_nothing():
    # Cell 1 holds a device; both movers bounce, so nobody collects it.
    env = small_env(strategic=(1,), device_count=1)
    env.reset(start_cells=[0, 2])
    out = env.step([EAST, WEST])
    assert out.info["collided"] == [True, True]
    assert out.info["collected"] == []
    assert out.info["step_energy_j"] == 0.0
    assert out.reward == -2.0


# --- rewards -----------------------------------------------------------------------

def test_hover_on_empty_nonstrategic_cell_scores_one():
    env = small_env(swarm=1, strategic=(4,), device_count=1)
    env.reset(start_cells=[0])  # no device on cell 0
    out = env.step([HOVER])
    assert out.reward == 1.0
    assert out.info["step_energy_j"] == 0.0


def test_step_reward_decomposition():
    env = small_env(swarm=1, strategic=(4,), device_count=1)
    env.reset(start_cells=[1])
    out = env.step([NORTH])  # 1 -> 4, collects the strategic device
    constraint_part = sum(1.0 if ok else 0.0 for ok in out.info["constraint_ok"])
    assert out.reward == pytest.approx(
        constraint_part + out.info["bonuses"] - out.info["shaping"], rel=1e-12
    )
    assert out.info["bonuses"] == 1.0
    assert out.info["shaping"] == pytest.approx(
        env.cfg.lambda_energy * out.info["step_energy_j"] / env.energy_norm_j, rel=1e-12
    )


def test_per_uav_rewards_split_the_terms_by_uav():
    # UAV 0 moves 1 -> 4 and collects the strategic device; UAV 1 hovers
    # on an empty cell; UAV 2 walks into UAV 1 and bounces.
    env = small_env(swarm=3, strategic=(4,), device_count=1)
    env.reset(start_cells=[1, 6, 7])
    out = env.step([NORTH, HOVER, WEST])
    assert out.info["collided"] == [False, False, True]
    shaping0 = env.cfg.lambda_energy * out.info["step_energy_j"] / env.energy_norm_j
    np.testing.assert_allclose(out.uav_rewards, [1.0 + 1.0 - shaping0, 1.0, -1.0], rtol=1e-12)


def test_per_uav_rewards_sum_to_the_scalar_reward():
    # Also checks, at every episode end, that UAVs which left mid-episode
    # keep their energy in the swarm totals.
    env = envmod.make_env()
    rng = np.random.default_rng(3)
    joins = leaves = departed_servers = 0
    for size in range(1, env.cfg.max_swarm + 1):
        task = envmod.task_with_swarm(env.nominal_task(), size)
        for seed in range(4):
            env.reset(task, rng_seed=seed)
            done = False
            while not done:
                if rng.random() < 0.1:  # a mid-episode join or leave
                    n = env.current_swarm_size
                    if n < env.cfg.max_swarm and (n == 1 or rng.random() < 0.5):
                        env.apply_swarm_event(envmod.SwarmEvent(0, "join", 1))
                        joins += 1
                    elif n > 1:
                        env.apply_swarm_event(envmod.SwarmEvent(0, "leave", 1))
                        leaves += 1
                active = sum(env.uav_active)
                out = env.step(rng.integers(0, envmod.N_ACTIONS, size=active))
                assert out.uav_rewards.shape == (active,)
                assert out.uav_rewards.sum() == pytest.approx(out.reward, rel=1e-12, abs=1e-12)
                done = out.done
            stats = env.episode_stats()
            assert sum(env.uav_energy_j) == pytest.approx(stats["energy_total_j"], rel=1e-9)
            served = [e for e, s in zip(env.uav_energy_j, env.uav_served) if s]
            assert stats["energy_masked_j"] == pytest.approx(sum(served), rel=1e-12)
            departed_servers += sum(
                s and not a for s, a in zip(env.uav_served, env.uav_active)
            )
    assert joins > 10 and leaves > 10 and departed_servers > 0


def test_strategic_bonus_decays_with_served_demand():
    env = small_env(swarm=1, strategic=(4,), device_count=1)
    env.reset(start_cells=[4])
    bonuses = [env.step([HOVER]).info["bonuses"] for _ in range(4)]
    assert bonuses[0] == 1.0
    assert bonuses[1] == 0.5
    assert bonuses[2] == pytest.approx(1.0 / 3.0)
    assert bonuses[3] == 0.0  # demand exhausted
    assert env.demand[0] == 0.0


def test_demand_never_goes_negative():
    env = small_env(swarm=1, slots=8, strategic=(4,), device_count=1)
    env.reset(start_cells=[4])
    for _ in range(8):
        out = env.step([HOVER])
        assert env.demand[0] >= 0.0
    assert env.demand[0] == 0.0
    stats = env.episode_stats()
    assert stats["satisfaction"] == 1.0


def test_strategic_reward_scalar_cases():
    assert envmod.strategic_reward(0.0) == 1.0
    assert envmod.strategic_reward(1.0) == 0.5
    assert envmod.strategic_reward(3.0) == 0.25
    with pytest.raises(ValueError):
        envmod.strategic_reward(-1.0)


def test_reward_bounds_over_random_play():
    env = envmod.make_env()
    rng = np.random.default_rng(0)
    for seed in range(3):
        env.reset(rng_seed=seed)
        done = False
        while not done:
            active = sum(env.uav_active)
            out = env.step(rng.integers(0, envmod.N_ACTIONS, size=active))
            lo = -active - env.cfg.lambda_energy
            hi = 2.0 * active
            assert lo <= out.reward <= hi
            done = out.done


# --- episode shape and determinism ----------------------------------------------

def test_episode_runs_exactly_slots_steps():
    env = small_env(swarm=1, slots=6, strategic=(4,))
    env.reset(start_cells=[0], rng_seed=0)
    flags = [env.step([HOVER]).done for _ in range(6)]
    assert flags == [False] * 5 + [True]
    with pytest.raises(RuntimeError, match="finished episode"):
        env.step([HOVER])


def test_full_determinism_of_rollouts():
    def rollout():
        env = envmod.make_env()
        rng = np.random.default_rng(99)
        env.reset(rng_seed=5)
        rewards = []
        done = False
        while not done:
            active = sum(env.uav_active)
            out = env.step(rng.integers(0, envmod.N_ACTIONS, size=active))
            rewards.append(out.reward)
            done = out.done
        return rewards, env.episode_stats()

    rewards_a, stats_a = rollout()
    rewards_b, stats_b = rollout()
    assert rewards_a == rewards_b
    assert stats_a["reward"] == stats_b["reward"]
    np.testing.assert_array_equal(stats_a["visits"], stats_b["visits"])


# --- accounting ------------------------------------------------------------------

def test_energy_split_closes():
    env = envmod.make_env()
    rng = np.random.default_rng(1)
    env.reset(rng_seed=1)
    done = False
    step_total = 0.0
    while not done:
        out = env.step(rng.integers(0, envmod.N_ACTIONS, size=4))
        step_total += out.info["step_energy_j"]
        done = out.done
    stats = env.episode_stats()
    assert stats["energy_strategic_j"] + stats["energy_nonstrategic_j"] == pytest.approx(
        stats["energy_total_j"], rel=1e-9
    )
    assert step_total == pytest.approx(stats["energy_total_j"], rel=1e-9)
    assert stats["energy_total_j"] == pytest.approx(
        sum(env.uav_energy_j), rel=1e-9
    )


def test_masked_energy_counts_only_strategic_servers():
    env = small_env(swarm=2, strategic=(4,), device_count=1)
    env.reset(start_cells=[1, 8])
    env.step([NORTH, HOVER])  # UAV0 collects on the strategic cell, UAV1 idles
    for _ in range(5):
        env.step([HOVER, HOVER])
    stats = env.episode_stats()
    served0, served1 = env.uav_served
    assert served0 and not served1
    assert stats["energy_masked_j"] == pytest.approx(env.uav_energy_j[0], rel=1e-12)


def test_visits_sum_matches_uav_steps():
    env = envmod.make_env()
    rng = np.random.default_rng(2)
    env.reset(rng_seed=2)
    done = False
    while not done:
        done = env.step(rng.integers(0, envmod.N_ACTIONS, size=4)).done
    stats = env.episode_stats()
    assert stats["visits"].sum() == 4 * stats["steps"]


# --- encoding --------------------------------------------------------------------

def test_state_dimension_default_world():
    env = envmod.make_env()
    assert env.state_dim == 25 * 7 + 26 * 3 + 25 + 1  # 279
    state = env.reset(rng_seed=0)
    assert state.shape == (279,)


def test_state_features_in_unit_interval():
    env = envmod.make_env()
    state = env.reset(rng_seed=3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert state.min() >= 0.0 and state.max() <= 1.0
        state = env.step(rng.integers(0, envmod.N_ACTIONS, size=4)).state


def test_visited_bitmap_zero_at_reset():
    env = envmod.make_env()
    state = env.reset(rng_seed=4)
    base = 25 * 7 + 26 * 3
    np.testing.assert_array_equal(state[base:base + 25], 0.0)


def test_identical_worlds_encode_identically():
    a = small_env()
    b = small_env()
    sa = a.reset(start_cells=[0, 5], rng_seed=7)
    sb = b.reset(start_cells=[0, 5], rng_seed=7)
    np.testing.assert_array_equal(sa, sb)


def test_active_count_is_last_feature():
    env = envmod.make_env()
    state = env.reset(rng_seed=5)
    assert state[-1] == pytest.approx(4 / 7)


# --- events ----------------------------------------------------------------------

def test_join_and_leave_events():
    env = envmod.make_env()
    env.reset(rng_seed=6)
    assert env.apply_swarm_event(envmod.SwarmEvent(0, "join", 1)) == 5
    assert sum(env.uav_active) == 5
    assert env.apply_swarm_event(envmod.SwarmEvent(0, "leave", 2)) == 3
    assert sum(env.uav_active) == 3


def test_leave_to_zero_rejected():
    env = small_env(swarm=1)
    env.reset(start_cells=[0])
    with pytest.raises(ValueError, match="empty the swarm"):
        env.apply_swarm_event(envmod.SwarmEvent(0, "leave", 1))


def test_join_beyond_capacity_rejected():
    env = envmod.make_env()
    env.reset(rng_seed=7)
    with pytest.raises(ValueError, match="maximum swarm size"):
        env.apply_swarm_event(envmod.SwarmEvent(0, "join", 4))


def test_event_kind_validated():
    with pytest.raises(ValueError, match="unknown swarm event kind"):
        envmod.SwarmEvent(0, "respawn", 1)


def test_nominal_task_ignores_events_but_bare_reset_keeps_them():
    env = envmod.make_env()
    env.reset(rng_seed=8)
    env.apply_swarm_event(envmod.SwarmEvent(0, "join", 1))
    assert env.nominal_task().swarm_size == 4
    env.reset()
    assert sum(env.uav_active) == 5


# --- task sampling ------------------------------------------------------------------

def test_sample_task_deterministic_under_seed():
    env = envmod.make_env()
    a = env.sample_task(np.random.default_rng(42))
    b = env.sample_task(np.random.default_rng(42))
    assert a == b


def test_sample_task_covers_swarm_range():
    env = envmod.make_env()
    rng = np.random.default_rng(0)
    sizes = set()
    for _ in range(1000):
        task = env.sample_task(rng)
        sizes.add(task.swarm_size)
        assert len(set(task.strategic_cells)) == len(task.strategic_cells)
        assert 3 <= task.swarm_size <= 7
    assert sizes == {3, 4, 5, 6, 7}
