"""Swarm MDP dynamics: moves, collisions, rewards, encoding, events."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from swarmcover import env as envmod
from swarmcover import mission as ms
from conftest import make_env, small_env, uav_tracks

HOVER = envmod.ACTIONS.index("hover")
EAST = envmod.ACTIONS.index("east")
WEST = envmod.ACTIONS.index("west")
SOUTH = envmod.ACTIONS.index("south")
NORTH = envmod.ACTIONS.index("north")


# --- reset ---------------------------------------------------------------------

def test_reset_sampled_starts_are_distinct_and_deterministic():
    env = make_env()
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
    assert env.demand[0] == env.cfg.initial_demand == 3.0


@pytest.mark.parametrize("world", ["default", "3x3"])
def test_slot_energy_table_is_the_energy_model(world):
    env = make_env() if world == "default" else small_env()
    env.reset(rng_seed=2)
    tables, cfg = env.tables, env.mission_cfg
    assert len(tables.slot_energy_j) == 2
    for moved, row in enumerate(tables.slot_energy_j):
        leg = (0.0, tables.leg_time_s)[moved]
        collect = (0.0, *tables.collect_time_s)
        assert len(row) == len(collect) == env.cfg.device_count + 1
        for ct, energy in zip(collect, row):
            assert energy == ms.uav_energy_j(leg + ct, ct, cfg)


def test_reset_validates_explicit_start_cells():
    env = small_env()
    with pytest.raises(ValueError, match="distinct"):
        env.reset(start_cells=[3, 3])


@pytest.mark.parametrize("cell", [-1, 9, 25])
def test_reset_rejects_a_start_cell_off_the_grid(cell):
    # -1 would set a second one-hot in the previous slot's block, and a
    # cell past the grid would write into the strategic blocks.
    env = small_env()
    env.reset(start_cells=[4, 0], rng_seed=0)
    before = env.episode.obs[0].copy()
    with pytest.raises(ValueError, match=f"start cell {cell} is off the grid"):
        env.reset(start_cells=[2, cell])
    assert env.uav_cell == [4, 0]  # the rejected reset changed nothing
    np.testing.assert_array_equal(env.episode.obs[0], before)


def play_random(env: envmod.CoverageEnv, size: int, seed: int, steps: int | None = None):
    """Reset to the nominal task at ``size`` UAVs and play ``steps`` random
    joint actions (the whole episode when ``None``); returns reset's state."""
    rng = np.random.default_rng(seed)
    state = env.reset(replace(env.nominal_task(), swarm_size=size), rng_seed=seed)
    for _ in range(env.mission_cfg.slots if steps is None else steps):
        env.step(rng.integers(0, envmod.N_ACTIONS, size=size))
    return state


@pytest.mark.parametrize("size", [1, 3, 4])
def test_a_reused_env_writes_the_episode_a_fresh_env_writes(size):
    fresh = make_env()
    want_state = play_random(fresh, size, seed=5).copy()
    want = fresh.episode
    used = make_env()
    play_random(used, 7, seed=6)
    buffers = used.episode
    play_random(used, 5, seed=7, steps=3)  # reset mid-episode too
    got_state = play_random(used, size, seed=5)
    got = used.episode
    assert got is buffers  # the env clears its buffers in place
    assert got_state.tobytes() == want_state.tobytes()
    for field in dataclasses.fields(envmod.EpisodeArrays):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
    assert not got.acts[:, size:].any() and not got.uav_rewards[:, size:].any()


def test_step_and_encode_state_before_the_first_reset_raise():
    env = make_env()
    with pytest.raises(RuntimeError, match="reset"):
        env.step([HOVER] * 4)
    with pytest.raises(RuntimeError, match="reset"):
        env.encode_state()
    # A first reset that fails leaves no task to step on.
    off_grid = replace(env.nominal_task(), strategic_cells=(6, 13, env.n_cells))
    with pytest.raises(ValueError):
        env.reset(off_grid)
    with pytest.raises(RuntimeError, match="reset"):
        env.step([HOVER] * 4)
    with pytest.raises(RuntimeError, match="reset"):
        env.encode_state()


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


def sweep_to_fixpoint(origins, targets):
    """Reference move resolution: each sweep cancels every mover whose
    destination is claimed at the sweep's start, until one cancels none."""
    final, collided = list(targets), [False] * len(origins)
    moving = [t != o for t, o in zip(targets, origins)]
    changed = True
    while changed:
        claimed = list(final)
        changed = False
        for i, origin in enumerate(origins):
            if moving[i] and claimed.count(final[i]) > 1:
                final[i], moving[i], collided[i], changed = origin, False, True, True
    return final, collided


def test_resolve_moves_matches_the_fixpoint_sweep():
    rng = np.random.default_rng(2)
    seen = {"head_on": 0, "into_hoverer": 0, "swap": 0, "chain": 0, "uncontested": 0}
    for _ in range(4000):
        side = int(rng.integers(2, 5))
        n = int(rng.integers(1, min(side * side, 7) + 1))
        origins = [int(c) for c in rng.choice(side * side, size=n, replace=False)]
        if rng.random() < 0.5:  # compass moves, as the env makes them
            targets = [envmod.move_target(o, int(a), side)
                       for o, a in zip(origins, rng.integers(0, envmod.N_ACTIONS, size=n))]
        else:  # any cells, half of them another UAV's origin
            targets = [int(rng.choice(origins)) if rng.random() < 0.5
                       else int(rng.integers(0, side * side)) for _ in origins]
        assert envmod.resolve_moves(origins, targets) == sweep_to_fixpoint(origins, targets)

        movers = [i for i in range(n) if targets[i] != origins[i]]
        hovering = {origins[i] for i in range(n) if targets[i] == origins[i]}
        seen["head_on"] += any(targets.count(targets[i]) > 1 for i in movers)
        seen["into_hoverer"] += any(targets[i] in hovering for i in movers)
        seen["swap"] += any(targets[i] == origins[j] and targets[j] == origins[i]
                            for i in movers for j in movers if i < j)
        seen["chain"] += any(targets[i] == origins[j] and targets[j] != origins[i]
                             for i in movers for j in movers)
        seen["uncontested"] += len(set(targets)) == n
    assert min(seen.values()) > 100, seen


def test_bounced_uav_is_penalised_but_collects_where_it_stays():
    # The only device sits on strategic cell 0. Both movers bounce off
    # cell 1; UAV 0 stays on cell 0 and still collects the device.
    env = small_env(strategic=(0,), device_count=1)
    env.reset(start_cells=[0, 2])
    (dev,) = env.tables.queues[0]
    out = env.step([EAST, WEST])
    assert out.info["collided"] == [True, True]
    assert out.info["collected"] == [dev]
    collect_t = env.tables.collect_time_s[dev]
    energy = ms.uav_energy_j(collect_t, collect_t, env.mission_cfg)
    assert energy > 0.0
    assert env.uav_energy_j == [energy, 0.0]
    assert out.info["step_energy_j"] == energy
    shaping = env.cfg.lambda_energy * energy / env.energy_norm_j
    assert out.info["shaping"] == shaping
    assert out.reward == -2.0 + 1.0 - shaping  # both -1s, UAV 0's coverage bonus
    np.testing.assert_allclose(out.uav_rewards, [-1.0 + 1.0 - shaping, -1.0], rtol=1e-12)


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
    # Events between episodes take the swarm from one UAV up to max_swarm.
    env = make_env()
    rng = np.random.default_rng(3)
    task = env.nominal_task()
    task = env.apply_swarm_event(task, envmod.SwarmEvent(0, "leave", task.swarm_size - 1))
    for n in range(1, env.cfg.max_swarm + 1):
        if n > 1:
            task = env.apply_swarm_event(task, envmod.SwarmEvent(0, "join", 1))
        for seed in range(4):
            env.reset(task, rng_seed=seed)
            assert len(env.uav_cell) == n
            done = False
            while not done:
                out = env.step(rng.integers(0, envmod.N_ACTIONS, size=n))
                assert out.uav_rewards.shape == (n,)
                assert out.uav_rewards.sum() == pytest.approx(out.reward, rel=1e-12, abs=1e-12)
                # The scalar reward is its terms, summed to the bit.
                info = out.info
                base = sum(-1.0 if hit else float(ok)
                           for hit, ok in zip(info["collided"], info["constraint_ok"]))
                assert out.reward == base + info["bonuses"] - info["shaping"]
                assert info["shaping"] == (
                    env.cfg.lambda_energy * info["step_energy_j"] / env.energy_norm_j
                )
                done = out.done
            stats = env.episode_stats()
            assert stats["swarm_size"] == n
            assert sum(env.uav_energy_j) == pytest.approx(stats["energy_total_j"], rel=1e-9)
            served = [e for e, s in zip(env.uav_energy_j, env.uav_served) if s]
            assert stats["energy_masked_j"] == pytest.approx(sum(served), rel=1e-12)


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
    env = make_env()
    rng = np.random.default_rng(0)
    for seed in range(3):
        env.reset(rng_seed=seed)
        done = False
        while not done:
            n = len(env.uav_cell)
            out = env.step(rng.integers(0, envmod.N_ACTIONS, size=n))
            lo = -n - env.cfg.lambda_energy
            hi = 2.0 * n
            assert lo <= out.reward <= hi
            done = out.done


def test_collection_invariants_over_random_play():
    # A reference set-and-scan kept beside the env's per-cell cursors:
    # every UAV, a bounced one included, takes the first device of the
    # queue of the cell it ends on that nobody collected yet.
    # A join or a leave before every episode varies the swarm size.
    env = small_env(swarm=2, slots=12, max_swarm=4, device_count=18)
    rng = np.random.default_rng(5)
    head_ons = bounced_before_a_device = deep_takes = 0
    sizes = set()
    task = env.nominal_task()
    for seed in range(30):
        n = task.swarm_size
        join = n < env.cfg.max_swarm and (n == 1 or rng.random() < 0.5)
        task = env.apply_swarm_event(task, envmod.SwarmEvent(0, "join" if join else "leave", 1))
        env.reset(task, rng_seed=seed)
        sizes.add(len(env.uav_cell))
        queues = env.tables.queues
        collected: set[int] = set()
        done = False
        while not done:
            actions = rng.integers(0, envmod.N_ACTIONS, size=len(env.uav_cell))
            targets = [env.tables.targets[cell][a] for cell, a in zip(env.uav_cell, actions)]
            energy_before = list(env.uav_energy_j)
            out = env.step(actions)
            hits, cells = out.info["collided"], out.info["cells"]
            hit_targets = [t for t, hit in zip(targets, hits) if hit]
            head_ons += len(set(hit_targets)) < len(hit_targets)

            now = out.info["collected"]
            assert len(set(now)) == len(now) and not collected & set(now)  # at most once
            expected = []
            for row, (cell, hit) in enumerate(zip(cells, hits)):
                nxt = next((d for d in queues[cell] if d not in collected), None)
                if nxt is not None:
                    deep_takes += queues[cell].index(nxt) > 0
                    collected.add(nxt)
                    expected.append(nxt)
                if hit:
                    # No leg: a bounced UAV pays for its collection only.
                    bounced_before_a_device += nxt is not None
                    collect_t = 0.0 if nxt is None else env.tables.collect_time_s[nxt]
                    assert env.uav_energy_j[row] == energy_before[row] + ms.uav_energy_j(
                        collect_t, collect_t, env.mission_cfg)
            assert now == expected  # in queue order, bounced UAVs included

            c = env.n_cells
            base = c * env.cfg.max_swarm + (c + 1) * env.cfg.num_strategic
            np.testing.assert_array_equal(
                out.state[base:base + c], (env.episode_stats()["visits"] > 0).astype(float)
            )
            done = out.done
    assert head_ons > 0 and bounced_before_a_device > 0 and deep_takes > 0
    assert sizes == set(range(1, env.cfg.max_swarm + 1))


# --- episode shape and determinism ----------------------------------------------

def test_episode_runs_exactly_slots_steps():
    env = small_env(swarm=1, slots=6, strategic=(4,))
    env.reset(start_cells=[0], rng_seed=0)
    flags = [env.step([HOVER]).done for _ in range(6)]
    assert flags == [False] * 5 + [True]
    with pytest.raises(RuntimeError, match="finished episode"):
        env.step([HOVER])


@pytest.mark.parametrize("count", [1, 3])
def test_step_rejects_a_joint_action_of_the_wrong_length(count):
    env = small_env(swarm=2)
    env.reset(start_cells=[0, 8])
    with pytest.raises(ValueError, match="one action per UAV"):
        env.step([HOVER] * count)
    out = env.step([HOVER, HOVER])  # the rejected call changed nothing
    assert out.info["cells"] == [0, 8] and uav_tracks(env) == [[0, 0], [8, 8]]


@pytest.mark.parametrize("action", [-1, -6, 5, 9])
def test_step_rejects_an_unknown_action_id(action):
    # A negative id would index the move table from its end (-1 hovers).
    env = small_env(swarm=2)
    env.reset(start_cells=[0, 8])
    with pytest.raises(ValueError, match=f"action id {action} is not one of the 5 actions"):
        env.step([HOVER, action])
    out = env.step([HOVER, HOVER])  # the rejected call changed nothing
    assert out.info["cells"] == [0, 8] and uav_tracks(env) == [[0, 0], [8, 8]]
    assert env.episode.acts[0].tolist() == [HOVER, HOVER, 0]


def test_full_determinism_of_rollouts():
    def rollout():
        env = make_env()
        rng = np.random.default_rng(99)
        env.reset(rng_seed=5)
        rewards = []
        done = False
        while not done:
            out = env.step(rng.integers(0, envmod.N_ACTIONS, size=len(env.uav_cell)))
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
    env = make_env()
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
    env = make_env()
    rng = np.random.default_rng(2)
    env.reset(rng_seed=2)
    done = False
    while not done:
        done = env.step(rng.integers(0, envmod.N_ACTIONS, size=4)).done
    stats = env.episode_stats()
    assert stats["visits"].sum() == 4 * stats["steps"]


# --- encoding --------------------------------------------------------------------

def test_state_dimension_default_world():
    env = make_env()
    assert env.state_dim == 25 * 7 + 26 * 3 + 25 + 1  # 279
    state = env.reset(rng_seed=0)
    assert state.shape == (279,)


def test_state_features_in_unit_interval():
    env = make_env()
    state = env.reset(rng_seed=3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert state.min() >= 0.0 and state.max() <= 1.0
        state = env.step(rng.integers(0, envmod.N_ACTIONS, size=4)).state


def test_visited_bitmap_zero_at_reset():
    env = make_env()
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
    env = make_env()
    state = env.reset(rng_seed=5)
    assert state[-1] == pytest.approx(4 / 7)


def test_declared_real_columns_are_the_demand_and_swarm_fractions():
    env = make_env()
    # Per strategic location a 25-cell one-hot, then its demand fraction,
    # after the 7 UAV slots' one-hots; the swarm-size fraction is last.
    assert env.real_cols == (200, 226, 252, 278)
    small = small_env(side=3, max_swarm=2, strategic=(1, 7))
    assert small.real_cols == (18 + 9, 18 + 10 + 9, small.state_dim - 1)


@pytest.mark.parametrize("world", ["default", "3x3"])
def test_only_the_declared_columns_hold_anything_but_zero_and_one(world):
    env = make_env() if world == "default" else small_env(
        swarm=3, max_swarm=3, strategic=(2, 4), slots=8, device_count=12)
    plain = np.setdiff1d(np.arange(env.state_dim), env.real_cols)
    rng = np.random.default_rng(19)
    seen_real = set()
    for episode in range(20):
        size = int(rng.integers(1, env.cfg.max_swarm + 1))
        env.reset(replace(env.nominal_task(), swarm_size=size), rng_seed=episode)
        while not env.step(rng.integers(0, envmod.N_ACTIONS, size=size)).done:
            pass
        obs = env.episode.obs
        bits = obs[:, plain].view(np.uint64)
        assert np.all((bits == 0) | (bits == np.float64(1.0).view(np.uint64))), episode
        real = obs[:, list(env.real_cols)]
        seen_real.update(np.flatnonzero(((real != 0.0) & (real != 1.0)).any(axis=0)).tolist())
    assert seen_real == set(range(len(env.real_cols)))  # each declared column is used


def encode_from_scratch(env: envmod.CoverageEnv) -> np.ndarray:
    """Reference: the observation built from the public episode state alone,
    as the env encoded every step before it kept its vector."""
    c = env.n_cells
    vec = np.zeros(env.state_dim, dtype=np.float64)
    for slot, cell in enumerate(env.uav_cell):
        vec[slot * c + cell] = 1.0
    base = c * env.cfg.max_swarm
    task = env.task
    initial = env.cfg.initial_demand
    for i, cell in enumerate(task.strategic_cells):
        vec[base + i * (c + 1) + cell] = 1.0
        if initial > 0.0:
            vec[base + i * (c + 1) + c] = env.demand[i] / initial
    base += (c + 1) * env.cfg.num_strategic
    vec[base:base + c] = env.episode_stats()["visits"] > 0  # a start cell alone is no visit
    vec[base + c] = len(env.uav_cell) / env.cfg.max_swarm
    return vec


@pytest.mark.parametrize("world", ["default", "3x3"])
def test_kept_observation_matches_a_from_scratch_encoding(world):
    env = make_env() if world == "default" else small_env(
        swarm=3, max_swarm=7, strategic=(2, 4), slots=8, device_count=12)
    rng = np.random.default_rng(17)
    sizes = set()
    resized = env.nominal_task()
    for episode in range(40):
        # Walk the swarm size over 1..max_swarm with events between episodes;
        # every other episode plays a freshly sampled layout instead.
        target = int(rng.integers(1, env.cfg.max_swarm + 1))
        while resized.swarm_size != target:
            kind = "join" if resized.swarm_size < target else "leave"
            resized = env.apply_swarm_event(resized, envmod.SwarmEvent(episode, kind))
        if episode % 2:
            state = env.reset(resized, rng_seed=episode)
        else:
            task = replace(env.sample_task(rng), swarm_size=target)
            state = env.reset(task, rng_seed=episode)
        sizes.add(len(env.uav_cell))
        handed_out = [(state, state.tobytes())]
        done = False
        while True:
            assert state.tobytes() == encode_from_scratch(env).tobytes(), episode
            assert not np.shares_memory(state, env.encode_state())
            if done:
                break
            out = env.step(rng.integers(0, envmod.N_ACTIONS, size=len(env.uav_cell)))
            state, done = out.state, out.done
            assert not any(np.shares_memory(state, kept) for kept, _ in handed_out)
            handed_out.append((state, state.tobytes()))
        # Nothing the env handed out changed afterwards.
        assert all(kept.tobytes() == raw for kept, raw in handed_out)
    assert sizes == set(range(1, env.cfg.max_swarm + 1))


# --- events ----------------------------------------------------------------------

def test_join_and_leave_events():
    env = make_env()
    task = env.apply_swarm_event(env.nominal_task(), envmod.SwarmEvent(0, "join", 1))
    assert task == replace(env.nominal_task(), swarm_size=5)
    env.reset(task, rng_seed=6)
    assert len(env.uav_cell) == 5
    task = env.apply_swarm_event(task, envmod.SwarmEvent(0, "leave", 2))
    assert task.swarm_size == 3
    env.reset(task, rng_seed=6)
    assert len(env.uav_cell) == 3


def test_event_mid_episode_changes_nothing_in_that_episode():
    def rollout(events):
        env = make_env()
        rng = np.random.default_rng(12)
        task = env.nominal_task()
        states = [env.reset(task, rng_seed=4)]
        rewards, uav_rewards = [], []
        done = False
        while not done:
            if len(rewards) in events:
                task = env.apply_swarm_event(task, envmod.SwarmEvent(0, *events[len(rewards)]))
            out = env.step(rng.integers(0, envmod.N_ACTIONS, size=len(env.uav_cell)))
            states.append(out.state)
            rewards.append(out.reward)
            uav_rewards.append(out.uav_rewards)
            done = out.done
        return (env, task), states, rewards, uav_rewards, env.episode_stats()

    _, *plain = rollout({})
    for events, size in (({3: ("join", 2)}, 6), ({1: ("leave", 1), 5: ("leave", 2)}, 1)):
        (env, task), *resized = rollout(events)
        for got, want in zip(resized[:3], plain[:3]):
            np.testing.assert_array_equal(np.array(got), np.array(want))
        got_stats, want_stats = resized[3], plain[3]
        assert got_stats.keys() == want_stats.keys()
        for key in want_stats:
            np.testing.assert_array_equal(got_stats[key], want_stats[key])
        env.reset(task, rng_seed=4)
        assert len(env.uav_cell) == size



def test_swarm_schedule_sorts_stably_and_applies_lazily():
    events = [envmod.SwarmEvent(8, "leave", 2), envmod.SwarmEvent(4, "join", 3),
              envmod.SwarmEvent(4, "leave", 1)]
    applied = []

    def apply(size, event):
        applied.append(event)
        return envmod.next_swarm_size(size, event, 7)

    stretches = envmod.swarm_schedule(events, 2, apply)
    assert next(stretches) == (2, 4)
    assert applied == []  # nothing applies before the run asks for the next stretch
    assert list(stretches) == [(5, 4), (4, 8), (2, None)]
    assert applied == [events[1], events[2], events[0]]
    assert list(envmod.swarm_schedule((), 3, apply)) == [(3, None)]

    # A size the schedule cannot reach fails at its event, not before.
    stretches = envmod.swarm_schedule([envmod.SwarmEvent(5, "join", 9)], 2, apply)
    assert next(stretches) == (2, 5)
    with pytest.raises(ValueError, match="maximum swarm size"):
        next(stretches)

def test_leave_to_zero_rejected():
    env = small_env(swarm=1)
    env.reset(start_cells=[0])
    with pytest.raises(ValueError, match="empty the swarm"):
        env.apply_swarm_event(env.task, envmod.SwarmEvent(0, "leave", 1))


def test_join_beyond_capacity_rejected():
    env = make_env()
    env.reset(rng_seed=7)
    with pytest.raises(ValueError, match="maximum swarm size"):
        env.apply_swarm_event(env.task, envmod.SwarmEvent(0, "join", 4))


def test_event_kind_validated():
    with pytest.raises(ValueError, match="unknown swarm event kind"):
        envmod.SwarmEvent(0, "respawn", 1)


def test_events_leave_the_nominal_task_and_a_bare_reset_as_they_were():
    # The swarm size lives in the task alone.
    env = make_env()
    env.reset(rng_seed=8)
    joined = env.apply_swarm_event(env.task, envmod.SwarmEvent(0, "join", 1))
    assert joined.swarm_size == 5 and env.nominal_task().swarm_size == 4
    env.reset()
    assert env.task == env.nominal_task() and len(env.uav_cell) == 4


# --- task sampling ------------------------------------------------------------------

def test_sample_task_deterministic_under_seed():
    env = make_env()
    a = env.sample_task(np.random.default_rng(42))
    b = env.sample_task(np.random.default_rng(42))
    assert a == b


def test_sample_task_covers_swarm_range():
    env = make_env()
    rng = np.random.default_rng(0)
    sizes = set()
    for _ in range(1000):
        task = env.sample_task(rng)
        sizes.add(task.swarm_size)
        assert len(set(task.strategic_cells)) == len(task.strategic_cells)
        assert 3 <= task.swarm_size <= 7
    assert sizes == {3, 4, 5, 6, 7}
