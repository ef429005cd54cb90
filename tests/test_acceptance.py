"""The acceptance gate: eight end-to-end claims this package ships on.

One test per claim, in order: channel-model invariants at scale, the
gradient oracle, agreement between a trained agent and the exact
solver, the three directional training claims (strategic visit bias,
adaptation speed from a meta initialization, satisfaction vs swarm
size), byte-identical replay, and the exact model arithmetic.

Every test is pinned to fixed seeds, prints one verdict line for the
run log, and asserts its own wall-clock budget next to the behavioural
bar. The training claims run real experiments and take minutes; they
are marked ``slow``, so ``pytest -m "not slow"`` gives a quick cycle.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import conftest
from swarmcover import agents as ag
from swarmcover import link_budget as lb
from swarmcover import mission as ms
from swarmcover import nets
from swarmcover.agents import AgentConfig, make_learner
from swarmcover.config import load_config
from swarmcover.env import CoverageEnv, EnvConfig, strategic_reward
from swarmcover.harness import (
    episodes_to_plateau,
    run_experiment,
    train_meta_params,
    train_task,
)
from swarmcover.oracle import ExactInstance, enumerate_optimum, verify_feasibility
from fdcheck import flatten_params, numeric_grad, relative_error, zero_grads
from transitions import Transition, action_arrays, as_batch


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.acceptance_verdicts.append(line)


def _tail_mean(stats: list[dict], key: str) -> float:
    tail = stats[-max(1, len(stats) // 10):]
    return float(np.mean([s[key] for s in tail]))


def _tail_visit_ratio(stats: list[dict], strategic: set[int], n_cells: int) -> float:
    tail = stats[-max(1, len(stats) // 10):]
    visits = np.sum([s["visits"] for s in tail], axis=0)
    s_mean = np.mean([visits[c] for c in strategic])
    n_mean = np.mean([visits[c] for c in range(n_cells) if c not in strategic])
    return float(s_mean / n_mean)


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    def rank(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=float)
        return r

    return float(np.corrcoef(rank(np.asarray(x)), rank(np.asarray(y)))[0, 1])


# --- 1: channel-model property suite ------------------------------------------------

def test_channel_model_property_suite():
    budget_s = 10.0
    t0 = time.time()
    rng = np.random.default_rng(0)
    draws = 10_000
    for _ in range(draws):
        psi_los = rng.uniform(1.0, 10.0)
        params = lb.AirGroundParams(
            omega1=rng.uniform(1.0, 30.0),
            omega2=rng.uniform(0.05, 0.5),
            psi_los=psi_los,
            psi_nlos=psi_los * rng.uniform(1.0, 100.0),
            carrier_hz=rng.uniform(1.0e9, 6.0e9),
            noise_watts=10.0 ** rng.uniform(-21.0, -19.0),
            min_snr=rng.uniform(1.0, 100.0),
            max_tx_watts=rng.uniform(0.05, 1.0),
        )
        alt = rng.uniform(30.0, 300.0)
        geom = lb.LinkGeometry((0.0, 0.0, alt), (rng.uniform(0.0, 500.0), 0.0))
        d = geom.distance_m

        # Mixture decomposes with complementary LoS/NLoS weights and is
        # bracketed by the two pure hypotheses.
        p_los = lb.los_probability(lb.elevation_angle_deg(geom), params)
        pl_los = lb.path_loss_los(d, params)
        pl_nlos = lb.path_loss_nlos(d, params)
        mix = lb.mean_path_loss(geom, params)
        assert abs(mix - (p_los * pl_los + (1.0 - p_los) * pl_nlos)) <= 1e-9 * pl_nlos
        assert pl_los * (1.0 - 1e-9) <= mix <= pl_nlos * (1.0 + 1e-9)

        # Strict monotonicity, pairwise: LoS probability in elevation,
        # path loss in distance. Elevations are drawn below 45 degrees
        # with a minimum gap: past that the logistic saturates to 1.0 in
        # double precision and strict ordering is unrepresentable.
        lo = rng.uniform(0.5, 40.0)
        hi = lo + rng.uniform(0.5, 5.0)
        assert lb.los_probability(lo, params) < lb.los_probability(hi, params)
        assert pl_los < lb.path_loss_los(d * (1.0 + 1e-6), params)

        # The altitude ceiling gives back exactly the SNR threshold on an
        # overhead pure-LoS link.
        h = lb.max_altitude_m(params)
        snr = params.max_tx_watts / (lb.path_loss_los(h, params) * params.noise_watts)
        assert abs(snr - params.min_snr) <= 1e-9 * params.min_snr

    elapsed = time.time() - t0
    _verdict("channel-model properties", elapsed < budget_s, f"{draws} draws, {elapsed:.1f}s")
    assert elapsed < budget_s


# --- 2: gradient oracle --------------------------------------------------------------

def _small_params(seed: int) -> ag.PolicyParams:
    """Two heads and a critic with one output per head, as ``make_learner``
    builds the actor-critic."""
    cfg = AgentConfig(hidden=(2,))
    heads = 2
    params = ag.make_policy_params(3, heads, cfg, np.random.default_rng(seed), critic_outputs=heads)
    assert flatten_params(params.actor, params.actor_cfg).size <= 50
    assert flatten_params(params.critic, params.critic_cfg).size <= 50
    return params


def _batch(params: ag.PolicyParams, n: int, seed: int) -> list[Transition]:
    """Transitions with one reward per acting UAV. The trailing state
    feature is the active count over the heads, as the environment writes it."""
    rng = np.random.default_rng(seed)
    dim, heads = params.actor_cfg.input_dim, params.heads
    out = []
    for _ in range(n):
        active, next_active = rng.integers(1, heads + 1, size=2)
        state, next_state = rng.normal(size=dim), rng.normal(size=dim)
        state[-1], next_state[-1] = active / heads, next_active / heads
        action = tuple(int(a) for a in rng.integers(0, ag.N_ACTIONS, size=active))
        uav_rewards = rng.normal(size=active)
        out.append(Transition(state, action, float(uav_rewards.sum()), next_state,
                              bool(rng.random() < 0.2), uav_rewards))
    return out


def test_gradient_oracle_matches_finite_differences():
    budget_s = 60.0
    t0 = time.time()
    draws = 100
    gamma = 0.85
    worst = {"actor": 0.0, "critic": 0.0, "td": 0.0, "ppo": 0.0}

    for i in range(draws):
        params = _small_params(seed=1000 + i)
        episode = _batch(params, 3, seed=2000 + i)
        states = np.stack([t.state for t in episode])
        # The (step, head) pairs that acted, and each one's frozen terms:
        # its reward, its discounted return, its value V_u(s) and its
        # bootstrap V_u(s'), zero after a terminal step or for a slot idle
        # in s'.
        pairs = [(t, u) for t, tr in enumerate(episode) for u in range(len(tr.action))]
        values, _ = nets.forward(params.critic, states, params.critic_cfg)
        next_values, _ = nets.forward(
            params.critic, np.stack([t.next_state for t in episode]), params.critic_cfg)
        reward = {(t, u): episode[t].uav_rewards[u] for t, u in pairs}
        ret, running = {}, np.zeros(params.heads)
        for t in reversed(range(len(episode))):
            running = gamma * running
            running[: len(episode[t].action)] += episode[t].uav_rewards
            ret.update({(t, u): running[u] for u in range(len(episode[t].action))})
        boot = {(t, u): 0.0 if episode[t].done
                or u >= round(episode[t].next_state[-1] * params.heads)
                else next_values[t, u] for t, u in pairs}

        # As ActorCriticLearner.finish_episode: the episode's terms, and
        # nothing else, written into one set of buffers.
        acc = zero_grads(params)
        batch = as_batch(episode, params.heads)
        ag.actor_critic_accumulate(params, batch, gamma, acc)

        # Actor: per-head TD advantage (frozen) times log-probability, plus
        # the entropy bonus.
        def actor_objective(actor):
            _, probs, _ = ag.policy_forward(actor, states, params.actor_cfg, params.heads)
            total = 0.0
            for t, u in pairs:
                p = probs[t, u]
                adv = reward[t, u] + gamma * boot[t, u] - values[t, u]
                total += adv * np.log(p[episode[t].action[u]])
                total -= ag.ENTROPY_WEIGHT * float(np.sum(p * np.log(p)))
            return float(total)

        err = relative_error(
            flatten_params(acc.d_actor, params.actor_cfg),
            numeric_grad(params.actor, params.actor_cfg, actor_objective),
        )
        worst["actor"] = max(worst["actor"], err)

        # Critic: each head's value regressed on its UAV's return.
        def critic_loss(critic):
            v, _ = nets.forward(critic, states, params.critic_cfg)
            return float(sum((ret[t, u] - v[t, u]) ** 2 for t, u in pairs))

        err = relative_error(
            flatten_params(acc.d_critic, params.critic_cfg),
            numeric_grad(params.critic, params.critic_cfg, critic_loss),
        )
        worst["critic"] = max(worst["critic"], err)

        # The one-step TD loss with bootstrap targets frozen, in buffers
        # of its own.
        td = zero_grads(params)
        ag.critic_td_accumulate(params, batch, gamma, td)

        def td_loss(critic):
            v, _ = nets.forward(critic, states, params.critic_cfg)
            return float(sum(
                (reward[t, u] + gamma * boot[t, u] - v[t, u]) ** 2 for t, u in pairs))

        err = relative_error(
            flatten_params(td.d_critic, params.critic_cfg),
            numeric_grad(params.critic, params.critic_cfg, td_loss),
        )
        worst["td"] = max(worst["td"], err)

        # Q-learning squared TD loss against a separate target net.
        target = _small_params(seed=3000 + i)
        _, dqn_grads = ag.dqn_loss_and_grad(
            params.actor, target.actor, batch, gamma, params.actor_cfg, params.heads,
            nets.grad_buffers(params.actor_cfg))

        def dqn_loss(q_net):
            loss, _ = ag.dqn_loss_and_grad(
                q_net, target.actor, batch, gamma, params.actor_cfg, params.heads,
                nets.grad_buffers(params.actor_cfg))
            return loss

        err = relative_error(
            flatten_params(dqn_grads, params.actor_cfg),
            numeric_grad(params.actor, params.actor_cfg, dqn_loss),
        )
        worst["td"] = max(worst["td"], err)

        # Clipped importance-ratio surrogate against an old policy.
        old = _small_params(seed=4000 + i)
        _, old_probs, _ = ag.policy_forward(old.actor, states, params.actor_cfg, params.heads)
        acts, acting = action_arrays([t.action for t in episode], params.heads)
        logp_old = ag.joint_log_prob(old_probs, acts, acting)
        adv_ppo = np.random.default_rng(5000 + i).normal(size=len(episode))
        onehot = np.eye(ag.N_ACTIONS)[acts]

        def ppo_surrogate(actor):
            _, probs, cache = ag.policy_forward(actor, states, params.actor_cfg, params.heads)
            return ag.ppo_surrogate_and_grad(
                actor, logp_old, probs, cache, acts, acting, onehot, adv_ppo, 0.2,
                params.actor_cfg, nets.grad_buffers(params.actor_cfg))

        _, ppo_grads = ppo_surrogate(params.actor)

        def ppo_objective(actor):
            obj, _ = ppo_surrogate(actor)
            return obj

        err = relative_error(
            flatten_params(ppo_grads, params.actor_cfg),
            numeric_grad(params.actor, params.actor_cfg, ppo_objective),
        )
        worst["ppo"] = max(worst["ppo"], err)

    elapsed = time.time() - t0
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < budget_s
    _verdict("gradient oracle", ok,
             f"{draws} draws/family, worst rel err {peak:.2e}, {elapsed:.1f}s")
    assert peak < 1e-4, f"worst relative error {peak:.2e}"
    assert elapsed < budget_s


# --- 3: trained agent vs exact optimum ----------------------------------------------

def _greedy_rollout(env: CoverageEnv, task, learner: ag.DQNLearner, start_cells) -> None:
    """Play one episode on the argmax of the learner's Q heads: no
    exploration, no learning. The UAV track stays in ``env``."""
    state = env.reset(task, rng_seed=0, start_cells=start_cells)
    done = False
    while not done:
        q, _ = nets.forward(learner.q, state, learner.net_cfg)
        active = int(round(float(state[-1]) * learner.heads))
        picks = q.reshape(learner.heads, ag.N_ACTIONS)[:active].argmax(axis=1)
        out = env.step(tuple(picks.tolist()))
        state, done = out.state, out.done


@pytest.mark.slow
def test_trained_agent_matches_exhaustive_optimum():
    budget_s = 300.0
    t0 = time.time()
    mission = ms.MissionConfig(area_m=264.0, cells_per_side=3, slots=8, frame_seconds=192.0)
    link = lb.AirGroundParams()
    radio = lb.RadioConfig()
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
    assert best.feasible

    cfg = AgentConfig(hidden=(64, 64), learning_rate=1e-3, gamma=0.85, eps_decay_frac=0.6)
    episodes = 5000
    wins = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        learner = make_learner("dqn", env.state_dim, env.cfg.max_swarm, cfg, rng, episodes,
                               env.real_cols)
        train_task(env, task, learner, episodes, rng)
        _greedy_rollout(env, task, learner, start_cells=(1,))
        trajectory = tuple(conftest.uav_tracks(env)[0])
        report = verify_feasibility([trajectory], instance)
        wins.append(report.all_ok and report.objective_j <= 1.05 * best.objective_j)

    elapsed = time.time() - t0
    ok = sum(wins) >= 4 and elapsed < budget_s
    _verdict("agent vs exact optimum", ok,
             f"{sum(wins)}/5 seeds within 5% of {best.objective_j:.1f} J, {elapsed:.0f}s")
    assert sum(wins) >= 4, f"only {sum(wins)}/5 seeds matched the optimum"
    assert elapsed < budget_s


# --- 4: strategic cells visited more after training ----------------------------------

@pytest.mark.slow
def test_strategic_cells_visited_more_after_meta_training():
    budget_s = 900.0
    t0 = time.time()
    cfg = load_config()
    env = CoverageEnv(cfg.mission, cfg.link, cfg.radio, cfg.env)
    task = env.nominal_task()
    strategic = set(cfg.env.strategic_cells)
    episodes, pretrain = 3000, 1500

    ratios = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        meta = train_meta_params(env, cfg.agent, pretrain, rng)
        learner = ag.ActorCriticLearner(meta.clone(), cfg.agent)
        stats = train_task(env, task, learner, episodes, rng)
        ratios.append(_tail_visit_ratio(stats, strategic, env.n_cells))

    elapsed = time.time() - t0
    passes = sum(r >= 2.0 for r in ratios)
    ok = passes >= 4 and elapsed < budget_s
    _verdict("strategic visit bias", ok,
             f"{passes}/5 seeds at ratio >= 2, ratios {[f'{r:.2f}' for r in ratios]}, {elapsed:.0f}s")
    assert passes >= 4, f"visit ratios {ratios} (need >= 2.0 on 4 of 5 seeds)"
    assert elapsed < budget_s


# --- 5: meta initialization adapts faster after a swarm change ------------------------

@pytest.mark.slow
def test_meta_initialization_speeds_adaptation_after_swarm_change():
    budget_s = 1800.0
    t0 = time.time()
    cfg = load_config()
    env = CoverageEnv(cfg.mission, cfg.link, cfg.radio, cfg.env)
    base = env.nominal_task()
    changed = replace(base, swarm_size=6)
    e_pre, e_post, pretrain = 1000, 2000, 2000
    window = max(1, e_post // 50)

    results = []
    for seed in range(5):
        # Meta path: pretrain across the task family, settle on the base
        # task, then keep learning through the swarm change.
        rng = np.random.default_rng(seed)
        meta = train_meta_params(env, cfg.agent, pretrain, rng)
        meta_learner = ag.ActorCriticLearner(meta.clone(), cfg.agent)
        train_task(env, base, meta_learner, e_pre, rng)
        post_meta = train_task(env, changed, meta_learner, e_post, rng)

        # Scratch path: identical configuration, post-change task only.
        rng2 = np.random.default_rng(seed)
        scratch = make_learner("meta_rl", env.state_dim, env.cfg.max_swarm, cfg.agent, rng2,
                               e_post, env.real_cols)
        post_scratch = train_task(env, changed, scratch, e_post, rng2)

        e_meta, _ = episodes_to_plateau(
            [s["reward"] for s in post_meta], window=window, level=0.9)
        e_scratch, _ = episodes_to_plateau(
            [s["reward"] for s in post_scratch], window=window, level=0.9)
        results.append((e_meta, e_scratch, e_meta <= 0.5 * e_scratch))

    elapsed = time.time() - t0
    passes = sum(ok for _, _, ok in results)
    ok = passes >= 4 and elapsed < budget_s
    _verdict("adaptation speed from meta init", ok,
             f"{passes}/5 seeds, (meta, scratch) episodes "
             f"{[(m, s) for m, s, _ in results]}, {elapsed:.0f}s")
    assert passes >= 4, f"adaptation results {results} (need meta <= half scratch on 4 of 5)"
    assert elapsed < budget_s


# --- 6: satisfaction scales with swarm size -------------------------------------------

@pytest.mark.slow
def test_satisfaction_scales_with_swarm_size():
    budget_s = 3600.0
    t0 = time.time()
    cfg = load_config()
    env = CoverageEnv(cfg.mission, cfg.link, cfg.radio, cfg.env)
    episodes, pretrain = 300, 150
    seeds = range(3)
    sizes = range(3, 8)

    means = []
    for size in sizes:
        task = replace(env.nominal_task(), swarm_size=size)
        vals = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            meta = train_meta_params(env, cfg.agent, pretrain, rng)
            learner = ag.ActorCriticLearner(meta.clone(), cfg.agent)
            stats = train_task(env, task, learner, episodes, rng)
            vals.append(_tail_mean(stats, "satisfaction"))
        means.append(float(np.mean(vals)))
    meta_at_7 = means[-1]

    baselines = {}
    task7 = replace(env.nominal_task(), swarm_size=7)
    for algo in ("actor_critic", "dqn", "ppo"):
        vals = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            learner = make_learner(algo, env.state_dim, env.cfg.max_swarm, cfg.agent, rng,
                                   episodes, env.real_cols)
            stats = train_task(env, task7, learner, episodes, rng)
            vals.append(_tail_mean(stats, "satisfaction"))
        baselines[algo] = float(np.mean(vals))

    rho = _spearman(np.arange(len(means), dtype=float), np.array(means))
    elapsed = time.time() - t0
    ok_mono = rho > 0.8
    ok_beats = all(meta_at_7 > v for v in baselines.values())
    ok_target = meta_at_7 >= 0.85
    ok = ok_mono and ok_beats and ok_target and elapsed < budget_s
    _verdict("satisfaction vs swarm size", ok,
             f"curve {[f'{m:.2f}' for m in means]}, spearman {rho:.2f}, "
             f"meta@7 {meta_at_7:.2f} vs {baselines}, {elapsed:.0f}s")
    assert ok_mono, f"satisfaction not monotone in swarm size: {means} (spearman {rho:.2f})"
    assert ok_beats, f"meta {meta_at_7:.3f} does not beat all baselines {baselines}"
    assert ok_target, f"satisfaction at 7 UAVs {meta_at_7:.3f} below the 0.85 target"
    assert elapsed < budget_s


# --- 7: deterministic replay ----------------------------------------------------------

def test_deterministic_replay_byte_identical(tmp_path):
    overrides = {
        "run": {"scenario": "replay", "algorithm": "actor_critic",
                "episodes": 40, "seeds": [0, 1]},
        "mission": {"area_m": 264.0, "cells_per_side": 3, "slots": 6,
                    "frame_seconds": 144.0},
        "env": {"max_swarm": 2, "swarm_size": 2, "swarm_min": 1, "swarm_max": 2,
                "strategic_cells": [4], "device_count": 9},
        "agent": {"hidden": [8]},
    }
    runs = []
    for run in ("a", "b"):
        cfg = load_config(overrides={**overrides,
                                     "run": {**overrides["run"],
                                             "out_dir": str(tmp_path / run)}})
        runs.append(run_experiment(cfg))
    compared = 0
    for dir_a, dir_b in zip(*runs):
        # resolved_config.json embeds the (differing) output path; every
        # data-bearing file must match byte for byte.
        for name in ("metrics.csv", "heatmap.csv", "summary.json"):
            a = (dir_a / name).read_bytes()
            b = (dir_b / name).read_bytes()
            assert a == b, f"{dir_a.name}/{name} differs between identical runs"
            compared += 1
    assert compared == 6
    _verdict("deterministic replay", True, f"{compared} files byte-identical across reruns")


# --- 8: model arithmetic ---------------------------------------------------------------

def test_model_arithmetic_exact():
    mission = ms.MissionConfig()
    assert ms.uav_energy_j(30.0, 10.0, mission) == 9050.0
    assert ms.travel_time_s((44.0, 44.0, 100.0), (132.0, 44.0, 100.0), 10.0) == 8.8
    assert strategic_reward(0.0) == 1.0
    assert strategic_reward(1.0) == 0.5
    assert strategic_reward(3.0) == 0.25
    _verdict("model arithmetic", True,
             "energy 9050 J, adjacent-cell leg 8.8 s, coverage bonus 1/0.5/0.25")
