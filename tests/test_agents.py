"""Learners and their gradients.

Every analytic gradient (actor term, critic loss, TD loss, clipped
surrogate) is checked against central finite differences on networks
small enough to difference exhaustively.
"""

import numpy as np
import pytest

from swarmcover import agents as ag
from swarmcover import nets
from conftest import small_env
from fdcheck import assert_grad_close

N_ACTIONS = ag.N_ACTIONS


def tiny_params(state_dim: int = 3, heads: int = 1, hidden=(2,), seed: int = 0) -> ag.PolicyParams:
    cfg = ag.AgentConfig(hidden=hidden)
    return ag.make_policy_params(state_dim, heads, cfg, np.random.default_rng(seed))


def random_batch(params: ag.PolicyParams, n: int, seed: int = 0) -> list[ag.Transition]:
    rng = np.random.default_rng(seed)
    dim = params.actor_cfg.input_dim
    batch = []
    for _ in range(n):
        action = tuple(int(a) for a in rng.integers(0, N_ACTIONS, size=params.heads))
        batch.append(ag.Transition(
            rng.normal(size=dim), action, float(rng.normal()),
            rng.normal(size=dim), bool(rng.random() < 0.2),
        ))
    return batch


# --- replay memory ---------------------------------------------------------------

def test_replay_evicts_oldest_first():
    mem = ag.ReplayMemory(2)
    a, b, c = random_batch(tiny_params(), 3)
    for t in (a, b, c):
        mem.push(t)
    assert len(mem) == 2
    held = [id(t) for t in mem.sample(2, np.random.default_rng(0))]
    assert id(a) not in held
    assert id(b) in held and id(c) in held


def test_replay_full_sample_is_permutation():
    mem = ag.ReplayMemory(5)
    batch = random_batch(tiny_params(), 5)
    for t in batch:
        mem.push(t)
    drawn = mem.sample(5, np.random.default_rng(1))
    assert sorted(id(t) for t in drawn) == sorted(id(t) for t in batch)


def test_replay_sampling_deterministic():
    mem = ag.ReplayMemory(10)
    for t in random_batch(tiny_params(), 10):
        mem.push(t)
    a = mem.sample(4, np.random.default_rng(7))
    b = mem.sample(4, np.random.default_rng(7))
    assert [id(t) for t in a] == [id(t) for t in b]


# --- exploration -------------------------------------------------------------------

def test_epsilon_schedule_endpoints():
    cfg = ag.AgentConfig()
    assert ag.epsilon_at(0, 1000, cfg) == pytest.approx(0.9)
    assert ag.epsilon_at(600, 1000, cfg) == pytest.approx(0.05)
    assert ag.epsilon_at(999, 1000, cfg) == pytest.approx(0.05)
    assert ag.epsilon_at(300, 1000, cfg) == pytest.approx((0.9 + 0.05) / 2.0)


def test_select_action_greedy_takes_argmax():
    scores = np.array([[0.1, 0.2, 0.5, 0.1, 0.1]])
    act = ag.select_action(scores, 1, 0.0, np.random.default_rng(0), mode="greedy")
    assert act == (2,)


def test_select_action_tie_breaks_low():
    scores = np.array([[0.25, 0.25, 0.25, 0.25, 0.0]])
    act = ag.select_action(scores, 1, 0.0, np.random.default_rng(0), mode="greedy")
    assert act == (0,)


def test_select_action_full_random_is_uniform():
    rng = np.random.default_rng(0)
    scores = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
    counts = np.zeros(N_ACTIONS)
    draws = 10_000
    for _ in range(draws):
        counts[ag.select_action(scores, 1, 1.0, rng, mode="greedy")[0]] += 1
    np.testing.assert_allclose(counts / draws, 0.2, atol=0.02)


def test_select_action_sample_mode_follows_distribution():
    rng = np.random.default_rng(0)
    scores = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
    for _ in range(20):
        assert ag.select_action(scores, 1, 0.0, rng, mode="sample") == (2,)


def loop_select_action(scores, active, epsilon, rng, mode):
    """Reference: one ``rng.choice`` per UAV, the draws ``select_action``
    must reproduce."""
    acts = []
    for u in range(active):
        if epsilon > 0.0 and rng.random() < epsilon:
            acts.append(int(rng.integers(N_ACTIONS)))
        elif mode == "greedy":
            acts.append(int(np.argmax(scores[u])))
        else:
            p = np.asarray(scores[u], dtype=np.float64)
            p = p / p.sum()
            acts.append(int(rng.choice(N_ACTIONS, p=p)))
    return tuple(acts)


def random_scores(rng, heads: int, active: int, mode: str) -> np.ndarray:
    """Softmax rows from peaked to flat, some with exact zeros or left
    unnormalised, in sample mode; Q-values with ties in greedy mode. Idle
    rows hold NaN, which must never be read."""
    if mode == "greedy":
        scores = np.round(rng.normal(size=(heads, N_ACTIONS)), int(rng.integers(0, 3)))
    else:
        z = rng.normal(scale=10.0 ** rng.uniform(-1, 1.5), size=(heads, N_ACTIONS))
        scores = nets.softmax(z)
        scores[rng.random(scores.shape) < 0.1] = 0.0
        scores[scores.sum(axis=1) == 0.0, 0] = 1.0
        scores *= rng.choice([1.0, rng.uniform(0.1, 10.0)])
    scores[active:] = np.nan
    return scores


def test_select_action_matches_the_per_uav_draws():
    cases = np.random.default_rng(100)
    for case in range(2400):
        heads = int(cases.integers(1, 8))
        active = int(cases.integers(0, heads + 1))
        mode = ("sample", "greedy")[case % 2]
        epsilon = (0.0, float(cases.uniform(0.05, 0.95)))[(case // 2) % 2]
        scores = random_scores(cases, heads, active, mode)
        mine, ref = np.random.default_rng(case), np.random.default_rng(case)
        got = ag.select_action(scores, active, epsilon, mine, mode)
        want = loop_select_action(scores, active, epsilon, ref, mode)
        assert got == want, (case, heads, active, mode, epsilon)
        assert all(type(a) is int for a in got)
        assert mine.bit_generator.state == ref.bit_generator.state, case


@pytest.mark.parametrize("active", [1, 3])
@pytest.mark.parametrize("bad", ["nan", "all_zero", "negative"])
def test_select_action_rejects_invalid_probabilities(bad, active):
    scores = np.full((4, N_ACTIONS), 0.2)
    scores[active - 1] = {
        "nan": [0.2, np.nan, 0.2, 0.2, 0.4],
        "all_zero": [0.0] * N_ACTIONS,
        "negative": [-0.1, 0.5, 0.3, 0.2, 0.1],
    }[bad]
    with np.errstate(invalid="ignore"):
        for sample in (ag.select_action, loop_select_action):
            with pytest.raises(ValueError):
                sample(scores, active, 0.0, np.random.default_rng(0), "sample")


# --- returns -----------------------------------------------------------------------

def test_discounted_returns_hand_case():
    np.testing.assert_allclose(ag.discounted_returns([1.0, 1.0, 1.0], 0.5), [1.75, 1.5, 1.0])


def test_discounted_returns_gamma_zero_is_identity():
    rewards = [3.0, -1.0, 2.0]
    np.testing.assert_allclose(ag.discounted_returns(rewards, 1e-12), rewards, atol=1e-9)


# --- actor-critic gradients -----------------------------------------------------------

def test_zero_advantage_means_zero_actor_gradient():
    params = tiny_params()
    nets.add_scaled(params.critic, params.critic, -1.0)  # critic == 0 everywhere
    params.refresh_stale()
    batch = random_batch(params, 4)
    batch = [ag.Transition(t.state, t.action, 0.0, t.next_state, t.done) for t in batch]
    acc = ag.actor_critic_accumulate(params, batch, gamma=0.9)
    for g in acc.d_actor.values():
        np.testing.assert_array_equal(g, 0.0)


def test_accumulate_twice_doubles():
    params = tiny_params(heads=2)
    episode = random_batch(params, 5, seed=3)
    once = ag.actor_critic_accumulate(params, episode, 0.85)
    twice = ag.actor_critic_accumulate(params, episode, 0.85,
                                       ag.actor_critic_accumulate(params, episode, 0.85))
    for k in once.d_actor:
        np.testing.assert_allclose(twice.d_actor[k], 2.0 * once.d_actor[k], rtol=1e-12)
    for k in once.d_critic:
        np.testing.assert_allclose(twice.d_critic[k], 2.0 * once.d_critic[k], rtol=1e-12)


def test_empty_episode_rejected():
    with pytest.raises(ValueError):
        ag.actor_critic_accumulate(tiny_params(), [], 0.85)


def test_actor_gradient_matches_finite_differences():
    params = tiny_params(seed=5)
    episode = random_batch(params, 1, seed=6)
    gamma = 0.85
    acc = ag.actor_critic_accumulate(params, episode, gamma)

    returns = ag.discounted_returns([t.reward for t in episode], gamma)
    states = np.stack([t.state for t in episode])
    values, _ = ag.value_forward(params.critic_stale, states, params.critic_cfg)
    adv = returns - values

    def actor_objective(actor):
        _, probs, _ = ag.policy_forward(actor, states, params.actor_cfg, params.heads)
        total = 0.0
        for t, tr in enumerate(episode):
            for u, a in enumerate(tr.action):
                total += adv[t] * np.log(probs[t, u, a])
        return float(total)

    assert_grad_close(acc.d_actor, params.actor_stale, params.actor_cfg, actor_objective)


def test_critic_gradient_matches_finite_differences():
    params = tiny_params(seed=7)
    episode = random_batch(params, 1, seed=8)
    gamma = 0.85
    acc = ag.actor_critic_accumulate(params, episode, gamma)

    returns = ag.discounted_returns([t.reward for t in episode], gamma)
    states = np.stack([t.state for t in episode])

    def critic_loss(critic):
        values, _ = ag.value_forward(critic, states, params.critic_cfg)
        return float(((returns - values) ** 2).sum())

    assert_grad_close(acc.d_critic, params.critic_stale, params.critic_cfg, critic_loss)


def test_replay_td_gradient_matches_finite_differences():
    params = tiny_params(seed=9)
    batch = random_batch(params, 3, seed=10)
    gamma = 0.85
    acc = ag.GradAccumulator.zeros(params)
    ag.critic_td_accumulate(params, batch, gamma, acc)

    states = np.stack([t.state for t in batch])
    next_states = np.stack([t.next_state for t in batch])
    rewards = np.array([t.reward for t in batch])
    live = np.array([0.0 if t.done else 1.0 for t in batch])
    # Bootstrap targets come from the unperturbed stale critic.
    frozen_next, _ = ag.value_forward(params.critic_stale, next_states, params.critic_cfg)
    targets = rewards + gamma * live * frozen_next

    def td_loss(critic):
        values, _ = ag.value_forward(critic, states, params.critic_cfg)
        return float(((targets - values) ** 2).sum())

    assert_grad_close(acc.d_critic, params.critic_stale, params.critic_cfg, td_loss)


# --- per-UAV credit: per-slot critic, TD advantages, entropy ---------------------------

def per_uav_params(heads: int = 3, critic_outputs: int | None = None, seed: int = 0) -> ag.PolicyParams:
    cfg = ag.AgentConfig(hidden=(2,))
    outputs = heads if critic_outputs is None else critic_outputs
    return ag.make_policy_params(4, heads, cfg, np.random.default_rng(seed), critic_outputs=outputs)


def per_uav_batch(params: ag.PolicyParams, n: int, seed: int = 0) -> list[ag.Transition]:
    """Transitions with one reward per acting UAV; the last state feature
    encodes the active count, as the environment's does."""
    rng = np.random.default_rng(seed)
    dim, heads = params.actor_cfg.input_dim, params.heads
    batch = []
    for _ in range(n):
        acting, next_acting = rng.integers(1, heads + 1, size=2)
        state, next_state = rng.normal(size=dim), rng.normal(size=dim)
        state[-1], next_state[-1] = acting / heads, next_acting / heads
        action = tuple(int(a) for a in rng.integers(0, N_ACTIONS, size=acting))
        uav_rewards = rng.normal(size=acting)
        batch.append(ag.Transition(state, action, float(uav_rewards.sum()), next_state,
                                   bool(rng.random() < 0.2), uav_rewards))
    return batch


def _values(critic: dict, state: np.ndarray, params: ag.PolicyParams) -> np.ndarray:
    out, _ = nets.forward(critic, state, params.critic_cfg)
    return np.broadcast_to(out[0], (params.heads,))


def _bootstrap(tr: ag.Transition, u: int, params: ag.PolicyParams, gamma: float) -> float:
    """gamma * V_u(s') from the stale critic, or 0 past the end or for a
    slot that is idle in s'."""
    if tr.done or u >= round(tr.next_state[-1] * params.heads):
        return 0.0
    return gamma * _values(params.critic_stale, tr.next_state, params)[u]


def test_per_head_td_actor_gradient_matches_finite_differences():
    params = per_uav_params(seed=40)
    episode = per_uav_batch(params, 4, seed=41)
    gamma = 0.85
    acc = ag.actor_critic_accumulate(params, episode, gamma, td=True)
    states = np.stack([t.state for t in episode])

    def actor_objective(actor):
        _, probs, _ = ag.policy_forward(actor, states, params.actor_cfg, params.heads)
        total = 0.0
        for t, tr in enumerate(episode):
            v = _values(params.critic_stale, tr.state, params)
            for u, a in enumerate(tr.action):
                delta = tr.uav_rewards[u] + _bootstrap(tr, u, params, gamma) - v[u]
                total += delta * np.log(probs[t, u, a])
        return float(total)

    assert_grad_close(acc.d_actor, params.actor_stale, params.actor_cfg, actor_objective)


def test_entropy_gradient_matches_finite_differences():
    params = per_uav_params(seed=42)
    nets.add_scaled(params.critic, params.critic, -1.0)  # V == 0: no advantage term
    params.refresh_stale()
    episode = [ag.Transition(t.state, t.action, 0.0, t.next_state, t.done, 0.0 * t.uav_rewards)
               for t in per_uav_batch(params, 4, seed=43)]
    weight = 0.1
    acc = ag.actor_critic_accumulate(params, episode, 0.85, td=True, entropy=weight)
    states = np.stack([t.state for t in episode])

    def entropy_objective(actor):
        _, probs, _ = ag.policy_forward(actor, states, params.actor_cfg, params.heads)
        total = 0.0
        for t, tr in enumerate(episode):
            for u in range(len(tr.action)):
                total -= weight * float(np.sum(probs[t, u] * np.log(probs[t, u])))
        return total

    assert_grad_close(acc.d_actor, params.actor_stale, params.actor_cfg, entropy_objective)


@pytest.mark.parametrize("outputs", [3, 1])
def test_per_slot_critic_gradient_matches_finite_differences(outputs):
    params = per_uav_params(critic_outputs=outputs, seed=44)
    episode = per_uav_batch(params, 4, seed=45)
    gamma = 0.85
    acc = ag.actor_critic_accumulate(params, episode, gamma, td=True, entropy=0.1)
    returns = np.zeros((len(episode), params.heads))
    running = np.zeros(params.heads)
    for t in reversed(range(len(episode))):
        step = np.zeros(params.heads)
        step[: len(episode[t].uav_rewards)] = episode[t].uav_rewards
        running = step + gamma * running
        returns[t] = running

    def critic_loss(critic):
        total = 0.0
        for t, tr in enumerate(episode):
            v = _values(critic, tr.state, params)
            for u in range(len(tr.action)):
                total += (returns[t, u] - v[u]) ** 2
        return float(total)

    assert_grad_close(acc.d_critic, params.critic_stale, params.critic_cfg, critic_loss)


@pytest.mark.parametrize("outputs", [3, 1])
def test_per_slot_replay_td_gradient_matches_finite_differences(outputs):
    params = per_uav_params(critic_outputs=outputs, seed=46)
    batch = per_uav_batch(params, 5, seed=47)
    gamma = 0.85
    acc = ag.GradAccumulator.zeros(params)
    ag.critic_td_accumulate(params, batch, gamma, acc)

    def td_loss(critic):
        total = 0.0
        for tr in batch:
            v = _values(critic, tr.state, params)
            for u in range(len(tr.action)):
                target = tr.uav_rewards[u] + _bootstrap(tr, u, params, gamma)
                total += (target - v[u]) ** 2
        return float(total)

    assert_grad_close(acc.d_critic, params.critic_stale, params.critic_cfg, td_loss)


def test_mixed_reward_kinds_rejected():
    params = per_uav_params()
    batch = per_uav_batch(params, 2)
    batch[0] = ag.Transition(batch[0].state, batch[0].action, 1.0, batch[0].next_state)
    with pytest.raises(ValueError, match="mix"):
        ag.actor_critic_accumulate(params, batch, 0.85)


def test_adam_first_step_moves_by_the_step_size_along_the_sign():
    params = tiny_params(seed=48)
    before = nets.flatten_params(params.actor, params.actor_cfg).copy()
    grad = np.random.default_rng(49).normal(size=before.size)
    for sign in (+1.0, -1.0):
        opt = ag.Adam(params.actor_cfg, 1e-3, sign)
        opt.flat_grad[:] = grad
        start = nets.flatten_params(params.actor, params.actor_cfg)
        opt.step(params.actor)
        moved = nets.flatten_params(params.actor, params.actor_cfg) - start
        np.testing.assert_allclose(moved, sign * 1e-3 * np.sign(grad), rtol=1e-6)
        np.testing.assert_array_equal(opt.flat_grad, 0.0)  # cleared for the next episode
    np.testing.assert_allclose(nets.flatten_params(params.actor, params.actor_cfg), before,
                               atol=1e-15)


def test_replacing_learner_params_restarts_adam():
    env = small_env()
    task = env.nominal_task()
    cfg = ag.AgentConfig(hidden=(4,))
    init = ag.make_policy_params(env.state_dim, env.cfg.max_swarm, cfg,
                                 np.random.default_rng(50), critic_outputs=env.cfg.max_swarm)
    reused = ag.ActorCriticLearner(init.clone(), cfg)
    ag.run_training_episode(env, task, reused, np.random.default_rng(51), 0.0)
    reused.params = init.clone()
    ag.run_training_episode(env, task, reused, np.random.default_rng(52), 0.0)
    fresh = ag.ActorCriticLearner(init.clone(), cfg)
    ag.run_training_episode(env, task, fresh, np.random.default_rng(52), 0.0)
    np.testing.assert_array_equal(
        nets.flatten_params(reused.params.actor, init.actor_cfg),
        nets.flatten_params(fresh.params.actor, init.actor_cfg),
    )


# --- DQN --------------------------------------------------------------------------

def test_dqn_gamma_zero_reduces_target_to_reward():
    params = tiny_params(seed=12)
    batch = random_batch(params, 4, seed=13)
    cfg = params.actor_cfg
    loss, _ = ag.dqn_loss_and_grad(params.actor, params.actor_stale, batch, 0.0, cfg, params.heads)
    raw, _ = nets.forward(params.actor, np.stack([t.state for t in batch]), cfg)
    q = raw.reshape(len(batch), params.heads, N_ACTIONS)
    expected = sum(
        (q[t, u, a] - tr.reward) ** 2
        for t, tr in enumerate(batch) for u, a in enumerate(tr.action)
    )
    assert loss == pytest.approx(float(expected), rel=1e-12)


def test_dqn_zero_td_error_means_no_change():
    params = tiny_params(seed=14)
    zero_net = nets.zeros_like_params(params.actor)
    batch = [ag.Transition(t.state, t.action, 0.0, t.next_state, t.done)
             for t in random_batch(params, 4, seed=15)]
    loss = ag.dqn_update(zero_net, nets.zeros_like_params(params.actor), batch,
                         0.9, 0.1, params.actor_cfg, params.heads)
    assert loss == 0.0
    for v in zero_net.values():
        np.testing.assert_array_equal(v, 0.0)


def loop_dqn_loss_and_grad(q_params, target_params, batch, gamma, cfg, heads):
    """Reference: the TD target and ``dq`` built one (t, u) pair at a time."""
    states = np.stack([t.state for t in batch])
    next_states = np.stack([t.next_state for t in batch])
    rewards = np.array([t.reward for t in batch])
    live = np.array([0.0 if t.done else 1.0 for t in batch])
    raw, cache = nets.forward(q_params, states, cfg)
    q = raw.reshape(len(batch), heads, N_ACTIONS)
    raw_next, _ = nets.forward(target_params, next_states, cfg)
    q_next = raw_next.reshape(len(batch), heads, N_ACTIONS)
    loss = 0.0
    dq = np.zeros_like(q)
    for t, tr in enumerate(batch):
        for u, a in enumerate(tr.action):
            target = rewards[t] + gamma * live[t] * q_next[t, u].max()
            err = q[t, u, a] - target
            loss += float(err * err)
            dq[t, u, a] = 2.0 * err
    return loss, nets.backward(q_params, cache, dq.reshape(len(batch), -1), cfg)


def partial_swarm_batch(params: ag.PolicyParams, n: int, seed: int) -> list[ag.Transition]:
    """Transitions whose joint actions cover 1..heads UAVs."""
    rng = np.random.default_rng(seed)
    batch = random_batch(params, n, seed=seed)
    for tr in batch:
        tr.action = tr.action[: int(rng.integers(1, params.heads + 1))]
    return batch


def assert_bits_equal(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def test_dqn_matches_the_per_pair_loop():
    for case in range(200):
        params = tiny_params(state_dim=5, heads=1 + case % 7, hidden=(6,), seed=case)
        target = tiny_params(state_dim=5, heads=1 + case % 7, hidden=(6,), seed=case + 1)
        batch = partial_swarm_batch(params, 1 + case % 17, seed=case)
        gamma = float(np.random.default_rng(case).uniform(0.0, 1.0))
        args = (params.actor, target.actor, batch, gamma, params.actor_cfg, params.heads)
        loss, grads = ag.dqn_loss_and_grad(*args)
        ref_loss, ref_grads = loop_dqn_loss_and_grad(*args)
        assert_bits_equal(loss, ref_loss)
        for key in ref_grads:
            assert_bits_equal(grads[key], ref_grads[key])


def test_dqn_gradient_matches_finite_differences():
    params = tiny_params(seed=16)
    target = tiny_params(seed=17)
    batch = random_batch(params, 3, seed=18)
    cfg = params.actor_cfg
    _, grads = ag.dqn_loss_and_grad(params.actor, target.actor, batch, 0.85, cfg, params.heads)

    def loss_fn(q_net):
        loss, _ = ag.dqn_loss_and_grad(q_net, target.actor, batch, 0.85, cfg, params.heads)
        return loss

    assert_grad_close(grads, params.actor, cfg, loss_fn)


# --- PPO --------------------------------------------------------------------------

def test_ppo_wide_clip_equals_plain_surrogate():
    params = tiny_params(seed=19)
    batch = random_batch(params, 4, seed=20)
    adv = np.random.default_rng(21).normal(size=len(batch))
    # ratio == 1 everywhere (actor is its own old policy), inside any window
    _, g_narrow = ag.ppo_surrogate_and_grad(
        params.actor, params.actor, batch, adv, 0.2, params.actor_cfg, params.heads)
    _, g_wide = ag.ppo_surrogate_and_grad(
        params.actor, params.actor, batch, adv, 1e9, params.actor_cfg, params.heads)
    for k in g_narrow:
        np.testing.assert_allclose(g_narrow[k], g_wide[k], rtol=1e-12)


def test_ppo_zero_clip_kills_actor_gradient():
    params = tiny_params(seed=22)
    batch = random_batch(params, 4, seed=23)
    adv = np.random.default_rng(24).normal(size=len(batch))
    _, grads = ag.ppo_surrogate_and_grad(
        params.actor, params.actor, batch, adv, 0.0, params.actor_cfg, params.heads)
    for g in grads.values():
        np.testing.assert_array_equal(g, 0.0)


def test_ppo_update_zero_clip_freezes_actor():
    cfg = ag.AgentConfig(hidden=(2,), ppo_clip=0.0)
    params = ag.make_policy_params(3, 1, cfg, np.random.default_rng(25))
    params.refresh_stale()
    rollout = random_batch(params, 5, seed=26)
    before = nets.flatten_params(params.actor, params.actor_cfg).copy()
    critic_before = nets.flatten_params(params.critic, params.critic_cfg).copy()
    ag.ppo_update(params, rollout, 0.0, 3, 0.85, 0.01)
    np.testing.assert_array_equal(nets.flatten_params(params.actor, params.actor_cfg), before)
    assert not np.array_equal(
        nets.flatten_params(params.critic, params.critic_cfg), critic_before
    )  # the value fit still runs


def test_ppo_surrogate_gradient_matches_finite_differences():
    params = tiny_params(seed=27)
    old = tiny_params(seed=28)
    batch = random_batch(params, 3, seed=29)
    adv = np.random.default_rng(30).normal(size=len(batch))
    clip = 0.2
    _, grads = ag.ppo_surrogate_and_grad(
        params.actor, old.actor, batch, adv, clip, params.actor_cfg, params.heads)

    def objective(actor):
        obj, _ = ag.ppo_surrogate_and_grad(
            actor, old.actor, batch, adv, clip, params.actor_cfg, params.heads)
        return obj

    assert_grad_close(grads, params.actor, params.actor_cfg, objective)


def test_joint_log_prob_hand_case():
    probs = np.array([[[0.5, 0.2, 0.1, 0.1, 0.1],
                       [0.25, 0.25, 0.25, 0.25, 0.0]]])
    lp = ag.joint_log_prob(probs, [(0, 1)])
    assert lp[0] == pytest.approx(np.log(0.5) + np.log(0.25), rel=1e-12)


def loop_joint_log_prob(probs, actions):
    """Reference: each (t, u) log added in turn."""
    out = np.zeros(len(actions))
    for t, acts in enumerate(actions):
        for u, a in enumerate(acts):
            out[t] += np.log(max(probs[t, u, a], 1e-12))
    return out


def loop_ppo_surrogate_and_grad(actor, old_actor, batch, advantages, clip_eps, cfg, heads):
    """Reference: the clipped surrogate with ``dlogits`` built one (t, u)
    pair at a time."""
    states = np.stack([t.state for t in batch])
    actions = [t.action for t in batch]
    logits, probs, cache = ag.policy_forward(actor, states, cfg, heads)
    _, old_probs, _ = ag.policy_forward(old_actor, states, cfg, heads)
    ratio = np.exp(loop_joint_log_prob(probs, actions) - loop_joint_log_prob(old_probs, actions))
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    s_plain = ratio * advantages
    s_clip = clipped * advantages
    objective = float(np.minimum(s_plain, s_clip).sum())
    inside = (ratio > 1.0 - clip_eps) & (ratio < 1.0 + clip_eps)
    dratio = np.where(s_plain < s_clip, advantages, advantages * inside)
    dlogp = dratio * ratio
    dlogits = np.zeros_like(logits)
    for t, acts in enumerate(actions):
        for u, a in enumerate(acts):
            onehot = np.zeros(N_ACTIONS)
            onehot[a] = 1.0
            dlogits[t, u] = dlogp[t] * (onehot - probs[t, u])
    return objective, nets.backward(actor, cache, dlogits.reshape(len(batch), -1), cfg)


def test_joint_log_prob_matches_the_per_pair_loop():
    rng = np.random.default_rng(101)
    for _ in range(500):
        heads, n = int(rng.integers(1, 8)), int(rng.integers(1, 20))
        probs = nets.softmax(rng.normal(scale=20.0, size=(n, heads, N_ACTIONS)))
        probs[rng.random(probs.shape) < 0.05] = 0.0  # below the 1e-12 floor
        actions = [tuple(rng.integers(0, N_ACTIONS, size=rng.integers(1, heads + 1)).tolist())
                   for _ in range(n)]
        assert_bits_equal(ag.joint_log_prob(probs, actions), loop_joint_log_prob(probs, actions))


def test_ppo_surrogate_matches_the_per_pair_loop():
    for case in range(200):
        heads = 1 + case % 7
        params = tiny_params(state_dim=5, heads=heads, hidden=(6,), seed=case)
        old = tiny_params(state_dim=5, heads=heads, hidden=(6,), seed=case + 1)
        batch = partial_swarm_batch(params, 1 + case % 17, seed=case)
        rng = np.random.default_rng(case)
        adv = rng.normal(size=len(batch))
        clip = float(rng.choice([0.0, 0.2, 1e9]))
        args = (params.actor, old.actor, batch, adv, clip, params.actor_cfg, heads)
        obj, grads = ag.ppo_surrogate_and_grad(*args)
        ref_obj, ref_grads = loop_ppo_surrogate_and_grad(*args)
        assert_bits_equal(obj, ref_obj)
        for key in ref_grads:
            assert_bits_equal(grads[key], ref_grads[key])


# --- meta loop -----------------------------------------------------------------------

def _meta_state(seed=31, inner=2):
    params = tiny_params(state_dim=40, heads=3, seed=seed)
    return ag.MetaState(params, inner_episodes=inner, inner_lr=1e-3, outer_lr=0.5)


def test_meta_adapt_requires_inner_episodes():
    env = small_env()
    meta = _meta_state(inner=0)
    with pytest.raises(ValueError, match="at least one episode"):
        ag.meta_adapt(meta, env, env.nominal_task(), np.random.default_rng(0), ag.AgentConfig())


def test_meta_adapt_never_touches_meta_params():
    env = small_env()
    cfg = ag.AgentConfig(hidden=(4,), minibatch=4)
    meta = ag.MetaState(
        ag.make_policy_params(env.state_dim, env.cfg.max_swarm, cfg, np.random.default_rng(1)),
        inner_episodes=2, inner_lr=1e-3, outer_lr=0.5,
    )
    before = nets.flatten_params(meta.params.actor, meta.params.actor_cfg).copy()
    adapted = ag.meta_adapt(meta, env, env.nominal_task(), np.random.default_rng(2), cfg)
    np.testing.assert_array_equal(
        nets.flatten_params(meta.params.actor, meta.params.actor_cfg), before
    )
    assert not np.array_equal(
        nets.flatten_params(adapted.actor, adapted.actor_cfg), before
    )  # the clone moved


def test_meta_adapt_deterministic():
    env = small_env()
    cfg = ag.AgentConfig(hidden=(4,), minibatch=4)
    meta = ag.MetaState(
        ag.make_policy_params(env.state_dim, env.cfg.max_swarm, cfg, np.random.default_rng(3)),
        inner_episodes=2, inner_lr=1e-3, outer_lr=0.5,
    )
    task = env.nominal_task()
    a = ag.meta_adapt(meta, env, task, np.random.default_rng(9), cfg)
    b = ag.meta_adapt(meta, env, task, np.random.default_rng(9), cfg)
    np.testing.assert_array_equal(
        nets.flatten_params(a.actor, a.actor_cfg), nets.flatten_params(b.actor, b.actor_cfg)
    )


def test_meta_outer_fixed_point():
    meta = _meta_state()
    before = nets.flatten_params(meta.params.actor, meta.params.actor_cfg).copy()
    ag.meta_outer_update(meta, [meta.params.clone(), meta.params.clone()])
    np.testing.assert_allclose(
        nets.flatten_params(meta.params.actor, meta.params.actor_cfg), before, rtol=1e-15
    )


def test_meta_outer_full_step_adopts_single_task():
    meta = _meta_state()
    meta.outer_lr = 1.0
    adapted = meta.params.clone()
    adapted.actor["b0"][:] += 3.0
    ag.meta_outer_update(meta, [adapted])
    np.testing.assert_allclose(meta.params.actor["b0"], adapted.actor["b0"], rtol=1e-15)


def test_meta_outer_opposite_deltas_cancel():
    meta = _meta_state()
    before = nets.flatten_params(meta.params.actor, meta.params.actor_cfg).copy()
    up, down = meta.params.clone(), meta.params.clone()
    up.actor["b0"][:] += 1.5
    down.actor["b0"][:] -= 1.5
    ag.meta_outer_update(meta, [up, down])
    np.testing.assert_allclose(
        nets.flatten_params(meta.params.actor, meta.params.actor_cfg), before, atol=1e-12
    )


def test_meta_outer_requires_adapted_sets():
    with pytest.raises(ValueError):
        ag.meta_outer_update(_meta_state(), [])


# --- learner plumbing ---------------------------------------------------------------

def test_policy_params_clone_is_independent():
    params = tiny_params()
    twin = params.clone()
    twin.actor["b0"][0] += 1.0
    assert params.actor["b0"][0] != twin.actor["b0"][0]


def test_refresh_stale_copies_current_weights():
    params = tiny_params()
    params.actor["b0"][0] += 5.0
    assert params.actor_stale["b0"][0] != params.actor["b0"][0]
    params.refresh_stale()
    assert params.actor_stale["b0"][0] == params.actor["b0"][0]


def test_forward_distributions_normalised():
    params = tiny_params(state_dim=6, heads=3)
    probs, value = ag.forward(params, np.random.default_rng(0).normal(size=6))
    assert probs.shape == (3, N_ACTIONS)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    assert np.isfinite(value)


def test_make_learner_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ag.make_learner("sarsa", 10, 2, ag.AgentConfig(), np.random.default_rng(0))


def test_make_learner_clones_the_init():
    cfg = ag.AgentConfig(hidden=(2,))
    init = ag.make_policy_params(4, 1, cfg, np.random.default_rng(1))
    learner = ag.make_learner("actor_critic", 4, 1, cfg, np.random.default_rng(2), init=init)
    learner.params.actor["b0"][0] += 1.0
    assert init.actor["b0"][0] != learner.params.actor["b0"][0]


def test_random_policy_ignores_learning():
    env = small_env()
    learner = ag.RandomPolicy(heads=env.cfg.max_swarm)
    stats = ag.run_training_episode(env, env.nominal_task(), learner,
                                    np.random.default_rng(4), epsilon=0.0)
    assert stats["steps"] == 6
    assert stats["swarm_size"] == 2


def test_training_episode_updates_actor_critic():
    env = small_env()
    cfg = ag.AgentConfig(hidden=(4,), minibatch=4)
    params = ag.make_policy_params(env.state_dim, env.cfg.max_swarm, cfg, np.random.default_rng(5))
    learner = ag.ActorCriticLearner(params, cfg)
    before = nets.flatten_params(params.actor, params.actor_cfg).copy()
    ag.run_training_episode(env, env.nominal_task(), learner, np.random.default_rng(6), 0.0)
    assert not np.array_equal(
        nets.flatten_params(learner.params.actor, params.actor_cfg), before
    )
