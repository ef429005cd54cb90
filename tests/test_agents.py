"""Learners and their gradients.

Every analytic gradient (actor term, critic loss, TD loss, clipped
surrogate) is checked against central finite differences on networks
small enough to difference exhaustively.
"""

from collections import deque

import numpy as np
import pytest

from swarmcover import agents as ag
from swarmcover import nets
from conftest import small_env
from fdcheck import assert_grad_close, flatten_params, zero_grads, zeros_like_params

N_ACTIONS = ag.N_ACTIONS


def tiny_params(state_dim: int = 3, heads: int = 1, hidden=(2,), seed: int = 0) -> ag.PolicyParams:
    """Small nets with the actor-critic's per-slot critic (one output per head)."""
    cfg = ag.AgentConfig(hidden=hidden)
    return ag.make_policy_params(state_dim, heads, cfg, np.random.default_rng(seed),
                                 critic_outputs=heads)


def random_batch(params: ag.PolicyParams, n: int, seed: int = 0) -> list[ag.Transition]:
    """Transitions of 1..heads acting UAVs, each with one reward per acting
    UAV; the last state feature encodes the active count, as the
    environment's does."""
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


# --- replay memory ---------------------------------------------------------------

def memory_of(params: ag.PolicyParams, capacity: int) -> ag.ReplayMemory:
    return ag.ReplayMemory(capacity, params.actor_cfg.input_dim, params.heads)


def test_replay_evicts_oldest_first():
    params = tiny_params()
    mem = memory_of(params, 2)
    a, b, c = random_batch(params, 3)
    for t in (a, b, c):
        mem.push(t)
    assert len(mem) == 2
    held = mem.sample(2, np.random.default_rng(0))
    rows = sorted(zip(held.reward.tolist(), held.states.tolist(), held.next_states.tolist()))
    assert rows == sorted((t.reward, t.state.tolist(), t.next_state.tolist()) for t in (b, c))


def test_replay_full_sample_is_permutation():
    params = tiny_params()
    mem = memory_of(params, 5)
    batch = random_batch(params, 5)
    for t in batch:
        mem.push(t)
    drawn = mem.sample(5, np.random.default_rng(1))
    # The rewards are distinct, so each names the transition its row came from.
    by_reward = {t.reward: t for t in batch}
    assert sorted(drawn.reward.tolist()) == sorted(by_reward)
    for i, r in enumerate(drawn.reward.tolist()):
        t = by_reward[r]
        assert drawn.states[i].tobytes() == t.state.tobytes()
        assert drawn.next_states[i].tobytes() == t.next_state.tobytes()
        assert drawn.live[i] == (0.0 if t.done else 1.0)
        assert tuple(drawn.acts[i][drawn.acting[i]].tolist()) == t.action


def test_replay_sampling_deterministic():
    params = tiny_params()
    mem = memory_of(params, 10)
    for t in random_batch(params, 10):
        mem.push(t)
    a = vars(mem.sample(4, np.random.default_rng(7)))
    b = vars(mem.sample(4, np.random.default_rng(7)))
    for name in a:
        assert_bits_equal(a[name], b[name])


class DequeReplayMemory:
    """Reference: the transition-object store the array memory replaced."""

    def __init__(self, capacity: int) -> None:
        self.buffer = deque(maxlen=capacity)

    def push(self, transition: ag.Transition) -> None:
        self.buffer.append(transition)

    def sample(self, n: int, rng: np.random.Generator) -> list[ag.Transition]:
        if n > len(self.buffer):
            raise ValueError("cannot sample more transitions than stored")
        picks = rng.choice(len(self.buffer), size=n, replace=False)
        return [self.buffer[int(i)] for i in picks]

    def __len__(self) -> int:
        return len(self.buffer)


def reference_batch(batch: list[ag.Transition], heads: int) -> ag.Batch:
    """Reference: the transition-list batch builder the array memory
    replaced, each field built as it built it."""
    n = len(batch)
    acts, acting = ag.action_arrays([t.action for t in batch], heads)
    active = acting.astype(np.float64)
    live = np.array([0.0 if t.done else 1.0 for t in batch])[:, None]
    states = np.stack([t.state for t in batch])
    next_states = np.stack([t.next_state for t in batch])
    rewards = np.zeros((n, heads))
    rewards[acting] = np.concatenate([t.uav_rewards for t in batch])
    next_active = np.arange(heads) < np.rint(next_states[:, -1] * heads)[:, None]
    boot = live * next_active
    return ag.Batch(states, next_states, np.array([t.reward for t in batch]), live[:, 0],
                    acts, acting, active, rewards, boot)


def push_stream(rng: np.random.Generator, length: int, dim: int, heads: int) -> list[ag.Transition]:
    """Episodes of random length, each ending ``done`` and each with its own
    active count, whose trailing state feature encodes that count, and one
    reward per acting UAV. Within an episode a push's state is mostly the
    previous ``next_state`` (the same object or an equal copy), but
    sometimes a fresh state, or the previous ``next_state`` with the sign of
    a zero flipped."""
    stream: list[ag.Transition] = []
    while len(stream) < length:
        active = int(rng.integers(1, heads + 1))
        state = rng.normal(size=dim)
        steps = int(rng.integers(1, 8))
        for step in range(steps):
            next_state = np.round(rng.normal(size=dim), 1)  # some exact zeros
            next_state[-1] = int(rng.integers(1, heads + 1)) / heads
            action = tuple(int(a) for a in rng.integers(0, N_ACTIONS, size=active))
            uav = np.round(rng.normal(size=active), 1)
            reward = float(uav.sum())
            done = step == steps - 1 or rng.random() < 0.2
            stream.append(ag.Transition(state, action, reward, next_state, done, uav))
            if done:
                break
            kind = rng.random()
            if kind < 0.6:
                state = next_state
            elif kind < 0.7:
                state = next_state.copy()
            elif kind < 0.85:
                state = rng.normal(size=dim)
            else:
                state = next_state.copy()
                zeros = np.flatnonzero(state == 0.0)
                if len(zeros):
                    state[zeros[0]] = -state[zeros[0]]  # 0.0 <-> -0.0
                else:
                    state[0] = np.nextafter(state[0], np.inf)
    return stream[:length]


def test_array_replay_equals_the_deque_replay_bit_for_bit():
    cases = np.random.default_rng(200)
    for case in range(150):
        heads = int(cases.integers(1, 8))
        dim = int(cases.integers(2, 6))
        length = int(cases.integers(2, 60))
        capacity = int(cases.integers(1, length))
        stream = push_stream(cases, length, dim, heads)
        params = tiny_params(dim, heads, hidden=(3,), seed=case)
        target = tiny_params(dim, heads, hidden=(3,), seed=case + 1)
        gamma = float(cases.uniform(0.0, 1.0))
        mem, ref = ag.ReplayMemory(capacity, dim, heads), DequeReplayMemory(capacity)
        for pushed, t in enumerate(stream, start=1):
            mem.push(t)
            ref.push(t)
            assert len(mem) == len(ref) == min(pushed, capacity)
            if cases.random() < 0.5:
                continue
            n = int(cases.integers(1, len(ref) + 1))
            mine, theirs = np.random.default_rng(pushed), np.random.default_rng(pushed)
            got = mem.sample(n, mine)
            drawn = ref.sample(n, theirs)
            want = reference_batch(drawn, heads)
            assert mine.bit_generator.state == theirs.bit_generator.state, case
            for name in ("states", "next_states", "reward", "live", "rewards",
                         "boot", "acts", "acting", "active"):
                assert_bits_equal(getattr(got, name), getattr(want, name))

            loss, grads = ag.dqn_loss_and_grad(params.actor, target.actor, got, gamma,
                                               params.actor_cfg, heads)
            for ref_loss, ref_grads in (
                    ag.dqn_loss_and_grad(params.actor, target.actor, want, gamma,
                                         params.actor_cfg, heads),
                    loop_dqn_loss_and_grad(params.actor, target.actor, drawn, gamma,
                                           params.actor_cfg, heads)):
                assert_bits_equal(loss, ref_loss)
                for key in ref_grads:
                    assert_bits_equal(grads[key], ref_grads[key])

            acc, ref_acc = zero_grads(params), zero_grads(params)
            ag.critic_td_accumulate(params, got, gamma, acc)
            ag.critic_td_accumulate(params, want, gamma, ref_acc)
            for key in ref_acc.d_critic:
                assert_bits_equal(acc.d_critic[key], ref_acc.d_critic[key])


def test_replay_holds_one_state_per_transition():
    capacity, dim, heads = 23, 6, 3
    mem = ag.ReplayMemory(capacity, dim, heads)
    rng = np.random.default_rng(300)
    pushed = []
    for episode in range(10):
        state = rng.normal(size=dim)
        for step in range(5):
            next_state = rng.normal(size=dim)
            t = ag.Transition(state, (1, 2), float(len(pushed)), next_state, step == 4,
                              rng.normal(size=2))
            mem.push(t)
            pushed.append(t)
            state = next_state
            terminal_held = int(mem.done.sum())  # unwritten rows read False
            assert len(mem.next_states) <= terminal_held + 1
    assert len(mem) == capacity
    full_size = [name for name, a in vars(mem).items()
                 if isinstance(a, np.ndarray) and a.size >= capacity * dim]
    assert full_size == ["states"]

    # A push that does not continue the newest row: a fresh state, then the
    # next state again but with a 0.0 turned into -0.0.
    last = pushed[-1]
    fresh = ag.Transition(rng.normal(size=dim), (0,), -1.0, np.zeros(dim), False, rng.normal(size=1))
    signed = ag.Transition(-fresh.next_state, (3,), -2.0, rng.normal(size=dim), False,
                           rng.normal(size=1))
    for t in (fresh, signed):
        mem.push(t)
    everything = mem.sample(len(mem), np.random.default_rng(0))
    for t in (last, fresh, signed):
        i = everything.reward.tolist().index(t.reward)
        assert everything.states[i].tobytes() == t.state.tobytes()
        assert everything.next_states[i].tobytes() == t.next_state.tobytes()
    assert fresh.next_state.tobytes() != signed.state.tobytes()


# --- exploration -------------------------------------------------------------------

def test_epsilon_schedule_endpoints():
    cfg = ag.AgentConfig()
    assert ag.epsilon_at(0, 1000, cfg) == pytest.approx(0.9)
    assert ag.epsilon_at(600, 1000, cfg) == pytest.approx(0.05)
    assert ag.epsilon_at(999, 1000, cfg) == pytest.approx(0.05)
    assert ag.epsilon_at(300, 1000, cfg) == pytest.approx((0.9 + 0.05) / 2.0)


def fixed_q_dqn(q: np.ndarray, epsilon: float) -> ag.DQNLearner:
    """A DQN learner whose Q heads output ``q`` [heads, actions] in every
    state and which explores at a constant ``epsilon``."""
    cfg = ag.AgentConfig(hidden=(2,), eps_start=epsilon, eps_end=epsilon)
    learner = ag.DQNLearner(3, q.shape[0], cfg, np.random.default_rng(0), episodes=10)
    for value in learner.q.values():
        value[...] = 0.0
    learner.q[f"b{learner.net_cfg.n_layers - 1}"][:] = q.ravel()
    return learner


def acting_state(active: int, heads: int) -> np.ndarray:
    """A state whose trailing active-count feature reads ``active``."""
    return np.array([0.0, 0.0, active / heads])


def test_dqn_act_greedy_takes_argmax():
    learner = fixed_q_dqn(np.array([[0.1, 0.2, 0.5, 0.1, 0.1]]), 0.0)
    assert learner.act(acting_state(1, 1), np.random.default_rng(0)) == (2,)


def test_dqn_act_tie_breaks_low():
    learner = fixed_q_dqn(np.array([[0.25, 0.25, 0.25, 0.25, 0.0]]), 0.0)
    assert learner.act(acting_state(1, 1), np.random.default_rng(0)) == (0,)


def test_dqn_act_full_random_is_uniform():
    rng = np.random.default_rng(0)
    learner = fixed_q_dqn(np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]), 1.0)
    counts = np.zeros(N_ACTIONS)
    draws = 10_000
    for _ in range(draws):
        counts[learner.act(acting_state(1, 1), rng)[0]] += 1
    np.testing.assert_allclose(counts / draws, 0.2, atol=0.02)


def test_select_action_sample_mode_follows_distribution():
    rng = np.random.default_rng(0)
    probs = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
    for _ in range(20):
        assert ag.select_action(probs, 1, rng) == (2,)


def loop_select_action(probs, active, rng):
    """Reference: one ``rng.choice`` per UAV, the draws ``select_action``
    must reproduce."""
    acts = []
    for u in range(active):
        p = np.asarray(probs[u], dtype=np.float64)
        acts.append(int(rng.choice(N_ACTIONS, p=p / p.sum())))
    return tuple(acts)


def loop_dqn_act(q, active, epsilon, rng):
    """Reference: per UAV, an exploration draw and then either a uniform
    action or the argmax, the draws ``DQNLearner.act`` must reproduce."""
    acts = []
    for u in range(active):
        if epsilon > 0.0 and rng.random() < epsilon:
            acts.append(int(rng.integers(N_ACTIONS)))
        else:
            acts.append(int(np.argmax(q[u])))
    return tuple(acts)


def random_probs(rng, heads: int, active: int) -> np.ndarray:
    """Softmax rows from peaked to flat, some with exact zeros or left
    unnormalised. Idle rows hold NaN, which must never be read."""
    z = rng.normal(scale=10.0 ** rng.uniform(-1, 1.5), size=(heads, N_ACTIONS))
    probs = nets.softmax(z)
    probs[rng.random(probs.shape) < 0.1] = 0.0
    probs[probs.sum(axis=1) == 0.0, 0] = 1.0
    probs *= rng.choice([1.0, rng.uniform(0.1, 10.0)])
    probs[active:] = np.nan
    return probs


def test_select_action_matches_the_per_uav_draws():
    cases = np.random.default_rng(100)
    for case in range(1200):
        heads = int(cases.integers(1, 8))
        active = int(cases.integers(0, heads + 1))
        probs = random_probs(cases, heads, active)
        mine, ref = np.random.default_rng(case), np.random.default_rng(case)
        got = ag.select_action(probs, active, mine)
        want = loop_select_action(probs, active, ref)
        assert got == want, (case, heads, active)
        assert all(type(a) is int for a in got)
        assert mine.bit_generator.state == ref.bit_generator.state, case


def test_dqn_act_matches_the_per_uav_draws():
    cases = np.random.default_rng(101)
    for case in range(1200):
        heads = int(cases.integers(1, 8))
        active = int(cases.integers(0, heads + 1))
        epsilon = (0.0, float(cases.uniform(0.05, 0.95)))[case % 2]
        # Q-values rounded to 0-2 decimals, so rows hold ties.
        q = np.round(cases.normal(size=(heads, N_ACTIONS)), int(cases.integers(0, 3)))
        q[active:] = np.nan
        learner = fixed_q_dqn(q, epsilon)
        mine, ref = np.random.default_rng(case), np.random.default_rng(case)
        got = learner.act(acting_state(active, heads), mine)
        want = loop_dqn_act(q, active, epsilon, ref)
        assert got == want, (case, heads, active, epsilon)
        assert all(type(a) is int for a in got)
        assert mine.bit_generator.state == ref.bit_generator.state, case


@pytest.mark.parametrize("active", [1, 3])
@pytest.mark.parametrize("bad", ["nan", "all_zero", "negative"])
def test_select_action_rejects_invalid_probabilities(bad, active):
    probs = np.full((4, N_ACTIONS), 0.2)
    probs[active - 1] = {
        "nan": [0.2, np.nan, 0.2, 0.2, 0.4],
        "all_zero": [0.0] * N_ACTIONS,
        "negative": [-0.1, 0.5, 0.3, 0.2, 0.1],
    }[bad]
    with np.errstate(invalid="ignore"):
        for sample in (ag.select_action, loop_select_action):
            with pytest.raises(ValueError):
                sample(probs, active, np.random.default_rng(0))


# The acting path as it was before it was trimmed for speed: the net on a
# (1, state_dim) batch with a temporary per layer, every head through the
# softmax, and numpy CDFs. ``act`` must keep its actions and its draws.

def reference_forward(params: dict, x: np.ndarray, cfg: nets.NetConfig) -> np.ndarray:
    h = np.atleast_2d(x)
    for i in range(cfg.n_layers):
        z = h @ params[f"W{i}"] + params[f"b{i}"]
        h = np.tanh(z) if i < cfg.n_layers - 1 else z
    return h


def reference_sampling_cdf(probs: np.ndarray) -> np.ndarray:
    p = probs / probs.sum(axis=1, keepdims=True)
    cdf = p.cumsum(axis=1)
    totals = cdf[:, -1:]
    if not ((p >= 0.0).all()
            and all(abs(t - 1.0) <= ag._P_SUM_ATOL for t in totals[:, 0].tolist())):
        raise ValueError("invalid probabilities")
    return cdf / totals


def reference_policy_act(learner, state, rng) -> tuple[int, ...]:
    params = learner.params
    raw = reference_forward(params.actor, np.atleast_2d(state), params.actor_cfg)
    probs = nets.softmax(raw.reshape(1, params.heads, N_ACTIONS))[0]
    active = int(round(float(state[-1]) * params.heads))
    cdf = reference_sampling_cdf(probs[:active])
    return tuple((cdf <= rng.random((active, 1))).sum(axis=1).tolist())


def reference_dqn_act(learner: ag.DQNLearner, state, rng) -> tuple[int, ...]:
    raw = reference_forward(learner.q, np.atleast_2d(state), learner.net_cfg)
    active = int(round(float(state[-1]) * learner.heads))
    picks = raw.reshape(learner.heads, N_ACTIONS)[:active].argmax(axis=1).tolist()
    if learner.epsilon <= 0.0:
        return tuple(picks)
    return tuple(int(rng.integers(N_ACTIONS)) if rng.random() < learner.epsilon else a
                 for a in picks)


@pytest.mark.parametrize("shape", [(279, 7, (64, 64)), (11, 3, (8,))])
def test_act_matches_the_reference_acting_path(shape):
    state_dim, heads, hidden = shape
    cases = np.random.default_rng(state_dim)
    cfg = ag.AgentConfig(hidden=hidden)
    learners = [ag.make_learner(name, state_dim, heads, cfg, np.random.default_rng(i), 10)
                for i, name in enumerate(("actor_critic", "ppo", "dqn"))]
    for learner in learners:
        # Sharpen the outputs, so rows run from flat to nearly one-hot.
        net = learner.q if isinstance(learner, ag.DQNLearner) else learner.params.actor
        net[f"W{len(hidden)}"] *= 12.0
    checked = 0
    for case in range(1000):
        active = case % heads + 1
        state = cases.random(state_dim) * (cases.random(state_dim) < 0.3)
        state[-1] = active / heads
        for learner in learners:
            reference = reference_policy_act
            if isinstance(learner, ag.DQNLearner):
                learner.epsilon = (0.0, float(cases.uniform(0.05, 0.95)))[case % 2]
                reference = reference_dqn_act
            mine, ref = np.random.default_rng(case), np.random.default_rng(case)
            got = learner.act(state, mine)
            assert got == reference(learner, state, ref), (case, type(learner).__name__)
            assert all(type(a) is int for a in got)
            assert mine.bit_generator.state == ref.bit_generator.state, case
            checked += 1
    assert checked == 3000


class BoundaryDraws:
    """Stands in for a generator whose uniforms are given in advance."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, n):
        drawn, self.uniforms = self.uniforms[:n], self.uniforms[n:]
        return np.array(drawn)


def test_select_action_inverts_exactly_at_the_cdf_boundaries():
    # Uniforms on, just below and just above each entry of the reference
    # CDF: a CDF one ulp off its numpy value picks a different action.
    cases = np.random.default_rng(103)
    for case in range(1500):
        heads = int(cases.integers(1, 8))
        probs = random_probs(cases, heads, heads)
        cdf = reference_sampling_cdf(probs)
        for k in range(N_ACTIONS):
            for u in (cdf[:, k], np.nextafter(cdf[:, k], 0.0), np.nextafter(cdf[:, k], 2.0)):
                want = tuple((cdf <= u[:, None]).sum(axis=1).tolist())
                assert ag.select_action(probs, heads, BoundaryDraws(u)) == want, (case, k)


# --- returns -----------------------------------------------------------------------

def test_discounted_returns_hand_case():
    np.testing.assert_allclose(ag.discounted_returns([1.0, 1.0, 1.0], 0.5), [1.75, 1.5, 1.0])


def test_discounted_returns_gamma_zero_is_identity():
    rewards = [3.0, -1.0, 2.0]
    np.testing.assert_allclose(ag.discounted_returns(rewards, 1e-12), rewards, atol=1e-9)


def test_discounted_returns_match_the_numpy_loop():
    def numpy_loop(rewards, gamma):
        rewards = np.asarray(rewards, dtype=np.float64)
        out = np.zeros_like(rewards)
        acc = np.zeros(rewards.shape[1:])
        for t in reversed(range(len(rewards))):
            acc = rewards[t] + gamma * acc
            out[t] = acc
        return out

    rng = np.random.default_rng(3)
    for shape in [(40,), (40, 7), (1, 3), (0,), (0, 2)]:
        rewards = rng.normal(scale=3.0, size=shape) * (rng.random(shape) < 0.7)
        for gamma in (0.85, 1.0, 0.3):
            got = ag.discounted_returns(rewards, gamma)
            want = numpy_loop(rewards, gamma)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (shape, gamma)
    as_list = rng.normal(size=40).tolist()
    assert ag.discounted_returns(as_list, 0.85).tobytes() == numpy_loop(as_list, 0.85).tobytes()


# --- actor-critic gradients -----------------------------------------------------------
#
# The objective ActorCriticLearner trains: per-UAV rewards, a critic with one
# output per UAV slot, a one-step TD advantage per head and an entropy bonus.

def test_accumulate_twice_doubles():
    params = tiny_params(state_dim=4, heads=2)
    episode = random_batch(params, 5, seed=3)
    once, twice = zero_grads(params), zero_grads(params)
    ag.actor_critic_accumulate(params, episode, 0.85, once)
    for _ in range(2):
        ag.actor_critic_accumulate(params, episode, 0.85, twice)
    for k in once.d_actor:
        np.testing.assert_allclose(twice.d_actor[k], 2.0 * once.d_actor[k], rtol=1e-12)
    for k in once.d_critic:
        np.testing.assert_allclose(twice.d_critic[k], 2.0 * once.d_critic[k], rtol=1e-12)


def test_empty_episode_rejected():
    params = tiny_params()
    with pytest.raises(ValueError):
        ag.actor_critic_accumulate(params, [], 0.85, zero_grads(params))


def _values(critic: dict, state: np.ndarray, params: ag.PolicyParams) -> np.ndarray:
    out, _ = nets.forward(critic, state, params.critic_cfg)
    return out[0]


def _bootstrap(tr: ag.Transition, u: int, params: ag.PolicyParams, gamma: float) -> float:
    """gamma * V_u(s') from the critic, or 0 past the end or for a
    slot that is idle in s'."""
    if tr.done or u >= round(tr.next_state[-1] * params.heads):
        return 0.0
    return gamma * _values(params.critic, tr.next_state, params)[u]


def _entropy(p: np.ndarray) -> float:
    return -float(np.sum(p * np.log(p)))


def test_per_head_td_actor_gradient_matches_finite_differences():
    params = tiny_params(state_dim=4, heads=3, seed=40)
    episode = random_batch(params, 4, seed=41)
    gamma = 0.85
    acc = zero_grads(params)
    ag.actor_critic_accumulate(params, episode, gamma, acc)
    states = np.stack([t.state for t in episode])

    def actor_objective(actor):
        _, probs, _ = ag.policy_forward(actor, states, params.actor_cfg, params.heads)
        total = 0.0
        for t, tr in enumerate(episode):
            v = _values(params.critic, tr.state, params)
            for u, a in enumerate(tr.action):
                delta = tr.uav_rewards[u] + _bootstrap(tr, u, params, gamma) - v[u]
                total += delta * np.log(probs[t, u, a]) + ag.ENTROPY_WEIGHT * _entropy(probs[t, u])
        return float(total)

    assert_grad_close(acc.d_actor, params.actor, params.actor_cfg, actor_objective)


def test_entropy_gradient_matches_finite_differences():
    params = tiny_params(state_dim=4, heads=3, seed=42)
    nets.add_scaled(params.critic, params.critic, -1.0)  # V == 0: no advantage term
    episode = [ag.Transition(t.state, t.action, 0.0, t.next_state, t.done, 0.0 * t.uav_rewards)
               for t in random_batch(params, 4, seed=43)]
    acc = zero_grads(params)
    ag.actor_critic_accumulate(params, episode, 0.85, acc)
    states = np.stack([t.state for t in episode])

    def entropy_objective(actor):
        _, probs, _ = ag.policy_forward(actor, states, params.actor_cfg, params.heads)
        total = 0.0
        for t, tr in enumerate(episode):
            for u in range(len(tr.action)):
                total += ag.ENTROPY_WEIGHT * _entropy(probs[t, u])
        return total

    assert_grad_close(acc.d_actor, params.actor, params.actor_cfg, entropy_objective)


@pytest.mark.parametrize("heads", [3, 1])
def test_per_slot_critic_gradient_matches_finite_differences(heads):
    params = tiny_params(state_dim=4, heads=heads, seed=44)
    episode = random_batch(params, 4, seed=45)
    gamma = 0.85
    acc = zero_grads(params)
    ag.actor_critic_accumulate(params, episode, gamma, acc)
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

    assert_grad_close(acc.d_critic, params.critic, params.critic_cfg, critic_loss)


@pytest.mark.parametrize("heads", [3, 1])
def test_per_slot_replay_td_gradient_matches_finite_differences(heads):
    params = tiny_params(state_dim=4, heads=heads, seed=46)
    batch = random_batch(params, 5, seed=47)
    gamma = 0.85
    acc = zero_grads(params)
    ag.critic_td_accumulate(params, ag.as_batch(batch, params.heads), gamma, acc)

    def td_loss(critic):
        total = 0.0
        for tr in batch:
            v = _values(critic, tr.state, params)
            for u in range(len(tr.action)):
                target = tr.uav_rewards[u] + _bootstrap(tr, u, params, gamma)
                total += (target - v[u]) ** 2
        return float(total)

    assert_grad_close(acc.d_critic, params.critic, params.critic_cfg, td_loss)


def test_adam_first_step_moves_by_the_step_size_along_the_sign():
    params = tiny_params(seed=48)
    before = flatten_params(params.actor, params.actor_cfg).copy()
    grad = np.random.default_rng(49).normal(size=before.size)
    for sign in (+1.0, -1.0):
        opt = ag.Adam(params.actor_cfg, 1e-3, sign)
        opt.flat_grad[:] = grad
        start = flatten_params(params.actor, params.actor_cfg)
        opt.step(params.actor)
        moved = flatten_params(params.actor, params.actor_cfg) - start
        np.testing.assert_allclose(moved, sign * 1e-3 * np.sign(grad), rtol=1e-6)
        np.testing.assert_array_equal(opt.flat_grad, 0.0)  # cleared for the next episode
    np.testing.assert_allclose(flatten_params(params.actor, params.actor_cfg), before,
                               atol=1e-15)


def test_replacing_learner_params_restarts_adam():
    env = small_env()
    task = env.nominal_task()
    cfg = ag.AgentConfig(hidden=(4,))
    init = tiny_params(env.state_dim, env.cfg.max_swarm, hidden=(4,), seed=50)
    reused = ag.ActorCriticLearner(init.clone(), cfg)
    ag.run_training_episode(env, task, reused, np.random.default_rng(51))
    reused.params = init.clone()
    ag.run_training_episode(env, task, reused, np.random.default_rng(52))
    fresh = ag.ActorCriticLearner(init.clone(), cfg)
    ag.run_training_episode(env, task, fresh, np.random.default_rng(52))
    np.testing.assert_array_equal(
        flatten_params(reused.params.actor, init.actor_cfg),
        flatten_params(fresh.params.actor, init.actor_cfg),
    )


# --- DQN --------------------------------------------------------------------------

def test_dqn_gamma_zero_reduces_target_to_reward():
    params = tiny_params(seed=12)
    batch = random_batch(params, 4, seed=13)
    cfg = params.actor_cfg
    loss, _ = ag.dqn_loss_and_grad(params.actor, params.actor, ag.as_batch(batch, params.heads),
                                   0.0, cfg, params.heads)
    raw, _ = nets.forward(params.actor, np.stack([t.state for t in batch]), cfg)
    q = raw.reshape(len(batch), params.heads, N_ACTIONS)
    expected = sum(
        (q[t, u, a] - tr.reward) ** 2
        for t, tr in enumerate(batch) for u, a in enumerate(tr.action)
    )
    assert loss == pytest.approx(float(expected), rel=1e-12)


def test_dqn_zero_td_error_means_no_change():
    params = tiny_params(seed=14)
    zero_net = zeros_like_params(params.actor)
    batch = [ag.Transition(t.state, t.action, 0.0, t.next_state, t.done, 0.0 * t.uav_rewards)
             for t in random_batch(params, 4, seed=15)]
    loss = ag.dqn_update(zero_net, zeros_like_params(params.actor),
                         ag.as_batch(batch, params.heads), 0.9, 0.1, params.actor_cfg, params.heads)
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


def assert_bits_equal(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def test_dqn_matches_the_per_pair_loop():
    for case in range(200):
        params = tiny_params(state_dim=5, heads=1 + case % 7, hidden=(6,), seed=case)
        target = tiny_params(state_dim=5, heads=1 + case % 7, hidden=(6,), seed=case + 1)
        batch = random_batch(params, 1 + case % 17, seed=case)
        gamma = float(np.random.default_rng(case).uniform(0.0, 1.0))
        args = (params.actor, target.actor, gamma, params.actor_cfg, params.heads)
        loss, grads = ag.dqn_loss_and_grad(*args[:2], ag.as_batch(batch, params.heads), *args[2:])
        ref_loss, ref_grads = loop_dqn_loss_and_grad(*args[:2], batch, *args[2:])
        assert_bits_equal(loss, ref_loss)
        for key in ref_grads:
            assert_bits_equal(grads[key], ref_grads[key])


def test_dqn_gradient_matches_finite_differences():
    params = tiny_params(seed=16)
    target = tiny_params(seed=17)
    batch = ag.as_batch(random_batch(params, 3, seed=18), params.heads)
    cfg = params.actor_cfg
    _, grads = ag.dqn_loss_and_grad(params.actor, target.actor, batch, 0.85, cfg, params.heads)

    def loss_fn(q_net):
        loss, _ = ag.dqn_loss_and_grad(q_net, target.actor, batch, 0.85, cfg, params.heads)
        return loss

    assert_grad_close(grads, params.actor, cfg, loss_fn)


# --- PPO --------------------------------------------------------------------------

def ppo_arrays(batch: list[ag.Transition], heads: int) -> tuple[np.ndarray, ...]:
    """The arrays ``ppo_update`` builds once per update and passes to every
    ``ppo_surrogate_and_grad`` call: states, actions, acting mask, one-hot."""
    states = np.stack([t.state for t in batch])
    acts, acting = ag.action_arrays([t.action for t in batch], heads)
    return states, acts, acting, np.eye(N_ACTIONS)[acts]


def old_logp(actor: dict, batch: list[ag.Transition], params: ag.PolicyParams) -> np.ndarray:
    """The pre-update joint log-probabilities that ``ppo_surrogate_and_grad`` takes."""
    states, acts, acting, _ = ppo_arrays(batch, params.heads)
    _, probs, _ = ag.policy_forward(actor, states, params.actor_cfg, params.heads)
    return ag.joint_log_prob(probs, acts, acting)


def test_ppo_wide_clip_equals_plain_surrogate():
    params = tiny_params(seed=19)
    batch = random_batch(params, 4, seed=20)
    adv = np.random.default_rng(21).normal(size=len(batch))
    # ratio == 1 everywhere (actor is its own old policy), inside any window
    logp_old = old_logp(params.actor, batch, params)
    arrays = ppo_arrays(batch, params.heads)
    _, g_narrow = ag.ppo_surrogate_and_grad(
        params.actor, logp_old, *arrays, adv, 0.2, params.actor_cfg)
    _, g_wide = ag.ppo_surrogate_and_grad(
        params.actor, logp_old, *arrays, adv, 1e9, params.actor_cfg)
    for k in g_narrow:
        np.testing.assert_allclose(g_narrow[k], g_wide[k], rtol=1e-12)


def test_ppo_zero_clip_kills_actor_gradient():
    params = tiny_params(seed=22)
    batch = random_batch(params, 4, seed=23)
    adv = np.random.default_rng(24).normal(size=len(batch))
    _, grads = ag.ppo_surrogate_and_grad(
        params.actor, old_logp(params.actor, batch, params), *ppo_arrays(batch, params.heads),
        adv, 0.0, params.actor_cfg)
    for g in grads.values():
        np.testing.assert_array_equal(g, 0.0)


def test_ppo_update_zero_clip_freezes_actor():
    cfg = ag.AgentConfig(hidden=(2,), ppo_clip=0.0)
    params = ag.make_policy_params(3, 1, cfg, np.random.default_rng(25), critic_outputs=1)
    rollout = random_batch(params, 5, seed=26)
    before = flatten_params(params.actor, params.actor_cfg).copy()
    critic_before = flatten_params(params.critic, params.critic_cfg).copy()
    ag.ppo_update(params, rollout, 0.0, 3, 0.85, 0.01)
    np.testing.assert_array_equal(flatten_params(params.actor, params.actor_cfg), before)
    assert not np.array_equal(
        flatten_params(params.critic, params.critic_cfg), critic_before
    )  # the value fit still runs


def test_ppo_update_takes_the_pre_update_policy_once(monkeypatch):
    real_forward = nets.forward
    calls = []

    def counting_forward(*args):
        calls.append(args[2])
        return real_forward(*args)

    monkeypatch.setattr(nets, "forward", counting_forward)
    for epochs in (1, 2, 4):
        params = tiny_params(seed=25)
        rollout = random_batch(params, 5, seed=26)
        calls.clear()
        ag.ppo_update(params, rollout, 0.2, epochs, 0.85, 0.01)
        # Pre-update values and log-probabilities once, then one actor and
        # one critic pass per epoch.
        assert len(calls) == 2 + 2 * epochs
        assert calls.count(params.actor_cfg) == 1 + epochs


def test_ppo_surrogate_gradient_matches_finite_differences():
    params = tiny_params(seed=27)
    old = tiny_params(seed=28)
    batch = random_batch(params, 3, seed=29)
    adv = np.random.default_rng(30).normal(size=len(batch))
    clip = 0.2
    logp_old = old_logp(old.actor, batch, params)
    arrays = ppo_arrays(batch, params.heads)
    _, grads = ag.ppo_surrogate_and_grad(
        params.actor, logp_old, *arrays, adv, clip, params.actor_cfg)

    def objective(actor):
        obj, _ = ag.ppo_surrogate_and_grad(actor, logp_old, *arrays, adv, clip, params.actor_cfg)
        return obj

    assert_grad_close(grads, params.actor, params.actor_cfg, objective)


def test_joint_log_prob_hand_case():
    probs = np.array([[[0.5, 0.2, 0.1, 0.1, 0.1],
                       [0.25, 0.25, 0.25, 0.25, 0.0]]])
    lp = ag.joint_log_prob(probs, *ag.action_arrays([(0, 1)], 2))
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
        assert_bits_equal(ag.joint_log_prob(probs, *ag.action_arrays(actions, heads)),
                          loop_joint_log_prob(probs, actions))


def test_ppo_surrogate_matches_the_per_pair_loop():
    for case in range(200):
        heads = 1 + case % 7
        params = tiny_params(state_dim=5, heads=heads, hidden=(6,), seed=case)
        old = tiny_params(state_dim=5, heads=heads, hidden=(6,), seed=case + 1)
        batch = random_batch(params, 1 + case % 17, seed=case)
        rng = np.random.default_rng(case)
        adv = rng.normal(size=len(batch))
        clip = float(rng.choice([0.0, 0.2, 1e9]))
        obj, grads = ag.ppo_surrogate_and_grad(
            params.actor, old_logp(old.actor, batch, params), *ppo_arrays(batch, heads),
            adv, clip, params.actor_cfg)
        ref_obj, ref_grads = loop_ppo_surrogate_and_grad(
            params.actor, old.actor, batch, adv, clip, params.actor_cfg, heads)
        assert_bits_equal(obj, ref_obj)
        for key in ref_grads:
            assert_bits_equal(grads[key], ref_grads[key])


# --- meta loop -----------------------------------------------------------------------

def _meta_params(seed=31) -> ag.PolicyParams:
    return tiny_params(state_dim=40, heads=3, seed=seed)


def test_meta_adapt_requires_inner_episodes():
    # meta_adapt reads its episode count from the validated AgentConfig.
    with pytest.raises(ValueError, match="meta_inner_episodes must be at least 1"):
        ag.AgentConfig(meta_inner_episodes=0)


def test_meta_adapt_never_touches_meta_params():
    env = small_env()
    cfg = ag.AgentConfig(hidden=(4,), minibatch=4, meta_inner_episodes=2)
    meta = tiny_params(env.state_dim, env.cfg.max_swarm, hidden=(4,), seed=1)
    before = flatten_params(meta.actor, meta.actor_cfg).copy()
    adapted = ag.meta_adapt(meta, env, env.nominal_task(), np.random.default_rng(2), cfg)
    np.testing.assert_array_equal(flatten_params(meta.actor, meta.actor_cfg), before)
    assert not np.array_equal(
        flatten_params(adapted.actor, adapted.actor_cfg), before
    )  # the clone moved


def test_meta_adapt_deterministic():
    env = small_env()
    cfg = ag.AgentConfig(hidden=(4,), minibatch=4, meta_inner_episodes=2)
    meta = tiny_params(env.state_dim, env.cfg.max_swarm, hidden=(4,), seed=3)
    task = env.nominal_task()
    a = ag.meta_adapt(meta, env, task, np.random.default_rng(9), cfg)
    b = ag.meta_adapt(meta, env, task, np.random.default_rng(9), cfg)
    np.testing.assert_array_equal(
        flatten_params(a.actor, a.actor_cfg), flatten_params(b.actor, b.actor_cfg)
    )


def test_meta_outer_fixed_point():
    meta = _meta_params()
    before = flatten_params(meta.actor, meta.actor_cfg).copy()
    ag.meta_outer_update(meta, [meta.clone(), meta.clone()], 0.5)
    np.testing.assert_allclose(flatten_params(meta.actor, meta.actor_cfg), before, rtol=1e-15)


def test_meta_outer_full_step_adopts_single_task():
    meta = _meta_params()
    adapted = meta.clone()
    adapted.actor["b0"][:] += 3.0
    ag.meta_outer_update(meta, [adapted], 1.0)
    np.testing.assert_allclose(meta.actor["b0"], adapted.actor["b0"], rtol=1e-15)


def test_meta_outer_opposite_deltas_cancel():
    meta = _meta_params()
    before = flatten_params(meta.actor, meta.actor_cfg).copy()
    up, down = meta.clone(), meta.clone()
    up.actor["b0"][:] += 1.5
    down.actor["b0"][:] -= 1.5
    ag.meta_outer_update(meta, [up, down], 0.5)
    np.testing.assert_allclose(flatten_params(meta.actor, meta.actor_cfg), before, atol=1e-12)


def test_meta_outer_requires_adapted_sets():
    with pytest.raises(ValueError):
        ag.meta_outer_update(_meta_params(), [], 0.5)


# --- learner plumbing ---------------------------------------------------------------

def test_policy_params_clone_is_independent():
    params = tiny_params()
    twin = params.clone()
    twin.actor["b0"][0] += 1.0
    assert params.actor["b0"][0] != twin.actor["b0"][0]


def test_forward_distributions_normalised():
    params = tiny_params(state_dim=6, heads=3)
    probs, value = ag.forward(params, np.random.default_rng(0).normal(size=6))
    assert probs.shape == (3, N_ACTIONS)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    assert np.isfinite(value)


def test_make_learner_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ag.make_learner("sarsa", 10, 2, ag.AgentConfig(), np.random.default_rng(0), 10)


def test_random_policy_ignores_learning():
    env = small_env()
    learner = ag.RandomPolicy(heads=env.cfg.max_swarm)
    stats = ag.run_training_episode(env, env.nominal_task(), learner, np.random.default_rng(4))
    assert stats["steps"] == 6
    assert stats["swarm_size"] == 2


def test_training_episode_updates_actor_critic():
    env = small_env()
    cfg = ag.AgentConfig(hidden=(4,), minibatch=4)
    params = tiny_params(env.state_dim, env.cfg.max_swarm, hidden=(4,), seed=5)
    learner = ag.ActorCriticLearner(params, cfg)
    before = flatten_params(params.actor, params.actor_cfg).copy()
    ag.run_training_episode(env, env.nominal_task(), learner, np.random.default_rng(6))
    assert not np.array_equal(
        flatten_params(learner.params.actor, params.actor_cfg), before
    )
