"""Learners for the coverage MDP: actor-critic, DQN, PPO, and a first-order
meta-initialization loop on top of the actor-critic.

The actor-critic keeps stale parameter copies that are refreshed at the
start of every episode; gradients are accumulated against the stale
copies over the whole episode and applied in one Adam step afterwards
(ascent for the actor, descent for the critic). Credit is per UAV: the
critic has one value output per UAV slot, regressed on that UAV's own
discounted return, and each active policy head is pushed by its own
one-step TD advantage r_i + gamma * V_i(s') - V_i(s) plus an entropy
bonus. The critic additionally takes a one-step temporal-difference
term from a replay minibatch each episode. The meta loop adapts a clone
of the meta parameters on a sampled task for a fixed number of episodes
and then moves the meta parameters a fraction of the way toward the
mean adapted weights.

All updates are plain in-place numpy arithmetic, single threaded, and
deterministic given the generators passed in. The hot paths hold no
per-UAV or per-(step, UAV) Python loop: action sampling inverts one
uniform per UAV through row-wise CDFs, and the gradients index one-hot
actions under an acting-head mask (``_action_arrays``). Both reproduce
the per-UAV ``rng.choice`` draws and the per-(step, UAV) arithmetic bit
for bit; the tests keep those loops as references. Acting runs the
actor alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import nets
from .env import N_ACTIONS


#: Adam step of the actor-critic and of the meta inner loop.
AC_LEARNING_RATE = 1e-3
#: Weight of each active head's policy entropy in the actor-critic objective.
#: The working band is narrow: on seed 0 of the strategic-visit acceptance
#: test, 0.05 collapses to hovering (visit ratio 1.07) and 0.15 keeps too
#: much randomness (1.65), against 2.28 at 0.1.
ENTROPY_WEIGHT = 0.1


@dataclass(frozen=True)
class AgentConfig:
    gamma: float = 0.85
    learning_rate: float = 1e-4  # SGD step of DQN and PPO; see AC_LEARNING_RATE
    hidden: tuple[int, ...] = (64, 64)
    init_scale: float = 1.0
    replay_capacity: int = 10_000
    minibatch: int = 64
    target_refresh: int = 100
    dqn_update_interval: int = 4
    ppo_clip: float = 0.2
    ppo_epochs: int = 4
    meta_outer_lr: float = 0.5
    meta_inner_episodes: int = 10
    meta_tasks_per_update: int = 5
    meta_fraction: float = 0.5
    eps_start: float = 0.9
    eps_end: float = 0.05
    eps_decay_frac: float = 0.6
    policy_epsilon: float = 0.0
    action_mode: str = "auto"  # auto | sample | greedy

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("discount must lie in (0, 1]")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.replay_capacity < 1 or self.minibatch < 1:
            raise ValueError("replay capacity and minibatch must be positive")
        if not 0.0 <= self.ppo_clip < 1.0:
            raise ValueError("clip range must lie in [0, 1)")
        if self.action_mode not in ("auto", "sample", "greedy"):
            raise ValueError(f"unknown action mode {self.action_mode!r}")
        if not 0.0 <= self.meta_fraction < 1.0:
            raise ValueError("meta fraction must lie in [0, 1)")


@dataclass
class Transition:
    state: np.ndarray
    action: tuple[int, ...]
    reward: float
    next_state: np.ndarray
    done: bool = False
    #: One reward per acting UAV (summing to ``reward``), or None.
    uav_rewards: np.ndarray | None = None


class ReplayMemory:
    """FIFO transition store with uniform minibatch sampling."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.buffer: deque[Transition] = deque(maxlen=capacity)

    def push(self, transition: Transition) -> None:
        self.buffer.append(transition)

    def sample(self, n: int, rng: np.random.Generator) -> list[Transition]:
        if n > len(self.buffer):
            raise ValueError("cannot sample more transitions than stored")
        picks = rng.choice(len(self.buffer), size=n, replace=False)
        return [self.buffer[int(i)] for i in picks]

    def __len__(self) -> int:
        return len(self.buffer)


@dataclass
class PolicyParams:
    """Actor and critic weights plus the stale copies updates are computed on."""

    actor: dict
    critic: dict
    actor_cfg: nets.NetConfig
    critic_cfg: nets.NetConfig
    heads: int
    actor_stale: dict = field(default=None)
    critic_stale: dict = field(default=None)

    def __post_init__(self) -> None:
        if self.actor_stale is None:
            self.actor_stale = nets.clone_params(self.actor)
        if self.critic_stale is None:
            self.critic_stale = nets.clone_params(self.critic)

    def refresh_stale(self) -> None:
        self.actor_stale = nets.clone_params(self.actor)
        self.critic_stale = nets.clone_params(self.critic)

    def clone(self) -> "PolicyParams":
        return PolicyParams(
            nets.clone_params(self.actor),
            nets.clone_params(self.critic),
            self.actor_cfg,
            self.critic_cfg,
            self.heads,
            nets.clone_params(self.actor_stale),
            nets.clone_params(self.critic_stale),
        )


@dataclass
class GradAccumulator:
    d_actor: dict
    d_critic: dict

    @classmethod
    def zeros(cls, params: PolicyParams) -> "GradAccumulator":
        return cls(nets.zeros_like_params(params.actor), nets.zeros_like_params(params.critic))


@dataclass
class MetaState:
    """Meta parameters plus the inner/outer loop settings."""

    params: PolicyParams
    inner_episodes: int = 10
    inner_lr: float = AC_LEARNING_RATE
    outer_lr: float = 0.5


def make_policy_params(
    state_dim: int,
    heads: int,
    cfg: AgentConfig,
    rng: np.random.Generator,
    critic_outputs: int = 1,
) -> PolicyParams:
    """Fresh actor and critic; the critic has one output per value column
    (1 for a team value, ``heads`` for one value per UAV slot)."""
    actor_cfg = nets.NetConfig(state_dim, cfg.hidden, heads * N_ACTIONS)
    critic_cfg = nets.NetConfig(state_dim, cfg.hidden, critic_outputs)
    return PolicyParams(
        nets.init_params(actor_cfg, rng, cfg.init_scale),
        nets.init_params(critic_cfg, rng, cfg.init_scale),
        actor_cfg,
        critic_cfg,
        heads,
    )


def policy_forward(
    actor: dict, states: np.ndarray, cfg: nets.NetConfig, heads: int
) -> tuple[np.ndarray, np.ndarray, list]:
    """(logits[B, heads, A], probs[B, heads, A], cache)."""
    raw, cache = nets.forward(actor, states, cfg)
    logits = raw.reshape(raw.shape[0], heads, N_ACTIONS)
    return logits, nets.softmax(logits), cache

def value_forward(critic: dict, states: np.ndarray, cfg: nets.NetConfig) -> tuple[np.ndarray, list]:
    """First value output per state: the team value of a one-output critic,
    UAV slot 0's value of a per-slot one."""
    raw, cache = nets.forward(critic, states, cfg)
    return raw[:, 0], cache


def forward(params: PolicyParams, state: np.ndarray, stale: bool = False) -> tuple[np.ndarray, float]:
    """Per-UAV action distributions and the first value output (see
    :func:`value_forward`) for one state."""
    actor = params.actor_stale if stale else params.actor
    critic = params.critic_stale if stale else params.critic
    _, probs, _ = policy_forward(actor, np.atleast_2d(state), params.actor_cfg, params.heads)
    values, _ = value_forward(critic, np.atleast_2d(state), params.critic_cfg)
    return probs[0], float(values[0])


# --- action selection --------------------------------------------------------

def epsilon_at(episode: int, total_episodes: int, cfg: AgentConfig) -> float:
    """Linear decay from eps_start to eps_end over the first
    ``eps_decay_frac`` share of the run, flat afterwards."""
    horizon = max(1, int(total_episodes * cfg.eps_decay_frac))
    if episode >= horizon:
        return cfg.eps_end
    frac = episode / horizon
    return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * frac


def select_action(
    scores: np.ndarray,
    active: int,
    epsilon: float,
    rng: np.random.Generator,
    mode: str = "greedy",
) -> tuple[int, ...]:
    """Pick one action id per active UAV from per-UAV scores.

    ``scores`` is (heads, actions): probabilities in sample mode,
    arbitrary preferences (e.g. Q-values) in greedy mode. With
    probability ``epsilon`` a UAV acts uniformly at random instead.
    Greedy ties resolve to the lowest action index.

    Draws are those of a per-UAV ``rng.choice(N_ACTIONS, p=row / row.sum())``:
    one uniform per sampled UAV, inverted through the row's normalised CDF
    as ``searchsorted(side="right")`` would, so the stream and the actions
    are the same. With ``epsilon > 0`` the exploration draws interleave
    with the action draws, so the UAVs are drawn one at a time. A sampled
    row that is NaN, negative or sums to zero raises ``ValueError``.
    """
    if mode == "greedy":
        picks = np.asarray(scores)[:active].argmax(axis=1)
        if epsilon <= 0.0:
            return tuple(picks.tolist())
    else:
        cdf = _sampling_cdf(np.asarray(scores, dtype=np.float64)[:active])
        if epsilon <= 0.0:
            return tuple((cdf <= rng.random((active, 1))).sum(axis=1).tolist())
    acts = []
    for u in range(active):
        if rng.random() < epsilon:
            acts.append(int(rng.integers(N_ACTIONS)))
        elif mode == "greedy":
            acts.append(int(picks[u]))
        else:
            acts.append(int(np.count_nonzero(cdf[u] <= rng.random())))
    return tuple(acts)


#: The tolerance on a probability row's sum that ``Generator.choice`` allows.
_P_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _sampling_cdf(probs: np.ndarray) -> np.ndarray:
    """Row-wise CDFs of [rows, actions] unnormalised probabilities, built
    as ``Generator.choice`` builds its CDF from ``p = row / row.sum()``,
    and rejected where ``choice`` would reject ``p``."""
    p = probs / probs.sum(axis=1, keepdims=True)
    cdf = p.cumsum(axis=1)
    totals = cdf[:, -1:]
    # A handful of rows: the sum check is cheaper on Python floats.
    if not ((p >= 0.0).all()
            and all(abs(t - 1.0) <= _P_SUM_ATOL for t in totals[:, 0].tolist())):
        raise ValueError("action probabilities must be non-negative with a positive finite sum")
    return cdf / totals


def discounted_returns(rewards: Sequence[float] | np.ndarray, gamma: float) -> np.ndarray:
    """Reward-to-go of each step of one episode (along the first axis, so
    a [steps, columns] array gives one return per column)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.zeros_like(rewards)
    acc = np.zeros(rewards.shape[1:])
    for t in reversed(range(len(rewards))):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


# --- actor-critic -------------------------------------------------------------

@dataclass
class _Batch:
    """A list of transitions as arrays.

    Reward columns: one team column when the transitions carry scalar
    rewards only, else one column per UAV slot (zero for idle slots).
    ``cols`` masks the columns a value loss counts and ``boot`` the
    bootstrap values V(s') a TD target may use: none after a terminal
    step, and per UAV none for a slot idle in s' (read from the state's
    trailing active-count feature).
    """

    states: np.ndarray      # [B, state_dim]
    next_states: np.ndarray  # [B, state_dim]
    onehot: np.ndarray      # [B, heads, N_ACTIONS] taken actions
    active: np.ndarray      # [B, heads] 1.0 for heads that acted
    rewards: np.ndarray     # [B, columns]
    cols: np.ndarray        # [B, columns]
    boot: np.ndarray        # [B, columns]


def _action_arrays(actions: Sequence[tuple[int, ...]], heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint actions as ``(acts[B, heads], acting[B, heads])``: action ids
    in the head slots that acted (a prefix of the slots), 0 elsewhere."""
    acting = np.arange(heads) < np.array([len(a) for a in actions])[:, None]
    acts = np.zeros(acting.shape, dtype=np.int64)
    acts[acting] = [a for joint in actions for a in joint]  # row-major fill
    return acts, acting


def _as_batch(batch: Sequence[Transition], heads: int) -> _Batch:
    n = len(batch)
    acts, acting = _action_arrays([t.action for t in batch], heads)
    active = acting.astype(np.float64)
    live = np.array([0.0 if t.done else 1.0 for t in batch])[:, None]
    states = np.stack([t.state for t in batch])
    next_states = np.stack([t.next_state for t in batch])
    per_uav = [t.uav_rewards is not None for t in batch]
    if not any(per_uav):
        rewards = np.array([[t.reward] for t in batch])
        cols, boot = np.ones((n, 1)), live
    elif all(per_uav):
        rewards = np.zeros((n, heads))
        rewards[acting] = np.concatenate([t.uav_rewards for t in batch])
        next_active = np.arange(heads) < np.rint(next_states[:, -1] * heads)[:, None]
        cols, boot = active, live * next_active
    else:
        raise ValueError("transitions mix scalar and per-UAV rewards")
    return _Batch(states, next_states, np.eye(N_ACTIONS)[acts], active, rewards, cols, boot)


def _value_grad(err: np.ndarray, outputs: int) -> np.ndarray:
    """d/dV of sum(err ** 2) with err = target - V, folded onto the critic's
    outputs (a one-output critic serves every column)."""
    dvals = -2.0 * err
    return dvals if dvals.shape[1] == outputs else dvals.sum(axis=1, keepdims=True)


def actor_critic_accumulate(
    params: PolicyParams,
    episode: Sequence[Transition],
    gamma: float,
    acc: GradAccumulator | None = None,
    td: bool = False,
    entropy: float = 0.0,
) -> GradAccumulator:
    """Episode gradients against the stale copies.

    Actor: ascent direction of
      sum_t sum_i [log pi_i(a_ti | s_t) * A_ti + entropy * H(pi_i(. | s_t))]
    over the heads i that acted at step t. Critic: descent direction of
    sum_t sum_c (R_tc - V_c(s_t))^2 over the reward columns c, with R the
    discounted reward-to-go. With scalar rewards there is one team
    column and A_ti = R_t - V(s_t) for every head; with per-UAV rewards
    head i and value output i use UAV i's own rewards. ``td`` swaps the
    Monte-Carlo advantage for the one-step TD error
    r_ti + gamma * V_i(s'_t) - V_i(s_t). Advantages use the stale critic.
    Passing an existing accumulator adds to it instead of starting from
    zero.
    """
    if not episode:
        raise ValueError("cannot accumulate over an empty episode")
    acc = acc if acc is not None else GradAccumulator.zeros(params)
    b = _as_batch(episode, params.heads)
    logits, probs, a_cache = policy_forward(
        params.actor_stale, b.states, params.actor_cfg, params.heads
    )
    values, v_cache = nets.forward(params.critic_stale, b.states, params.critic_cfg)
    returns = discounted_returns(b.rewards, gamma)
    if td:
        next_values, _ = nets.forward(params.critic_stale, b.next_states, params.critic_cfg)
        adv = b.rewards + gamma * b.boot * next_values - values
    else:
        adv = returns - values

    mask = b.active[:, :, None]
    dlogits = adv[:, :, None] * (b.onehot - probs) * mask
    if entropy:
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        ent = -(probs * logp).sum(axis=-1, keepdims=True)
        dlogits -= entropy * probs * (logp + ent) * mask  # dH/dz = -p (log p + H)
    d_actor = nets.backward(
        params.actor_stale, a_cache, dlogits.reshape(len(episode), -1), params.actor_cfg
    )
    dvals = _value_grad((returns - values) * b.cols, params.critic_cfg.out_dim)
    d_critic = nets.backward(params.critic_stale, v_cache, dvals, params.critic_cfg)
    nets.accumulate(acc.d_actor, d_actor)
    nets.accumulate(acc.d_critic, d_critic)
    return acc


def critic_td_accumulate(
    params: PolicyParams,
    batch: Sequence[Transition],
    gamma: float,
    acc: GradAccumulator,
) -> None:
    """Add the replay minibatch one-step TD term to the critic gradient.

    Descent direction of sum_c (r_c + gamma * V_c(s') - V_c(s))^2 over the
    reward columns, as in :func:`actor_critic_accumulate`. Semi-gradient:
    the bootstrap target gamma * V(s') is held constant.
    """
    b = _as_batch(batch, params.heads)
    values, cache = nets.forward(params.critic_stale, b.states, params.critic_cfg)
    next_values, _ = nets.forward(params.critic_stale, b.next_states, params.critic_cfg)
    targets = b.rewards + gamma * b.boot * next_values
    dvals = _value_grad((targets - values) * b.cols, params.critic_cfg.out_dim)
    grads = nets.backward(params.critic_stale, cache, dvals, params.critic_cfg)
    nets.accumulate(acc.d_critic, grads)


class Adam:
    """Adam (Kingma & Ba, 2015) for one network, on flat vectors in place.

    Callers accumulate into ``grads``, a dict of views into one flat
    gradient vector; :meth:`step` moves the parameters along it (``sign``
    +1 ascends, -1 descends) and clears it for the next episode.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, cfg: nets.NetConfig, lr: float, sign: float) -> None:
        size = nets.num_params(cfg)
        self.flat_grad = np.zeros(size)
        self.grads = nets.flat_views(self.flat_grad, cfg)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._buf = np.zeros(size)
        self._buf_views = nets.flat_views(self._buf, cfg)
        self.lr, self.sign = lr, sign
        self.t = 0

    def step(self, params: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g, m, v, buf = self.flat_grad, self._m, self._v, self._buf
        m *= b1
        np.multiply(g, 1.0 - b1, out=buf)
        m += buf
        v *= b2
        np.multiply(g, g, out=buf)
        buf *= 1.0 - b2
        v += buf
        # lr * m_hat / (sqrt(v_hat) + eps) with both bias corrections moved
        # onto scalars: lr_t * m / (sqrt(v) + eps_t).
        root = np.sqrt(1.0 - b2 ** self.t)
        np.sqrt(v, out=buf)
        buf += self.eps * root
        np.divide(m, buf, out=buf)
        buf *= self.sign * self.lr * root / (1.0 - b1 ** self.t)
        for key, delta in self._buf_views.items():
            params[key] += delta
        g.fill(0.0)


# --- DQN ----------------------------------------------------------------------

def dqn_loss_and_grad(
    q_params: dict,
    target_params: dict,
    batch: Sequence[Transition],
    gamma: float,
    cfg: nets.NetConfig,
    heads: int,
) -> tuple[float, dict]:
    """Squared TD error of per-UAV Q heads against a frozen target net.

    Each acting head's target is r + gamma * max_a' Q_target(s', a') with
    the team reward r; the loss sums the errors in transition-then-head
    order.
    """
    states = np.stack([t.state for t in batch])
    next_states = np.stack([t.next_state for t in batch])
    rewards = np.array([t.reward for t in batch])
    live = np.array([0.0 if t.done else 1.0 for t in batch])
    raw, cache = nets.forward(q_params, states, cfg)
    q = raw.reshape(len(batch), heads, N_ACTIONS)
    raw_next, _ = nets.forward(target_params, next_states, cfg)
    best_next = raw_next.reshape(len(batch), heads, N_ACTIONS).max(axis=-1)

    acts, acting = _action_arrays([t.action for t in batch], heads)
    t_idx, u_idx = np.nonzero(acting)
    a_idx = acts[t_idx, u_idx]
    targets = rewards[t_idx] + gamma * live[t_idx] * best_next[t_idx, u_idx]
    err = q[t_idx, u_idx, a_idx] - targets
    # cumsum adds in order, as a running Python sum would; sum() pairs terms.
    loss = float(np.cumsum(err * err)[-1]) if len(err) else 0.0
    dq = np.zeros_like(q)
    dq[t_idx, u_idx, a_idx] = 2.0 * err
    grads = nets.backward(q_params, cache, dq.reshape(len(batch), -1), cfg)
    return loss, grads


def dqn_update(
    q_params: dict,
    target_params: dict,
    batch: Sequence[Transition],
    gamma: float,
    lr: float,
    cfg: nets.NetConfig,
    heads: int,
) -> float:
    """One semi-gradient descent step on the TD loss; returns the loss."""
    loss, grads = dqn_loss_and_grad(q_params, target_params, batch, gamma, cfg, heads)
    nets.add_scaled(q_params, grads, -lr)
    return loss


# --- PPO ----------------------------------------------------------------------

def joint_log_prob(probs: np.ndarray, actions: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Log probability of each joint action under per-UAV distributions,
    each head's probability floored at 1e-12. The heads' logs are added
    one head at a time, in head order (a row sum would pair the terms)."""
    acts, acting = _action_arrays(actions, probs.shape[1])
    taken = np.take_along_axis(probs, acts[:, :, None], axis=2)[:, :, 0]
    logs = np.where(acting, np.log(np.maximum(taken, 1e-12)), 0.0)
    out = np.zeros(len(actions))
    for u in range(probs.shape[1]):
        out += logs[:, u]
    return out


def ppo_surrogate_and_grad(
    actor: dict,
    old_actor: dict,
    batch: Sequence[Transition],
    advantages: np.ndarray,
    clip_eps: float,
    cfg: nets.NetConfig,
    heads: int,
) -> tuple[float, dict]:
    """Clipped surrogate objective and its ascent gradient.

    Per sample: min(rho * A, clip(rho, 1 - eps, 1 + eps) * A) with the
    joint-action probability ratio rho. The unclipped branch is used
    only where it is strictly smaller; elsewhere the clipped branch
    contributes a gradient only strictly inside the clip window, so a
    zero-width window pins the ratio and kills the actor gradient.
    """
    states = np.stack([t.state for t in batch])
    actions = [t.action for t in batch]
    _, probs, cache = policy_forward(actor, states, cfg, heads)
    _, old_probs, _ = policy_forward(old_actor, states, cfg, heads)
    logp = joint_log_prob(probs, actions)
    logp_old = joint_log_prob(old_probs, actions)
    ratio = np.exp(logp - logp_old)
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    s_plain = ratio * advantages
    s_clip = clipped * advantages
    objective = float(np.minimum(s_plain, s_clip).sum())

    inside = (ratio > 1.0 - clip_eps) & (ratio < 1.0 + clip_eps)
    use_plain = s_plain < s_clip
    dratio = np.where(use_plain, advantages, advantages * inside)
    dlogp = dratio * ratio  # drho/dlogp = rho

    acts, acting = _action_arrays(actions, heads)
    onehot = np.eye(N_ACTIONS)[acts]
    dlogits = np.where(acting[:, :, None], dlogp[:, None, None] * (onehot - probs), 0.0)
    grads = nets.backward(actor, cache, dlogits.reshape(len(batch), -1), cfg)
    return objective, grads


def ppo_update(
    params: PolicyParams,
    rollout: Sequence[Transition],
    clip_eps: float,
    epochs: int,
    gamma: float,
    lr: float,
) -> None:
    """Several clipped-surrogate epochs on one rollout, plus critic fits.

    Advantages are reward-to-go minus the stale critic's values; the
    stale copies play the role of the pre-update policy.
    """
    if not rollout:
        raise ValueError("cannot update from an empty rollout")
    if epochs < 1:
        raise ValueError("need at least one epoch")
    states = np.stack([t.state for t in rollout])
    returns = discounted_returns([t.reward for t in rollout], gamma)
    values_old, _ = value_forward(params.critic_stale, states, params.critic_cfg)
    adv = returns - values_old
    for _ in range(epochs):
        _, g_actor = ppo_surrogate_and_grad(
            params.actor, params.actor_stale, rollout, adv, clip_eps,
            params.actor_cfg, params.heads,
        )
        nets.add_scaled(params.actor, g_actor, +lr)
        values, v_cache = value_forward(params.critic, states, params.critic_cfg)
        dvals = (-2.0 * (returns - values))[:, None]
        g_critic = nets.backward(params.critic, v_cache, dvals, params.critic_cfg)
        nets.add_scaled(params.critic, g_critic, -lr)


# --- meta loop ------------------------------------------------------------------

def run_training_episode(env, task, learner, rng: np.random.Generator, epsilon: float) -> dict:
    """One full episode of interaction and learning; returns episode stats."""
    state = env.reset(task, rng_seed=int(rng.integers(2**63 - 1)))
    learner.begin_episode()
    while True:
        actions = learner.act(state, epsilon, rng)
        out = env.step(actions)
        learner.record(
            Transition(state, actions, out.reward, out.state, out.done, out.uav_rewards)
        )
        state = out.state
        if out.done:
            break
    learner.finish_episode(rng)
    return env.episode_stats()


def meta_adapt(
    meta: MetaState,
    env,
    task,
    rng: np.random.Generator,
    agent_cfg: AgentConfig,
    recorder=None,
) -> PolicyParams:
    """Adapt a clone of the meta parameters to one task.

    Runs ``meta.inner_episodes`` actor-critic episodes starting from a
    copy of the meta weights and returns the adapted copy; the meta
    parameters themselves are never touched.
    """
    if meta.inner_episodes < 1:
        raise ValueError("inner loop needs at least one episode")
    learner = ActorCriticLearner(meta.params.clone(), agent_cfg, lr=meta.inner_lr)
    for _ in range(meta.inner_episodes):
        stats = run_training_episode(env, task, learner, rng, epsilon=agent_cfg.policy_epsilon)
        if recorder is not None:
            recorder(stats)
    return learner.params


def meta_outer_update(meta: MetaState, adapted: Sequence[PolicyParams]) -> None:
    """Move the meta weights toward the mean adapted weights.

    First-order interpolation: meta += outer_lr * mean(adapted - meta),
    applied key by key to actor and critic. Stale copies follow.
    """
    if not adapted:
        raise ValueError("need at least one adapted parameter set")
    n = len(adapted)
    for key in meta.params.actor:
        delta = sum(a.actor[key] - meta.params.actor[key] for a in adapted) / n
        meta.params.actor[key] += meta.outer_lr * delta
    for key in meta.params.critic:
        delta = sum(a.critic[key] - meta.params.critic[key] for a in adapted) / n
        meta.params.critic[key] += meta.outer_lr * delta
    meta.params.refresh_stale()


# --- learner objects --------------------------------------------------------------

class ActorCriticLearner:
    """Episode-batched actor-critic with per-UAV credit, one-step TD
    advantages, an entropy bonus, a replay-refined critic and Adam.

    The Adam state belongs to the parameters it was built for: a new
    learner, or a learner whose ``params`` are replaced, starts afresh.
    """

    uses_schedule = False

    def __init__(self, params: PolicyParams, cfg: AgentConfig, lr: float | None = None) -> None:
        self.params = params
        self.cfg = cfg
        self.lr = AC_LEARNING_RATE if lr is None else lr
        self.memory = ReplayMemory(cfg.replay_capacity)
        self._episode: list[Transition] = []
        self.mode = "sample" if cfg.action_mode == "auto" else cfg.action_mode
        self._optimised: PolicyParams | None = None

    def begin_episode(self) -> None:
        self.params.refresh_stale()
        self._episode = []

    def act(self, state, epsilon, rng) -> tuple[int, ...]:
        return _policy_act(self.params, state, epsilon, rng, self.mode)

    def record(self, transition: Transition) -> None:
        self._episode.append(transition)
        self.memory.push(transition)

    def finish_episode(self, rng) -> None:
        if not self._episode:
            return
        params = self.params
        if self._optimised is not params:
            self._actor_opt = Adam(params.actor_cfg, self.lr, +1.0)
            self._critic_opt = Adam(params.critic_cfg, self.lr, -1.0)
            self._optimised = params
        acc = GradAccumulator(self._actor_opt.grads, self._critic_opt.grads)
        actor_critic_accumulate(
            params, self._episode, self.cfg.gamma, acc,
            td=True, entropy=ENTROPY_WEIGHT,
        )
        if len(self.memory) >= self.cfg.minibatch:
            batch = self.memory.sample(self.cfg.minibatch, rng)
            critic_td_accumulate(params, batch, self.cfg.gamma, acc)
        self._actor_opt.step(params.actor)
        self._critic_opt.step(params.critic)
        self._episode = []


class DQNLearner:
    """Factorised per-UAV Q-learning with a periodically frozen target."""

    uses_schedule = True

    def __init__(self, state_dim: int, heads: int, cfg: AgentConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.net_cfg = nets.NetConfig(state_dim, cfg.hidden, heads * N_ACTIONS)
        self.heads = heads
        self.q = nets.init_params(self.net_cfg, rng, cfg.init_scale)
        self.target = nets.clone_params(self.q)
        self.memory = ReplayMemory(cfg.replay_capacity)
        self.mode = "greedy" if cfg.action_mode == "auto" else cfg.action_mode
        self._steps = 0
        self._updates = 0
        self._rng = rng

    def begin_episode(self) -> None:
        pass

    def act(self, state, epsilon, rng) -> tuple[int, ...]:
        raw, _ = nets.forward(self.q, np.atleast_2d(state), self.net_cfg)
        scores = raw.reshape(self.heads, N_ACTIONS)
        active = _active_count(state, self.heads)
        return select_action(scores, active, epsilon, rng, self.mode)

    def record(self, transition: Transition) -> None:
        self.memory.push(transition)
        self._steps += 1
        if len(self.memory) >= self.cfg.minibatch and self._steps % self.cfg.dqn_update_interval == 0:
            batch = self.memory.sample(self.cfg.minibatch, self._rng)
            dqn_update(
                self.q, self.target, batch, self.cfg.gamma,
                self.cfg.learning_rate, self.net_cfg, self.heads,
            )
            self._updates += 1
            if self._updates % self.cfg.target_refresh == 0:
                self.target = nets.clone_params(self.q)

    def finish_episode(self, rng) -> None:
        pass


class PPOLearner:
    """One-episode rollouts with several clipped-surrogate epochs."""

    uses_schedule = False

    def __init__(self, params: PolicyParams, cfg: AgentConfig) -> None:
        self.params = params
        self.cfg = cfg
        self._rollout: list[Transition] = []
        self.mode = "sample" if cfg.action_mode == "auto" else cfg.action_mode

    def begin_episode(self) -> None:
        self.params.refresh_stale()
        self._rollout = []

    def act(self, state, epsilon, rng) -> tuple[int, ...]:
        return _policy_act(self.params, state, epsilon, rng, self.mode)

    def record(self, transition: Transition) -> None:
        self._rollout.append(transition)

    def finish_episode(self, rng) -> None:
        if not self._rollout:
            return
        ppo_update(
            self.params, self._rollout, self.cfg.ppo_clip, self.cfg.ppo_epochs,
            self.cfg.gamma, self.cfg.learning_rate,
        )
        self._rollout = []


class RandomPolicy:
    """Uniform action baseline; never learns."""

    uses_schedule = False

    def __init__(self, heads: int) -> None:
        self.heads = heads

    def begin_episode(self) -> None:
        pass

    def act(self, state, epsilon, rng) -> tuple[int, ...]:
        active = _active_count(state, self.heads)
        return tuple(int(a) for a in rng.integers(0, N_ACTIONS, size=active))

    def record(self, transition: Transition) -> None:
        pass

    def finish_episode(self, rng) -> None:
        pass


def _active_count(state: np.ndarray, heads: int) -> int:
    """Recover the active-UAV count from the trailing state feature."""
    return int(round(float(state[-1]) * heads))


def _policy_act(params: PolicyParams, state, epsilon, rng, mode: str) -> tuple[int, ...]:
    """Actions from the stale actor alone; acting needs no critic value."""
    _, probs, _ = policy_forward(
        params.actor_stale, np.atleast_2d(state), params.actor_cfg, params.heads
    )
    return select_action(probs[0], _active_count(state, params.heads), epsilon, rng, mode)


ALGORITHMS = ("meta_rl", "actor_critic", "dqn", "ppo", "random")


def make_learner(
    algorithm: str,
    state_dim: int,
    heads: int,
    cfg: AgentConfig,
    rng: np.random.Generator,
    init: PolicyParams | None = None,
):
    """Learner factory; ``init`` seeds actor-critic style learners."""
    if algorithm in ("actor_critic", "meta_rl"):
        params = (init.clone() if init is not None
                  else make_policy_params(state_dim, heads, cfg, rng, critic_outputs=heads))
        return ActorCriticLearner(params, cfg)
    if algorithm == "ppo":
        params = init.clone() if init is not None else make_policy_params(state_dim, heads, cfg, rng)
        return PPOLearner(params, cfg)
    if algorithm == "dqn":
        return DQNLearner(state_dim, heads, cfg, rng)
    if algorithm == "random":
        return RandomPolicy(heads)
    raise ValueError(f"unknown algorithm {algorithm!r} (known: {', '.join(ALGORITHMS)})")
