"""Learners for the coverage MDP: actor-critic, DQN, PPO, and a first-order
meta-initialization loop on top of the actor-critic.

Every learner has ``act(state, rng)``, ``record(episode)`` and
``finish_episode(rng)`` and holds one copy of its weights. ``record``
is called after each step with the env's ``EpisodeArrays``, which hold
the episode's rows up to that step and which the env reuses at its next
reset: every learner finishes with them before then, and DQN's replay
memory copies what it keeps. Only
``finish_episode`` changes them (DQN's ``record`` too), so everything
read during an episode sees the weights the episode started with. The
actor-critic and PPO sample from their actor. DQN acts epsilon-greedily
and anneals epsilon itself, once per finished episode, over the run
length it is built with; no caller passes an exploration rate.

The actor-critic writes the episode's gradients at the episode's weights
straight into its Adam gradient vectors and applies them in one Adam
step afterwards (ascent for the actor, descent for the critic). Credit
is per UAV: every transition carries one reward per acting UAV, the
critic has one value output per UAV slot, regressed on that UAV's own
discounted return, and each active policy head is pushed by its own
one-step TD advantage r_i + gamma * V_i(s') - V_i(s) plus an entropy
bonus. The critic fits the current episode alone, as A2C's does, and the
update forwards it once, over the finished episode's states: step t's
bootstrap value is step t + 1's. PPO takes the pre-update joint
log-probabilities and values once per update, before its epochs move
the weights. The meta loop adapts a clone of the meta parameters on a
sampled task for ``AgentConfig.meta_inner_episodes`` episodes and then
moves the meta parameters ``AgentConfig.meta_outer_lr`` of the way
toward the mean adapted weights.

All updates are plain in-place numpy arithmetic, single threaded, and
deterministic given the generators passed in. Action sampling draws one
uniform per UAV in one call and inverts each through its row's CDF, built
on Python floats (a few five-wide rows cost less there than in numpy);
the gradients hold no per-(step, UAV) Python loop and index one-hot
actions under an acting-head mask (``Batch.acting``). Both reproduce the
per-UAV ``rng.choice`` draws and the per-(step, UAV) arithmetic bit for
bit; the tests keep those loops as references. Only DQN's exploration
walks the UAVs one at a time, because its draws interleave. The policy
learners act through the actor alone, softmaxing the active heads only.

Every gradient reads transitions as one :class:`Batch` of arrays. A
finished episode is one by slicing (:meth:`Batch.of_episode`: the states
are ``obs[:-1]``, the next states ``obs[1:]``). DQN's replay memory
copies an episode's rows in step order into preallocated arrays round a
ring and samples a ``Batch`` straight from them. It keeps only what DQN
reads, each row at its information size: one state per row as one bit
per feature, with float64 values only for the columns the env declares
not 0/1 (``CoverageEnv.real_cols``), the team reward, the done flag and
``int8`` action ids; a sample carries no per-UAV rewards. A row's acting
heads are not stored: every ``Batch`` reads them from its states'
trailing active-count feature. A row's next state is the next row's
state; only terminal rows and the newest row keep a next state of their
own. DQN writes the episode's steps up to the current one just before
each sample and the rest at the episode's end. Every gradient function
overwrites parameter-shaped buffers its caller passes
(:func:`nets.backward`). DQN and PPO own theirs and the actor-critic
writes into its Adam gradient vectors, so an update allocates no
parameter-sized arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nets
from .config import ALGORITHMS, AgentConfig
from .env import N_ACTIONS


#: Adam step of the actor-critic and of the meta inner loop.
AC_LEARNING_RATE = 1e-3
#: Weight of each active head's policy entropy in the actor-critic objective.
#: The working band is narrow: on seed 0 of the strategic-visit acceptance
#: test, 0.05 collapses to hovering (visit ratio 1.07) and 0.15 keeps too
#: much randomness (1.65), against 2.28 at 0.1.
ENTROPY_WEIGHT = 0.1


@dataclass
class PolicyParams:
    """Actor and critic weights with their network shapes."""

    actor: dict
    critic: dict
    actor_cfg: nets.NetConfig
    critic_cfg: nets.NetConfig
    heads: int

    def clone(self) -> "PolicyParams":
        return PolicyParams(
            nets.clone_params(self.actor),
            nets.clone_params(self.critic),
            self.actor_cfg,
            self.critic_cfg,
            self.heads,
        )


@dataclass
class GradAccumulator:
    d_actor: dict
    d_critic: dict


def make_policy_params(
    state_dim: int,
    heads: int,
    cfg: AgentConfig,
    rng: np.random.Generator,
    critic_outputs: int,
) -> PolicyParams:
    """Fresh actor and critic; the critic has ``critic_outputs`` value
    outputs (``heads`` for the actor-critic's one value per UAV slot, 1 for
    PPO's single value)."""
    actor_cfg = nets.NetConfig(state_dim, cfg.hidden, heads * N_ACTIONS)
    critic_cfg = nets.NetConfig(state_dim, cfg.hidden, critic_outputs)
    return PolicyParams(
        nets.init_params(actor_cfg, rng),
        nets.init_params(critic_cfg, rng),
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
    """The value of each state under a one-output critic (PPO's)."""
    raw, cache = nets.forward(critic, states, cfg)
    return raw[:, 0], cache


def forward(params: PolicyParams, state: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-UAV action distributions and the first critic output for one
    state."""
    _, probs, _ = policy_forward(params.actor, np.atleast_2d(state), params.actor_cfg, params.heads)
    values, _ = value_forward(params.critic, np.atleast_2d(state), params.critic_cfg)
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


def select_action(probs: np.ndarray, active: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Sample one action id per active UAV from per-UAV probabilities.

    ``probs`` is (heads, actions); rows past ``active`` are never read.
    Draws are those of a per-UAV ``rng.choice(N_ACTIONS, p=row / row.sum())``:
    one uniform per UAV, inverted through the row's normalised CDF as
    ``searchsorted(side="right")`` would, so the stream and the actions
    are the same. A row that is NaN, negative or sums to zero raises
    ``ValueError`` before anything is drawn.
    """
    sums = [_running_sums(row) for row in np.asarray(probs, dtype=np.float64)[:active].tolist()]
    picks = []
    for cdf, u in zip(sums, rng.random(active).tolist()):
        last, k = cdf[-1], 0
        for c in cdf:
            if c / last <= u:  # choice's cdf /= cdf[-1], then the search
                k += 1
        picks.append(k)
    return tuple(picks)


#: The tolerance on a probability row's sum that ``Generator.choice`` allows.
_P_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _running_sums(row: list[float]) -> list[float]:
    """The running sums of ``p = row / row.sum()``, as ``Generator.choice``
    builds them before normalising, on Python floats; ``ValueError`` where
    ``choice`` would reject ``p``. Both sums add left to right, as numpy's
    sum and cumsum of a five-wide row do, and each divide is numpy's."""
    total = 0.0
    for x in row:
        total += x
    if total == 0.0:
        raise ValueError("action probabilities must be non-negative with a positive finite sum")
    acc, sums = 0.0, []
    for x in row:
        p = x / total
        if not p >= 0.0:  # negative or NaN
            raise ValueError("action probabilities must be non-negative with a positive finite sum")
        acc += p
        sums.append(acc)
    if not abs(acc - 1.0) <= _P_SUM_ATOL:
        raise ValueError("action probabilities must be non-negative with a positive finite sum")
    return sums


def discounted_returns(rewards: Sequence[float] | np.ndarray, gamma: float) -> np.ndarray:
    """Reward-to-go of each step of one episode (along the first axis, so
    a [steps, columns] array gives one return per column).

    Each column runs ``acc = r + gamma * acc`` backwards from 0.0 on Python
    floats, the arithmetic of a per-step numpy loop."""
    rewards = np.asarray(rewards, dtype=np.float64)
    width = int(np.prod(rewards.shape[1:]))
    out = []
    for column in rewards.reshape(len(rewards), width).T.tolist():
        acc, column_out = 0.0, []
        for r in reversed(column):
            acc = r + gamma * acc
            column_out.append(acc)
        column_out.reverse()
        out.append(column_out)
    return np.array(out, dtype=np.float64).reshape(width, len(rewards)).T.reshape(rewards.shape)


# --- actor-critic -------------------------------------------------------------

@dataclass
class Batch:
    """Transitions as arrays, the one form every gradient reads.

    ``reward`` and ``live`` (0.0 after a terminal step, else 1.0) are the
    team reward and bootstrap mask DQN reads. The value losses read one
    reward column per UAV slot (zero for idle slots), which an episode
    has and a replay sample does not (``None``). ``acting`` masks the
    heads that acted, and so the columns a value loss counts; ``boot`` the
    bootstrap values V(s') a TD target may use: none after a terminal
    step, and per UAV none for a slot idle in s'. Both masks come from the
    states' trailing active-count feature (:func:`acting_heads`).
    """

    states: np.ndarray          # [B, state_dim]
    next_states: np.ndarray     # [B, state_dim]
    reward: np.ndarray          # [B] team reward
    live: np.ndarray            # [B]
    acts: np.ndarray            # [B, heads] action ids, 0 on idle heads
    acting: np.ndarray          # [B, heads] heads that acted
    rewards: np.ndarray | None  # [B, heads]

    @classmethod
    def build(cls, states, next_states, reward, uav_rewards, done, acts) -> "Batch":
        """The batch of rows given as arrays: ``uav_rewards`` [B, heads],
        when given, is zero-padded past each row's acting heads."""
        return cls(states, next_states, reward, np.where(done, 0.0, 1.0), acts,
                   acting_heads(states, acts.shape[1]), uav_rewards)

    @classmethod
    def of_episode(cls, episode) -> "Batch":
        """The written steps of an ``env.EpisodeArrays`` as views of its
        arrays: states ``obs[:-1]``, next states ``obs[1:]``."""
        n = episode.steps
        return cls.build(episode.obs[:n], episode.obs[1:n + 1], episode.reward[:n],
                         episode.uav_rewards[:n], episode.done[:n], episode.acts[:n])

    @property
    def onehot(self) -> np.ndarray:
        """[B, heads, N_ACTIONS] one-hot taken actions (action 0 on idle heads)."""
        return np.eye(N_ACTIONS)[self.acts]

    @property
    def boot(self) -> np.ndarray:
        """[B, heads] float mask of the bootstrap values a TD target may use."""
        return self.live[:, None] * acting_heads(self.next_states, self.acts.shape[1])


def acting_heads(states: np.ndarray, heads: int) -> np.ndarray:
    """[B, heads]: each state's acting heads, the batched :func:`_active_count`."""
    return np.arange(heads) < np.rint(states[:, -1] * heads)[:, None]


#: The bit pattern of 1.0, the one value besides +0.0 a bit holds.
_ONE_BITS = np.float64(1.0).view(np.uint64)


class ReplayMemory:
    """The last ``capacity`` transitions, sampled uniformly as a :class:`Batch`.

    Rows are written from episodes (``env.EpisodeArrays``) in step order
    round a ring of preallocated arrays. They keep only what DQN reads,
    each at its information size: the state as one bit per feature
    (``np.packbits`` order, [capacity, ceil(state_dim / 8)] bytes) beside
    the float64 values of the ``real_cols`` the env declares not 0/1
    (``exact``), the team reward, the done flag and the action ids as
    ``int8``. A sample reads its acting heads from its states and carries
    no per-UAV rewards. A write whose states hold anything but +0.0 or 1.0
    outside ``real_cols`` raises.

    A row's next state is the next row's state. A write keeps its last
    row's next state on its own (``next_states``: its bits and its
    ``real_cols`` values), and the next write, which continues that row,
    drops it unless the row is terminal; an episode's steps end at the
    terminal one. So only terminal rows and the newest row keep one.
    """

    def __init__(self, capacity: int, state_dim: int, heads: int,
                 real_cols: Sequence[int]) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.state_dim = state_dim
        self.real_cols = np.asarray(real_cols, dtype=np.intp)
        self.states = np.zeros((capacity, -(-state_dim // 8)), np.uint8)
        self.exact = np.zeros((capacity, len(self.real_cols)), np.float64)
        #: All bits set in the columns that ``states`` holds, none in ``real_cols``.
        self._bit_mask = np.full(state_dim, np.iinfo(np.uint64).max, dtype=np.uint64)
        self._bit_mask[self.real_cols] = 0
        self.reward = np.zeros(capacity, np.float64)
        self.done = np.zeros(capacity, bool)
        self.acts = np.zeros((capacity, heads), np.int8)
        #: The next states kept on their own, by row, as ``(bits, values)``.
        self.next_states: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._size = 0
        self._slot = 0  # the row the next write starts at

    def write(self, episode, start: int, stop: int) -> None:
        """Steps ``start`` to ``stop - 1`` of ``episode``, in order, from
        the ring's next row on."""
        n = stop - start
        start = max(start, stop - self.capacity)  # earlier steps this write overwrites
        obs = episode.obs[start:stop + 1]
        masked = obs.view(np.uint64) & self._bit_mask  # 0 in the real columns
        ones = masked == _ONE_BITS
        if np.count_nonzero(masked) != np.count_nonzero(ones):
            t, col = np.argwhere((masked != 0) > ones)[0]
            raise ValueError(f"state column {col} holds {obs[t, col]!r}, which is "
                             "neither 0.0 nor 1.0 and not a declared real column")
        newest = (self._slot - 1) % self.capacity
        if self._size and not self.done[newest]:
            del self.next_states[newest]  # this write continues it
        rows = (self._slot + n + np.arange(start - stop, 0)) % self.capacity
        for row in rows.tolist():  # the rows overwritten
            self.next_states.pop(row, None)
        bits = np.packbits(ones, axis=1)
        values = obs[:, self.real_cols]
        self.states[rows] = bits[:-1]
        self.exact[rows] = values[:-1]
        self.reward[rows] = episode.reward[start:stop]
        self.done[rows] = episode.done[start:stop]
        self.acts[rows] = episode.acts[start:stop]
        self.next_states[int(rows[-1])] = (bits[-1].copy(), values[-1].copy())
        self._size = min(self._size + n, self.capacity)
        self._slot = (self._slot + n) % self.capacity

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """``n`` distinct transitions, drawn as ``rng.choice`` over the held
        ones ordered oldest first."""
        if n > self._size:
            raise ValueError("cannot sample more transitions than stored")
        rows = rng.choice(self._size, size=n, replace=False)
        if self._size == self.capacity:  # the oldest row is the next one written
            rows = (rows + self._slot) % self.capacity
        # Each row's state and the next row's, unpacked bit for bit as written.
        both = np.concatenate([rows, (rows + 1) % self.capacity])
        decoded = np.unpackbits(self.states[both], axis=1, count=self.state_dim).astype(np.float64)
        decoded[:, self.real_cols] = self.exact[both]
        states, next_states = decoded[:n], decoded[n:]
        for i, row in enumerate(rows.tolist()):
            own = self.next_states.get(row)
            if own is not None:
                bits, values = own
                next_states[i] = np.unpackbits(bits, count=self.state_dim)
                next_states[i, self.real_cols] = values
        return Batch.build(states, next_states, self.reward[rows], None, self.done[rows],
                           self.acts[rows].astype(np.int64))

    def __len__(self) -> int:
        return self._size


def actor_critic_accumulate(
    params: PolicyParams,
    episode,
    gamma: float,
    out: GradAccumulator,
) -> None:
    """Write the gradients of one finished ``env.EpisodeArrays`` at the
    current weights into ``out``.

    Actor: ascent direction of
      sum_t sum_i [log pi_i(a_ti | s_t) * A_ti + ENTROPY_WEIGHT * H(pi_i(. | s_t))]
    over the heads i that acted at step t, with head i's one-step TD error
    A_ti = r_ti + gamma * V_i(s'_t) - V_i(s_t) on UAV i's own reward.
    Critic: descent direction of sum_t sum_i (R_ti - V_i(s_t))^2 over the
    same heads, with R_ti UAV i's discounted reward-to-go. Both overwrite
    every element of ``out``'s buffers (see :func:`nets.backward`).

    The critic runs once, over the episode's n states: step t's next value
    is step t + 1's, and the terminal step's is 0. An empty or unfinished
    episode (its last written step not terminal) raises ``ValueError``.
    """
    n = episode.steps
    if not n or not episode.done[n - 1]:
        raise ValueError("can only accumulate over a finished episode")
    b = Batch.of_episode(episode)
    logits, probs, a_cache = policy_forward(params.actor, b.states, params.actor_cfg, params.heads)
    values, v_cache = nets.forward(params.critic, b.states, params.critic_cfg)
    next_values = np.zeros_like(values)  # the terminal step bootstraps from 0
    next_values[:-1] = values[1:]
    adv = b.rewards + gamma * b.boot * next_values - values

    mask = b.acting[:, :, None]
    dlogits = adv[:, :, None] * (b.onehot - probs) * mask
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    ent = -(probs * logp).sum(axis=-1, keepdims=True)
    dlogits -= ENTROPY_WEIGHT * probs * (logp + ent) * mask  # dH/dz = -p (log p + H)
    nets.backward(params.actor, a_cache, dlogits.reshape(n, -1), params.actor_cfg, out.d_actor)
    returns = discounted_returns(b.rewards, gamma)
    dvals = -2.0 * ((returns - values) * b.acting)
    nets.backward(params.critic, v_cache, dvals, params.critic_cfg, out.d_critic)


def critic_td_accumulate(
    params: PolicyParams,
    batch: Batch,
    gamma: float,
    out: GradAccumulator,
) -> None:
    """Write a batch's one-step TD gradient into ``out.d_critic``.

    Descent direction of sum_i (r_i + gamma * V_i(s') - V_i(s))^2 over the
    acting heads, on the per-UAV rewards of a batch that has them (an
    episode's; a replay sample has none), as in
    :func:`actor_critic_accumulate`. Semi-gradient: the bootstrap target
    gamma * V(s') is held constant.
    """
    values, cache = nets.forward(params.critic, batch.states, params.critic_cfg)
    next_values, _ = nets.forward(params.critic, batch.next_states, params.critic_cfg)
    targets = batch.rewards + gamma * batch.boot * next_values
    dvals = -2.0 * ((targets - values) * batch.acting)
    nets.backward(params.critic, cache, dvals, params.critic_cfg, out.d_critic)


class Adam:
    """Adam (Kingma & Ba, 2015) for one network, on flat vectors in place.

    Callers write the gradient into ``grads``, a dict of views into one
    flat gradient vector; :meth:`step` moves the parameters along it
    (``sign`` +1 ascends, -1 descends) and leaves it as it was.
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


# --- DQN ----------------------------------------------------------------------

def dqn_loss_and_grad(
    q_params: dict,
    target_params: dict,
    batch: Batch,
    gamma: float,
    cfg: nets.NetConfig,
    heads: int,
    out: dict,
) -> tuple[float, dict]:
    """Squared TD error of per-UAV Q heads against a frozen target net.

    Each acting head's target is r + gamma * max_a' Q_target(s', a') with
    the team reward r; the loss sums the errors in transition-then-head
    order. The gradient goes into ``out`` (see :func:`nets.backward`).
    """
    n = len(batch.states)
    raw, cache = nets.forward(q_params, batch.states, cfg)
    q = raw.reshape(n, heads, N_ACTIONS)
    raw_next, _ = nets.forward(target_params, batch.next_states, cfg)
    best_next = raw_next.reshape(n, heads, N_ACTIONS).max(axis=-1)

    t_idx, u_idx = np.nonzero(batch.acting)
    a_idx = batch.acts[t_idx, u_idx]
    targets = batch.reward[t_idx] + gamma * batch.live[t_idx] * best_next[t_idx, u_idx]
    err = q[t_idx, u_idx, a_idx] - targets
    # cumsum adds in order, as a running Python sum would; sum() pairs terms.
    loss = float(np.cumsum(err * err)[-1]) if len(err) else 0.0
    dq = np.zeros_like(q)
    dq[t_idx, u_idx, a_idx] = 2.0 * err
    return loss, nets.backward(q_params, cache, dq.reshape(n, -1), cfg, out)


def dqn_update(
    q_params: dict,
    target_params: dict,
    batch: Batch,
    gamma: float,
    lr: float,
    cfg: nets.NetConfig,
    heads: int,
    grads: dict,
) -> float:
    """One semi-gradient descent step on the TD loss; returns the loss.

    The gradient is taken into ``grads`` (the learner's own buffers, see
    :func:`nets.grad_buffers`) and scaled there in place."""
    loss, _ = dqn_loss_and_grad(q_params, target_params, batch, gamma, cfg, heads, grads)
    _step(q_params, grads, -lr)
    return loss


def _step(params: dict, grads: dict, scale: float) -> None:
    """``params += scale * grads``, with the scaled gradient formed in
    ``grads`` itself (no temporaries)."""
    for g in grads.values():
        g *= scale
    nets.add(params, grads)


# --- PPO ----------------------------------------------------------------------

def joint_log_prob(probs: np.ndarray, acts: np.ndarray, acting: np.ndarray) -> np.ndarray:
    """Log probability of each joint action, given as a :class:`Batch`'s
    ``acts`` and ``acting``, under per-UAV distributions, each head's probability floored at 1e-12.
    The heads' logs are added one head at a time, in head order (a row sum
    would pair the terms)."""
    taken = np.take_along_axis(probs, acts[:, :, None], axis=2)[:, :, 0]
    logs = np.where(acting, np.log(np.maximum(taken, 1e-12)), 0.0)
    out = np.zeros(len(acts))
    for u in range(probs.shape[1]):
        out += logs[:, u]
    return out


def ppo_surrogate_and_grad(
    actor: dict,
    logp_old: np.ndarray,
    probs: np.ndarray,
    cache: list,
    acts: np.ndarray,
    acting: np.ndarray,
    onehot: np.ndarray,
    advantages: np.ndarray,
    clip_eps: float,
    cfg: nets.NetConfig,
    out: dict,
) -> tuple[float, dict]:
    """Clipped surrogate objective and its ascent gradient.

    ``probs`` and ``cache`` are :func:`policy_forward`'s of ``actor`` on
    the batch's states. The batch's joint actions come as a :class:`Batch`'s
    ``acts`` and ``acting`` and their one-hot rows ``np.eye(N_ACTIONS)[acts]``,
    all fixed for a whole update. Per sample: min(rho * A, clip(rho, 1 -
    eps, 1 + eps) * A) with the joint-action probability ratio rho =
    exp(log pi(a|s) - logp_old), where ``logp_old`` is the pre-update
    policy's :func:`joint_log_prob` of each sample. The unclipped branch is
    used only where it is strictly smaller; elsewhere the clipped branch
    contributes a gradient only strictly inside the clip window, so a
    zero-width window pins the ratio and kills the actor gradient.
    ``out`` takes the gradient (see :func:`nets.backward`).
    """
    ratio = np.exp(joint_log_prob(probs, acts, acting) - logp_old)
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    s_plain = ratio * advantages
    s_clip = clipped * advantages
    objective = float(np.minimum(s_plain, s_clip).sum())

    inside = (ratio > 1.0 - clip_eps) & (ratio < 1.0 + clip_eps)
    use_plain = s_plain < s_clip
    dratio = np.where(use_plain, advantages, advantages * inside)
    dlogp = dratio * ratio  # drho/dlogp = rho

    dlogits = np.where(acting[:, :, None], dlogp[:, None, None] * (onehot - probs), 0.0)
    return objective, nets.backward(actor, cache, dlogits.reshape(len(acts), -1), cfg, out)


def ppo_update(
    params: PolicyParams,
    rollout: Batch,
    clip_eps: float,
    epochs: int,
    gamma: float,
    lr: float,
    grads: GradAccumulator,
) -> None:
    """Several clipped-surrogate epochs on one rollout, plus critic fits.

    Advantages are reward-to-go minus the pre-update critic's values, and
    the ratios are taken against the pre-update actor's joint
    log-probabilities; both, and the rollout's arrays, are computed once,
    before the first epoch. The first epoch's weights are the pre-update
    ones, so it reuses those two forward passes; each later epoch forwards
    both nets at its own weights. The gradients are taken into ``grads``
    (the learner's own buffers) and scaled there in place.
    """
    if not len(rollout.states):
        raise ValueError("cannot update from an empty rollout")
    if epochs < 1:
        raise ValueError("need at least one epoch")
    states, acts, acting, onehot = rollout.states, rollout.acts, rollout.acting, rollout.onehot
    returns = discounted_returns(rollout.reward, gamma)
    values, v_cache = value_forward(params.critic, states, params.critic_cfg)
    adv = returns - values
    _, probs, a_cache = policy_forward(params.actor, states, params.actor_cfg, params.heads)
    logp_old = joint_log_prob(probs, acts, acting)
    for epoch in range(epochs):
        if epoch:
            _, probs, a_cache = policy_forward(params.actor, states, params.actor_cfg, params.heads)
            values, v_cache = value_forward(params.critic, states, params.critic_cfg)
        ppo_surrogate_and_grad(params.actor, logp_old, probs, a_cache, acts, acting, onehot, adv,
                               clip_eps, params.actor_cfg, grads.d_actor)
        _step(params.actor, grads.d_actor, +lr)
        dvals = (-2.0 * (returns - values))[:, None]
        nets.backward(params.critic, v_cache, dvals, params.critic_cfg, grads.d_critic)
        _step(params.critic, grads.d_critic, -lr)


# --- meta loop ------------------------------------------------------------------

def run_training_episode(env, task, learner, rng: np.random.Generator) -> dict:
    """One full episode of interaction and learning; returns episode stats."""
    state = env.reset(task, rng_seed=int(rng.integers(2**63 - 1)))
    while True:
        out = env.step(learner.act(state, rng))
        learner.record(env.episode)
        state = out.state
        if out.done:
            break
    learner.finish_episode(rng)
    return env.episode_stats()


def meta_adapt(
    meta: PolicyParams,
    env,
    task,
    rng: np.random.Generator,
    agent_cfg: AgentConfig,
) -> PolicyParams:
    """Adapt a clone of the meta parameters to one task.

    Runs ``agent_cfg.meta_inner_episodes`` actor-critic episodes starting
    from a copy of the meta weights and returns the adapted copy; the
    meta parameters themselves are never touched.
    """
    learner = ActorCriticLearner(meta.clone(), agent_cfg)
    for _ in range(agent_cfg.meta_inner_episodes):
        run_training_episode(env, task, learner, rng)
    return learner.params


def meta_outer_update(meta: PolicyParams, adapted: Sequence[PolicyParams], outer_lr: float) -> None:
    """Move the meta weights toward the mean adapted weights.

    First-order interpolation: meta += outer_lr * mean(adapted - meta),
    applied key by key to actor and critic.
    """
    if not adapted:
        raise ValueError("need at least one adapted parameter set")
    n = len(adapted)
    for key in meta.actor:
        delta = sum(a.actor[key] - meta.actor[key] for a in adapted) / n
        meta.actor[key] += outer_lr * delta
    for key in meta.critic:
        delta = sum(a.critic[key] - meta.critic[key] for a in adapted) / n
        meta.critic[key] += outer_lr * delta


# --- learner objects --------------------------------------------------------------

class ActorCriticLearner:
    """Episode-batched actor-critic with per-UAV credit, one-step TD
    advantages, an entropy bonus and Adam: one on-policy update per
    finished episode, which draws nothing from the generator.

    Its Adam state, built with it, stays for its life; each update writes
    the episode's gradients straight into the Adams' ``grads``.
    """

    def __init__(self, params: PolicyParams, cfg: AgentConfig) -> None:
        self.params = params
        self.cfg = cfg
        self._episode = None
        self._actor_opt = Adam(params.actor_cfg, AC_LEARNING_RATE, +1.0)
        self._critic_opt = Adam(params.critic_cfg, AC_LEARNING_RATE, -1.0)

    def act(self, state, rng) -> tuple[int, ...]:
        return _policy_act(self.params, state, rng)

    def record(self, episode) -> None:
        self._episode = episode

    def finish_episode(self, rng) -> None:
        if self._episode is None:
            return
        params = self.params
        actor_critic_accumulate(params, self._episode, self.cfg.gamma,
                                GradAccumulator(self._actor_opt.grads, self._critic_opt.grads))
        self._actor_opt.step(params.actor)
        self._critic_opt.step(params.critic)
        self._episode = None


class DQNLearner:
    """Factorised per-UAV Q-learning with a periodically frozen target.

    Exploration is epsilon-greedy on a linear schedule over the
    ``episodes`` the learner is built for: the k-th episode it plays acts
    with ``epsilon_at(k, episodes, cfg)``.
    """

    def __init__(
        self, state_dim: int, heads: int, cfg: AgentConfig, rng: np.random.Generator,
        episodes: int, real_cols: Sequence[int],
    ) -> None:
        self.cfg = cfg
        self.net_cfg = nets.NetConfig(state_dim, cfg.hidden, heads * N_ACTIONS)
        self.heads = heads
        self.q = nets.init_params(self.net_cfg, rng)
        self.target = nets.clone_params(self.q)
        self.memory = ReplayMemory(cfg.replay_capacity, state_dim, heads, real_cols)
        self._episode = None
        self._written = 0  # the episode's steps in the memory
        self._grads = nets.grad_buffers(self.net_cfg)
        self.episodes = episodes
        self._finished = 0
        self.epsilon = epsilon_at(0, episodes, cfg)
        self._steps = 0
        self._updates = 0
        self._rng = rng

    def act(self, state, rng) -> tuple[int, ...]:
        """Each active UAV's argmax Q action (ties to the lowest index), or
        with probability ``epsilon`` a uniform one. The UAVs draw in turn,
        so each exploration draw precedes that UAV's random action."""
        raw, _ = nets.forward(self.q, state, self.net_cfg)
        active = _active_count(state, self.heads)
        picks = raw.reshape(self.heads, N_ACTIONS)[:active].argmax(axis=1).tolist()
        if self.epsilon <= 0.0:
            return tuple(picks)
        return tuple(int(rng.integers(N_ACTIONS)) if rng.random() < self.epsilon else a
                     for a in picks)

    def record(self, episode) -> None:
        """Count the step just written to ``episode`` and, every
        ``dqn_update_interval`` steps once the memory would hold a
        minibatch, write the episode's steps up to this one to the memory
        and take an update from a sample. The memory is the same at every
        sample as with a write per step."""
        self._episode = episode
        self._steps += 1
        if (len(self.memory) + episode.steps - self._written >= self.cfg.minibatch
                and self._steps % self.cfg.dqn_update_interval == 0):
            self._flush()
            batch = self.memory.sample(self.cfg.minibatch, self._rng)
            dqn_update(
                self.q, self.target, batch, self.cfg.gamma,
                self.cfg.learning_rate, self.net_cfg, self.heads, self._grads,
            )
            self._updates += 1
            if self._updates % self.cfg.target_refresh == 0:
                self.target = nets.clone_params(self.q)

    def finish_episode(self, rng) -> None:
        self._flush()
        self._episode, self._written = None, 0
        self._finished += 1
        self.epsilon = epsilon_at(self._finished, self.episodes, self.cfg)

    def _flush(self) -> None:
        """Write the episode's steps not yet in the memory."""
        episode = self._episode
        if episode is not None and episode.steps > self._written:
            self.memory.write(episode, self._written, episode.steps)
            self._written = episode.steps


class PPOLearner:
    """One-episode rollouts with several clipped-surrogate epochs."""

    def __init__(self, params: PolicyParams, cfg: AgentConfig) -> None:
        self.params = params
        self.cfg = cfg
        self._episode = None
        self._grads = GradAccumulator(nets.grad_buffers(params.actor_cfg),
                                      nets.grad_buffers(params.critic_cfg))

    def act(self, state, rng) -> tuple[int, ...]:
        return _policy_act(self.params, state, rng)

    def record(self, episode) -> None:
        self._episode = episode

    def finish_episode(self, rng) -> None:
        if self._episode is None:
            return
        ppo_update(
            self.params, Batch.of_episode(self._episode), self.cfg.ppo_clip, self.cfg.ppo_epochs,
            self.cfg.gamma, self.cfg.learning_rate, self._grads,
        )
        self._episode = None


class RandomPolicy:
    """Uniform action baseline; never learns."""

    def __init__(self, heads: int) -> None:
        self.heads = heads

    def act(self, state, rng) -> tuple[int, ...]:
        active = _active_count(state, self.heads)
        return tuple(int(a) for a in rng.integers(0, N_ACTIONS, size=active))

    def record(self, episode) -> None:
        pass

    def finish_episode(self, rng) -> None:
        pass


def _active_count(state: np.ndarray, heads: int) -> int:
    """Recover the active-UAV count from the trailing state feature."""
    return int(round(float(state[-1]) * heads))


def _policy_act(params: PolicyParams, state, rng) -> tuple[int, ...]:
    """Actions sampled from the actor alone; acting needs no critic value.
    Only the active heads' logits pass through the softmax."""
    raw, _ = nets.forward(params.actor, state, params.actor_cfg)
    active = _active_count(state, params.heads)
    probs = nets.softmax(raw[0, : active * N_ACTIONS].reshape(active, N_ACTIONS))
    return select_action(probs, active, rng)


def make_learner(
    algorithm: str,
    state_dim: int,
    heads: int,
    cfg: AgentConfig,
    rng: np.random.Generator,
    episodes: int,
    real_cols: Sequence[int],
):
    """A fresh learner for a run of ``episodes`` episodes (the length of
    DQN's exploration schedule). ``real_cols`` are the state columns that
    are not 0/1 (``CoverageEnv.real_cols``), which DQN's replay memory
    keeps as float64."""
    if algorithm in ("actor_critic", "meta_rl"):
        return ActorCriticLearner(
            make_policy_params(state_dim, heads, cfg, rng, critic_outputs=heads), cfg)
    if algorithm == "ppo":
        return PPOLearner(make_policy_params(state_dim, heads, cfg, rng, critic_outputs=1), cfg)
    if algorithm == "dqn":
        return DQNLearner(state_dim, heads, cfg, rng, episodes, real_cols)
    if algorithm == "random":
        return RandomPolicy(heads)
    raise ValueError(f"unknown algorithm {algorithm!r} (known: {', '.join(ALGORITHMS)})")
