"""Learners for the coverage MDP: actor-critic, DQN, PPO, and a first-order
meta-initialization loop on top of the actor-critic.

Every learner has ``act(state, rng)``, ``record(transition)`` and
``finish_episode(rng)`` and holds one copy of its weights. Only
``finish_episode`` changes them (DQN's ``record`` too), so everything
read during an episode sees the weights the episode started with. The
actor-critic and PPO sample from their actor. DQN acts epsilon-greedily
and anneals epsilon itself, once per finished episode, over the run
length it is built with; no caller passes an exploration rate.

The actor-critic accumulates the episode's gradients at the episode's
weights and applies them in one Adam step afterwards (ascent for the
actor, descent for the critic). Credit is per UAV: every transition
carries one reward per acting UAV, the critic has one value output per
UAV slot, regressed on that UAV's own discounted return, and each
active policy head is pushed by its own one-step TD advantage
r_i + gamma * V_i(s') - V_i(s) plus an entropy bonus. The
critic additionally takes a one-step temporal-difference term from a
replay minibatch each episode. PPO takes the pre-update joint
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
actions under an acting-head mask (``action_arrays``). Both reproduce the
per-UAV ``rng.choice`` draws and the per-(step, UAV) arithmetic bit for
bit; the tests keep those loops as references. Only DQN's exploration
walks the UAVs one at a time, because its draws interleave. The policy
learners act through the actor alone, softmaxing the active heads only.

Every gradient reads transitions as one :class:`Batch` of arrays. An
episode's list of ``Transition`` objects becomes one through
:func:`as_batch`; the replay memory (DQN's, and the actor-critic's TD
term) stores rows in preallocated arrays round a ring and samples a
``Batch`` straight from them. It keeps each row at its information size:
one state per row as one bit per feature (the observation is almost all
exact 0.0 and 1.0), with float64 values only for the columns that have
held anything else, and ``int8`` action ids and acting-head counts. A
row's next state is the next row's state; only terminal rows, the newest
row and rows whose successor does not continue them keep a next state of
their own, packed the same way. Rows go in as blocks: the actor-critic
pushes a finished episode from the ``Batch`` its gradients were taken
on, and DQN writes the rows it has recorded just before each sample and
at each episode's end.
DQN, PPO and the actor-critic take their gradients into buffers they
own, so an update allocates no parameter-sized arrays.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
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
#: The counts and periods of ``AgentConfig``; each divides or bounds a loop.
_COUNTS = ("target_refresh", "dqn_update_interval", "ppo_epochs",
           "meta_inner_episodes", "meta_tasks_per_update")


@dataclass(frozen=True)
class AgentConfig:
    gamma: float = 0.85
    learning_rate: float = 1e-4  # SGD step of DQN and PPO; see AC_LEARNING_RATE
    hidden: tuple[int, ...] = (64, 64)
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

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("discount must lie in (0, 1]")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.replay_capacity < 1 or self.minibatch < 1:
            raise ValueError("replay capacity and minibatch must be positive")
        if self.minibatch > self.replay_capacity:
            # The memory would never hold a minibatch: DQN would never update
            # and the actor-critic never add its replay term.
            raise ValueError(f"minibatch ({self.minibatch}) must not exceed "
                             f"replay_capacity ({self.replay_capacity})")
        if not 0.0 <= self.ppo_clip < 1.0:
            raise ValueError("clip range must lie in [0, 1)")
        if not 0.0 <= self.meta_fraction < 1.0:
            raise ValueError("meta fraction must lie in [0, 1)")
        for name in _COUNTS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class Transition:
    state: np.ndarray
    action: tuple[int, ...]
    reward: float
    next_state: np.ndarray
    done: bool
    #: One reward per acting UAV, summing to ``reward``.
    uav_rewards: np.ndarray


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
    rows = rewards.reshape(len(rewards), width).tolist()
    acc, out = [0.0] * width, []
    for row in reversed(rows):
        acc = [r + gamma * a for r, a in zip(row, acc)]
        out.append(acc)
    out.reverse()
    return np.array(out, dtype=np.float64).reshape(rewards.shape)


# --- actor-critic -------------------------------------------------------------

@dataclass
class Batch:
    """Transitions as arrays, the one form every gradient reads.

    ``reward`` and ``live`` (0.0 after a terminal step, else 1.0) are the
    team reward and bootstrap mask DQN reads. The value losses read one
    reward column per UAV slot (zero for idle slots). ``active`` masks the
    columns a value loss counts and ``boot`` the bootstrap values V(s') a
    TD target may use: none after a terminal step, and per UAV none for a
    slot idle in s' (read from the state's trailing active-count feature).
    """

    states: np.ndarray       # [B, state_dim]
    next_states: np.ndarray  # [B, state_dim]
    reward: np.ndarray       # [B] team reward
    live: np.ndarray         # [B]
    acts: np.ndarray         # [B, heads] action ids, as action_arrays
    acting: np.ndarray       # [B, heads] heads that acted
    active: np.ndarray       # [B, heads] ``acting`` as 1.0 / 0.0
    rewards: np.ndarray      # [B, heads]
    boot: np.ndarray         # [B, heads]

    @classmethod
    def build(cls, states, next_states, reward, uav_rewards, done, acts, acting) -> "Batch":
        """The batch of rows given as arrays: ``uav_rewards`` [B, heads] is
        zero-padded past each row's acting heads."""
        heads = acting.shape[1]
        live = np.where(done, 0.0, 1.0)
        active = acting.astype(np.float64)
        next_active = np.arange(heads) < np.rint(next_states[:, -1] * heads)[:, None]
        return cls(states, next_states, reward, live, acts, acting, active,
                   uav_rewards, live[:, None] * next_active)

    @property
    def onehot(self) -> np.ndarray:
        """[B, heads, N_ACTIONS] one-hot taken actions (action 0 on idle heads)."""
        return np.eye(N_ACTIONS)[self.acts]


def action_arrays(actions: Sequence[tuple[int, ...]], heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint actions as ``(acts[B, heads], acting[B, heads])``: action ids
    in the head slots that acted (a prefix of the slots), 0 elsewhere."""
    acting = np.arange(heads) < np.array([len(a) for a in actions])[:, None]
    acts = np.zeros(acting.shape, dtype=np.int64)
    acts[acting] = [a for joint in actions for a in joint]  # row-major fill
    return acts, acting


def as_batch(transitions: Sequence[Transition], heads: int) -> Batch:
    """A list of transitions (an episode, say) as a :class:`Batch`."""
    acts, acting = action_arrays([t.action for t in transitions], heads)
    uav_rewards = np.zeros(acting.shape)
    uav_rewards[acting] = np.concatenate([t.uav_rewards for t in transitions])
    return Batch.build(
        np.stack([t.state for t in transitions]),
        np.stack([t.next_state for t in transitions]),
        np.array([t.reward for t in transitions], dtype=np.float64),
        uav_rewards, np.array([t.done for t in transitions], dtype=bool),
        acts, acting,
    )


def _untouched_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Zeros on fresh anonymous pages, so only the pages later written to
    become resident. (``np.zeros`` may take heap memory that ``calloc``
    clears in full, or ask for huge pages.)"""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype, count).reshape(shape)


#: The bit pattern of 1.0, the one state value besides +0.0 a bit holds.
_ONE_BITS = np.float64(1.0).view(np.uint64)
#: A kept next state, ``(bits, cols, values)``: see ``ReplayMemory._pack``.
_Packed = tuple[np.ndarray, np.ndarray, np.ndarray]


class ReplayMemory:
    """The last ``capacity`` transitions, sampled uniformly as a :class:`Batch`.

    Rows live in preallocated arrays, filled in push order round a ring,
    each at its information size: the state as one bit per feature
    (``np.packbits`` order, [capacity, ceil(state_dim / 8)] bytes), the
    team reward, the per-UAV reward columns, the done flag, the action
    ids as ``int8`` (laid out as :func:`action_arrays` does) and the
    count of acting heads as ``int8``. A bit holds a feature that is
    exactly +0.0 or 1.0, which almost every feature of the coverage
    observation is. The columns that have ever held any other bit
    pattern (-0.0 and NaN included) are found from the pushed states and
    keep their float64 values in ``exact``, one column per entry of
    ``exact_cols``; a push that first shows such a column widens
    ``exact`` and copies only the rows already written, the new columns
    from their bits. A sampled state is rebuilt from both, bit for bit.

    A row's next state is the next row's state, so no second state array
    exists. A next state is kept on its own only where that chaining
    would be wrong: for a terminal row, for the newest row (its
    successor is not pushed yet), and for a row whose successor's state
    is not its next state bit for bit. It is kept packed the same way,
    as its bits and the float64 values of the columns they cannot give:
    ``exact_cols`` at the time, plus any column in which it holds a
    pattern no pushed state has shown. The arrays sit on untouched pages
    until rows are written, so a memory that fills a few hundred of its
    rows holds only those.

    :meth:`push` writes one transition, :meth:`push_rows` a block of them
    in order (DQN's recorded steps) and :meth:`push_batch` a block given
    as a :class:`Batch` (a finished episode); all are the same write.
    """

    def __init__(self, capacity: int, state_dim: int, heads: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if heads > np.iinfo(np.int8).max:
            raise ValueError(f"at most {np.iinfo(np.int8).max} heads fit the int8 head count")
        self.capacity = capacity
        self.state_dim = state_dim
        self.heads = heads
        self.states = _untouched_zeros((capacity, -(-state_dim // 8)), np.uint8)
        #: The columns that have held a value other than +0.0 or 1.0, in
        #: the order they first did, and their values by row.
        self.exact_cols = np.zeros(0, dtype=np.intp)
        self.exact = _untouched_zeros((capacity, 0), np.float64)
        #: All bits set in the columns that ``states`` holds, none in the others.
        self._bit_cols = np.full(state_dim, np.iinfo(np.uint64).max, dtype=np.uint64)
        self.reward = _untouched_zeros((capacity,), np.float64)
        self.uav_rewards = _untouched_zeros((capacity, heads), np.float64)
        self.done = _untouched_zeros((capacity,), bool)
        self.acts = _untouched_zeros((capacity, heads), np.int8)
        self.acting_count = _untouched_zeros((capacity,), np.int8)
        #: The next states kept on their own, by row, packed by :meth:`_pack`.
        self.next_states: dict[int, _Packed] = {}
        self._prefix = np.arange(heads) < np.arange(heads + 1)[:, None]  # acting rows by count
        self._size = 0
        self._slot = 0  # the row the next push writes

    def push(self, transition: Transition) -> None:
        """One transition: the one-row case of :meth:`push_rows`."""
        self.push_rows([transition])

    def push_rows(self, transitions: Sequence[Transition]) -> None:
        """The transitions, in order, as one block: the same write as that
        many :meth:`push` calls."""
        counts = [len(t.action) for t in transitions]
        acts = np.zeros((len(counts), self.heads), dtype=np.int8)
        uav_rewards = np.zeros((len(counts), self.heads))
        for i, (t, k) in enumerate(zip(transitions, counts)):
            acts[i, :k] = t.action
            uav_rewards[i, :k] = t.uav_rewards
        self._write(
            np.array([t.state for t in transitions], dtype=np.float64),
            np.array([t.next_state for t in transitions], dtype=np.float64),
            np.array([t.reward for t in transitions], dtype=np.float64), uav_rewards,
            np.array([t.done for t in transitions]), acts, counts,
        )

    def push_batch(self, batch: Batch) -> None:
        """The batch's rows, in order, as :meth:`push_rows` writes them."""
        self._write(np.asarray(batch.states, dtype=np.float64),
                    np.asarray(batch.next_states, dtype=np.float64), batch.reward,
                    batch.rewards, batch.live == 0.0, batch.acts,
                    np.count_nonzero(batch.acting, axis=1))

    def _write(self, states, next_states, reward, uav_rewards, done, acts, counts) -> None:
        """Write rows from the ring's next row on; ``uav_rewards`` and
        ``acts`` are zero past each row's ``counts`` acting heads."""
        s, n = self._slot, len(states)
        if s + n > self.capacity:  # up to the ring's end, then from row 0 on
            cut = self.capacity - s
            columns = (states, next_states, reward, uav_rewards, done, acts, counts)
            self._write(*(a[:cut] for a in columns))
            self._write(*(a[cut:] for a in columns))
            return
        end = s + n
        prev = s - 1 if s else self.capacity - 1  # the newest row so far
        # Row prev stops keeping its next state if this write continues it
        # (and leaves it in the ring).
        if self._size and n < self.capacity and not self.done[prev]:
            if self._unpack(self.next_states[prev]).tobytes() == states[0].tobytes():
                del self.next_states[prev]
        if self.next_states:
            for row in range(s, end):  # the rows overwritten
                self.next_states.pop(row, None)

        bits = states.view(np.uint64)
        masked = bits & self._bit_cols  # 0 in the exact columns
        ones = masked == _ONE_BITS
        if np.count_nonzero(masked) != np.count_nonzero(ones):
            # Some bit column holds neither +0.0 nor 1.0: it becomes exact
            # (and its bits from here on are never read).
            self._add_exact(np.flatnonzero(((masked != 0) > ones).any(axis=0)))
        self.states[s:end] = np.packbits(ones, axis=1)
        np.take(states, self.exact_cols, axis=1, out=self.exact[s:end])
        self.reward[s:end] = reward
        self.uav_rewards[s:end] = uav_rewards
        self.done[s:end] = done
        self.acts[s:end] = acts
        self.acting_count[s:end] = counts

        keep = np.array(done, dtype=bool)  # terminal rows, the newest row, and
        keep[-1] = True                    # rows whose successor does not continue them
        if n > 1:
            keep[:-1] |= (next_states[:-1].view(np.uint64) != bits[1:]).any(axis=1)
        rows = np.flatnonzero(keep)
        for row, packed in zip(rows.tolist(), self._pack(next_states[rows])):
            self.next_states[s + row] = packed
        self._size = max(self._size, end)
        self._slot = end if end < self.capacity else 0

    def _pack(self, states: np.ndarray) -> list[_Packed]:
        """Each state as ``(bits, cols, values)``: its features packed as
        the ``states`` rows are, and its exact values in ``cols``, which are
        ``exact_cols`` plus the columns where it alone holds a value other
        than +0.0 or 1.0."""
        masked = states.view(np.uint64) & self._bit_cols
        ones = masked == _ONE_BITS
        stray = (masked != 0) > ones
        packed = np.packbits(ones, axis=1)
        values = states[:, self.exact_cols]
        out = []
        for i, odd in enumerate(stray.any(axis=1).tolist()):
            if odd:
                cols = np.concatenate([self.exact_cols, np.flatnonzero(stray[i])])
                out.append((packed[i], cols, states[i, cols]))
            else:
                out.append((packed[i], self.exact_cols, values[i]))
        return out

    def _unpack(self, packed: _Packed) -> np.ndarray:
        """The float64 state :meth:`_pack` packed, bit for bit."""
        bits, cols, values = packed
        state = np.unpackbits(bits, count=self.state_dim).astype(np.float64)
        state[cols] = values
        return state

    def _add_exact(self, cols: np.ndarray) -> None:
        """Give ``cols`` float64 storage. The rows written so far held only
        +0.0 and 1.0 there, so their bits give the values: feature ``c`` is
        bit ``7 - c % 8`` of byte ``c // 8``, as ``np.packbits`` lays it out."""
        held, old = self._size, self.exact
        self.exact_cols = np.concatenate([self.exact_cols, cols])
        self.exact = _untouched_zeros((self.capacity, len(self.exact_cols)), np.float64)
        self.exact[:held, : old.shape[1]] = old[:held]
        shift = (7 - cols % 8).astype(np.uint8)
        self.exact[:held, old.shape[1]:] = (self.states[:held, cols // 8] >> shift) & 1
        self._bit_cols[cols] = 0

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """``n`` distinct transitions, drawn as ``rng.choice`` over the held
        ones ordered oldest first."""
        if n > self._size:
            raise ValueError("cannot sample more transitions than stored")
        rows = rng.choice(self._size, size=n, replace=False)
        if self._size == self.capacity:  # the oldest row is the next one written
            rows = (rows + self._slot) % self.capacity
        after = rows + 1
        after[after == self.capacity] = 0
        # Each row's state and the next row's, unpacked bit for bit as pushed.
        both = np.concatenate([rows, after])
        decoded = np.unpackbits(self.states[both], axis=1, count=self.state_dim).astype(np.float64)
        decoded[:, self.exact_cols] = self.exact[both]
        states, next_states = decoded[:n], decoded[n:]
        for i, row in enumerate(rows.tolist()):
            own = self.next_states.get(row)
            if own is not None:
                next_states[i] = self._unpack(own)
        return Batch.build(
            states, next_states, self.reward[rows], self.uav_rewards[rows], self.done[rows],
            self.acts[rows].astype(np.int64), self._prefix[self.acting_count[rows]],
        )

    def __len__(self) -> int:
        return self._size


def actor_critic_accumulate(
    params: PolicyParams,
    episode: Batch,
    gamma: float,
    acc: GradAccumulator,
    scratch: GradAccumulator | None = None,
) -> None:
    """Add the gradients of one episode, as :func:`as_batch` lays it out,
    at the current weights to ``acc``.

    Actor: ascent direction of
      sum_t sum_i [log pi_i(a_ti | s_t) * A_ti + ENTROPY_WEIGHT * H(pi_i(. | s_t))]
    over the heads i that acted at step t, with head i's one-step TD error
    A_ti = r_ti + gamma * V_i(s'_t) - V_i(s_t) on UAV i's own reward.
    Critic: descent direction of sum_t sum_i (R_ti - V_i(s_t))^2 over the
    same heads, with R_ti UAV i's discounted reward-to-go. Each gradient is
    taken into ``scratch`` when given (see :func:`nets.grad_buffers`)
    before it is added to ``acc``.
    """
    b = episode
    if not len(b.states):
        raise ValueError("cannot accumulate over an empty episode")
    logits, probs, a_cache = policy_forward(params.actor, b.states, params.actor_cfg, params.heads)
    values, v_cache = nets.forward(params.critic, b.states, params.critic_cfg)
    next_values, _ = nets.forward(params.critic, b.next_states, params.critic_cfg)
    adv = b.rewards + gamma * b.boot * next_values - values

    mask = b.active[:, :, None]
    dlogits = adv[:, :, None] * (b.onehot - probs) * mask
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    ent = -(probs * logp).sum(axis=-1, keepdims=True)
    dlogits -= ENTROPY_WEIGHT * probs * (logp + ent) * mask  # dH/dz = -p (log p + H)
    d_actor = nets.backward(
        params.actor, a_cache, dlogits.reshape(len(b.states), -1), params.actor_cfg,
        out=None if scratch is None else scratch.d_actor,
    )
    returns = discounted_returns(b.rewards, gamma)
    dvals = -2.0 * ((returns - values) * b.active)
    d_critic = nets.backward(params.critic, v_cache, dvals, params.critic_cfg,
                             out=None if scratch is None else scratch.d_critic)
    nets.add_scaled(acc.d_actor, d_actor, 1.0)
    nets.add_scaled(acc.d_critic, d_critic, 1.0)


def critic_td_accumulate(
    params: PolicyParams,
    batch: Batch,
    gamma: float,
    acc: GradAccumulator,
    scratch: GradAccumulator | None = None,
) -> None:
    """Add the replay minibatch one-step TD term to the critic gradient.

    Descent direction of sum_i (r_i + gamma * V_i(s') - V_i(s))^2 over the
    acting heads, as in :func:`actor_critic_accumulate`, which ``scratch``
    also follows. Semi-gradient: the bootstrap target gamma * V(s') is held
    constant.
    """
    values, cache = nets.forward(params.critic, batch.states, params.critic_cfg)
    next_values, _ = nets.forward(params.critic, batch.next_states, params.critic_cfg)
    targets = batch.rewards + gamma * batch.boot * next_values
    dvals = -2.0 * ((targets - values) * batch.active)
    grads = nets.backward(params.critic, cache, dvals, params.critic_cfg,
                          out=None if scratch is None else scratch.d_critic)
    nets.add_scaled(acc.d_critic, grads, 1.0)


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
    batch: Batch,
    gamma: float,
    cfg: nets.NetConfig,
    heads: int,
    out: dict | None = None,
) -> tuple[float, dict]:
    """Squared TD error of per-UAV Q heads against a frozen target net.

    Each acting head's target is r + gamma * max_a' Q_target(s', a') with
    the team reward r; the loss sums the errors in transition-then-head
    order. The gradient goes into ``out`` when given (see
    :func:`nets.backward`).
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
    grads = nets.backward(q_params, cache, dq.reshape(n, -1), cfg, out=out)
    return loss, grads


def dqn_update(
    q_params: dict,
    target_params: dict,
    batch: Batch,
    gamma: float,
    lr: float,
    cfg: nets.NetConfig,
    heads: int,
    grads: dict | None = None,
) -> float:
    """One semi-gradient descent step on the TD loss; returns the loss.

    The gradient is taken into ``grads`` when given (the learner's own
    buffers, see :func:`nets.grad_buffers`) and scaled there in place."""
    loss, grads = dqn_loss_and_grad(q_params, target_params, batch, gamma, cfg, heads, out=grads)
    _step(q_params, grads, -lr)
    return loss


def _step(params: dict, grads: dict, scale: float) -> None:
    """``nets.add_scaled(params, grads, scale)`` with the scaled gradient
    formed in ``grads`` itself (the same products, no temporaries)."""
    for g in grads.values():
        g *= scale
    nets.add_scaled(params, grads, 1.0)


# --- PPO ----------------------------------------------------------------------

def joint_log_prob(probs: np.ndarray, acts: np.ndarray, acting: np.ndarray) -> np.ndarray:
    """Log probability of each joint action, given as :func:`action_arrays`,
    under per-UAV distributions, each head's probability floored at 1e-12.
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
    states: np.ndarray,
    acts: np.ndarray,
    acting: np.ndarray,
    onehot: np.ndarray,
    advantages: np.ndarray,
    clip_eps: float,
    cfg: nets.NetConfig,
    out: dict | None = None,
    forwarded: tuple[np.ndarray, list] | None = None,
) -> tuple[float, dict]:
    """Clipped surrogate objective and its ascent gradient.

    The batch comes as its stacked states, its joint actions as
    :func:`action_arrays` and their one-hot rows ``np.eye(N_ACTIONS)[acts]``,
    all fixed for a whole update. Per sample: min(rho * A, clip(rho, 1 -
    eps, 1 + eps) * A) with the joint-action probability ratio rho =
    exp(log pi(a|s) - logp_old), where ``logp_old`` is the pre-update
    policy's :func:`joint_log_prob` of each sample. The unclipped branch is
    used only where it is strictly smaller; elsewhere the clipped branch
    contributes a gradient only strictly inside the clip window, so a
    zero-width window pins the ratio and kills the actor gradient.

    ``forwarded`` is ``(probs, cache)`` of :func:`policy_forward` of
    ``actor`` on ``states`` when the caller has them; ``out`` takes the
    gradient (see :func:`nets.backward`).
    """
    if forwarded is None:
        _, probs, cache = policy_forward(actor, states, cfg, acts.shape[1])
    else:
        probs, cache = forwarded
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
    grads = nets.backward(actor, cache, dlogits.reshape(len(states), -1), cfg, out=out)
    return objective, grads


def ppo_update(
    params: PolicyParams,
    rollout: Sequence[Transition],
    clip_eps: float,
    epochs: int,
    gamma: float,
    lr: float,
    grads: GradAccumulator | None = None,
) -> None:
    """Several clipped-surrogate epochs on one rollout, plus critic fits.

    Advantages are reward-to-go minus the pre-update critic's values, and
    the ratios are taken against the pre-update actor's joint
    log-probabilities; both, and the rollout's arrays, are computed once,
    before the first epoch. The first epoch's weights are the pre-update
    ones, so it reuses those two forward passes. The gradients are taken
    into ``grads`` when given (the learner's own buffers) and scaled
    there in place.
    """
    if not rollout:
        raise ValueError("cannot update from an empty rollout")
    if epochs < 1:
        raise ValueError("need at least one epoch")
    states = np.stack([t.state for t in rollout])
    acts, acting = action_arrays([t.action for t in rollout], params.heads)
    onehot = np.eye(N_ACTIONS)[acts]
    returns = discounted_returns([t.reward for t in rollout], gamma)
    values, v_cache = value_forward(params.critic, states, params.critic_cfg)
    adv = returns - values
    _, probs_old, a_cache = policy_forward(params.actor, states, params.actor_cfg, params.heads)
    logp_old = joint_log_prob(probs_old, acts, acting)
    forwarded = probs_old, a_cache
    d_actor, d_critic = (None, None) if grads is None else (grads.d_actor, grads.d_critic)
    for epoch in range(epochs):
        _, g_actor = ppo_surrogate_and_grad(
            params.actor, logp_old, states, acts, acting, onehot, adv, clip_eps,
            params.actor_cfg, out=d_actor, forwarded=forwarded,
        )
        _step(params.actor, g_actor, +lr)
        if epoch:  # the actor step leaves the critic as it was before epoch 0
            values, v_cache = value_forward(params.critic, states, params.critic_cfg)
        dvals = (-2.0 * (returns - values))[:, None]
        g_critic = nets.backward(params.critic, v_cache, dvals, params.critic_cfg, out=d_critic)
        _step(params.critic, g_critic, -lr)
        forwarded = None


# --- meta loop ------------------------------------------------------------------

def run_training_episode(env, task, learner, rng: np.random.Generator) -> dict:
    """One full episode of interaction and learning; returns episode stats."""
    state = env.reset(task, rng_seed=int(rng.integers(2**63 - 1)))
    while True:
        actions = learner.act(state, rng)
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
    advantages, an entropy bonus, a replay-refined critic and Adam.

    The Adam state belongs to the parameters it was built for: a new
    learner, or a learner whose ``params`` are replaced, starts afresh.
    """

    def __init__(self, params: PolicyParams, cfg: AgentConfig) -> None:
        self.params = params
        self.cfg = cfg
        self.memory = ReplayMemory(cfg.replay_capacity, params.actor_cfg.input_dim, params.heads)
        self._episode: list[Transition] = []
        self._optimised: PolicyParams | None = None

    def act(self, state, rng) -> tuple[int, ...]:
        return _policy_act(self.params, state, rng)

    def record(self, transition: Transition) -> None:
        self._episode.append(transition)

    def finish_episode(self, rng) -> None:
        if not self._episode:
            return
        params = self.params
        if self._optimised is not params:
            self._actor_opt = Adam(params.actor_cfg, AC_LEARNING_RATE, +1.0)
            self._critic_opt = Adam(params.critic_cfg, AC_LEARNING_RATE, -1.0)
            self._scratch = GradAccumulator(nets.grad_buffers(params.actor_cfg),
                                            nets.grad_buffers(params.critic_cfg))
            self._optimised = params
        acc = GradAccumulator(self._actor_opt.grads, self._critic_opt.grads)
        episode = as_batch(self._episode, params.heads)
        actor_critic_accumulate(params, episode, self.cfg.gamma, acc, self._scratch)
        # The memory is read only from here on, so the episode goes in as
        # one block, from the batch its gradients were taken on.
        self.memory.push_batch(episode)
        if len(self.memory) >= self.cfg.minibatch:
            batch = self.memory.sample(self.cfg.minibatch, rng)
            critic_td_accumulate(params, batch, self.cfg.gamma, acc, self._scratch)
        self._actor_opt.step(params.actor)
        self._critic_opt.step(params.critic)
        self._episode = []


class DQNLearner:
    """Factorised per-UAV Q-learning with a periodically frozen target.

    Exploration is epsilon-greedy on a linear schedule over the
    ``episodes`` the learner is built for: the k-th episode it plays acts
    with ``epsilon_at(k, episodes, cfg)``.
    """

    def __init__(
        self, state_dim: int, heads: int, cfg: AgentConfig, rng: np.random.Generator,
        episodes: int,
    ) -> None:
        self.cfg = cfg
        self.net_cfg = nets.NetConfig(state_dim, cfg.hidden, heads * N_ACTIONS)
        self.heads = heads
        self.q = nets.init_params(self.net_cfg, rng)
        self.target = nets.clone_params(self.q)
        self.memory = ReplayMemory(cfg.replay_capacity, state_dim, heads)
        self._pending: list[Transition] = []  # recorded, not yet in the memory
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

    def record(self, transition: Transition) -> None:
        """Keep the transition and, every ``dqn_update_interval`` steps once
        the memory would hold a minibatch, write the kept rows to it as one
        block and take an update from a sample. The memory is the same at
        every sample as with a push per step."""
        self._pending.append(transition)
        self._steps += 1
        if (len(self.memory) + len(self._pending) >= self.cfg.minibatch
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
        self._finished += 1
        self.epsilon = epsilon_at(self._finished, self.episodes, self.cfg)

    def _flush(self) -> None:
        """Write the pending transitions to the memory as one block."""
        if self._pending:
            self.memory.push_rows(self._pending)
            self._pending = []


class PPOLearner:
    """One-episode rollouts with several clipped-surrogate epochs."""

    def __init__(self, params: PolicyParams, cfg: AgentConfig) -> None:
        self.params = params
        self.cfg = cfg
        self._rollout: list[Transition] = []
        self._grads = GradAccumulator(nets.grad_buffers(params.actor_cfg),
                                      nets.grad_buffers(params.critic_cfg))

    def act(self, state, rng) -> tuple[int, ...]:
        return _policy_act(self.params, state, rng)

    def record(self, transition: Transition) -> None:
        self._rollout.append(transition)

    def finish_episode(self, rng) -> None:
        if not self._rollout:
            return
        ppo_update(
            self.params, self._rollout, self.cfg.ppo_clip, self.cfg.ppo_epochs,
            self.cfg.gamma, self.cfg.learning_rate, self._grads,
        )
        self._rollout = []


class RandomPolicy:
    """Uniform action baseline; never learns."""

    def __init__(self, heads: int) -> None:
        self.heads = heads

    def act(self, state, rng) -> tuple[int, ...]:
        active = _active_count(state, self.heads)
        return tuple(int(a) for a in rng.integers(0, N_ACTIONS, size=active))

    def record(self, transition: Transition) -> None:
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


ALGORITHMS = ("meta_rl", "actor_critic", "dqn", "ppo", "random")


def make_learner(
    algorithm: str,
    state_dim: int,
    heads: int,
    cfg: AgentConfig,
    rng: np.random.Generator,
    episodes: int,
):
    """A fresh learner for a run of ``episodes`` episodes (the length of
    DQN's exploration schedule)."""
    if algorithm in ("actor_critic", "meta_rl"):
        return ActorCriticLearner(
            make_policy_params(state_dim, heads, cfg, rng, critic_outputs=heads), cfg)
    if algorithm == "ppo":
        return PPOLearner(make_policy_params(state_dim, heads, cfg, rng, critic_outputs=1), cfg)
    if algorithm == "dqn":
        return DQNLearner(state_dim, heads, cfg, rng, episodes)
    if algorithm == "random":
        return RandomPolicy(heads)
    raise ValueError(f"unknown algorithm {algorithm!r} (known: {', '.join(ALGORITHMS)})")
