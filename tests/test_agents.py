"""Learners and their gradients.

Every analytic gradient (actor term, critic loss, TD loss, clipped
surrogate) is checked against central finite differences on networks
small enough to difference exhaustively.
"""

import copy
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcover import agents as ag
from swarmcover import env as envmod
from swarmcover import mission as ms
from swarmcover import nets
from conftest import make_env, small_env
from fdcheck import (add_scaled, assert_grad_close, backward, flatten_params, zero_grads,
                     zeros_like_params)
from transitions import Transition, action_arrays, as_batch, finished_episode, transitions_of

N_ACTIONS = ag.N_ACTIONS


def tiny_params(state_dim: int = 3, heads: int = 1, hidden=(2,), seed: int = 0) -> ag.PolicyParams:
    """Small nets with the actor-critic's per-slot critic (one output per head)."""
    cfg = ag.AgentConfig(hidden=hidden)
    return ag.make_policy_params(state_dim, heads, cfg, np.random.default_rng(seed),
                                 critic_outputs=heads)


def random_batch(params: ag.PolicyParams, n: int, seed: int = 0) -> list[Transition]:
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
        batch.append(Transition(state, action, float(uav_rewards.sum()), next_state,
                                bool(rng.random() < 0.2), uav_rewards))
    return batch


def assert_bits_equal(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_same_batch(got: ag.Batch, want: ag.Batch) -> None:
    for name, value in vars(want).items():
        if value is None:
            assert getattr(got, name) is None, name
        else:
            assert_bits_equal(getattr(got, name), value)


# --- replay memory ---------------------------------------------------------------

class DequeReplayMemory:
    """Reference: the transition-object store the array memory replaced."""

    def __init__(self, capacity: int) -> None:
        self.buffer = deque(maxlen=capacity)

    def push(self, transition: Transition) -> None:
        self.buffer.append(transition)

    def sample(self, n: int, rng: np.random.Generator) -> list[Transition]:
        if n > len(self.buffer):
            raise ValueError("cannot sample more transitions than stored")
        picks = rng.choice(len(self.buffer), size=n, replace=False)
        return [self.buffer[int(i)] for i in picks]

    def __len__(self) -> int:
        return len(self.buffer)


def reference_batch(batch: list[Transition], heads: int) -> ag.Batch:
    """Reference: the transition-list batch builder the array memory
    replaced, each field that DQN reads built as it built it, and no
    per-UAV rewards, which a replay sample does not carry."""
    acts, acting = action_arrays([t.action for t in batch], heads)
    live = np.array([0.0 if t.done else 1.0 for t in batch])
    return ag.Batch(np.stack([t.state for t in batch]), np.stack([t.next_state for t in batch]),
                    np.array([t.reward for t in batch]), live, acts, acting, None)


#: Values a declared real column holds bit for bit: -0.0, NaNs (one with a
#: payload), subnormals and ordinary reals, some one ulp from 0.0 or 1.0.
ODD_VALUES = np.array([-0.0, np.nan, -np.nan, 5e-324, -1e-310, 0.5, -1.0, 2.0,
                       np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1e300])
ODD_VALUES[2:3].view(np.uint64)[0] = 0x7FF0000000000001  # a NaN with a payload


def declared_columns(rng: np.random.Generator, dim: int) -> tuple[int, ...]:
    """A few real columns and the trailing active-count column, as the env
    declares its demand and swarm-size fractions."""
    real = rng.choice(dim - 1, size=int(rng.integers(0, min(3, dim - 1) + 1)), replace=False)
    return tuple(sorted(real.tolist())) + (dim - 1,)


def random_episode(rng: np.random.Generator, slots: int, dim: int, heads: int,
                   real_cols: tuple[int, ...], least: int = 1) -> envmod.EpisodeArrays:
    """An episode laid out as the env writes one, of ``least``..slots steps
    with the last one terminal: 0/1 features but in ``real_cols``, which
    hold reals and the odd patterns, and the active count over ``heads``
    last."""
    uavs, steps = int(rng.integers(1, heads + 1)), int(rng.integers(least, slots + 1))
    obs = (rng.random((slots + 1, dim)) < 0.3).astype(np.float64)
    values = np.round(rng.normal(size=(slots + 1, len(real_cols))), 1)
    odd = rng.random(values.shape) < 0.2
    values[odd] = rng.choice(ODD_VALUES, size=int(odd.sum()))
    obs[:, list(real_cols)] = values
    obs[:, -1] = uavs / heads
    acts = np.zeros((slots, heads), dtype=np.int64)
    acts[:, :uavs] = rng.integers(0, N_ACTIONS, size=(slots, uavs))
    uav_rewards = np.zeros((slots, heads))
    uav_rewards[:, :uavs] = np.round(rng.normal(size=(slots, uavs)), 1)
    done = np.arange(slots) == steps - 1
    return envmod.EpisodeArrays(obs, acts, uav_rewards, uav_rewards.sum(axis=1), done, steps)


def write_in_blocks(rng: np.random.Generator, episode: envmod.EpisodeArrays):
    """Random ``(start, stop)`` blocks covering the episode's steps in order."""
    start = 0
    while start < episode.steps:
        stop = int(rng.integers(start + 1, episode.steps + 1))
        yield start, stop
        start = stop


def assert_same_memory(got: ag.ReplayMemory, want: ag.ReplayMemory) -> None:
    """Equal contents: the same rows and kept next states, and bit-equal
    samples of everything held."""
    assert len(got) == len(want)
    assert got.next_states.keys() == want.next_states.keys()
    for row, kept in want.next_states.items():
        for a, b in zip(got.next_states[row], kept):
            assert_bits_equal(a, b)
    for name in ("states", "exact", "reward", "done", "acts"):
        assert_bits_equal(getattr(got, name)[:len(got)], getattr(want, name)[:len(want)])
    mine, theirs = np.random.default_rng(len(got)), np.random.default_rng(len(got))
    assert_same_batch(got.sample(len(got), mine), want.sample(len(want), theirs))


def assert_samples_match(mem: ag.ReplayMemory, ref: DequeReplayMemory, heads: int, n: int,
                         seed: int) -> tuple[ag.Batch, list[Transition]]:
    """``n`` rows sampled from the memory and from the reference with the
    same draws, bit for bit; returns both samples."""
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = mem.sample(n, mine)
    drawn = ref.sample(n, theirs)
    assert mine.bit_generator.state == theirs.bit_generator.state
    assert_same_batch(got, reference_batch(drawn, heads))
    return got, drawn


def test_replay_evicts_oldest_first():
    mem = ag.ReplayMemory(2, 3, 1, (2,))
    episode = random_episode(np.random.default_rng(0), 3, 3, 1, (2,), least=3)
    episode.reward[:] = [1.0, 2.0, 3.0]
    mem.write(episode, 0, 3)
    assert len(mem) == 2
    held = mem.sample(2, np.random.default_rng(0))
    assert sorted(held.reward.tolist()) == [2.0, 3.0]
    for i, r in enumerate(held.reward.tolist()):
        t = int(r) - 1
        assert_bits_equal(held.states[i], episode.obs[t])
        assert_bits_equal(held.next_states[i], episode.obs[t + 1])


def test_replay_full_sample_is_permutation():
    rng = np.random.default_rng(1)
    heads, dim, real = 3, 6, (2, 5)
    mem = ag.ReplayMemory(5, dim, heads, real)
    episode = random_episode(rng, 5, dim, heads, real, least=5)
    episode.reward[:] = np.arange(5.0)  # each names the step its row came from
    uavs = round(episode.obs[0, -1] * heads)
    mem.write(episode, 0, 5)
    drawn = mem.sample(5, np.random.default_rng(1))
    assert sorted(drawn.reward.tolist()) == list(range(5))
    for i, t in enumerate(drawn.reward.astype(int).tolist()):
        assert_bits_equal(drawn.states[i], episode.obs[t])
        assert_bits_equal(drawn.next_states[i], episode.obs[t + 1])
        assert drawn.live[i] == (0.0 if t == 4 else 1.0)
        assert_bits_equal(drawn.acts[i], episode.acts[t])
        assert_bits_equal(drawn.acting[i], np.arange(heads) < uavs)


def test_replay_sampling_deterministic():
    rng = np.random.default_rng(2)
    mem = ag.ReplayMemory(10, 4, 2, (3,))
    while len(mem) < 10:
        episode = random_episode(rng, 4, 4, 2, (3,))
        mem.write(episode, 0, episode.steps)
    a = mem.sample(4, np.random.default_rng(7))
    b = mem.sample(4, np.random.default_rng(7))
    assert_same_batch(a, b)


def test_a_swarm_of_k_in_h_slots_acts_on_exactly_k_heads():
    # The env writes the swarm-size feature as k / h; a batch built from
    # such rows, and a replay sample of them, read back exactly k acting
    # heads (and k bootstrap heads) for every 1 <= k <= h <= 64.
    for heads in range(1, 65):
        obs = np.zeros((heads + 1, 2))
        obs[:, -1] = [k / heads for k in range(1, heads + 1)] + [1.0]
        want = np.arange(heads) < np.arange(1, heads + 1)[:, None]
        built = ag.Batch.build(obs[:-1], obs[:-1], np.zeros(heads), np.zeros((heads, heads)),
                               np.zeros(heads, dtype=bool), np.zeros((heads, heads), np.int64))
        assert_bits_equal(built.acting, want)
        assert_bits_equal(built.boot, want.astype(np.float64))
        episode = envmod.EpisodeArrays(obs, np.zeros((heads, heads), np.int64),
                                       np.zeros((heads, heads)), np.arange(1.0, heads + 1),
                                       np.arange(heads) == heads - 1, heads)
        mem = ag.ReplayMemory(heads, 2, heads, (1,))
        mem.write(episode, 0, heads)
        drawn = mem.sample(heads, np.random.default_rng(heads))
        assert_bits_equal(drawn.acting, want[drawn.reward.astype(int) - 1])


def fed_in_blocks(cases: np.random.Generator):
    """Random episodes, each written in random blocks of steps (as DQN
    writes) to one memory, a step at a time to another and as transitions
    to the deque; yields ``(memory, per_step, deque, wrapped)`` after each
    block, ``wrapped`` when the ring wrapped inside it. The ring is small,
    so it wraps inside blocks and blocks outrun it."""
    heads, dim = int(cases.integers(1, 8)), int(cases.integers(2, 12))
    real = declared_columns(cases, dim)
    slots, capacity = int(cases.integers(1, 9)), int(cases.integers(1, 30))
    mem, per_step = (ag.ReplayMemory(capacity, dim, heads, real) for _ in range(2))
    ref = DequeReplayMemory(capacity)
    written = 0
    for _ in range(int(cases.integers(1, 8))):
        episode = random_episode(cases, slots, dim, heads, real)
        for start, stop in write_in_blocks(cases, episode):
            wrapped = 0 < capacity - written % capacity < stop - start
            written += stop - start
            mem.write(episode, start, stop)
            for t, transition in enumerate(transitions_of(episode, start, stop), start):
                per_step.write(episode, t, t + 1)
                ref.push(transition)
            assert len(mem) == len(ref) == min(written, capacity)
            yield mem, per_step, ref, wrapped


def test_byte_replay_equals_the_deque_replay_bit_for_bit():
    # The declared columns hold reals, -0.0, NaN payloads and subnormals;
    # every block write leaves the memory a write per step leaves.
    cases = np.random.default_rng(400)
    wrapped_mid_block = 0
    for case in range(150):
        for mem, per_step, ref, wrapped in fed_in_blocks(cases):
            wrapped_mid_block += wrapped
            assert_same_memory(mem, per_step)
            if cases.random() < 0.5:
                n = int(cases.integers(1, len(ref) + 1))
                assert_samples_match(mem, ref, mem.acts.shape[1], n, seed=case)
    assert wrapped_mid_block > 30


def test_array_replay_equals_the_deque_replay_bit_for_bit():
    # Samples, and the DQN gradients taken on them, equal the reference's
    # built from the sampled transitions.
    cases = np.random.default_rng(200)
    for case in range(100):
        for mem, _, ref, _ in fed_in_blocks(cases):
            if cases.random() < 0.5:
                continue
            heads, dim = mem.acts.shape[1], mem.state_dim
            params = tiny_params(dim, heads, hidden=(3,), seed=case)
            target = tiny_params(dim, heads, hidden=(3,), seed=case + 1)
            gamma = float(cases.uniform(0.0, 1.0))
            n = int(cases.integers(1, len(ref) + 1))
            got, drawn = assert_samples_match(mem, ref, heads, n, seed=case)
            want = reference_batch(drawn, heads)
            with np.errstate(invalid="ignore"):  # NaN states give NaN gradients
                loss, grads = ag.dqn_loss_and_grad(params.actor, target.actor, got, gamma,
                                                   params.actor_cfg, heads,
                                                   nets.grad_buffers(params.actor_cfg))
                refs = [ag.dqn_loss_and_grad(params.actor, target.actor, want, gamma,
                                             params.actor_cfg, heads,
                                             nets.grad_buffers(params.actor_cfg)),
                        loop_dqn_loss_and_grad(params.actor, target.actor, drawn, gamma,
                                               params.actor_cfg, heads)]
            for ref_loss, ref_grads in refs:
                assert_bits_equal(loss, ref_loss)
                for key in ref_grads:
                    assert_bits_equal(grads[key], ref_grads[key])


@pytest.mark.parametrize("dim", [1, 7, 8, 9, 279])
def test_packed_replay_equals_the_deque_replay_at_every_width(dim):
    # Widths below, at and either side of a byte boundary, and the default
    # world's, so the padding bits of the last byte are written and read.
    cases = np.random.default_rng(500 + dim)
    for case in range(12):
        heads, capacity = int(cases.integers(1, 8)), int(cases.integers(2, 40))
        real = declared_columns(cases, dim)
        mem, ref = ag.ReplayMemory(capacity, dim, heads, real), DequeReplayMemory(capacity)
        assert mem.states.shape == (capacity, (dim + 7) // 8)
        assert mem.exact.shape == (capacity, len(real))
        for _ in range(int(cases.integers(1, 10))):
            episode = random_episode(cases, 8, dim, heads, real)
            mem.write(episode, 0, episode.steps)
            for transition in transitions_of(episode, 0, episode.steps):
                ref.push(transition)
            assert_samples_match(mem, ref, heads, len(ref), seed=case)


def test_replay_holds_one_state_per_transition():
    # A next state of its own only for each terminal row and the newest row.
    capacity, dim, heads, real = 23, 6, 3, (5,)
    mem = ag.ReplayMemory(capacity, dim, heads, real)
    rng = np.random.default_rng(300)
    for _ in range(10):
        episode = random_episode(rng, 5, dim, heads, real)
        for start, stop in write_in_blocks(rng, episode):
            mem.write(episode, start, stop)
            terminal = int(mem.done[:len(mem)].sum())
            newest = (mem._slot - 1) % capacity
            assert sorted(mem.next_states) == sorted(
                set(np.flatnonzero(mem.done[:len(mem)]).tolist()) | {newest})
            assert len(mem.next_states) == terminal + (not mem.done[newest])
    assert len(mem) == capacity
    # One bit per feature, and float64 only for the declared column.
    full_size = [name for name, a in vars(mem).items()
                 if isinstance(a, np.ndarray) and a.size >= capacity * dim]
    assert full_size == []
    assert mem.states.shape == (capacity, 1) and mem.states.dtype == np.uint8
    assert mem.exact.shape == (capacity, 1)


@pytest.mark.parametrize("value", ODD_VALUES.tolist() + [np.float64(3.0)])
@pytest.mark.parametrize("where", ["state", "last next state"])
def test_a_write_that_breaks_the_declared_columns_raises(value, where):
    # A value other than +0.0 and 1.0 in a column the env does not declare
    # real is refused, and the write leaves the memory as it was.
    rng = np.random.default_rng(900)
    dim, heads, real = 9, 2, (4, 8)
    mem, twin = (ag.ReplayMemory(6, dim, heads, real) for _ in range(2))
    first, second = (random_episode(rng, 5, dim, heads, real) for _ in range(2))
    for memory in (mem, twin):
        memory.write(first, 0, first.steps)
    second.obs[0 if where == "state" else second.steps, 6] = value
    with pytest.raises(ValueError, match="state column 6 holds"):
        mem.write(second, 0, second.steps)
    assert_same_memory(mem, twin)


def test_a_block_longer_than_the_capacity_keeps_its_last_rows():
    cases = np.random.default_rng(800)
    for case in range(20):
        heads, dim = int(cases.integers(1, 5)), int(cases.integers(1, 20))
        capacity = int(cases.integers(1, 6))
        real = declared_columns(cases, dim)
        block, per_step = (ag.ReplayMemory(capacity, dim, heads, real) for _ in range(2))
        ref = DequeReplayMemory(capacity)
        for _ in range(3):
            episode = random_episode(cases, 4 * capacity + 2, dim, heads, real,
                                     least=capacity + 1)
            block.write(episode, 0, episode.steps)
            for t, transition in enumerate(transitions_of(episode, 0, episode.steps)):
                per_step.write(episode, t, t + 1)
                ref.push(transition)
            assert_same_memory(block, per_step)
            assert_samples_match(block, ref, heads, len(ref), seed=case)


@settings(max_examples=30, deadline=None)
@given(side=st.integers(2, 4), max_swarm=st.integers(1, 4), slots=st.integers(2, 7),
       capacity=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_episode_arrays_equal_the_per_step_transitions(side, max_swarm, slots, capacity, seed):
    # Random plays over small worlds, with the swarm resized between
    # episodes. After every step the env's rows are the copies and the
    # step results a per-step loop would keep; each episode sliced is the
    # batch of those transitions; and a memory written the episodes' rows
    # in random blocks samples what the deque of those transitions does.
    env = small_env(side=side, swarm=1, slots=slots, strategic=(side * side - 1,),
                    max_swarm=max_swarm)
    heads = env.cfg.max_swarm
    rng = np.random.default_rng(seed)
    mem = ag.ReplayMemory(capacity, env.state_dim, heads, env.real_cols)
    ref = DequeReplayMemory(capacity)
    task = env.nominal_task()
    for number in range(4):
        size = int(rng.integers(1, heads + 1))
        while task.swarm_size != size:
            kind = "join" if task.swarm_size < size else "leave"
            task = env.apply_swarm_event(task, envmod.SwarmEvent(number, kind))
        env.reset(task, rng_seed=int(rng.integers(2**31)))
        episode, kept, steps, written = env.episode, env.encode_state(), [], 0
        assert_bits_equal(episode.obs[0], kept)
        while not steps or not steps[-1].done:
            action = tuple(int(a) for a in rng.integers(0, N_ACTIONS, size=size))
            out = env.step(action)
            after = env.encode_state()
            steps.append(Transition(kept, action, out.reward, after, out.done,
                                    out.uav_rewards.copy()))
            kept = after
            n = len(steps)
            assert env.episode is episode and episode.steps == n
            assert_bits_equal(out.state, after)
            assert_bits_equal(episode.obs[:n + 1], np.stack([t.state for t in steps] + [after]))
            acts, acting = action_arrays([t.action for t in steps], heads)
            uav_rewards = np.zeros(acting.shape)
            uav_rewards[acting] = np.concatenate([t.uav_rewards for t in steps])
            assert_bits_equal(episode.acts[:n], acts)
            assert_bits_equal(episode.uav_rewards[:n], uav_rewards)
            assert_bits_equal(episode.reward[:n], np.array([t.reward for t in steps]))
            assert_bits_equal(episode.done[:n], np.array([t.done for t in steps]))
            if out.done or rng.random() < 0.4:
                mem.write(episode, written, n)
                for transition in steps[written:]:
                    ref.push(transition)
                written = n
                assert_samples_match(mem, ref, heads, int(rng.integers(1, len(ref) + 1)),
                                     seed=int(rng.integers(2**31)))
        assert_same_batch(ag.Batch.of_episode(episode), as_batch(steps, heads))
        assert_samples_match(mem, ref, heads, len(ref), seed=number)


class PerStepDQN(ag.DQNLearner):
    """Reference: the DQN learner as it was when it wrote every step."""

    def record(self, episode) -> None:
        self.memory.write(episode, episode.steps - 1, episode.steps)
        self._steps += 1
        if (len(self.memory) >= self.cfg.minibatch
                and self._steps % self.cfg.dqn_update_interval == 0):
            batch = self.memory.sample(self.cfg.minibatch, self._rng)
            ag.dqn_update(self.q, self.target, batch, self.cfg.gamma, self.cfg.learning_rate,
                          self.net_cfg, self.heads, self._grads)
            self._updates += 1
            if self._updates % self.cfg.target_refresh == 0:
                self.target = nets.clone_params(self.q)


def test_dqn_block_writes_equal_per_step_pushes():
    # The learner writes the episode's steps when it samples and when the
    # episode ends. Its memory at every sample and every episode end, its
    # weights and its generator equal those of a learner that writes each
    # step, over a join and a leave and a ring that wraps mid-episode.
    envs = [small_env(swarm=2, slots=7, max_swarm=3) for _ in range(2)]
    cfg = ag.AgentConfig(hidden=(8,), replay_capacity=30, minibatch=10, target_refresh=3)
    learners = [cls(envs[0].state_dim, 3, cfg, np.random.default_rng(13), 12, envs[0].real_cols)
                for cls in (ag.DQNLearner, PerStepDQN)]

    def frozen(memory: ag.ReplayMemory) -> ag.ReplayMemory:
        copied = copy.deepcopy(memory)
        del copied.sample  # the copy samples itself, unwatched
        return copied

    snapshots: list[list[ag.ReplayMemory]] = [[], []]
    for learner, shots in zip(learners, snapshots):
        sample = learner.memory.sample

        def sample_and_keep(n, rng, sample=sample, memory=learner.memory, shots=shots):
            shots.append(frozen(memory))
            return sample(n, rng)

        learner.memory.sample = sample_and_keep
    rngs = [np.random.default_rng(14), np.random.default_rng(14)]
    sizes = [2] * 4 + [3] * 4 + [1] * 4  # a join, then a leave of two
    for size in sizes:
        for env, learner, rng in zip(envs, learners, rngs):
            ag.run_training_episode(env, replace(env.nominal_task(), swarm_size=size), learner,
                                    rng)
        assert_same_memory(*(frozen(learner.memory) for learner in learners))
    assert len(snapshots[0]) == len(snapshots[1]) > 10
    for got, want in zip(*snapshots):
        assert_same_memory(got, want)
    block, steps = learners
    assert block._updates == steps._updates >= cfg.target_refresh
    for net in ("q", "target"):
        for key, value in getattr(steps, net).items():
            assert_bits_equal(getattr(block, net)[key], value)
    assert block._rng.bit_generator.state == steps._rng.bit_generator.state
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def memory_nbytes(mem: ag.ReplayMemory) -> int:
    """The bytes of the memory's arrays and of its kept next states."""
    arrays = sum(a.nbytes for a in vars(mem).values() if isinstance(a, np.ndarray))
    return arrays + sum(a.nbytes for kept in mem.next_states.values() for a in kept)


def test_full_default_world_memory_fits_in_a_few_megabytes():
    env = make_env()  # the default world: 279 features
    cfg = ag.AgentConfig()
    heads = env.cfg.max_swarm
    mem = ag.ReplayMemory(cfg.replay_capacity, env.state_dim, heads, env.real_cols)
    rng = np.random.default_rng(12)
    policy = ag.RandomPolicy(heads)
    while len(mem) < cfg.replay_capacity:
        state, done = env.reset(env.nominal_task(), rng_seed=int(rng.integers(2**31))), False
        while not done:
            out = env.step(policy.act(state, rng))
            state, done = out.state, out.done
        mem.write(env.episode, 0, env.episode.steps)
    assert len(mem) == 10_000 and env.state_dim == 279 and mem.states.shape == (10_000, 35)
    assert memory_nbytes(mem) <= 1.6e6, memory_nbytes(mem)


def test_a_replay_sample_carries_no_per_uav_rewards():
    # DQN reads the team reward alone, so the memory keeps no per-UAV
    # reward column and a sample has none.
    capacity, dim, heads, real = 12, 6, 3, (5,)
    mem = ag.ReplayMemory(capacity, dim, heads, real)
    rng = np.random.default_rng(600)
    while len(mem) < capacity:
        episode = random_episode(rng, 5, dim, heads, real)
        mem.write(episode, 0, episode.steps)
    assert not [name for name, a in vars(mem).items() if isinstance(a, np.ndarray)
                and a.dtype == np.float64 and a.shape == (capacity, heads)]
    assert mem.sample(capacity, rng).rewards is None


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
    learner = ag.DQNLearner(3, q.shape[0], cfg, np.random.default_rng(0), 10, (2,))
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
    learners = [ag.make_learner(name, state_dim, heads, cfg, np.random.default_rng(i), 10,
                                (state_dim - 1,))
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

def test_empty_or_unfinished_episode_rejected():
    params = tiny_params()
    episode, _ = finished_episode(3, 3, 1, seed=0)
    for steps in (0, 2):  # none written; two, of which the last is not terminal
        episode.steps = steps
        with pytest.raises(ValueError, match="finished episode"):
            ag.actor_critic_accumulate(params, episode, 0.85, zero_grads(params))


def _values(critic: dict, state: np.ndarray, params: ag.PolicyParams) -> np.ndarray:
    out, _ = nets.forward(critic, state, params.critic_cfg)
    return out[0]


def _bootstrap(tr: Transition, u: int, params: ag.PolicyParams, gamma: float) -> float:
    """gamma * V_u(s') from the critic, or 0 past the end or for a
    slot that is idle in s'."""
    if tr.done or u >= round(tr.next_state[-1] * params.heads):
        return 0.0
    return gamma * _values(params.critic, tr.next_state, params)[u]


def _entropy(p: np.ndarray) -> float:
    return -float(np.sum(p * np.log(p)))


def test_per_head_td_actor_gradient_matches_finite_differences():
    params = tiny_params(state_dim=4, heads=3, seed=40)
    arrays, episode = finished_episode(4, 4, params.heads, seed=41)
    # Some UAV acts at a step that is not the last and is idle at the next.
    assert any(len(tr.action) > len(nxt.action) for tr, nxt in zip(episode, episode[1:]))
    gamma = 0.85
    acc = zero_grads(params)
    ag.actor_critic_accumulate(params, arrays, gamma, acc)
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
    add_scaled(params.critic, params.critic, -1.0)  # V == 0: no advantage term
    arrays, episode = finished_episode(4, 4, params.heads, seed=43)
    arrays.uav_rewards.fill(0.0)
    arrays.reward.fill(0.0)
    acc = zero_grads(params)
    ag.actor_critic_accumulate(params, arrays, 0.85, acc)
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
    arrays, episode = finished_episode(4, 4, params.heads, seed=45)
    gamma = 0.85
    acc = zero_grads(params)
    ag.actor_critic_accumulate(params, arrays, gamma, acc)
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
    ag.critic_td_accumulate(params, as_batch(batch, params.heads), gamma, acc)

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
        assert_bits_equal(opt.flat_grad, grad)  # the step leaves the gradient as it was
    np.testing.assert_allclose(flatten_params(params.actor, params.actor_cfg), before,
                               atol=1e-15)


class ScratchPathActorCritic(ag.ActorCriticLearner):
    """Reference: the actor-critic update as it was when each gradient went
    into scratch buffers and was then added into Adam vectors cleared after
    every step. The scratch buffers are fresh zeros every episode, so the
    reference holds whether or not the gradients overwrite them."""

    def finish_episode(self, rng) -> None:
        params, scratch = self.params, zero_grads(self.params)
        ag.actor_critic_accumulate(params, self._episode, self.cfg.gamma, scratch)
        for opt, net, grads in ((self._actor_opt, params.actor, scratch.d_actor),
                                (self._critic_opt, params.critic, scratch.d_critic)):
            nets.add(opt.grads, grads)
            opt.step(net)
            opt.flat_grad.fill(0.0)
        self._episode = None


@pytest.mark.parametrize("negative_zeros", [False, True])
def test_writing_gradients_straight_into_adam_changes_no_bit(negative_zeros, monkeypatch):
    # The third head never acts, so its logits and value columns take
    # signed-zero gradients. numpy and its BLAS start their sums from +0.0,
    # so backward writes no -0.0; one that starts from the first product
    # would, and adding that into a cleared vector gave +0.0. The second
    # case has backward write every zero as -0.0. Either way the weights
    # and both Adam moments stay bit for bit those of the scratch path.
    if negative_zeros:
        backward_as_written = nets.backward

        def backward_with_negative_zeros(*args):
            out = backward_as_written(*args)
            for g in out.values():
                g[g == 0.0] = -0.0
            return out

        monkeypatch.setattr(nets, "backward", backward_with_negative_zeros)
    envs = [small_env(swarm=2, max_swarm=3) for _ in range(2)]
    cfg = ag.AgentConfig(hidden=(8,))
    params = tiny_params(envs[0].state_dim, 3, hidden=(8,), seed=50)
    learners = [ag.ActorCriticLearner(params.clone(), cfg),
                ScratchPathActorCritic(params.clone(), cfg)]
    rngs = [np.random.default_rng(51), np.random.default_rng(51)]
    written = 0
    for _ in range(6):
        for env, learner, rng in zip(envs, learners, rngs):
            ag.run_training_episode(env, env.nominal_task(), learner, rng)
        direct, reference = learners
        for opt in (direct._actor_opt, direct._critic_opt):
            written += int(np.count_nonzero((opt.flat_grad == 0.0) & np.signbit(opt.flat_grad)))
        for net in ("actor", "critic"):
            for key, value in getattr(reference.params, net).items():
                assert_bits_equal(getattr(direct.params, net)[key], value)
        for opt in ("_actor_opt", "_critic_opt"):
            for moment in ("_m", "_v"):
                assert_bits_equal(getattr(getattr(direct, opt), moment),
                                  getattr(getattr(reference, opt), moment))
    if negative_zeros:
        assert written > 0


def two_pass_accumulate(params: ag.PolicyParams, b: ag.Batch, gamma: float,
                        out: ag.GradAccumulator) -> None:
    """Reference: ``actor_critic_accumulate`` as it was with one critic pass
    over the states and another over the next states."""
    logits, probs, a_cache = ag.policy_forward(params.actor, b.states, params.actor_cfg,
                                               params.heads)
    values, v_cache = nets.forward(params.critic, b.states, params.critic_cfg)
    next_values, _ = nets.forward(params.critic, b.next_states, params.critic_cfg)
    adv = b.rewards + gamma * b.boot * next_values - values
    mask = b.acting[:, :, None]
    dlogits = adv[:, :, None] * (b.onehot - probs) * mask
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    ent = -(probs * logp).sum(axis=-1, keepdims=True)
    dlogits -= ag.ENTROPY_WEIGHT * probs * (logp + ent) * mask
    nets.backward(params.actor, a_cache, dlogits.reshape(len(b.states), -1), params.actor_cfg,
                  out.d_actor)
    returns = ag.discounted_returns(b.rewards, gamma)
    dvals = -2.0 * ((returns - values) * b.acting)
    nets.backward(params.critic, v_cache, dvals, params.critic_cfg, out.d_critic)


def assert_accumulates_as_two_passes(params: ag.PolicyParams, episode) -> None:
    got, want = zero_grads(params), zero_grads(params)
    ag.actor_critic_accumulate(params, episode, 0.85, got)
    two_pass_accumulate(params, ag.Batch.of_episode(episode), 0.85, want)
    for net in ("d_actor", "d_critic"):
        for key, value in getattr(want, net).items():
            assert_bits_equal(getattr(got, net)[key], value)


@pytest.mark.parametrize("size", [3, 7])
@pytest.mark.parametrize("slots", [1, 25])
def test_one_critic_pass_equals_two_on_env_episodes(size, slots):
    # The default world, its episodes played to the end. One slot forwards
    # the critic over one row, which goes through BLAS's gemv; more slots
    # over a batch of rows, which goes through gemm.
    env = make_env(replace(ms.MissionConfig(), slots=slots))
    rng = np.random.default_rng(60 + size)
    params = ag.make_policy_params(env.state_dim, env.cfg.max_swarm, ag.AgentConfig(), rng,
                                   critic_outputs=env.cfg.max_swarm)
    for episode in range(3):
        env.reset(replace(env.nominal_task(), swarm_size=size), rng_seed=episode)
        while not env.step(rng.integers(0, N_ACTIONS, size=size)).done:
            pass
        assert env.episode.steps == slots
        assert_accumulates_as_two_passes(params, env.episode)


# --- DQN --------------------------------------------------------------------------

def test_dqn_gamma_zero_reduces_target_to_reward():
    params = tiny_params(seed=12)
    batch = random_batch(params, 4, seed=13)
    cfg = params.actor_cfg
    loss, _ = ag.dqn_loss_and_grad(params.actor, params.actor, as_batch(batch, params.heads),
                                   0.0, cfg, params.heads, nets.grad_buffers(cfg))
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
    batch = [Transition(t.state, t.action, 0.0, t.next_state, t.done, 0.0 * t.uav_rewards)
             for t in random_batch(params, 4, seed=15)]
    loss = ag.dqn_update(zero_net, zeros_like_params(params.actor),
                         as_batch(batch, params.heads), 0.9, 0.1, params.actor_cfg, params.heads,
                         nets.grad_buffers(params.actor_cfg))
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
    return loss, backward(q_params, cache, dq.reshape(len(batch), -1), cfg)


def test_dqn_matches_the_per_pair_loop():
    for case in range(200):
        params = tiny_params(state_dim=5, heads=1 + case % 7, hidden=(6,), seed=case)
        target = tiny_params(state_dim=5, heads=1 + case % 7, hidden=(6,), seed=case + 1)
        batch = random_batch(params, 1 + case % 17, seed=case)
        gamma = float(np.random.default_rng(case).uniform(0.0, 1.0))
        args = (params.actor, target.actor, gamma, params.actor_cfg, params.heads)
        loss, grads = ag.dqn_loss_and_grad(*args[:2], as_batch(batch, params.heads), *args[2:],
                                           nets.grad_buffers(params.actor_cfg))
        ref_loss, ref_grads = loop_dqn_loss_and_grad(*args[:2], batch, *args[2:])
        assert_bits_equal(loss, ref_loss)
        for key in ref_grads:
            assert_bits_equal(grads[key], ref_grads[key])


def test_dqn_update_into_learner_buffers_matches_add_scaled():
    for case in range(60):
        heads = 1 + case % 7
        params = tiny_params(state_dim=9, heads=heads, hidden=(8, 6), seed=case)
        target = tiny_params(state_dim=9, heads=heads, hidden=(8, 6), seed=case + 1)
        reference = nets.clone_params(params.actor)
        buffers = nets.grad_buffers(params.actor_cfg)
        lr = float(np.random.default_rng(case).choice([1e-4, 0.01, 1.0]))
        for update in range(3):  # the buffers hold the last update's gradient
            batch = as_batch(random_batch(params, 1 + (case + update) % 9, seed=case + update),
                                heads)
            loss = ag.dqn_update(params.actor, target.actor, batch, 0.9, lr,
                                 params.actor_cfg, heads, buffers)
            ref_loss, grads = ag.dqn_loss_and_grad(reference, target.actor, batch, 0.9,
                                                   params.actor_cfg, heads,
                                                   nets.grad_buffers(params.actor_cfg))
            add_scaled(reference, grads, -lr)
            assert_bits_equal(loss, ref_loss)
            for key in reference:
                assert_bits_equal(params.actor[key], reference[key])


def test_dqn_gradient_matches_finite_differences():
    params = tiny_params(seed=16)
    target = tiny_params(seed=17)
    batch = as_batch(random_batch(params, 3, seed=18), params.heads)
    cfg = params.actor_cfg
    _, grads = ag.dqn_loss_and_grad(params.actor, target.actor, batch, 0.85, cfg, params.heads,
                                    nets.grad_buffers(cfg))

    def loss_fn(q_net):
        loss, _ = ag.dqn_loss_and_grad(q_net, target.actor, batch, 0.85, cfg, params.heads,
                                       nets.grad_buffers(cfg))
        return loss

    assert_grad_close(grads, params.actor, cfg, loss_fn)


# --- PPO --------------------------------------------------------------------------

def ppo_arrays(actor: dict, batch: list[Transition], params: ag.PolicyParams) -> tuple:
    """What ``ppo_update`` passes to ``ppo_surrogate_and_grad`` at ``actor``:
    :func:`ag.policy_forward`'s probabilities and cache on the batch's
    states, then the actions, acting mask and one-hot rows, which it builds
    once per update."""
    states = np.stack([t.state for t in batch])
    acts, acting = action_arrays([t.action for t in batch], params.heads)
    _, probs, cache = ag.policy_forward(actor, states, params.actor_cfg, params.heads)
    return probs, cache, acts, acting, np.eye(N_ACTIONS)[acts]


def old_logp(actor: dict, batch: list[Transition], params: ag.PolicyParams) -> np.ndarray:
    """The pre-update joint log-probabilities that ``ppo_surrogate_and_grad`` takes."""
    probs, _, acts, acting, _ = ppo_arrays(actor, batch, params)
    return ag.joint_log_prob(probs, acts, acting)


def surrogate(actor: dict, logp_old, batch: list[Transition], params: ag.PolicyParams,
              adv, clip: float) -> tuple[float, dict]:
    """``ppo_surrogate_and_grad`` at ``actor``, its gradient in fresh buffers."""
    return ag.ppo_surrogate_and_grad(actor, logp_old, *ppo_arrays(actor, batch, params), adv,
                                     clip, params.actor_cfg, nets.grad_buffers(params.actor_cfg))


def test_ppo_wide_clip_equals_plain_surrogate():
    params = tiny_params(seed=19)
    batch = random_batch(params, 4, seed=20)
    adv = np.random.default_rng(21).normal(size=len(batch))
    # ratio == 1 everywhere (actor is its own old policy), inside any window
    logp_old = old_logp(params.actor, batch, params)
    _, g_narrow = surrogate(params.actor, logp_old, batch, params, adv, 0.2)
    _, g_wide = surrogate(params.actor, logp_old, batch, params, adv, 1e9)
    for k in g_narrow:
        np.testing.assert_allclose(g_narrow[k], g_wide[k], rtol=1e-12)


def test_ppo_zero_clip_kills_actor_gradient():
    params = tiny_params(seed=22)
    batch = random_batch(params, 4, seed=23)
    adv = np.random.default_rng(24).normal(size=len(batch))
    _, grads = surrogate(params.actor, old_logp(params.actor, batch, params), batch, params, adv,
                         0.0)
    for g in grads.values():
        np.testing.assert_array_equal(g, 0.0)


def test_ppo_update_zero_clip_freezes_actor():
    cfg = ag.AgentConfig(hidden=(2,), ppo_clip=0.0)
    params = ag.make_policy_params(3, 1, cfg, np.random.default_rng(25), critic_outputs=1)
    rollout = random_batch(params, 5, seed=26)
    before = flatten_params(params.actor, params.actor_cfg).copy()
    critic_before = flatten_params(params.critic, params.critic_cfg).copy()
    ag.ppo_update(params, as_batch(rollout, params.heads), 0.0, 3, 0.85, 0.01, zero_grads(params))
    np.testing.assert_array_equal(flatten_params(params.actor, params.actor_cfg), before)
    assert not np.array_equal(
        flatten_params(params.critic, params.critic_cfg), critic_before
    )  # the value fit still runs


def reference_ppo_update(params: ag.PolicyParams, rollout, clip_eps: float, epochs: int,
                         gamma: float, lr: float) -> None:
    """Reference: ``ppo_update`` with both forward passes in every epoch,
    the critic's after the actor step, fresh gradient arrays and
    ``add_scaled`` steps."""
    states = np.stack([t.state for t in rollout])
    returns = ag.discounted_returns([t.reward for t in rollout], gamma)
    values_old, _ = ag.value_forward(params.critic, states, params.critic_cfg)
    adv = returns - values_old
    logp_old = old_logp(params.actor, rollout, params)
    for _ in range(epochs):
        _, g_actor = surrogate(params.actor, logp_old, rollout, params, adv, clip_eps)
        add_scaled(params.actor, g_actor, +lr)
        values, cache = ag.value_forward(params.critic, states, params.critic_cfg)
        dvals = (-2.0 * (returns - values))[:, None]
        add_scaled(params.critic, backward(params.critic, cache, dvals, params.critic_cfg), -lr)


def test_ppo_update_matches_the_reference_with_and_without_buffers():
    for case in range(40):
        heads = 1 + case % 7
        cfg = ag.AgentConfig(hidden=(8, 6))
        params = ag.make_policy_params(9, heads, cfg, np.random.default_rng(case), critic_outputs=1)
        reference = params.clone()
        buffers = ag.GradAccumulator(nets.grad_buffers(params.actor_cfg),
                                     nets.grad_buffers(params.critic_cfg))
        clip = (0.0, 0.2, 0.9)[case % 3]
        lr = (1e-4, 0.01, 1.0)[case % 3]
        for update in range(3):  # the buffers hold the last update's gradients
            rollout = random_batch(params, 1 + (case + update) % 25, seed=case + update)
            epochs = 1 + (case + update) % 4
            batch = as_batch(rollout, heads)
            ag.ppo_update(params, batch, clip, epochs, 0.85, lr, buffers)
            reference_ppo_update(reference, rollout, clip, epochs, 0.85, lr)
            for key in reference.actor:
                assert_bits_equal(params.actor[key], reference.actor[key])
            for key in reference.critic:
                assert_bits_equal(params.critic[key], reference.critic[key])


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
        ag.ppo_update(params, as_batch(rollout, params.heads), 0.2, epochs, 0.85, 0.01,
                      zero_grads(params))
        # Pre-update values and log-probabilities once, which the first
        # epoch reuses, then one actor and one critic pass per later epoch.
        assert len(calls) == 2 * epochs
        assert calls.count(params.actor_cfg) == epochs


def test_ppo_surrogate_gradient_matches_finite_differences():
    params = tiny_params(seed=27)
    old = tiny_params(seed=28)
    batch = random_batch(params, 3, seed=29)
    adv = np.random.default_rng(30).normal(size=len(batch))
    clip = 0.2
    logp_old = old_logp(old.actor, batch, params)
    _, grads = surrogate(params.actor, logp_old, batch, params, adv, clip)

    def objective(actor):
        obj, _ = surrogate(actor, logp_old, batch, params, adv, clip)
        return obj

    assert_grad_close(grads, params.actor, params.actor_cfg, objective)


def test_joint_log_prob_hand_case():
    probs = np.array([[[0.5, 0.2, 0.1, 0.1, 0.1],
                       [0.25, 0.25, 0.25, 0.25, 0.0]]])
    lp = ag.joint_log_prob(probs, *action_arrays([(0, 1)], 2))
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
    return objective, backward(actor, cache, dlogits.reshape(len(batch), -1), cfg)


def test_joint_log_prob_matches_the_per_pair_loop():
    rng = np.random.default_rng(101)
    for _ in range(500):
        heads, n = int(rng.integers(1, 8)), int(rng.integers(1, 20))
        probs = nets.softmax(rng.normal(scale=20.0, size=(n, heads, N_ACTIONS)))
        probs[rng.random(probs.shape) < 0.05] = 0.0  # below the 1e-12 floor
        actions = [tuple(rng.integers(0, N_ACTIONS, size=rng.integers(1, heads + 1)).tolist())
                   for _ in range(n)]
        assert_bits_equal(ag.joint_log_prob(probs, *action_arrays(actions, heads)),
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
        obj, grads = surrogate(params.actor, old_logp(old.actor, batch, params), batch, params,
                               adv, clip)
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
    cfg = ag.AgentConfig(hidden=(4,), meta_inner_episodes=2)
    meta = tiny_params(env.state_dim, env.cfg.max_swarm, hidden=(4,), seed=1)
    before = flatten_params(meta.actor, meta.actor_cfg).copy()
    adapted = ag.meta_adapt(meta, env, env.nominal_task(), np.random.default_rng(2), cfg)
    np.testing.assert_array_equal(flatten_params(meta.actor, meta.actor_cfg), before)
    assert not np.array_equal(
        flatten_params(adapted.actor, adapted.actor_cfg), before
    )  # the clone moved


def test_meta_adapt_deterministic():
    env = small_env()
    cfg = ag.AgentConfig(hidden=(4,), meta_inner_episodes=2)
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
        ag.make_learner("sarsa", 10, 2, ag.AgentConfig(), np.random.default_rng(0), 10, (9,))


def test_random_policy_ignores_learning():
    env = small_env()
    learner = ag.RandomPolicy(heads=env.cfg.max_swarm)
    stats = ag.run_training_episode(env, env.nominal_task(), learner, np.random.default_rng(4))
    assert stats["steps"] == 6
    assert stats["swarm_size"] == 2


def test_training_episode_updates_actor_critic():
    env = small_env()
    cfg = ag.AgentConfig(hidden=(4,))
    params = tiny_params(env.state_dim, env.cfg.max_swarm, hidden=(4,), seed=5)
    learner = ag.ActorCriticLearner(params, cfg)
    before = flatten_params(params.actor, params.actor_cfg).copy()
    ag.run_training_episode(env, env.nominal_task(), learner, np.random.default_rng(6))
    assert not np.array_equal(
        flatten_params(learner.params.actor, params.actor_cfg), before
    )


def test_actor_critic_update_draws_nothing_from_its_generator():
    # One on-policy step per finished episode and no replay memory. With 6
    # slots a memory would hold a minibatch of 13 from the third episode on.
    env = small_env()
    cfg = ag.AgentConfig(hidden=(4,), minibatch=13)
    rng = np.random.default_rng(7)
    learner = ag.make_learner("actor_critic", env.state_dim, env.cfg.max_swarm, cfg, rng, 5,
                              env.real_cols)
    assert not any(isinstance(v, ag.ReplayMemory) for v in vars(learner).values())
    for _ in range(5):
        state, done = env.reset(env.nominal_task(), rng_seed=int(rng.integers(2**31))), False
        while not done:
            out = env.step(learner.act(state, rng))
            learner.record(env.episode)
            state, done = out.state, out.done
        before = flatten_params(learner.params.critic, learner.params.critic_cfg).copy()
        drawn = rng.bit_generator.state
        learner.finish_episode(rng)
        assert rng.bit_generator.state == drawn
        assert not np.array_equal(
            flatten_params(learner.params.critic, learner.params.critic_cfg), before)
