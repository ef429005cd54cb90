"""The transition-object path the learners read before episodes became
arrays, kept as the bit-for-bit reference for :class:`agents.Batch`.

A ``Transition`` holds one step as the learners once kept it: copies of
the state and next state, the joint action as a tuple and one reward per
acting UAV. :func:`as_batch` stacks a list of them into a ``Batch`` the
way the learners did; ``Batch.of_episode`` and ``ReplayMemory.sample``
must give the same arrays bit for bit.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from swarmcover import agents as ag


@dataclass
class Transition:
    state: np.ndarray
    action: tuple[int, ...]
    reward: float
    next_state: np.ndarray
    done: bool
    #: One reward per acting UAV, summing to ``reward``.
    uav_rewards: np.ndarray


def action_arrays(actions: Sequence[tuple[int, ...]], heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint actions as ``(acts[B, heads], acting[B, heads])``: action ids
    in the head slots that acted (a prefix of the slots), 0 elsewhere."""
    acting = np.arange(heads) < np.array([len(a) for a in actions])[:, None]
    acts = np.zeros(acting.shape, dtype=np.int64)
    acts[acting] = [a for joint in actions for a in joint]  # row-major fill
    return acts, acting


def as_batch(transitions: Sequence[Transition], heads: int) -> ag.Batch:
    """A list of transitions (an episode, say) as a :class:`agents.Batch`."""
    acts, acting = action_arrays([t.action for t in transitions], heads)
    uav_rewards = np.zeros(acting.shape)
    uav_rewards[acting] = np.concatenate([t.uav_rewards for t in transitions])
    return ag.Batch.build(
        np.stack([t.state for t in transitions]),
        np.stack([t.next_state for t in transitions]),
        np.array([t.reward for t in transitions], dtype=np.float64),
        uav_rewards, np.array([t.done for t in transitions], dtype=bool),
        acts, acting,
    )


def transitions_of(episode, start: int, stop: int) -> list[Transition]:
    """Steps ``start`` to ``stop - 1`` of an ``env.EpisodeArrays`` as
    transitions holding copies of its rows."""
    n = episode.uavs
    return [Transition(episode.obs[t].copy(), tuple(episode.acts[t, :n].tolist()),
                       float(episode.reward[t]), episode.obs[t + 1].copy(),
                       bool(episode.done[t]), episode.uav_rewards[t, :n].copy())
            for t in range(start, stop)]
