"""Experiment harness: files on disk, determinism, events, comparisons."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from swarmcover import agents as ag
from swarmcover import config as cf
from swarmcover import harness as hz
from swarmcover.env import CoverageEnv


def tiny_cfg(**over):
    """A 3x3 scenario small enough for full runs inside a unit test."""
    overrides = {
        "run": {"scenario": "tiny", "algorithm": "random", "episodes": 12,
                "seeds": [0], "ma_window": 3},
        "mission": {"area_m": 264.0, "cells_per_side": 3, "slots": 6,
                    "frame_seconds": 144.0},
        "env": {"max_swarm": 3, "swarm_size": 2, "swarm_min": 1, "swarm_max": 3,
                "strategic_cells": [4], "device_count": 9},
        "agent": {"hidden": [4], "minibatch": 4},
    }
    for section, kv in over.items():
        overrides.setdefault(section, {}).update(kv)
    return cf.load_config(overrides=overrides)


def synthetic_rows(n: int = 3, n_cells: int = 4) -> list[hz.EpisodeMetrics]:
    rng = np.random.default_rng(0)
    rows = []
    for i in range(n):
        rows.append(hz.EpisodeMetrics(
            episode=i, swarm_size=2 + i % 2,
            reward=float(rng.normal()) + 0.1 + 0.2,  # not exactly representable
            satisfaction=float(rng.random()),
            energy_total_j=float(rng.random()) * 1e4,
            energy_masked_j=1e-17 * (i + 1),
            energy_strategic_j=float(rng.random()),
            energy_nonstrategic_j=float(rng.random()),
            collisions=i, d_data_s=0.25 * i, d_com_s=8.8 * i,
            coverage_ok=bool(i % 2),
            visits=tuple(int(v) for v in rng.integers(0, 5, n_cells)),
        ))
    return rows


# --- metrics files ------------------------------------------------------------------


def test_metrics_round_trip_is_exact(tmp_path):
    rows = synthetic_rows()
    path = tmp_path / "metrics.csv"
    hz.write_metrics(path, rows)
    assert hz.read_metrics(path) == rows  # repr() floats survive the trip bit-for-bit


def test_metrics_header_layout(tmp_path):
    path = tmp_path / "metrics.csv"
    hz.write_metrics(path, synthetic_rows(n_cells=2))
    header = path.read_text().splitlines()[0]
    assert header == (
        "episode,swarm_size,reward,satisfaction,energy_total_j,energy_masked_j,"
        "energy_strategic_j,energy_nonstrategic_j,collisions,d_data_s,d_com_s,"
        "coverage_ok,visits_0,visits_1"
    )


def test_empty_metrics_refused(tmp_path):
    with pytest.raises(ValueError, match="empty metrics"):
        hz.write_metrics(tmp_path / "metrics.csv", [])


# --- convergence estimation -----------------------------------------------------------


def test_moving_average_hand_case():
    np.testing.assert_allclose(hz.moving_average([1, 2, 3, 4], 2), [1.0, 1.5, 2.5, 3.5])
    np.testing.assert_allclose(hz.moving_average([1, 2, 3], 1), [1, 2, 3])
    np.testing.assert_allclose(hz.moving_average([2, 4], 10), [2.0, 3.0])
    with pytest.raises(ValueError):
        hz.moving_average([1.0], 0)


def test_plateau_detection_hand_case():
    rewards = [0, 0, 0, 10, 10, 10, 10, 10, 10, 10]
    episode, plateau = hz.episodes_to_plateau(rewards, window=1, tail=0.3, level=0.9)
    assert plateau == pytest.approx(10.0)
    assert episode == 3  # first time the curve clears 9.0


def test_plateau_detection_handles_negative_rewards():
    rewards = [-10.0] * 3 + [-1.0] * 7
    episode, plateau = hz.episodes_to_plateau(rewards, window=1, tail=0.3, level=0.9)
    assert plateau == pytest.approx(-1.0)
    assert episode == 3  # threshold sits at -1.1, below the plateau


def test_plateau_argument_validation():
    with pytest.raises(ValueError, match="at least one episode"):
        hz.episodes_to_plateau([])
    with pytest.raises(ValueError, match="tail and level"):
        hz.episodes_to_plateau([1.0], tail=0.0)


# --- full runs ------------------------------------------------------------------------


def test_run_experiment_writes_the_full_layout(tmp_path):
    cfg = tiny_cfg(run={"seeds": [0, 1]})
    dirs = hz.run_experiment(cfg, tmp_path)
    assert [d.name for d in dirs] == ["seed0", "seed1"]
    assert dirs[0].parent.name == "tiny_random"
    for d in dirs:
        rows = hz.read_metrics(d / "metrics.csv")
        assert [m.episode for m in rows] == list(range(12))
        assert all(m.swarm_size == 2 for m in rows)
        # every active UAV occupies exactly one cell per slot
        assert all(sum(m.visits) == m.swarm_size * 6 for m in rows)
        summary = json.loads((d / "summary.json").read_text())
        assert summary["episodes"] == 12 and summary["pretrain_episodes"] == 0
        assert summary["swarm_size_initial"] == summary["swarm_size_final"] == 2
        heat = (d / "heatmap.csv").read_text().splitlines()
        assert heat[0] == "cell_x,cell_y,visits,is_strategic"
        assert len(heat) == 1 + 9
        assert json.loads((d / "resolved_config.json").read_text())["run"]["scenario"] == "tiny"


def test_identically_seeded_runs_are_byte_identical(tmp_path):
    cfg = tiny_cfg(run={"algorithm": "actor_critic", "episodes": 8})
    a = hz.run_experiment(cfg, tmp_path / "a")[0]
    b = hz.run_experiment(cfg, tmp_path / "b")[0]
    for name in ("metrics.csv", "heatmap.csv", "summary.json", "resolved_config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_swarm_events_show_up_in_the_metrics_rows(tmp_path):
    cfg = tiny_cfg(env={"events": [
        {"episode": 4, "kind": "join"},
        {"episode": 8, "kind": "leave", "count": 2},
    ]})
    d = hz.run_experiment(cfg, tmp_path)[0]
    rows = hz.read_metrics(d / "metrics.csv")
    assert [m.swarm_size for m in rows] == [2] * 4 + [3] * 4 + [1] * 4
    summary = json.loads((d / "summary.json").read_text())
    assert summary["swarm_size_initial"] == 2 and summary["swarm_size_final"] == 1


def test_join_at_episode_zero_sizes_every_row_and_replays(tmp_path):
    cfg = tiny_cfg(run={"algorithm": "actor_critic", "episodes": 4},
                   env={"events": [{"episode": 0, "kind": "join"}]})
    a = hz.run_experiment(cfg, tmp_path / "a")[0]
    b = hz.run_experiment(cfg, tmp_path / "b")[0]
    rows = hz.read_metrics(a / "metrics.csv")
    assert [m.swarm_size for m in rows] == [3] * 4
    assert all(sum(m.visits) == 3 * 6 for m in rows)
    for name in ("metrics.csv", "heatmap.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_meta_pretraining_is_counted_but_not_recorded(tmp_path):
    cfg = tiny_cfg(
        run={"algorithm": "meta_rl", "episodes": 10},
        agent={"meta_tasks_per_update": 2, "meta_inner_episodes": 1,
               "meta_fraction": 0.5, "hidden": [4]},
    )
    d = hz.run_experiment(cfg, tmp_path)[0]
    rows = hz.read_metrics(d / "metrics.csv")
    assert len(rows) == 10  # the sampled warm-up tasks leave no rows behind
    assert all(m.swarm_size == 2 for m in rows)  # and no task state either
    summary = json.loads((d / "summary.json").read_text())
    # A budget of 5 funds two whole rounds of 2 tasks x 1 episode.
    assert summary["pretrain_episodes"] == 4


def test_every_reset_of_a_meta_run_is_a_seeded_played_episode(tmp_path, monkeypatch):
    # Pre-training tasks fly 3 UAVs and the scenario 2, so an event before
    # the first recorded episode must resize the scenario's swarm, not the
    # last task's.
    cfg = tiny_cfg(
        run={"algorithm": "meta_rl", "episodes": 10},
        env={"swarm_min": 3, "events": [{"episode": 0, "kind": "leave"},
                                        {"episode": 6, "kind": "join"}]},
        agent={"meta_tasks_per_update": 2, "meta_inner_episodes": 1,
               "meta_fraction": 0.5, "hidden": [4]},
    )
    seeds, played = [], []
    reset, finish = CoverageEnv.reset, ag.ActorCriticLearner.finish_episode

    def spy_reset(self, task=None, rng_seed=None, start_cells=None):
        seeds.append(rng_seed)
        return reset(self, task, rng_seed, start_cells)

    def spy_finish(self, rng):
        played.append(len(seeds))
        finish(self, rng)

    monkeypatch.setattr(CoverageEnv, "reset", spy_reset)
    monkeypatch.setattr(ag.ActorCriticLearner, "finish_episode", spy_finish)
    d = hz.run_experiment(cfg, tmp_path)[0]
    summary = json.loads((d / "summary.json").read_text())
    assert summary["pretrain_episodes"] == 4
    assert played == list(range(1, 4 + 10 + 1))  # one reset before each episode
    assert all(isinstance(seed, int) for seed in seeds)
    rows = hz.read_metrics(d / "metrics.csv")
    assert [m.swarm_size for m in rows] == [1] * 6 + [2] * 4


def test_dqn_anneals_over_the_whole_run_across_swarm_events(tmp_path, monkeypatch):
    cfg = tiny_cfg(
        run={"algorithm": "dqn"},
        env={"events": [{"episode": 4, "kind": "join"},
                        {"episode": 8, "kind": "leave", "count": 2}]},
        agent={"eps_decay_frac": 0.8},
    )
    played = []  # (learner, epsilon) per finished episode
    finish = ag.DQNLearner.finish_episode

    def spy(self, rng):
        played.append((self, self.epsilon))
        finish(self, rng)

    monkeypatch.setattr(ag.DQNLearner, "finish_episode", spy)
    hz.run_experiment(cfg, tmp_path)
    assert len({id(learner) for learner, _ in played}) == 1
    assert [eps for _, eps in played] == [
        ag.epsilon_at(k, 12, cfg.agent) for k in range(12)
    ]


def oversize_every_join(monkeypatch):
    """Make each join add five UAVs when a run plays it. EnvConfig checks a
    schedule when it is built, so only this way can a run fail at an event."""
    apply = CoverageEnv.apply_swarm_event
    monkeypatch.setattr(CoverageEnv, "apply_swarm_event", lambda self, task, event: apply(
        self, task, dataclasses.replace(event, count=5)))


def test_failed_seed_cleans_up_its_directory(tmp_path, monkeypatch):
    # The seed fails when the join comes, after two episodes.
    cfg = tiny_cfg(env={"events": [{"episode": 2, "kind": "join"}]})
    oversize_every_join(monkeypatch)
    with pytest.raises(ValueError, match="maximum swarm size"):
        hz.run_experiment(cfg, tmp_path)
    assert not (tmp_path / "tiny_random" / "seed0").exists()


def test_a_failing_event_fails_when_the_run_reaches_it(tmp_path, monkeypatch):
    # The schedule is replayed lazily: the two episodes before the join are
    # played, and the seed fails at the join, not before its first episode.
    cfg = tiny_cfg(env={"events": [{"episode": 2, "kind": "join"}]})
    oversize_every_join(monkeypatch)
    resets = []
    reset = CoverageEnv.reset

    def spy_reset(self, *args, **kwargs):
        resets.append(1)
        return reset(self, *args, **kwargs)

    monkeypatch.setattr(CoverageEnv, "reset", spy_reset)
    with pytest.raises(ValueError, match="maximum swarm size"):
        hz.run_experiment(cfg, tmp_path)
    assert len(resets) == 2


def test_events_given_out_of_order_play_in_episode_order(tmp_path):
    # load_config checks the schedule in the order the run plays it, and
    # the resolved config echoes the events as given.
    given = [{"episode": 8, "kind": "leave", "count": 2}, {"episode": 4, "kind": "join"}]
    cfg = tiny_cfg(env={"events": given})
    d = hz.run_experiment(cfg, tmp_path)[0]
    rows = hz.read_metrics(d / "metrics.csv")
    assert [m.swarm_size for m in rows] == [2] * 4 + [3] * 4 + [1] * 4
    echoed = json.loads((d / "resolved_config.json").read_text())["env"]["events"]
    assert [(e["episode"], e["kind"], e["count"]) for e in echoed] == [(8, "leave", 2), (4, "join", 1)]

# --- comparisons -----------------------------------------------------------------------


def test_comparison_needs_two_matching_configs(tmp_path):
    cfg = tiny_cfg(run={"episodes": 6})
    with pytest.raises(ValueError, match="at least two"):
        hz.compare_algorithms([cfg])
    other_scenario = tiny_cfg(run={"episodes": 6, "scenario": "other"})
    with pytest.raises(ValueError, match="share one scenario"):
        hz.compare_algorithms([cfg, other_scenario])
    other_seeds = tiny_cfg(run={"episodes": 6, "seeds": [1]})
    with pytest.raises(ValueError, match="seeds and episode count"):
        hz.compare_algorithms([cfg, other_seeds])


def test_comparing_an_algorithm_with_itself_gives_twin_rows(tmp_path):
    cfg = tiny_cfg(run={"episodes": 6})
    out = tmp_path / "compare.csv"
    rows = hz.compare_algorithms([cfg, cfg], out)
    assert rows[0] == rows[1]
    assert rows[0]["algorithm"] == "random" and rows[0]["seeds"] == "0"
    assert 0.0 <= rows[0]["final_satisfaction_mean"] <= 1.0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(hz.COMPARISON_COLUMNS)
    assert len(lines) == 3


def test_comparison_rows_differ_across_algorithms(tmp_path):
    base = tiny_cfg(run={"episodes": 6})
    other = tiny_cfg(run={"episodes": 6, "algorithm": "actor_critic"})
    rows = hz.compare_algorithms([base, other])
    assert [r["algorithm"] for r in rows] == ["random", "actor_critic"]


# --- plot-data emission ------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    cfg = tiny_cfg()
    return hz.run_experiment(cfg, tmp_path_factory.mktemp("run"))[0]


def test_emit_learning_curve(run_dir):
    out = hz.emit_plot_data(run_dir, "learning_curve")
    lines = out.read_text().splitlines()
    assert lines[0] == "episode,reward,reward_ma,swarm_size,satisfaction"
    assert len(lines) == 1 + 12


def test_emit_heatmap_matches_training_heatmap(run_dir):
    out = hz.emit_plot_data(run_dir, "heatmap", run_dir / "h.csv")
    assert out.read_bytes() == (run_dir / "heatmap.csv").read_bytes()


def test_emit_bar_data(run_dir):
    for kind, first_col in (("energy_bars", "algorithm"), ("satisfaction_bars", "algorithm")):
        out = hz.emit_plot_data(run_dir, kind)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(first_col)
        assert "random" in lines[1]


def test_emit_rejects_unknown_kind(run_dir):
    with pytest.raises(ValueError, match="unknown plot kind 'pie'"):
        hz.emit_plot_data(run_dir, "pie")


def test_emit_needs_a_run_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match="metrics.csv"):
        hz.emit_plot_data(tmp_path, "learning_curve")


# --- pinned output bytes ------------------------------------------------------------------

#: Test 7's 3x3 replay scenario with whole meta rounds (2 tasks x 2 inner
#: episodes, 20 pretraining episodes) and a target refresh inside the run.
_PINNED_OVERRIDES = {
    "run": {"scenario": "replay", "episodes": 40, "seeds": [0]},
    "mission": {"area_m": 264.0, "cells_per_side": 3, "slots": 6,
                "frame_seconds": 144.0},
    "env": {"max_swarm": 2, "swarm_size": 2, "swarm_min": 1, "swarm_max": 2,
            "strategic_cells": [4], "device_count": 9},
    "agent": {"hidden": [8], "meta_tasks_per_update": 2, "meta_inner_episodes": 2,
              "target_refresh": 10},
}
_PINNED_EVENTS = [{"episode": 13, "kind": "leave"}, {"episode": 26, "kind": "join"}]
_PINNED_FILES = ("metrics.csv", "heatmap.csv", "summary.json")
#: sha256 of metrics.csv, heatmap.csv and summary.json per algorithm.
_PINNED_DIGESTS = {
    "meta_rl": (
        "a1345f9e8db136c8b637e7d10545037fdcd99f26aa541cec2be29c084eca8762",
        "26e0790b2f7594ac5762807bf318bb6c5d1daecf494e0d0f4cbfe93260b88756",
        "f1cdac60ef39177904525cd7d83aebbb83432e6c018ad81e47eea52d9cfd729b",
    ),
    "actor_critic": (
        "1b06c059469269ec7222c40cb9d3b22ea9af4f3e2bc771655684aae2cd7275ed",
        "6056e9c6bf584a43d109af603bb36193a461b71664cbaf1b720bcfec90d26834",
        "840c57e90016778d4b13d30f5f2141c892b26ea652436d6424d2c7d3528beacd",
    ),
    "dqn": (
        "9b0c6eff36b39b8101d8c67abf128e050f4397153ad76bfdce25d07a00d2742b",
        "2473b6a43217cc8224d118204d777da0636329afe22ab98f0abfe16b8e6c7666",
        "bd5a6c1565306359643f6609056d83d7220775704b62f429decf1dfa0d1c2f84",
    ),
    "ppo": (
        "d6a1e4678130f382250912506a7a07981ccedca1529b8fe7989ea6d1d8312cd3",
        "0aadb138e1efc3f6d201ef203edfe79509839d71cc76a0da9588e768ad5db78a",
        "3fdf1a11124652e655508d93b88783706614624d45d2ce425fb8f231a579a3af",
    ),
    "random": (
        "5ab733f89aaa3e488b29142ac97763d6adb7aa78e431f24716eab3e6d780dc46",
        "862c6941a8275b5544fc7b0f8f2f10cc396ed3174484d47ed63efd76d3700b94",
        "52fdb6159cec07850ab37a765edd7ae814c7c9a018aafd6b163250c7281de379",
    ),
}


@pytest.mark.parametrize("algorithm", sorted(_PINNED_DIGESTS))
def test_output_bytes_are_pinned(algorithm, tmp_path):
    """The run files of every algorithm are pinned to the byte.

    dqn and ppo play a leave and a join. A change that moves the random
    stream or the float path of any learner changes these digests: such
    a change must re-pin them here and say so in CHANGES.md.
    """
    env = dict(_PINNED_OVERRIDES["env"])
    if algorithm in ("dqn", "ppo"):
        env["events"] = _PINNED_EVENTS
    cfg = cf.load_config(overrides={
        **_PINNED_OVERRIDES,
        "run": {**_PINNED_OVERRIDES["run"], "algorithm": algorithm},
        "env": env,
    })
    seed_dir = hz.run_experiment(cfg, tmp_path)[0]
    got = tuple(hashlib.sha256((seed_dir / name).read_bytes()).hexdigest()
                for name in _PINNED_FILES)
    assert got == _PINNED_DIGESTS[algorithm]


#: The pinned run with a replay ring of 38 rows and minibatches of 16: 38 is
#: a multiple of neither the 6 slots nor DQN's update interval of 4, so the
#: ring wraps inside a DQN write block.
_WRAPPING_AGENT = {"replay_capacity": 38, "minibatch": 16}
#: sha256 of metrics.csv, heatmap.csv and summary.json per algorithm.
_WRAPPING_DIGESTS = {
    "dqn": (
        "0eeb6620b48275c90a20ca1be61c138e13a4750316bd4476d8db621547b2fe40",
        "8fd07a59eea2b851540bd1bc362e7216fd5edb065a946cce7eeb23ed3932872f",
        "a727a874e8a9edaf8c63b3cee59195038de75c9dfd5fb66fe3c81353738745d1",
    ),
}


@pytest.mark.parametrize("algorithm", sorted(_WRAPPING_DIGESTS))
def test_output_bytes_are_pinned_through_a_wrapping_replay(algorithm, tmp_path):
    """The pinned run bytes of DQN, the one replay user, while its memory
    wraps its ring several times over: it writes 240 rows."""
    cfg = cf.load_config(overrides={
        **_PINNED_OVERRIDES,
        "run": {**_PINNED_OVERRIDES["run"], "algorithm": algorithm},
        "env": {**_PINNED_OVERRIDES["env"], "events": _PINNED_EVENTS},
        "agent": {**_PINNED_OVERRIDES["agent"], **_WRAPPING_AGENT},
    })
    seed_dir = hz.run_experiment(cfg, tmp_path)[0]
    got = tuple(hashlib.sha256((seed_dir / name).read_bytes()).hexdigest()
                for name in _PINNED_FILES)
    assert got == _WRAPPING_DIGESTS[algorithm]


#: sha256 of the four files ``emit_plot_data`` writes for the pinned meta_rl
#: run with the pinned leave and join, and of that run's resolved_config.json.
_EMITTED_DIGESTS = {
    "plot_heatmap.csv":
        "2a0c479cb6fa0a3f48766834b5727c7510ecbca23950fa8accc444ee38e4f05a",
    "plot_learning_curve.csv":
        "c1b046716d09d6a0731011b50f36735bd543120a4a3fa779614bdea4811a8cec",
    "plot_energy_bars.csv":
        "32a4686a716bdcf06bb18a63be4dddaf30485f2fea8f75e8b718af33c4256385",
    "plot_satisfaction_bars.csv":
        "d04066dcfb01ccc99fce5967383779639f368f496e37d3c1bd053f06e4f40c8c",
    "resolved_config.json":
        "a992734f4fbc91490546f10607a410ebe12633655d2a7665ae17ef517662df3c",
}


def test_emitted_plot_data_and_resolved_config_are_pinned(tmp_path):
    """Every ``emit`` kind and the resolved config are pinned to the byte.
    The run plays the events, so the resolved config echoes a schedule, and
    ``out_dir`` is fixed, since the resolved config echoes it too."""
    cfg = cf.load_config(overrides={
        **_PINNED_OVERRIDES,
        "run": {**_PINNED_OVERRIDES["run"], "algorithm": "meta_rl", "out_dir": "pinned"},
        "env": {**_PINNED_OVERRIDES["env"], "events": _PINNED_EVENTS},
    })
    seed_dir = hz.run_experiment(cfg, tmp_path)[0]
    for kind in hz.PLOT_KINDS:
        hz.emit_plot_data(seed_dir, kind)
    got = {name: hashlib.sha256((seed_dir / name).read_bytes()).hexdigest()
           for name in _EMITTED_DIGESTS}
    assert got == _EMITTED_DIGESTS


#: sha256 of comparison.csv for dqn against ppo on the pinned world.
_COMPARISON_DIGEST = "40656bbe04d81ae792718884ca6fa70ce3dacfc0e8eefa199e9e75372afda533"


def test_comparison_bytes_are_pinned(tmp_path):
    """comparison.csv is pinned to the byte: dqn against ppo over three
    seeds, each run playing the leave and the join. A short window and a
    full convergence level give ppo's seeds different plateau episodes, so
    every mean and std column differs from its twin."""
    cfgs = [cf.load_config(overrides={
        **_PINNED_OVERRIDES,
        "run": {**_PINNED_OVERRIDES["run"], "algorithm": algorithm, "seeds": [0, 1, 2],
                "ma_window": 3, "convergence_level": 1.0},
        "env": {**_PINNED_OVERRIDES["env"], "events": _PINNED_EVENTS},
    }) for algorithm in ("dqn", "ppo")]
    out = tmp_path / "comparison.csv"
    hz.compare_algorithms(cfgs, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _COMPARISON_DIGEST
