"""Experiment harness: seeded training runs, metrics files, comparisons.

One experiment = one algorithm on one scenario over a list of seeds.
Every seed gets its own output directory containing

- ``metrics.csv``   one row per episode (fixed schema, per-cell visits),
- ``heatmap.csv``   per-cell visit counts over the plateau tail,
- ``summary.json``  scalar end-of-run aggregates,
- ``resolved_config.json``  the fully-resolved config for reproduction.

Every CSV file goes through :func:`write_csv` and every JSON file
through :func:`swarmcover.config.write_json`; both write UTF-8 with
``\\n`` line endings, and ``write_csv`` writes floats with ``repr``, so
identically-seeded single-threaded runs are byte-identical.
Partially-written seed directories are removed when a run fails.
"""

from __future__ import annotations

import csv
import math
import shutil
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .agents import (
    ActorCriticLearner,
    PolicyParams,
    make_learner,
    make_policy_params,
    meta_adapt,
    meta_outer_update,
    run_training_episode,
)
from .config import AgentConfig, ExperimentConfig, _read_json, _typed, write_json
from .env import CoverageEnv, TaskSpec, swarm_schedule

#: The summary.json keys each plot kind reads, with the type each must hold.
_PLOT_KEYS = {
    "heatmap": {"plateau_tail": float, "cells_per_side": int, "strategic_cells": tuple[int, ...]},
    "learning_curve": {"ma_window": int},
    "energy_bars": {"algorithm": str, "scenario": str, "energy_strategic_tail_mean": float,
                    "energy_nonstrategic_tail_mean": float, "energy_total_tail_mean": float},
    "satisfaction_bars": {"algorithm": str, "scenario": str, "plateau_tail": float},
}
PLOT_KINDS = tuple(_PLOT_KEYS)


@dataclass(frozen=True)
class EpisodeMetrics:
    """One metrics row; mirrors the metrics.csv schema."""

    episode: int
    swarm_size: int
    reward: float
    satisfaction: float
    energy_total_j: float
    energy_masked_j: float
    energy_strategic_j: float
    energy_nonstrategic_j: float
    collisions: int
    d_data_s: float
    d_com_s: float
    coverage_ok: bool
    visits: tuple[int, ...]

    @classmethod
    def from_stats(cls, episode: int, stats: dict) -> "EpisodeMetrics":
        values = dict(stats, episode=episode)
        scalars = {f.name: _FROM_STATS[f.type](values[f.name]) for f in _SCALAR_FIELDS}
        return cls(visits=tuple(int(v) for v in stats["visits"]), **scalars)


#: The metrics.csv schema: every field but ``visits``, then one visits column per cell.
_SCALAR_FIELDS = tuple(f for f in fields(EpisodeMetrics) if f.name != "visits")
_SCALAR_NAMES = [f.name for f in _SCALAR_FIELDS]
_FROM_STATS = {"int": int, "float": float, "bool": bool}
_FROM_CELL = {"int": int, "float": float, "bool": {"0": False, "1": True}.__getitem__}


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV with ``\\n`` line endings, every
    value through :func:`_cell`. The one CSV writer of the package."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_metrics(path: Path, rows: Sequence[EpisodeMetrics]) -> None:
    if not rows:
        raise ValueError("refusing to write an empty metrics file")
    n_cells = len(rows[0].visits)
    header = _SCALAR_NAMES + [f"visits_{i}" for i in range(n_cells)]
    write_csv(path, header, ([getattr(row, f.name) for f in _SCALAR_FIELDS] + list(row.visits)
                             for row in rows))


def read_metrics(path: Path) -> list[EpisodeMetrics]:
    """The rows of a :func:`write_metrics` file, blank lines skipped;
    ``ValueError`` for a file with another header or no episode rows, or
    with a cell its column's type does not parse (a bool is 0 or 1)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = csv.reader(fh)
        header = next(records, [])
        k = len(_SCALAR_NAMES)
        visits = [f"visits_{i}" for i in range(len(header) - k)]
        if header[:k] != _SCALAR_NAMES or header[k:] != visits:
            raise ValueError(f"{path} is not a metrics file: its header is not "
                             f"{','.join(_SCALAR_NAMES)},visits_0,...")
        types, rows = [f.type for f in _SCALAR_FIELDS] + ["int"] * len(visits), []
        for rec in records:
            if not rec:  # a blank line
                continue
            if len(rec) != len(header):
                raise ValueError(f"{path} line {records.line_num} has {len(rec)} fields, "
                                 f"not the header's {len(header)}")
            cells = []
            for name, kind, text in zip(header, types, rec):
                try:
                    cells.append(_FROM_CELL[kind](text))
                except (KeyError, ValueError):
                    raise ValueError(
                        f"{path} line {records.line_num} column {name} holds {text!r}, "
                        f"which is not {'0 or 1' if kind == 'bool' else kind}") from None
            rows.append(EpisodeMetrics(*cells[:k], tuple(cells[k:])))
    if not rows:
        raise ValueError(f"{path} holds no episode rows")
    return rows


# --- convergence estimation --------------------------------------------------

def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Trailing moving average; shorter prefixes average what exists."""
    if window < 1:
        raise ValueError("window must be at least 1")
    out = np.empty(len(values))
    acc = 0.0
    vals = list(values)
    for t, v in enumerate(vals):
        acc += v
        if t >= window:
            acc -= vals[t - window]
        out[t] = acc / min(t + 1, window)
    return out


def episodes_to_plateau(
    rewards: Sequence[float],
    window: int = 50,
    tail: float = 0.1,
    level: float = 0.9,
) -> tuple[int, float]:
    """First episode whose moving average reaches ``level`` of the plateau.

    The plateau is the mean of the moving-average curve over the last
    ``tail`` fraction of episodes; the threshold sits ``1 - level`` of
    the plateau's magnitude below it (so negative plateaus work too).
    Returns (episode index, plateau value).
    """
    if not 0.0 < tail <= 1.0 or not 0.0 < level <= 1.0:
        raise ValueError("tail and level must lie in (0, 1]")
    if not len(rewards):
        raise ValueError("need at least one episode")
    ma = moving_average(rewards, window)
    tail_len = max(1, math.ceil(tail * len(ma)))
    plateau = float(ma[-tail_len:].mean())
    threshold = plateau - (1.0 - level) * abs(plateau)
    hit = np.nonzero(ma >= threshold)[0]
    return int(hit[0]), plateau


# --- training drivers ---------------------------------------------------------

def train_task(
    env: CoverageEnv,
    task: TaskSpec,
    learner,
    episodes: int,
    rng: np.random.Generator,
) -> list[dict]:
    """Train a learner on one fixed task for a number of episodes.

    The learner owns its exploration: DQN continues its epsilon schedule
    across calls, so a run split into chunks at swarm events anneals as
    one unbroken run would.
    """
    return [run_training_episode(env, task, learner, rng) for _ in range(episodes)]


def train_meta_params(
    env: CoverageEnv,
    agent_cfg: AgentConfig,
    episode_budget: int,
    rng: np.random.Generator,
) -> PolicyParams:
    """Meta-train an initialization over the environment's task family.

    Each outer round adapts clones of the meta weights on freshly
    sampled tasks and interpolates the meta weights toward the mean
    adapted result. Rounds run until the episode budget cannot fund
    another full round; consumed episodes = rounds x tasks x inner.
    """
    meta = make_policy_params(env.state_dim, env.cfg.max_swarm, agent_cfg, rng,
                              critic_outputs=env.cfg.max_swarm)
    per_round = agent_cfg.meta_tasks_per_update * agent_cfg.meta_inner_episodes
    for _ in range(episode_budget // per_round):
        adapted = []
        for _ in range(agent_cfg.meta_tasks_per_update):
            task = env.sample_task(rng)
            adapted.append(meta_adapt(meta, env, task, rng, agent_cfg))
        meta_outer_update(meta, adapted, agent_cfg.meta_outer_lr)
    return meta


def _train_one_seed(cfg: ExperimentConfig, seed: int) -> list[EpisodeMetrics]:
    """Train one seed and return the recorded per-episode metrics rows.

    Rows cover the scenario-task episodes only; meta pre-training (for
    meta_rl) happens beforehand and is not recorded. Event episodes are
    indices into the recorded rows: an event at episode e changes the
    swarm before row e is played.
    """
    rng = np.random.default_rng(seed)
    env = CoverageEnv(cfg.mission, cfg.link, cfg.radio, cfg.env)
    episodes = cfg.run.episodes
    agent_cfg = cfg.agent
    algorithm = cfg.run.algorithm
    metrics: list[EpisodeMetrics] = []
    meta: PolicyParams | None = None
    if algorithm == "meta_rl":
        meta = train_meta_params(env, agent_cfg, _pretrain_episodes(cfg), rng)
    else:
        learner = make_learner(algorithm, env.state_dim, cfg.env.max_swarm, agent_cfg, rng,
                               episodes, env.real_cols)

    for task, until in swarm_schedule(cfg.env.events, env.nominal_task(), env.apply_swarm_event):
        if meta is not None:
            # A meta-initialized learner adapts from the meta weights
            # afresh at every stretch, so whenever the task changes.
            learner = ActorCriticLearner(meta.clone(), agent_cfg)
        stop = episodes if until is None else min(until, episodes)
        for stats in train_task(env, task, learner, stop - len(metrics), rng):
            metrics.append(EpisodeMetrics.from_stats(len(metrics), stats))
        if stop == episodes:
            break
    return metrics


def _pretrain_episodes(cfg: ExperimentConfig) -> int:
    """Meta-pretraining episodes a run plays: the whole rounds that its
    share ``meta_fraction`` of the episodes funds (none but for meta_rl)."""
    if cfg.run.algorithm != "meta_rl":
        return 0
    agent = cfg.agent
    per_round = agent.meta_tasks_per_update * agent.meta_inner_episodes
    return int(round(agent.meta_fraction * cfg.run.episodes)) // per_round * per_round


def _tail_slice(rows: Sequence, tail: float) -> Sequence:
    return rows[-max(1, math.ceil(tail * len(rows))):]


def _summary(cfg: ExperimentConfig, seed: int, metrics: list[EpisodeMetrics]) -> dict:
    run = cfg.run
    rewards = [m.reward for m in metrics]
    plateau_ep, plateau = episodes_to_plateau(
        rewards, run.ma_window, run.plateau_tail, run.convergence_level
    )
    tail = _tail_slice(metrics, run.plateau_tail)
    return {
        "scenario": run.scenario,
        "algorithm": run.algorithm,
        "seed": seed,
        "episodes": len(metrics),
        "pretrain_episodes": _pretrain_episodes(cfg),
        "swarm_size_initial": metrics[0].swarm_size,
        "swarm_size_final": metrics[-1].swarm_size,
        "strategic_cells": list(cfg.env.strategic_cells),
        "cells_per_side": cfg.mission.cells_per_side,
        "ma_window": run.ma_window,
        "plateau_tail": run.plateau_tail,
        "convergence_level": run.convergence_level,
        "plateau_episode": plateau_ep,
        "plateau_reward": plateau,
        "reward_tail_mean": float(np.mean([m.reward for m in tail])),
        "satisfaction_tail_mean": float(np.mean([m.satisfaction for m in tail])),
        "energy_total_tail_mean": float(np.mean([m.energy_total_j for m in tail])),
        "energy_strategic_tail_mean": float(np.mean([m.energy_strategic_j for m in tail])),
        "energy_nonstrategic_tail_mean": float(np.mean([m.energy_nonstrategic_j for m in tail])),
        "collisions_total": int(sum(m.collisions for m in metrics)),
        "coverage_rate": float(np.mean([1.0 if m.coverage_ok else 0.0 for m in metrics])),
    }


def _write_heatmap(path: Path, metrics: Sequence[EpisodeMetrics], summary: dict) -> None:
    """Per-cell visit counts summed over the plateau tail of a run."""
    rows = _tail_slice(metrics, summary["plateau_tail"])
    n_side = summary["cells_per_side"]
    strategic = set(summary["strategic_cells"])
    write_csv(path, ["cell_x", "cell_y", "visits", "is_strategic"], (
        [i % n_side, i // n_side, sum(m.visits[i] for m in rows), i in strategic]
        for i in range(len(metrics[0].visits))
    ))


def run_experiment(cfg: ExperimentConfig, base_dir: str | Path | None = None) -> list[Path]:
    """Train every seed of an experiment and write its output directories.

    Returns the per-seed directories. A failing seed removes its own
    partially-written directory before the error propagates.
    """
    base = Path(base_dir if base_dir is not None else cfg.run.out_dir)
    run_dir = base / f"{cfg.run.scenario}_{cfg.run.algorithm}"
    out_dirs = []
    for seed in cfg.run.seeds:
        seed_dir = run_dir / f"seed{seed}"
        if seed_dir.exists():
            shutil.rmtree(seed_dir)
        seed_dir.mkdir(parents=True)
        try:
            metrics = _train_one_seed(cfg, seed)
            summary = _summary(cfg, seed, metrics)
            write_metrics(seed_dir / "metrics.csv", metrics)
            _write_heatmap(seed_dir / "heatmap.csv", metrics, summary)
            write_json(seed_dir / "summary.json", summary)
            write_json(seed_dir / "resolved_config.json", asdict(cfg))
        except BaseException:
            shutil.rmtree(seed_dir, ignore_errors=True)
            raise
        out_dirs.append(seed_dir)
    return out_dirs


# --- cross-algorithm comparison -----------------------------------------------

#: comparison.csv's per-algorithm aggregates: (column, summary key, reduction over seeds).
_COMPARED = (
    ("episodes_to_plateau_mean", "plateau_episode", np.mean),
    ("episodes_to_plateau_std", "plateau_episode", np.std),
    ("final_satisfaction_mean", "satisfaction_tail_mean", np.mean),
    ("final_satisfaction_std", "satisfaction_tail_mean", np.std),
    ("energy_strategic_mean", "energy_strategic_tail_mean", np.mean),
    ("energy_nonstrategic_mean", "energy_nonstrategic_tail_mean", np.mean),
    ("plateau_reward_mean", "plateau_reward", np.mean),
)
COMPARISON_COLUMNS = ("scenario", "algorithm", "seeds") + tuple(c for c, _, _ in _COMPARED)


def compare_algorithms(
    cfgs: Sequence[ExperimentConfig], out_path: str | Path | None = None
) -> list[dict]:
    """Train several configs on one scenario and tabulate them side by side.

    All configs must share the scenario, seed list, and episode count;
    they are expected to differ in algorithm (running one algorithm
    twice is legal and yields identical rows).
    """
    if len(cfgs) < 2:
        raise ValueError("comparison needs at least two configs")
    first = cfgs[0].run
    for cfg in cfgs[1:]:
        if cfg.run.scenario != first.scenario:
            raise ValueError("configs must share one scenario")
        if cfg.run.seeds != first.seeds or cfg.run.episodes != first.episodes:
            raise ValueError("configs must share seeds and episode count")

    rows = []
    for cfg in cfgs:
        summaries = [_summary(cfg, seed, _train_one_seed(cfg, seed)) for seed in cfg.run.seeds]
        rows.append({
            "scenario": cfg.run.scenario,
            "algorithm": cfg.run.algorithm,
            "seeds": "|".join(str(s) for s in cfg.run.seeds),
            **{column: float(reduce([s[key] for s in summaries]))
               for column, key, reduce in _COMPARED},
        })

    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(out_path, COMPARISON_COLUMNS,
                  ([row[c] for c in COMPARISON_COLUMNS] for row in rows))
    return rows


# --- plot-data emission ---------------------------------------------------------

def emit_plot_data(
    metrics_path: str | Path, kind: str, out_path: str | Path | None = None
) -> Path:
    """Write one plot-ready delimited file derived from a run directory.

    ``metrics_path`` is a run directory or its metrics.csv. Kinds:
    heatmap (per-cell visits over the plateau tail), learning_curve
    (per-episode reward and its moving average), energy_bars and
    satisfaction_bars (end-of-run aggregates for bar charts). Each summary
    key a kind reads is type-checked as a config value is, before writing.
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r} (known: {', '.join(PLOT_KINDS)})")
    path = Path(metrics_path)
    run_dir = path if path.is_dir() else path.parent
    metrics_file = run_dir / "metrics.csv"
    summary_file = run_dir / "summary.json"
    if not metrics_file.exists():
        raise FileNotFoundError(f"no metrics.csv in {run_dir}")
    if not summary_file.exists():
        raise FileNotFoundError(f"no summary.json in {run_dir}")
    metrics = read_metrics(metrics_file)
    summary = _read_json(summary_file, str(summary_file))
    for key, hint in _PLOT_KEYS[kind].items():
        if key not in summary:
            raise ValueError(f"{summary_file} has no {key!r} key")
        _typed(summary[key], hint, f"{summary_file} key {key!r}")
    out = Path(out_path) if out_path is not None else run_dir / f"plot_{kind}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    if kind == "heatmap":
        _write_heatmap(out, metrics, summary)
    elif kind == "learning_curve":
        ma = moving_average([m.reward for m in metrics], summary["ma_window"])
        write_csv(out, ["episode", "reward", "reward_ma", "swarm_size", "satisfaction"],
                  ([m.episode, m.reward, float(avg), m.swarm_size, m.satisfaction]
                   for m, avg in zip(metrics, ma)))
    elif kind == "energy_bars":
        write_csv(out, ["algorithm", "scenario", "energy_strategic_j",
                        "energy_nonstrategic_j", "energy_total_j"], [[
            summary["algorithm"], summary["scenario"],
            float(summary["energy_strategic_tail_mean"]),
            float(summary["energy_nonstrategic_tail_mean"]),
            float(summary["energy_total_tail_mean"]),
        ]])
    else:  # satisfaction_bars
        sats = [m.satisfaction for m in _tail_slice(metrics, summary["plateau_tail"])]
        write_csv(out, ["algorithm", "scenario", "swarm_size",
                        "satisfaction_mean", "satisfaction_std"], [[
            summary["algorithm"], summary["scenario"], metrics[-1].swarm_size,
            float(np.mean(sats)), float(np.std(sats)),
        ]])
    return out
