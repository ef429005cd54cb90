"""The benchmark's workloads: inputs made from a seed, the CLI calls of one
pass, the work a pass completes, and the checks its outputs must pass.

Each workload is a closed loop with one client: a pass is a list of
``swarmcover.cli.main`` calls made in order, and the next pass starts only
after the previous one has ended. Why each workload exists, and which
layers it loads or bypasses, is recorded in ``design.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from pathlib import Path

WORKLOADS = ("meta_default", "baselines_events", "oracle_exact")

#: Pass sizes. ``full`` is what the benchmark measures; ``tiny`` exists for
#: the smoke test, which must finish in seconds.
SIZES = {
    "full": {"meta_episodes": None, "baseline_episodes": 450, "oracle_horizons": (8, 4)},
    "tiny": {"meta_episodes": 4, "baseline_episodes": 6, "oracle_horizons": (4, 3)},
}

PLOT_KINDS = ("heatmap", "learning_curve", "energy_bars", "satisfaction_bars")
RUN_FILES = ("metrics.csv", "heatmap.csv", "summary.json")

#: Acceptance test 3's instance: the optimum its exhaustive scan must reach.
ACCEPTANCE_OPTIMUM_J = 5296.476206402162
_ACCEPTANCE_GRID = {"area_m": 264.0, "cells_per_side": 3, "slots": 8, "frame_seconds": 192.0}
_ACCEPTANCE_STRATEGIC = (4, 5)
_ACCEPTANCE_DEVICE_SEED = 7
_ACCEPTANCE_START = 1
_LEAVES_LINE = re.compile(r"^leaves (\d+) feasible (\d+) pruned (\d+)$", re.M)


class Workload:
    """One workload's inputs for one seed, written under ``work``."""

    def __init__(self, name: str, seed: int, work: Path, repo: Path, size: str = "full") -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
        self.name = name
        self.seed = seed
        self.work = work
        self.repo = repo
        self.size = SIZES[size]
        self.out = work / "out"
        self.inputs: dict = {}
        getattr(self, f"_make_{name}")()

    # --- inputs -----------------------------------------------------------

    def _write_json(self, name: str, payload: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    def _make_meta_default(self) -> None:
        cfg = json.loads((self.repo / "configs" / "default.json").read_text(encoding="utf-8"))
        cfg["run"]["seeds"] = [self.seed]
        cfg["run"]["out_dir"] = str(self.out)
        if self.size["meta_episodes"] is not None:
            cfg["run"]["episodes"] = self.size["meta_episodes"]
        self.config = self._write_json("meta_default.json", cfg)
        self.inputs = {"config": cfg}
        self.setup_inputs = ("config", [str(self.config)])
        run = cfg["run"]
        self.run_dir = self.out / f"{run['scenario']}_{run['algorithm']}" / f"seed{self.seed}"
        self.argv = [["run", str(self.config), "--seed", str(self.seed)]] + [
            ["emit", str(self.run_dir), "--kind", kind] for kind in PLOT_KINDS
        ]

    def _make_baselines_events(self) -> None:
        episodes = self.size["baseline_episodes"]
        events = [
            {"episode": episodes // 3, "kind": "join", "count": 1},
            {"episode": 2 * episodes // 3, "kind": "leave", "count": 2},
        ]
        self.configs = []
        for algo in ("dqn", "ppo"):
            cfg = {
                "run": {"scenario": "swarm_events", "algorithm": algo, "episodes": episodes,
                        "seeds": [self.seed], "out_dir": str(self.out)},
                "env": {"swarm_size": 4, "events": events},
            }
            self.configs.append(self._write_json(f"{algo}.json", cfg))
            self.inputs[algo] = cfg
        self.setup_inputs = ("config", [str(p) for p in self.configs])
        self.comparison = self.out / "comparison.csv"
        self.argv = [["compare", *map(str, self.configs), "--seed", str(self.seed),
                      "--out", str(self.comparison)]]

    def _make_oracle_exact(self) -> None:
        # Seed 0 is acceptance test 3's instance; other seeds draw the device
        # layout seed and the start cells. With no more devices than
        # strategic cells, every device sits on a strategic cell centre.
        from swarmcover import mission as ms

        rng = random.Random(self.seed)
        h1, h2 = self.size["oracle_horizons"]
        cells = range(_ACCEPTANCE_GRID["cells_per_side"] ** 2)
        if self.seed == 0:
            device_seed = _ACCEPTANCE_DEVICE_SEED
            start1, start2 = [_ACCEPTANCE_START], [_ACCEPTANCE_START, 7]
        else:
            device_seed = rng.randrange(2**31 - 1)
            start1, start2 = [rng.choice(cells)], rng.sample(cells, 2)
        mission = ms.MissionConfig(**_ACCEPTANCE_GRID)
        layout = ms.default_device_layout(
            mission, _ACCEPTANCE_STRATEGIC, seed=device_seed,
            count=len(_ACCEPTANCE_STRATEGIC),
        )
        world = ms.build_grid(mission, layout, _ACCEPTANCE_STRATEGIC)
        self.instances = []
        for tag, start, horizon in (("uav1", start1, h1), ("uav2", start2, h2)):
            inst = dict(ms.layout_to_dict(world), **_ACCEPTANCE_GRID,
                        start_cells=start, horizon=horizon)
            self.instances.append(self._write_json(f"instance_{tag}.json", inst))
            self.inputs[tag] = {"start_cells": start, "horizon": horizon,
                                "device_seed": device_seed}
        self.instances.append(self.repo / "configs" / "small_instance.json")
        self.setup_inputs = ("instance", [str(p) for p in self.instances])
        self.solutions = [self.out / f"solution_{i}.json" for i in range(len(self.instances))]
        self.argv = [["oracle", str(inst), "--out", str(sol)]
                     for inst, sol in zip(self.instances, self.solutions)]

    # --- outputs ------------------------------------------------------------------

    def output_files(self) -> list[Path]:
        if self.name == "meta_default":
            return [self.run_dir / f for f in RUN_FILES] + [
                self.run_dir / f"plot_{k}.csv" for k in PLOT_KINDS
            ]
        if self.name == "baselines_events":
            return [self.comparison]
        return list(self.solutions)

    def digests(self) -> dict[str, str]:
        """sha256 of every output file, keyed by its path under the output dir."""
        return {
            str(p.relative_to(self.out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in self.output_files()
        }

    def work_done(self, log: str) -> tuple[str, float]:
        """(name, amount) of the work one pass completes."""
        if self.name == "oracle_exact":
            found = _LEAVES_LINE.findall(log)
            return "leaves", float(sum(int(lv) + int(pr) for lv, _, pr in found))
        if self.name == "baselines_events":
            return "episodes", float(2 * self.size["baseline_episodes"])
        # Scenario episodes plus the meta pre-training episodes actually
        # played: whole outer rounds of tasks x inner episodes.
        from swarmcover.agents import AgentConfig

        agent = AgentConfig(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in self.inputs["config"].get("agent", {}).items()})
        episodes = self.inputs["config"]["run"]["episodes"]
        per_round = agent.meta_tasks_per_update * agent.meta_inner_episodes
        budget = int(round(agent.meta_fraction * episodes))
        return "episodes", float(episodes + budget // per_round * per_round)

    def check(self) -> list[str]:
        """Problems found in the outputs of the pass just run (empty when correct)."""
        missing = [str(p) for p in self.output_files() if not p.is_file()]
        if missing:
            return [f"missing output {m}" for m in missing]
        return getattr(self, f"_check_{self.name}")()

    def _check_meta_default(self) -> list[str]:
        cfg = self.inputs["config"]
        slots = cfg["mission"]["slots"]
        episodes = cfg["run"]["episodes"]
        problems = []
        with open(self.run_dir / "metrics.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != episodes:
            problems.append(f"metrics.csv has {len(rows)} rows, expected {episodes}")
        for i, row in enumerate(rows):
            try:
                visits = sum(int(v) for k, v in row.items() if k.startswith("visits_"))
                swarm = int(row["swarm_size"])
                sat = float(row["satisfaction"])
            except (TypeError, ValueError) as exc:
                problems.append(f"metrics.csv row {i} unreadable: {exc}")
                continue
            if visits != swarm * slots:
                problems.append(f"metrics.csv row {i}: visits sum {visits} != {swarm} x {slots}")
            if not 0.0 <= sat <= 1.0:
                problems.append(f"metrics.csv row {i}: satisfaction {sat} outside [0, 1]")
        return problems

    def _check_baselines_events(self) -> list[str]:
        with open(self.comparison, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        algos = sorted(r.get("algorithm", "") for r in rows)
        problems = []
        if algos != ["dqn", "ppo"]:
            problems.append(f"comparison.csv rows {algos}, expected one per dqn and ppo")
        numeric = ("episodes_to_plateau_mean", "final_satisfaction_mean",
                   "energy_strategic_mean", "energy_nonstrategic_mean", "plateau_reward_mean")
        for row in rows:
            for key in numeric:
                try:
                    ok = math.isfinite(float(row[key]))
                except (KeyError, TypeError, ValueError):
                    ok = False
                if not ok:
                    problems.append(f"comparison.csv {row.get('algorithm')}: {key} not finite")
        return problems

    def _check_oracle_exact(self) -> list[str]:
        from swarmcover.config import load_instance
        from swarmcover.oracle import verify_feasibility

        problems = []
        for i, (inst_path, sol_path) in enumerate(zip(self.instances, self.solutions)):
            sol = json.loads(sol_path.read_text(encoding="utf-8"))
            if not sol.get("feasible"):
                problems.append(f"instance {i}: no feasible plan")
                continue
            report = verify_feasibility(sol["trajectories"], load_instance(inst_path))
            if not report.all_ok:
                problems.append(f"instance {i}: plan fails the independent re-check")
            objective = sol["objective_j"]
            if abs(report.objective_j - objective) > 1e-9 * abs(objective):
                problems.append(f"instance {i}: objective {objective!r} != "
                                f"re-checked {report.objective_j!r}")
        if self.seed == 0 and self.size is SIZES["full"]:
            sol = json.loads(self.solutions[0].read_text(encoding="utf-8"))
            if sol.get("objective_j") != ACCEPTANCE_OPTIMUM_J:
                problems.append(f"acceptance instance optimum {sol.get('objective_j')!r} "
                                f"!= {ACCEPTANCE_OPTIMUM_J!r}")
        return problems


def setup(kind: str, paths: list[str]) -> None:
    """What a user pays before a pass: load the configs and build their
    environments, or load the exact-solver instances."""
    from swarmcover.config import load_config, load_instance
    from swarmcover.env import CoverageEnv

    for path in paths:
        if kind == "instance":
            load_instance(path)
        else:
            cfg = load_config(path)
            CoverageEnv(cfg.mission, cfg.link, cfg.radio, cfg.env)
