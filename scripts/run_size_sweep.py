#!/usr/bin/env python3
"""Sweep swarm size and compare algorithms at the largest size.

Part one trains the meta learner at each swarm size in --sizes, each
size under its own scenario name ``<scenario>_n<size>``, and reports
the tail-mean device satisfaction of each size from its summaries.
Part two pits the meta learner against the single-task baselines at
the largest size via compare_algorithms.
"""

import argparse
import json
from pathlib import Path

from swarmcover.config import load_config
from swarmcover.harness import compare_algorithms, emit_plot_data, run_experiment

REPO = Path(__file__).resolve().parents[1]
BASELINES = ("actor_critic", "dqn", "ppo")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=REPO / "configs" / "size_sweep.json")
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 4, 5, 6, 7])
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--skip-baselines", action="store_true")
    args = parser.parse_args()

    def build(overrides):
        if args.episodes is not None:
            overrides.setdefault("run", {})["episodes"] = args.episodes
        if args.out is not None:
            overrides.setdefault("run", {})["out_dir"] = args.out
        return load_config(args.config, overrides=overrides)

    scenario = build({}).run.scenario
    by_size = {}
    for size in args.sizes:
        cfg = build({"env": {"swarm_size": size}, "run": {"scenario": f"{scenario}_n{size}"}})
        seed_dirs = run_experiment(cfg)
        per_seed = [
            json.loads((d / "summary.json").read_text(encoding="utf-8"))["satisfaction_tail_mean"]
            for d in seed_dirs
        ]
        by_size[size] = sum(per_seed) / len(per_seed)
        emit_plot_data(seed_dirs[0], "satisfaction_bars")
        print(f"swarm={size}: mean tail satisfaction {by_size[size]:.3f}")

    print(json.dumps({"satisfaction_by_size": by_size}, indent=2))

    if args.skip_baselines:
        return

    largest = max(args.sizes)
    cfgs = [build({"env": {"swarm_size": largest}})]
    for algo in BASELINES:
        cfgs.append(build({"env": {"swarm_size": largest}, "run": {"algorithm": algo}}))
    table = compare_algorithms(cfgs)
    for row in table:
        print(
            f"{row['algorithm']:>12}: satisfaction {row['final_satisfaction_mean']:.3f}  "
            f"plateau reward {row['plateau_reward_mean']:.1f}  "
            f"plateau at ep {row['episodes_to_plateau_mean']:.0f}"
        )


if __name__ == "__main__":
    main()
