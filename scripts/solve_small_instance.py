#!/usr/bin/env python3
"""Exactly solve a hand-sized mission and cross-check the answer.

Loads a world-layout instance (2x2 grid by default), finds the cheapest
feasible plan with the exact bounded search (a depth-first search that
skips only branches that cannot hold a cheaper plan), prints it, then
replays it through the independent feasibility checker.
"""

import argparse
from pathlib import Path

from swarmcover.config import load_instance
from swarmcover.oracle import enumerate_optimum, verify_feasibility

REPO = Path(__file__).resolve().parents[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instance", default=REPO / "configs" / "small_instance.json")
    args = parser.parse_args()

    instance = load_instance(args.instance)
    solution = enumerate_optimum(instance)
    print(
        f"searched {solution.leaves_evaluated} leaves "
        f"({solution.feasible_leaves} feasible, {solution.branches_pruned} pruned)"
    )
    if not solution.feasible:
        print("no feasible plan exists for this instance")
        return

    print(f"optimum energy: {solution.objective_j:.1f} J")
    for i, path in enumerate(solution.trajectories):
        print(f"  uav {i}: cells {' -> '.join(map(str, path))}")

    report = verify_feasibility(solution.trajectories, instance)
    status = "confirmed" if report.all_ok else f"REJECTED: {report.first_violation}"
    print(f"independent recheck: {status} ({report.objective_j:.1f} J)")


if __name__ == "__main__":
    main()
