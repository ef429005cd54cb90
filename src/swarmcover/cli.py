"""Command-line entry point.

Subcommands: ``run`` (train one experiment), ``compare`` (train several
configs and tabulate them), ``oracle`` (exactly solve a tiny instance),
``emit`` (derive plot-ready files from a finished run). Heavy imports
happen inside ``main`` so that it can pin the numeric libraries to one
thread (:data:`THREAD_VARS`) before they load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmcover",
        description="UAV swarm data-collection experiments: training runs, "
                    "algorithm comparisons, exact small-instance solving, "
                    "and plot-data emission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one experiment config")
    run.add_argument("config", nargs="?", default=None,
                     help="JSON config file (omit for all defaults)")
    run.add_argument("--seed", type=int, default=None,
                     help="train this single seed instead of the config's list")
    run.add_argument("--episodes", type=int, default=None)
    run.add_argument("--algo", default=None, help="override the algorithm")
    run.add_argument("--out", default=None, help="override the output directory")

    comp = sub.add_parser("compare", help="train several configs and tabulate them")
    comp.add_argument("configs", nargs="+", help="two or more JSON config files")
    comp.add_argument("--seed", type=int, default=None)
    comp.add_argument("--episodes", type=int, default=None)
    comp.add_argument("--out", default=None,
                      help="comparison csv path (default: <out_dir>/comparison.csv)")

    orc = sub.add_parser("oracle", help="exactly solve a tiny instance file")
    orc.add_argument("instance", help="instance JSON (world layout + start_cells + horizon)")
    orc.add_argument("--out", default=None, help="also write the solution as JSON")

    emit = sub.add_parser("emit", help="derive a plot-data file from a run directory")
    emit.add_argument("metrics", help="run directory or its metrics.csv")
    emit.add_argument("--kind", required=True,
                      help="heatmap | learning_curve | energy_bars | satisfaction_bars")
    emit.add_argument("--out", default=None, help="output file path")
    return parser


def _run_overrides(args) -> dict:
    run: dict = {}
    if args.seed is not None:
        run["seeds"] = (args.seed,)
    if args.episodes is not None:
        run["episodes"] = args.episodes
    if getattr(args, "algo", None) is not None:
        run["algorithm"] = args.algo
    if getattr(args, "out", None) is not None and args.command == "run":
        run["out_dir"] = args.out
    return {"run": run}


def _cmd_run(args) -> int:
    from .config import load_config
    from .harness import run_experiment

    cfg = load_config(args.config, overrides=_run_overrides(args))
    for seed_dir in run_experiment(cfg):
        with open(seed_dir / "summary.json", "r", encoding="utf-8") as fh:
            s = json.load(fh)
        print(
            f"{s['scenario']}/{s['algorithm']} seed {s['seed']}: "
            f"plateau@{s['plateau_episode']} reward {s['plateau_reward']:.3f} "
            f"satisfaction {s['satisfaction_tail_mean']:.3f} -> {seed_dir}"
        )
    return 0


def _cmd_compare(args) -> int:
    from .config import load_config
    from .harness import COMPARISON_COLUMNS, compare_algorithms

    cfgs = [load_config(path, overrides=_run_overrides(args)) for path in args.configs]
    out = args.out
    if out is None:
        out = os.path.join(cfgs[0].run.out_dir, "comparison.csv")
    rows = compare_algorithms(cfgs, out_path=out)
    print("\t".join(COMPARISON_COLUMNS))
    for row in rows:
        print("\t".join(str(row[c]) for c in COMPARISON_COLUMNS))
    print(f"wrote {out}")
    return 0


def _cmd_oracle(args) -> int:
    from .config import load_instance, write_json
    from .oracle import EnumerationBudgetExceeded, enumerate_optimum, verify_feasibility

    inst = load_instance(args.instance)
    try:
        sol = enumerate_optimum(inst)
    except EnumerationBudgetExceeded as exc:  # the instance is too big for its budget
        raise ValueError(str(exc)) from None
    if not sol.feasible:
        print(f"infeasible: no trajectory satisfies the constraints "
              f"({sol.leaves_evaluated} leaves examined)")
        return 1
    report = verify_feasibility(sol.trajectories, inst)
    print(f"objective_j {sol.objective_j!r}")
    print(f"unmasked_j {sol.unmasked_j!r}")
    print(f"leaves {sol.leaves_evaluated} feasible {sol.feasible_leaves} "
          f"pruned {sol.branches_pruned}")
    for u, traj in enumerate(sol.trajectories):
        print(f"uav {u} cells " + " -> ".join(str(c) for c in traj))
    print("checks "
          f"rate={report.rate_ok} deadline={report.deadline_ok} coverage={report.coverage_ok}")
    if args.out:
        write_json(args.out, {
            "feasible": sol.feasible,
            "objective_j": sol.objective_j,
            "unmasked_j": sol.unmasked_j,
            "trajectories": [list(t) for t in sol.trajectories],
            "actions": [list(a) for a in sol.actions],
            "leaves_evaluated": sol.leaves_evaluated,
            "feasible_leaves": sol.feasible_leaves,
        })
        print(f"wrote {args.out}")
    return 0


def _cmd_emit(args) -> int:
    from .harness import emit_plot_data

    out = emit_plot_data(args.metrics, args.kind, args.out)
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # One thread per numeric library, so same config and seed give the same bytes.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "oracle": _cmd_oracle,
        "emit": _cmd_emit,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
