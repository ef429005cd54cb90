"""Summarise one set of benchmark results, or compare two.

Usage::

    python3 bench/compare.py RESULTS              # every metric of every workload
    python3 bench/compare.py PARENT CHANGE        # verdict per workload x metric

A result set is a directory of ``run.py`` result files (``--trace 0``), one
per workload and seed. Runs of the two sets are paired by seed order.

Verdicts follow the benchmark's rules. ``better``: the change wins at
least nine tenths of the pairs (ties count for neither) and the medians
differ by more than the parent's interquartile range. ``worse``: the
change's median is worse than the parent's by more than the metric's
bound in BENCHMARK.json. ``unresolved``: either side's spread (IQR over
median) exceeds the bound, unless every run of the change beats every run
of the parent. Otherwise ``same``. Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def metric_specs() -> list[dict]:
    """Gated metrics from BENCHMARK.json, then the ones reported beside them."""
    gated = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    design = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
    return [dict(m, source="metrics") for m in gated] + [
        dict(spec, name=name, bound=None, source="reported")
        for name, spec in design["reported_metrics"].items()
    ]


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced results by workload, sorted by seed."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("trace") == 0 and "metrics" in result:
            runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def values(results: list[dict], spec: dict) -> list[float]:
    return [r[spec["source"]][spec["name"]]["value"]
            for r in results if spec["name"] in r[spec["source"]]]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs: list[float]) -> float:
    q1, med, q3 = quartiles(xs)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], spec: dict) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs compared)."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if spec["name"] == "failed_frac":
        return ("worse" if sum(change) > sum(base) else "same"), wins, len(pairs)
    bound = spec["bound"]
    q1b, mb, q3b = quartiles(base)
    _, mc, _ = quartiles(change)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if bound is not None and max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and sign * (mc - mb) > 0 and abs(mc - mb) > q3b - q1b:
        return "better", wins, len(pairs)
    if bound is not None and -sign * (mc - mb) > bound * abs(mb):
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def fmt(xs: list[float]) -> str:
    q1, med, q3 = quartiles(xs)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def summarise(runs: dict[str, list[dict]], specs: list[dict]) -> None:
    print("workload\tmetric\tunit\tmedian [q1, q3]\truns\tspread\tbound")
    for workload, results in sorted(runs.items()):
        for spec in specs:
            xs = values(results, spec)
            if not xs:
                continue
            bound = "-" if spec["bound"] is None else f"{spec['bound']:g}"
            print(f"{workload}\t{spec['name']}\t{spec['unit']}\t{fmt(xs)}\t{len(xs)}"
                  f"\t{spread(xs):.4f}\t{bound}")


def compare(base: dict[str, list[dict]], change: dict[str, list[dict]], specs: list[dict]) -> int:
    worse = 0
    print("workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]"
          "\tpairs won\tverdict")
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload}\t-\t-\t-\t-\t-\tmissing from one side")
            continue
        for spec in specs:
            b, c = values(base[workload], spec), values(change[workload], spec)
            if not b or not c:
                continue
            v, wins, n = verdict(b, c, spec)
            worse += v == "worse"
            print(f"{workload}\t{spec['name']}\t{spec['unit']}\t{fmt(b)}\t{fmt(c)}"
                  f"\t{wins}/{n}\t{v}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path, help="one or two result directories")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one result set to summarise or two to compare")
    specs = metric_specs()
    loaded = [load(d) for d in args.sets]
    if not all(loaded):
        print("no untraced result files found", file=sys.stderr)
        return 2
    if len(loaded) == 1:
        summarise(loaded[0], specs)
        return 0
    return compare(loaded[0], loaded[1], specs)


if __name__ == "__main__":
    raise SystemExit(main())
