"""swarmcover benchmark: one workload, measured for a fixed time.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload meta_default --seed 1 --seconds 40 --trace 0

A run first starts a few set-up probes, fresh processes that only set up,
and then passes. Each pass runs in a fresh process (``child.py``) that
imports swarmcover, loads its inputs and calls ``swarmcover.cli.main`` for
every step of the pass. Passes follow one another until the time is spent;
at least two run, so every run can check that repeats of one seed write
identical bytes.

``child.py`` also times a fixed reference chunk of work right after
set-up and, in an untraced pass, every tenth of a second while the pass runs,
so that the shared machine's changing speed cancels out of the gated
times. ``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json
as medians: ``setup_s`` (set-up time over the reference chunk time of the
same process, in seconds at the speed where a chunk takes
``child.REF_NOMINAL_S``; probes and passes both count), ``run_ref`` (the
pass's wall time ``run_s``, chunks excluded, over the mean chunk time
``ref_s`` during the pass) and ``peak_rss_mb``. The metrics of
``design.json``'s ``reported_metrics`` (raw wall times, the work rate,
``failed_frac``) are printed and kept in the result file.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the first traced pass, plus the tracing overhead
(traced over untraced ``run_s``). The last line of standard output is one
JSON object; the full result, with quartiles, sample counts, output
digests and provenance, is written to ``<out>/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

MIN_PASSES = 2
#: Set-up probes at the start of every run, beside the passes' own set-ups.
SETUP_PROBES = 5
#: A run must end within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

#: Names and units of the metrics: gated ones in BENCHMARK.json, the ones
#: reported beside them in design.json.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))["reported_metrics"]
#: The rate reported for each kind of work a pass completes.
WORK_RATE = {"episodes": "episodes_per_s", "leaves": "leaves_per_s"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summary(values: list[float], unit: str) -> dict:
    q1, med, q3 = _quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(child_report: dict, workload: str, seed: int) -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        pass
    return {
        **child_report.get("versions", {}),
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "thread_vars": child_report.get("thread_vars"),
        "blas": child_report.get("blas"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": workload,
        "seed": seed,
    }


def _spawn(wl: workloads.Workload, tag: str, index: int, argv: list, traced: bool,
           deadline: float) -> tuple[dict, str]:
    """Run ``child.py`` once; returns its record and its log."""
    report_path = wl.work / f"{tag}.report.json"
    log_path = wl.work / f"{tag}.log"
    spec = {
        "src": str(SRC), "setup": list(wl.setup_inputs), "argv": argv,
        "trace": traced, "pass_id": index, "report": str(report_path),
        "spans": str(wl.work / f"{tag}.spans.npz"),
    }
    spec_path = wl.work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    record = {"tag": tag, "traced": traced, "problems": []}
    t0 = time.perf_counter()
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
    except subprocess.TimeoutExpired:
        record["problems"].append("timed out")
        record["wall_s"] = time.perf_counter() - t0
        return record, ""
    record["wall_s"] = time.perf_counter() - t0
    log_text = log_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0 or not report_path.is_file():
        tail = " | ".join(log_text.strip().splitlines()[-3:])
        record["problems"].append(f"process exited {proc.returncode}: {tail}")
        return record, log_text
    record.update(json.loads(report_path.read_text(encoding="utf-8")))
    if traced:
        record["spans_file"] = spec["spans"]
    return record, log_text


def run_probe(wl: workloads.Workload, index: int, deadline: float) -> dict:
    """Set up once in a fresh process, without running the pass."""
    record, _ = _spawn(wl, f"probe{index}", index, [], False, deadline)
    return record


def run_pass(wl: workloads.Workload, index: int, traced: bool, deadline: float) -> dict:
    """Run one pass in a fresh process and judge its outputs."""
    if wl.out.exists():
        shutil.rmtree(wl.out)
    wl.out.mkdir(parents=True)
    record, log_text = _spawn(wl, f"pass{index}", index, wl.argv, traced, deadline)
    if "run_s" not in record:
        return record
    if not traced:
        record["run_ref"] = record["run_s"] / record["ref_s"]
    if any(code != 0 for code in record["exit_codes"]):
        record["problems"].append(f"cli.main returned {record['exit_codes']}")
    record["work"] = wl.work_done(log_text)
    try:
        record["problems"] += wl.check()
    except (ValueError, KeyError, OSError) as exc:
        record["problems"].append(f"outputs unreadable: {exc!r}")
    if not record["problems"]:
        record["digests"] = wl.digests()
    return record


def _named(section: list[dict], values: dict[str, list[float]]) -> dict[str, dict]:
    """Summaries of the metrics a BENCHMARK.json section names, in its order."""
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise BenchError(f"no values for {', '.join(missing)}")
    return {m["name"]: _summary(values[m["name"]], m["unit"]) for m in section}


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
            size: str = "full") -> dict:
    """Run set-up probes, then passes of one workload for ``seconds``, and
    summarise them."""
    if not (SRC / "swarmcover" / "__init__.py").is_file():
        raise BenchError(f"no swarmcover source tree under {SRC}")
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    work = BENCH / "_work" / f"{workload}-s{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        wl = workloads.Workload(workload, seed, work, ROOT, size)
        probes = [run_probe(wl, i, deadline) for i in range(SETUP_PROBES)]
        passes: list[dict] = []
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(wl, len(passes), traced, deadline))
            elapsed = time.monotonic() - started
            typical = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                break
            if elapsed + typical > HARD_LIMIT_S - 10.0:
                break
        # Every completed pass of one seed must write the same bytes as the
        # first, traced or not.
        reference = next((p["digests"] for p in passes if "digests" in p), None)
        for p in passes:
            if "digests" in p and p["digests"] != reference:
                p["problems"].append("outputs differ from the first pass of this seed")
        spans_kept = None
        first_traced = next((p for p in passes if p["traced"] and "layers" in p), None)
        if first_traced is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            spans_kept = out_dir / f"{workload}-s{seed}-spans.npz"
            shutil.copyfile(first_traced["spans_file"], spans_kept)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    completed = [p for p in passes if "run_s" in p]
    untraced = [p for p in completed if not p["traced"]]
    if not untraced:
        reasons = "; ".join(pr for p in probes + passes for pr in p["problems"])
        raise BenchError(f"no pass of {workload} completed: {reasons}")
    attempts = probes + passes
    failed = sum(1 for p in attempts if p["problems"])
    set_up = [p for p in probes if "setup_s" in p] + untraced
    values = {
        "setup_s": [p["setup_s"] for p in set_up],
        "setup_wall_s": [p["setup_wall_s"] for p in set_up],
        **{name: [p[name] for p in untraced]
           for name in ("run_ref", "run_s", "ref_s", "peak_rss_mb")},
        WORK_RATE[untraced[0]["work"][0]]: [p["work"][1] / p["run_s"] for p in untraced],
    }
    metrics = _named(BENCHMARK["end_to_end"], values)
    reported = {name: _summary(values[name], spec["unit"])
                for name, spec in REPORTED.items() if name in values}
    reported["failed_frac"] = {"value": failed / len(attempts),
                               "unit": REPORTED["failed_frac"]["unit"], "n": len(attempts)}
    layers = None
    if trace:
        if first_traced is None:
            raise BenchError(f"no traced pass of {workload} completed")
        traced_runs = [p["run_s"] for p in completed if p["traced"]]
        overhead = statistics.median(traced_runs) / statistics.median(values["run_s"])
        layers = {name: m["value"] for name, m in _named(
            BENCHMARK["per_layer"],
            {name: [v] for name, v in first_traced["layers"].items()}
            | {"trace.overhead_ratio": [overhead]},
        ).items()}
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "size": size, "inputs": wl.inputs,
        "correct": failed == 0, "attempted": len(attempts), "failed": failed,
        "metrics": metrics, "reported": reported, "layers": layers,
        "digests": reference,
        "spans_file": str(spans_kept) if spans_kept else None,
        "probes": [{k: v for k, v in p.items() if k != "versions"} for p in probes],
        "passes": [{k: v for k, v in p.items() if k not in ("layers", "digests")}
                   for p in passes],
        "provenance": provenance(completed[0], workload, seed),
    }


def final_line(result: dict) -> dict:
    """The last output line: end-to-end metrics, or per-layer ones when traced."""
    if result["trace"]:
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["per_layer"]}
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_human(result: dict) -> None:
    prov = result["provenance"]
    print(f"# {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} passes, {result['failed']} failed")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, digest in sorted((result["digests"] or {}).items()):
        print(f"# digest {name} {digest}")
    for p in result["probes"] + result["passes"]:
        for problem in p["problems"]:
            print(f"# {p['tag']} failed: {problem}")
    for name, m in {**result["metrics"], **result["reported"]}.items():
        spread = f"median q1 {m['q1']:.6g} q3 {m['q3']:.6g} " if "q1" in m else ""
        print(f"{name} {m['value']:.6g} {m['unit']} ({spread}n {m['n']})")
    if result["layers"]:
        for m in BENCHMARK["per_layer"]:
            print(f"{m['name']} {result['layers'][m['name']]:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH / "_out"),
                        help="directory for result files (default: bench/_out)")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except (BenchError, OSError, ImportError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_human(result)
    print(f"# result {path}")
    print(json.dumps(final_line(result)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
