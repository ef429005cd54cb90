"""Smoke test of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest -q bench/test_smoke.py``.
Every workload runs at its tiny size, so the whole file takes seconds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, tmp_path):
    result = run.measure(workload, seed=3, seconds=0.1, trace=True, out_dir=tmp_path,
                         size="tiny")
    assert result["correct"], result["passes"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    assert result["digests"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = run.final_line(dict(result, trace=trace))
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        assert got == _units(section)
        assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    assert set(result["reported"]) >= {"failed_frac"}
    assert result["layers"]["trace.overhead_ratio"] > 0.0
    assert result["provenance"]["seed"] == 3


def test_corrupted_metrics_csv_fails_the_pass(tmp_path):
    wl = workloads.Workload("meta_default", 5, tmp_path, run.ROOT, size="tiny")
    check = wl.check

    def corrupt_then_check():
        path = wl.run_dir / "metrics.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        header, first = lines[0].split(","), lines[1].split(",")
        col = header.index("visits_0")
        first[col] = str(int(first[col]) + 1)
        lines[1] = ",".join(first)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return check()

    wl.check = corrupt_then_check
    record = run.run_pass(wl, 0, False, time.monotonic() + 120.0)
    assert "run_s" in record
    assert any("visits sum" in p for p in record["problems"]), record["problems"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "meta_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
