"""The size-sweep script under ``scripts/`` runs end to end on a tiny budget."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_FILES = ("metrics.csv", "heatmap.csv", "summary.json", "resolved_config.json")


def run_script(name: str, *args: str, cwd: Path) -> list[str]:
    """Run ``scripts/<name>`` with the package on its path; its stdout lines."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_size_sweep_reports_each_size_from_its_summaries(tmp_path):
    out = tmp_path / "out"
    lines = run_script("run_size_sweep.py", "--sizes", "3", "4", "--episodes", "2",
                       "--skip-baselines", "--out", str(out), cwd=tmp_path)
    by_size = json.loads("\n".join(lines[lines.index("{"):]))["satisfaction_by_size"]
    assert sorted(by_size) == ["3", "4"]
    for size in (3, 4):
        seed_dirs = sorted((out / f"size_sweep_n{size}_meta_rl").iterdir())
        assert [d.name for d in seed_dirs] == ["seed0", "seed1", "seed2"]
        for d in seed_dirs:
            assert all((d / f).is_file() for f in RUN_FILES)
        assert (seed_dirs[0] / "plot_satisfaction_bars.csv").is_file()
        tails = [json.loads((d / "summary.json").read_text())["satisfaction_tail_mean"]
                 for d in seed_dirs]
        assert by_size[str(size)] == sum(tails) / len(tails)
        assert f"swarm={size}: mean tail satisfaction {by_size[str(size)]:.3f}" in lines
