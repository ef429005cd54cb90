"""The scripts under ``scripts/`` run end to end on tiny budgets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("script, scenario, kind, label", [
    ("run_strategic_visits.py", "strategic_visits", "heatmap", "heatmap data"),
    ("run_swarm_events.py", "swarm_events", "learning_curve", "learning curve data"),
])
def test_run_scripts_emit_plot_data_for_every_seed(script, scenario, kind, label, tmp_path):
    out = tmp_path / "out"
    lines = run_script(script, "--episodes", "2", "--out", str(out), cwd=tmp_path)
    run_dir = out / f"{scenario}_meta_rl"
    assert len(lines) == 5
    for seed, line in enumerate(lines):
        seed_dir = run_dir / f"seed{seed}"
        plot = seed_dir / f"plot_{kind}.csv"
        assert line == f"seed{seed}: {label} at {plot}"
        assert all((seed_dir / f).is_file() for f in RUN_FILES) and plot.is_file()


def test_solve_small_instance_confirms_its_optimum(tmp_path):
    lines = run_script("solve_small_instance.py", cwd=tmp_path)
    assert lines[1:] == [
        "optimum energy: 2648.2 J",
        "  uav 0: cells 0 -> 0 -> 1",
        "independent recheck: confirmed (2648.2 J)",
    ]
    assert lines[0].startswith("searched ")
    assert list(tmp_path.iterdir()) == []
