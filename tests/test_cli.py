"""End-to-end command-line runs on tiny scenarios."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from swarmcover import mission as ms
from swarmcover.cli import THREAD_VARS, main
from swarmcover.env import EnvConfig

ROOT = Path(__file__).resolve().parent.parent

INSTANCE = {
    "area_m": 176.0,
    "cells_per_side": 2,
    "slots": 4,
    "strategic_cells": [1],
    "devices": [
        {"id": 0, "position_xy": [132.0, 44.0], "packet_bits": 1e6, "tx_watts": 0.2}
    ],
    "start_cells": [0],
    "horizon": 2,
}


@pytest.fixture()
def scenario_file(tmp_path):
    def write(name="cli", algorithm="random", **extra_run):
        cfg = {
            "run": {"scenario": name, "algorithm": algorithm, "episodes": 6,
                    "seeds": [0], "ma_window": 3,
                    "out_dir": str(tmp_path / "results"), **extra_run},
            "mission": {"area_m": 264.0, "cells_per_side": 3, "slots": 6,
                        "frame_seconds": 144.0},
            "env": {"max_swarm": 3, "swarm_size": 2, "swarm_min": 1, "swarm_max": 3,
                    "strategic_cells": [4], "device_count": 9},
            "agent": {"hidden": [4], "minibatch": 4},
        }
        path = tmp_path / f"{name}_{algorithm}.json"
        path.write_text(json.dumps(cfg))
        return path
    return write


@pytest.fixture()
def instance_file(tmp_path):
    def write(**extra):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**INSTANCE, **extra}))
        return path
    return write


def test_run_trains_and_reports(scenario_file, tmp_path, capsys):
    assert main(["run", str(scenario_file())]) == 0
    out = capsys.readouterr().out
    assert "cli/random seed 0" in out and "plateau@" in out
    seed_dir = tmp_path / "results" / "cli_random" / "seed0"
    assert (seed_dir / "metrics.csv").exists()
    assert (seed_dir / "summary.json").exists()


def test_run_flag_overrides(scenario_file, tmp_path, capsys):
    cfg = scenario_file(seeds=[0, 1])
    out_dir = tmp_path / "elsewhere"
    assert main(["run", str(cfg), "--seed", "1", "--episodes", "4",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    seed_dirs = sorted(p.name for p in (out_dir / "cli_random").iterdir())
    assert seed_dirs == ["seed1"]  # --seed replaces the config's whole list
    lines = (out_dir / "cli_random" / "seed1" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 4


def test_run_rejects_unknown_algorithm(scenario_file, capsys):
    assert main(["run", str(scenario_file()), "--algo", "sarsa"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_run_rejects_a_zero_count_with_exit_two(scenario_file, monkeypatch, capsys):
    monkeypatch.setenv("SWARMCOVER__agent__meta_tasks_per_update", "0")
    assert main(["run", str(scenario_file(algorithm="meta_rl"))]) == 2
    assert "meta_tasks_per_update must be at least 1" in capsys.readouterr().err


def test_run_rejects_a_minibatch_the_replay_cannot_hold(scenario_file, monkeypatch, capsys):
    monkeypatch.setenv("SWARMCOVER__agent__replay_capacity", "3")
    assert main(["run", str(scenario_file(algorithm="dqn"))]) == 2
    err = capsys.readouterr().err
    assert "minibatch (4) must not exceed replay_capacity (3)" in err


def test_run_rejects_an_unreachable_swarm_event_before_training(scenario_file, tmp_path,
                                                                 monkeypatch, capsys):
    monkeypatch.setenv("SWARMCOVER__env__events", '[{"episode": 2, "kind": "join", "count": 4}]')
    assert main(["run", str(scenario_file())]) == 2
    assert "would exceed the maximum swarm size (3)" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_compare_prints_a_table_and_writes_csv(scenario_file, tmp_path, capsys):
    a = scenario_file(algorithm="random")
    b = scenario_file(algorithm="actor_critic")
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(a), str(b), "--episodes", "4", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("scenario\talgorithm\tseeds")
    assert "random" in stdout and "actor_critic" in stdout
    assert f"wrote {out}" in stdout
    assert out.read_text().splitlines()[0].startswith("scenario,algorithm,seeds")


def test_compare_needs_matching_configs(scenario_file, capsys):
    a = scenario_file(name="one")
    b = scenario_file(name="two")
    assert main(["compare", str(a), str(b)]) == 2
    assert "share one scenario" in capsys.readouterr().err


def test_oracle_solves_and_verifies(instance_file, tmp_path, capsys):
    out = tmp_path / "solution.json"
    assert main(["oracle", str(instance_file()), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "objective_j 2648.238103201081" in stdout
    assert "uav 0 cells 0 -> 0 -> 1" in stdout
    assert "checks rate=True altitude=True deadline=True coverage=True" in stdout
    # the search counters, on the line (and by the pattern) the benchmark
    # reads to count a pass's work
    counts = re.findall(r"^leaves (\d+) feasible (\d+) pruned (\d+)$", stdout, re.M)
    assert counts == [("5", "1", "8")]
    payload = json.loads(out.read_text())
    assert payload["feasible"] is True
    assert payload["trajectories"] == [[0, 0, 1]]
    assert payload["actions"] == [[4], [2]]


def acceptance_test_3_instance() -> dict:
    """Acceptance test 3's instance as an ``oracle`` input file: one UAV from
    cell 1 on the 3x3 grid, strategic cells 4 and 5, horizon 8."""
    grid = {"area_m": 264.0, "cells_per_side": 3, "slots": 8, "frame_seconds": 192.0}
    mission = ms.MissionConfig(**grid)
    devices = ms.default_device_layout(mission, (4, 5), seed=EnvConfig().device_seed, count=2)
    world = ms.build_grid(mission, devices, (4, 5))
    return dict(ms.layout_to_dict(world), **grid, start_cells=[1], horizon=8)


#: sha256 of the file ``oracle --out`` writes, by instance.
ORACLE_OUT_SHA256 = {
    "small_instance": "57928532510e530b6599d5d47d99d1cfd99dc6c4b97df922d6ebe676545aaf7e",
    "acceptance_3": "b5e800818698c6459d5248eb6486fde0caa59399598a87c42de1133e47db95da",
}


def test_oracle_output_bytes_are_pinned(tmp_path, capsys):
    """What ``oracle --out`` writes is pinned to the byte, for the shipped
    small instance and for acceptance test 3's (whose optimum the benchmark
    also checks). A change to the search's float sums shows here."""
    accept = tmp_path / "acceptance_3.json"
    accept.write_text(json.dumps(acceptance_test_3_instance()))
    inputs = {"small_instance": ROOT / "configs" / "small_instance.json",
              "acceptance_3": accept}
    got = {}
    for name, path in inputs.items():
        out = tmp_path / f"{name}.out.json"
        assert main(["oracle", str(path), "--out", str(out)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert json.loads((tmp_path / "acceptance_3.out.json").read_text())["objective_j"] == \
        5296.476206402162
    assert got == ORACLE_OUT_SHA256


def test_oracle_out_loads_no_learner(tmp_path):
    # Solving an instance and writing its solution needs neither the
    # learners nor the networks, so the oracle starts without compiling them.
    out = tmp_path / "solution.json"
    argv = ["oracle", str(ROOT / "configs" / "small_instance.json"), "--out", str(out)]
    code = (f"import sys; from swarmcover.cli import main; assert main({argv!r}) == 0; "
            "print(sorted(m for m in ('swarmcover.agents', 'swarmcover.nets') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ORACLE_OUT_SHA256["small_instance"]


def test_oracle_reports_infeasibility_with_exit_one(instance_file, capsys):
    assert main(["oracle", str(instance_file(t_max_seconds=1.0))]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_oracle_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["oracle", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_emit_from_a_finished_run(scenario_file, tmp_path, capsys):
    main(["run", str(scenario_file())])
    run_dir = tmp_path / "results" / "cli_random" / "seed0"
    capsys.readouterr()
    assert main(["emit", str(run_dir), "--kind", "learning_curve"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert (run_dir / "plot_learning_curve.csv").exists()


def test_emit_unknown_kind(scenario_file, tmp_path, capsys):
    main(["run", str(scenario_file())])
    run_dir = tmp_path / "results" / "cli_random" / "seed0"
    capsys.readouterr()
    assert main(["emit", str(run_dir), "--kind", "pie"]) == 2
    assert "unknown plot kind 'pie'" in capsys.readouterr().err


def test_single_thread_pin_is_the_default(scenario_file, monkeypatch, capsys):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    main(["run", str(scenario_file()), "--episodes", "2"])
    capsys.readouterr()
    assert all(os.environ[var] == "1" for var in THREAD_VARS)


def test_module_entry_point(instance_file):
    proc = subprocess.run(
        [sys.executable, "-m", "swarmcover", "oracle", str(instance_file())],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "objective_j 2648.238103201081" in proc.stdout
