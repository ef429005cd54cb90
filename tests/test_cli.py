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
from swarmcover.config import load_config, load_instance
from swarmcover.env import EnvConfig
from swarmcover.harness import PLOT_KINDS, read_metrics
from conftest import INSTANCE, one_device

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def scenario_file(tmp_path):
    def write(name="cli", algorithm="random", sections=None, **extra_run):
        """The tiny scenario's file; ``sections`` adds keys to its
        sections, ``extra_run`` to its run section."""
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
        for section, extra in (sections or {}).items():
            cfg.setdefault(section, {}).update(extra)
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


def test_run_reads_no_process_environment(scenario_file, tmp_path, monkeypatch, capsys):
    # Variables that once overrode config keys change nothing: the run
    # trains the file's algorithm for the file's episode count.
    monkeypatch.setenv("SWARMCOVER__run__episodes", "1")
    monkeypatch.setenv("SWARMCOVER__run__algorithm", "dqn")
    monkeypatch.setenv("SWARMCOVER__foo__bar", "1")
    assert main(["run", str(scenario_file())]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == ["cli_random"]
    metrics = read_metrics(tmp_path / "results" / "cli_random" / "seed0" / "metrics.csv")
    assert len(metrics) == 6


def test_run_rejects_a_zero_count_with_exit_two(scenario_file, capsys):
    path = scenario_file(algorithm="meta_rl", sections={"agent": {"meta_tasks_per_update": 0}})
    assert main(["run", str(path)]) == 2
    assert "meta_tasks_per_update must be at least 1" in capsys.readouterr().err


def test_run_rejects_a_minibatch_the_replay_cannot_hold(scenario_file, capsys):
    assert main(["run", str(scenario_file(algorithm="dqn",
                                          sections={"agent": {"replay_capacity": 3}}))]) == 2
    err = capsys.readouterr().err
    assert "minibatch (4) must not exceed replay_capacity (3)" in err


def test_run_rejects_an_unreachable_swarm_event_before_training(scenario_file, tmp_path, capsys):
    path = scenario_file(sections={"env": {"events": [{"episode": 2, "kind": "join", "count": 4}]}})
    assert main(["run", str(path)]) == 2
    assert "would exceed the maximum swarm size (3)" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("section, key, value, named", [
    ("link", "psi_los_db", 10.0, "unknown key 'psi_los_db' in config section 'link'"),
    ("link", "noise_dbm_per_hz", -200.0,
     "unknown key 'noise_dbm_per_hz' in config section 'link'"),
    ("link", "preset", "urban", "unknown key 'preset' in config section 'link'"),
    ("env", "events", [{"episode": 2, "kind": "leave", "cuont": 1}],
     "unknown key 'cuont' in config section 'env.events'"),
    ("env", "events", [{"kind": "leave"}],
     "config section 'env.events' is missing the 'episode' key"),
    ("env", "events", [{"episode": 2}], "config section 'env.events' is missing the 'kind' key"),
])
def test_run_rejects_a_key_that_is_no_field_by_name(scenario_file, tmp_path, capsys,
                                                    section, key, value, named):
    assert main(["run", str(scenario_file(sections={section: {key: value}}))]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("section, key, value, named", [
    ("run", "episodes", "5", "run.episodes must be int (got '5')"),
    ("run", "seeds", [0, 0], "seeds must be distinct (got [0, 0])"),
    ("env", "swarm_size", 2.0, "env.swarm_size must be int (got 2.0)"),
    ("env", "events", [{"episode": "5", "kind": "join"}],
     "env.events.episode must be int (got '5')"),
    # Strategic cells are checked against the grid when the config loads,
    # not at the first nominal reset, which left an empty run directory.
    ("env", "strategic_cells", [4, 8, 99], "strategic cell 99 outside grid of 9 cells"),
    ("env", "strategic_cells", [4, 4], "strategic cells must be distinct"),
])
def test_run_rejects_a_wrong_value_with_exit_two(scenario_file, tmp_path, capsys,
                                                 section, key, value, named):
    assert main(["run", str(scenario_file(sections={section: {key: value}}))]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["run", "oracle"])
def test_a_non_json_number_is_refused_by_name(scenario_file, instance_file, tmp_path, capsys,
                                              command, literal):
    # json.dumps writes a non-finite float as its non-JSON literal. Read
    # back, a NaN would pass every range check written ``x <= 0.0``.
    value = float(literal.replace("Infinity", "inf"))
    if command == "run":
        path, load = scenario_file(sections={"env": {"lambda_energy": value}}), load_config
    else:
        path, load = instance_file(devices=one_device(packet_bits=value)), load_instance
    assert literal in path.read_text()
    with pytest.raises(ValueError, match=f"file holds {re.escape(literal)}, which is not JSON"):
        load(path)
    assert main([command, str(path)]) == 2
    assert f"holds {literal}, which is not JSON" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("name", ["default", "swarm_events"])
def test_a_resolved_config_reruns_as_given(name, tmp_path, capsys):
    """resolved_config.json loads back into the config that wrote it, and
    a run of it writes the same bytes."""
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    if name == "swarm_events":
        # The file's schedule a thousand times sooner and in reverse, so that
        # a short run plays both events, out of the order they are given in.
        raw["env"]["events"] = [{**event, "episode": event["episode"] // 1000}
                                for event in reversed(raw["env"]["events"])]
    given = tmp_path / "given.json"
    given.write_text(json.dumps(raw))
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["run", str(given), "--seed", "0", "--episodes", "3", "--out", str(first)]) == 0
    seed_dir = first / f"{name}_meta_rl" / "seed0"
    resolved = seed_dir / "resolved_config.json"
    wrote = load_config(given, overrides={"run": {"seeds": [0], "episodes": 3,
                                                  "out_dir": str(first)}})
    assert load_config(resolved) == wrote

    assert main(["run", str(resolved), "--out", str(again)]) == 0
    rerun_dir = again / f"{name}_meta_rl" / "seed0"
    for file in ("metrics.csv", "heatmap.csv", "summary.json"):
        assert (rerun_dir / file).read_bytes() == (seed_dir / file).read_bytes(), file
    sizes = [m.swarm_size for m in read_metrics(seed_dir / "metrics.csv")]
    assert sizes == ([4, 4, 4] if name == "default" else [4, 5, 3])


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
    assert "checks rate=True deadline=True coverage=True" in stdout
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


@pytest.mark.parametrize("key, value, named", [
    ("initial_demand", [50.0], "unknown key 'initial_demand' in config section 'instance'"),
    ("per_uav_coverage", "false", "instance.per_uav_coverage must be bool (got 'false')"),
    ("horizon", 2.9, "instance.horizon must be int (got 2.9)"),
    ("devices", one_device(id="0"), "instance.devices.id must be int (got '0')"),
    ("devices", one_device(packet_bits="1e6"),
     "instance.devices.packet_bits must be float (got '1e6')"),
    ("devices", one_device(position_xy=["132", 44]),
     "instance.devices.position_xy must be float (got '132')"),
    ("devices", one_device(position_xy=[132.0, 44.0, 0.0]),
     "instance.devices.position_xy must hold 2 values (got [132.0, 44.0, 0.0])"),
    ("devices", one_device(position_xy=132.0),
     "instance.devices.position_xy must be a list (got 132.0)"),
    ("devices", one_device(packet_bits=None),
     "config section 'instance.devices' is missing the 'packet_bits' key"),
    ("devices", {"id": 0}, "instance.devices must be a list (got {'id': 0})"),
    ("devices", one_device(packet_bits=-1e6),
     "device 0: packet_bits must be positive (got -1000000.0)"),
    ("devices", one_device(packet_bits=0), "device 0: packet_bits must be positive (got 0)"),
    ("devices", one_device(tx_watts=0.2),
     "unknown key 'tx_watts' in config section 'instance.devices'"),
    (None, 5, "instance file must contain a JSON object"),
    (None, None, "instance file must contain a JSON object"),
    (None, "abc", "instance file must contain a JSON object"),
])
def test_oracle_rejects_a_wrong_instance_key_with_exit_two(tmp_path, capsys,
                                                           key, value, named):
    # A ``None`` key makes ``value`` the whole file.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(value if key is None else {**INSTANCE, key: value}))
    assert main(["oracle", str(path)]) == 2
    assert named in capsys.readouterr().err


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


@pytest.mark.parametrize("kind", PLOT_KINDS)
def test_emit_refuses_a_foreign_or_empty_metrics_file_by_name(scenario_file, tmp_path, capsys,
                                                              kind):
    # Before, a foreign header died with KeyError: 'episode' and a
    # header-only file with IndexError, both as tracebacks.
    main(["run", str(scenario_file())])
    run_dir = tmp_path / "results" / "cli_random" / "seed0"
    metrics = run_dir / "metrics.csv"
    header = metrics.read_text(encoding="utf-8").splitlines()[0]
    for text, error in (("step,score\n0,1.5\n", "is not a metrics file"),
                        (header + "\n", "holds no episode rows")):
        metrics.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["emit", str(run_dir), "--kind", kind]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(metrics) in err and error in err
        assert not (run_dir / f"plot_{kind}.csv").exists()


#: A summary key each plot kind reads.
SUMMARY_KEY_READ = {"heatmap": "cells_per_side", "learning_curve": "ma_window",
                    "energy_bars": "energy_total_tail_mean",
                    "satisfaction_bars": "plateau_tail"}


@pytest.mark.parametrize("kind", PLOT_KINDS)
def test_emit_refuses_a_summary_it_cannot_read_by_name(scenario_file, tmp_path, capsys, kind):
    # Before, a missing key died with a KeyError traceback, a JSON list with
    # a TypeError, and a NaN was read as a number.
    main(["run", str(scenario_file())])
    run_dir = tmp_path / "results" / "cli_random" / "seed0"
    summary_file = run_dir / "summary.json"
    summary = json.loads(summary_file.read_text(encoding="utf-8"))
    key = SUMMARY_KEY_READ[kind]
    without = {k: v for k, v in summary.items() if k != key}
    for text, error in ((json.dumps(without), f"has no {key!r} key"),
                        ("[]", "must contain a JSON object"),
                        (json.dumps(dict(summary, plateau_tail=float("nan"))), "holds NaN")):
        summary_file.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["emit", str(run_dir), "--kind", kind]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(summary_file) in err and error in err
        assert not (run_dir / f"plot_{kind}.csv").exists()


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
