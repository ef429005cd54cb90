"""Config resolution: defaults, files, overrides, environment variables."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from swarmcover import config as cf
from swarmcover import link_budget as lb
from swarmcover import mission as ms


def write(tmp_path, payload) -> str:
    p = tmp_path / "cfg.json"
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


def load(tmp_path, payload, **kw):
    return cf.load_config(write(tmp_path, payload), environ=kw.pop("environ", {}), **kw)


def test_no_file_resolves_to_full_defaults():
    cfg = cf.load_config(environ={})
    assert cfg.run.algorithm == "meta_rl"
    assert cfg.run.episodes == 300 and cfg.run.seeds == (0,)
    assert cfg.mission.area_m == 440.0 and cfg.mission.cells_per_side == 5
    assert cfg.mission.slots == 25 and cfg.mission.t_max_seconds == 600.0
    assert (cfg.mission.p_oper_watts, cfg.mission.p_comm_watts) == (300.0, 5.0)
    assert cfg.link.omega1 == 11.95 and cfg.link.omega2 == 0.14
    assert cfg.link.psi_los == pytest.approx(10 ** 0.3, rel=1e-12)
    assert cfg.link.psi_nlos == pytest.approx(10 ** 2.3, rel=1e-12)
    assert cfg.link.noise_watts == pytest.approx(1e-20, rel=1e-9)
    assert cfg.radio.bandwidth_hz == 1e6 and cfg.radio.rate_floor_bps == 1e5
    assert cfg.env.max_swarm == 7 and cfg.env.swarm_size == 4
    assert cfg.env.strategic_cells == (6, 13, 21)
    assert cfg.agent.gamma == 0.85
    assert cfg.events == ()


def test_empty_file_is_the_default_config(tmp_path):
    for payload in ("", "{}"):
        cfg = cf.load_config(write(tmp_path, payload), environ={})
        assert cfg == cf.load_config(environ={})


def test_typo_in_key_is_rejected_by_name(tmp_path):
    # A typo, then knobs that no longer exist (they only ever held their default).
    for section, key, value in (("mission", "speeed", 11),
                                ("agent", "action_mode", "auto"),
                                ("agent", "policy_epsilon", 0.0),
                                ("agent", "init_scale", 1.0),
                                ("run", "single_thread", True)):
        with pytest.raises(ValueError, match=rf"unknown key '{key}' in config section '{section}'"):
            load(tmp_path, {section: {key: value}})


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config section 'misison'"):
        load(tmp_path, {"misison": {}})


def test_non_object_file_rejected(tmp_path):
    with pytest.raises(ValueError, match="JSON object"):
        load(tmp_path, "[1, 2]")


def test_out_of_range_value_fails_in_the_dataclass(tmp_path):
    with pytest.raises(ValueError, match="discount"):
        load(tmp_path, {"agent": {"gamma": 1.5}})
    with pytest.raises(ValueError, match="at least 1"):
        load(tmp_path, {"run": {"episodes": 0}})
    for key in ("meta_tasks_per_update", "meta_inner_episodes", "dqn_update_interval",
                "target_refresh", "ppo_epochs"):
        with pytest.raises(ValueError, match=f"{key} must be at least 1"):
            load(tmp_path, {"agent": {key: 0}})


def test_minibatch_larger_than_the_replay_is_rejected(tmp_path):
    # The memory could never hold a minibatch, so DQN would never update.
    with pytest.raises(ValueError, match=r"minibatch \(65\) must not exceed replay_capacity \(64\)"):
        load(tmp_path, {"agent": {"replay_capacity": 64, "minibatch": 65}})
    assert load(tmp_path, {"agent": {"replay_capacity": 64, "minibatch": 64}}).agent.minibatch == 64


def test_list_fields_coerced_to_tuples(tmp_path):
    cfg = load(tmp_path, {"run": {"seeds": [0, 1, 2]}, "agent": {"hidden": [32, 32]}})
    assert cfg.run.seeds == (0, 1, 2)
    assert cfg.agent.hidden == (32, 32)


def test_precedence_defaults_file_overrides_environment(tmp_path):
    path = write(tmp_path, {"run": {"episodes": 100, "algorithm": "dqn"}})
    cfg = cf.load_config(
        path,
        overrides={"run": {"episodes": 200}},
        environ={"SWARMCOVER__run__episodes": "300"},
    )
    assert cfg.run.episodes == 300      # environment beats the explicit override
    assert cfg.run.algorithm == "dqn"   # untouched keys keep the file value
    assert cfg.mission.area_m == 440.0  # and everything else keeps the default


def test_environment_values_parse_as_json_or_stay_strings():
    cfg = cf.load_config(environ={
        "SWARMCOVER__run__algorithm": "dqn",          # bare string
        "SWARMCOVER__run__seeds": "[3, 4]",           # JSON list
        "SWARMCOVER__mission__speed_mps": "12.5",     # JSON number
        "IRRELEVANT": "ignored",
    })
    assert cfg.run.algorithm == "dqn"
    assert cfg.run.seeds == (3, 4)
    assert cfg.mission.speed_mps == 12.5


def test_malformed_override_variable_rejected():
    with pytest.raises(ValueError, match="must look like"):
        cf.load_config(environ={"SWARMCOVER__runepisodes": "5"})
    with pytest.raises(ValueError, match="unknown config section 'foo'"):
        cf.load_config(environ={"SWARMCOVER__foo__bar": "1"})


def test_swarm_events_parsed_in_order(tmp_path):
    cfg = load(tmp_path, {"env": {"events": [
        {"episode": 5, "kind": "join"},
        {"episode": 9, "kind": "leave", "count": 2},
    ]}})
    assert len(cfg.events) == 2
    assert (cfg.events[0].episode, cfg.events[0].kind, cfg.events[0].count) == (5, "join", 1)
    assert (cfg.events[1].episode, cfg.events[1].kind, cfg.events[1].count) == (9, "leave", 2)


def test_swarm_event_schedule_is_checked_at_load(tmp_path):
    # Default swarm: 4 UAVs of at most 7.
    def events(*schedule):
        return {"env": {"events": [dict(zip(("episode", "kind", "count"), e)) for e in schedule]}}

    with pytest.raises(ValueError, match="join at episode 20 would exceed the maximum swarm size"):
        load(tmp_path, events((20, "join", 4)))
    with pytest.raises(ValueError, match="leave at episode 5 would empty the swarm"):
        load(tmp_path, events((5, "leave", 4)))
    with pytest.raises(ValueError, match="episode must not be negative"):
        load(tmp_path, events((-3, "join", 1)))
    # The schedule is replayed in episode order, as the harness applies it,
    # not in file order.
    with pytest.raises(ValueError, match="join at episode 5"):
        load(tmp_path, events((9, "leave", 3), (5, "join", 4)))
    assert len(load(tmp_path, events((9, "leave", 4), (5, "join", 3))).events) == 2


def test_strategic_cells_imply_their_count(tmp_path):
    cfg = load(tmp_path, {"env": {"strategic_cells": [1, 2, 3, 4]}})
    assert cfg.env.num_strategic == 4
    assert cfg.env.strategic_cells == (1, 2, 3, 4)


def test_link_db_spellings_convert_at_the_boundary(tmp_path):
    cfg = load(tmp_path, {"link": {"psi_nlos_db": 20.0, "min_snr_db": 0.0}})
    assert cfg.link.psi_nlos == pytest.approx(100.0, rel=1e-12)
    assert cfg.link.min_snr == pytest.approx(1.0, rel=1e-12)
    assert cfg.link.psi_los == pytest.approx(10 ** 0.3, rel=1e-12)  # preset survives


def test_noise_density_integrates_over_the_bandwidth(tmp_path):
    cfg = load(tmp_path, {
        "link": {"noise_dbm_per_hz": -200.0},
        "radio": {"bandwidth_hz": 1e6},
    })
    assert cfg.link.noise_watts == pytest.approx(1e-17, rel=1e-9)


def test_noise_given_twice_is_an_error(tmp_path):
    for clash in ({"noise_dbm": -170.0}, {"noise_watts": 1e-20}):
        with pytest.raises(ValueError, match="give the noise level once"):
            load(tmp_path, {"link": {"noise_dbm_per_hz": -200.0, **clash}})


def test_resolved_echo_is_plain_json(tmp_path):
    cfg = cf.load_config(environ={})
    out = tmp_path / "resolved.json"
    cf.write_json(out, dataclasses.asdict(cfg))
    echoed = json.loads(out.read_text())
    assert set(echoed) == {"run", "mission", "link", "radio", "env", "agent", "events"}
    assert echoed["env"]["strategic_cells"] == [6, 13, 21]
    assert echoed["run"]["seeds"] == [0]
    assert echoed["events"] == []


# --- exact-solver instance files ---------------------------------------------------

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


def test_load_instance_round_trip(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(INSTANCE))
    inst = cf.load_instance(p)
    assert inst.mission.cells_per_side == 2 and inst.mission.area_m == 176.0
    assert inst.strategic_cells == (1,)
    assert inst.start_cells == (0,) and inst.horizon == 2
    assert inst.devices[0].position_xy == (132.0, 44.0)
    assert inst.budget == 10_000_000 and inst.per_uav_coverage is False


def test_load_instance_missing_key(tmp_path):
    broken = {k: v for k, v in INSTANCE.items() if k != "horizon"}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(broken))
    with pytest.raises(ValueError, match="missing the 'horizon' key"):
        cf.load_instance(p)


def test_load_instance_rejects_unknown_keys(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps({**INSTANCE, "horzon": 2}))
    with pytest.raises(ValueError, match="unknown key 'horzon'"):
        cf.load_instance(p)


def test_load_instance_takes_every_mission_field(tmp_path):
    mission = ms.MissionConfig(
        area_m=176.0, cells_per_side=2, frame_seconds=100.0, slots=4, speed_mps=12.5,
        p_oper_watts=250.0, p_comm_watts=4.0, t_max_seconds=500.0, packet_bits=2e6,
        uav_altitude_m=80.0,
    )
    p = tmp_path / "inst.json"
    p.write_text(json.dumps({**INSTANCE, **dataclasses.asdict(mission)}))
    assert cf.load_instance(p).mission == mission


def test_load_instance_refuses_a_device_power_the_radio_does_not_use(tmp_path):
    # The link model reads radio.device_tx_watts only, so a device's own
    # tx_watts may restate it or be left out, never differ from it.
    p = tmp_path / "inst.json"

    def with_second_device(extra: dict, radio_watts: float = 0.2):
        devices = [INSTANCE["devices"][0],
                   {"id": 1, "position_xy": [44.0, 44.0], "packet_bits": 1e6, **extra}]
        p.write_text(json.dumps({**INSTANCE, "devices": devices,
                                 "radio": {"device_tx_watts": radio_watts}}))
        return p

    assert len(cf.load_instance(with_second_device({"tx_watts": 0.2})).devices) == 2
    assert len(cf.load_instance(with_second_device({})).devices) == 2
    with pytest.raises(ValueError, match=r"device 1 gives tx_watts 0\.5"):
        cf.load_instance(with_second_device({"tx_watts": 0.5}))
    with pytest.raises(ValueError, match=r"device 0 gives tx_watts 0\.2"):
        cf.load_instance(with_second_device({}, radio_watts=0.1))


def test_load_instance_honours_link_and_radio_sections(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps({
        **INSTANCE,
        "link": {"min_snr_db": 0.0},
        "radio": {"rate_floor_bps": 2e5},
    }))
    inst = cf.load_instance(p)
    assert inst.link.min_snr == pytest.approx(1.0)
    assert inst.radio.rate_floor_bps == 2e5
    assert inst.link.omega1 == 11.95  # urban preset is still the base


def test_loading_a_config_compiles_no_learner():
    # swarmcover oracle and load_instance read configs; neither should load
    # the learners or the networks.
    code = ("import sys, swarmcover.config; "
            "print(sorted(m for m in ('swarmcover.agents', 'swarmcover.nets') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert proc.stdout.strip() == "[]"
