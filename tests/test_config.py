"""Config resolution: defaults, files, overrides, JSON types."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from swarmcover import config as cf
from swarmcover import link_budget as lb
from swarmcover import mission as ms
from conftest import INSTANCE, one_device


def write(tmp_path, payload) -> str:
    p = tmp_path / "cfg.json"
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


def load(tmp_path, payload, **kw):
    return cf.load_config(write(tmp_path, payload), **kw)


def test_no_file_resolves_to_full_defaults():
    cfg = cf.load_config()
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
    assert cfg.env.events == ()


def test_empty_file_is_the_default_config(tmp_path):
    for payload in ("", "{}"):
        cfg = cf.load_config(write(tmp_path, payload))
        assert cfg == cf.load_config()


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


def test_precedence_defaults_file_overrides(tmp_path):
    path = write(tmp_path, {"run": {"episodes": 100, "algorithm": "dqn"}})
    cfg = cf.load_config(path, overrides={"run": {"episodes": 200}})
    assert cfg.run.episodes == 200      # the explicit override beats the file
    assert cfg.run.algorithm == "dqn"   # untouched keys keep the file value
    assert cfg.mission.area_m == 440.0  # and everything else keeps the default


def test_unknown_override_section_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config section 'misison'"):
        load(tmp_path, {}, overrides={"misison": {"speed_mps": 12.0}})


@pytest.mark.parametrize("payload, named", [
    ({"run": {"episodes": "5"}}, "run.episodes must be int"),
    ({"run": {"out_dir": 5}}, "run.out_dir must be str"),
    ({"run": {"seeds": 0}}, "run.seeds must be a list"),
    ({"run": {"seeds": [0, 1.0]}}, "run.seeds must be int"),
    ({"env": {"swarm_size": 4.0}}, "env.swarm_size must be int"),
    ({"env": {"events": [{"episode": "5", "kind": "join"}]}},
     "env.events.episode must be int"),
    ({"env": {"events": [{"episode": 5, "kind": 1}]}}, "env.events.kind must be str"),
    ({"env": {"strategic_cells": [6, "13"]}}, "env.strategic_cells must be int"),
    ({"mission": {"area_m": True}}, "mission.area_m must be float"),
    ({"mission": {"slots": False}}, "mission.slots must be int"),
    ({"link": {"psi_los": "2.0"}}, "link.psi_los must be float"),
    ({"agent": {"hidden": [64.0]}}, "agent.hidden must be int"),
])
def test_a_value_of_the_wrong_json_type_is_rejected_by_name(tmp_path, payload, named):
    with pytest.raises(ValueError, match=named):
        load(tmp_path, payload)


def test_any_number_fits_a_float_field(tmp_path):
    cfg = load(tmp_path, {"mission": {"area_m": 440, "speed_mps": 12}, "agent": {"gamma": 1}})
    assert (cfg.mission.area_m, cfg.mission.speed_mps, cfg.agent.gamma) == (440, 12, 1)
    assert cfg.mission == ms.MissionConfig(speed_mps=12.0)


def test_repeated_seed_rejected(tmp_path):
    # It would train one seed twice into one directory and count it twice
    # in a comparison's mean and std.
    with pytest.raises(ValueError, match=r"seeds must be distinct \(got \[0, 1, 0\]\)"):
        load(tmp_path, {"run": {"seeds": [0, 1, 0]}})
    with pytest.raises(ValueError, match="seeds must be distinct"):
        load(tmp_path, {"run": {"seeds": [2]}}, overrides={"run": {"seeds": [3, 3]}})


def test_swarm_events_parsed_in_order(tmp_path):
    cfg = load(tmp_path, {"env": {"events": [
        {"episode": 5, "kind": "join"},
        {"episode": 9, "kind": "leave", "count": 2},
    ]}})
    events = cfg.env.events
    assert len(events) == 2
    assert (events[0].episode, events[0].kind, events[0].count) == (5, "join", 1)
    assert (events[1].episode, events[1].kind, events[1].count) == (9, "leave", 2)


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
    assert len(load(tmp_path, events((9, "leave", 4), (5, "join", 3))).env.events) == 2


def test_strategic_cells_imply_their_count(tmp_path):
    cfg = load(tmp_path, {"env": {"strategic_cells": [1, 2, 3, 4]}})
    assert cfg.env.num_strategic == 4
    assert cfg.env.strategic_cells == (1, 2, 3, 4)


def test_link_section_takes_only_the_airground_fields(tmp_path):
    assert cf.load_config().link == lb.AirGroundParams()
    # A second spelling is rejected by name also beside its linear twin.
    with pytest.raises(ValueError, match="unknown key 'psi_los_db' in config section 'link'"):
        load(tmp_path, {"link": {"psi_los": 1.5, "psi_los_db": 10.0}})
    cfg = load(tmp_path, {"link": {"psi_nlos": 100.0, "min_snr": 1.0}})
    assert cfg.link == lb.AirGroundParams(psi_nlos=100.0, min_snr=1.0)


def test_link_db_spellings_convert_at_the_boundary(tmp_path):
    # The file takes linear values only; a caller holding dB converts with
    # db_to_linear before writing, and a *_db key is an error that names it.
    cfg = load(tmp_path, {"link": {"psi_nlos": lb.db_to_linear(20.0),
                                   "min_snr": lb.db_to_linear(0.0)}})
    assert cfg.link.psi_nlos == pytest.approx(100.0, rel=1e-12)
    assert cfg.link.min_snr == pytest.approx(1.0, rel=1e-12)
    assert cfg.link.psi_los == pytest.approx(10 ** 0.3, rel=1e-12)  # default survives
    for key in ("psi_los_db", "psi_nlos_db", "noise_dbm", "min_snr_db"):
        with pytest.raises(ValueError, match=f"unknown key '{key}' in config section 'link'"):
            load(tmp_path, {"link": {key: 0.0}})


def test_noise_density_integrates_over_the_bandwidth(tmp_path):
    # The file gives the total noise power; a density is integrated over the
    # bandwidth before it is written, and a density key is an error naming it.
    noise = lb.dbm_to_watts(-200.0) * 1e6
    cfg = load(tmp_path, {"link": {"noise_watts": noise}, "radio": {"bandwidth_hz": 1e6}})
    assert cfg.link.noise_watts == pytest.approx(1e-17, rel=1e-9)
    with pytest.raises(ValueError,
                       match="unknown key 'noise_dbm_per_hz' in config section 'link'"):
        load(tmp_path, {"link": {"noise_dbm_per_hz": -200.0}})


def test_noise_given_twice_is_an_error(tmp_path):
    for clash in ("noise_dbm", "noise_dbm_per_hz"):
        with pytest.raises(ValueError, match=f"unknown key '{clash}' in config section 'link'"):
            load(tmp_path, {"link": {"noise_watts": 1e-20, clash: -170.0}})


def test_env_config_rejects_negative_demand_and_too_few_devices(tmp_path):
    with pytest.raises(ValueError, match="initial_demand must not be negative"):
        load(tmp_path, {"env": {"initial_demand": -1.0}})
    # The default world has three strategic cells, each with its own device.
    with pytest.raises(ValueError, match=r"device_count \(2\) must be at least the number "
                                         r"of strategic cells \(3\)"):
        load(tmp_path, {"env": {"device_count": 2}})
    with pytest.raises(ValueError, match="device_count"):
        load(tmp_path, {"env": {"device_count": 0}})
    cfg = load(tmp_path, {"env": {"device_count": 3, "initial_demand": 0.0}})
    assert (cfg.env.device_count, cfg.env.initial_demand) == (3, 0.0)


def test_resolved_echo_is_plain_json(tmp_path):
    cfg = cf.load_config()
    out = tmp_path / "resolved.json"
    cf.write_json(out, dataclasses.asdict(cfg))
    echoed = json.loads(out.read_text())
    assert set(echoed) == {"run", "mission", "link", "radio", "env", "agent"}
    assert echoed["env"]["strategic_cells"] == [6, 13, 21]
    assert echoed["run"]["seeds"] == [0]
    assert echoed["env"]["events"] == []


# --- exact-solver instance files ---------------------------------------------------

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
    # A typo, and a demand: every strategic location starts with the env's
    # initial_demand, so an instance has no demand of its own to give.
    p = tmp_path / "inst.json"
    for key, value in (("horzon", 2), ("initial_demand", [50.0])):
        p.write_text(json.dumps({**INSTANCE, key: value}))
        with pytest.raises(ValueError, match=f"unknown key '{key}' in config section 'instance'"):
            cf.load_instance(p)


@pytest.mark.parametrize("key, value, named", [
    ("horizon", 2.9, "instance.horizon must be int"),
    ("horizon", "2", "instance.horizon must be int"),
    ("budget", "5", "instance.budget must be int"),
    ("per_uav_coverage", "false", "instance.per_uav_coverage must be bool"),
    ("per_uav_coverage", 0, "instance.per_uav_coverage must be bool"),
    ("start_cells", [0.0], "instance.start_cells must be int"),
    ("start_cells", 0, "instance.start_cells must be a list"),
    ("strategic_cells", ["1"], "instance.strategic_cells must be int"),
    ("area_m", "176", "instance.area_m must be float"),
    ("devices", one_device(id="0"), "instance.devices.id must be int"),
    ("devices", one_device(packet_bits="1e6"), "instance.devices.packet_bits must be float"),
    ("devices", one_device(position_xy=["132", 44]), "instance.devices.position_xy must be float"),
    ("devices", one_device(position_xy=[132.0, 44.0, 0.0]),
     "instance.devices.position_xy must hold 2 values"),
    ("devices", one_device(position_xy=132.0), "instance.devices.position_xy must be a list"),
    ("devices", one_device(packet_bits=None),
     "config section 'instance.devices' is missing the 'packet_bits' key"),
    ("devices", {"id": 0}, "instance.devices must be a list"),
    ("devices", one_device(packet_bits=-1e6), "device 0: packet_bits must be positive"),
    ("devices", one_device(packet_bits=0), "device 0: packet_bits must be positive"),
    (None, 5, "instance file must contain a JSON object"),
    (None, None, "instance file must contain a JSON object"),
    (None, "abc", "instance file must contain a JSON object"),
])
def test_load_instance_rejects_a_wrong_json_type_by_name(tmp_path, key, value, named):
    # No value is coerced: bool("false") would turn the constraint on, and
    # int(2.9) would search a horizon of 2. A device is built from its
    # fields like a config section, and a packet of no bits is refused.
    # A ``None`` key makes ``value`` the whole file.
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(value if key is None else {**INSTANCE, key: value}))
    with pytest.raises(ValueError, match=named):
        cf.load_instance(p)


def test_load_instance_takes_the_plain_values_as_given(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps({**INSTANCE, "budget": 99, "per_uav_coverage": True}))
    inst = cf.load_instance(p)
    assert (inst.budget, inst.per_uav_coverage) == (99, True)
    assert inst.start_cells == (0,) and inst.strategic_cells == (1,)
    p.write_text(json.dumps({k: v for k, v in INSTANCE.items() if k != "strategic_cells"}))
    assert cf.load_instance(p).strategic_cells == ()


def test_load_instance_rejects_unknown_device_keys(tmp_path):
    # A misspelt device key would otherwise fall back to its default unseen.
    p = tmp_path / "inst.json"
    for key, value in (("tx_wats", 0.5), ("packet_bitz", 2e6)):
        p.write_text(json.dumps({**INSTANCE, "devices": one_device(**{key: value})}))
        with pytest.raises(ValueError,
                           match=f"unknown key '{key}' in config section 'instance.devices'"):
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
    # The link model reads radio.device_tx_watts only, so a device has no
    # tx_watts of its own: one that restates the radio's power is refused
    # as surely as one that differs from it.
    p = tmp_path / "inst.json"

    def with_second_device(extra: dict, radio_watts: float = 0.2):
        devices = [INSTANCE["devices"][0],
                   {"id": 1, "position_xy": [44.0, 44.0], "packet_bits": 1e6, **extra}]
        p.write_text(json.dumps({**INSTANCE, "devices": devices,
                                 "radio": {"device_tx_watts": radio_watts}}))
        return p

    inst = cf.load_instance(with_second_device({}, radio_watts=0.1))
    assert len(inst.devices) == 2
    assert inst.radio.device_tx_watts == 0.1
    for watts in (0.2, 0.5):
        with pytest.raises(ValueError,
                           match="unknown key 'tx_watts' in config section 'instance.devices'"):
            cf.load_instance(with_second_device({"tx_watts": watts}))


def test_load_instance_honours_link_and_radio_sections(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps({
        **INSTANCE,
        "link": {"min_snr": 1.0},
        "radio": {"rate_floor_bps": 2e5},
    }))
    inst = cf.load_instance(p)
    assert inst.link == lb.AirGroundParams(min_snr=1.0)  # the other fields keep the urban defaults
    assert inst.radio.rate_floor_bps == 2e5
    p.write_text(json.dumps({**INSTANCE, "link": {"min_snr_db": 0.0}}))
    with pytest.raises(ValueError, match="unknown key 'min_snr_db' in config section 'link'"):
        cf.load_instance(p)


def test_loading_a_config_compiles_no_learner():
    # swarmcover oracle and load_instance read configs; neither should load
    # the learners or the networks. The bare package loads no submodule.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for code in (
        "import sys, swarmcover.config; "
        "print(sorted(m for m in ('swarmcover.agents', 'swarmcover.nets') if m in sys.modules))",
        "import sys, swarmcover; "
        "print(sorted(m for m in sys.modules if m.startswith('swarmcover.')))",
    ):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == "[]", code
    proc = subprocess.run([sys.executable, "-m", "swarmcover", "--help"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: swarmcover"), proc.stderr
