"""Spans around calls into swarmcover's modules, and the per-layer metrics
derived from them.

Wrappers are installed at the names callers look functions up through at
call time: module attributes (``lb.*``, ``ms.*``, ``nets.*``, the names
``harness`` and ``oracle`` bind with ``from ... import``) and class
attributes (``CoverageEnv`` and learner methods, ``ReplayMemory.sample``).
Nothing inside ``src/`` changes. A wrapper draws no random numbers, so a
traced pass writes the same bytes as an untraced one.

Spans live in flat in-memory columns and are written once, when the pass
ends. Calls in one process never overlap, so the union of a span's
children is the sum of their durations; self time is duration minus that.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

_MISSION_ACCOUNTING = (
    "travel_time_s", "data_delay_s", "completion_delay_s", "total_delay_s",
    "meets_deadline", "uav_energy_j", "swarm_energy_j", "strategic_coverage_satisfied",
)
_LEARNERS = ("ActorCriticLearner", "DQNLearner", "PPOLearner")

class Tracer:
    """Span store: parallel columns indexed by span id, plus counters."""

    def __init__(self, pass_id: int = 0) -> None:
        self.pass_id = pass_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` and ``after(result)`` record counts at the same
        boundary, outside the span's own timed interval.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(result)
            return result

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        n = len(self.name_col)
        return {
            "name_id": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start_col, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end_col, dtype=np.int64).copy(),
            "pass_id": np.full(n, self.pass_id, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.columns())


def _public_functions(module):
    return [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _nets_flops(dims, rows: int, backward: bool) -> float:
    # Matmul FLOPs only (2 per multiply-add). Backward forms dW for every
    # layer and dX for every layer but the first.
    macs = sum(a * b for a, b in zip(dims, dims[1:]))
    if backward:
        macs = 2 * macs - dims[0] * dims[1]
    return 2.0 * rows * macs


def install(tracer: Tracer):
    """Wrap every traced entry point; returns the wrapped ``cli.main``."""
    import swarmcover.agents as agents
    import swarmcover.cli as cli
    import swarmcover.config as config
    import swarmcover.env as env
    import swarmcover.harness as harness
    import swarmcover.link_budget as lb
    import swarmcover.mission as ms
    import swarmcover.nets as nets
    import swarmcover.oracle as oracle

    def patch(owner, attr: str, name: str, **hooks) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    for module, layer in ((lb, "link_budget"), (ms, "mission")):
        for fn in _public_functions(module):
            patch(module, fn, f"{layer}.{fn}")
    for fn in ("load_config", "load_instance"):
        patch(config, fn, f"config.{fn}")

    # One original, wrapped at each name it is looked up through, so a
    # call passes exactly one wrapper.
    for fn in ("resolve_moves", "build_rate_table"):
        original = getattr(env, fn)
        for owner in (env, oracle):
            setattr(owner, fn, tracer.wrap(f"env.{fn}", original))
    for meth in ("reset", "step", "encode_state", "apply_swarm_event", "episode_stats"):
        patch(env.CoverageEnv, meth, f"env.CoverageEnv.{meth}")

    def rows_of(x) -> int:
        return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1

    def before_forward(args) -> None:  # forward(params, x, cfg)
        rows = rows_of(args[1])
        tracer.count("nets.forward_rows", rows)
        tracer.count("nets.flops", _nets_flops(args[2].dims, rows, backward=False))

    def before_backward(args) -> None:  # backward(params, cache, dout, cfg)
        rows = rows_of(args[2])
        tracer.count("nets.backward_rows", rows)
        tracer.count("nets.flops", _nets_flops(args[3].dims, rows, backward=True))

    patch(nets, "forward", "nets.forward", before=before_forward)
    patch(nets, "backward", "nets.backward", before=before_backward)

    for fn in ("forward", "select_action", "actor_critic_accumulate",
               "critic_td_accumulate", "dqn_update", "ppo_update"):
        patch(agents, fn, f"agents.{fn}")
    for fn in ("run_training_episode", "meta_adapt", "meta_outer_update"):
        original = getattr(agents, fn)
        for owner in (agents, harness):
            setattr(owner, fn, tracer.wrap(f"agents.{fn}", original))
    for cls in _LEARNERS:
        for meth in ("act", "record", "finish_episode"):
            patch(getattr(agents, cls), meth, f"agents.{cls}.{meth}")
    patch(agents.ReplayMemory, "sample", "agents.ReplayMemory.sample")

    def after_enumerate(sol) -> None:
        tracer.count("oracle.leaves", sol.leaves_evaluated)
        tracer.count("oracle.pruned", sol.branches_pruned)
        tracer.count("oracle.feasible", sol.feasible_leaves)

    patch(oracle, "enumerate_optimum", "oracle.enumerate_optimum", after=after_enumerate)
    patch(oracle, "verify_feasibility", "oracle.verify_feasibility")

    for fn in ("run_experiment", "compare_algorithms", "emit_plot_data",
               "train_task", "train_meta_params"):
        patch(harness, fn, f"harness.{fn}")
    return tracer.wrap("cli.main", cli.main)


def layer_metrics(tracer: Tracer, import_ms: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_ratio`` excluded)."""
    cols = tracer.columns()
    name_id = cols["name_id"]
    dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
    parent = cols["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child

    def ids_mask(ids) -> np.ndarray:
        return np.isin(name_id, np.array(ids, dtype=np.int32))

    def mask(*wanted: str) -> np.ndarray:
        return ids_mask([i for i, nm in enumerate(tracer.names) if nm in wanted])

    def prefix(p: str) -> np.ndarray:
        return ids_mask([i for i, nm in enumerate(tracer.names) if nm.startswith(p)])

    def n(m) -> float:
        return float(np.count_nonzero(m))

    def total_ms(m, values=dur) -> float:
        return float(values[m].sum()) / 1e6

    def pct(m, q: float, scale: float, values=dur) -> float:
        sel = values[m]
        return float(np.percentile(sel, q)) / scale if sel.size else 0.0

    us, ms_ = 1e3, 1e6
    counters = tracer.counters
    learner = {meth: mask(*(f"agents.{c}.{meth}" for c in _LEARNERS))
               for meth in ("act", "record", "finish_episode")}
    fwd, bwd = mask("nets.forward"), mask("nets.backward")
    episode = mask("agents.run_training_episode")
    step = mask("env.CoverageEnv.step")
    reset = mask("env.CoverageEnv.reset")
    leaves = counters.get("oracle.leaves", 0.0)
    return {
        "cli.import_ms": import_ms,
        "cli.main_self_ms": total_ms(mask("cli.main"), self_t),
        "config.load_ms": total_ms(mask("config.load_config", "config.load_instance")),
        "link_budget.rate_calls": n(mask("link_budget.achievable_rate_bps")),
        "link_budget.self_ms": total_ms(prefix("link_budget."), self_t),
        "mission.world_builds": n(mask("mission.build_grid")),
        "mission.world_build_ms": total_ms(mask("mission.build_grid", "mission.default_device_layout")),
        "mission.accounting_calls": n(mask(*(f"mission.{f}" for f in _MISSION_ACCOUNTING))),
        "mission.self_ms": total_ms(prefix("mission."), self_t),
        "env.resets": n(reset),
        "env.reset_us_p50": pct(reset, 50, us),
        "env.reset_us_p99": pct(reset, 99, us),
        "env.steps": n(step),
        "env.step_us_p50": pct(step, 50, us),
        "env.step_us_p99": pct(step, 99, us),
        "env.step_self_us_p50": pct(step, 50, us, self_t),
        "env.encode_state_us_p50": pct(mask("env.CoverageEnv.encode_state"), 50, us),
        "env.swarm_events": n(mask("env.CoverageEnv.apply_swarm_event")),
        "env.resolve_moves_calls": n(mask("env.resolve_moves")),
        "env.resolve_moves_ms": total_ms(mask("env.resolve_moves")),
        "nets.forward_calls": n(fwd),
        "nets.forward_rows": counters.get("nets.forward_rows", 0.0),
        "nets.forward_ms": total_ms(fwd),
        "nets.backward_calls": n(bwd),
        "nets.backward_rows": counters.get("nets.backward_rows", 0.0),
        "nets.backward_ms": total_ms(bwd),
        "nets.rows_per_forward": counters.get("nets.forward_rows", 0.0) / max(n(fwd), 1.0),
        "nets.gflop_computed": counters.get("nets.flops", 0.0) / 1e9,
        "agents.act_us_p50": pct(learner["act"], 50, us),
        "agents.act_self_us_p50": pct(learner["act"], 50, us, self_t),
        "agents.select_action_us_p50": pct(mask("agents.select_action"), 50, us),
        "agents.finish_episode_ms_p50": pct(learner["finish_episode"], 50, ms_),
        "agents.ac_accumulate_ms_p50": pct(mask("agents.actor_critic_accumulate"), 50, ms_),
        "agents.ppo_update_ms_p50": pct(mask("agents.ppo_update"), 50, ms_),
        "agents.dqn_updates": n(mask("agents.dqn_update")),
        "agents.dqn_update_ms_p50": pct(mask("agents.dqn_update"), 50, ms_),
        "agents.record_us_p50": pct(learner["record"], 50, us),
        "agents.replay_samples": n(mask("agents.ReplayMemory.sample")),
        "agents.replay_sample_us_p50": pct(mask("agents.ReplayMemory.sample"), 50, us),
        "agents.meta_rounds": n(mask("agents.meta_outer_update")),
        "agents.meta_adapt_ms_p50": pct(mask("agents.meta_adapt"), 50, ms_),
        "agents.meta_outer_update_ms_p50": pct(mask("agents.meta_outer_update"), 50, ms_),
        "oracle.leaves": leaves,
        "oracle.pruned": counters.get("oracle.pruned", 0.0),
        "oracle.feasible": counters.get("oracle.feasible", 0.0),
        "oracle.feasible_frac": counters.get("oracle.feasible", 0.0) / leaves if leaves else 0.0,
        "oracle.enumerate_ms": total_ms(mask("oracle.enumerate_optimum")),
        "oracle.enumerate_self_ms": total_ms(mask("oracle.enumerate_optimum"), self_t),
        "oracle.verify_ms": total_ms(mask("oracle.verify_feasibility")),
        "harness.episodes": n(episode),
        "harness.episode_ms_p50": pct(episode, 50, ms_),
        "harness.episode_ms_p99": pct(episode, 99, ms_),
        "harness.episode_self_ms_p50": pct(episode, 50, ms_, self_t),
        "harness.meta_pretrain_s": total_ms(mask("harness.train_meta_params")) / 1e3,
        "harness.train_task_s": total_ms(mask("harness.train_task")) / 1e3,
        "harness.run_self_ms": total_ms(mask("harness.run_experiment"), self_t),
        "harness.emit_ms": total_ms(mask("harness.emit_plot_data")),
        "harness.compare_self_ms": total_ms(mask("harness.compare_algorithms"), self_t),
        "trace.spans": float(len(dur)),
    }
