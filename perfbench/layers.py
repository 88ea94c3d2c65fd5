"""Per-layer instrumentation: wraps the names robpop's modules call each other by.

A wrapper times one call, counts it and charges its duration to the wrapped
call that encloses it, so every layer gets an inclusive time, a self time
(inclusive minus the wrapped calls inside it) and a call count. A name is
patched where its caller looks it up (``robpop.solver.apply_nonlocal``, not
``robpop.jump_ops.apply_nonlocal``). A name the package no longer has is
listed in ``Tracer.missing`` and its metrics are left out; it never fails a
run.

``Tracer(kernels=False)`` wraps only the CLI's entry points into the solver
and the Monte Carlo oracle (one timer per call), which is what the
end-to-end metrics need. ``kernels=True`` adds the layer wrappers.

Pool workers forked by ``solve_many`` inherit the wrappers. After every solve
a worker writes its running totals to ``<dump_dir>/worker-<pid>.json``, and
``Tracer.collect`` adds those files in, so kernel times on a pool workload
are summed over workers that ran at the same time. Without fork (a spawned
pool) no file appears and ``collect`` reports the in-pool metrics absent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import resource
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (owner, attribute, layer key); an owner "module:Class" patches a method
KERNELS = (
    ("robpop.solver", "step_backward", "solver.step"),
    ("robpop.solver", "assemble_system", "solver.assemble"),
    ("robpop.solver", "thomas_solve", "solver.tridiag"),
    ("robpop.solver", "build_scheme", "solver.build_scheme"),
    ("robpop.solver", "apply_nonlocal", "jump_ops.nonlocal"),
    ("robpop.solver", "lambda_field", "local_ops.lambda"),
    ("robpop.solver", "q_field", "local_ops.q"),
    ("robpop.solver", "solve_backward", "solver.solve"),
    ("robpop.model:ProblemSpec", "q_grid", "model.q_grid"),
    ("robpop.mc", "simulate_paths", "mc.simulate"),
    ("robpop.mc", "entropy_penalty", "mc.entropy"),
    ("robpop.mc:JumpSampler", "sample", "mc.jump_sample"),
)
ENTRY_POINTS = (
    ("robpop.cli", "solve_backward", "pde"),
    ("robpop.cli", "solve_many", "pde"),
    ("robpop.cli", "simulate_value", "mc"),
)
# counters the per-call extras fill, zero until the layer does work
EXTRA_COUNTERS = {
    "jump_ops.nonlocal": ("jump_ops.nnz", "jump_ops.rows"),
    "mc.simulate": ("mc.path_steps", "mc.thin_candidates", "mc.jumps_accepted",
                    "mc.clip_low_paths", "mc.clip_high_paths"),
    "solve_many": ("solver.pool_wall_s", "solver.pool_cpu_s",
                   "solver.pool_workers"),
}
# coefficient callables on the spec that robpop.cli.build_spec returns
COEFFICIENTS = ("growth_a", "growth_rate_r", "cost_h", "disutility_f")

# the tracer whose counters TimedCoefficient charges; a coefficient is
# pickled into pool workers and must find the worker's copy by name
_active: Tracer | None = None


def _keys(layer: str) -> tuple[str, str, str]:
    return layer + "_s", layer + "_self_s", layer + "_calls"


_COEFF_KEYS = _keys("model.coeff")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class TimedCoefficient:
    """Picklable stand-in for a spec coefficient that times every call."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        if _active is None:
            return self.fn(*args)
        start = _active.enter()
        try:
            return self.fn(*args)
        finally:
            _active.exit(_COEFF_KEYS, start)


class Tracer:
    """Counters of one process, and the patches that fill them."""

    def __init__(self, kernels: bool, dump_dir: Path | None = None):
        self.kernels = kernels
        self.dump_dir = dump_dir
        self.in_worker = False
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._zero: dict[str, float] = {}   # counters of layers that exist
        self.reset()

    # -- counters ----------------------------------------------------------

    def reset(self) -> None:
        self.totals: dict[str, float] = defaultdict(float, self._zero)
        self.step_ms: list[float] = []
        self.iters_max = 0
        self._stack = [0.0]

    def enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def exit(self, keys: tuple[str, str, str], start: float) -> float:
        """Close a call opened by ``enter``; keys are (time, self, calls)."""
        elapsed = perf_counter() - start
        stack = self._stack
        inner = stack.pop()
        stack[-1] += elapsed
        t = self.totals
        t[keys[0]] += elapsed
        t[keys[1]] += elapsed - inner
        t[keys[2]] += 1
        return elapsed

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        global _active
        for owner_name, attr, key in ENTRY_POINTS:
            if self._patch(owner_name, attr,
                           lambda fn, key=key: self._entry(key, fn)):
                self._zero.update(dict.fromkeys(EXTRA_COUNTERS.get(attr, ()),
                                                0.0))
        if self.kernels:
            for owner_name, attr, key in KERNELS:
                if self._patch(owner_name, attr,
                               lambda fn, key=key: self._timed(key, fn)):
                    self._zero.update(dict.fromkeys(
                        _keys(key) + EXTRA_COUNTERS.get(key, ()), 0.0))
            if self._patch("robpop.cli", "build_spec", self._coefficients):
                self._zero.update(dict.fromkeys(_COEFF_KEYS, 0.0))
            os.register_at_fork(after_in_child=self._forked)
        self.reset()
        _active = self

    def uninstall(self) -> None:
        global _active
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        _active = None

    def _patch(self, owner_name: str, attr: str, make) -> bool:
        module_name, _, class_name = owner_name.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{owner_name}.{attr}")
            return False
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def _forked(self) -> None:
        if _active is self:
            self.reset()
            self.in_worker = True

    def _timed(self, key: str, fn):
        after = getattr(self, "_after_" + key.replace(".", "_"), None)
        k_time, k_self, k_calls = _keys(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # enter() and exit() inlined: this runs ~10^5 times per solve
            stack = self._stack
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stack[-1] += elapsed
                t = self.totals
                t[k_time] += elapsed
                t[k_self] += elapsed - inner
                t[k_calls] += 1
            if after is not None:
                self._extras(key, after, elapsed, out, *args)
            return out
        return wrapper

    def _extras(self, key: str, after, *args) -> None:
        """Run a per-call extra; a changed signature or result skips it."""
        try:
            after(*args)
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            note = f"{key} extras ({exc})"
            if note not in self.missing:
                self.missing.append(note)

    def _entry(self, key: str, fn):
        """Entry-point timer; a solve_many call also gives the pool figures."""
        pool = fn.__name__ == "solve_many"
        keys = _keys(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cpu0 = _children_cpu()
            start = self.enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = self.exit(keys, start)
            self._extras(key, self._after_entry, out, pool, elapsed, cpu0,
                         kwargs)
            return out
        return wrapper

    def _after_entry(self, out, pool, elapsed, cpu0, kwargs):
        results = out if pool else [out]
        stats = [getattr(r, "iteration_stats", None) for r in results]
        if all(s is not None for s in stats):
            self.totals["solver.result_iters"] += sum(int(s.sum())
                                                      for s in stats)
        workers = min(int(kwargs.get("workers", 1)), len(results))
        if pool and workers > 1:
            self.totals["solver.pool_wall_s"] += elapsed
            self.totals["solver.pool_cpu_s"] += _children_cpu() - cpu0
            self.totals["solver.pool_workers"] = workers

    def _coefficients(self, build_spec):
        @functools.wraps(build_spec)
        def wrapper(*args, **kwargs):
            spec = build_spec(*args, **kwargs)
            return dataclasses.replace(spec, **{
                name: TimedCoefficient(getattr(spec, name))
                for name in COEFFICIENTS if hasattr(spec, name)})
        return wrapper

    # -- per-call extras, looked up by layer key ----------------------------

    def _after_solver_step(self, elapsed, out, *args):
        self.step_ms.append(elapsed * 1e3)
        if isinstance(out, tuple) and len(out) == 3 and isinstance(out[2], int):
            self.iters_max = max(self.iters_max, out[2])

    def _after_jump_ops_nonlocal(self, elapsed, out, quad, *args):
        weights = quad.weights
        self.totals["jump_ops.nnz"] += weights.nnz
        self.totals["jump_ops.rows"] += weights.shape[0]

    def _after_solver_solve(self, elapsed, out, *args):
        if self.in_worker and self.dump_dir is not None:
            path = Path(self.dump_dir) / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(self.snapshot()))

    def _after_mc_simulate(self, elapsed, batch, spec, controls, cfg):
        span = spec.horizon - cfg.start_t
        steps = max(1, int(round(span / cfg.dt_sim)))
        t = self.totals
        t["mc.path_steps"] += steps * cfg.n_paths
        t["mc.thin_candidates"] += ((spec.nu1 + spec.nu2) * spec.theta_max
                                    * span * cfg.n_paths)
        t["mc.jumps_accepted"] += int(batch.jumps_down.sum()
                                      + batch.jumps_up.sum())
        t["mc.clip_low_paths"] += int((batch.x_min <= 0.0).sum())
        t["mc.clip_high_paths"] += int((batch.x_max >= 1.0).sum())

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"totals": dict(self.totals), "step_ms": list(self.step_ms),
                "iters_max": self.iters_max}

    def collect(self) -> dict:
        """This process's counters plus those pool workers wrote."""
        merged = self.snapshot()
        merged["workers_reporting"] = 0
        if self.dump_dir is None:
            return merged
        for path in sorted(Path(self.dump_dir).glob("worker-*.json")):
            part = json.loads(path.read_text())
            for key, value in part["totals"].items():
                merged["totals"][key] = merged["totals"].get(key, 0.0) + value
            merged["step_ms"] += part["step_ms"]
            merged["iters_max"] = max(merged["iters_max"], part["iters_max"])
            merged["workers_reporting"] += 1
        return merged


# metric name -> counter key; the metric is absent when the counter is
METRIC_COUNTERS = {
    "solver.steps_marched": "solver.step_calls",
    "solver.policy_iters": "solver.tridiag_calls",
    "solver.step_s": "solver.step_s",
    "solver.step_self_s": "solver.step_self_s",
    "solver.assemble_s": "solver.assemble_s",
    "solver.assemble_calls": "solver.assemble_calls",
    "solver.tridiag_s": "solver.tridiag_s",
    "solver.tridiag_calls": "solver.tridiag_calls",
    "solver.build_scheme_s": "solver.build_scheme_s",
    "solver.result_iters": "solver.result_iters",
    "solver.pool_wall_s": "solver.pool_wall_s",
    "solver.pool_cpu_s": "solver.pool_cpu_s",
    "solver.pool_workers": "solver.pool_workers",
    "jump_ops.nonlocal_s": "jump_ops.nonlocal_s",
    "jump_ops.nonlocal_calls": "jump_ops.nonlocal_calls",
    "local_ops.lambda_s": "local_ops.lambda_s",
    "local_ops.lambda_calls": "local_ops.lambda_calls",
    "local_ops.q_s": "local_ops.q_s",
    "local_ops.q_calls": "local_ops.q_calls",
    "model.coeff_s": "model.coeff_s",
    "model.coeff_calls": "model.coeff_calls",
    "model.q_grid_calls": "model.q_grid_calls",
    "mc.simulate_s": "mc.simulate_s",
    "mc.path_self_s": "mc.simulate_self_s",
    "mc.path_steps": "mc.path_steps",
    "mc.entropy_s": "mc.entropy_s",
    "mc.entropy_calls": "mc.entropy_calls",
    "mc.jump_sample_s": "mc.jump_sample_s",
    "mc.jump_sample_calls": "mc.jump_sample_calls",
    "mc.jumps_accepted": "mc.jumps_accepted",
    "mc.thin_candidates": "mc.thin_candidates",
    "mc.clip_low_paths": "mc.clip_low_paths",
    "mc.clip_high_paths": "mc.clip_high_paths",
}
# layers whose work runs inside pool workers on a pool workload
IN_POOL = ("solver.", "jump_ops.", "local_ops.", "model.")


def layer_metrics(merged: dict) -> dict[str, float]:
    """Per-layer metrics of one execute from ``Tracer.collect`` output.

    A metric whose counter never appeared (the wrapped name is gone) is left
    out, and so is every in-pool metric when a pool ran and no worker
    reported: a partial parent-side figure would read as a real one.
    """
    t = merged["totals"]
    out = {name: t[key] for name, key in METRIC_COUNTERS.items() if key in t}
    steps = out.get("solver.steps_marched")
    if steps is not None:
        out["solver.policy_iters_max"] = merged["iters_max"]
        if "solver.policy_iters" in out:
            out["solver.policy_iters_per_step"] = (
                out["solver.policy_iters"] / steps if steps else 0.0)
    if "jump_ops.nnz" in t:
        calls = t["jump_ops.nonlocal_calls"]
        nnz, rows = t["jump_ops.nnz"], t["jump_ops.rows"]
        out["jump_ops.matvec_nnz"] = nnz / calls if calls else 0.0
        # computed, not measured: one multiply-add per stored entry; bytes =
        # value (8) + column index (4) per entry, and per row its pointer
        # (4), the vector entry read and the result written (8 each)
        out["jump_ops.matvec_flops"] = 2.0 * nnz
        out["jump_ops.matvec_bytes"] = 12.0 * nnz + 20.0 * rows
    if t.get("solver.pool_workers") and not merged["workers_reporting"]:
        out = {name: v for name, v in out.items()
               if not name.startswith(IN_POOL) or name.startswith("solver.pool")
               or name == "solver.result_iters"}
    return out
