"""Command-line front end: config parsing, run dispatch, CSV artifacts.

Config files are flat ``key = value`` text with dotted keys; values are
Python literals (numbers, strings, lists). ``#`` starts a comment and ``;``
separates statements on one line, so the provenance comment emitted at the
top of every CSV can be re-parsed as a complete config reproducing the run.

Commands: ``solve`` writes value.csv, controls.csv, ergodic.csv, omega1.csv;
``sweep`` solves the specs along one parameter axis together, as one
batch in this process, and writes sweep.csv;
``mc-check`` cross-validates the solved value against the Monte Carlo
estimator. Exit codes: 0 success, 1 usage, 2 solver failure, 3 mc-check gate
failure.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .grid import build_mesh, build_time_grid
from .jump_ops import N_QUAD
from .mc import SimConfig, simulate_value
from .model import (SCALAR_FIELDS, ProblemSpec, declining_rate,
                    logistic_growth, make_paper_spec, tabulated,
                    tabulated_density, tent_disutility, tenth_cost,
                    uniform_density, unit_rate, validate_spec, zero_cost,
                    zero_rate)
from .solver import (PolicyConfig, PolicyIterationError, SchemeError,
                     solve_backward, solve_many, switching_points)

# benchmark values printed next to the computed ones; the combination of
# migration intensities and jump densities behind them is not fully pinned
# down, so they are context, not a gate
REFERENCE_E_UNCONTROLLED = 0.7943
REFERENCE_MIN_VALUE = {"uncontrolled": 38.665, "controlled": 37.003}


class ConfigError(ValueError):
    pass


# spec coefficient -> its named presets; the config key is "model." + name
COEFFICIENT_PRESETS = {
    "growth_a": {"logistic": logistic_growth},
    "growth_rate_r": {"one": unit_rate, "one_minus_q": declining_rate,
                      "zero": zero_rate},
    "cost_h": {"zero": zero_cost, "tenth_q": tenth_cost},
    "disutility_f": {"tent": tent_disutility},
}

NUMBER_LISTS = ("snapshot_times", "sweep.values")

SWEEPABLE = ("psi0", "psi1", "psi2", "psi", "sigma", "gamma0", "gamma1",
             "nu1", "nu2", "lambda_max", "theta_max", "q_max")

# canonical key order (also the provenance order); the model, solver, q grid
# and oracle defaults are the library's
DEFAULTS: dict[str, object] = {
    "command": "solve",
    "preset": "uncontrolled",
    **{"model." + name: getattr(ProblemSpec, name) for name in SCALAR_FIELDS},
    "model.q_grid_size": ProblemSpec.q_grid_size,
    # the preset's coefficients, filled in by resolve_config
    **{"model." + name: "" for name in COEFFICIENT_PRESETS},
    "model.jump1": ProblemSpec.jump_density_1.xs.tolist(),
    "model.jump2": ProblemSpec.jump_density_2.xs.tolist(),
    "mesh.n_cells": 500,
    "time.dt": 0.005,
    "solver.tol": PolicyConfig.tol,
    "solver.max_iter": PolicyConfig.max_iter,
    "solver.n_quad": N_QUAD,
    "snapshot_times": [],
    "sweep.param": "",
    "sweep.values": [],
    "mc.dt_sim": SimConfig.dt_sim,
    "mc.n_paths": SimConfig.n_paths,
    "mc.seed": SimConfig.master_seed,
    "mc.start_x": SimConfig.start_x,
    "mc.gate_abs": 0.02,
}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse flat key = value statements; newline or ';' separated."""
    entries: dict[str, object] = {}
    for line in text.splitlines():
        for stmt in line.split("#", 1)[0].split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            key, sep, raw = stmt.partition("=")
            if not sep:
                raise ConfigError(f"expected 'key = value', got {stmt!r}")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                entries[key] = ast.literal_eval(raw.strip())
            except (ValueError, SyntaxError) as exc:
                raise ConfigError(f"bad value for {key}: {raw.strip()!r}") from exc
    return entries


@dataclass(frozen=True)
class RunConfig:
    items: dict[str, object]

    def __getitem__(self, key: str):
        return self.items[key]

    def provenance(self) -> str:
        return "; ".join(f"{k} = {_fmt_value(v)}" for k, v in self.items.items())


def resolve_config(entries: dict[str, object]) -> RunConfig:
    """Fill defaults (coefficient defaults follow the preset) and validate."""
    preset = entries.get("preset", DEFAULTS["preset"])
    if preset not in ("uncontrolled", "controlled"):
        raise ConfigError(f"unknown preset {preset!r}")
    resolved = dict(DEFAULTS)
    spec = make_paper_spec(preset == "controlled")
    for name, presets in COEFFICIENT_PRESETS.items():
        resolved["model." + name] = next(
            key for key, fn in presets.items() if fn is getattr(spec, name))
    resolved.update(entries)
    for key, value in resolved.items():
        types, what = _value_type(key)
        leaves = _leaves(value)
        # bool is a subclass of int, and no key takes one
        if not isinstance(value, types) or any(
                isinstance(v, bool) for v in leaves) or (
                key in NUMBER_LISTS
                and not all(isinstance(v, (int, float)) for v in value)):
            raise ConfigError(f"{key} must be {what}, got {_fmt_value(value)}")
        if not all(math.isfinite(v) for v in leaves if isinstance(v, float)):
            raise ConfigError(f"{key} must be finite, got {_fmt_value(value)}")

    command = resolved["command"]
    if command not in ("solve", "sweep", "mc-check"):
        raise ConfigError(f"unknown command {command!r}")
    if command != "solve" and resolved["snapshot_times"]:
        raise ConfigError(f"snapshot_times is read only by solve, "
                          f"not by {command}")
    if command == "sweep":
        if resolved["sweep.param"] not in SWEEPABLE:
            raise ConfigError(f"sweep.param must be one of {SWEEPABLE}")
        if not resolved["sweep.values"]:
            raise ConfigError("sweep.values must be a nonempty list")
    return RunConfig(items={k: resolved[k] for k in DEFAULTS})


def _value_type(key: str):
    """The types a key's value may have, and how an error names them."""
    if key.removeprefix("model.") in COEFFICIENT_PRESETS:
        return (str, list), "a preset name or a table"
    if key in NUMBER_LISTS:
        return list, "a list of numbers"
    default = DEFAULTS[key]
    if isinstance(default, float):
        return (int, float), "a number"
    return type(default), {int: "an integer", str: "a string",
                           list: "a list"}[type(default)]


def _leaves(value) -> list:
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


def _fmt_value(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    return repr(value)


def _coefficient(value, presets, what):
    if isinstance(value, str):
        if value not in presets:
            raise ConfigError(f"unknown {what} preset {value!r}; "
                              f"known: {sorted(presets)}")
        return presets[value]
    try:
        return tabulated(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {what} table: {exc}") from exc


def _jump_density(value, name):
    try:
        if (isinstance(value, list) and len(value) == 2
                and all(isinstance(v, (int, float)) for v in value)):
            return uniform_density(float(value[0]), float(value[1]))
        return tabulated_density(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc


def build_spec(cfg: RunConfig) -> ProblemSpec:
    it = cfg.items
    return ProblemSpec(
        **{name: float(it["model." + name]) for name in SCALAR_FIELDS},
        **{name: _coefficient(it["model." + name], presets, name)
           for name, presets in COEFFICIENT_PRESETS.items()},
        jump_density_1=_jump_density(it["model.jump1"], "model.jump1"),
        jump_density_2=_jump_density(it["model.jump2"], "model.jump2"),
        q_grid_size=int(it["model.q_grid_size"]),
    )


def _sweep_spec(base: ProblemSpec, param: str, value: float) -> ProblemSpec:
    if param == "psi":
        return replace(base, psi1=value, psi2=value)
    return replace(base, **{param: value})


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def _fmt_num(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(path: Path, provenance: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config: {provenance}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_num(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _run_setup(cfg: RunConfig, spec: ProblemSpec):
    """Mesh, time grid and the solver keywords that every command passes."""
    mesh = build_mesh(int(cfg["mesh.n_cells"]))
    tg = build_time_grid(spec.horizon, float(cfg["time.dt"]))
    policy = PolicyConfig(tol=float(cfg["solver.tol"]),
                          max_iter=int(cfg["solver.max_iter"]))
    return mesh, tg, {"policy": policy, "n_quad": int(cfg["solver.n_quad"])}


def _omega1(result, spec: ProblemSpec, mesh) -> list[tuple[float, float]]:
    """Intervention intervals: where q* exceeds half the solved spec's q_max."""
    return switching_points(result.final_controls.q_star, mesh, spec.q_max / 2)


def _run_solve(cfg: RunConfig, spec: ProblemSpec, out: Path, quiet: bool) -> int:
    mesh, tg, solver_kw = _run_setup(cfg, spec)
    result = solve_backward(spec, mesh, tg,
                            snapshot_times=tuple(cfg["snapshot_times"]),
                            **solver_kw)
    prov = cfg.provenance()
    phi = result.final_value
    ctrl = result.final_controls
    _write_csv(out / "value.csv", prov, ["x", "phi"],
               zip(mesh.nodes, phi))
    _write_csv(out / "controls.csv", prov,
               ["x", "q_star", "lambda_star", "theta1_star", "theta2_star"],
               zip(mesh.nodes, ctrl.q_star, ctrl.lambda_star,
                   ctrl.theta1_star, ctrl.theta2_star))
    _write_csv(out / "ergodic.csv", prov, ["E_mean", "E_spread", "t_exit"],
               [(result.ergodic.E_mean, result.ergodic.E_spread,
                 result.exit_time)])
    intervals = _omega1(result, spec, mesh)
    _write_csv(out / "omega1.csv", prov, ["left_x", "right_x"], intervals)
    if result.snapshots:
        _write_csv(out / "snapshots.csv", prov, ["t", "x", "phi"],
                   ((s.time, x, v) for s in result.snapshots
                    for x, v in zip(mesh.nodes, s.values)))

    if not quiet:
        preset = cfg["preset"]
        min_ref = REFERENCE_MIN_VALUE[preset]
        print(f"min value  {phi.min():.6f}  (reference {min_ref} for the "
              f"{preset} benchmark)")
        e_line = f"E_mean     {result.ergodic.E_mean:.6f}"
        if preset == "uncontrolled":
            e_line += f"  (reference {REFERENCE_E_UNCONTROLLED})"
        print(e_line)
        print(f"E_spread   {result.ergodic.E_spread:.3e}")
        print(f"t_exit     {result.exit_time:g}  (ergodic exit; 0 means "
              f"the march reached t = 0)")
        print(f"omega1     {intervals if intervals else 'empty'}")
        print(f"artifacts  {out}")
    return 0


def _run_sweep(cfg: RunConfig, base: ProblemSpec, out: Path, quiet: bool) -> int:
    param = cfg["sweep.param"]
    values = sorted(float(v) for v in cfg["sweep.values"])
    specs = [_sweep_spec(base, param, v) for v in values]
    if not _valid(specs):
        return 1
    mesh, tg, solver_kw = _run_setup(cfg, base)
    try:
        results = solve_many(specs, mesh, tg, **solver_kw)
    except (PolicyIterationError, SchemeError) as exc:
        print(f"solver failure at {param} = {values[exc.spec_index]:g}: "
              f"{exc}", file=sys.stderr)
        return 2

    rows = []
    for v, spec, res in zip(values, specs, results):
        intervals = _omega1(res, spec, mesh)
        left, right = intervals[0] if intervals else (np.nan, np.nan)
        rows.append((v, res.ergodic.E_mean, res.ergodic.E_spread,
                     res.final_value.min(), left, right,
                     len(intervals)))
    _write_csv(out / "sweep.csv", cfg.provenance(),
               [param, "E_mean", "E_spread", "min_phi",
                "omega1_left", "omega1_right", "n_intervals"], rows)
    if not quiet:
        for row in rows:
            print(f"{param} = {row[0]:<8g} E_mean = {row[1]:.6f}  "
                  f"min_phi = {row[3]:.6f}")
        print(f"artifacts  {out}")
    return 0


def _run_mc_check(cfg: RunConfig, spec: ProblemSpec, out: Path, quiet: bool) -> int:
    sim = SimConfig(dt_sim=float(cfg["mc.dt_sim"]),
                    n_paths=int(cfg["mc.n_paths"]),
                    master_seed=int(cfg["mc.seed"]),
                    start_x=float(cfg["mc.start_x"]))
    mesh, tg, solver_kw = _run_setup(cfg, spec)
    sim.n_steps(spec.horizon, tg.dt)    # bad settings fail before the solve
    result = solve_backward(spec, mesh, tg, record_controls=True, **solver_kw)
    pde_value = float(np.interp(sim.start_x, mesh.nodes, result.final_value))
    estimate = simulate_value(spec, result.control_table, sim)
    diff = abs(estimate.mean - pde_value)
    gate = 3.0 * estimate.std_err + float(cfg["mc.gate_abs"])
    passed = diff <= gate
    _write_csv(out / "mc_check.csv", cfg.provenance(),
               ["pde_value", "mc_mean", "mc_std_err", "abs_diff", "gate",
                "passed"],
               [(pde_value, estimate.mean, estimate.std_err, diff, gate,
                 int(passed))])
    if not quiet:
        print(f"pde value  {pde_value:.6f}")
        print(f"mc value   {estimate.mean:.6f} +- {estimate.std_err:.6f} "
              f"({estimate.n_paths} paths)")
        print(f"|diff|     {diff:.6f}  gate {gate:.6f}  "
              f"{'PASS' if passed else 'FAIL'}")
        print(f"artifacts  {out}")
    return 0 if passed else 3


def _valid(specs) -> bool:
    """Validate the specs a command will solve, before it solves any of them.

    Each distinct violation is reported once; a bad swept value is then a
    usage error (exit 1) rather than a failure after the batch has run.
    """
    violations = dict.fromkeys(v for spec in specs
                               for v in validate_spec(spec))
    for violation in violations:
        print(f"invalid model: {violation}", file=sys.stderr)
    return not violations


def execute(cfg: RunConfig, out_dir, quiet: bool = False) -> int:
    """Dispatch one resolved run; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = build_spec(cfg)
    if not _valid([spec]):
        return 1
    run = {"solve": _run_solve, "sweep": _run_sweep,
           "mc-check": _run_mc_check}[cfg["command"]]
    try:
        return run(cfg, spec, out, quiet)
    except (PolicyIterationError, SchemeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="robpop",
                     description="Robust population-control solver: solve / "
                                 "sweep / mc-check runs driven by a config file.")
    parser.add_argument("--config", help="path to a 'key = value' config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="config override (repeatable)")
    parser.add_argument("--quiet", action="store_true")
    try:
        ns = parser.parse_args(argv)
        entries: dict[str, object] = {}
        if ns.config:
            entries.update(parse_config_text(Path(ns.config).read_text()))
        for override in ns.override:
            entries.update(parse_config_text(override))
        cfg = resolve_config(entries)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return execute(cfg, ns.out, quiet=ns.quiet)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
