import dataclasses
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from robpop.cli import (COEFFICIENT_PRESETS, ConfigError, DEFAULTS,
                        build_spec, execute, main, parse_config_text,
                        resolve_config)
from robpop.jump_ops import build_jump_quadrature
from robpop.mc import SimConfig
from robpop.model import (SCALAR_FIELDS, JumpDensity, ProblemSpec,
                          make_paper_spec, validate_spec)
from robpop.solver import (PolicyConfig, build_scheme, solve_backward,
                           solve_many)

ROOT = Path(__file__).resolve().parents[1]

TINY = ("preset = 'uncontrolled'; model.horizon = 0.5; "
        "mesh.n_cells = 30; time.dt = 0.01")


def load_script(relative_path):
    """Import a repository script that is not part of the package, by path."""
    path = ROOT / relative_path
    module_spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def run_cli(tmp_path, text, name="run", extra=()):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text.replace("; ", "\n") + "\n")
    out = tmp_path / name
    code = main(["--config", str(cfg_path), "--out", str(out), "--quiet",
                 *extra])
    return code, out


# ---------------------------------------------------------------------------
# parsing and resolution
# ---------------------------------------------------------------------------

def test_parse_newlines_comments_and_semicolons():
    text = """
    # a comment
    command = 'solve'
    model.psi0 = 0.25; mesh.n_cells = 40  # trailing comment
    sweep.values = [0.25, 0.5, 1.0]
    """
    entries = parse_config_text(text)
    assert entries["command"] == "solve"
    assert entries["model.psi0"] == 0.25
    assert entries["mesh.n_cells"] == 40
    assert entries["sweep.values"] == [0.25, 0.5, 1.0]


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("model.tau = 1.0")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("model.psi0 = frog(")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError):
        parse_config_text("model.psi0")


def test_resolution_fills_preset_coefficients():
    cfg = resolve_config({"preset": "controlled"})
    assert cfg["model.growth_rate_r"] == "one_minus_q"
    assert cfg["model.cost_h"] == "tenth_q"
    cfg = resolve_config({})
    assert cfg["model.growth_rate_r"] == "one"
    assert cfg["model.cost_h"] == "zero"


def test_resolution_validates_command_and_sweep():
    with pytest.raises(ConfigError):
        resolve_config({"command": "paint"})
    with pytest.raises(ConfigError):
        resolve_config({"command": "sweep"})  # missing axis
    with pytest.raises(ConfigError):
        resolve_config({"command": "sweep", "sweep.param": "psi0"})


def test_resolved_order_is_canonical():
    cfg = resolve_config({"model.psi0": 0.25})
    assert list(cfg) == list(DEFAULTS)


def test_defaults_mirror_benchmark_resolution():
    cfg = resolve_config({})
    assert cfg["mesh.n_cells"] == 500       # 501 vertices in value.csv
    assert cfg["time.dt"] == 0.005
    assert cfg["model.theta_max"] == 100.0
    assert cfg["model.lambda_max"] == 100.0
    assert cfg["model.horizon"] == 50.0


def test_solver_and_oracle_defaults_are_the_library_defaults():
    policy, sim, spec = PolicyConfig(), SimConfig(), ProblemSpec()
    n_quads = {inspect.signature(fn).parameters["n_quad"].default
               for fn in (build_jump_quadrature, build_scheme, solve_backward,
                          solve_many)}
    assert len(n_quads) == 1
    library = {"solver.tol": policy.tol, "solver.max_iter": policy.max_iter,
               "solver.n_quad": n_quads.pop(),
               "mc.dt_sim": sim.dt_sim, "mc.n_paths": sim.n_paths,
               "mc.seed": sim.master_seed, "mc.start_x": sim.start_x}
    library.update({"model." + name: getattr(spec, name)
                    for name in SCALAR_FIELDS + ("q_grid_size",)})
    for key, value in library.items():
        assert (DEFAULTS[key], type(DEFAULTS[key])) == (value, type(value)), key
    # the coefficients each preset names are its library spec's, and the
    # jump knots are the spec's defaults too
    for preset, library_spec in (("uncontrolled", spec),
                                 ("controlled", make_paper_spec(True))):
        resolved = resolve_config({"preset": preset})
        for name, presets in COEFFICIENT_PRESETS.items():
            assert (presets[resolved["model." + name]]
                    is getattr(library_spec, name)), (preset, name)
    for key, density in (("model.jump1", spec.jump_density_1),
                         ("model.jump2", spec.jump_density_2)):
        assert DEFAULTS[key] == density.xs.tolist(), key
        assert all(type(v) is float for v in DEFAULTS[key]), key
    # every model.* key is covered above
    assert {k for k in DEFAULTS if k.startswith("model.")} == (
        {k for k in library if k.startswith("model.")}
        | {"model." + name for name in COEFFICIENT_PRESETS}
        | {"model.jump1", "model.jump2"})


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # a traced run only reports a lost name absent and drops its metrics,
    # so a rename in the library must fail here instead
    layers = load_script("perfbench/layers.py")
    unresolved = []
    for owner, attr, _ in (layers.KERNELS + layers.ENTRY_POINTS
                           + (("robpop.cli", "build_spec", None),)):
        module_name, _, class_name = owner.partition(":")
        holder = importlib.import_module(module_name)
        if class_name:
            holder = getattr(holder, class_name, None)
        if not hasattr(holder, attr):
            unresolved.append(f"{owner}.{attr}")
    assert unresolved == []


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/layers.py wraps library names by string; a name the library
    # drops, or a signature its per-call extras no longer read, makes a
    # traced benchmark run report it absent and lose its metrics while still
    # exiting 0
    layers = load_script("perfbench/layers.py")
    tracer = layers.Tracer(kernels=True)
    tracer.install()
    try:
        assert tracer.missing == []
        code, _ = run_cli(tmp_path, MC_TINY + "; mc.n_paths = 200")
        metrics = layers.layer_metrics(tracer.collect())
        assert tracer.missing == []
        tracer.reset()
        sweep_code, out = run_cli(tmp_path, TINY + "; command = 'sweep'; "
                                  "sweep.param = 'psi0'; "
                                  "sweep.values = [0.25, 1.0]", name="sweep")
        sweep = layers.layer_metrics(tracer.collect())
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert code == 0
    assert set(layers.METRIC_COUNTERS) <= set(metrics)
    # one assembly per policy iteration, one extraction per iteration plus
    # the re-extraction that records each step's controls
    iters = metrics["solver.tridiag_calls"]
    assert metrics["solver.assemble_calls"] == iters
    assert (metrics["local_ops.lambda_calls"] == metrics["local_ops.q_calls"]
            == iters + metrics["solver.steps_marched"])
    # the sweep marches its specs as one batch: one assembly and one solve
    # per policy iteration of the batch, whichever specs it holds
    assert sweep_code == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 4
    assert sweep["solver.assemble_calls"] == sweep["solver.tridiag_calls"] > 0


def test_build_spec_from_tables():
    cfg = resolve_config({
        "model.growth_a": [[0.0, 0.0], [0.5, 0.25], [1.0, 0.0]],
        "model.jump1": [[0.2, 1.0], [0.5, 2.0], [0.8, 1.0]],
    })
    spec = build_spec(cfg)
    assert float(spec.growth_a(0.25)) == pytest.approx(0.125)
    assert spec.jump_density_1.xs[0] == 0.2


def test_build_spec_rejects_unknown_preset_name():
    with pytest.raises(ConfigError, match="growth_a"):
        build_spec(resolve_config({"model.growth_a": "quartic"}))


@pytest.mark.parametrize("preset", ["uncontrolled", "controlled"])
def test_cli_preset_matches_library_preset(preset):
    # the acceptance suite solves make_paper_spec; CLI users get build_spec
    library = make_paper_spec(with_control=preset == "controlled")
    cli_spec = build_spec(resolve_config({"preset": preset}))
    for field in dataclasses.fields(library):
        want, got = getattr(library, field.name), getattr(cli_spec, field.name)
        if isinstance(want, JumpDensity):
            np.testing.assert_array_equal(got.xs, want.xs)
            np.testing.assert_array_equal(got.ys, want.ys)
        else:
            assert got == want, field.name


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (ROOT / "README.md").read_text()
    first_cells = [line.split("|")[1] for line in readme.splitlines()
                   if line.startswith("| `")]
    keys = {key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)}
    assert keys == set(DEFAULTS)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.txt")),
                         ids=lambda path: path.name)
def test_shipped_config_resolves_to_a_valid_spec(path):
    cfg = resolve_config(parse_config_text(path.read_text()))
    assert validate_spec(build_spec(cfg)) == []


@pytest.mark.parametrize("flags", [[], ["--quick"]])
def test_run_experiments_runs_every_shipped_config(tmp_path, monkeypatch,
                                                   flags):
    script = load_script("scripts/run_experiments.py")
    runs = []

    def record(cfg, out, quiet=False):
        runs.append((Path(out).name, cfg))
        return 0
    monkeypatch.setattr(script, "execute", record)
    monkeypatch.setattr(sys, "argv", ["run_experiments.py",
                                      "--out", str(tmp_path), *flags])
    assert script.main() == 0
    assert [(name, cfg["command"]) for name, cfg in runs] == [
        ("uncontrolled", "solve"), ("controlled", "solve"),
        ("symmetric", "solve"),
        ("sweep_psi0_uncontrolled", "sweep"), ("sweep_psi_uncontrolled", "sweep"),
        ("sweep_psi0_controlled", "sweep"), ("sweep_psi_controlled", "sweep"),
        ("mc_check", "mc-check")]
    for _, cfg in runs:
        assert validate_spec(build_spec(cfg)) == []


def test_bench_pairs_alternates_sides_and_counts_wins(tmp_path, monkeypatch):
    script = load_script("scripts/bench_pairs.py")
    calls = []

    def fake_run_all(root, trace):
        calls.append((root.name, trace))
        wall = {"parent": 2.0, "change": 1.0}[root.name] + 0.1 * len(calls)
        return {"w": {"metrics": {name: {"value": wall} for name in (
            "wall_s", "setup_s", "pde_s", "cpu_s", "peak_rss_mb")}}}
    monkeypatch.setattr(script, "run_all", fake_run_all)
    for side, sources in (("parent", ("a\nb\nc\n", "d\n")),
                          ("change", ("a\nb\n",))):
        package = tmp_path / side / "src" / "robpop"
        package.mkdir(parents=True)
        for n, text in enumerate(sources):
            (package / f"m{n}.py").write_text(text)
        (package / "notes.txt").write_text("not counted\n")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    assert script.main(["--parent", str(tmp_path / "parent"),
                        "--change", str(tmp_path / "change"),
                        "--pairs", "3", "--out", str(out)]) == 0
    assert calls == [("parent", False), ("change", False),
                     ("change", False), ("parent", False),
                     ("parent", False), ("change", False),
                     ("parent", True), ("change", True)]
    row = json.loads(out.read_text())["summary"]["w"]["wall_s"]
    assert (row["change_wins"], row["change_losses"]) == (3, 0)
    assert row["parent"]["median"] == pytest.approx(2.4)
    assert row["change"]["median"] == pytest.approx(1.3)
    # parent runs 2.1, 2.4, 2.5: quartiles 2.1 and 2.5 (exclusive method)
    assert row["bound"] == 0.25
    assert row["within_bound"] is True
    assert row["gap_exceeds_parent_spread"] is True
    assert json.loads(out.read_text())["src_lines"] == {"parent": 4,
                                                         "change": 2}
    rss = json.loads(out.read_text())["summary"]["w"]["peak_rss_mb"]
    assert rss["bound"] == 0.1
    # a change 1.3x slower in the median, inside a wide parent spread
    wide = [{side: {"w": {"metrics": {"wall_s": {"value": v}}}}
             for side, v in zip(("parent", "change"), values)}
            for values in ((0.5, 1.2), (1.0, 1.3), (1.5, 1.4))]
    row = script.summarize(wide, {"wall_s": 0.25})["w"]["wall_s"]
    assert row["within_bound"] is False
    assert row["gap_exceeds_parent_spread"] is False


def test_bench_pairs_summary_counts_ties_and_judges_bound_and_spread():
    script = load_script("scripts/bench_pairs.py")
    # workload -> metric -> (parent runs, change runs), pair by pair
    runs = {"a": {"wall_s": ([1.0, 2.0, 3.0, 4.0, 5.0],
                             [0.5, 2.0, 3.5, 3.0, 4.0]),
                  "peak_rss_mb": ([10.0] * 5, [9.0, 9.0, 9.0, 9.0, 11.0])},
            "b": {"wall_s": ([2.0] * 5, [2.5] * 5),
                  "peak_rss_mb": ([10.0] * 5, [11.5] * 5)}}
    pairs = [{side: {workload: {"metrics": {
                 metric: {"value": values[k][i]}
                 for metric, values in metrics.items()}}
                 for workload, metrics in runs.items()}
              for k, side in enumerate(("parent", "change"))}
             for i in range(5)]
    summary = script.summarize(pairs, {"wall_s": 0.25, "peak_rss_mb": 0.1})

    def verdicts(row):
        return (row["change_wins"], row["change_losses"], row["pairs"],
                row["within_bound"], row["gap_exceeds_parent_spread"])

    row = summary["a"]["wall_s"]
    # one tie (2.0 against 2.0) counts for neither side; equal medians
    assert verdicts(row) == (3, 1, 5, True, False)
    assert (row["parent"]["q1"], row["parent"]["median"],
            row["parent"]["q3"]) == pytest.approx((1.5, 3.0, 4.5))
    assert row["ratio_of_medians"] == pytest.approx(1.0)
    # a zero parent spread: any gap between the medians exceeds it
    assert verdicts(summary["a"]["peak_rss_mb"]) == (4, 1, 5, True, True)
    # the bound is inclusive: 2.5 is the parent's 2.0 times 1.25
    assert verdicts(summary["b"]["wall_s"]) == (0, 5, 5, True, True)
    assert summary["b"]["wall_s"]["bound"] == 0.25
    assert verdicts(summary["b"]["peak_rss_mb"]) == (0, 5, 5, False, True)
    assert summary["b"]["peak_rss_mb"]["ratio_of_medians"] == pytest.approx(
        1.15)


def test_bench_pairs_keeps_each_result_under_its_workload(monkeypatch):
    script = load_script("scripts/bench_pairs.py")
    requested = []

    def fake_run(cmd, cwd, **kwargs):
        name = cmd[cmd.index("--workload") + 1]
        requested.append((name, cmd[cmd.index("--trace") + 1]))
        return subprocess.CompletedProcess(
            cmd, 0, stdout=f"report of {name}\n" + json.dumps({"ran": name}))
    monkeypatch.setattr(script.subprocess, "run", fake_run)
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    results = script.run_all(ROOT, trace=True)
    assert requested == [(name, "1") for name in names]
    assert results == {name: {"ran": name} for name in names}


def test_compare_outputs_finds_a_differing_byte_and_a_missing_file(
        tmp_path):
    script = load_script("scripts/compare_outputs.py")
    for side in ("parent", "change"):
        (tmp_path / side / "sub").mkdir(parents=True)
        (tmp_path / side / "value.csv").write_bytes(b"# cfg\nx,phi\n0,1\n")
        (tmp_path / side / "sub" / "sweep.csv").write_bytes(b"1,2\n")
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert script.compare_trees(parent, change) == []
    (change / "value.csv").write_bytes(b"# cfg\nx,phi\n0,2\n")
    (parent / "sub" / "sweep.csv").unlink()
    assert script.compare_trees(parent, change) == [
        "sub/sweep.csv: only in the change", "value.csv: bytes differ"]


def test_compare_outputs_reports_the_largest_numeric_difference(tmp_path):
    script = load_script("scripts/compare_outputs.py")
    parent, change = tmp_path / "parent", tmp_path / "change"
    files = {"value.csv": (b"# a\nx,phi\n0,1.5\n1,nan\n",
                           b"# b\nx,phi\n0,1.25\n1,nan\n"),
             "nan.csv": (b"x\n1\n", b"x\nnan\n"),
             "header.csv": (b"x,y\n1,2\n", b"x,z\n1,2.5\n"),
             "rows.csv": (b"x\n1\n", b"x\n1\n2\n"),
             "same.csv": (b"x\n1\n", b"x\n1\n")}
    for name, sides in files.items():
        for root, text in zip((parent, change), sides):
            root.mkdir(exist_ok=True)
            (root / name).write_bytes(text)
    assert script.numeric_gaps(parent, change) == [
        "header.csv: largest numeric difference 0.5, and a cell that is not "
        "a number differs",
        "nan.csv: largest numeric difference inf",
        "rows.csv: rows or cells do not line up",
        "value.csv: largest numeric difference 0.25"]


def test_resolution_rejects_nonfinite_and_noninteger_values():
    with pytest.raises(ConfigError, match="finite"):
        resolve_config({"model.jump1": [[0.2, 1.0], [0.5, float("inf")]]})
    with pytest.raises(ConfigError, match="integer"):
        resolve_config({"mesh.n_cells": 40.0})


# ---------------------------------------------------------------------------
# solve command artifacts
# ---------------------------------------------------------------------------

def test_solve_emits_all_artifacts(tmp_path):
    code, out = run_cli(tmp_path, TINY)
    assert code == 0
    for name in ("value.csv", "controls.csv", "ergodic.csv", "omega1.csv"):
        assert (out / name).exists(), name
    lines = (out / "value.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "x,phi"
    data = [line.split(",") for line in lines[2:]]
    assert len(data) == 31
    xs = [float(row[0]) for row in data]
    assert xs == sorted(xs)


def test_solve_prints_reference_values(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY.replace("; ", "\n"))
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    captured = capsys.readouterr().out
    assert "38.665" in captured     # uncontrolled benchmark reference
    assert "0.7943" in captured


def test_roundtrip_provenance_reproduces_run_bitwise(tmp_path):
    code, out1 = run_cli(tmp_path, TINY, name="first")
    assert code == 0
    first = (out1 / "value.csv").read_text().splitlines()[0]
    assert first.startswith("# config: ")
    config_text = first.removeprefix("# config: ")
    cfg = resolve_config(parse_config_text(config_text))
    out2 = tmp_path / "second"
    assert execute(cfg, out2, quiet=True) == 0
    for name in ("value.csv", "controls.csv", "ergodic.csv", "omega1.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_override_flag_wins(tmp_path):
    code, out = run_cli(tmp_path, TINY, extra=["--override",
                                               "mesh.n_cells = 20"])
    assert code == 0
    rows = (out / "value.csv").read_text().splitlines()[2:]
    assert len(rows) == 21


def test_snapshot_times_emit_long_format_csv(tmp_path):
    code, out = run_cli(tmp_path, TINY + "; snapshot_times = [0.2, 0.4]")
    assert code == 0
    rows = (out / "snapshots.csv").read_text().splitlines()[2:]
    assert len(rows) == 2 * 31
    times = sorted({float(r.split(",")[0]) for r in rows})
    assert times == [0.2, 0.4]


def test_snapshot_time_off_the_time_levels_exits_one(tmp_path, capsys):
    code, _ = run_cli(tmp_path, TINY + "; snapshot_times = [0.2, 0.123]")
    assert code == 1
    assert "time 0.123 is not a level" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "command = 'sweep'; sweep.param = 'psi0'; sweep.values = [0.5]",
    "command = 'mc-check'"])
def test_snapshot_times_outside_solve_exit_one(tmp_path, capsys, command):
    code, _ = run_cli(tmp_path, TINY + f"; {command}; snapshot_times = [0.2]")
    assert code == 1
    assert "snapshot_times is read only by solve" in capsys.readouterr().err


def test_usage_errors_exit_one(tmp_path):
    assert main(["--config", str(tmp_path / "missing.txt")]) == 1
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text("model.unknown = 1\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert main(["--not-a-flag"]) == 1


def test_invalid_model_exits_one(tmp_path):
    code, _ = run_cli(tmp_path, TINY + "; model.psi0 = -1.0")
    assert code == 1


# how the error names the type each key must have
KEY_TYPE = {"snapshot_times": "a list of numbers",
            "sweep.values": "a list of numbers",
            "mc.n_paths": "an integer", "solver.max_iter": "an integer",
            "model.sigma": "a number"}


@pytest.mark.parametrize("statement, bad_key", [
    ("snapshot_times = 5.0", "snapshot_times"),
    ("command = 'sweep'; sweep.param = 'psi0'; sweep.values = 3",
     "sweep.values"),
    ("snapshot_times = ['a']", "snapshot_times"),
    ("command = 'sweep'; sweep.param = 'psi0'; sweep.values = ['a']",
     "sweep.values"),
    ("model.sigma = 1", None),          # a float key accepts an int
    # bool is a subclass of int, but no key takes one
    ("mc.n_paths = True", "mc.n_paths"),
    ("solver.max_iter = True", "solver.max_iter"),
    ("model.sigma = True", "model.sigma"),
    ("command = 'sweep'; sweep.param = 'psi0'; sweep.values = [True]",
     "sweep.values"),
])
def test_value_must_have_the_type_of_its_default(tmp_path, capsys, statement,
                                                 bad_key):
    code, _ = run_cli(tmp_path, TINY + "; " + statement)
    assert code == (1 if bad_key else 0)
    if bad_key:
        assert (f"{bad_key} must be {KEY_TYPE[bad_key]}"
                in capsys.readouterr().err)


def test_coefficient_table_negative_between_samples_exits_one(tmp_path, capsys):
    code, _ = run_cli(tmp_path, TINY + "; model.disutility_f = [[0.0, 1.0], "
                      "[0.0025, -5.0], [0.005, 1.0], [1.0, 1.0]]")
    assert code == 1
    assert "invalid model: disutility" in capsys.readouterr().err


@pytest.mark.parametrize("statement", ["model.sigma = 1e999",
                                       "solver.tol = -1e999",
                                       "model.q_grid_size = 2.5"])
def test_nonfinite_or_noninteger_value_exits_one(tmp_path, statement):
    code, _ = run_cli(tmp_path, TINY + "; " + statement)
    assert code == 1


def test_step_count_beyond_int64_exits_one(tmp_path, capsys):
    code, _ = run_cli(tmp_path, TINY + "; time.dt = 1e-300")
    assert code == 1
    assert "int64 step count" in capsys.readouterr().err


@pytest.mark.parametrize("statement, key", [("solver.max_iter = 0", "max_iter"),
                                            ("solver.tol = -1.0", "tol")])
def test_bad_policy_setting_exits_one(tmp_path, capsys, statement, key):
    code, _ = run_cli(tmp_path, TINY + "; " + statement)
    assert code == 1
    assert f"policy {key} must be" in capsys.readouterr().err


def test_solver_failure_exits_two(tmp_path):
    code, _ = run_cli(tmp_path,
                      TINY + "; solver.max_iter = 1; solver.tol = 1e-30")
    assert code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_coefficient_exits_two(tmp_path):
    # finite and valid, but sigma^2 a^2 / 2 overflows: the M-matrix check
    # rejects the first assembled system
    code, _ = run_cli(tmp_path, TINY + "; model.growth_a = "
                      "[[0.0, 0.0], [0.5, 1e300], [1.0, 0.0]]")
    assert code == 2


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_sweep_rows_sorted_with_expected_columns(tmp_path):
    text = (TINY + "; command = 'sweep'; sweep.param = 'psi0'; "
            "sweep.values = [1.0, 0.25, 0.5]")
    code, out = run_cli(tmp_path, text)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[:4] == ["psi0", "E_mean", "E_spread", "min_phi"]
    values = [float(line.split(",")[0]) for line in lines[2:]]
    assert values == [0.25, 0.5, 1.0]
    e_means = [float(line.split(",")[1]) for line in lines[2:]]
    assert e_means == sorted(e_means)


def test_sweep_rejects_invalid_swept_value_before_solving(tmp_path,
                                                          monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("solve_many called with an invalid spec")
    monkeypatch.setattr("robpop.cli.solve_many", never)
    text = (TINY + "; command = 'sweep'; sweep.param = 'sigma'; "
            "sweep.values = [1.0, 0.5, -1.0]")
    code, _ = run_cli(tmp_path, text)
    assert code == 1
    err = capsys.readouterr().err
    assert "invalid model:" in err and "sigma" in err


def test_sweep_validates_the_swept_specs_not_the_base_spec(tmp_path):
    # the base psi0 is invalid, but every swept spec replaces it
    text = (TINY.replace("mesh.n_cells = 30", "mesh.n_cells = 20")
            + "; command = 'sweep'; sweep.param = 'psi0'; "
            "sweep.values = [0.5, 1.0]; model.psi0 = -1.0")
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 4


def test_sweep_omega1_uses_each_swept_q_max(tmp_path):
    # q* = q_max on the intervention region, so a threshold of half the base
    # q_max = 1 would miss the region of the q_max = 0.5 row
    controlled = TINY.replace("'uncontrolled'", "'controlled'")
    code, out = run_cli(tmp_path, controlled + "; command = 'sweep'; "
                        "sweep.param = 'q_max'; sweep.values = [0.5, 1.0]")
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    for row in rows:
        q_max, *_, left, right, n_intervals = row.split(",")
        code, solved = run_cli(tmp_path, controlled + f"; model.q_max = {q_max}",
                               name=f"solve-{q_max}")
        assert code == 0
        omega1 = (solved / "omega1.csv").read_text().splitlines()[2:]
        assert int(n_intervals) == len(omega1) > 0
        assert f"{left},{right}" == omega1[0]


def test_sweep_runs_without_sched_getaffinity(tmp_path, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity; a sweep reads no core
    # count, so it runs the same there
    monkeypatch.delattr(os, "sched_getaffinity")
    code, out = run_cli(tmp_path, TINY + "; command = 'sweep'; "
                        "sweep.param = 'psi0'; sweep.values = [0.25, 1.0]")
    assert code == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 4


def test_sweep_failure_names_the_swept_value(tmp_path, capsys):
    text = (TINY + "; command = 'sweep'; sweep.param = 'psi0'; "
            "sweep.values = [1.0, 0.25]; solver.max_iter = 1; "
            "solver.tol = 1e-30")
    code, _ = run_cli(tmp_path, text)
    assert code == 2
    err = capsys.readouterr().err
    assert "solver failure at psi0 = 0.25:" in err
    assert "policy iteration of spec 0 stalled" in err


def test_sweep_joint_psi_axis(tmp_path):
    text = (TINY + "; command = 'sweep'; sweep.param = 'psi'; "
            "sweep.values = [0.25, 1.0]")
    code, out = run_cli(tmp_path, text)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# mc-check command
# ---------------------------------------------------------------------------

MC_TINY = ("command = 'mc-check'; model.horizon = 0.5; mesh.n_cells = 40; "
           "time.dt = 0.005; mc.dt_sim = 0.002; mc.n_paths = 3000; "
           "mc.seed = 123")


def test_mc_check_passes_and_reports(tmp_path):
    code, out = run_cli(tmp_path, MC_TINY)
    assert code == 0
    lines = (out / "mc_check.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert row["passed"] == "1"
    assert abs(float(row["mc_mean"]) - float(row["pde_value"])) <= \
        float(row["gate"])


def test_mc_check_gate_failure_exits_three(tmp_path):
    code, _ = run_cli(tmp_path, MC_TINY + "; mc.gate_abs = -1.0")
    assert code == 3


@pytest.mark.parametrize("statement", [
    "mc.n_paths = 0", "mc.chunk_size = 0", "mc.dt_sim = -0.002",
    "mc.start_x = 1.5", "mc.dt_sim = 0.01", "mc.dt_sim = 5e-324",
    "mc.dt_sim = 1e-300", "mc.seed = -1"])
def test_bad_mc_setting_exits_one_before_solving(tmp_path, monkeypatch,
                                                 statement):
    def never(*args, **kwargs):
        raise AssertionError("solve_backward called with a bad mc setting")
    monkeypatch.setattr("robpop.cli.solve_backward", never)
    code, _ = run_cli(tmp_path, MC_TINY + "; " + statement)
    assert code == 1


def test_old_provenance_with_mc_start_t_exits_one(tmp_path):
    # builds before mc.start_t was removed wrote "mc.start_t = 0.0"
    code, _ = run_cli(tmp_path, MC_TINY + "; mc.start_t = 0.0")
    assert code == 1


def test_old_provenance_with_mc_chunk_size_exits_one(tmp_path):
    # builds before the path chunk became a constant wrote this statement
    code, _ = run_cli(tmp_path, MC_TINY + "; mc.chunk_size = 32768")
    assert code == 1
