"""Tests of the benchmark itself: the output check and the layer counters.

Run with ``python3 -m pytest perfbench/selftest.py`` from the repository
root; the file name keeps it out of the package's own test collection, since
the count identities hold for the march as it is when the benchmark was
defined and a later march may legitimately change them (the traced run
prints whether they still hold). The configs here are tiny.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import suite  # noqa: E402
from run import tail_percentile  # noqa: E402
from robpop import cli  # noqa: E402

TINY = """
mesh.n_cells = 40
time.dt = 0.05
model.horizon = 1.0
"""


def _execute(text: str, out_dir: Path, tracer=None) -> tuple[int, dict]:
    cfg = cli.resolve_config(cli.parse_config_text(text))
    if tracer is None:
        return cli.execute(cfg, out_dir, quiet=True), {}
    tracer.install()
    try:
        code = cli.execute(cfg, out_dir, quiet=True)
    finally:
        tracer.uninstall()
    return code, layers.layer_metrics(tracer.collect())


def _assert_identities(m: dict) -> None:
    iters, steps = m["solver.policy_iters"], m["solver.steps_marched"]
    assert steps > 0 and iters >= steps
    assert m["solver.assemble_calls"] == m["solver.tridiag_calls"] == iters
    assert m["jump_ops.nonlocal_calls"] == 2 * (iters + steps)
    assert m["local_ops.lambda_calls"] == m["local_ops.q_calls"] == iters + steps
    if "solver.result_iters" in m:
        assert m["solver.result_iters"] == iters


def test_check_passes_reference_and_flags_perturbed_phi():
    name = "solve-controlled-T50-dt0.1"
    want = suite.load_reference()[name]
    got = {**want, "phi": list(want["phi"])}
    assert suite.check("solve", 0, got, want) == []
    got["phi"][len(got["phi"]) // 2] += 1e-6
    problems = suite.check("solve", 0, got, want)
    assert len(problems) == 1 and "phi" in problems[0]


def test_check_flags_sweep_and_pde_value_drift():
    ref = suite.load_reference()
    sweep = ref["sweep-psi0-T50-dt0.2"]
    drifted = {**sweep, "E_mean": [v + 1e-8 for v in sweep["E_mean"]]}
    assert suite.check("sweep", 0, drifted, sweep)
    mc = ref["mc-check-5k"]
    assert suite.check("mc-check", 0, {"pde_value": mc["pde_value"] + 1e-6}, mc)


def test_check_flags_failed_monte_carlo_gate(tmp_path):
    text = TINY + """
command = 'mc-check'
mc.n_paths = 256
mc.dt_sim = 0.05
"""
    code, _ = _execute(text, tmp_path)
    got = suite.observe("mc-check", tmp_path)
    want = {"pde_value": got["pde_value"]}
    assert code == 0 and got["passed"] == 1
    assert suite.check("mc-check", code, got, want) == []
    # exit code 3 is the CLI's verdict that |mc - pde| exceeded the gate
    assert suite.check("mc-check", 3, {**got, "passed": 0.0}, want) == [
        "exit code 3"]


def test_traced_solve_counts_satisfy_identities_and_repeat(tmp_path):
    text = TINY + "preset = 'controlled'\n"
    runs = [_execute(text, tmp_path / str(i), layers.Tracer(kernels=True))
            for i in range(2)]
    for code, metrics in runs:
        assert code == 0
        _assert_identities(metrics)
        assert metrics["solver.steps_marched"] == 20
        assert metrics["mc.path_steps"] == 0
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")}
              for _, m in runs]
    assert counts[0] == counts[1]


def test_pool_workers_report_their_counters(tmp_path):
    # default sweep.workers: a pool of min(nproc, 2) workers here
    text = TINY + """
command = 'sweep'
sweep.param = 'psi0'
sweep.values = [0.5, 1.0]
"""
    tracer = layers.Tracer(kernels=True, dump_dir=tmp_path)
    code, metrics = _execute(text, tmp_path / "out", tracer)
    assert code == 0
    assert metrics["solver.steps_marched"] == 2 * 20
    _assert_identities(metrics)
    if metrics.get("solver.pool_workers"):
        assert (tracer.collect()["workers_reporting"]
                == metrics["solver.pool_workers"])


def test_traced_mc_check_counts_paths(tmp_path):
    text = TINY + """
command = 'mc-check'
mc.n_paths = 256
mc.dt_sim = 0.05
"""
    code, metrics = _execute(text, tmp_path, layers.Tracer(kernels=True))
    assert code == 0
    assert metrics["mc.path_steps"] == 256 * 20
    assert metrics["mc.thin_candidates"] == pytest.approx(2 * 100.0 * 1.0 * 256)
    assert metrics["mc.simulate_s"] >= metrics["mc.path_self_s"] > 0.0


def test_missing_name_leaves_metric_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(layers, "KERNELS", layers.KERNELS + (
        ("robpop.solver", "no_such_kernel", "solver.ghost"),))
    tracer = layers.Tracer(kernels=True)
    code, metrics = _execute(TINY, tmp_path, tracer)
    assert code == 0
    assert "robpop.solver.no_such_kernel" in tracer.missing
    assert not any(k.startswith("solver.ghost") for k in tracer.collect()["totals"])
    _assert_identities(metrics)


def test_uninstall_restores_the_package():
    import robpop.solver as solver
    original = solver.step_backward
    tracer = layers.Tracer(kernels=True)
    tracer.install()
    assert solver.step_backward is not original
    tracer.uninstall()
    assert solver.step_backward is original


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    pct, value = tail_percentile([float(i) for i in range(1500)])
    assert value == 1489.0 and pct == pytest.approx(100 * 1490 / 1500)


def test_silent_pool_leaves_in_pool_metrics_absent():
    merged = {"totals": {"solver.step_calls": 0.0, "solver.tridiag_calls": 0.0,
                         "model.coeff_calls": 12.0, "solver.pool_workers": 2.0,
                         "solver.pool_wall_s": 1.0, "mc.simulate_s": 0.0},
              "step_ms": [], "iters_max": 0, "workers_reporting": 0}
    metrics = layers.layer_metrics(merged)
    assert "solver.steps_marched" not in metrics
    assert "model.coeff_calls" not in metrics
    assert metrics["solver.pool_workers"] == 2.0
    assert metrics["mc.simulate_s"] == 0.0
