"""Workloads, metric definitions and the output check of the robpop benchmark.

Each workload is a shipped config file from ``configs/`` plus override
statements in the same ``key = value`` text. The shipped configs take 30-75 s
per run at full scale, which leaves no room for repeated measurements inside a
run of ``RUN_SECONDS``; the overrides shrink the number of time steps or paths
and leave everything else (mesh, horizon, presets, jump densities, Monte Carlo
time step) as shipped. Only ``mc.seed`` takes the benchmark's seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

RUN_SECONDS = 40
DEFAULT_SEED = 2024
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# tolerances of the output check (absolute)
PHI_TOL = 1e-8
E_TOL = 1e-9
INTERVAL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    config: str         # file under configs/
    overrides: str      # extra statements, applied after the file
    why: str

    def config_text(self, root: Path, seed: int) -> str:
        """Shipped config, then the overrides, then the seed (last wins).

        The solve and sweep commands never read ``mc.seed``.
        """
        text = (root / "configs" / self.config).read_text()
        return (f"{text}\n# benchmark overrides\n{self.overrides}\n"
                f"mc.seed = {int(seed)}\n")


WORKLOADS = {w.name: w for w in (
    Workload(
        "solve-controlled-T50-dt0.1", "solve_controlled.txt", "time.dt = 0.1",
        "One controlled march through the ergodic regime; step kernels only, "
        "no pool and no Monte Carlo; bang-bang q exercises q_field and policy "
        "changes between iterations."),
    Workload(
        "sweep-psi0-T50-dt0.2", "sweep_psi0.txt", "time.dt = 0.2",
        "The only solve_many workload: 4 psi0 specs on the default pool "
        "(workers = nproc), so the slowest spec sets the wall time and "
        "pool or batching changes show."),
    Workload(
        "mc-check-5k", "mc_check.txt", "mc.n_paths = 5000",
        "The Monte Carlo oracle dominates; its short-horizon record_controls "
        "solve is transient, so ergodic-only march changes must show no "
        "regression in pde_s here."),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    bound: float | None = None      # end-to-end metrics only


# Bounds: on a 2-vCPU VM single executes vary by about +-10% in wall and
# CPU time alike (host contention, not steal), and a run's median of 5-8
# executes still moves by up to 9% (quartile spread) between runs on the
# pool workload, so timings get the widest bound allowed.
END_TO_END = (
    Metric("wall_s", "s", 0.25),
    Metric("setup_s", "s", 0.25),
    Metric("pde_s", "s", 0.25),
    Metric("cpu_s", "s", 0.25),
    Metric("peak_rss_mb", "MB", 0.1),
)

# the per-layer metrics every workload reports (zero where a layer does no
# work); run.py prints more (ratios, absent markers) than this list
PER_LAYER = tuple(Metric(name, unit) for name, unit in (
    ("solver.steps_marched", "count"),
    ("solver.policy_iters", "count"),
    ("solver.policy_iters_per_step", "1"),
    ("solver.policy_iters_max", "count"),
    ("solver.step_s", "s"),
    ("solver.step_ms_p50", "ms"),
    ("solver.step_ms_tail", "ms"),
    ("solver.step_self_s", "s"),
    ("solver.assemble_s", "s"),
    ("solver.assemble_calls", "count"),
    ("solver.tridiag_s", "s"),
    ("solver.tridiag_calls", "count"),
    ("solver.build_scheme_s", "s"),
    ("solver.pool_wall_s", "s"),
    ("solver.pool_cpu_s", "s"),
    ("solver.pool_workers", "count"),
    ("jump_ops.nonlocal_s", "s"),
    ("jump_ops.nonlocal_calls", "count"),
    ("jump_ops.matvec_nnz", "count"),
    ("jump_ops.matvec_flops", "count"),
    ("jump_ops.matvec_bytes", "B"),
    ("local_ops.lambda_s", "s"),
    ("local_ops.lambda_calls", "count"),
    ("local_ops.q_s", "s"),
    ("local_ops.q_calls", "count"),
    ("model.coeff_s", "s"),
    ("model.coeff_calls", "count"),
    ("model.q_grid_calls", "count"),
    ("mc_s", "s"),
    ("mc_std_err", "1"),
    ("mc.simulate_s", "s"),
    ("mc.path_steps", "count"),
    ("mc.path_self_s", "s"),
    ("mc.entropy_s", "s"),
    ("mc.entropy_calls", "count"),
    ("mc.jump_sample_s", "s"),
    ("mc.jump_sample_calls", "count"),
    ("mc.jumps_accepted", "count"),
    ("mc.thin_candidates", "count"),
    ("mc.clip_low_paths", "count"),
    ("mc.clip_high_paths", "count"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_s", "s"),
))


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        # every metric here is a cost: time, memory, work or error
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": "lower",
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": "lower"}
                      for m in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> dict[str, list[float]]:
    """Columns of a robpop CSV artifact (provenance comment skipped)."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def observe(command: str, out_dir: Path) -> dict:
    """The outputs the check compares, read from one run's artifacts."""
    if command == "solve":
        omega = read_csv(out_dir / "omega1.csv")
        return {"phi": read_csv(out_dir / "value.csv")["phi"],
                "E_mean": read_csv(out_dir / "ergodic.csv")["E_mean"][0],
                "omega1": [list(p) for p in zip(omega["left_x"],
                                                omega["right_x"])]}
    if command == "sweep":
        cols = read_csv(out_dir / "sweep.csv")
        return {"E_mean": cols["E_mean"], "min_phi": cols["min_phi"]}
    cols = read_csv(out_dir / "mc_check.csv")
    return {"pde_value": cols["pde_value"][0],
            "mc_std_err": cols["mc_std_err"][0],
            "passed": cols["passed"][0]}


def _close(got: list[float], want: list[float], tol: float) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= tol
                                         for g, w in zip(got, want))


def check(command: str, exit_code: int, got: dict, want: dict) -> list[str]:
    """Problems with one run's outputs; an empty list means it passed.

    Accuracy is a gate, not a compared metric: the Monte Carlo estimate is
    checked only through the program's own gate (3 sigma + mc.gate_abs),
    whose verdict is the exit code.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if command == "solve":
        if not _close(got["phi"], want["phi"], PHI_TOL):
            problems.append(f"phi(0, .) differs from the reference by more "
                            f"than {PHI_TOL:g} at some node")
        if abs(got["E_mean"] - want["E_mean"]) > E_TOL:
            problems.append(f"E_mean {got['E_mean']!r} differs from "
                            f"{want['E_mean']!r}")
        if len(got["omega1"]) != len(want["omega1"]) or not all(
                _close(g, w, INTERVAL_TOL)
                for g, w in zip(got["omega1"], want["omega1"])):
            problems.append(f"omega1 intervals {got['omega1']} differ from "
                            f"{want['omega1']}")
    elif command == "sweep":
        if not _close(got["E_mean"], want["E_mean"], E_TOL):
            problems.append("a sweep row's E_mean differs from the reference")
        if not _close(got["min_phi"], want["min_phi"], PHI_TOL):
            problems.append("a sweep row's min_phi differs from the reference")
    else:
        if abs(got["pde_value"] - want["pde_value"]) > PHI_TOL:
            problems.append(f"pde_value {got['pde_value']!r} differs from "
                            f"{want['pde_value']!r}")
    return problems


def reference_entry(command: str, observed: dict) -> dict:
    """The part of an observation that is recorded as the reference."""
    if command == "mc-check":
        return {"pde_value": observed["pde_value"]}
    return observed


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
