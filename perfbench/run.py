"""The robpop benchmark: end-to-end and per-layer timings of three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --write-manifest        # regenerate BENCHMARK.json
    python3 perfbench/run.py --record-reference      # regenerate reference.json
    python3 -m pytest perfbench/selftest.py          # the benchmark's own tests

A run starts fresh interpreters (child.py), one ``robpop.cli.execute`` each,
for as long as another one fits in ``--seconds`` (at least three; four with
``--trace 1``). Every execute's artifacts are checked against reference.json;
an execute that fails the check counts in ``failed`` and contributes no
timings. Timings are medians over the executes of the run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates plain
and traced executes: the traced ones give the per-layer metrics and the plain
ones the tracing overhead (traced minus plain median wall time). The last
line of standard output is one JSON object; the lines before it are the
human-readable report. BLAS and OpenMP thread pools are pinned to one thread
in every process the benchmark starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import suite
from suite import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORK = WORK_ROOT / str(os.getpid())     # per process: runs may overlap
CHILD = Path(__file__).with_name("child.py")
CHILD_TIMEOUT_S = 150
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
COUNT_METRICS = tuple(m.name for m in PER_LAYER if m.unit == "count")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no package, no configs, no result)."""


# ---------------------------------------------------------------------------
# one execute
# ---------------------------------------------------------------------------

def _tree_children(pid: int) -> list[int]:
    """Child pids of every thread of ``pid``; empty once it has exited."""
    found = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            found += [int(p) for p in (task / "children").read_text().split()]
    except OSError:
        pass
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class WorkerPeaks(threading.Thread):
    """Polls the peak RSS (VmHWM) of every descendant of one process.

    RUSAGE_CHILDREN reports only the largest child, so each pool worker's
    own high-water mark is read while it is alive.
    """

    def __init__(self, pid: int, interval: float = 0.05):
        super().__init__(daemon=True)
        self.pid = pid
        self.interval = interval
        self.peaks: dict[int, int] = {}
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.interval):
            pending = _tree_children(self.pid)
            while pending:
                pid = pending.pop()
                self.peaks[pid] = max(self.peaks.get(pid, 0), _peak_rss_kb(pid))
                pending += _tree_children(pid)

    def stop(self) -> int:
        self._done.set()
        self.join()
        return sum(self.peaks.values())


def run_execute(workload: suite.Workload, seed: int, trace: bool,
                reference: dict | None) -> dict:
    """Run one execute in a fresh interpreter and check its outputs."""
    WORK.mkdir(parents=True, exist_ok=True)
    tag = str(time.monotonic_ns())
    out_dir, dump_dir = WORK / f"out-{tag}", WORK / f"dump-{tag}"
    dump_dir.mkdir()
    request, result_path = WORK / f"req-{tag}.json", WORK / f"res-{tag}.json"
    env = dict(os.environ, **THREAD_PINS)
    try:
        launched = time.monotonic()
        request.write_text(json.dumps({
            "root": str(ROOT), "config_text": workload.config_text(ROOT, seed),
            "out_dir": str(out_dir), "dump_dir": str(dump_dir),
            "trace": trace, "launched": launched}))
        proc = subprocess.Popen([sys.executable, str(CHILD), str(request),
                                 str(result_path)], cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        peaks = WorkerPeaks(proc.pid)
        peaks.start()
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)     # the child and its pool
            _, stderr = proc.communicate()
        workers_kb = peaks.stop()
        elapsed = time.monotonic() - launched
        if proc.returncode != 0 or not result_path.exists():
            tail = stderr.strip().splitlines()[-1:] if stderr else []
            return {"trace": trace, "elapsed": elapsed, "problems": [
                f"child exited with {proc.returncode}: {' '.join(tail)}"]}
        sample = json.loads(result_path.read_text())
        sample.update(trace=trace, elapsed=elapsed,
                      peak_rss_mb=(sample["maxrss_kb"] + workers_kb) / 1024.0)
        try:
            sample["observed"] = suite.observe(sample["command"], out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            sample["problems"] = [f"unreadable artifacts: {exc}"]
            return sample
        sample["problems"] = ([] if reference is None else suite.check(
            sample["command"], sample["exit_code"], sample["observed"],
            reference[workload.name]))
        return sample
    finally:
        for path in (out_dir, dump_dir):
            shutil.rmtree(path, ignore_errors=True)
        for path in (request, result_path):
            path.unlink(missing_ok=True)


def measure(workload: suite.Workload, seed: int, seconds: float, trace: bool,
            reference: dict) -> list[dict]:
    """Executes for ``seconds``: start another while one more fits."""
    minimum = 4 if trace else 3
    deadline = time.monotonic() + seconds
    samples: list[dict] = []
    while True:
        if len(samples) >= minimum:
            typical = statistics.median(s["elapsed"] for s in samples)
            if time.monotonic() + typical > deadline:
                return samples
        traced = trace and len(samples) % 2 == 1
        samples.append(run_execute(workload, seed, traced, reference))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


def _timing_line(name: str, unit: str, values: list[float]) -> str:
    line = (f"  {name:<30} {statistics.median(values):>14.6g} {unit:<5} "
            f"median of {len(values)}")
    tail = tail_percentile(values)
    if tail is not None:
        return line + f", p{tail[0]:.4g} {tail[1]:.6g}"
    return line + " [" + " ".join(f"{v:.4g}" for v in values) + "]"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def summarize(workload: suite.Workload, seed: int, trace: bool,
              samples: list[dict], load_before, load_after) -> dict:
    """Print the report of one run; return the result object."""
    good = [s for s in samples if not s["problems"]]
    failed = len(samples) - len(good)
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}")
    print(f"  why: {workload.why}")
    print("  config: " + "; ".join(
        ln.split("#", 1)[0].strip()
        for ln in workload.config_text(ROOT, seed).splitlines()
        if ln.split("#", 1)[0].strip()))
    if good:
        machine = good[0]["machine"]
        print(f"  machine: cpu_count {os.cpu_count()}, affinity "
              f"{sorted(os.sched_getaffinity(0))}, python {machine['python']}, "
              f"numpy {machine['numpy']}, scipy {machine['scipy']}, "
              f"{machine['blas']}, threads pinned {THREAD_PINS}")
    print(f"  commit {_git_commit()}")
    print(f"  load average before {load_before}, after {load_after}")
    for s in samples:
        for problem in s["problems"]:
            print(f"  FAILED CHECK: {problem}")
    print(f"  fail_ratio {failed}/{len(samples)} = {failed / len(samples):g}")
    missing = sorted({m for s in good for m in s.get("missing", [])})
    for name in missing:
        print(f"  absent: {name} (not in the package; its metrics are left out)")
    if not good:
        raise BenchmarkError("no execute passed the output check")

    plain = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    e2e: dict[str, list[float]] = {
        "wall_s": [s["wall_s"] for s in plain],
        "setup_s": [s["setup_s"] for s in good],
        "pde_s": [s["pde_s"] for s in plain if s["pde_s"] is not None],
        "cpu_s": [s["cpu_s"] for s in plain],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
    }
    metrics: dict[str, dict] = {}
    print("  end-to-end (plain executes):")
    for m in END_TO_END:
        if e2e[m.name]:
            print(_timing_line(m.name, m.unit, e2e[m.name]))
            metrics[m.name] = {"value": statistics.median(e2e[m.name]),
                               "unit": m.unit}
    if plain and plain[0]["command"] == "mc-check":
        print(_timing_line("mc_s", "s", [s["mc_s"] for s in plain]))
        print(f"  {'mc_std_err':<30} "
              f"{plain[0]['observed']['mc_std_err']:>14.6g} 1     "
              f"at the fixed path count")
    if not trace:
        return _result(samples, failed, metrics)

    layer_values = _layer_values(plain, traced)
    print(f"  per-layer (traced executes: {len(traced)}):")
    per_layer: dict[str, dict] = {}
    for m in PER_LAYER:
        values = layer_values.get(m.name)
        if values is None:
            print(f"  {m.name:<30} {'absent':>14}")
            continue
        per_layer[m.name] = {"value": statistics.median(values), "unit": m.unit}
        print(f"  {m.name:<30} {statistics.median(values):>14.6g} {m.unit}")
    if "trace.overhead_s" in per_layer:
        overhead = per_layer["trace.overhead_s"]["value"]
        print(f"  tracing overhead {overhead:.4g} s = "
              f"{overhead / statistics.median(e2e['wall_s']):.2%} of the plain "
              f"wall_s (target <= 2%)")
    _print_derived(per_layer, traced)
    return _result(samples, failed, per_layer)


def _layer_values(plain: list[dict], traced: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for s in traced:
        for name, v in s["layers"].items():
            values.setdefault(name, []).append(v)
    steps_ms = [ms for s in traced for ms in s["step_ms"]]
    if steps_ms:
        values["solver.step_ms_p50"] = [statistics.median(steps_ms)]
        tail = tail_percentile(steps_ms)
        if tail is not None:
            values["solver.step_ms_tail"] = [tail[1]]
    if plain:
        values["mc_s"] = [s["mc_s"] for s in plain]
        values["mc_std_err"] = [s["observed"].get("mc_std_err", 0.0)
                                for s in plain]
        if all(s["pde_s"] is not None for s in plain):
            values["cli.overhead_s"] = [s["wall_s"] - s["pde_s"] - s["mc_s"]
                                        for s in plain]
    if plain and traced:
        values["trace.overhead_s"] = [
            statistics.median(s["wall_s"] for s in traced)
            - statistics.median(s["wall_s"] for s in plain)]
    return values


def _print_derived(per_layer: dict, traced: list[dict]) -> None:
    """Step-time tail, ratios, count repeatability and the count identities."""
    v = {name: m["value"] for name, m in per_layer.items()}
    steps_ms = [ms for s in traced for ms in s["step_ms"]]
    tail = tail_percentile(steps_ms)
    if tail is not None:
        print(f"  step_ms_tail is p{tail[0]:.4g} of {len(steps_ms)} steps")
    if v.get("solver.pool_workers"):
        eff = v["solver.pool_cpu_s"] / (v["solver.pool_workers"]
                                        * v["solver.pool_wall_s"])
        print(f"  solver.pool_efficiency {eff:.4g} = pool_cpu_s / "
              f"(pool_workers x pool_wall_s); kernel times are summed over "
              f"{traced[0]['workers_reporting']} worker processes")
    if v.get("mc.thin_candidates"):
        ratio = v["mc.jumps_accepted"] / v["mc.thin_candidates"]
        print(f"  mc.thin_accept_ratio {ratio:.4g} = jumps_accepted / "
              f"thin_candidates (candidates computed as (nu1 + nu2) theta_max "
              f"T n_paths)")
    counts = {name: {s["layers"].get(name) for s in traced}
              for name in COUNT_METRICS}
    unstable = [name for name, seen in counts.items() if len(seen) > 1]
    print("  counts repeat exactly across executes: "
          + ("yes" if not unstable else f"NO ({', '.join(unstable)})"))
    if "solver.steps_marched" in v and "solver.policy_iters" in v:
        iters, steps = v["solver.policy_iters"], v["solver.steps_marched"]
        identities = {
            "assemble_calls == tridiag_calls == policy_iters":
                v.get("solver.assemble_calls") == v.get("solver.tridiag_calls")
                == iters,
            "nonlocal_calls == 2 (policy_iters + steps_marched)":
                v.get("jump_ops.nonlocal_calls") == 2 * (iters + steps),
            "lambda_calls == q_calls == policy_iters + steps_marched":
                v.get("local_ops.lambda_calls") == v.get("local_ops.q_calls")
                == iters + steps,
        }
        result_iters = {s["layers"].get("solver.result_iters") for s in traced}
        if result_iters != {None}:
            identities["sum(iteration_stats) == policy_iters"] = (
                result_iters == {iters})
        for text, holds in identities.items():
            print(f"  identity {text}: {'holds' if holds else 'BROKEN'}")


def _result(samples: list[dict], failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": len(samples),
            "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _preflight() -> None:
    if not (ROOT / "src" / "robpop" / "cli.py").is_file():
        raise BenchmarkError(f"no robpop package under {ROOT / 'src'}")
    for w in WORKLOADS.values():
        if not (ROOT / "configs" / w.config).is_file():
            raise BenchmarkError(f"missing config configs/{w.config}")


def record_reference() -> None:
    reference = {}
    for w in WORKLOADS.values():
        sample = run_execute(w, suite.DEFAULT_SEED, False, None)
        if sample["problems"] or sample["exit_code"] != 0:
            raise BenchmarkError(f"{w.name}: {sample['problems']}, "
                                 f"exit code {sample.get('exit_code')}")
        reference[w.name] = suite.reference_entry(sample["command"],
                                                  sample["observed"])
    suite.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {suite.REFERENCE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=suite.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    ns = parser.parse_args(argv)
    try:
        if ns.write_manifest:
            (ROOT / "BENCHMARK.json").write_text(
                json.dumps(suite.manifest(), indent=2) + "\n")
            return 0
        _preflight()
        if ns.record_reference:
            record_reference()
            return 0
        if ns.workload is None:
            parser.error("--workload is required")
        reference = suite.load_reference()
        names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
        results = []
        for name in names:
            load_before = os.getloadavg()
            samples = measure(WORKLOADS[name], ns.seed, ns.seconds,
                              bool(ns.trace), reference)
            results.append(summarize(WORKLOADS[name], ns.seed, bool(ns.trace),
                                     samples, load_before, os.getloadavg()))
    except (BenchmarkError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass    # another run still uses it, or it was never made
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
