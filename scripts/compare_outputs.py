#!/usr/bin/env python3
"""Byte-for-byte comparison of the outputs of two checkouts.

Runs the ``robpop.cli`` command line in a fresh interpreter in the parent
and in the change checkout on each of these inputs:

- the benchmark workloads, with the config text of
  ``Workload.config_text(root, 2024)`` from ``perfbench/suite.py``;
- ``configs/solve_{controlled,uncontrolled,symmetric}.txt`` with
  ``time.dt = 0.1``;
- ``configs/solve_controlled.txt`` with ``time.dt = 0.1`` and the snapshot
  times ``SNAPSHOT_TIMES``: two levels below the ergodic exit, the exit
  t* = 29.5 itself, a marched level and the terminal level;
- ``configs/sweep_psi0.txt`` with ``time.dt = 0.2`` and the invalid base
  ``model.psi0 = -1.0``, which every swept spec replaces (exit 0);
- the same sweep along sigma with one invalid swept value, -1 (exit 1, a
  usage error, and no output file).

It compares the two exit codes and every output file byte for byte, the
provenance lines included, prints one line per run and exits 1 on any
difference. For a CSV that differs it also prints the largest absolute
difference over the cells that are numbers on both sides. BLAS and OpenMP
run on one thread, as in the benchmark.

    python3 scripts/compare_outputs.py --parent ../parent --change .
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 2024
SOLVE_CONFIGS = ("solve_controlled.txt", "solve_uncontrolled.txt",
                 "solve_symmetric.txt")
SNAPSHOT_TIMES = [0.0, 5.0, 29.5, 45.0, 50.0]
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def inputs(root: Path) -> dict[str, str]:
    """Run name -> the config text it runs in the checkout ``root``."""
    workloads = runpy.run_path(str(root / "perfbench" / "suite.py"))[
        "WORKLOADS"]
    runs = {name: workload.config_text(root, SEED)
            for name, workload in workloads.items()}
    for config in SOLVE_CONFIGS:
        text = (root / "configs" / config).read_text()
        runs[f"{config} dt=0.1"] = f"{text}\ntime.dt = 0.1\n"
    runs["solve_controlled.txt dt=0.1 snapshots"] = (
        f"{runs['solve_controlled.txt dt=0.1']}"
        f"snapshot_times = {SNAPSHOT_TIMES}\n")
    sweep = (root / "configs" / "sweep_psi0.txt").read_text()
    runs["sweep_psi0.txt dt=0.2 base psi0=-1"] = (
        f"{sweep}\ntime.dt = 0.2\nmodel.psi0 = -1.0\n")
    runs["sweep_psi0.txt dt=0.2 sigma values [1, -1]"] = (
        f"{sweep}\ntime.dt = 0.2\nsweep.param = 'sigma'\n"
        f"sweep.values = [1.0, -1.0]\n")
    return runs


def execute(root: Path, text: str, out: Path) -> int:
    """The exit code of the command line run on ``text`` in ``root``, writing
    to ``out``; the config file is written next to ``out``."""
    config = out.parent / f"{out.name}.cfg"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(text)
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "robpop.cli", "--config",
                           str(config), "--out", str(out), "--quiet"],
                          cwd=root, env=env, capture_output=True,
                          text=True).returncode


def compare_trees(parent: Path, change: Path) -> list[str]:
    """The files that differ between two output trees: a file on one side
    only, or one whose bytes differ. An empty list means the trees are
    identical."""
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    mine, theirs = files(parent), files(change)
    problems = [f"{p}: only in the parent" for p in sorted(mine - theirs)]
    problems += [f"{p}: only in the change" for p in sorted(theirs - mine)]
    problems += [f"{p}: bytes differ" for p in sorted(mine & theirs)
                 if (parent / p).read_bytes() != (change / p).read_bytes()]
    return problems


def numeric_gaps(parent: Path, change: Path) -> list[str]:
    """One line for each CSV in both output trees whose bytes differ: the
    largest |parent - change| over its cells that are numbers on both sides,
    comment lines skipped and a NaN against a number counted as infinite,
    and whether any other cell differs."""
    def cells(path: Path) -> list[list[str]]:
        return [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")]

    lines = []
    for path in sorted(parent.rglob("*.csv")):
        rel = path.relative_to(parent)
        other = change / rel
        if not other.is_file() or path.read_bytes() == other.read_bytes():
            continue
        mine, theirs = cells(path), cells(other)
        if [len(row) for row in mine] != [len(row) for row in theirs]:
            lines.append(f"{rel}: rows or cells do not line up")
            continue
        worst, text_differs = 0.0, False
        for a, b in zip(itertools.chain(*mine), itertools.chain(*theirs)):
            if a == b:
                continue
            try:
                gap = abs(float(a) - float(b))
            except ValueError:
                text_differs = True
                continue
            worst = max(worst, gap if gap == gap else math.inf)
        lines.append(f"{rel}: largest numeric difference {worst:.3g}"
                     + (", and a cell that is not a number differs"
                        if text_differs else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    ns = parser.parse_args(argv)
    roots = {"parent": ns.parent.resolve(), "change": ns.change.resolve()}
    texts = {side: inputs(root) for side, root in roots.items()}
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in texts["change"]:
            outs = {side: Path(tmp) / side / name.replace(" ", "_")
                    for side in roots}
            codes = {side: execute(roots[side], texts[side][name], outs[side])
                     for side in roots}
            problems = (compare_trees(outs["parent"], outs["change"])
                        + numeric_gaps(outs["parent"], outs["change"]))
            if codes["parent"] != codes["change"]:
                problems.insert(0, f"exit codes {codes['parent']} and "
                                   f"{codes['change']}")
            n_files = len(list(outs["change"].rglob("*.csv")))
            verdict = "; ".join(problems) if problems else "identical"
            print(f"{name}: exit {codes['change']}, {n_files} csv, {verdict}")
            differ = differ or bool(problems)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
