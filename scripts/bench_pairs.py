#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written as one BENCH JSON file.

Runs ``python3 perfbench/run.py --workload NAME`` for every workload of
BENCHMARK.json alternately in a parent and a change checkout, ``--pairs``
times, swapping which side goes first in every other pair, then one
``--trace 1`` run on each side. Each run's last JSON line is kept as printed,
under the name of the workload it was run for. For
each workload and end-to-end metric the file also holds each side's median
and quartiles, the change/parent ratio of the medians, how many pairs the
change won (ties count for neither side), the metric's bound from
BENCHMARK.json, whether the change's median is within it (at most the
parent's median times 1 + bound), and whether the gap between the medians
exceeds the parent's quartile spread q3 - q1. It also records each side's
number of lines in ``src/robpop/*.py``.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --out BENCH_N.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_all(root: Path, trace: bool) -> dict[str, dict]:
    """One run of each workload in ``root``: workload name -> result."""
    results = {}
    for workload in json.loads(
            (root / "BENCHMARK.json").read_text())["workloads"]:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             workload["name"], "--trace", str(int(trace))],
            cwd=root, capture_output=True, text=True, check=True)
        results[workload["name"]] = json.loads(
            proc.stdout.strip().splitlines()[-1])
    return results


def src_lines(root: Path) -> int:
    """The number of lines of ``src/robpop/*.py`` in ``root``, as wc -l counts."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src" / "robpop").glob("*.py"))


def summarize(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Per workload and metric (name -> bound): quartiles, wins, verdicts."""
    out = {}
    for workload in pairs[0]["parent"]:
        rows = {}
        for metric, bound in bounds.items():
            sides = {side: [p[side][workload]["metrics"][metric]["value"]
                            for p in pairs] for side in ("parent", "change")}
            stats = {side: dict(zip(("q1", "median", "q3"),
                                    statistics.quantiles(v, n=4)))
                     for side, v in sides.items()}
            wins = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
            losses = sum(c > p for p, c in zip(sides["parent"], sides["change"]))
            parent, change = stats["parent"], stats["change"]
            rows[metric] = {
                **stats,
                "ratio_of_medians": change["median"] / parent["median"],
                "change_wins": wins, "change_losses": losses,
                "pairs": len(pairs), "bound": bound,
                "within_bound": (change["median"]
                                 <= parent["median"] * (1.0 + bound)),
                "gap_exceeds_parent_spread": (
                    abs(change["median"] - parent["median"])
                    > parent["q3"] - parent["q1"])}
        out[workload] = rows
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    ns = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ns.change / "BENCHMARK.json").read_text())["end_to_end"]}

    pairs = []
    for i in range(ns.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_all(getattr(ns, side), trace=False)
            print(f"pair {i + 1}/{ns.pairs} {side} done", file=sys.stderr)
        pairs.append(pair)
    traced = {side: run_all(getattr(ns, side), trace=True)
              for side in ("parent", "change")}

    ns.out.write_text(json.dumps({
        "command": "python3 perfbench/run.py --workload NAME",
        "summary": summarize(pairs, bounds),
        "src_lines": {side: src_lines(getattr(ns, side))
                      for side in ("parent", "change")},
        "pairs": pairs,
        "traced": traced,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
