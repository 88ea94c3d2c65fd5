#!/usr/bin/env python3
"""Reproduce the benchmark experiments end to end.

Runs the shipped configs under configs/ at the benchmark resolution
(500 cells, dt = 0.005, T = 50):

  * the uncontrolled and controlled solves (value, controls, ergodic
    constant, intervention region),
  * the mirror-symmetric variant (zero deterministic growth),
  * ambiguity sweeps over psi0 and over the joint jump weight psi for both
    presets (sweep_psi0.txt with `preset` and `sweep.param` overridden),
  * the Monte Carlo cross-check at the truncated horizon T = 2.

Each run lands in its own subdirectory under --out. Full resolution takes
several minutes on two cores; --quick drops to a desk-scale resolution (and
10 000 Monte Carlo paths) for a fast end-to-end smoke run.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from robpop.cli import execute, parse_config_text, resolve_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
QUICK_SCALE = "model.horizon = 5.0; mesh.n_cells = 100; time.dt = 0.01"


def run(name: str, config: str, overrides: str, out_root: Path) -> None:
    """Run configs/<config> with the override statements applied after it."""
    text = f"{(CONFIGS / config).read_text()}\n{overrides}"
    cfg = resolve_config(parse_config_text(text))
    out = out_root / name
    print(f"== {name}")
    code = execute(cfg, out)
    if code != 0:
        raise SystemExit(f"{name} failed with exit code {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="experiments",
                        help="root directory for the artifacts")
    parser.add_argument("--quick", action="store_true",
                        help="desk-scale resolution for a fast smoke run")
    args = parser.parse_args()
    out_root = Path(args.out)
    scale = QUICK_SCALE if args.quick else ""

    run("uncontrolled", "solve_uncontrolled.txt", scale, out_root)
    run("controlled", "solve_controlled.txt", scale, out_root)
    run("symmetric", "solve_symmetric.txt", scale, out_root)
    for preset in ("uncontrolled", "controlled"):
        for axis in ("psi0", "psi"):
            run(f"sweep_{axis}_{preset}", "sweep_psi0.txt",
                f"preset = '{preset}'; sweep.param = '{axis}'; {scale}",
                out_root)
    run("mc_check", "mc_check.txt",
        "mc.n_paths = 10000" if args.quick else "", out_root)
    print(f"all artifacts under {out_root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
