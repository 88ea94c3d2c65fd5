"""One measured execute of a workload, in a fresh interpreter.

Usage: python3 child.py REQUEST.json RESULT.json

The request carries the repository root, the config text, the output and
worker-dump directories, whether to install the kernel wrappers, and the
time.monotonic() reading taken just before this process was started. The
child first pays the set-up a user pays before the first backward step
(import, config resolution, build_spec, validate_spec, build_scheme) and
records when it is done, then times one ``robpop.cli.execute`` call.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(request_path: str, result_path: str) -> None:
    req = json.loads(Path(request_path).read_text())
    sys.path.insert(0, str(Path(req["root"]) / "src"))
    from robpop import cli
    from robpop.grid import build_mesh
    from robpop.model import validate_spec
    from robpop.solver import build_scheme

    cfg = cli.resolve_config(cli.parse_config_text(req["config_text"]))
    spec = cli.build_spec(cfg)
    validate_spec(spec)
    build_scheme(spec, build_mesh(int(cfg["mesh.n_cells"])),
                 n_quad=int(cfg["solver.n_quad"]))
    setup_end = time.monotonic()

    import layers
    tracer = layers.Tracer(kernels=req["trace"], dump_dir=req["dump_dir"])
    tracer.install()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    exit_code = cli.execute(cfg, req["out_dir"], quiet=True)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    tracer.uninstall()

    merged = tracer.collect()
    totals = merged["totals"]
    result = {
        "command": cfg["command"],
        "exit_code": exit_code,
        "setup_s": setup_end - req["launched"],
        "wall_s": wall,
        "cpu_s": cpu,
        "pde_s": totals.get("pde_s"),
        "mc_s": totals.get("mc_s", 0.0),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing": tracer.missing,
        "machine": _machine(),
    }
    if req["trace"]:
        result["layers"] = layers.layer_metrics(merged)
        result["step_ms"] = merged["step_ms"]
        result["workers_reporting"] = merged["workers_reporting"]
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
