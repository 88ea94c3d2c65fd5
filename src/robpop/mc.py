"""Monte Carlo oracle for the controlled, measure-distorted dynamics.

Paths follow the distorted dynamics directly: Euler-Maruyama on the
continuous part with drift a(x) r(q) + sigma lambda a(x) + gamma1 -
(gamma0+gamma1) x and diffusion sigma a(x), state projected back into [0, 1]
after every increment, and distorted jumps simulated by thinning at each
control level's own bound: per step, one Poisson count K ~ Poisson(n nu
max(theta row) dt) of candidates over all n paths, each assigned to a
uniformly chosen path (the law of independent per-path counts), accepted with
probability theta(t, x) / max(theta row), sizes drawn by inverse CDF from
the jump-density table.
The running cost, f(x) + h(q) - lambda^2/(2 psi0) - sum_i (nu_i/psi_i)
(theta_i ln theta_i + 1 - theta_i), is integrated with the left-endpoint
rule. Each simulation step reads the control level nearest in time. When the
loop reaches a level it reads the node rows of running cost, drift and theta
that the solve stored with that level's controls (the rows assembly used),
checks them finite, and holds them in slope form (values, np.diff(values));
the diffusion row sigma a(x) is built once per call, from the only spec
coefficient the oracle evaluates. Every step then locates the paths once
with `Mesh.locate` and interpolates each row linearly, so no coefficient
and no entropy is evaluated on a path. The oracle thus interpolates the
composed rows, not the controls: a kink of a coefficient between nodes,
such as the bang-bang switch of q*, is smeared across one cell.

Paths are processed in chunks of the constant CHUNK_PATHS, each driven by
its own deterministic substream spawned from the master seed, so identical
configurations reproduce bitwise identical estimates. Seeded estimates
differ from builds that composed the coefficients on each path (at seed
2024, 5000 paths, T = 2 on 200 cells, the uncontrolled mean moved by
-6.7e-6), and from builds that thinned at the global rate nu * theta_max
with a count drawn per path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .grid import step_count
# unused here; kept because the benchmark tracer wraps mc.entropy_penalty
from .jump_ops import entropy_penalty, post_jump  # noqa: F401
from .model import JumpDensity, ProblemSpec
from .solver import ControlField, ControlTable

JUMP_CDF_NODES = 4097      # knots of the jump-size CDF table a sampler inverts
# paths simulated together: a cache block, not a setting. One unchunked
# 100 000-path batch of configs/mc_check.txt took 38.2-43.5 s against
# 33.4-35.8 s in chunks of this size (3 alternating pairs, 2-vCPU VM).
CHUNK_PATHS = 32_768


@dataclass(frozen=True)
class SimConfig:
    dt_sim: float = 5e-4
    n_paths: int = 100_000
    master_seed: int = 0
    start_x: float = 0.5
    start_t: float = 0.0

    def __post_init__(self):
        # written as "not within bound" so that NaN fails
        if not self.dt_sim > 0.0:
            raise ValueError(f"dt_sim must be positive, got {self.dt_sim}")
        if not (isinstance(self.n_paths, (int, np.integer))
                and self.n_paths >= 1):
            raise ValueError(f"n_paths must be a positive integer, "
                             f"got {self.n_paths}")
        if not 0.0 <= self.start_x <= 1.0:
            raise ValueError("start_x must lie in [0, 1]")
        if not (isinstance(self.master_seed, (int, np.integer))
                and self.master_seed >= 0):
            raise ValueError(f"master_seed must be a nonnegative integer, "
                             f"got {self.master_seed}")

    def n_steps(self, horizon: float, table_dt: float) -> int:
        """Simulation steps from start_t to the horizon, at least one; each
        must fall within one step of a control table of spacing table_dt."""
        if not 0.0 <= self.start_t < horizon:
            raise ValueError("start_t must lie in [0, horizon)")
        if not self.dt_sim <= table_dt:
            raise ValueError(f"dt_sim must not exceed the control-table "
                             f"spacing: {self.dt_sim} > {table_dt}")
        return max(1, step_count(horizon - self.start_t, self.dt_sim,
                                 "(horizon - start_t)/dt_sim"))


@dataclass
class ValueEstimate:
    mean: float
    std_err: float
    n_paths: int


@dataclass
class PathBatch:
    """Per-path outcomes; total is the integrated running cost."""

    total: np.ndarray
    jumps_down: np.ndarray
    jumps_up: np.ndarray
    thin_candidates: np.ndarray     # jump candidates proposed, both kinds
    x_min: np.ndarray
    x_max: np.ndarray


# ---------------------------------------------------------------------------
# jump-size sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JumpSampler:
    zs: np.ndarray
    cdf: np.ndarray

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return np.interp(rng.uniform(size=size), self.cdf, self.zs)


def make_jump_sampler(density: JumpDensity) -> JumpSampler:
    """Inverse-CDF sampler on a fine grid (exact for uniform densities)."""
    zs = np.linspace(density.xs[0], density.xs[-1], JUMP_CDF_NODES)
    pdf = density(zs)
    increments = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(zs)
    cdf = np.concatenate(([0.0], np.cumsum(increments)))
    # a valid density can still vanish at every node of the grid
    if not 0.0 < cdf[-1]:
        raise ValueError("the sampler's CDF grid carries no mass of the "
                         "jump density")
    return JumpSampler(zs=zs, cdf=cdf / cdf[-1])


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def _row(name: str, values) -> tuple[np.ndarray, np.ndarray]:
    """A node row in slope form (values, np.diff(values)), checked finite."""
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"the oracle's {name} row is not finite at node "
                         f"{bad[0]} ({values[bad[0]]})")
    return values, np.diff(values)


def _lerp(row: tuple[np.ndarray, np.ndarray], idx: np.ndarray,
          w: np.ndarray) -> np.ndarray:
    """The linear interpolant of a slope-form row at `Mesh.locate`'s (idx, w)."""
    values, slopes = row
    return values[idx] + slopes[idx] * w


def _level_rows(level: ControlField):
    """Running-cost, drift, theta1 and theta2 rows of one level, as the
    solve stored them; each theta row comes with its thinning bound, the
    row's largest node value, as (row, bound)."""
    rows = (_row("running cost", level.cost), _row("drift", level.drift),
            _row("theta1", level.theta_star[0]),
            _row("theta2", level.theta_star[1]))
    return rows[:2] + tuple((row, float(row[0].max())) for row in rows[2:])


def _thin_jumps(rng, x, nu_dt, mesh, theta, sampler, kind, jumps,
                candidates):
    """State-dependent jumps by thinning at nu * max(theta row).

    `theta` is a slope-form row and its largest node value, the bound, as
    `_level_rows` gives them. The row's interpolant exceeds the bound by at
    most one ulp (at w = 1 the slope form need not round to the next node
    value exactly), so the bound dominates theta(x) and thinning at it is
    exact (Lewis & Shedler 1979); where the overshoot occurs the acceptance
    test saturates and accepts. A zero row draws no candidates. One Poisson
    total is split over uniformly chosen paths, and candidates that land on
    the same path are applied in turn.
    """
    theta_row, bound = theta
    pending = np.sort(rng.integers(x.size,
                                   size=rng.poisson(nu_dt * bound * x.size)))
    while pending.size:
        first = np.ones(pending.size, dtype=bool)
        first[1:] = pending[1:] != pending[:-1]
        active = pending[first]
        pending = pending[~first]
        candidates[active] += 1
        idx, w = mesh.locate(x[active])
        theta_here = _lerp(theta_row, idx, w)
        hit = active[rng.uniform(size=active.size) * bound < theta_here]
        if hit.size:
            x[hit] = post_jump(kind, sampler.sample(rng, hit.size), x[hit])
            jumps[hit] += 1


def simulate_paths(spec: ProblemSpec, controls: ControlTable,
                   cfg: SimConfig) -> PathBatch:
    """Simulate all paths and return per-path integrals and diagnostics."""
    grid = controls.time_grid
    # level m holds time-to-go grid.horizon - m dt, so the horizons must agree
    if not grid.ends_at(spec.horizon):
        raise ValueError(f"control fields cover [0, {grid.horizon}], not the "
                         f"spec horizon [0, {spec.horizon}]")
    n_steps = cfg.n_steps(spec.horizon, grid.dt)
    dt = (spec.horizon - cfg.start_t) / n_steps
    sqrt_dt = math.sqrt(dt)
    # the terminal level has no controls
    slice_of_step = np.minimum(
        grid.nearest(cfg.start_t + dt * np.arange(n_steps)), grid.n_steps - 1)
    sampler_down = make_jump_sampler(spec.jump_density_1)
    sampler_up = make_jump_sampler(spec.jump_density_2)
    mesh = controls.mesh
    diffusion = _row("diffusion", spec.sigma * np.asarray(
        spec.growth_a(mesh.nodes), dtype=float))

    n_chunks = (cfg.n_paths + CHUNK_PATHS - 1) // CHUNK_PATHS
    seeds = np.random.SeedSequence(cfg.master_seed).spawn(n_chunks)
    parts: list[PathBatch] = []
    for c in range(n_chunks):
        n = min(CHUNK_PATHS, cfg.n_paths - c * CHUNK_PATHS)
        rng = np.random.default_rng(seeds[c])
        x = np.full(n, float(cfg.start_x))
        acc_cost = np.zeros(n)
        jumps_down = np.zeros(n, dtype=np.int64)
        jumps_up = np.zeros(n, dtype=np.int64)
        candidates = np.zeros(n, dtype=np.int64)
        x_min = x.copy()
        x_max = x.copy()
        level = None
        for k in range(n_steps):
            # only the current level's rows are held; levels below an
            # ergodic exit share one object, so their rows are built once
            if controls.levels[slice_of_step[k]] is not level:
                level = controls.levels[slice_of_step[k]]
                cost_row, drift_row, theta1, theta2 = _level_rows(level)
            idx, w = mesh.locate(x)
            acc_cost += _lerp(cost_row, idx, w)
            noise = rng.standard_normal(n)
            x = np.clip(x + _lerp(drift_row, idx, w) * dt
                        + _lerp(diffusion, idx, w) * sqrt_dt * noise,
                        0.0, 1.0)
            _thin_jumps(rng, x, spec.nu1 * dt, mesh, theta1,
                        sampler_down, "down", jumps_down, candidates)
            _thin_jumps(rng, x, spec.nu2 * dt, mesh, theta2,
                        sampler_up, "up", jumps_up, candidates)
            np.clip(x, 0.0, 1.0, out=x)
            np.minimum(x_min, x, out=x_min)
            np.maximum(x_max, x, out=x_max)

        parts.append(PathBatch(total=acc_cost * dt, jumps_down=jumps_down,
                               jumps_up=jumps_up, thin_candidates=candidates,
                               x_min=x_min, x_max=x_max))

    return PathBatch(*[np.concatenate([getattr(p, f.name) for p in parts])
                       for f in dataclasses.fields(PathBatch)])


def simulate_value(spec: ProblemSpec, controls: ControlTable,
                   cfg: SimConfig) -> ValueEstimate:
    """Sample mean and standard error of the performance index."""
    batch = simulate_paths(spec, controls, cfg)
    n = batch.total.size
    mean = float(np.mean(batch.total))
    std_err = float(np.std(batch.total, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ValueEstimate(mean=mean, std_err=std_err, n_paths=n)
