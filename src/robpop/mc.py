"""Monte Carlo oracle for the controlled, measure-distorted dynamics.

Paths follow the distorted dynamics directly: Euler-Maruyama on the
continuous part with drift a(x) r(q) + sigma lambda a(x) + gamma1 -
(gamma0+gamma1) x and diffusion sigma a(x), state projected back into [0, 1]
after every increment, and distorted jumps simulated by thinning (candidates
at rate nu * theta_max, accepted with probability theta(t, x)/theta_max,
sizes drawn by inverse CDF from the jump-density table).
The running cost f(x) + h(q) - lambda^2/(2 psi0) - sum_i (nu_i/psi_i)
(theta_i ln theta_i + 1 - theta_i) is integrated with the left-endpoint
rule; control values come from the nearest PDE time level, linearly
interpolated in space.

Paths are processed in fixed-size chunks, each chunk driven by its own
deterministic substream spawned from the master seed, so identical
configurations reproduce bitwise identical estimates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .jump_ops import entropy_penalty
from .model import JumpDensity, ProblemSpec
from .solver import ControlTable


@dataclass(frozen=True)
class SimConfig:
    dt_sim: float = 5e-4
    n_paths: int = 10_000
    master_seed: int = 0
    start_x: float = 0.5
    start_t: float = 0.0
    chunk_size: int = 32_768

    def __post_init__(self):
        # written as "not within bound" so that NaN fails
        if not (self.dt_sim > 0.0 and self.n_paths >= 1 and self.chunk_size >= 1):
            raise ValueError("dt_sim, n_paths, and chunk_size must be positive")
        if not 0.0 <= self.start_x <= 1.0:
            raise ValueError("start_x must lie in [0, 1]")
        if not self.start_t >= 0.0:
            raise ValueError("start_t must lie in [0, horizon)")


@dataclass
class ValueEstimate:
    mean: float
    std_err: float
    n_paths: int


@dataclass
class PathBatch:
    """Per-path outcomes; total = disutility + penalty."""

    total: np.ndarray
    disutility: np.ndarray
    penalty: np.ndarray
    jumps_down: np.ndarray
    jumps_up: np.ndarray
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


def make_jump_sampler(density: JumpDensity, n_grid: int = 4097) -> JumpSampler:
    """Inverse-CDF sampler on a fine grid (exact for uniform densities)."""
    zs = np.linspace(density.xs[0], density.xs[-1], n_grid)
    pdf = density(zs)
    if np.any(pdf < 0.0):
        raise ValueError("jump density must be nonnegative")
    increments = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(zs)
    cdf = np.concatenate(([0.0], np.cumsum(increments)))
    if cdf[-1] <= 0.0:
        raise ValueError("jump density must have positive mass")
    return JumpSampler(zs=zs, cdf=cdf / cdf[-1])


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def _make_locator(n_cells: int):
    """Cell index and fractional weight for positions in [0, 1].

    Control tables live on the uniform mesh of `build_mesh`, which admits
    direct index arithmetic.
    """
    def locate(x):
        s = x * n_cells
        idx = np.minimum(s.astype(np.int64), n_cells - 1)
        return idx, s - idx
    return locate


def _gather(row: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    return row[idx] * (1.0 - w) + row[idx + 1] * w


def _thin_jumps(rng, x, rate, locate, theta_row, theta_max, sampler, downward,
                counter):
    """State-dependent jumps by thinning at the dominating rate."""
    pending = rng.poisson(lam=rate, size=x.size)
    while True:
        active = np.flatnonzero(pending > 0)
        if active.size == 0:
            return
        idx, w = locate(x[active])
        theta_here = _gather(theta_row, idx, w)
        accept = rng.uniform(size=active.size) * theta_max < theta_here
        hit = active[accept]
        if hit.size:
            z = sampler.sample(rng, hit.size)
            if downward:
                x[hit] = (1.0 - z) * x[hit]
            else:
                x[hit] = z + (1.0 - z) * x[hit]
            counter[hit] += 1
        pending[active] -= 1


def simulate_paths(spec: ProblemSpec, controls: ControlTable,
                   cfg: SimConfig) -> PathBatch:
    """Simulate all paths and return per-path integrals and diagnostics."""
    span = spec.horizon - cfg.start_t
    if not span > 0.0:
        raise ValueError("start_t must lie in [0, horizon)")
    grid = controls.time_grid
    if not grid.horizon >= spec.horizon - 1e-9 * max(1.0, spec.horizon):
        raise ValueError("control fields do not cover [start_t, horizon]")
    if not cfg.dt_sim <= grid.dt:
        raise ValueError("dt_sim must not exceed the control-table spacing")

    n_steps = max(1, int(round(span / cfg.dt_sim)))
    dt = span / n_steps
    sqrt_dt = math.sqrt(dt)
    # the terminal level has no controls
    slice_of_step = np.minimum(
        grid.nearest(cfg.start_t + dt * np.arange(n_steps)), grid.n_steps - 1)
    sampler_down = make_jump_sampler(spec.jump_density_1)
    sampler_up = make_jump_sampler(spec.jump_density_2)
    rate_down = spec.nu1 * spec.theta_max * dt
    rate_up = spec.nu2 * spec.theta_max * dt
    locate = _make_locator(controls.mesh.n_cells)

    n_chunks = (cfg.n_paths + cfg.chunk_size - 1) // cfg.chunk_size
    seeds = np.random.SeedSequence(cfg.master_seed).spawn(n_chunks)
    parts: list[PathBatch] = []
    for c in range(n_chunks):
        n = min(cfg.chunk_size, cfg.n_paths - c * cfg.chunk_size)
        rng = np.random.default_rng(seeds[c])
        x = np.full(n, float(cfg.start_x))
        acc_dis = np.zeros(n)
        acc_pen = np.zeros(n)
        jumps_down = np.zeros(n, dtype=np.int64)
        jumps_up = np.zeros(n, dtype=np.int64)
        x_min = x.copy()
        x_max = x.copy()
        for k in range(n_steps):
            j = slice_of_step[k]
            idx, w = locate(x)
            q = _gather(controls.q[j], idx, w)
            lam = _gather(controls.lam[j], idx, w)
            th1 = _gather(controls.theta1[j], idx, w)
            th2 = _gather(controls.theta2[j], idx, w)

            acc_dis += (np.asarray(spec.disutility_f(x), dtype=float)
                        + np.asarray(spec.cost_h(q), dtype=float))
            acc_pen -= (lam ** 2 / (2.0 * spec.psi0)
                        + (spec.nu1 / spec.psi1) * entropy_penalty(th1)
                        + (spec.nu2 / spec.psi2) * entropy_penalty(th2))

            a_x = np.asarray(spec.growth_a(x), dtype=float)
            drift = (a_x * np.asarray(spec.growth_rate_r(q), dtype=float)
                     + spec.sigma * lam * a_x
                     + spec.gamma1 - (spec.gamma0 + spec.gamma1) * x)
            noise = rng.standard_normal(n)
            x = np.clip(x + drift * dt + spec.sigma * a_x * sqrt_dt * noise,
                        0.0, 1.0)
            if rate_down > 0.0:
                _thin_jumps(rng, x, rate_down, locate, controls.theta1[j],
                            spec.theta_max, sampler_down, True, jumps_down)
            if rate_up > 0.0:
                _thin_jumps(rng, x, rate_up, locate, controls.theta2[j],
                            spec.theta_max, sampler_up, False, jumps_up)
            np.clip(x, 0.0, 1.0, out=x)
            np.minimum(x_min, x, out=x_min)
            np.maximum(x_max, x, out=x_max)

        disutility = acc_dis * dt
        penalty = acc_pen * dt
        parts.append(PathBatch(total=disutility + penalty, disutility=disutility,
                               penalty=penalty, jumps_down=jumps_down,
                               jumps_up=jumps_up, x_min=x_min, x_max=x_max))

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
