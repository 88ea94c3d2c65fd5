"""Uniform spatial mesh on [0, 1] with its interpolation lookup, time grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LEVEL_TOL = 1e-10   # a time is a level m * dt within LEVEL_TOL * horizon


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform vertex mesh on the unit interval (n_cells + 1 nodes)."""

    n_cells: int
    nodes: np.ndarray
    dx: float

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def locate(self, ys) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and weight of points in [0, 1]: y = nodes[idx] + w dx,
        with y = 1 in the last cell at w = 1, so idx + 1 is always a node."""
        ys = np.asarray(ys, dtype=float)
        # written as "not within bound" so that a NaN point fails the check
        if ys.size and not (ys.min() >= 0.0 and ys.max() <= 1.0):
            raise ValueError("interpolation points must lie in [0, 1]")
        s = ys * self.n_cells
        idx = np.minimum(s.astype(np.int64), self.n_cells - 1)
        return idx, s - idx


@dataclass(frozen=True)
class TimeGrid:
    """Backward time levels m * dt, m = 0 .. n_steps, with n_steps * dt = horizon."""

    dt: float
    horizon: float
    n_steps: int

    def nearest(self, ts) -> np.ndarray:
        """The nearest level m in 0 .. n_steps of each time; ties go earlier."""
        ts = np.asarray(ts, dtype=float)
        lo = np.clip(np.floor(ts / self.dt), 0, self.n_steps - 1)
        later = ts - lo * self.dt > (lo + 1) * self.dt - ts
        return (lo + later).astype(np.int64)

    def level(self, t: float) -> int:
        """The m with m * dt = t, under the tolerance of `build_time_grid`."""
        m = int(self.nearest(t))
        # written as "not within bound" so that a NaN time fails the check
        if not abs(m * self.dt - t) <= LEVEL_TOL * self.horizon:
            raise ValueError(f"time {t} is not a level m * {self.dt} of the "
                             f"time grid, 0 <= m <= {self.n_steps}")
        return m

    def ends_at(self, horizon: float) -> bool:
        """Whether the last level is `horizon`; false for a NaN horizon."""
        return abs(self.horizon - horizon) <= LEVEL_TOL * horizon


def build_mesh(n_cells: int) -> Mesh:
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    nodes = np.linspace(0.0, 1.0, n_cells + 1)
    return Mesh(n_cells=n_cells, nodes=nodes, dx=1.0 / n_cells)


def build_time_grid(horizon: float, dt: float) -> TimeGrid:
    # written as "not within bound" so that NaN and infinity fail the check
    if not (0.0 < dt < math.inf and 0.0 < horizon < math.inf):
        raise ValueError("horizon and dt must be finite and positive")
    n_steps = step_count(horizon, dt, "horizon/dt")
    if n_steps < 1 or abs(n_steps * dt - horizon) > LEVEL_TOL * horizon:
        raise ValueError(f"dt={dt} does not evenly divide horizon={horizon}")
    return TimeGrid(dt=dt, horizon=horizon, n_steps=n_steps)


def step_count(span: float, dt: float, what: str) -> int:
    """round(span / dt), refused where the quotient of two finite floats
    overflows to inf or past int64; `what` names it in the error."""
    steps = span / dt
    if not steps < 2.0 ** 63:
        raise ValueError(f"{what} = {steps} is not a finite int64 step count")
    return int(round(steps))
