"""Uniform spatial mesh on [0, 1], backward time grid, and linear interpolation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform vertex mesh on the unit interval (n_cells + 1 nodes)."""

    n_cells: int
    nodes: np.ndarray
    dx: float

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1


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
        if not abs(m * self.dt - t) <= 1e-10 * self.horizon:
            raise ValueError(f"time {t} is not a level m * {self.dt} of the "
                             f"time grid, 0 <= m <= {self.n_steps}")
        return m


def build_mesh(n_cells: int) -> Mesh:
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    nodes = np.linspace(0.0, 1.0, n_cells + 1)
    return Mesh(n_cells=n_cells, nodes=nodes, dx=1.0 / n_cells)


def build_time_grid(horizon: float, dt: float) -> TimeGrid:
    if dt <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and dt must be positive")
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-10 * horizon:
        raise ValueError(f"dt={dt} does not evenly divide horizon={horizon}")
    return TimeGrid(dt=dt, horizon=horizon, n_steps=n_steps)


def interp_weights_many(mesh: Mesh, ys: np.ndarray):
    """Vectorized bracketing: ys[k] = lw[k]*nodes[i[k]] + rw[k]*nodes[i[k]+1].

    Exact node hits give (i, 1, 0); y = 1 resolves to (n_cells - 1, 0, 1) so the
    cell index is always a valid left cell.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size and (ys.min() < 0.0 or ys.max() > 1.0):
        raise ValueError("interpolation points must lie in [0, 1]")
    nodes = mesh.nodes
    idx = np.clip(np.searchsorted(nodes, ys, side="right") - 1, 0, mesh.n_cells - 1)
    # dividing by the actual node gap keeps exact hits exact (t = 0 or t = 1)
    t = (ys - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    return idx, 1.0 - t, t
