"""Problem definition: coefficients, ambiguity parameters, presets, validation.

A :class:`ProblemSpec` collects everything that defines one control problem:
the noise magnitudes, migration intensities, jump intensities and densities,
ambiguity-aversion weights, control bounds, the horizon, and the coefficient
functions (density-dependent growth, controlled growth rate, control cost,
disutility). Specs are immutable and safe to share across concurrent solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Coefficient = Callable[..., np.ndarray]


# ---------------------------------------------------------------------------
# coefficient presets (module-level so specs pickle for process pools)
# ---------------------------------------------------------------------------

def logistic_growth(x):
    """Density-dependent growth x(1-x): vanishes at both habitat boundaries."""
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x)


def tent_disutility(x):
    """max(2x-1, 1-2x): zero at the target state 0.5, one at the extremes."""
    x = np.asarray(x, dtype=float)
    return np.maximum(2.0 * x - 1.0, 1.0 - 2.0 * x)


def unit_rate(q):
    q = np.asarray(q, dtype=float)
    return np.ones_like(q)


def declining_rate(q):
    q = np.asarray(q, dtype=float)
    return 1.0 - q


def zero_rate(q):
    """No deterministic growth; the mirror-symmetric benchmark variant."""
    q = np.asarray(q, dtype=float)
    return np.zeros_like(q)


def zero_cost(q):
    q = np.asarray(q, dtype=float)
    return np.zeros_like(q)


def tenth_cost(q):
    q = np.asarray(q, dtype=float)
    return 0.1 * q


@dataclass(frozen=True, eq=False)
class TabulatedFunction:
    """Piecewise-linear interpolant through (xs, ys) samples."""

    xs: np.ndarray
    ys: np.ndarray

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)


def tabulated(points) -> TabulatedFunction:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("tabulated coefficient needs at least two (x, value) pairs")
    order = np.argsort(pts[:, 0])
    return TabulatedFunction(xs=pts[order, 0], ys=pts[order, 1])


@dataclass(frozen=True, eq=False)
class UniformPdf:
    lo: float
    hi: float

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        inside = (z >= self.lo) & (z <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)


# ---------------------------------------------------------------------------
# jump densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JumpDensity:
    """Jump-size density with compact support strictly inside (0, 1).

    support_lo == support_hi denotes a point mass (used for deterministic
    jump sizes, mainly in tests).
    """

    support_lo: float
    support_hi: float
    density: Coefficient

    @property
    def is_point_mass(self) -> bool:
        return self.support_lo == self.support_hi


def uniform_density(lo: float = 0.1, hi: float = 0.9) -> JumpDensity:
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("uniform density needs 0 < lo < hi < 1")
    return JumpDensity(support_lo=lo, support_hi=hi, density=UniformPdf(lo, hi))


@dataclass(frozen=True, eq=False)
class PointPdf:
    z: float

    def __call__(self, zz):
        raise ValueError("a point mass has no density function")


def point_mass_density(z: float) -> JumpDensity:
    if not (0.0 < z < 1.0):
        raise ValueError("point mass must sit strictly inside (0, 1)")
    return JumpDensity(support_lo=z, support_hi=z, density=PointPdf(z))


def tabulated_density(points) -> JumpDensity:
    """Piecewise-linear density through (z, weight) samples, normalized to mass one."""
    fn = tabulated(points)
    lo, hi = float(fn.xs[0]), float(fn.xs[-1])
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("density support must satisfy 0 < lo < hi < 1")
    if np.any(fn.ys < 0.0):
        raise ValueError("density samples must be nonnegative")
    mass = np.trapezoid(fn.ys, fn.xs)
    if mass <= 0.0:
        raise ValueError("density must have positive mass")
    return JumpDensity(support_lo=lo, support_hi=hi,
                       density=TabulatedFunction(fn.xs, fn.ys / mass))


def density_mass(density: JumpDensity, n_points: int = 200_001) -> float:
    """Midpoint-rule mass of the density over its support."""
    if density.is_point_mass:
        return 1.0
    lo, hi = density.support_lo, density.support_hi
    dz = (hi - lo) / n_points
    z = lo + (np.arange(n_points) + 0.5) * dz
    return float(np.sum(np.asarray(density.density(z), dtype=float)) * dz)


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemSpec:
    sigma: float            # continuous-noise magnitude
    gamma0: float           # decay / outward-migration intensity
    gamma1: float           # immigration intensity
    nu1: float              # downward-jump intensity
    nu2: float              # upward-jump intensity
    psi0: float             # ambiguity aversion, continuous noise
    psi1: float             # ambiguity aversion, downward jumps
    psi2: float             # ambiguity aversion, upward jumps
    lambda_max: float       # drift-distortion bound
    theta_max: float        # intensity-distortion bound
    q_max: float            # intervention bound
    horizon: float          # terminal time
    growth_a: Coefficient       # density-dependent growth, zero at 0 and 1
    growth_rate_r: Coefficient  # controlled growth rate on [0, q_max]
    cost_h: Coefficient         # unit-time intervention cost on [0, q_max]
    disutility_f: Coefficient   # nonnegative running disutility on [0, 1]
    jump_density_1: JumpDensity
    jump_density_2: JumpDensity
    q_grid_size: int = 2    # candidate interventions for the discrete argmax

    def q_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.q_max, self.q_grid_size)


def make_paper_spec(with_control: bool = False) -> ProblemSpec:
    """Benchmark configuration used throughout the numerical experiments.

    sigma=1, a(x)=x(1-x), nu1=nu2=1, psi0=psi1=psi2=0.5, f=tent, T=50,
    lambda_max=theta_max=100. With `with_control` the intervention enters via
    r(q)=1-q at cost h(q)=0.1q on [0, 1]; otherwise r is constant 1 and h = 0
    so the no-intervention policy is always selected. The migration
    intensities default to gamma0=gamma1=0.1 and both jump densities to
    uniform on [0.1, 0.9].
    """
    return ProblemSpec(
        sigma=1.0,
        gamma0=0.1,
        gamma1=0.1,
        nu1=1.0,
        nu2=1.0,
        psi0=0.5,
        psi1=0.5,
        psi2=0.5,
        lambda_max=100.0,
        theta_max=100.0,
        q_max=1.0,
        horizon=50.0,
        growth_a=logistic_growth,
        growth_rate_r=declining_rate if with_control else unit_rate,
        cost_h=tenth_cost if with_control else zero_cost,
        disutility_f=tent_disutility,
        jump_density_1=uniform_density(0.1, 0.9),
        jump_density_2=uniform_density(0.1, 0.9),
        q_grid_size=2,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationResult:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


_BOUNDARY_TOL = 1e-12
_NONNEGATIVE = ("sigma", "gamma0", "gamma1", "nu1", "nu2")
_POSITIVE = ("psi0", "psi1", "psi2", "lambda_max", "theta_max", "q_max",
             "horizon")


def _check_density(name: str, density: JumpDensity, out: list[str]) -> None:
    lo, hi = density.support_lo, density.support_hi
    if not (0.0 < lo <= hi < 1.0):
        out.append(f"{name}: support must satisfy 0 < lo <= hi < 1")
        return
    if density.is_point_mass:
        return
    z = np.linspace(lo, hi, 501)
    vals = np.asarray(density.density(z), dtype=float)
    if np.any(vals < 0.0):
        out.append(f"{name}: density takes negative values on its support")
    mass = density_mass(density)
    if abs(mass - 1.0) > 1e-10:
        out.append(f"{name}: density mass is {mass:.15g}, expected 1 within 1e-10")


def validate_spec(spec: ProblemSpec, n_samples: int = 201) -> ValidationResult:
    """Check well-posedness; all violations are collected, none are raised."""
    v: list[str] = []
    for name in _NONNEGATIVE:
        if getattr(spec, name) < 0.0:
            v.append(f"{name} must be >= 0")
    for name in _POSITIVE:
        if getattr(spec, name) <= 0.0:
            v.append(f"{name} must be > 0")
    v += [f"{name} must be finite" for name in _NONNEGATIVE + _POSITIVE
          if not math.isfinite(getattr(spec, name))]
    if not isinstance(spec.q_grid_size, (int, np.integer)) or spec.q_grid_size < 2:
        v.append("q_grid_size must be an integer >= 2")

    a0 = float(np.asarray(spec.growth_a(0.0), dtype=float))
    a1 = float(np.asarray(spec.growth_a(1.0), dtype=float))
    if not abs(a0) <= _BOUNDARY_TOL:
        v.append(f"growth rate must vanish at the left boundary: a(0) = {a0:.3g}")
    if not abs(a1) <= _BOUNDARY_TOL:
        v.append(f"growth rate must vanish at the right boundary: a(1) = {a1:.3g}")
    xs = np.linspace(0.0, 1.0, n_samples)
    a_mid = np.asarray(spec.growth_a(xs[1:-1]), dtype=float)
    if not np.all((a_mid > 0.0) & np.isfinite(a_mid)):
        v.append("growth rate must be finite and positive on the sampled interior")

    f_vals = np.asarray(spec.disutility_f(xs), dtype=float)
    if not np.all((f_vals >= 0.0) & np.isfinite(f_vals)):
        v.append("disutility must be finite and nonnegative on [0, 1]")
    if 0.0 < spec.q_max < math.inf:
        qs = np.linspace(0.0, spec.q_max, n_samples)
        h_vals = np.asarray(spec.cost_h(qs), dtype=float)
        if not np.all((h_vals >= 0.0) & np.isfinite(h_vals)):
            v.append("control cost must be finite and nonnegative on [0, q_max]")

    _check_density("jump_density_1", spec.jump_density_1, v)
    _check_density("jump_density_2", spec.jump_density_2, v)
    return ValidationResult(violations=v)
