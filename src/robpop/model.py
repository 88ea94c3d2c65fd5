"""Problem definition: coefficients, ambiguity parameters, presets, validation.

A :class:`ProblemSpec` collects everything that defines one control problem:
the noise magnitudes, migration intensities, jump intensities and densities,
ambiguity-aversion weights, control bounds, the horizon, and the coefficient
functions (density-dependent growth, controlled growth rate, control cost,
disutility). Specs are immutable and valid by construction: building one,
by `ProblemSpec(...)` or `dataclasses.replace`, runs `validate_spec` and
raises one ValueError listing every violation, so a `ProblemSpec` that
exists is valid and no solve checks it again.
The field defaults are the paper's uncontrolled benchmark, and
`make_paper_spec` states its controlled variant.

A jump-size density is one type, a piecewise-linear table of mass one on a
support strictly inside (0, 1); uniform densities are its two-knot case.
The type checks its table exactly at its knots when it is built, so every
`JumpDensity` that exists is valid and nothing downstream checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

Coefficient = Callable[..., np.ndarray]


# ---------------------------------------------------------------------------
# coefficient presets
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
    # written as "not within bound" so that NaN fails
    if not np.all(np.abs(pts) < np.inf):
        raise ValueError("tabulated coefficient samples must be finite")
    order = np.argsort(pts[:, 0])
    return TabulatedFunction(xs=pts[order, 0], ys=pts[order, 1])


# ---------------------------------------------------------------------------
# jump densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JumpDensity(TabulatedFunction):
    """Jump-size density: a piecewise-linear table (xs, ys) of mass one.

    Construction checks the table: it is 1-D with at least two knots and
    one value per knot, its knots ascend, its support [xs[0], xs[-1]] lies
    strictly inside (0, 1), its knot values are finite and nonnegative, and
    its trapezoid mass, exact for the table, is within 1e-10 of one. These
    keep the quadrature weights finite and nonnegative, which the scheme's
    monotonicity rests on.
    """

    def __post_init__(self):
        xs, ys = self.xs, self.ys
        # each check is written as "not within bound" so that NaN fails
        if not (np.ndim(xs) == 1 and len(xs) >= 2
                and np.shape(xs) == np.shape(ys) and 0.0 < xs[0] < xs[-1] < 1.0
                and np.all(np.diff(xs) >= 0.0)):
            raise ValueError("jump density needs a 1-D table of at least two "
                             "knots, one value per knot, knots that ascend, "
                             "and support 0 < lo < hi < 1")
        if not np.all((ys >= 0.0) & (ys < np.inf)):
            raise ValueError("jump density must have finite nonnegative knot "
                             "values")
        mass = np.trapezoid(ys, xs)
        if not abs(mass - 1.0) <= 1e-10:
            raise ValueError(f"jump density mass is {mass:.15g}, expected 1 "
                             f"within 1e-10")


def uniform_density(lo: float = 0.1, hi: float = 0.9) -> JumpDensity:
    """Two-knot table of the uniform density on [lo, hi]."""
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("uniform density needs 0 < lo < hi < 1")
    c = 1.0 / (hi - lo)
    return JumpDensity(xs=np.asarray([lo, hi], dtype=float),
                       ys=np.asarray([c, c]))


def tabulated_density(points) -> JumpDensity:
    """Piecewise-linear density through (z, weight) samples, normalized to mass one."""
    fn = tabulated(points)
    mass = np.trapezoid(fn.ys, fn.xs)
    # the precondition of the division; JumpDensity checks the rest
    if not 0.0 < mass < np.inf:
        raise ValueError(f"density table mass must be positive and finite, "
                         f"got {mass:.15g}")
    return JumpDensity(xs=fn.xs, ys=fn.ys / mass)


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One control problem; the defaults are the uncontrolled benchmark.

    Construction raises a ValueError that starts with ``invalid model:`` and
    lists every violation `validate_spec` finds.
    """

    sigma: float = 1.0          # continuous-noise magnitude
    gamma0: float = 0.1         # decay / outward-migration intensity
    gamma1: float = 0.1         # immigration intensity
    nu1: float = 1.0            # downward-jump intensity
    nu2: float = 1.0            # upward-jump intensity
    psi0: float = 0.5           # ambiguity aversion, continuous noise
    psi1: float = 0.5           # ambiguity aversion, downward jumps
    psi2: float = 0.5           # ambiguity aversion, upward jumps
    lambda_max: float = 100.0   # drift-distortion bound
    theta_max: float = 100.0    # intensity-distortion bound
    q_max: float = 1.0          # intervention bound
    horizon: float = 50.0       # terminal time
    # density-dependent growth, zero at 0 and 1
    growth_a: Coefficient = logistic_growth
    growth_rate_r: Coefficient = unit_rate  # controlled growth rate, [0, q_max]
    cost_h: Coefficient = zero_cost         # intervention cost, [0, q_max]
    disutility_f: Coefficient = tent_disutility  # running disutility >= 0
    jump_density_1: JumpDensity = uniform_density(0.1, 0.9)
    jump_density_2: JumpDensity = uniform_density(0.1, 0.9)
    q_grid_size: int = 2    # candidate interventions for the discrete argmax

    def __post_init__(self):
        violations = validate_spec(self)
        if violations:
            raise ValueError("invalid model: " + "; ".join(violations))

    def q_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.q_max, self.q_grid_size)


# the scalar fields, in declaration order: the ones with a float default
SCALAR_FIELDS = tuple(f.name for f in fields(ProblemSpec)
                      if isinstance(f.default, float))


def make_paper_spec(with_control: bool = False) -> ProblemSpec:
    """The benchmark `ProblemSpec()`, where intervention never pays, or with
    `with_control` its variant with the rate 1 - q at the cost 0.1 q."""
    if not with_control:
        return ProblemSpec()
    return ProblemSpec(growth_rate_r=declining_rate, cost_h=tenth_cost)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_BOUNDARY_TOL = 1e-12
_MAY_BE_ZERO = ("sigma", "gamma0", "gamma1", "nu1", "nu2")
_N_SAMPLES = 201
_NUMBER = (int, float, np.integer, np.floating)
_COEFFICIENTS = ("growth_a", "growth_rate_r", "cost_h", "disutility_f")


def _sample_points(fn: Coefficient, lo: float, hi: float) -> np.ndarray:
    """Even samples of [lo, hi], plus a table's knots inside it.

    A piecewise-linear table is extreme at its knots or at lo and hi, so a
    sign check on these points is exact for it.
    """
    pts = np.linspace(lo, hi, _N_SAMPLES)
    if isinstance(fn, TabulatedFunction):
        pts = np.union1d(pts, fn.xs[(fn.xs > lo) & (fn.xs < hi)])
    return pts


def validate_spec(spec: ProblemSpec) -> list[str]:
    """Check well-posedness; returns every violation found, raises none.

    A scalar that is not a number, or a coefficient that is not callable,
    is a violation, and the checks of its values are skipped.
    """
    v: list[str] = []
    numbers = {name for name in SCALAR_FIELDS
               if isinstance(getattr(spec, name), _NUMBER)}
    for name in SCALAR_FIELDS:
        value = getattr(spec, name)
        if name not in numbers:
            v.append(f"{name} must be a number, got {type(value).__name__}")
        elif name in _MAY_BE_ZERO and value < 0.0:
            v.append(f"{name} must be >= 0")
        elif name not in _MAY_BE_ZERO and value <= 0.0:
            v.append(f"{name} must be > 0")
    v += [f"{name} must be finite" for name in SCALAR_FIELDS
          if name in numbers and not math.isfinite(getattr(spec, name))]
    if not isinstance(spec.q_grid_size, (int, np.integer)) or spec.q_grid_size < 2:
        v.append("q_grid_size must be an integer >= 2")
    callables = {name for name in _COEFFICIENTS
                 if callable(getattr(spec, name))}
    v += [f"{name} must be callable, got {type(getattr(spec, name)).__name__}"
          for name in _COEFFICIENTS if name not in callables]

    if "growth_a" in callables:
        a0 = float(np.asarray(spec.growth_a(0.0), dtype=float))
        a1 = float(np.asarray(spec.growth_a(1.0), dtype=float))
        if not abs(a0) <= _BOUNDARY_TOL:
            v.append(f"growth rate must vanish at the left boundary: "
                     f"a(0) = {a0:.3g}")
        if not abs(a1) <= _BOUNDARY_TOL:
            v.append(f"growth rate must vanish at the right boundary: "
                     f"a(1) = {a1:.3g}")
        xs = _sample_points(spec.growth_a, 0.0, 1.0)
        a_mid = np.asarray(spec.growth_a(xs[1:-1]), dtype=float)
        if not np.all((a_mid > 0.0) & np.isfinite(a_mid)):
            v.append("growth rate must be finite and positive on the sampled "
                     "interior")

    if "disutility_f" in callables:
        xs = _sample_points(spec.disutility_f, 0.0, 1.0)
        f_vals = np.asarray(spec.disutility_f(xs), dtype=float)
        if not np.all((f_vals >= 0.0) & np.isfinite(f_vals)):
            v.append("disutility must be finite and nonnegative on [0, 1]")
    if "q_max" in numbers and 0.0 < spec.q_max < math.inf:
        if "cost_h" in callables:
            qs = _sample_points(spec.cost_h, 0.0, spec.q_max)
            h_vals = np.asarray(spec.cost_h(qs), dtype=float)
            if not np.all((h_vals >= 0.0) & np.isfinite(h_vals)):
                v.append("control cost must be finite and nonnegative on "
                         "[0, q_max]")
        if "growth_rate_r" in callables:
            qs = _sample_points(spec.growth_rate_r, 0.0, spec.q_max)
            if not np.all(np.isfinite(np.asarray(spec.growth_rate_r(qs),
                                                 dtype=float))):
                v.append("controlled growth rate must be finite on [0, q_max]")

    v += [f"{name} must be a JumpDensity"
          for name in ("jump_density_1", "jump_density_2")
          if not isinstance(getattr(spec, name), JumpDensity)]
    return v
